"""Deterministic random-number streams.

Every stochastic routine in the package draws from an `RngStream`, a
(master_seed, stream_index) pair.  The pair is fed through the hash of
``np.random.SeedSequence(master_seed, spawn_key=(stream_index,))`` into a
Philox4x64 counter-based bit generator, so

* the same pair always reproduces the same draws, bit for bit,
* distinct stream indices give statistically independent streams, and
* ensembles can assign stream ``base + i`` to path ``i`` and keep results
  dependent only on the master seed and the path order, never on how
  paths are grouped into batches.

The derivation scheme is part of the package contract; changing it would
invalidate the frozen calibration baselines shipped with the tests.

A Philox stream is just its key, and the derivation contract above is
all a key depends on.  `path_streams` derives the keys of a whole block in
one pass of numpy ``uint32`` arithmetic that reproduces SeedSequence's
hash bit for bit: the master seed's words are mixed once (and cached), and
only the spawn word and the output hash run on arrays over the block.  An
`RngStream` answers ``generate_state`` as its SeedSequence would, so
`RngStream.generator` hands itself to Philox and no SeedSequence is built.
``numpy.random`` itself is imported on the first `generator()` call, not
with the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, _count

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF

# The helpers below run on Python ints (one stream) and on uint32 arrays
# (one entry per stream of a block) alike: every product is reduced to 32
# bits before it meets an array, so numpy's uint32 arithmetic wraps exactly
# where the masked int arithmetic does.


def _hash(v, a, b):
    """v ^= a; v *= b; v ^= v >> 16 in uint32 arithmetic."""
    v = (v ^ a) * b & _MASK
    return v ^ (v >> 16)


def _mix(x, y):
    r = ((_MIX_L * x & _MASK) - _MIX_R * y) & _MASK
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=None)
def _constants(init, mult, n):
    """The first n values of SeedSequence's running hash constant."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK)
    return tuple(out)


def _words(value):
    """SeedSequence's uint32 words of a nonnegative integer, low first."""
    value = int(value)
    out = [value & _MASK]
    while value > _MASK:
        value >>= 32
        out.append(value & _MASK)
    return out


def _absorb(pool, k, words):
    """Mix each word into every pool word, as SeedSequence does with the
    entropy beyond its pool size; k counts the hash constants used."""
    a = _constants(_INIT_A, _MULT_A, k + _POOL * len(words) + 1)
    for w in words:
        pool = [_mix(p, _hash(w, a[k + d], a[k + d + 1]))
                for d, p in enumerate(pool)]
        k += _POOL
    return pool, k


@functools.lru_cache(maxsize=64)
def _master_pool(master_seed):
    """The pool after mixing in the master seed's words, and the hash
    constants used so far: the same for every stream of the seed."""
    words = _words(master_seed)
    words += [0] * (_POOL - len(words))     # padded: a spawn key follows
    a = _constants(_INIT_A, _MULT_A, _POOL * _POOL + 1)
    pool = [_hash(w, a[d], a[d + 1]) for d, w in enumerate(words[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a[k], a[k + 1]))
                k += 1
    pool, k = _absorb(pool, k, words[_POOL:])
    return tuple(pool), k


def _state(master_seed, spawn, n_words):
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(n_words)
    given i's uint32 words `spawn`: Python ints give one stream's words,
    arrays one row of words per stream of a block."""
    pool, _ = _absorb(*_master_pool(master_seed), spawn)
    b = _constants(_INIT_B, _MULT_B, n_words + 1)
    words = [_hash(pool[i % _POOL], b[i], b[i + 1]) for i in range(n_words)]
    return np.array(words, dtype=np.uint32).T


def _as_uint64(words):
    # SeedSequence's little-endian pairing of uint32 words
    return words.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _random():
    """numpy.random, imported on first use: it costs ~10 ms at import."""
    import numpy.random
    numpy.random.bit_generator.ISeedSequence.register(RngStream)
    return numpy.random


@dataclass(frozen=True)
class RngStream:
    """Stream `stream_index` of `master_seed`; its own SeedSequence
    stand-in, registered as an ISeedSequence by the first `generator()`
    call."""

    master_seed: int
    stream_index: int = 0
    # the Philox key as two uint64 ints, set by path_streams; None: derive
    _key: Optional[list] = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        _count(self.master_seed, "master_seed")
        _count(self.stream_index, "stream_index")

    def generate_state(self, n_words, dtype=np.uint32):
        """What ``np.random.SeedSequence(master_seed,
        spawn_key=(stream_index,)).generate_state`` returns."""
        dtype = np.dtype(dtype)
        if dtype == np.uint64 and n_words == 2 and self._key is not None:
            return np.array(self._key, dtype=np.uint64)     # Philox's request
        if dtype not in (np.uint32, np.uint64):
            raise ConfigError("only support uint32 or uint64")
        wide = dtype == np.uint64
        words = _state(int(self.master_seed), _words(self.stream_index),
                       n_words * (1 + wide))
        return _as_uint64(words) if wide else words

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        rnd = _random()
        return rnd.Generator(rnd.Philox(self))


def path_streams(master_seed: int, base: int, n_paths: int) -> list[RngStream]:
    """Streams base .. base+n_paths-1; path i always gets stream base+i.

    The Philox keys of the indices below 2**32 (one spawn word) are
    derived in one vectorized pass; larger indices derive theirs on use.
    """
    _count(master_seed, "master_seed")
    _count(base, "base")
    _count(n_paths, "n_paths")
    streams = [RngStream(master_seed, base + i) for i in range(n_paths)]
    small = max(0, min(n_paths, 2 ** 32 - int(base)))
    if small:
        index = (int(base) + np.arange(small, dtype=np.uint64)).astype(np.uint32)
        keys = _as_uint64(_state(int(master_seed), [index], 4)).tolist()
        for s, key in zip(streams, keys):
            object.__setattr__(s, "_key", key)
    return streams
