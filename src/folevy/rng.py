"""Deterministic random-number streams.

Every stochastic routine in the package draws from an `RngStream`, a
(master_seed, stream_index) pair.  The pair is fed through
``np.random.SeedSequence(master_seed, spawn_key=(stream_index,))`` into a
Philox4x64 counter-based bit generator, so

* the same pair always reproduces the same draws, bit for bit,
* distinct stream indices give statistically independent streams, and
* ensembles can assign stream ``base + i`` to path ``i`` and keep results
  dependent only on the master seed and the path order, never on how
  paths are grouped into batches.

The derivation scheme is part of the package contract; changing it would
invalidate the frozen calibration baselines shipped with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class RngStream:
    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (isinstance(self.master_seed, (int, np.integer)) and self.master_seed >= 0):
            raise ConfigError("master_seed must be a nonnegative integer")
        if not (isinstance(self.stream_index, (int, np.integer)) and self.stream_index >= 0):
            raise ConfigError("stream_index must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(int(self.master_seed), spawn_key=(int(self.stream_index),))
        return np.random.Generator(np.random.Philox(seq))


def path_streams(master_seed: int, base: int, n_paths: int) -> list[RngStream]:
    """Streams base .. base+n_paths-1; path i always gets stream base+i."""
    return [RngStream(master_seed, base + i) for i in range(n_paths)]
