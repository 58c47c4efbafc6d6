"""Stream derivation tests: the block key pass against numpy's SeedSequence.

`path_streams` derives the Philox keys of a block in one vectorized pass
and `RngStream` answers Philox's ``generate_state`` itself; both must
reproduce ``np.random.SeedSequence(master_seed, spawn_key=(index,))`` bit
for bit, since the derivation is part of the package contract.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np

import folevy
from folevy import RngStream, path_streams

MASTERS = (0, 1, 7, 777006, 20260816, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
           2**48 + 3, 2**63, 2**64 - 1, 2**64, 2**64 + 12345, 2**96 - 1,
           2**127 + 5, 2**128, 2**128 + 99, 2**200 + 17, 3**150)
# index 0, the last one-word index 2**32 - 1, and indices of two and three
# words, which take the per-stream derivation
BASES = (0, 1000, 2**20, 2**32 - 250, 2**40, 2**64 - 100)


def _oracle(master, index):
    return np.random.SeedSequence(master, spawn_key=(index,))


def test_block_keys_match_seed_sequence():
    pairs = 0
    for master in MASTERS:
        for base in BASES:
            for s in path_streams(master, base, 100):
                want = _oracle(master, s.stream_index).generate_state(
                    2, np.uint64)
                got = s.generate_state(2, np.uint64)
                assert got.dtype == np.uint64
                assert got.tolist() == want.tolist(), (master, s.stream_index)
                pairs += 1
    assert pairs >= 10_000


def test_bare_stream_answers_every_state_request():
    for master in MASTERS[::3]:
        for index in (0, 5, 2**32 - 1, 2**32, 2**70 + 1):
            seq = _oracle(master, index)
            for s in (RngStream(master, index), path_streams(master, index, 1)[0]):
                for n_words, dtype in ((2, np.uint64), (4, np.uint32),
                                       (7, np.uint32), (3, np.uint64), (1, np.uint32)):
                    got = s.generate_state(n_words, dtype)
                    want = seq.generate_state(n_words, dtype)
                    assert got.dtype == want.dtype
                    assert got.tolist() == want.tolist()


def test_draws_match_seed_sequence_generators():
    for master, base in ((20260816, 0), (2**64 + 12345, 2**32 - 2), (0, 2**40)):
        for s in path_streams(master, base, 4):
            ours = s.generator()
            ref = np.random.Generator(np.random.Philox(_oracle(master, s.stream_index)))
            for draw in (lambda g: g.gamma(0.3, size=64),
                         lambda g: g.poisson(4.0, size=64),
                         lambda g: g.uniform(0.0, 2.0, size=64)):
                assert draw(ours).tobytes() == draw(ref).tobytes()


def test_derived_key_is_not_part_of_identity():
    block = path_streams(11, 3, 2)[1]
    bare = RngStream(11, 4)
    assert block == bare and hash(block) == hash(bare)
    assert repr(block) == repr(bare) == "RngStream(master_seed=11, stream_index=4)"
    again = pickle.loads(pickle.dumps(block))
    assert again.generator().random(3).tolist() == bare.generator().random(3).tolist()


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random costs about 10 ms; the package imports it on
    # the first generator() call, so setting up the preset and its averaged
    # field loads none of it
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(folevy.__file__)))
    code = ("import sys, folevy, folevy.cli\n"
            "preset = folevy.make_cylinder_preset()\n"
            "folevy.averaged_field(preset.chart, preset.fields)\n"
            "streams = folevy.path_streams(5, 0, 3)\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
            "print(streams[2].generator().random())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]"
    assert out[1] == repr(RngStream(5, 2).generator().random())
