"""Stream keys: philox_keys and PhiloxStreams against numpy's SeedSequence and substream."""

import numpy as np
import pytest

from syncgrid.rng import PhiloxStreams, philox_keys, substream

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)


def _seed_sequence_key(seed, path):
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in path))
    return ss.generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_philox_keys_equal_seed_sequence_state(seed, length):
    rng = np.random.default_rng([seed % 2**32, length])
    paths = rng.integers(0, 2**20, size=(40, length), dtype=np.uint64)
    paths[1] = 0
    paths[2, -1] = 2**32 - 1
    paths[3, 0] = 2**32  # the first entry that takes two words
    paths[4, -1] = 2**64 - 1
    paths[5] = rng.integers(2**32, 2**63, size=length, dtype=np.uint64)
    keys = philox_keys(seed, paths)
    assert keys.shape == (40, 2) and keys.dtype == np.uint64
    for path, key in zip(paths, keys):
        assert np.array_equal(key, _seed_sequence_key(seed, path))
    # signed input, one word per entry: the fast path
    signed = (paths[6:] % 2**31).astype(np.int64)
    for path, key in zip(signed, philox_keys(seed, signed)):
        assert np.array_equal(key, _seed_sequence_key(seed, path))


def test_philox_keys_reject_what_seed_sequence_rejects():
    for call in (lambda: substream(-1, 0), lambda: philox_keys(-1, [[0]])):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            call()
    with pytest.raises(ValueError, match="expected non-negative integer"):
        philox_keys(3, np.array([[1, -2]]))
    with pytest.raises(TypeError):
        philox_keys(3, np.array([[0.5]]))


def _draws(rng):
    return (rng.random(), rng.integers(7), rng.integers(1000, size=3),
            rng.uniform(0.5, 5.0, size=4), rng.choice([-1.0, 1.0], size=5))


def test_streams_draw_what_substream_draws():
    # one generator re-keyed path after path; integers leaves half a 64-bit word
    # cached, which re-keying must drop as a new generator would
    streams = PhiloxStreams()
    paths = np.array([[5, 0, 3], [5, 1, 3], [2**33, 2, 0], [7, 0, 1]])
    for seed in (0, 9, 2**64 + 3):
        for path, key in zip(paths, philox_keys(seed, paths)):
            got, want = _draws(streams.keyed(key)), _draws(substream(seed, *path.tolist()))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
