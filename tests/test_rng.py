"""Stream keys and raw words: philox_keys, PhiloxStreams and the word decoders against
numpy's SeedSequence, substream and Generator (the decoding is numpy 2.4's)."""

import numpy as np
import pytest

from syncgrid.rng import PhiloxStreams, WordDraws, philox_keys, substream, unit_floats

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


BOUNDS = (1, 2, 3, 29, 2**31 + 12345)  # 2^31 + 12345 rejects about half its 32-bit halves


def test_word_draws_equal_generator_draws():
    # 2,000 streams, each drawing random() and integers(c) in its own random order
    # from 8 prefetched words, so most read on; integers(1) reads no word
    streams, order = PhiloxStreams(), np.random.default_rng(2024)
    keys = philox_keys(11, np.arange(2000)[:, None])
    words = streams.words(keys, 8)
    calls = order.integers(0, len(BOUNDS) + 1, size=(len(keys), 24))  # len(BOUNDS): random()
    read_on = 0
    for key, first, stream_calls in zip(keys, words.tolist(), calls.tolist()):
        draws = WordDraws(streams, key, first)
        got = []
        for call in stream_calls:
            if call == len(BOUNDS):
                got.append(draws.random())
            else:
                before = draws.pos
                got.append(draws.integers(BOUNDS[call]))
                assert BOUNDS[call] > 1 or draws.pos == before
        read_on += draws.pos > 8
        gen = streams.keyed(key)
        want = [gen.random() if call == len(BOUNDS) else int(gen.integers(BOUNDS[call]))
                for call in stream_calls]
        assert got == want
    assert read_on > 1000


def test_lemire_rejections_read_on():
    # 2,000 draws of integers(2^31 + 12345) take about 4,000 halves: about half are
    # rejected, and the draws read on past the 1,000 prefetched words
    streams, c = PhiloxStreams(), 2**31 + 12345
    for key in philox_keys(5, np.arange(3)[:, None]):
        draws = WordDraws(streams, key, streams.words(key[None], 1000)[0].tolist())
        got = [draws.integers(c) for _ in range(2000)]
        assert got == streams.keyed(key).integers(c, size=2000).tolist()
        halves = 2 * draws.pos - (draws._half is not None)
        assert 0.45 < (halves - 2000) / halves < 0.55
        assert draws.pos > 1000


def test_unit_floats_equal_random_and_uniform():
    # Generator.random() and uniform(lo, hi) of the first words, bit for bit
    streams = PhiloxStreams()
    keys = philox_keys(3, np.arange(2000)[:, None])
    words = streams.words(keys, 61)
    later = streams.words(keys[:50], 16, 40)  # words 40 .. 55
    bounds = [(0.5, 5.0), (-6.5, 6.5), (-1.0, 1.0)]
    for r, key in enumerate(keys):
        lo, hi = bounds[r % 3]
        assert unit_floats(words[r]).tobytes() == streams.keyed(key).random(61).tobytes()
        uniform = streams.keyed(key).uniform(lo, hi, 61)
        assert (lo + (hi - lo) * unit_floats(words[r])).tobytes() == uniform.tobytes()
        if r < 50:
            assert np.array_equal(later[r], words[r, 40:56])
