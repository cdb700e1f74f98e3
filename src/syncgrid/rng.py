"""Reproducible random streams for parallel experiments.

Every sampling stage draws from a Philox counter-based generator keyed by
(master seed, path of integers).  Distinct paths give statistically
independent substreams, so per-sample and per-stage streams can be handed
to parallel workers without coordination and replays are exact.

substream builds the generator through numpy's SeedSequence.  Samplers that
open thousands of streams use philox_keys and PhiloxStreams instead:
philox_keys derives the Philox keys of many paths in one vectorised pass,
the same words as SeedSequence(seed, spawn_key=path).generate_state(2,
np.uint64), and PhiloxStreams re-keys one generator to each of them, so its
draws are those of substream(seed, *path) bit for bit.

SeedSequence hashes the entropy, the seed's 32-bit words padded with zeros
to the 4-word pool and then the path's words, into the pool.  The first
four words fill the pool and are cross-mixed; every later word is mixed into
each pool word.  The hash multipliers advance with every hash call and do
not depend on the data.  So the seed's part of the pool is computed once per
seed (_seed_pool, in Python integers), and each path word is then one round
of uint32 array operations over all paths at once.

Raw words.  PhiloxStreams.words reads the raw 64-bit words of many streams,
one random_raw call per stream, and the draws are decoded from them as
numpy's Generator decodes them: random() is (w >> 11) * 2^-53
(unit_floats, any array of words at once), and integers(c) is Lemire's
bounded method on 32-bit halves, a fresh word giving its low half first
and keeping its high half for the next bounded draw (WordDraws, which
reads on from the stream past the words it was given).  The decoding is
numpy 2's: tests/test_rng.py checks it against Generator.random,
Generator.integers and Generator.uniform on thousands of streams, so a
numpy that changed it would fail there, not move a sample silently.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF
_U32 = np.uint32


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path).

    The same (seed, path) always yields an identical stream; any change in
    the path gives an unrelated stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, path)))
    return np.random.Generator(np.random.Philox(ss))


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix of a word at hash constant const: (hash, next constant)."""
    value ^= const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ (value >> 16), const


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after the seed's words, and the hash constant that follows.

    The same for every path: an empty path hashes 0 where a non-empty one
    pads the seed with 0.  A negative seed raises ValueError, as SeedSequence does.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL - len(words))
    const, pool = _INIT_A, []
    for w in words[:_POOL]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL:]:
        for dst in range(_POOL):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    return tuple(pool), const


def _path_words(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The 32-bit words of the path rows, transposed: row j holds word j of every
    path, each path's words left-aligned; and each path's word count (None when
    every entry is one word)."""
    if paths.dtype.kind not in "iu":
        raise TypeError(f"path entries must be integers, got {paths.dtype}")
    if not paths.size:
        return paths.T.astype(_U32), None
    if paths.min() < 0:
        raise ValueError("expected non-negative integer")
    if paths.max() <= _M32:
        return paths.T.astype(_U32), None
    # an entry of 2^32 or more has a second word; move each row's words to its front
    p = paths.astype(np.uint64)
    high = p >> np.uint64(32)
    words = np.stack([p & np.uint64(_M32), high], axis=2).reshape(len(p), -1).astype(_U32)
    present = np.stack([np.ones(p.shape, bool), high > 0], axis=2).reshape(len(p), -1)
    order = np.argsort(~present, axis=1, kind="stable")
    return np.take_along_axis(words, order, axis=1).T.copy(), present.sum(axis=1)


def _powers(start: int, mult: int, count: int) -> list[int]:
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


@lru_cache(maxsize=16)
def _word_constants(const: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """hashmix's xor and multiplier constants, (words, 4) each, for the path words
    that follow hash constant const: word j meets pool word d at call 4 j + d."""
    consts = _powers(const, _MULT_A, _POOL * words)
    xor = np.array(consts[:-1], _U32).reshape(words, _POOL)
    mult = np.array(consts[1:], _U32).reshape(words, _POOL)
    xor.flags.writeable = mult.flags.writeable = False  # shared by every caller
    return xor, mult


_OUT = _powers(_INIT_B, _MULT_B, _POOL)  # generate_state's hash constants, one per word
_OUT_XOR, _OUT_MULT = np.array(_OUT[:-1], _U32), np.array(_OUT[1:], _U32)


def philox_keys(seed: int, paths) -> np.ndarray:
    """Philox keys of the streams (seed, *paths[r]) for every row r, as an (R, 2) uint64 array.

    Row r equals np.random.SeedSequence(seed, spawn_key=paths[r])
    .generate_state(2, np.uint64).  paths is an (R, k) array of integers in
    [0, 2^64); a negative seed or entry raises ValueError, as SeedSequence does.
    """
    pool0, const = _seed_pool(int(seed))
    paths = np.asarray(paths)
    words, counts = _path_words(paths.reshape(len(paths), -1))
    xor, mult = _word_constants(const, len(words))
    h = (words[:, :, None] ^ xor[:, None]) * mult[:, None]  # every hashmix of a path word
    h ^= h >> _U32(16)
    h *= _U32(_MIX_R)
    pool = np.empty((words.shape[1], _POOL), _U32)  # one row per path
    pool[:] = pool0
    for j in range(len(words)):  # mix(pool word, hashmix(word j)) for each pool word
        mixed = _U32(_MIX_L) * pool
        mixed -= h[j]
        mixed ^= mixed >> _U32(16)
        pool = mixed if counts is None else np.where((j < counts)[:, None], mixed, pool)
    pool ^= _OUT_XOR
    pool *= _OUT_MULT
    pool ^= pool >> _U32(16)
    # word pairs read little-endian, as generate_state combines them
    return pool.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Unkeyed(np.random.bit_generator.ISeedSequence):
    """The all-zero seed state: a Philox built from it is keyed before its first draw."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


class PhiloxStreams:
    """One Philox generator, re-keyed for each stream.

    keyed(key) returns the generator at the start of the stream with that
    key, a row of philox_keys: the state of a Philox newly built from the
    stream's SeedSequence (counter 0, empty buffer, no cached 32-bit half).
    words(keys, count, start) reads raw 64-bit words of many streams, one
    random_raw call per stream.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(_Unkeyed())
        self._generator = np.random.Generator(self._bitgen)
        self._counter = np.zeros(4, np.uint64)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": None},
                       "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def _seek(self, key: np.ndarray, start: int) -> None:
        """Position the generator at word start (a multiple of 4) of key's stream.

        Philox adds one to its counter before it enciphers the next four
        words, so words 4c .. 4c + 3 follow counter c.
        """
        self._counter[0] = start // 4
        self._state["state"]["key"] = key
        self._bitgen.state = self._state

    def keyed(self, key: np.ndarray) -> np.random.Generator:
        self._seek(key, 0)
        return self._generator

    def words(self, keys: np.ndarray, count: int, start: int = 0) -> np.ndarray:
        """Raw words start .. start + count - 1 of the stream of every key, (R, count) uint64.

        start is a multiple of 4.  Word w is the w-th next_uint64 of a
        generator keyed(key): Generator.random() decodes it with unit_floats,
        Generator.integers with WordDraws.integers.
        """
        out = np.empty((len(keys), count), np.uint64)
        raw = self._bitgen.random_raw
        for r, key in enumerate(keys):
            self._seek(key, start)
            out[r] = raw(count)
        return out


_UNIT, _SHIFT = 2.0 ** -53, np.uint64(11)


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each raw Philox word: its top 53 bits times 2^-53.

    numpy's next_double, (w >> 11) * (1.0 / 9007199254740992.0); the integer
    conversion and the power-of-two product are exact, so the bits are the same.
    Generator.uniform(lo, hi) of a word is lo + (hi - lo) * unit_floats(word).
    """
    return (words >> _SHIFT).astype(np.float64) * _UNIT


# Words WordDraws reads on at a time once its prefetched words are used up.
_READ_ON = 16


class WordDraws:
    """Generator.random() and Generator.integers(c) of one stream, decoded from
    its raw words in the order a generator keyed(key) would draw them.

    words are the stream's first raw words (a list of ints, a multiple of 4
    of them, as streams.words gives); a draw past them reads on from the
    stream, _READ_ON words at a time.  pos is the index of the next unread
    word: a caller that has decoded words itself, with unit_floats, moves pos
    past them as the same random() calls would.

    The decoding is numpy 2's (tests/test_rng.py pins it to Generator on
    thousands of streams).  random() takes one fresh word.  integers(c) is
    Lemire's bounded method on 32-bit halves: a half cached by the previous
    bounded draw is used first, else a fresh word gives its low half and
    keeps its high half; random() leaves a cached half in place.
    """

    __slots__ = ("_streams", "_key", "words", "pos", "_half")

    def __init__(self, streams: PhiloxStreams, key: np.ndarray, words: list[int]):
        self._streams, self._key = streams, key
        self.words, self.pos, self._half = words, 0, None

    def _word(self) -> int:
        pos = self.pos
        if pos == len(self.words):
            self.words += self._streams.words(self._key[None], _READ_ON, pos)[0].tolist()
        self.pos = pos + 1
        return self.words[pos]

    def random(self) -> float:
        return (self._word() >> 11) * _UNIT

    def integers(self, c: int) -> int:
        """Generator.integers(c) for 1 <= c <= 2^32; c == 1 reads nothing."""
        if c == 1:
            return 0
        threshold = None
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half, half = word >> 32, word & _M32
            else:
                self._half = None
            m = half * c
            low = m & _M32
            if low >= c:
                return m >> 32
            if threshold is None:
                threshold = (2 ** 32 - c) % c  # numpy's (UINT32_MAX - (c - 1)) % c, below c
            if low >= threshold:
                return m >> 32
