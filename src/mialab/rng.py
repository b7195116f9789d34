"""Deterministic random-stream derivation.

All randomness in the package flows from integer key tuples through
numpy's SeedSequence mixing, so any unit of work (a model, a target, a
query) can rebuild its own stream independently of execution order.
stream_states runs that mixing for a whole batch of key tuples in one
vectorised pass; the Generator of each row is bitwise numpy's
default_rng(SeedSequence(keys)), and substream is the one-row case.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Tags namespace the derived streams; values are arbitrary but frozen.
TAG_SPLITS = 11
TAG_MODEL = 12
TAG_TARGET_CHOICE = 13
TAG_TARGET_SAMPLE = 14
TAG_ATTACK = 15
TAG_ALT_LABEL = 16

# numpy's SeedSequence (numpy/random/bit_generator.pyx): entropy words are
# hashed into a pool of four 32-bit words with the A constants, and the pool
# is read out with the B constants. Every hash call advances its constant by
# one multiplication, so the k-th call's pair is a fixed table entry.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


@cache
def _schedule(n_words: int) -> tuple:
    """Hash constants of SeedSequence's mixing of n_words entropy words.

    Hash call k xors its input with start * mult**k and multiplies by
    start * mult**(k + 1), mod 2**32. Returns the (xor, mul) pairs of the
    first pool fill, of each late-word pass over the other three pool words
    (the source slot gets zeros and is restored after), of each word beyond
    the pool, and of the (2, 4) read-out of four uint64 words.
    """
    def consts(start, mult, n):
        out = [start]
        for _ in range(n):
            out.append(out[-1] * mult & _MASK32)
        xor, mul = np.array(out[:-1], dtype=np.uint32), np.array(out[1:], dtype=np.uint32)
        return xor, mul

    a_xor, a_mul = consts(0x43B0D7E5, 0x931E8875,
                          _POOL * _POOL + _POOL * max(0, n_words - _POOL))
    fill = (a_xor[:_POOL], a_mul[:_POOL])
    passes, k = [], _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        xor, mul = np.zeros(_POOL, dtype=np.uint32), np.zeros(_POOL, dtype=np.uint32)
        xor[dst], mul[dst] = a_xor[k:k + _POOL - 1], a_mul[k:k + _POOL - 1]
        passes.append((xor, mul))
        k += _POOL - 1
    extra = [(a_xor[i:i + _POOL], a_mul[i:i + _POOL]) for i in range(k, a_xor.size, _POOL)]
    b_xor, b_mul = consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
    return fill, passes, extra, (b_xor.reshape(2, _POOL), b_mul.reshape(2, _POOL))


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def _pool_states(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 PCG64 seeds of zero-padded (rows, n) uint32 entropy
    words, row r that of SeedSequence(words[r, :lengths[r]]).generate_state(4,
    np.uint64).

    SeedSequence hashes a zero for each pool word its entropy does not fill,
    so padding changes nothing there; a row takes part in the passes over
    words beyond the pool only up to its own length.
    """
    rows, n = words.shape
    fill, passes, extra, readout = _schedule(n)
    pool = np.zeros((rows, _POOL), dtype=np.uint32)
    pool[:, :n] = words[:, :_POOL]
    pool = _hashmix(pool, *fill)
    for src, consts in enumerate(passes):  # late pool words reach earlier ones
        mixed = _mix(pool, _hashmix(pool[:, src, None], *consts))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src, consts in enumerate(extra, _POOL):  # entropy beyond the pool
        mixed = _mix(pool, _hashmix(words[:, src, None], *consts))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    out = _hashmix(pool[:, None, :], *readout).reshape(rows, 2 * _POOL)
    return np.ascontiguousarray(out, dtype="<u4").view("<u8").astype(np.uint64)


def _words(key) -> list[int]:
    """SeedSequence's uint32 entropy of a key tuple: each key's 32-bit words,
    least significant first, one word for 0."""
    out = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"stream keys must be non-negative, got {k}")
        out.append(k & _MASK32)
        k >>= 32
        while k:
            out.append(k & _MASK32)
            k >>= 32
    return out


def stream_states(keys) -> np.ndarray:
    """(len(keys), 4) uint64 PCG64 seeds of a batch of key tuples, mixed in
    one pass whatever their lengths."""
    words = [_words(key) for key in keys]
    lengths = [len(w) for w in words]
    width = max(lengths, default=0)
    padded = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
    return _pool_states(padded.reshape(len(words), width), np.array(lengths))


@cache
def _fixed_seed():
    # numpy.random loads on first use, as it would for np.random.default_rng;
    # importing it with this module raises every command's peak RSS.
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        """Hands PCG64 the seed words stream_states derived for it."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeed


def generators(states: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 Generator per row of stream_states."""
    fixed = _fixed_seed()
    return [np.random.Generator(np.random.PCG64(fixed(s))) for s in states]


def substreams(keys) -> list[np.random.Generator]:
    """One Generator per key tuple of non-negative integers."""
    return generators(stream_states(keys))


def substream(*keys: int) -> np.random.Generator:
    """Return a Generator keyed by the given non-negative integers."""
    return substreams([keys])[0]


def derive_seeds(keys) -> list[int]:
    """One 63-bit seed integer per key tuple."""
    return [int(s) >> 1 for s in stream_states(keys)[:, 0]]


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single 63-bit seed integer."""
    return derive_seeds([keys])[0]

