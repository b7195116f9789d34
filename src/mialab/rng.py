"""Deterministic random-stream derivation.

All randomness in the package flows from integer key tuples through
numpy's SeedSequence mixing, so any unit of work (a model, a target, a
query) can rebuild its own stream independently of execution order.
stream_states runs that mixing for a whole batch of key tuples in one
vectorised pass; the Generator of each row is bitwise numpy's
default_rng(SeedSequence(keys)), and substream is the one-row case;
state_seeds turns rows into seed integers instead.
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
# is read out with the B constants. A hash call xors its input with a running
# constant, advances the constant by one multiplication and multiplies by it;
# no constant depends on the entropy, so every row makes the same calls.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [np.delete(np.arange(_POOL), src) for src in range(_POOL)]  # each pool word's peers


@cache
def _hash_words(const: int, mult: int, k: int) -> tuple:
    """Xor and multiplier words of k successive hash calls from the running
    constant const, and the constant after them."""
    consts = [const]
    for _ in range(k):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32), consts[-1]


def _hash(value: np.ndarray, const: int, k: int, mult: int = _MULT_A) -> tuple:
    """k successive hash calls along value's last axis, and the constant after them."""
    xor, mul, const = _hash_words(const, mult, k)
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def _pool_states(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 PCG64 seeds of zero-padded (rows, n) uint32 entropy
    words, row r that of SeedSequence(words[r, :lengths[r]]).generate_state(4,
    np.uint64).

    SeedSequence's mix_entropy and generate_state loops, run on a column of
    rows. It hashes a zero for each pool word its entropy does not fill, so
    padding changes nothing there; a row takes part in the passes over words
    beyond the pool only up to its own length.
    """
    rows, n = words.shape
    pool = np.zeros((rows, _POOL), dtype=np.uint32)
    pool[:, :n] = words[:, :_POOL]
    pool, const = _hash(pool, _INIT_A, _POOL)
    for src, dst in enumerate(_OTHERS):  # late pool words reach earlier ones
        hashed, const = _hash(pool[:, src, None], const, _POOL - 1)
        pool[:, dst] = _mix(pool[:, dst], hashed)
    for src in range(_POOL, n):  # entropy beyond the pool
        hashed, const = _hash(words[:, src, None], const, _POOL)
        pool = np.where((lengths > src)[:, None], _mix(pool, hashed), pool)
    out, _ = _hash(np.concatenate((pool, pool), axis=1), _INIT_B, 2 * _POOL, _MULT_B)
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


def state_seeds(states: np.ndarray) -> list[int]:
    """One 63-bit seed integer per row of stream_states."""
    return [int(s) >> 1 for s in states[:, 0]]


def substreams(keys) -> list[np.random.Generator]:
    """One Generator per key tuple of non-negative integers."""
    return generators(stream_states(keys))


def substream(*keys: int) -> np.random.Generator:
    """Return a Generator keyed by the given non-negative integers."""
    return substreams([keys])[0]
