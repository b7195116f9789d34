"""Deterministic random-stream derivation.

All randomness in the package flows from integer key tuples through
numpy's SeedSequence mixing, so any unit of work (a model, a target, a
query) can rebuild its own stream independently of execution order.
stream_states runs that mixing for a whole batch of key tuples in one
vectorised pass; the Generator of each row is bitwise numpy's
default_rng(SeedSequence(keys)), and substream is the one-row case.

shuffle_heads draws a block's sequential shuffles of aranges from the rows'
raw PCG64 words, one pass per chunk of rows. It reproduces numpy's
Generator.shuffle (_shuffle_raw in numpy/random/_generator.pyx): a
Fisher-Yates pass from the top index down, each swap index drawn by
random_interval's masked rejection over 32-bit halves of the raw words,
low half first.
tests/test_properties.py::test_shuffle_heads_draw_like_numpy pins it
against shuffle, permutation and permuted.
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


# A block's shuffles are drawn a few rows at a time: at most this many draw
# entries (rows x the largest row sum of shuffle sizes, or the halves of one
# read if more) are walked at once, so the walk's arrays stay under about 25 MB
# however many models and steps a row draws for. Each chunk costs a walk of
# numpy calls as long as its neediest row, so a smaller budget costs time.
_DRAW_ENTRIES = 1 << 21
# Raw words a row reads at a time; a row that is not done reads again.
_WORDS_PER_READ = 64


def _swap_table(top: int) -> np.ndarray:
    """(top, stride) swap index each 32-bit half gives at each bound below
    top: random_interval ands the half with the smallest all-ones mask
    covering the bound (the half modulo the next power of two) and rejects
    what lands above the bound."""
    powers = [1 << bound.bit_length() for bound in range(max(top, 2))]
    return np.arange(powers[-1]) % np.array(powers[:top])[:, None]


def _masked_halves(rngs, mask: int) -> np.ndarray:
    """(2 * _WORDS_PER_READ, len(rngs)) uint32 next halves of each stream,
    low half of each raw word first, and-ed with mask; the words are read a
    few rows at a time."""
    chunk = 16
    halves = np.empty((2 * _WORDS_PER_READ, len(rngs)), dtype=np.uint32)
    raw = np.empty((min(chunk, len(rngs)), _WORDS_PER_READ), dtype="<u8")
    for start in range(0, len(rngs), chunk):
        rows = raw[:len(rngs[start:start + chunk])]
        for row, rng in zip(rows, rngs[start:start + chunk]):
            row[:] = rng.bit_generator.random_raw(_WORDS_PER_READ)
        np.bitwise_and(rows.view("<u4").T, mask, out=halves[:, start:start + len(rows)])
    return halves


def _accepted_entries(rngs, draws: np.ndarray, table: np.ndarray):
    """Walk every row's halves in lock step through random_interval's masked
    rejection, one numpy pass per half.

    Row r makes draws[r, j] draws for its shuffle j, at bounds from the
    shuffle's top index down to 1. The draw's table entry is its bound *
    table.shape[1] + its masked half; table[bound, half] is the swap index
    the half gives. Returns, with row r's draw d at r * width + d, the
    uint32 entry each draw accepted, and width.
    """
    n, stride = len(draws), table.shape[1]
    total = draws.sum(axis=1)
    width = int(total.max(initial=0)) + 1
    # each draw's entry less its half, (its shuffle's end - d) * stride; 0,
    # never accepted, at the row's end; past it, never read. The uint32
    # sums wrap, but every entry read is below table.size.
    ends = (np.column_stack([np.cumsum(draws, axis=1), total]) * stride).astype(np.uint32)
    codes = np.repeat(ends, np.column_stack([draws, width - total]).ravel())
    codes.reshape(n, width)[:] -= (np.arange(width) * stride).astype(np.uint32)
    bound = np.arange(len(table))[:, None]
    advance = ((table <= bound) & (bound > 0)).astype(np.intp).ravel()
    accepted = np.zeros(n * width, dtype=np.uint32)
    state = np.arange(n) * width
    done = state + total
    pending = np.flatnonzero(state != done)
    while pending.size:  # each pass reads the rows not yet done more words
        at, end, entry = state[pending], done[pending], np.empty(pending.size, dtype=np.uint32)
        for p, column in enumerate(_masked_halves([rngs[r] for r in pending], stride - 1)):
            np.add(codes[at], column, out=entry)
            accepted[at] = entry  # a rejected half's entry is overwritten by the next
            at += advance[entry]
            if p % 32 == 31 and np.array_equal(at, end):
                break
        state[pending] = at
        pending = pending[at != end]
    return accepted, width


def _traced_heads(accepted, width: int, draws: np.ndarray, swap_index: np.ndarray,
                  count: int) -> np.ndarray:
    """(n, k, count) first entries of the shuffles whose draws accepted the
    table entries of _accepted_entries; swap_index is the table, flat.

    Fisher-Yates swaps position i with its draw's swap index, i from the top
    down. The entry that ends at position x < count is traced back through
    the swaps, i from the bottom up: it moves to the swap index at i = x,
    then to i whenever it holds the swap index at i. Each pass over i
    covers the shuffles that reach it, those with the most draws first.
    """
    n, k = draws.shape
    left = draws.ravel()
    order = np.argsort(left, kind="stable")[::-1]
    reaching = left.size - np.cumsum(np.bincount(left))  # [j]: shuffles with more than j draws
    at = np.cumsum(draws, axis=1)  # a shuffle's end; position i is i before
    at += (np.arange(n) * width)[:, None]
    at = at.ravel()[order]
    traced = np.repeat(np.arange(count), n * k).reshape(count, n * k)
    for i in range(1, len(reaching)):
        m = reaching[i - 1]
        at[:m] -= 1
        swap = swap_index[accepted[at[:m]]]
        for held in traced[:min(i, count), :m]:
            held[held == swap] = i
        if i < count:
            traced[i, :m] = swap
    heads = np.empty((n * k, count), dtype=np.intp)
    heads[order] = traced.T
    return heads.reshape(n, k, count)


def shuffle_heads(rngs, sizes, count: int) -> np.ndarray:
    """(n, k, count) first entries of the k shuffles that row r of the (n, k)
    sizes asks of rngs[r]: entry [r, j] is rngs[r].permutation(sizes[r, j])[:count]
    with the row's earlier shuffles drawn first, as rng.shuffle of a fresh
    arange or one row of rng.permuted would give.

    Each stream must hold no buffered 32-bit half (it is fresh or has drawn
    only 64-bit values, such as normal). Rows read raw words
    _WORDS_PER_READ at a time until their draws are done, so a stream is
    spent after the call.
    """
    sizes = np.asarray(sizes)
    if sizes.ndim != 2 or len(sizes) != len(rngs):
        raise ValueError(f"expected one row of shuffle sizes per stream, got {sizes.shape}")
    n, k = sizes.shape
    if count < 0 or count > sizes.min(initial=count):
        raise ValueError(f"cannot take {count} entries of shuffles as short as "
                         f"{sizes.min(initial=count)}")
    table = _swap_table(int(sizes.max(initial=1)))
    swap_index = table.ravel()
    heads = np.empty((n, k, count), dtype=np.intp)
    most = int(sizes.sum(axis=1).max(initial=0))  # no fewer than a row's draws
    rows = max(1, _DRAW_ENTRIES // max(most + 1, 2 * _WORDS_PER_READ))
    for start in range(0, n, rows):  # rows draw alone, so a few at a time
        part = slice(start, start + rows)
        draws = np.maximum(sizes[part], 1).astype(np.intp) - 1
        accepted, width = _accepted_entries(rngs[part], draws, table)
        heads[part] = _traced_heads(accepted, width, draws, swap_index, count)
    return heads
