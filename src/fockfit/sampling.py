"""Simulated Fock-measurement experiments: multinomial count histograms
drawn from a model distribution with reproducible, independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._io import check_int
from .estimation import FockHistogram
from .model import FockDistribution

__all__ = ["SeedSpec", "sample_histogram"]

MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Distinct (master_seed, stream_index) pairs give statistically
    independent streams; the child state is derived by hashing the pair,
    so results do not depend on thread scheduling or call order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        check_int("master_seed", self.master_seed, 0, MAX_SEED)
        check_int("stream_index", self.stream_index, 0)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        )


# The seeding that SeedSpec.generator() runs, step by step: numpy's
# SeedSequence (the public algorithm of numpy.random.bit_generator, fixed by
# numpy's stream-compatibility policy, NEP 19) hashes the entropy words into
# a pool of four uint32 words, mixes the spawn key's words into it and
# hashes the pool into eight state words, and PCG64 takes them as its
# 128-bit seed and stream.  The master's pool comes from numpy; the rest is
# written out here, over every stream at once.  Values are Python ints or
# uint32 arrays; both wrap mod 2**32 through _MASK32.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Constants first .. first + count - 1 of one of SeedSequence's hash
    sequences, init * mult**k mod 2**32, as a read-only (count, 1) uint32
    column."""
    c = np.array([init * pow(mult, k, 1 << 32) & _MASK32
                  for k in range(first, first + count)], dtype=np.uint32)[:, None]
    c.flags.writeable = False
    return c


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix with the hash constants xor and mul (the
    constant in use and the one after it)."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a hashed word y into the pool word x."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, least significant first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _stream_states(seed: SeedSpec, n: int) -> list[dict]:
    """The PCG64 states of SeedSpec(seed.master_seed, seed.stream_index + i)
    .generator() for i < n, as bit_generator.state dicts, derived in one
    pass: each spawn-key word is mixed into every stream's pool by (4, n)
    array operations, and the eight state words come from one (8, n) hash.

    A stream index of 2**32 or more has more than one word.  Within a run
    of streams that share the bits above the lowest 32 only the lowest
    word differs, so the rows are mixed one such run at a time."""
    first = int(seed.stream_index)
    # SeedSequence(master_seed) stops at the pool before any spawn key
    master_pool = np.random.SeedSequence(int(seed.master_seed)).pool[:, None]
    pools = np.empty((_POOL_SIZE, n), dtype=np.uint32)
    row = 0
    while row < n:
        high, low = divmod(first + row, 1 << 32)
        size = min(n - row, (1 << 32) - low)
        words = [np.arange(low, low + size, dtype=np.uint32)]
        words += _words(high) if high else []
        pool = master_pool
        for j, word in enumerate(words):
            # the hash constants go on from the master's 16 hashes
            c = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL_SIZE * j, _POOL_SIZE + 1)
            pool = _mix(pool, _hashmix(word, c[:-1], c[1:]))
        pools[:, row:row + size] = pool
        row += size
    # generate_state(4, np.uint64): pool words cycled, paired little-endian
    c = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)
    state_words = _hashmix(np.tile(pools, (2, 1)), c[:-1], c[1:]).astype(np.uint64)
    seeds = (state_words[0::2] | state_words[1::2] << 32).tolist()
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*seeds):
        # pcg64_set_seed: setseq seeding from initstate and initseq
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _sample_counts(d: FockDistribution, n_shots: int, seed: SeedSpec, n: int) -> np.ndarray:
    """Draw ``n`` multinomial histograms of ``n_shots`` measurements from
    ``d`` into an (n, n_max + 2) integer count matrix (overflow last).

    Row i is one ``Generator.multinomial`` draw from the stream
    ``seed.stream_index + i``, whose state _stream_states derives exactly
    as SeedSpec.generator() would: the conditional-binomial decomposition, in
    which bin j receives a binomial draw of the shots still unassigned
    with success probability p_j divided by the tail mass left before it,
    and the overflow bin absorbs whatever is left, so every row sums to
    n_shots exactly.  Where rounding lets a bin's probability reach the
    tail mass left before it, the bin's entry becomes that tail exactly
    (and later entries 0), so its conditional probability is exactly 1 and
    it takes every remaining shot.
    """
    check_int("n_shots", n_shots, 1)
    check_int("n", n, 0)
    pvals = d.all_probs
    tail = 1.0
    for j, p in enumerate(d.probs):
        if p / tail >= 1.0:
            pvals[j] = tail
            pvals[j + 1:] = 0.0
            break
        tail -= p
    out = np.empty((n, d.n_max + 2), dtype=np.int64)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for row, state in enumerate(_stream_states(seed, n)):
        bit_generator.state = state
        out[row] = generator.multinomial(n_shots, pvals)
    return out


def sample_histogram(d: FockDistribution, n_shots: int, seed: SeedSpec) -> FockHistogram:
    """Draw one multinomial histogram of ``n_shots`` measurements from ``d``
    from the stream ``seed``, as _sample_counts does for each of its rows."""
    counts = _sample_counts(d, n_shots, seed, 1)[0].tolist()
    return FockHistogram(tuple(counts[:-1]), counts[-1], n_shots)
