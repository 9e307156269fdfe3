"""Simulated Fock-measurement experiments: multinomial count histograms
drawn from a model distribution with reproducible, independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from ._io import check_int
from .estimation import MAX_SHOTS, FockHistogram
from .model import FockDistribution

__all__ = ["SeedSpec", "sample_histogram"]

MAX_SEED = 2 ** 64 - 1  # the largest master seed and the largest stream index


def _check_streams(name: str, first, n: int) -> None:
    """Raise ValueError naming ``name`` unless first .. first + n - 1 are in [0, MAX_SEED]."""
    check_int(name, first, 0, MAX_SEED)
    if first + n - 1 > MAX_SEED:
        raise ValueError(f"{name}: the {n} streams from {first} run past stream {MAX_SEED}")


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
        check_int("stream_index", self.stream_index, 0, MAX_SEED)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        )


# The seeding that SeedSpec.generator() runs, step by step: numpy's
# SeedSequence (the public algorithm of numpy.random.bit_generator, fixed by
# numpy's stream-compatibility policy, NEP 19) hashes the entropy words into
# a pool of four uint32 words, mixes the spawn key's words into it and
# hashes the pool into four uint64 state words, and PCG64 takes them as its
# 128-bit seed and stream.  numpy builds the master's pool and the PCG64s;
# the steps between are written out here, over every stream at once.
# Values are Python ints or uint32 arrays; both wrap mod 2**32 via _MASK32.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Constants first .. first + count - 1 of one of SeedSequence's hash
    sequences, init * mult**k mod 2**32, as a (count, 1) uint32 column."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                     for k in range(first, first + count)], dtype=np.uint32)[:, None]


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix with the hash constants xor and mul (the
    constant in use and the one after it)."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a hashed word y into the pool word x."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


@cache
def _state_words_type() -> type:
    """_StateWords, built on first use: it subclasses numpy.random's
    ISeedSequence, and importing fockfit does not load numpy.random.  A
    subclass, not a registered class: ABCMeta caches no isinstance answer
    for a registered class, so every PCG64 built from one would pay for
    the registry lookup again."""

    @dataclass(frozen=True)
    class _StateWords(np.random.bit_generator.ISeedSequence):
        """One stream's four uint64 state words as the minimal ISeedSequence
        PCG64 seeds from; any request but generate_state(4, np.uint64) raises."""

        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"the state words are 4 uint64, not {n_words} {np.dtype(dtype)}")
            return self.words

    return _StateWords


def __getattr__(name: str):
    # the module attribute _StateWords is _state_words_type() (PEP 562)
    if name == "_StateWords":
        return _state_words_type()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stream_generators(master_seed: int, runs):
    """Generators equal to SeedSpec(master_seed, s).generator() for the
    streams s = first .. first + n - 1 of each ``(first, n)`` in ``runs``,
    in order, made one at a time from state words derived in one pass over
    every stream (all in [0, MAX_SEED]): each spawn-key word is mixed into
    the pools by (4, streams) array operations, and one (8, streams) hash
    gives every stream's words."""
    # SeedSequence(master_seed) stops at the pool before any spawn key
    master_pool = np.random.SeedSequence(int(master_seed)).pool[:, None]
    # each stream's index, a uint64: its run's first plus its place in the run
    firsts = np.array([first for first, _ in runs], dtype=np.uint64)
    sizes = np.array([n for _, n in runs], dtype=np.intp)
    places = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    streams = np.repeat(firsts, sizes) + places.astype(np.uint64)
    # a spawn key's words are the index's low 32 bits and, from 2**32 on,
    # its high 32; their hash constants go on from the master's 16 hashes
    low, high = (streams & _MASK32).astype(np.uint32), (streams >> 32).astype(np.uint32)
    c = _hash_constants(_INIT_A, _MULT_A, 16, 2 * _POOL_SIZE + 1)
    pools = _mix(master_pool, _hashmix(low, c[:4], c[1:5]))
    pools = np.where(high, _mix(pools, _hashmix(high, c[4:8], c[5:])), pools)
    # generate_state(4, np.uint64): pool words cycled, paired little-endian,
    # one C-contiguous row per stream (PCG64 reads the words' memory)
    c = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE + 1)
    state_words = _hashmix(np.tile(pools, (2, 1)), c[:-1], c[1:]).astype(np.uint64)
    seeds = np.ascontiguousarray((state_words[0::2] | state_words[1::2] << 32).T)
    words_type = _state_words_type()
    return (np.random.Generator(np.random.PCG64(words_type(words))) for words in seeds)


def _snapped_probs(d: FockDistribution) -> np.ndarray:
    """``d.all_probs`` as multinomial ``pvals``, with the tail snap: where
    rounding lets a bin's probability reach the tail mass left before it,
    the bin's entry becomes that tail exactly (and later entries 0), so its
    conditional probability is exactly 1 and it takes every remaining shot."""
    pvals = d.all_probs
    tail = 1.0
    for j, p in enumerate(d.probs):
        if p / tail >= 1.0:
            pvals[j] = tail
            pvals[j + 1:] = 0.0
            break
        tail -= p
    return pvals


def _sample_blocks(blocks, master_seed: int) -> np.ndarray:
    """Draw blocks of multinomial histograms into one (rows, n_max + 2)
    integer count matrix (overflow last).  Each block is a
    ``(d, n_shots, first, n)`` tuple of n histograms of n_shots
    measurements from d, drawn from the streams first .. first + n - 1 of
    ``master_seed``, which must lie in [0, MAX_SEED]; the distributions
    share one n_max, and block b's rows follow block b - 1's.

    A row is one ``Generator.multinomial`` draw from its stream: the
    conditional-binomial decomposition, in which bin j receives a binomial
    draw of the shots still unassigned with success probability p_j over
    the tail mass left before it, and the overflow bin takes the rest, so
    each row sums to n_shots.  pvals take _snapped_probs' tail snap."""
    for _, n_shots, first, n in blocks:
        check_int("n_shots", n_shots, 1, MAX_SHOTS)
        check_int("n", n, 0)
        _check_streams("first", first, n)
    # the words' hash temporaries are freed before the count matrix exists
    generators = _stream_generators(master_seed, [(first, n) for _, _, first, n in blocks])
    out = np.empty((sum(int(n) for *_, n in blocks), blocks[0][0].n_max + 2), dtype=np.int64)
    rows = zip(out, generators)
    for d, n_shots, _, n in blocks:
        pvals = _snapped_probs(d)
        for row, generator in islice(rows, n):
            row[:] = generator.multinomial(n_shots, pvals)
    return out


def sample_histogram(d: FockDistribution, n_shots: int, seed: SeedSpec) -> FockHistogram:
    """Draw one multinomial histogram of ``n_shots`` measurements from ``d``
    from the stream ``seed``: the one-block case of _sample_blocks."""
    counts = _sample_blocks([(d, n_shots, seed.stream_index, 1)], seed.master_seed)[0].tolist()
    return FockHistogram(tuple(counts[:-1]), counts[-1], n_shots)
