"""Simulated Fock-measurement experiments: multinomial count histograms
drawn from a model distribution with reproducible, independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import FockHistogram
from .model import FockDistribution

__all__ = ["SeedSpec", "sample_histogram"]


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
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        )


def _sample_counts(d: FockDistribution, n_shots: int, seed: SeedSpec, n: int) -> np.ndarray:
    """Draw ``n`` multinomial histograms of ``n_shots`` measurements from
    ``d`` into an (n, n_max + 2) integer count matrix (overflow last).

    Row i is one ``Generator.multinomial`` draw from the stream
    ``seed.stream_index + i``: the conditional-binomial decomposition, in
    which bin j receives a binomial draw of the shots still unassigned
    with success probability p_j divided by the tail mass left before it,
    and the overflow bin absorbs whatever is left, so every row sums to
    n_shots exactly.  Where rounding lets a bin's probability reach the
    tail mass left before it, the bin's entry becomes that tail exactly
    (and later entries 0), so its conditional probability is exactly 1 and
    it takes every remaining shot.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    pvals = d.all_probs
    tail = 1.0
    for j, p in enumerate(d.probs):
        if p / tail >= 1.0:
            pvals[j] = tail
            pvals[j + 1:] = 0.0
            break
        tail -= p
    out = np.empty((n, d.n_max + 2), dtype=np.int64)
    for row in range(n):
        out[row] = SeedSpec(seed.master_seed, seed.stream_index + row).generator().multinomial(
            n_shots, pvals)
    return out


def sample_histogram(d: FockDistribution, n_shots: int, seed: SeedSpec) -> FockHistogram:
    """Draw one multinomial histogram of ``n_shots`` measurements from ``d``
    from the stream ``seed``, as _sample_counts does for each of its rows."""
    counts = _sample_counts(d, n_shots, seed, 1)[0].tolist()
    return FockHistogram(tuple(counts[:-1]), counts[-1], n_shots)
