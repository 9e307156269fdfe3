"""Parametric-bootstrap confidence intervals for the fitted parameters
(vq, vp, r, nbar): replicate generation, percentile intervals,
bias-corrected (BC) intervals, and a coverage-probability harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._io import check_int
from ._parallel import parallel_map
from .estimation import PARAMETERS, FitBatch, FitResult, PriorShape, fit_batch, weights_for
from .model import QuadratureVariances, SqueezedThermalState, fock_distribution, to_variances
from .numerics import std_normal_cdf, std_normal_quantile
from .sampling import SeedSpec, _sample_counts

__all__ = [
    "PARAMETERS",
    "METHODS",
    "BootstrapError",
    "ConfidenceInterval",
    "CoverageResult",
    "parameter_values",
    "parametric_bootstrap",
    "percentile_interval",
    "bc_interval",
    "intervals",
    "coverage_probability",
]

METHODS = ("percentile", "bc")

# Refits that fail to converge are flagged and excluded from intervals;
# above this fraction the whole bootstrap is considered unusable.
MAX_FAILURE_FRACTION = 0.01


def parameter_values(v: QuadratureVariances, state: SqueezedThermalState) -> dict[str, float]:
    """The four parameters of one state, keyed and ordered as PARAMETERS."""
    return dict(zip(PARAMETERS, (v.vq, v.vp, state.r, state.nbar)))


class BootstrapError(RuntimeError):
    """Raised when too many bootstrap refits fail to converge."""


def _check_failures(n_failed: int, total: int, what: str) -> None:
    """Raise BootstrapError if over MAX_FAILURE_FRACTION of ``total`` fits (``what``) failed."""
    if n_failed > MAX_FAILURE_FRACTION * total:
        raise BootstrapError(f"{n_failed} of {total} {what} failed to converge")


def _check_interval_args(alpha: float, methods=METHODS, name: str = "alpha") -> None:
    """Raise ValueError unless alpha is in (0, 0.5) and methods are one or more of METHODS."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"{name} must be in (0, 0.5), got {alpha}")
    if not methods:
        raise ValueError(f"method must name at least one of {METHODS}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str
    parameter: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower > upper in {self}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {self.parameter!r}")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def parametric_bootstrap(
    point: FitResult,
    n_shots: int,
    n_b: int,
    prior: PriorShape,
    seed: SeedSpec,
    n_max: int = 20,
    scheme: str = "posterior",
) -> FitBatch:
    """Simulate ``n_b`` experiments from the fitted state and refit them
    all in one fit_batch call, whose FitBatch is the replicate set.

    Replicate i draws its histogram from stream ``seed.stream_index + i``
    and is refit with the weights ``weights_for(counts, scheme, prior)``;
    pass the scheme the point estimate was fitted with.  Every refit
    starts at the point estimate, the state its histogram was drawn from,
    without the grid stage.  Raises BootstrapError if more than
    MAX_FAILURE_FRACTION of refits fail.
    """
    if not point.converged:
        raise ValueError("bootstrap requires a converged point estimate")
    check_int("n_b", n_b, 2)
    counts = _sample_counts(fock_distribution(point.variances, n_max), n_shots, seed, n_b)
    reps = fit_batch(counts / n_shots, weights_for(counts, scheme, prior), start=point.variances)
    _check_failures(reps.n_failed, n_b, "bootstrap refits")
    return reps


def _floor_index(x: float) -> int:
    """floor(x) with a snap to the nearest integer, so binary round-off in
    products like 1000 * 0.95 = 949.9999... cannot shift the index."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.floor(x)


def _check_sorted(values, alpha: float) -> np.ndarray:
    """Check ``values`` (sorted, >= 2 estimates) and ``alpha`` (in (0, 0.5)); return values."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ValueError("need a 1-D vector of at least 2 estimates")
    if np.any(np.diff(values) < 0.0):
        raise ValueError("estimates must be sorted ascending")
    _check_interval_args(alpha)
    return values


def percentile_interval(
    values, alpha: float, parameter: str = "nbar"
) -> ConfidenceInterval:
    """Percentile interval [theta_l, theta_m] from sorted replicate
    estimates, with 1-based order-statistic indices

        l = floor(n_b * alpha),   m = floor(n_b * (1 - alpha)),

    clamped into [1, n_b].
    """
    values = _check_sorted(values, alpha)
    n = values.shape[0]
    lo = min(max(_floor_index(n * alpha), 1), n)
    hi = min(max(_floor_index(n * (1.0 - alpha)), 1), n)
    return ConfidenceInterval(
        float(values[lo - 1]), float(values[hi - 1]), 1.0 - 2.0 * alpha,
        "percentile", parameter,
    )


def _order_statistic(values: np.ndarray, level: float) -> float:
    """Order statistic at 1-based fractional position level * n_b, linearly
    interpolated between neighbors and clamped to the observed range."""
    n = values.shape[0]
    pos = level * n
    j = _floor_index(pos)
    if j < 1:
        return float(values[0])
    if j >= n:
        return float(values[n - 1])
    frac = pos - j
    return float(values[j - 1] + frac * (values[j] - values[j - 1]))


def bc_interval(
    values, point_estimate: float, alpha: float, parameter: str = "nbar"
) -> ConfidenceInterval:
    """Bias-corrected percentile interval.

    The bias parameter is b = Phi^-1(p_ci / n_b) with p_ci the number of
    replicates <= the point estimate (ties count, and p_ci is clamped to
    [1, n_b - 1] so b stays finite when the point estimate falls outside
    the replicate range).  The endpoints are the order statistics at the
    corrected levels Phi(2b + z_alpha) and Phi(2b + z_{1-alpha}).
    """
    values = _check_sorted(values, alpha)
    n = values.shape[0]
    p_ci = int(np.searchsorted(values, point_estimate, side="right"))
    p_ci = min(max(p_ci, 1), n - 1)
    b = std_normal_quantile(p_ci / n)
    lo_level = std_normal_cdf(2.0 * b + std_normal_quantile(alpha))
    hi_level = std_normal_cdf(2.0 * b + std_normal_quantile(1.0 - alpha))
    return ConfidenceInterval(
        _order_statistic(values, lo_level), _order_statistic(values, hi_level),
        1.0 - 2.0 * alpha, "bc", parameter,
    )


@dataclass(frozen=True)
class CoverageResult:
    """Fraction of experiments whose interval contained the truth, per
    parameter and method, with binomial standard errors."""

    coverage: Mapping[str, Mapping[str, float]]
    std_error: Mapping[str, Mapping[str, float]]
    n_experiments: int
    n_used: int


def intervals(
    reps: FitBatch, point: FitResult, alpha: float, methods: Sequence[str]
) -> list[ConfidenceInterval]:
    """One interval per (parameter, method) from the replicates of the
    point estimate ``point``, parameters in PARAMETERS order and, within
    each, methods in the order given."""
    _check_interval_args(alpha, methods)
    points = parameter_values(point.variances, point.state)
    out = []
    for parameter in PARAMETERS:
        values = reps.sorted_values(parameter)
        for method in methods:
            if method == "percentile":
                out.append(percentile_interval(values, alpha, parameter))
            else:
                out.append(bc_interval(values, points[parameter], alpha, parameter))
    return out


def _experiment_hits(args) -> list[bool]:
    """Whether each interval of one experiment's bootstrap, in intervals'
    order, contains the true value of its parameter."""
    point, true_values, n_shots, n_b, alpha, methods, prior, n_max, seed, scheme = args
    reps = parametric_bootstrap(point, n_shots, n_b, prior, seed, n_max, scheme)
    return [ci.contains(true_values[ci.parameter])
            for ci in intervals(reps, point, alpha, methods)]


def coverage_probability(
    true_state: SqueezedThermalState,
    n_shots: int,
    n_experiments: int,
    n_b: int,
    alpha: float,
    method: str | Sequence[str],
    prior: PriorShape,
    seed: SeedSpec,
    n_max: int = 20,
) -> CoverageResult:
    """Estimate interval coverage by repeated simulate-fit-bootstrap runs:
    the one-cell case of the coverage engine that coverage studies run
    over all their cells at once.

    Experiment i occupies the stream block
    [stream_index + i*(n_b + 1), stream_index + (i+1)*(n_b + 1)): its
    point histogram comes from the first stream and its replicates from
    the rest, so runs are reproducible and independent of scheduling.  Point
    fits and replicate refits both use posterior weights.  All point
    histograms are fitted in one fit_batch call; if more than
    MAX_FAILURE_FRACTION of them fail, BootstrapError is raised before any
    bootstrap runs, else the failed experiments are left out of n_used.
    Accepts one method name or several; all methods share the same
    replicate sets, so their coverages are comparable.
    Bad arguments raise ValueError before anything is sampled.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    cells = [(true_state, n_shots, n_b)]
    return _coverage(cells, n_experiments, alpha, methods, prior, seed, n_max)[0]


def _coverage(cells, n_experiments, alpha, methods, prior, seed, n_max) -> list[CoverageResult]:
    """One CoverageResult per cell (true_state, n_shots, n_b), each run as
    coverage_probability describes, with cell k's stream block starting at
    seed.stream_index + sum over j < k of n_experiments * (n_b_j + 1).

    Every cell's point histograms are fitted in one fit_batch call, the
    failed-point check runs per cell (in cell order) before any bootstrap,
    and every converged experiment's bootstrap goes through one
    parallel_map."""
    states, shots, n_bs = zip(*cells)
    check_int("n_experiments", n_experiments, 1)
    for name, values, low in (("n_shots", shots, 1), ("n_b", n_bs, 2)):
        for value in values:
            check_int(name, value, low)
    _check_interval_args(alpha, methods)
    # (cell, first stream) of every experiment, cells in order
    experiments, stream = [], seed.stream_index
    for k, n_b in enumerate(n_bs):
        experiments += [(k, stream + i * (n_b + 1)) for i in range(n_experiments)]
        stream += n_experiments * (n_b + 1)
    truths = [to_variances(state) for state in states]
    dists = [fock_distribution(truth, n_max) for truth in truths]
    counts = np.concatenate([_sample_counts(dists[k], shots[k], SeedSpec(seed.master_seed, s), 1)
                             for k, s in experiments])
    freqs = counts / np.repeat(shots, n_experiments)[:, None]
    scheme = "posterior"  # the point fits' and the replicate refits' weights
    points = fit_batch(freqs, weights_for(counts, scheme, prior))
    n_used = points.converged.reshape(len(cells), n_experiments).sum(axis=1)
    for n_failed in n_experiments - n_used:
        _check_failures(n_failed, n_experiments, "experiments")
    true_values = [parameter_values(truth, state) for truth, state in zip(truths, states)]
    tasks = [(points[j], true_values[k], shots[k], n_bs[k], alpha, methods, prior, n_max,
              SeedSpec(seed.master_seed, s + 1), scheme)
             for j, (k, s) in enumerate(experiments) if points.converged[j]]
    # one row of hits per used experiment, its columns in intervals' order
    hits = np.array(parallel_map(_experiment_hits, tasks))
    results = []
    for cell_hits in np.split(hits, np.cumsum(n_used)[:-1]):
        used = cell_hits.shape[0]
        frac = cell_hits.sum(axis=0).reshape(len(PARAMETERS), len(methods)) / used
        coverage = {m: {p: float(frac[i, j]) for i, p in enumerate(PARAMETERS)}
                    for j, m in enumerate(methods)}
        std_error = {m: {p: math.sqrt(c * (1.0 - c) / used) for p, c in coverage[m].items()}
                     for m in methods}
        results.append(CoverageResult(coverage, std_error, n_experiments, used))
    return results
