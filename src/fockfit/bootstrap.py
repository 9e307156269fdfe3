"""Parametric-bootstrap confidence intervals for the fitted parameters
(vq, vp, r, nbar): replicate generation, percentile intervals,
bias-corrected (BC) intervals, and a coverage-probability harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._parallel import parallel_map
from .estimation import FitResult, PriorShape, fit, fit_batch, posterior_weights, weights_for
from .model import QuadratureVariances, SqueezedThermalState, fock_distribution, to_variances
from .numerics import std_normal_cdf, std_normal_quantile
from .sampling import SeedSpec, _sample_counts, sample_histogram

__all__ = [
    "PARAMETERS",
    "METHODS",
    "BootstrapError",
    "ConfidenceInterval",
    "ReplicateSet",
    "CoverageResult",
    "parameter_values",
    "parametric_bootstrap",
    "percentile_interval",
    "bc_interval",
    "intervals",
    "coverage_probability",
]

PARAMETERS = ("vq", "vp", "r", "nbar")
METHODS = ("percentile", "bc")

# Refits that fail to converge are flagged and excluded from intervals;
# above this fraction the whole bootstrap is considered unusable.
MAX_FAILURE_FRACTION = 0.01


def parameter_values(v: QuadratureVariances, state: SqueezedThermalState) -> dict[str, float]:
    """The four parameters of one state, keyed and ordered as PARAMETERS."""
    return dict(zip(PARAMETERS, (v.vq, v.vp, state.r, state.nbar)))


class BootstrapError(RuntimeError):
    """Raised when too many bootstrap refits fail to converge."""


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


@dataclass(frozen=True)
class ReplicateSet:
    """Per-replicate refit estimates of all four parameters.

    Failed refits keep their slot (converged[i] is False) but are excluded
    from sorted_values and hence from every interval.
    """

    vq: tuple[float, ...]
    vp: tuple[float, ...]
    r: tuple[float, ...]
    nbar: tuple[float, ...]
    converged: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.converged)
        if n < 2:
            raise ValueError("need at least 2 replicates")
        if any(len(getattr(self, p)) != n for p in PARAMETERS):
            raise ValueError("parameter tuples must all have n_b entries")

    @property
    def n_b(self) -> int:
        return len(self.converged)

    @property
    def n_failed(self) -> int:
        return self.converged.count(False)

    def sorted_values(self, parameter: str) -> np.ndarray:
        """Ascending converged-replicate estimates of one parameter."""
        if parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {parameter!r}")
        vals = np.array(getattr(self, parameter))[np.array(self.converged)]
        return np.sort(vals)


def parametric_bootstrap(
    point: FitResult,
    n_shots: int,
    n_b: int,
    prior: PriorShape,
    seed: SeedSpec,
    n_max: int = 20,
    scheme: str = "posterior",
) -> ReplicateSet:
    """Simulate ``n_b`` experiments from the fitted state and refit them
    all in one fit_batch call.

    Replicate i draws its histogram from stream ``seed.stream_index + i``
    and is refit with the weights ``weights_for(counts, scheme, prior)``;
    pass the scheme the point estimate was fitted with.  Raises
    BootstrapError if more than MAX_FAILURE_FRACTION of refits fail.
    """
    if not point.converged:
        raise ValueError("bootstrap requires a converged point estimate")
    if n_b < 2:
        raise ValueError(f"n_b must be >= 2, got {n_b}")
    counts = _sample_counts(fock_distribution(point.variances, n_max), n_shots, seed, n_b)
    fits = fit_batch(counts / n_shots, weights_for(counts, scheme, prior))
    vq, vp, r, nbar, ok = zip(*(
        (res.variances.vq, res.variances.vp, res.state.r, res.state.nbar, res.converged)
        for res in fits
    ))
    reps = ReplicateSet(vq, vp, r, nbar, ok)
    if reps.n_failed > MAX_FAILURE_FRACTION * n_b:
        raise BootstrapError(
            f"{reps.n_failed} of {n_b} bootstrap refits failed to converge"
        )
    return reps


def _floor_index(x: float) -> int:
    """floor(x) with a snap to the nearest integer, so binary round-off in
    products like 1000 * 0.95 = 949.9999... cannot shift the index."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.floor(x)


def _check_sorted(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.shape[0] < 2:
        raise ValueError("need a 1-D vector of at least 2 estimates")
    if np.any(np.diff(values) < 0.0):
        raise ValueError("estimates must be sorted ascending")
    return values


def percentile_interval(
    values, alpha: float, parameter: str = "nbar"
) -> ConfidenceInterval:
    """Percentile interval [theta_l, theta_m] from sorted replicate
    estimates, with 1-based order-statistic indices

        l = floor(n_b * alpha),   m = floor(n_b * (1 - alpha)),

    clamped into [1, n_b].
    """
    values = _check_sorted(values)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
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
    values = _check_sorted(values)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
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
    reps: ReplicateSet, point: FitResult, alpha: float, methods: Sequence[str]
) -> list[ConfidenceInterval]:
    """One interval per (parameter, method) from the replicates of the
    point estimate ``point``, parameters in PARAMETERS order and, within
    each, methods in the order given."""
    points = parameter_values(point.variances, point.state)
    out = []
    for parameter in PARAMETERS:
        values = reps.sorted_values(parameter)
        for method in methods:
            if method == "percentile":
                out.append(percentile_interval(values, alpha, parameter))
            elif method == "bc":
                out.append(bc_interval(values, points[parameter], alpha, parameter))
            else:
                raise ValueError(f"unknown method {method!r}")
    return out


def _coverage_experiment(args) -> tuple[bool, dict]:
    truth, n_shots, n_b, alpha, methods, prior, n_max, seed = args
    tv = to_variances(truth)
    h = sample_histogram(fock_distribution(tv, n_max), n_shots, seed)
    point = fit(h, posterior_weights(h, prior))
    if not point.converged:
        return False, {}
    reps = parametric_bootstrap(
        point, n_shots, n_b, prior, SeedSpec(seed.master_seed, seed.stream_index + 1), n_max
    )
    true_values = parameter_values(tv, truth)
    return True, {
        (ci.parameter, ci.method): ci.contains(true_values[ci.parameter])
        for ci in intervals(reps, point, alpha, methods)
    }


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
    """Estimate interval coverage by repeated simulate-fit-bootstrap runs.

    Experiment i occupies the stream block
    [stream_index + i*(n_b + 1), stream_index + (i+1)*(n_b + 1)), so runs
    are reproducible and independent of scheduling.  Accepts one method
    name or several; all methods share the same replicate sets, so their
    coverages are directly comparable.
    """
    if n_experiments < 1 or n_shots < 1:
        raise ValueError("all counts must be positive")
    methods = (method,) if isinstance(method, str) else tuple(method)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    tasks = [
        (true_state, n_shots, n_b, alpha, methods, prior, n_max,
         SeedSpec(seed.master_seed, seed.stream_index + i * (n_b + 1)))
        for i in range(n_experiments)
    ]
    results = parallel_map(_coverage_experiment, tasks)
    used = [hits for ok, hits in results if ok]
    n_failed = n_experiments - len(used)
    if n_failed > MAX_FAILURE_FRACTION * n_experiments:
        raise BootstrapError(
            f"{n_failed} of {n_experiments} experiments failed to converge"
        )
    coverage: dict[str, dict[str, float]] = {m: {} for m in methods}
    std_error: dict[str, dict[str, float]] = {m: {} for m in methods}
    n_used = len(used)
    for parameter in PARAMETERS:
        for m in methods:
            frac = sum(h[(parameter, m)] for h in used) / n_used
            coverage[m][parameter] = frac
            std_error[m][parameter] = math.sqrt(frac * (1.0 - frac) / n_used)
    return CoverageResult(coverage, std_error, n_experiments, n_used)
