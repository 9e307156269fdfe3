"""Direct timings of single layers on a workload's own inputs, made outside
the timed operations: the grid stage of the fit, the model distribution,
the Legendre recurrence and the sampler.  The grid-stage fits double as
the correctness gate: a full fit never ends above its own grid stage."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from fockfit import (
    FitResult, SeedSpec, SqueezedThermalState, fit_frequencies, fock_distribution, sample_histogram,
    scaled_legendre, to_variances,
)

# fit_frequencies defaults: the grid is GRID_SIZE x GRID_SIZE points over
# r in [0, R_MAX] and nbar in [0, NBAR_MAX].
R_MAX, NBAR_MAX, GRID_SIZE = 3.5, 7.0, 60


def _median_batch_time(fn, batch: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean wall time of ``batch`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


@dataclass
class GateRef:
    """One sampled input's grid-stage objective and full fit."""

    grid_objective: float
    full: FitResult


def grid_stage(samples, timed: bool) -> tuple[list[GateRef], dict]:
    """Fit every (histogram, weights) sample twice: the grid stage alone
    (``max_evals=0``) and in full.  Returns one GateRef per sample and,
    when ``timed``, the grid stage's time per call and the refinement's
    share of a full fit."""
    refs, t_grid, t_full = [], [], []
    for h, w in samples:
        t0 = time.perf_counter()
        grid = fit_frequencies(h.frequencies, w, max_evals=0)
        t1 = time.perf_counter()
        full = fit_frequencies(h.frequencies, w)
        t2 = time.perf_counter()
        t_grid.append(t1 - t0)
        t_full.append(t2 - t1)
        refs.append(GateRef(grid.objective, full))
    if not timed:
        return refs, {}
    return refs, {
        "estimation.grid_stage.ms_per_call": statistics.median(t_grid) * 1e3,
        "estimation.refine_share": 1.0 - sum(t_grid) / sum(t_full),
    }


def gate_error(ref: GateRef) -> str | None:
    """The full fit must converge and end at or below its grid stage."""
    if not ref.full.converged:
        return "fit did not converge"
    if not ref.full.objective <= ref.grid_objective:
        return (f"fit objective {ref.full.objective!r} above its grid stage's "
                f"{ref.grid_objective!r}")
    return None


def _grid_legendre_args() -> tuple[np.ndarray, np.ndarray]:
    """The recurrence arguments (chat, uhat) at every point of the fit grid."""
    r = np.linspace(0.0, R_MAX, GRID_SIZE)
    nbar = np.expm1(np.linspace(0.0, math.log1p(NBAR_MAX), GRID_SIZE))
    rg, ng = map(np.ravel, np.meshgrid(r, nbar, indexing="ij"))
    half = 0.5 * (2.0 * ng + 1.0)
    vq, vp = half * np.exp(-2.0 * rg), half * np.exp(2.0 * rg)
    big_b = (2.0 * vq + 1.0) * (2.0 * vp + 1.0)
    return (4.0 * vq * vp - 1.0) / big_b, (2.0 * vq - 1.0) * (2.0 * vp - 1.0) / big_b


def layer_probes(state: SqueezedThermalState, shots: int, smoke: bool) -> dict:
    """Per-call timings of the model, recurrence and sampler layers.

    The recurrence's operations and bytes are computed, not counted: each
    step does 6 flops per point, and numpy's temporaries read 9 and write
    6 arrays of the grid's size.
    """
    repeats, batch = (2, 5) if smoke else (7, 200)
    v = to_variances(state)
    out = {}
    chat, uhat = _grid_legendre_args()
    points = chat.shape[0]
    for n_max in (20, 64):
        out[f"model.fock_distribution.us_per_call.n{n_max}"] = _median_batch_time(
            lambda: fock_distribution(v, n_max), batch, repeats) * 1e6
        flops = 6 * (n_max - 1) * points
        nbytes = 8 * points * (15 * (n_max - 1) + 3)
        secs = _median_batch_time(
            lambda: scaled_legendre(chat, uhat, n_max), max(batch // 20, 1), repeats)
        out[f"numerics.scaled_legendre.gflops.n{n_max}"] = flops / secs * 1e-9
        out[f"numerics.scaled_legendre.flops_per_call.n{n_max}"] = flops
        out[f"numerics.scaled_legendre.bytes_per_call.n{n_max}"] = nbytes
    dist = fock_distribution(v, 20)
    seeds = iter(range(10 ** 9))
    out["sampling.sample_histogram.us_per_call"] = _median_batch_time(
        lambda: sample_histogram(dist, shots, SeedSpec(1, next(seeds))), batch, repeats) * 1e6
    return out
