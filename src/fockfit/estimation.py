"""Weighted least-squares estimation of quadrature variances from Fock
count histograms: weight rules (Beta-posterior, naive MLE, uniform), the
weighted sum of squared residuals, and the constrained two-stage fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from ._io import check_int, is_number
from .model import (
    HEISENBERG_SLACK,
    MAX_FOCK,
    QuadratureVariances,
    SqueezedThermalState,
    _bin_sum,
    _each,
    _fit_coords,
    _fock_table,
    _state_params,
    _variances,
)

__all__ = [
    "PARAMETERS",
    "WEIGHT_SCHEMES",
    "FockHistogram",
    "PriorShape",
    "FitResult",
    "FitBatch",
    "posterior_weights",
    "mle_weights",
    "uniform_weights",
    "weights_for",
    "objective",
    "fit",
    "fit_frequencies",
    "fit_batch",
]

PARAMETERS = ("vq", "vp", "r", "nbar")
WEIGHT_SCHEMES = ("posterior", "mle", "uniform")
# The most shots one histogram may hold: every row of counts, with its
# total, is then an int64 row (Generator.multinomial also counts in int64).
MAX_SHOTS = 2 ** 63 - 1


@dataclass(frozen=True)
class FockHistogram:
    """Observed counts k_0..k_{n_max}, an overflow count for events above
    n_max, and the total number of measurements, at most MAX_SHOTS."""

    counts: tuple[int, ...]
    overflow_count: int
    total: int

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("counts: need at least bins 0 and 1")
        for k in self.counts:
            check_int("counts", k, 0)
        check_int("overflow_count", self.overflow_count, 0)
        check_int("total", self.total, 1, MAX_SHOTS)
        if sum(map(int, self.counts)) + int(self.overflow_count) != self.total:
            raise ValueError("counts plus overflow must sum to total")

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    @property
    def frequencies(self) -> np.ndarray:
        """Observed frequencies f_n = k_n / N for all n_max + 2 bins."""
        return np.array(self.counts + (self.overflow_count,)) / self.total


@dataclass(frozen=True)
class PriorShape:
    """Shape parameters (nu, eta) of the Beta prior on a bin probability."""

    nu: float
    eta: float

    def __post_init__(self):
        for name in ("nu", "eta"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}: expected a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class FitResult:
    """Constrained minimizer of the weighted residuals.

    ``state`` is exactly from_variances(variances); ``evaluations`` counts
    objective evaluations: the grid's 3600 points (unless the fit was given
    a start state), skipped ones included, then the refinement's.
    """

    variances: QuadratureVariances
    state: SqueezedThermalState
    objective: float
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class FitBatch:
    """A batch fit's result (fit_batch's, or a replicate set's) as
    read-only columns, one entry per row: the parameters (named as in
    PARAMETERS), objective, convergence flag and evaluation count (the
    grid's 3600 points, skipped ones included, unless the fit was given a
    start).  ``batch[i]`` is row i as a FitResult, ``batch[i:j]`` a
    FitBatch.  Failed rows are left out of sorted_values."""

    vq: np.ndarray
    vp: np.ndarray
    r: np.ndarray
    nbar: np.ndarray
    objective: np.ndarray
    converged: np.ndarray
    evaluations: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            column = np.asarray(getattr(self, field.name)).view()
            if column.ndim != 1 or column.shape != np.shape(self.converged):
                raise ValueError("columns must be 1-D and of equal length")
            column.flags.writeable = False
            object.__setattr__(self, field.name, column)

    def __reduce__(self):
        return FitBatch, tuple(vars(self).values())

    def __len__(self) -> int:
        return self.converged.shape[0]

    def __getitem__(self, index):
        columns = (column[index] for column in vars(self).values())
        if isinstance(index, slice):
            return FitBatch(*columns)
        vq, vp, r, nbar, *rest = (column.item() for column in columns)
        return FitResult(QuadratureVariances(vq, vp), SqueezedThermalState(r, nbar), *rest)

    def __eq__(self, other):
        return isinstance(other, FitBatch) and all(
            np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    @property
    def n_failed(self) -> int:
        return len(self) - int(np.count_nonzero(self.converged))

    def sorted_values(self, parameter: str) -> np.ndarray:
        """Ascending converged-row estimates of one parameter."""
        if parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {parameter!r}")
        return np.sort(getattr(self, parameter)[self.converged])


def _numeric(values, name: str) -> np.ndarray:
    """``values`` as an array of numpy's integer or float dtypes.  Booleans,
    strings, objects and other dtypes raise ValueError naming ``name``."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers or floats, got {a.dtype} entries")
    return a


def _checked_counts(counts) -> np.ndarray:
    """Counts for every bin (overflow included), bins on the last axis: a
    FockHistogram as its int64 row, integer arrays as they are, each row
    totalling at most MAX_SHOTS, and other numeric arrays as floats,
    checked finite and nonnegative."""
    if isinstance(counts, FockHistogram):
        counts = np.array(counts.counts + (counts.overflow_count,), dtype=np.int64)
    k = _numeric(counts, "counts")
    if k.ndim < 1 or k.shape[-1] < 3:
        raise ValueError("count arrays need bins 0, 1 and overflow on the last axis")
    if k.dtype.kind not in "iu":
        k = k.astype(float)
    if not (np.all(k >= 0) and (k.dtype != float or np.all(np.isfinite(k)))):
        raise ValueError("counts must be finite and nonnegative")
    # A row total past MAX_SHOTS would wrap.  Only rows whose float sum
    # reaches 2**62 can pass it; those are summed exactly.
    if k.dtype.kind in "iu":
        near = k[k.sum(axis=-1, dtype=float) >= 2.0 ** 62]
        if max(map(sum, near.tolist()), default=0) > MAX_SHOTS:
            raise ValueError("integer counts must total less than 2**63 per row")
    return k


def _count_matrix(counts):
    """_checked_counts' counts as floats, with the total N and each bin's
    remainder N - k_n.  The totals and remainders of integer counts are
    formed exactly and only then made floats, so a bin that holds all but
    a few of a huge total keeps its small remainder."""
    k = _checked_counts(counts)
    total = k.sum(axis=-1, keepdims=True)
    return k.astype(float), total.astype(float), (total - k).astype(float)


def posterior_weights(counts, prior: PriorShape = PriorShape(1.0, 1.0)):
    """Inverse Beta-posterior variances, one per bin:

        Var(p_n | k_n) = (k_n + nu)(N + eta - k_n) / [(nu+N+eta)^2 (nu+N+eta+1)]

    Finite and positive for every bin, including k_n = 0.  ``counts`` is a
    FockHistogram, taken as its row of counts plus overflow, or an array of
    integer or float counts with the bins on its last axis and N the sum
    over them; the weights are a float array of the counts' shape.
    """
    k, total, rest = _count_matrix(counts)
    s = prior.nu + total + prior.eta
    var = (k + prior.nu) * (rest + prior.eta) / (s * s * (s + 1.0))
    return 1.0 / var


# Zero and full bins make the naive binomial variance vanish; half a count
# substituted on the offending side keeps this baseline runnable.
_MLE_FALLBACK_COUNT = 0.5


def mle_weights(counts):
    """Naive inverse-variance weights N^3 / [k_n (N - k_n)] from the
    binomial maximum-likelihood plug-in, with the half-count substitution
    applied whenever k_n is 0 or N.  Kept for comparison studies; the
    posterior weights are the estimator of record.  ``counts`` is taken as
    by posterior_weights."""
    k, total, rest = _count_matrix(counts)
    num = np.maximum(k, _MLE_FALLBACK_COUNT)
    rem = np.maximum(rest, _MLE_FALLBACK_COUNT)
    return total ** 3 / (num * rem)


def uniform_weights(counts):
    """Unit weight for every bin (the unweighted baseline); ``counts`` is
    taken as by posterior_weights."""
    return np.ones(_checked_counts(counts).shape)


def weights_for(counts, scheme: str, prior: PriorShape):
    """Weights under the named scheme (one of WEIGHT_SCHEMES; ``prior``
    is used by the posterior scheme only), for ``counts`` as taken by
    posterior_weights."""
    if scheme == "posterior":
        return posterior_weights(counts, prior)
    if scheme == "mle":
        return mle_weights(counts)
    if scheme == "uniform":
        return uniform_weights(counts)
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _checked_weights(weights, shape: tuple) -> np.ndarray:
    """The weights as a float array, which must be numeric (see _numeric),
    have the frequencies' shape and only finite, positive entries."""
    w = _numeric(weights, "weights").astype(float, copy=False)
    if w.shape != shape:
        raise ValueError(f"expected weights of shape {shape}, got {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("all weights must be finite and positive")
    return w


def objective(v: QuadratureVariances, h: FockHistogram, weights) -> float:
    """Weighted sum of squared residuals over all bins, overflow included:

        Delta = sum_n w_n [P(n | vq, vp) - f_n]^2,

    for one weight per bin, as a weight rule gives them for ``h``, whose
    n_max must be in [1, MAX_FOCK] as for fit.
    """
    check_int("n_max", h.n_max, 1, MAX_FOCK)
    freqs = h.frequencies
    wts = _checked_weights(weights, freqs.shape)
    point = np.array(_fit_coords(v.vq, v.vp))[:, None]
    return float(_evaluate(point, freqs[:, None], wts[:, None], h.n_max)[0][0])


# The grid stage: 60 points linear in r over [0, 3.5], as q = 2 sinh(r)^2,
# by 60 points log-spaced in (1 + nbar) over [1, 8], nbar = expm1(t).  The
# coordinates are exact literals, so the grid, and every start it gives, is
# the same on every CPU: numpy's SIMD sinh and expm1 differ from libm's in
# the last bits of 15 q-values and 7 nbar-values where numpy runs AVX512
# code.  These are the AVX512 values (numpy 2.4), which the golden outputs
# record; each is within 2 ulps of the exact value.
_GRID_Q = (
    0.0, 0.007046467347089941, 0.028285174792506976, 0.06401543805326816, 0.11474080139611326,
    0.18117613405397148, 0.26425770483137623, 0.36515637687958336, 0.48529410859449756,
    0.6263639931834842, 0.7903541193173712, 0.9795755891342542, 1.1966950884509984,
    1.444772468192309, 1.7273038666699818, 2.04827098043182, 2.4121971780510463,
    2.8242112476642114, 3.290119676647457, 3.816488482063912, 4.41073574511336, 5.081236153666158,
    5.837439026192459, 6.690001480390328, 7.65093862324948, 8.73379287916945, 9.953824842462227,
    11.328228343911308, 12.876372762306067, 14.620075995832108, 16.58391194028554,
    18.79555680738161, 21.28617916379905, 24.0908791877547, 27.249183333522925, 30.805601375174433,
    34.81025367991536, 39.31957755114936, 44.39712259570865, 50.1144463243129, 56.55212260689485,
    63.800877194887256, 71.96286631331273, 81.15311634179189, 91.50114487379936,
    103.15278599965009, 116.27224553681087, 131.04441517176164, 147.67747812645922,
    166.4058430708885, 187.49344762913978, 211.2374780351093, 237.9725573586853,
    268.07546132681813, 301.97042819923627, 340.13513753053405, 383.10744207693955,
    431.4929477200837, 485.97354823114085, 547.317035155212,
)
_GRID_NBAR = (
    0.0, 0.03587323042226645, 0.07303334950546193, 0.11152652210304774, 0.15140056915091082,
    0.19270502707639015, 0.23549120933849707, 0.27981227017578164, 0.32572327064104134,
    0.3732812470049081, 0.4225452816132926, 0.4735765762867142, 0.526438528352702,
    0.5811968094057237, 0.6379194468924879, 0.6966769086239732, 0.7575421903191798,
    0.8205909062893546, 0.8859013833753555, 0.9535547582548506, 1.023635078240242,
    1.0962294056925355, 1.1714279261808744, 1.2493240605221052, 1.3300145808395625,
    1.4135997307852608, 1.5001833500748407, 1.5898730034899895, 1.6827801145085934,
    1.7790201037286344, 1.8787125322578027, 1.981981250246953, 2.08895455075194, 2.199765329114973,
    2.3145512480634935, 2.4334549087316857, 2.5566240278170795, 2.684211621092331,
    2.816376193500168, 2.9532819360676514, 3.09509892988439, 3.24200335739811, 3.3941777212900806,
    3.551811071202309, 3.715099238598173, 3.8842450800482586, 4.059458729243651, 4.240957858049756,
    4.4289679469249625, 4.6237225650401, 4.825463660446683, 5.034441860654427, 5.250916783991453,
    5.4751573621339915, 5.707442174206259, 5.948059792865588, 6.197309142802742, 6.455499872102789,
    6.72295273692791, 6.999999999999998,
)

# Rows per grid-stage GEMM.  Every row block has exactly this many rows
# (the last one is zero-padded), so a row's grid objectives do not depend
# on the batch it arrives in.  Each GEMM has at most _GRID_GEMM_SIZE
# multiply-adds (512 points at n_max = 20).  With numpy's OpenBLAS on a
# busy 2-vCPU machine, products of 1e6 multiply-adds and more sometimes
# took 16 ms per call, handed to worker threads, where every product of
# this size took under 0.3 ms.  The model table is built one GEMM's block
# of points per kernel call; these blocks and the rows per lock-step
# refinement bound the temporaries whatever the batch size and n_max.
_GRID_BLOCK = 32
_GRID_GEMM_SIZE = _GRID_BLOCK * 44 * 512
# Rows per fit_batch block, through every stage.  The refinement is
# elementwise and this is a multiple of _GRID_BLOCK, so a row's result does
# not depend on it.  Wider blocks spread numpy's per-call overhead over
# more columns: at 1024, a 1000-replicate ci and a 900-row study each run
# in one lock-step pass.  Most of the working set is _evaluate's one
# (8, n_max + 2, m) buffer, 1.4 KB per column at n_max = 20; 1000 rows
# peak at about 1.97 MB of numpy buffers from the grid, whose own stage
# peaks at 1.39 MB, and 1.96 MB from a start state (tracemalloc).
_REFINE_BLOCK = 1024
# Rows per chunk of _grid_winners' bound, whose temporary is
# (4, operands, rows): 64 KB at n_max = 20 and 176 KB at 64.  The limits,
# one per operand and row, take as much for 1000 rows.
_BOUND_CHUNK = 256
# Columns that stop stay in the lock-step arrays, frozen, until a
# 1/_COMPACT share of them has stopped; then the live ones are compacted.
# Compacting copies the live columns' frequencies and weights, which sit
# next to the evaluation buffer, so compacting after the first few stops
# would raise the peak; a few frozen columns cost less than the copies.
_COMPACT = 8

# Projected Levenberg-Marquardt settings: initial damping, its factor per
# rejected step, and its ceiling (far above any useful value, far below
# overflow).
_LM_LAMBDA0, _LM_FACTOR, _LM_LAMBDA_MAX = 1e-3, 10.0, 1e16
# Each step solves (H + S + lambda diag H) step = -g, with g the half
# gradient, H = J^T W J and S an estimate of the residual curvature
# sum_n w_n (P_n - f_n) grad^2 P_n that H leaves out, so that rows converge
# superlinearly where Gauss-Newton converges linearly.  S is the structured
# secant update of NL2SOL (Dennis, Gay & Welsch, ACM TOMS 7 (1981) 348),
# from the half gradients that _evaluate returns anyway.  Its safeguards:
# S is sized down before each update by min(1, |s^T y#| / |s^T S s|) and
# not updated unless y^T s > 0; H + S is used only where it is positive
# definite, and only in columns where it predicted the last actual
# decrease better than H alone did (NL2SOL's model switch); Nielsen's
# damping ratio uses the model that made the step; and a coordinate held
# on a face drops its entries of S, as it drops those of H.
#
# A row stops for one of two reasons.  Its step, from whichever model made
# it, changes every coordinate x by at most _STEP_TOL * (|x| + _STEP_FLOOR);
# this also stops a row whose damped system is not solvable (step 0).  Or
# the objective sits on its rounding floor rho: the trial is rejected and
# the undamped Gauss-Newton decrease g^T H^-1 g, from H alone, over the
# free coordinates is at most rho, so no step could show a gain that
# rounding does not hide (Madsen, Nielsen & Tingleff, Methods for
# Non-Linear Least Squares Problems, 2004, sec. 3.2).
# rho is the only test of "within rounding" in the fit: the boundary snap
# uses it too.
#
# rho bounds the rounding error of one evaluation of the objective
# sum_n w_n (P_n - f_n)^2, with eps the machine epsilon (twice the unit
# roundoff u of Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 4):
# - the in-order sum of the n_max + 2 terms errs by at most (n_max + 1) u
#   obj, and forming each term (difference, square, weight) by 3 u of it,
#   together at most (n_max + 2) eps obj;
# - an error dP_n of the model moves its term by 2 w_n |P_n - f_n| dP_n.
#   Each order of the Legendre recurrence adds about one rounding, and at
#   the recurrence's double root (thermal states, q = 0) an error made at
#   order k grows linearly up to order n, so |dP_n| is taken as
#   (n + 1)(n + 2)/2 eps P_n for n <= n_max.  The overflow bin is 1 - sum P,
#   so its error is absolute: the sum of those errors plus (n_max + 1) eps
#   for the sum itself.  A linear (n + 1) eps P_n is exceeded up to 11-fold
#   at n_max = 64 for thermal states; the tests check this model against a
#   50-digit oracle, and rho against the objective's spread near fitted points.
# A gain shows only as the difference of two evaluations, the trial's and
# the current one, each with its own error, so rho is _FLOOR_FACTOR times
# that bound.
_STEP_TOL, _STEP_FLOOR = 1e-10, 1e-6
_FLOOR_FACTOR = 2.0
# Bootstrap replicate refits have a third rule: a row stops, converged,
# once the undamped Gauss-Newton step delta from the point an accepted step
# reached is within _SE_TOL standard errors, delta^T V^-1 delta <=
# _SE_TOL^2, with V the sandwich covariance (_covariance) of (q, nbar) at
# the point estimate.  delta estimates how far the row is from its
# optimum, in units of the estimate's own spread, so a percentile endpoint
# (an order statistic of the replicates) moves by about _SE_TOL of that
# spread.  This is the k-step bootstrap (Davidson & MacKinnon, IER 40
# (1999) 487; Andrews, Econometrica 70 (2002) 119) with the steps chosen
# per row.  Where the residual curvature is large (N = 100) delta falls
# short of the distance left in slowly converging rows.  Point fits run
# to rho.
_SE_TOL = 1e-3
# The upper corner of the search box in (q, nbar), at r = 14.2 and
# nbar = 1e6: far outside any state the model resolves and small enough
# that every intermediate stays finite.  A fit that ends on an upper face
# is reported as not converged.
_UPPER = np.array([1e12, 1e6])[:, None]

# Coordinates within 1e-6 of a bound, in r and in nbar, are candidates for
# an exact boundary solution; the statistical resolution of any realistic
# fit is orders of magnitude coarser.  In q = 2 sinh(r)^2 the limit is
# 2 sinh(1e-6)^2, rounded.  A snap is kept when it raises the objective by
# at most the snapped point's rho (see above _STEP_TOL).
_BOUNDARY_SNAP = np.array([2.0000000000006668e-12, 1e-6])[:, None]


@lru_cache(maxsize=8)
def _model_grid(n_max: int):
    """The grid stage's tables, built one GEMM block of points at a time:

    - the points (q, nbar), a read-only (2, points) array;
    - the GEMM operands, a tuple of read-only, C-contiguous [P^2; P] blocks
      of the model probabilities P at consecutive points, each
      (2 (n_max + 2), width) with width the most points a GEMM of
      _GRID_BLOCK rows takes within _GRID_GEMM_SIZE multiply-adds (the last
      block may be narrower);
    - for _grid_winners' bound, the bins it reads (0, 1, 2 and the
      overflow bin), a read-only (2, bins read, operands, 1) array of the
      least and greatest P of those bins over each operand's points, and
      the greatest P^2 of every bin over all points, a read-only
      (n_max + 2,) array."""
    q, nbar = map(np.ravel, np.meshgrid(_GRID_Q, _GRID_NBAR, indexing="ij"))
    points = np.stack((q, nbar))
    width = _GRID_GEMM_SIZE // (_GRID_BLOCK * 2 * (n_max + 2))
    bound_bins = sorted({0, 1, 2, n_max + 1})
    operands, ranges = [], []
    for first in range(0, points.shape[1], width):
        probs, _ = _fock_table(*points[:, first:first + width], n_max)
        operands.append(np.concatenate((probs * probs, probs)))
        ranges.append((probs[bound_bins].min(axis=1), probs[bound_bins].max(axis=1)))
    ranges = np.array(ranges).transpose(1, 2, 0)[..., None]
    peaks = np.max([block[:n_max + 2].max(axis=1) for block in operands], axis=0)
    for table in (points, ranges, peaks, *operands):
        table.flags.writeable = False
    return points, tuple(operands), bound_bins, ranges, peaks


def _grid_winners(freqs: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Index of the best point of _model_grid for every row (the first one
    on ties).

    The objectives are sum w P^2 - 2 sum (w f) P (+ sum w f^2, the same for
    every point): for a block of rows [w, -2 w f], the GEMM with an operand
    of _model_grid gives the rows' values at that operand's points.  A block
    runs only the GEMMs that can hold one of its rows' winners.

    The bound.  Every stored P_n of an operand lies in [lo_n, hi_n], the
    least and greatest of them, so at each of its points a row's objective
    is at least L = sum_n w_n dist(f_n, [lo_n, hi_n])^2 over any subset of
    the bins, as the terms left out are >= 0; L reads bins 0, 1, 2 and the
    overflow bin, where P varies most over the grid.  A point's computed
    value is then at least L - Q - E, with Q = sum w f^2 and E the GEMM's
    rounding error.  With u the unit roundoff, the 2 bins products and the
    roundings of -2 w f and of P^2 give |E| <= (2 bins + 2) u G for any
    summation order, with or without FMA (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 3.1), where G = sum w (P^2 + 2 |f| P)
    <= Q + 2 W and W = sum w Pmax^2, with Pmax^2 each bin's greatest P^2
    over the grid.  L and Q themselves are computed to within
    (bins + 3) u (L + Q), and the limit L - Q - M adds a few u (L + Q + M).
    The margin M = 4 (bins + 2) (eps (2 Q + 2 W + L) + s), eps = 2 u,
    covers all of this with room to spare.  s is the least subnormal: below
    the normal range a rounding errs by up to s / 2 whatever the size of
    its result, and the GEMM, L, Q and the limit round at most about
    5 bins + 15 times.  A row whose L, Q + 2 W or -2 w f overflows, as the
    GEMM's terms can only then, gets a limit of -inf or NaN, which skips
    nothing.  So where a row's limit exceeds one of its computed values b,
    every computed value at the operand's points exceeds b, and none of
    them is the row's argmin, not even on a tie.

    The limits are computed up front, _BOUND_CHUNK rows at a time.  Each
    block runs the GEMM of the operand whose limits sum lowest over the
    block's rows first, then every other operand where some real row (not
    a zero padding row) has a limit no higher than its least value from
    that GEMM.  The skipped operands' columns hold +inf, so the one argmin
    over all columns is the argmin over the computed values, in grid
    order, and so over all points.  The GEMMs keep their shapes, so each
    computed value keeps its bits."""
    rows, bins = freqs.shape
    _, operands, bound_bins, ranges, peaks = _model_grid(bins - 2)
    padded = -(-rows // _GRID_BLOCK) * _GRID_BLOCK
    lhs = np.zeros((padded, 2 * bins))
    lhs[:rows, :bins] = wts
    lhs[:rows, bins:] = -2.0 * wts * freqs
    # the limits L - Q - M, one row per operand and one column per row
    floats = np.finfo(float)
    scale = 4.0 * (bins + 2) * floats.eps
    q = -0.5 * np.einsum("ij,ij->i", lhs[:rows, bins:], freqs)
    offsets = q + scale * 2.0 * (q + wts @ peaks) + 4.0 * (bins + 2) * floats.smallest_subnormal
    limits = np.empty((len(operands), rows))
    for row in range(0, rows, _BOUND_CHUNK):
        chunk = slice(row, row + _BOUND_CHUNK)
        f = freqs[chunk, bound_bins].T[:, None]
        gap = np.minimum(f, ranges[1])
        np.maximum(gap, ranges[0], out=gap)
        np.subtract(f, gap, out=gap)
        np.square(gap, out=gap)
        gap *= wts[chunk, bound_bins].T[:, None]
        bound = gap.sum(axis=0)
        np.subtract(bound, scale * bound + offsets[chunk], out=limits[:, chunk])
        del gap, bound
    # each operand's columns of the values
    edges = np.cumsum([0] + [block.shape[1] for block in operands]).tolist()
    values = np.empty((_GRID_BLOCK, edges[-1]))
    outs = np.split(values, edges[1:-1], axis=1)
    starts = range(0, rows, _GRID_BLOCK)
    firsts = np.add.reduceat(limits, starts, axis=1).argmin(axis=0).tolist()
    filled = [False] * len(operands)
    best = np.empty(padded, dtype=np.intp)
    for row, first in zip(starts, firsts):
        block, limit = lhs[row:row + _GRID_BLOCK], limits[:, row:row + _GRID_BLOCK]
        np.matmul(block, operands[first], out=outs[first])
        low = np.minimum.reduce(outs[first][:limit.shape[1]], axis=1)
        skip = np.logical_and.reduce(limit > low, axis=1).tolist()
        # A skip leaves every real row a finite least value, so +inf is
        # never a row's argmin.  The argmin runs over the whole buffer, which
        # is contiguous (numpy copies a column span first), and columns that
        # hold +inf from the block before are not filled again.
        for k, (operand, out) in enumerate(zip(operands, outs)):
            if not skip[k]:
                if k != first:
                    np.matmul(block, operand, out=out)
            elif not filled[k]:
                out.fill(np.inf)
        filled = skip
        values.argmin(axis=1, out=best[row:row + _GRID_BLOCK])
    return best[:rows]


def _evaluate(x: np.ndarray, f: np.ndarray, w: np.ndarray, n_max: int) -> np.ndarray:
    """What the refinement needs of the model at points x = (q, nbar) of
    shape (2, m), for the frequency and weight columns f, w of shape
    (bins, m): the rows (objective, half gradient, J^T W J as h00, h01,
    h11, rho) of a (7, m) array, with J the model's Jacobian and rho the
    objective's rounding floor (see above _STEP_TOL).

    One (8, bins, m) buffer is the whole working set: the model table
    fills slots 1..4, P on 1, dP/dq on 2 and dP/dnbar on 3 (4 is the
    table's scratch), and those turn into the eight terms of every bin in
    place, each on the slot of its row.  Each slot is one contiguous
    (bins, m) block, so the elementwise products run over contiguous
    memory.  One pass of in-order adds over bins 0..n_max sums all eight
    terms; the overflow bin's terms are added last, once its model error
    (the sum of the others' plus (n_max + 1) eps) is known."""
    terms = np.empty((8, n_max + 2, x.shape[1]))
    _fock_table(x[0], x[1], n_max, out=terms[1:5])
    probs, resid, model_err = terms[1], terms[0], terms[7, :n_max + 1]
    # per-bin model errors (n + 1)(n + 2)/2 P_n, in units of eps
    n = np.arange(n_max + 1.0)[:, None]
    np.multiply(0.5 * (n + 1.0) * (n + 2.0), probs[:n_max + 1], out=model_err)
    np.subtract(probs, f, out=resid)
    # with P spent, w dP/dnbar (on slot 6) and w dP/dq (on slot 1) give
    # the J^T W J terms (h00, h01, h11 on slots 3..5), then the half
    # gradient (slots 1 and 2)
    wj0, jac0, jac1, wj1 = terms[1], terms[2], terms[3], terms[6]
    np.multiply(w, jac1, out=wj1)
    np.multiply(wj1, jac1, out=terms[5])
    np.multiply(wj1, jac0, out=terms[4])
    np.multiply(w, jac0, out=wj0)
    np.multiply(jac0, wj0, out=terms[3])
    np.multiply(wj1, resid, out=terms[2])
    wj0 *= resid
    np.abs(resid, out=terms[6])
    terms[6] *= w
    terms[6, :n_max + 1] *= model_err
    np.square(resid, out=resid)
    resid *= w
    rows = _bin_sum(terms[:, :n_max + 1].swapaxes(0, 1))
    terms[6, n_max + 1] *= rows[7] + (n_max + 1.0)
    rows[:7] += terms[:7, n_max + 1]
    rows[6] = _FLOOR_FACTOR * np.finfo(float).eps * ((n_max + 2) * rows[0] + 2.0 * rows[6])
    return rows[:7]


def _covariance(x: np.ndarray, w: np.ndarray, n) -> np.ndarray:
    """The sandwich covariance V = H^-1 J^T W Sigma W J H^-1 of the fitted
    (q, nbar), linearised at points x = (q, nbar) of shape (2, m), for
    weight columns w of shape (bins, m) held fixed and n shots per column:
    the spread of the weighted least-squares estimate when its counts are
    multinomial from the model's P, Sigma = (diag P - P P^T) / n, with J the
    model's Jacobian and H = J^T W J.  Returns the rows (v00, v01, v11) of
    a (3, m) array.  P and J come from one _fock_table call, and every sum
    over the bins adds them in order (_bin_sum), so a column's V does not
    depend on the columns beside it.  Where H is singular or a term
    overflows V is not finite; where P puts all its mass in one bin (the
    vacuum) V is 0."""
    probs, jac = _fock_table(x[0], x[1], w.shape[0] - 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wj = w[:, None] * jac
        wjp = wj * probs[:, None]
        # per bin: the entries of P_n (w J)(w J)^T and of w J J^T, then P_n w J
        terms = np.stack((wjp[:, 0] * wj[:, 0], wjp[:, 0] * wj[:, 1], wjp[:, 1] * wj[:, 1],
                          wj[:, 0] * jac[:, 0], wj[:, 0] * jac[:, 1], wj[:, 1] * jac[:, 1],
                          wjp[:, 0], wjp[:, 1]), axis=1)
        sums = _bin_sum(terms)
        mean = sums[6:8]
        meat = sums[0:3] - np.stack((mean[0] * mean[0], mean[0] * mean[1], mean[1] * mean[1]))
        h = sums[3:6]
        det = h[0] * h[2] - h[1] * h[1]
        inv = np.stack((h[2], -h[1], h[0])) / det
        # (H^-1 M) H^-1, both symmetric
        am = np.stack((inv[0] * meat[0] + inv[1] * meat[1], inv[0] * meat[1] + inv[1] * meat[2],
                       inv[1] * meat[0] + inv[2] * meat[1], inv[1] * meat[1] + inv[2] * meat[2]))
        return np.stack((am[0] * inv[0] + am[1] * inv[1], am[0] * inv[1] + am[1] * inv[2],
                         am[2] * inv[1] + am[3] * inv[2])) / n


# The symmetric 2x2 matrices of the refinement (J^T W J, S) are three rows
# per column, (m00, m01, m11); this is the identity.
_IDENTITY = np.array([1.0, 0.0, 1.0])[:, None]


def _dot(a, b):
    """a[0] b[0] + a[1] b[1], of two (2, ...) arrays, by one product."""
    products = a * b
    return products[0] + products[1]


def _gauss_newton(x, at):
    """The undamped Gauss-Newton system H step = -g of every column at x,
    from _evaluate's rows ``at`` there, over the free coordinates: a
    coordinate on a face whose gradient points out of the box is held
    fixed.  Returns the free coordinates (2, m), which of H's rows (h00,
    h01, h11) they keep, H with a held coordinate's entries replaced by the
    identity's, the right-hand side (-g, 0 where held) and H's determinant."""
    grad, h = at[1:3], at[3:6]
    free = ~(((x <= 0.0) & (grad > 0.0)) | ((x >= _UPPER) & (grad < 0.0)))
    keep = np.stack((free[0], free[0] & free[1], free[1]))
    gn = np.where(keep, h, _IDENTITY)
    b = np.where(free, -grad, 0.0)
    return free, keep, gn, b, gn[0] * gn[2] - gn[1] * gn[1]


def _trial_step(x, at, lam, sec, aug):
    """One projected Levenberg-Marquardt trial of every column at x, from
    _evaluate's rows ``at`` there, the damping lam, the residual-curvature
    estimate ``sec`` and the columns ``aug`` that choose the augmented
    model: the trial point, the step to it, the undamped Gauss-Newton
    decrease g^T H^-1 g over the free coordinates (_gauss_newton) and the
    columns that solved the augmented system.  A held coordinate drops its
    entries of H and S.  Its temporaries are gone before _iterate evaluates
    the trial."""
    h = at[3:6]
    free, keep, gn, b, gn_det = _gauss_newton(x, at)
    gn_gain = np.where(gn_det > 0.0, (gn[2] * b[0] * b[0] - 2.0 * gn[1] * b[0] * b[1]
                                      + gn[0] * b[1] * b[1])
                       / np.where(gn_det > 0.0, gn_det, 1.0), np.inf)
    # H + S where the column chooses it and it is positive definite
    mat = gn + np.where(keep, sec, 0.0)
    use = aug & (mat[0] > 0.0) & (mat[0] * mat[2] - mat[1] * mat[1] > 0.0)
    mat = np.where(use, mat, gn)
    # Marquardt scaling with a floor, so a vanishing column cannot make
    # the damped system singular.
    mat[0::2] += np.where(free, lam * np.maximum(h[0::2], 1e-12 * (h[0] + h[2])), 0.0)
    det = mat[0] * mat[2] - mat[1] * mat[1]
    solvable = det > 0.0
    det = np.where(solvable, det, 1.0)
    step = np.where(solvable, np.stack((mat[2] * b[0] - mat[1] * b[1],
                                        mat[0] * b[1] - mat[1] * b[0])) / det, 0.0)
    trial = np.minimum(np.maximum(x + step, 0.0), _UPPER)
    return trial, trial - x, gn_gain, use


def _iterate(x, at, lam, sec, aug, live, f, w, n_max: int, scale=None) -> np.ndarray:
    """One lock-step iteration of _refine at the points x with _evaluate's
    rows ``at`` there, the damping lam, the curvature estimate ``sec`` and
    the model choice ``aug``: evaluates every column's trial and, where it
    is better and the column is ``live``, moves x and ``at`` to it and
    updates ``sec``.  All five are updated in place.  Returns the columns
    that stop here: by the two rules above _STEP_TOL and, given ``scale``,
    by the scaled rule (see _SE_TOL) after an accepted step.  Its
    temporaries are gone before the next iteration's evaluation."""
    obj, grad, h, rho = at[0], at[1:3], at[3:6], at[6]
    trial, step, gn_gain, use = _trial_step(x, at, lam, sec, aug)
    t_at = _evaluate(trial, f, w, n_max)
    gain = obj - t_at[0]
    better = (gain > 0.0) & live
    small = np.abs(step) <= _STEP_TOL * (np.abs(x) + _STEP_FLOOR)
    done = (small[0] & small[1]) | (~better & (gn_gain <= rho))
    if scale is not None:
        *_, gn, b, det = _gauss_newton(trial, t_at)
        solvable = det > 0.0
        delta = np.stack((gn[2] * b[0] - gn[1] * b[1],
                          gn[0] * b[1] - gn[1] * b[0])) / np.where(solvable, det, 1.0)
        sq = delta * delta
        dist = scale[0] * sq[0] + 2.0 * scale[1] * delta[0] * delta[1] + scale[2] * sq[1]
        done |= better & solvable & (dist <= _SE_TOL * _SE_TOL)
    # each model's predicted decrease for the step taken, from H s and S s
    hs = h[0:2] * step[0] + h[1:3] * step[1]
    ss = sec[0:2] * step[0] + sec[1:3] * step[1]
    curv = _dot(step, ss)
    step_hs = step * hs
    gn_model = -(2.0 * _dot(grad, step) + step_hs[0] + step_hs[1])
    aug_model = gn_model - curv
    # Nielsen's update: the worse the step's model predicted the gain, the
    # less the damping drops; a rejected step raises it.
    model_gain = np.where(use, aug_model, gn_model)
    ratio = 2.0 * np.minimum(gain / np.where(model_gain > 0.0, model_gain, np.inf), 1.0) - 1.0
    shrink = np.maximum(1.0 / 3.0, 1.0 - ratio * ratio * ratio)
    np.minimum(np.where(better, shrink, _LM_FACTOR) * lam, _LM_LAMBDA_MAX, out=lam)
    # the model that predicted this gain better makes the next step
    np.less_equal(np.abs(aug_model - gain), np.abs(gn_model - gain), out=aug)
    # The structured secant update (Dennis, Gay & Welsch 1981): S s = y#
    # after it, with y the change of the half gradient and y# = y - H s the
    # part of it that J^T W J does not explain.  S is first sized down by
    # min(1, |s^T y#| / |s^T S s|); no update unless y^T s > 0.  The update
    # is (r y^T + y r^T - (r^T s / y^T s) y y^T) / y^T s, r = y# - S s.
    y = t_at[1:3] - grad
    ys = _dot(y, step)
    upd = better & (ys > 0.0)
    ysharp = y - hs
    explained = np.abs(_dot(ysharp, step))
    abs_curv = np.abs(curv)
    big = upd & (abs_curv > explained)
    size = np.where(big, explained, 1.0) / np.where(big, abs_curv, 1.0)
    resid = ysharp - size * ss
    ys = np.where(upd, ys, 1.0)
    half = (0.5 / ys) * _dot(resid, step)
    u = np.where(upd, (resid - half * y) / ys, 0.0)
    sec *= size
    sec[0::2] += 2.0 * u * y
    sec[1] += _dot(u, y[::-1])
    np.copyto(x, trial, where=better)
    np.copyto(at, t_at, where=better)
    return done


def _refine(x, f, w, n_max: int, max_iter: int, scale=None):
    """The refinement stage of one row block: projected Levenberg-Marquardt
    on the residuals sqrt(w) (P - f), run in lock-step over the columns,
    from the start points x (2, m) inside the box [0, _UPPER].

    Each iteration (_iterate) solves the damped 2x2 normal equations of
    every unconverged column, J^T W J plus the secant estimate S of the
    residual curvature where the column's safeguards allow it, projects the
    step onto the box and keeps it only if the objective decreases; S
    starts at 0 in every call.  A column stops when its step is below
    _STEP_TOL or a rejected trial's undamped Gauss-Newton decrease is within
    rho, the two rules of the comment above _STEP_TOL.  Given ``scale``,
    the rows (s00, s01, s11) of a (3, m) array of inverse covariances V^-1
    of (q, nbar) (bootstrap replicates pass their point estimate's), a
    column also stops, converged, once the undamped Gauss-Newton step delta
    at the point an accepted step reached has delta^T V^-1 delta <=
    _SE_TOL^2: it is within _SE_TOL standard errors of its optimum.  A
    column whose scale is NaN (V not finite and positive definite) keeps
    the two rules only.  At most max_iter trials are made per column.
    Every test reads only its own column.  The best points are then
    snapped onto the bounds (_snap_to_bounds, never above the start
    objective).

    Returns the final points, their objectives, per-column convergence
    flags (false for a point on the upper face, where the box, not the
    fit, stopped the column) and each column's evaluations: the one at its
    start point, its trials and the snap's.
    """
    m = x.shape[1]
    x = x.copy()
    x_out = x.copy()
    evals = np.ones(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    # _evaluate's rows at each column's current point
    at = _evaluate(x, f, w, n_max)
    start_obj = at[0].copy()
    obj_out = start_obj.copy()
    lam = np.full(m, _LM_LAMBDA0)
    sec = np.zeros((3, m))
    aug = np.ones(m, dtype=bool)
    # The state of the columns not yet compacted away (see _COMPACT), and
    # which of them are still running.
    cols, f_live, w_live = np.arange(m), f, w
    live = np.ones(m, dtype=bool)
    for _ in range(max_iter):
        if cols.size == 0:
            break
        done = _iterate(x, at, lam, sec, aug, live, f_live, w_live, n_max, scale)
        evals[cols] += live
        x_out[:, cols] = x
        obj_out[cols] = at[0]
        converged[cols[done & live]] = True
        live &= ~done
        if _COMPACT * np.count_nonzero(~live) >= live.size:
            scale = None if scale is None else scale[:, live]
            cols, x, f_live, w_live, at, lam, sec, aug, live = (
                a[..., live] for a in (cols, x, f_live, w_live, at, lam, sec, aug, live))
    converged &= ~np.any(x_out >= _UPPER, axis=0)
    evals += _snap_to_bounds(x_out, obj_out, f, w, n_max, start_obj)
    return x_out, obj_out, converged, evals


def _snap_to_bounds(x, obj, f, w, n_max: int, ceiling) -> np.ndarray:
    """Move coordinates below _BOUNDARY_SNAP (within 1e-6 of zero in r and
    nbar) exactly onto the bound, in place, when the objective there is at
    most its value plus the snapped point's rounding floor rho, and at most
    ``ceiling``.  Returns the number of extra evaluations per column."""
    near = (x > 0.0) & (x < _BOUNDARY_SNAP)
    cols = np.flatnonzero(near.any(axis=0))
    extra = np.zeros(x.shape[1], dtype=np.int64)
    if cols.size:
        snapped = np.where(near[:, cols], 0.0, x[:, cols])
        s_obj, rho = _evaluate(snapped, f[:, cols], w[:, cols], n_max)[[0, 6]]
        extra[cols] = 1
        keep = (s_obj <= obj[cols] + rho) & (s_obj <= ceiling[cols])
        x[:, cols[keep]] = snapped[:, keep]
        obj[cols[keep]] = s_obj[keep]
    return extra


def _parameters(x: np.ndarray) -> np.ndarray:
    """The (vq, vp, r, nbar) rows at the fit coordinates x = (q, nbar) of
    shape (2, m), by the model's conversions (to_variances, then
    from_variances) on arrays: the floats that the conversions give each
    column.  The coordinates and then the columns are checked as a whole,
    as the model's state classes check each value."""
    message = "fit coordinates outside the physical domain"
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError(message)
    vq, vp = _variances(_each(math.asinh, np.sqrt(0.5 * x[0])), x[1])
    params = np.stack((vq, vp, *_state_params(vq, vp)))
    r, nbar = params[2:]
    if not (np.all(np.isfinite(params)) and np.all(vq > 0.0) and np.all(vq <= vp)
            and np.all(vq * vp >= 0.25 - HEISENBERG_SLACK)
            and np.all(r >= 0.0) and np.all(nbar >= 0.0)):
        raise ValueError(message)
    return params


_MAX_EVALS = 10_000


def fit_batch(frequencies, weights, *, max_evals: int = _MAX_EVALS,
              start: QuadratureVariances | None = None) -> FitBatch:
    """Fit (vq, vp) to every row of a (B, n_max + 2) frequency matrix (bins
    0..n_max plus overflow, 1 <= n_max <= MAX_FOCK) under the matching
    matrix of positive weights.

    Rows are independent; each is fitted in two stages in the coordinates
    (q, nbar), q = cosh 2r - 1, where the physical constraints vq <= vp and
    vq*vp >= 1/4 become the bounds q >= 0, nbar >= 0:

    1. a grid, 60 points linear in r over [0, 3.5] by 60 points
       log-spaced in (1 + nbar) over [1, 8], whose model probabilities are
       computed once per n_max and reused.  Each row takes the grid point
       of least objective (the first one on ties).  Grid points are scored
       in blocks of consecutive points; a lower bound of the objective over
       a block, from bins 0, 1, 2 and the overflow bin alone, skips the
       blocks that provably cannot hold the winner, which is the full
       grid's;
    2. projected Levenberg-Marquardt from the best grid point with the
       analytic Jacobian, at most ``max_evals`` objective evaluations after
       the one at the grid winner (``max_evals=0`` returns the grid
       winner, not converged).  A row has converged when a step moves
       every coordinate by at most 1e-10 relative or a rejected trial's
       undamped Gauss-Newton decrease is within the objective's rounding
       bound rho (see above _STEP_TOL).  Each iteration solves the
       damped 2x2 normal equations
       (J^T W J + S + lambda diag(J^T W J)) step = -J^T W (P - f),
       with S a safeguarded structured secant estimate of the residual
       curvature (NL2SOL's), where it is positive definite and predicted
       the row's last decrease better than J^T W J alone, else 0.

    With ``start``, every row skips the grid and refines from that state
    instead: rows known to lie near one state, such as bootstrap replicates
    drawn from it, then need no grid search.  The start must lie in the
    search box (q <= 1e12, that is r <= 14.16, and nbar <= 1e6).

    The model depends on r only through cosh 2r, so its gradient in r
    vanishes at r = 0 and a gradient method in r would stall on that bound;
    in q it does not.  A coordinate that ends within 1e-6 of zero (in r or
    nbar) is snapped onto the bound when that raises the objective by at
    most rho.  Each row's objective is never above that of its
    start point, the grid winner or ``start``.  Rows go through both stages
    _REFINE_BLOCK (1024) at a time, which bounds the working memory.
    """
    freqs = _numeric(frequencies, "frequencies").astype(float, copy=False)
    if freqs.ndim != 2 or freqs.shape[1] < 3:
        raise ValueError("frequencies must be a (rows, bins) matrix with >= 3 bins")
    if not np.all(np.isfinite(freqs)):
        raise ValueError("frequencies must be finite")
    wts = _checked_weights(weights, freqs.shape)
    check_int("n_max", freqs.shape[1] - 2, 1, MAX_FOCK)
    check_int("max_evals", max_evals, 0)
    if start is not None:
        if not isinstance(start, QuadratureVariances):
            raise ValueError(f"start: expected QuadratureVariances or None, got {start!r}")
        q, nbar = _fit_coords(start.vq, start.vp)
        if not (q <= _UPPER[0, 0] and nbar <= _UPPER[1, 0]):
            raise ValueError(f"start: {start!r} is outside the search box: its (q, nbar) = "
                             f"({q:g}, {nbar:g}) must be at most ({_UPPER[0, 0]:g}, "
                             f"{_UPPER[1, 0]:g})")
    return _fit_points(freqs, wts, max_evals, None if start is None else (start.vq, start.vp))[1]


def _fit_points(freqs: np.ndarray, wts: np.ndarray, max_evals: int = _MAX_EVALS, start=None,
                scale=None):
    """The fit of fit_batch and the replicate engine, on checked input.
    Each _REFINE_BLOCK of rows is refined (_refine) from its starts: the
    grid winners or, given ``start`` = (vq, vp), floats (one state for all
    rows) or arrays (one per row).  ``scale``, the replicate engine's, is
    _refine's: a (3, rows) array of inverse covariances, one column per
    row.  The grid's evaluations are added to each row's count.  Returns
    the fitted (q, nbar), (2, rows), which the columns do not give back bit
    for bit, and their FitBatch."""
    rows, n_max = freqs.shape[0], freqs.shape[1] - 2
    points = np.empty((2, rows))
    objective = np.empty(rows)
    converged = np.empty(rows, dtype=bool)
    evals = np.empty(rows, dtype=np.int64)
    if start is None:
        grid_x = _model_grid(n_max)[0]
    else:
        x0 = np.broadcast_to(np.array(_fit_coords(*start)).reshape(2, -1), (2, rows))
    for first in range(0, rows, _REFINE_BLOCK):
        b = slice(first, first + _REFINE_BLOCK)
        x = grid_x[:, _grid_winners(freqs[b], wts[b])] if start is None else x0[:, b]
        points[:, b], objective[b], converged[b], evals[b] = _refine(
            x, freqs[b].T, wts[b].T, n_max, max_evals, None if scale is None else scale[:, b])
    if start is None:
        evals += grid_x.shape[1]
    return points, FitBatch(*_parameters(points), objective, converged, evals)


def fit_frequencies(frequencies, weights, *, max_evals: int = _MAX_EVALS) -> FitResult:
    """Fit (vq, vp) to one frequency vector (bins 0..n_max plus overflow)
    under one weight per bin: fit_batch on a batch of one.  The returned
    point is never worse than the best grid point, and non-convergence is
    reported through FitResult.converged."""
    freqs = _numeric(frequencies, "frequencies").astype(float, copy=False)
    if freqs.ndim != 1 or freqs.shape[0] < 3:
        raise ValueError("frequencies must be a 1-D vector with >= 3 bins")
    wts = _checked_weights(weights, freqs.shape)
    return fit_batch(freqs[None, :], wts[None], max_evals=max_evals)[0]


def fit(h: FockHistogram, weights) -> FitResult:
    """Constrained weighted least-squares fit of a count histogram under one
    weight per bin, as fit_frequencies does it.

    Non-convergence is reported through FitResult.converged, never
    silently.
    """
    return fit_frequencies(h.frequencies, weights)
