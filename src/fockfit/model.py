"""Single-mode squeezed thermal states.

Parameterizations (squeezing/temperature vs. quadrature variances), the
Fock-number probability distribution in a numerically stable closed form,
and the fidelity between two zero-mean Gaussian states.

Units: hbar = 1 with vacuum quadrature variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import check_int
from .numerics import _legendre_jet

__all__ = [
    "HEISENBERG_SLACK",
    "MAX_FOCK",
    "SqueezedThermalState",
    "QuadratureVariances",
    "FockDistribution",
    "to_variances",
    "from_variances",
    "fock_probability",
    "fock_distribution",
    "fidelity",
]

# Tolerance below the exact Heisenberg floor vq*vp >= 1/4; absorbs rounding
# when variances come out of exp/log round trips.
HEISENBERG_SLACK = 1e-12

# Largest Fock number the closed-form path is validated for.
MAX_FOCK = 64


@dataclass(frozen=True)
class SqueezedThermalState:
    """Physical parameters of the state: squeezing r and mean thermal
    occupation nbar.

    The convention vq <= vp absorbs the sign of squeezing, so r >= 0.
    """

    r: float
    nbar: float

    def __post_init__(self):
        for name, what in (("r", "squeezing"), ("nbar", "thermal occupation")):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{what} {name} must be >= 0, got {value}")


@dataclass(frozen=True)
class QuadratureVariances:
    """Diagonal of the covariance matrix: (vq, vp) with vq <= vp.

    These are the fit's native coordinates.  Valid instances satisfy the
    Heisenberg bound vq * vp >= 1/4 (up to HEISENBERG_SLACK).
    """

    vq: float
    vp: float

    def __post_init__(self):
        for name, value in (("vq", self.vq), ("vp", self.vp)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.vq > self.vp:
            raise ValueError(f"require vq <= vp, got ({self.vq}, {self.vp})")
        if self.vq * self.vp < 0.25 - HEISENBERG_SLACK:
            raise ValueError(
                f"Heisenberg bound violated: vq*vp = {self.vq * self.vp} < 0.25"
            )


@dataclass(frozen=True)
class FockDistribution:
    """Model probabilities P(0..n_max) plus the aggregate overflow bin for
    every Fock number above n_max.  Entries sum to 1."""

    n_max: int
    probs: tuple[float, ...]
    overflow: float

    def __post_init__(self):
        check_int("n_max", self.n_max, 0)
        if len(self.probs) != self.n_max + 1:
            raise ValueError("probs must have n_max + 1 entries")
        for name, p in [("probs", p) for p in self.probs] + [("overflow", self.overflow)]:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if abs(sum(self.probs) + self.overflow - 1.0) > 1e-12:
            raise ValueError("probabilities and overflow must sum to 1")

    @property
    def all_probs(self) -> np.ndarray:
        """Probabilities for all n_max + 2 measurement categories."""
        return np.array(self.probs + (self.overflow,))


def _each(fn, x):
    """The math function fn of a float, or of every entry of an array:
    numpy's exp, log and asinh can differ from math's in the last bit, so
    every conversion takes them from math."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.tolist())), dtype=float).reshape(x.shape)
    return fn(x)


def _variances(r, nbar):
    """to_variances on floats or arrays, unchecked."""
    half = 0.5 * (2.0 * nbar + 1.0)
    return half * _each(math.exp, -2.0 * r), half * _each(math.exp, 2.0 * r)


def _state_params(vq, vp):
    """from_variances on floats or arrays, unchecked: numpy floats."""
    return (np.maximum(0.25 * _each(math.log, vp / vq), 0.0),
            np.maximum(np.sqrt(vq * vp) - 0.5, 0.0))


def to_variances(state: SqueezedThermalState) -> QuadratureVariances:
    """Quadrature variances of a squeezed thermal state:

    vq = (2 nbar + 1) exp(-2r) / 2,   vp = (2 nbar + 1) exp(+2r) / 2.
    """
    return QuadratureVariances(*_variances(state.r, state.nbar))


def from_variances(v: QuadratureVariances) -> SqueezedThermalState:
    """Invert to_variances: r = ln(vp/vq)/4 and nbar = sqrt(vq*vp) - 1/2.

    Values are clamped at the physical boundary so that rounding noise in a
    state sitting exactly on r = 0 or nbar = 0 cannot produce a negative
    parameter.
    """
    return SqueezedThermalState(*map(float, _state_params(v.vq, v.vp)))


def _fit_coords(vq, vp):
    """The fit's coordinates (q, nbar), q = cosh 2r - 1, of floats or arrays
    vq, vp: q = (vq + vp) / (2 sqrt(vq vp)) - 1 and nbar = sqrt(vq vp) - 1/2,
    clamped at the physical boundary like from_variances."""
    h = np.sqrt(vq * vp)
    return np.maximum((vq + vp) / (2.0 * h) - 1.0, 0.0), np.maximum(h - 0.5, 0.0)


# Rows of at most this many entries are summed by np.add.accumulate.
_ACCUMULATE_ROW = 128


def _bin_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (bin) axis, adding the bins in order: the adds
    of np.add.accumulate(a, axis=0)[-1], in one call.  numpy's reductions
    switch to pairwise summation along their inner loop, so np.sum of a
    single column would round otherwise, and how a row's bins are added
    would depend on how many columns share the array.  Rows of at most
    _ACCUMULATE_ROW entries take the accumulation itself.  Wider rows whose
    last axis is contiguous are reduced from -0.0 (x + -0.0 is x, bit for
    bit): that axis, not the bins, is then numpy's inner loop, so each
    entry's bins are added in order, and no partial sums are written."""
    if a[0].size <= _ACCUMULATE_ROW or a.strides[-1] != a.itemsize:
        return np.add.accumulate(a, axis=0)[-1]
    return np.add.reduce(a, axis=0, initial=-0.0)


def _argument_jets(q, nbar):
    """The jets (value, d/dq, d/dnbar) of _fock_table's Legendre arguments
    chat and uhat at (q, nbar), as two (3, ...) arrays, with P(0) and
    (dP(0)/dq, dP(0)/dnbar) / P(0)."""
    two_h, nbar_1 = 2.0 * nbar + 1.0, nbar + 1.0
    two_h2, four_nbar, four_q = 2.0 * two_h, 4.0 * nbar, 4.0 * q
    two_h2_q = two_h2 * q
    big_b = 4.0 * nbar_1 ** 2 + two_h2_q
    p0 = 2.0 / np.sqrt(big_b)
    # value and d/dq, d/dnbar of B, and those of B*chat and B*uhat less
    # the (chat, uhat) dB terms, which come from one product
    db = np.empty((2,) + big_b.shape)
    db[0] = two_h2
    db[1] = 8.0 * nbar_1 + four_q
    jets = np.empty((2, 3) + big_b.shape)
    jets[0, 0] = four_nbar * nbar_1 / big_b
    jets[1, 0] = (four_nbar * nbar - two_h2_q) / big_b
    dterms = jets[:, :1] * db
    jets[0, 1] = -dterms[0, 0]
    jets[0, 2] = 4.0 * two_h - dterms[0, 1]
    jets[1, 1] = -two_h2 - dterms[1, 0]
    jets[1, 2] = 8.0 * nbar - four_q - dterms[1, 1]
    jets[:, 1:] /= big_b
    return jets[0], jets[1], p0, -0.5 * p0 * db / big_b / p0


def _fock_table(q, nbar, n_max: int, out=None):
    """Probabilities of all n_max + 2 measurement categories (Fock numbers
    0..n_max, then the overflow bin) for every state (q[i], nbar[i]),
    q = cosh 2r - 1, as an (n_max + 2, m) array, and their derivatives
    d/dq and d/dnbar as an (n_max + 2, 2, m) array, from one pass of the
    recurrence.  Both are views of one (4, n_max + 2, m) array, ``out`` if
    given (an array or view of that shape): the probabilities on [0] and
    the derivatives on [1:3], adjacent, so that one call scales them all;
    [3] is scratch.

    In these coordinates the closed form is rational and free of exp:

        B = 4 (nbar + 1)^2 + 2 (2 nbar + 1) q,
        P(n) = P(0) G_n(chat, uhat),   P(0) = 2 / sqrt(B),
        chat = 4 nbar (nbar + 1) / B,  uhat = (4 nbar^2 - 2 (2 nbar + 1) q) / B,

    that is, B = (2vq+1)(2vp+1), B chat = 4 vq vp - 1 and
    B uhat = (2vq-1)(2vp-1) rewritten with vq vp = (nbar + 1/2)^2 and
    vq + vp = (2 nbar + 1)(1 + q).  Dividing the Legendre arguments by B
    (homogeneity: G_n(s c, s^2 u) = s^n G_n(c, u)) keeps them in (-1, 1),
    so the recurrence cannot overflow; chat >= 0 exactly, so the parity
    zeros at nbar = 0 come out exactly zero.  The model is smooth in q at
    r = 0, where it is not smooth in r.  Rounding noise below zero is
    clamped, and the overflow bin is 1 minus the partial sum, clamped at 0,
    so each column is a valid multinomial parameter vector.

    Entries clamped from below zero have zero derivative; an entry exactly
    zero keeps its derivative, which is the one-sided derivative into the
    domain where it matters (odd Fock numbers at nbar = 0).
    """
    c_jet, u_jet, p0, dp0_ratio = _argument_jets(np.asarray(q, dtype=float),
                                                 np.asarray(nbar, dtype=float))
    if out is None:
        out = np.empty((4, n_max + 2) + p0.shape)
    # the jet of each bin, its probability and two derivatives, is a
    # column of table, so one pass of in-order adds over the bins gives
    # the overflow bin's value and derivatives
    table, scratch = out[:3], out[3, : n_max + 1]
    jet = _legendre_jet(c_jet, u_jet, n_max, out=table[:, : n_max + 1].swapaxes(0, 1))
    raw, jac = table[0, : n_max + 1], table[1:, : n_max + 1]
    np.multiply(p0, table[:, : n_max + 1], out=table[:, : n_max + 1])
    # d(p0 G_n) = dp0 G_n + p0 dG_n, with G_n = raw / p0
    for d, ratio in enumerate(dp0_ratio):
        jac[d] += np.multiply(ratio, raw, out=scratch)
    jac *= np.greater_equal(raw, 0.0, out=scratch)
    np.maximum(raw, 0.0, out=raw)
    sums = _bin_sum(jet)
    tail = 1.0 - sums[0]
    table[0, n_max + 1] = np.maximum(tail, 0.0)
    table[1:, n_max + 1] = np.where(tail >= 0.0, -sums[1:], 0.0)
    return table[0], table[1:].swapaxes(0, 1)


def fock_probability(v: QuadratureVariances, n: int) -> float:
    """Probability of measuring Fock number n in the state with variances v.

    One entry of fock_distribution's closed form.  Exact for thermal states
    (nbar**n / (nbar+1)**(n+1)) and reproduces the parity zeros of squeezed
    vacuum.
    """
    check_int("n", n, 0, MAX_FOCK)
    q, nbar = _fit_coords(v.vq, v.vp)
    return float(_fock_table(q, nbar, max(n, 1))[0][n])


def fock_distribution(v: QuadratureVariances, n_max: int = 20) -> FockDistribution:
    """Model distribution over the n_max + 2 measurement categories
    (Fock numbers 0..n_max plus one overflow bin for everything above)."""
    check_int("n_max", n_max, 1, MAX_FOCK)
    q, nbar = _fit_coords(v.vq, v.vp)
    all_probs = _fock_table(q, nbar, n_max)[0].tolist()
    return FockDistribution(n_max, tuple(all_probs[:-1]), all_probs[-1])


def fidelity(a: QuadratureVariances, b: QuadratureVariances) -> float:
    """Fidelity between two zero-mean single-mode Gaussian states.

    For diagonal covariances the closed form reduces to

        Xi  = (vq1 + vq2)(vp1 + vp2)
        Lam = 4 (vq1*vp1 - 1/4)(vq2*vp2 - 1/4)
        F   = (sqrt(Xi + Lam) - sqrt(Lam))**-1
            = (sqrt(Xi + Lam) + sqrt(Lam)) / Xi,

    where the rationalized last form is branch- and cancellation-free.
    Returns a value in (0, 1], exactly 1 for identical states; an ``a``
    with vq, vp columns (a FitBatch) gives one per row.
    """
    xi = (a.vq + b.vq) * (a.vp + b.vp)
    det_a = np.maximum(a.vq * a.vp - 0.25, 0.0)
    det_b = np.maximum(b.vq * b.vp - 0.25, 0.0)
    lam = 4.0 * det_a * det_b
    f = np.minimum((np.sqrt(xi + lam) + np.sqrt(lam)) / xi, 1.0)
    return f if f.ndim else float(f)
