"""Single-mode squeezed thermal states.

Parameterizations (squeezing/temperature vs. quadrature variances), the
Fock-number probability distribution in a numerically stable closed form,
an independent quadrature-based evaluation of the same probabilities for
cross-checks, and the fidelity between two zero-mean Gaussian states.

Units: hbar = 1 with vacuum quadrature variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import lagval

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
    "fock_probability_oracle",
    "fidelity",
]

# Tolerance below the exact Heisenberg floor vq*vp >= 1/4; absorbs rounding
# when variances come out of exp/log round trips.
HEISENBERG_SLACK = 1e-12

# Largest Fock number the closed-form path is validated for.
MAX_FOCK = 64

_ORACLE_MAX_FOCK = 30


@dataclass(frozen=True)
class SqueezedThermalState:
    """Physical parameters of the state: squeezing r and mean thermal
    occupation nbar.

    The convention vq <= vp absorbs the sign of squeezing, so r >= 0.
    """

    r: float
    nbar: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.nbar)):
            raise ValueError("state parameters must be finite")
        if self.r < 0.0:
            raise ValueError(f"squeezing r must be >= 0, got {self.r}")
        if self.nbar < 0.0:
            raise ValueError(f"thermal occupation nbar must be >= 0, got {self.nbar}")


@dataclass(frozen=True)
class QuadratureVariances:
    """Diagonal of the covariance matrix: (vq, vp) with vq <= vp.

    These are the fit's native coordinates.  Valid instances satisfy the
    Heisenberg bound vq * vp >= 1/4 (up to HEISENBERG_SLACK).
    """

    vq: float
    vp: float

    def __post_init__(self):
        if not (math.isfinite(self.vq) and math.isfinite(self.vp)):
            raise ValueError("variances must be finite")
        if self.vq <= 0.0 or self.vp <= 0.0:
            raise ValueError(f"variances must be positive, got ({self.vq}, {self.vp})")
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
        if len(self.probs) != self.n_max + 1:
            raise ValueError("probs must have n_max + 1 entries")
        if any(p < 0.0 or p > 1.0 for p in self.probs) or not 0.0 <= self.overflow <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(self.probs) + self.overflow - 1.0) > 1e-12:
            raise ValueError("probabilities and overflow must sum to 1")

    @property
    def all_probs(self) -> np.ndarray:
        """Probabilities for all n_max + 2 measurement categories."""
        return np.array(self.probs + (self.overflow,))


def to_variances(state: SqueezedThermalState) -> QuadratureVariances:
    """Quadrature variances of a squeezed thermal state:

    vq = (2 nbar + 1) exp(-2r) / 2,   vp = (2 nbar + 1) exp(+2r) / 2.
    """
    half = 0.5 * (2.0 * state.nbar + 1.0)
    return QuadratureVariances(half * math.exp(-2.0 * state.r), half * math.exp(2.0 * state.r))


def from_variances(v: QuadratureVariances) -> SqueezedThermalState:
    """Invert to_variances: r = ln(vp/vq)/4 and nbar = sqrt(vq*vp) - 1/2.

    Values are clamped at the physical boundary so that rounding noise in a
    state sitting exactly on r = 0 or nbar = 0 cannot produce a negative
    parameter.
    """
    r = 0.25 * math.log(v.vp / v.vq)
    nbar = math.sqrt(v.vq * v.vp) - 0.5
    return SqueezedThermalState(max(r, 0.0), max(nbar, 0.0))


def _fit_coords(v: QuadratureVariances) -> tuple[float, float]:
    """The fit's coordinates (q, nbar) of a state, with q = cosh 2r - 1:
    q = (vq + vp) / (2 sqrt(vq vp)) - 1 and nbar = sqrt(vq vp) - 1/2,
    clamped at the physical boundary like from_variances."""
    h = math.sqrt(v.vq * v.vp)
    return max((v.vq + v.vp) / (2.0 * h) - 1.0, 0.0), max(h - 0.5, 0.0)


def _bin_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (bin) axis, adding the bins in order.  numpy's
    sum switches to pairwise summation when that axis is contiguous (a
    single column), so its rounding would depend on how many columns share
    the array; an accumulation never does."""
    return np.add.accumulate(a, axis=0)[-1]


def _legendre_args(q, nbar):
    """(B, chat, uhat, P(0)) of the closed form below at (q, nbar)."""
    big_b = 4.0 * (nbar + 1.0) ** 2 + 2.0 * (2.0 * nbar + 1.0) * q
    chat = 4.0 * nbar * (nbar + 1.0) / big_b
    uhat = (4.0 * nbar * nbar - 2.0 * (2.0 * nbar + 1.0) * q) / big_b
    return big_b, chat, uhat, 2.0 / np.sqrt(big_b)


def _fock_table(q, nbar, n_max: int, jacobian: bool = False):
    """Probabilities of all n_max + 2 measurement categories (Fock numbers
    0..n_max, then the overflow bin) for every state (q[i], nbar[i]),
    q = cosh 2r - 1, as an (n_max + 2, m) array.

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

    With ``jacobian`` the derivatives d/dq and d/dnbar of every entry come
    from the same recurrence pass, returned as a second (n_max + 2, 2, m)
    array.  Entries clamped from below zero have zero derivative; an entry
    exactly zero keeps its derivative, which is the one-sided derivative
    into the domain where it matters (odd Fock numbers at nbar = 0).
    """
    q = np.asarray(q, dtype=float)
    nbar = np.asarray(nbar, dtype=float)
    big_b, chat, uhat, p0 = _legendre_args(q, nbar)
    if jacobian:
        two_h = 2.0 * nbar + 1.0
        # value and d/dq, d/dnbar of B, B*chat and B*uhat, then jets of
        # chat, uhat and the derivatives of P(0)
        db = np.stack((2.0 * two_h, 8.0 * (nbar + 1.0) + 4.0 * q))
        c_jet = np.stack((chat, -chat * db[0], 4.0 * two_h - chat * db[1]))
        u_jet = np.stack((uhat, -2.0 * two_h - uhat * db[0], 8.0 * nbar - 4.0 * q - uhat * db[1]))
        c_jet[1:] /= big_b
        u_jet[1:] /= big_b
        dp0 = -0.5 * p0 * db / big_b
    else:
        c_jet, u_jet = chat[None], uhat[None]
    jet = _legendre_jet(c_jet, u_jet, n_max)
    raw = np.multiply(p0, jet[:, 0], out=jet[:, 0])
    out = np.empty((n_max + 2,) + raw.shape[1:])
    np.maximum(raw, 0.0, out=out[: n_max + 1])
    tail = 1.0 - _bin_sum(out[: n_max + 1])
    out[n_max + 1] = np.maximum(tail, 0.0)
    if not jacobian:
        return out
    # d(p0 G_n) = dp0 G_n + p0 dG_n, with G_n = raw / p0
    jac = np.empty((n_max + 2, 2) + raw.shape[1:])
    np.multiply(p0, jet[:, 1:], out=jac[: n_max + 1])
    jac[: n_max + 1] += (dp0 / p0) * raw[:, None]
    jac[: n_max + 1] *= (raw >= 0.0)[:, None]
    jac[n_max + 1] = np.where(tail >= 0.0, -_bin_sum(jac[: n_max + 1]), 0.0)
    return out, jac


def fock_probability(v: QuadratureVariances, n: int) -> float:
    """Probability of measuring Fock number n in the state with variances v.

    One entry of fock_distribution's closed form.  Exact for thermal states
    (nbar**n / (nbar+1)**(n+1)) and reproduces the parity zeros of squeezed
    vacuum.
    """
    if n < 0 or n > MAX_FOCK:
        raise ValueError(f"n must be in [0, {MAX_FOCK}], got {n}")
    q, nbar = _fit_coords(v)
    return float(_fock_table(q, nbar, max(n, 1))[n])


def fock_distribution(v: QuadratureVariances, n_max: int = 20) -> FockDistribution:
    """Model distribution over the n_max + 2 measurement categories
    (Fock numbers 0..n_max plus one overflow bin for everything above)."""
    if not 1 <= n_max <= MAX_FOCK:
        raise ValueError(f"n_max must be in [1, {MAX_FOCK}], got {n_max}")
    q, nbar = _fit_coords(v)
    all_probs = _fock_table(q, nbar, n_max).tolist()
    return FockDistribution(n_max, tuple(all_probs[:-1]), all_probs[-1])


@lru_cache(maxsize=8)
def _gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray]:
    return hermgauss(m)


def fock_probability_oracle(v: QuadratureVariances, n: int, nodes: int = 48) -> float:
    """Slow, independent evaluation of fock_probability by numerically
    overlapping the state's Wigner function with the Fock state's.

    The Gaussian Wigner function of the state times the Fock Wigner factor
    exp(-q^2 - p^2) is reduced to the Gauss-Hermite weight by rescaling
    each axis, leaving a bivariate polynomial (a Laguerre polynomial of
    2q^2 + 2p^2) that the tensor-product rule integrates exactly once the
    node count exceeds the polynomial degree.
    """
    if n < 0 or n > _ORACLE_MAX_FOCK:
        raise ValueError(f"oracle supports n in [0, {_ORACLE_MAX_FOCK}], got {n}")
    if nodes <= n:
        raise ValueError("need more quadrature nodes than the polynomial degree")
    x, w = _gauss_hermite(nodes)
    sq2 = 2.0 * v.vq / (2.0 * v.vq + 1.0)
    sp2 = 2.0 * v.vp / (2.0 * v.vp + 1.0)
    arg = 2.0 * (sq2 * x[:, None] ** 2 + sp2 * x[None, :] ** 2)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    integral = w @ lagval(arg, coeffs) @ w
    sign = -1.0 if n % 2 else 1.0
    return float(
        sign / (math.pi * math.sqrt(v.vq * v.vp)) * math.sqrt(sq2 * sp2) * integral
    )


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
