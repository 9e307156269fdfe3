"""Special functions backing the Fock-distribution model and the
bias-corrected bootstrap: a scaled Legendre recurrence that stays real for
squeezed states (optionally carrying derivatives), plus the standard normal
CDF and quantile.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = ["scaled_legendre", "std_normal_cdf", "std_normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def scaled_legendre(c, u, n_max: int) -> np.ndarray:
    """Evaluate G_n(c, u) = u**(n/2) * Q_n(c / sqrt(u)) for n = 0 .. n_max.

    Q_n is the Legendre polynomial of order n.  Q_n contains only powers
    x**(n - 2j), so every G_n is a polynomial in (c, u) and therefore real
    even when u < 0 -- the regime produced by squeezed states, where the
    unscaled form would need complex intermediates.

    The sequence follows the three-term recurrence

        G_0 = 1,   G_1 = c,
        (k + 1) G_{k+1} = (2k + 1) c G_k - k u G_{k-1}.

    ``c`` and ``u`` may be scalars or broadcastable arrays; the result has
    the order n on its leading axis.
    """
    c_arr, u_arr = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(u, dtype=float))
    return _legendre_jet(c_arr[None], u_arr[None], n_max)[:, 0]


def _legendre_jet(c, u, n_max: int, out=None) -> np.ndarray:
    """G_n of scaled_legendre for n = 0 .. n_max together with their
    directional derivatives, from one pass of the recurrence over jets.

    ``c`` and ``u`` are jets of equal shape (1 + t, ...): the value on row
    0 and the derivatives along t tangent directions on rows 1..t.  The
    product of two jets keeps first order terms only,
    (x * y)[0] = x[0] y[0] and (x * y)[i] = x[0] y[i] + x[i] y[0], so the
    recurrence G_{k+1} = a_k c G_k - b_k u G_{k-1}, a_k = (2k + 1)/(k + 1)
    and b_k = k/(k + 1), carries the derivatives along with the values at
    a few array operations per step.  Returns an (n_max + 1, 1 + t, ...)
    array: G_n on [n, 0], its derivatives on [n, 1:].  Given ``out``, an
    array (or view) of that shape, every entry of it is written and it is
    returned.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if out is None:
        out = np.empty((n_max + 1,) + c.shape)
    out[0, 0] = 1.0
    out[0, 1:] = 0.0
    if n_max == 0:
        return out
    out[1] = c
    # Step k combines the rows (G_{k-1}, G_k) = out[k-1:k+1] with the
    # coefficients (-b_k u, a_k c), formed for that step only: their
    # values times both jets, plus their derivatives times both values.
    tangents = c.shape[0] > 1
    coef = np.empty((2,) + c.shape)
    terms = np.empty((2,) + c.shape)
    extra = np.empty((2, c.shape[0] - 1) + c.shape[1:])
    for k in range(1, n_max):
        pair = out[k - 1:k + 1]
        np.multiply(-k / (k + 1.0), u, out=coef[0])
        np.multiply((2.0 * k + 1.0) / (k + 1.0), c, out=coef[1])
        np.multiply(coef[:, :1], pair, out=terms)
        if tangents:
            terms[:, 1:] += np.multiply(coef[:, 1:], pair[:, :1], out=extra)
        np.add(terms[0], terms[1], out=out[k + 1])
    return out


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 absolute."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1): statistics.NormalDist's
    inv_cdf (Wichura's AS241, accurate to about 1e-16 relative).

    Raises ValueError outside the open interval.  inv_cdf evaluates the
    upper tail at the exact 1 - p and its central branch is odd in p - 1/2,
    so quantile(p) = -quantile(1 - p) holds exactly for p > 1/2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)
