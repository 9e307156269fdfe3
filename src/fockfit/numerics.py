"""Special functions backing the Fock-distribution model and the
bias-corrected bootstrap: a scaled Legendre recurrence that stays real for
squeezed states (optionally carrying derivatives), plus the standard normal
CDF and quantile.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from ._io import check_int

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
    check_int("n_max", n_max, 0)
    c_arr, u_arr = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(u, dtype=float))
    return _legendre_jet(c_arr[None], u_arr[None], n_max)[:, 0]


# Bytes of coefficient jets formed per call: where they fit, the jets of
# several steps are formed by one call each for u and c, which saves calls
# at a few columns; wider blocks form each step's on its own, by a multiply
# with a float, which numpy runs faster than one with a broadcast array.
_COEF_BYTES = 1 << 13


@lru_cache(maxsize=None)
def _step_factors(n_max: int):
    """The recurrence's factors (-b_k, a_k) = (-k / (k + 1), (2k + 1) / (k + 1))
    of steps k = 1 .. n_max - 1: a tuple of float pairs and the read-only
    (2, n_max - 1) array of the same floats."""
    pairs = tuple((-k / (k + 1.0), (2.0 * k + 1.0) / (k + 1.0)) for k in range(1, n_max))
    table = np.array(pairs).reshape(-1, 2).T
    table.flags.writeable = False
    return pairs, table


def _coefficient_jets(c, u, n_max: int):
    """Yield, for steps k = 1 .. n_max - 1 of _legendre_jet's recurrence,
    the coefficient jets (-b_k u, a_k c) as the views (values, tangents) of
    one (2, 1 + t, ...) array: (2, 1, ...) and (2, t, ...).  Each is valid
    until the next is yielded."""
    pairs, table = _step_factors(n_max)
    per_call = min(n_max - 1, _COEF_BYTES // (2 * c.nbytes))
    if per_call <= 1:
        coef = np.empty((2,) + c.shape)
        views = coef[:, :1], coef[:, 1:]
        for b, a in pairs:
            np.multiply(b, u, out=coef[0])
            np.multiply(a, c, out=coef[1])
            yield views
        return
    coefs = np.empty((per_call, 2) + c.shape)
    table = table.reshape((2, -1) + (1,) * c.ndim)
    for first in range(0, n_max - 1, per_call):
        chunk = coefs[:n_max - 1 - first]
        np.multiply(table[0, first:first + per_call], u, out=chunk[:, 0])
        np.multiply(table[1, first:first + per_call], c, out=chunk[:, 1])
        yield from zip(chunk[:, :, :1], chunk[:, :, 1:])


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
    returned.  Callers pass an integer ``n_max`` >= 0; it is not checked here.
    """
    if out is None:
        out = np.empty((n_max + 1,) + c.shape)
    out[0, 0] = 1.0
    out[0, 1:] = 0.0
    if n_max == 0:
        return out
    out[1] = c
    # Step k combines the rows (G_{k-1}, G_k) = out[k-1:k+1] with the
    # coefficients (-b_k u, a_k c): their values times both jets, plus
    # their derivatives times both values.
    terms = np.empty((2,) + c.shape)
    first_terms, second_terms, tangent_terms = terms[0], terms[1], terms[:, 1:]
    extra = np.empty(tangent_terms.shape) if c.shape[0] > 1 else None
    values = out[:, :1]
    for k, (coef, coef_tangents) in enumerate(_coefficient_jets(c, u, n_max), 1):
        np.multiply(coef, out[k - 1:k + 1], out=terms)
        if extra is not None:
            tangent_terms += np.multiply(coef_tangents, values[k - 1:k + 1], out=extra)
        np.add(first_terms, second_terms, out=out[k + 1])
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
