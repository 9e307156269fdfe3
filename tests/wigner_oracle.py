"""A slow, independent evaluation of fockfit.model.fock_probability for
cross-checks: the overlap of the state's Wigner function with the Fock
state's, by Gauss-Hermite quadrature."""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import lagval

ORACLE_MAX_FOCK = 30


@lru_cache(maxsize=8)
def _gauss_hermite(m: int) -> tuple[np.ndarray, np.ndarray]:
    return hermgauss(m)


def fock_probability_oracle(v, n: int, nodes: int = 48) -> float:
    """Probability of Fock number n in the state with quadrature variances
    v (a QuadratureVariances), by numerically overlapping the state's
    Wigner function with the Fock state's.

    The Gaussian Wigner function of the state times the Fock Wigner factor
    exp(-q^2 - p^2) is reduced to the Gauss-Hermite weight by rescaling
    each axis, leaving a bivariate polynomial (a Laguerre polynomial of
    2q^2 + 2p^2) that the tensor-product rule integrates exactly once the
    node count exceeds the polynomial degree.
    """
    if n < 0 or n > ORACLE_MAX_FOCK:
        raise ValueError(f"oracle supports n in [0, {ORACLE_MAX_FOCK}], got {n}")
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
