import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fockfit.model import _argument_jets
from fockfit.numerics import (
    _legendre_jet, scaled_legendre, std_normal_cdf, std_normal_quantile,
)


def legendre_direct(n, x):
    """Textbook Legendre polynomial by the explicit binomial sum
    Q_n(x) = 2^-n * sum_k C(n,k)^2 (x-1)^(n-k) (x+1)^k, evaluated in exact
    rational arithmetic so the oracle itself carries no cancellation."""
    x = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) ** 2 * (x - 1) ** (n - k) * (x + 1) ** k
    return float(total / 2 ** n)


def normal_cdf_oracle(z):
    """High-precision Phi(z) from an independent error-function oracle:
    Maclaurin series for small argument, continued fraction for the tail."""
    x = abs(z) / math.sqrt(2.0)
    if x <= 2.0:
        # erf series: 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
        term = x
        total = x
        k = 0
        while abs(term) > 1e-20:
            k += 1
            term *= -x * x * (2 * k - 1) / (k * (2 * k + 1))
            total += term
        half = 0.5 * (2.0 / math.sqrt(math.pi)) * total
        return 0.5 + half if z >= 0 else 0.5 - half
    # erfc continued fraction (backward recurrence):
    # sqrt(pi) e^(x^2) erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    t = 0.0
    for k in range(120, 0, -1):
        t = (0.5 * k) / (x + t)
    tail = math.exp(-x * x) / math.sqrt(math.pi) / (x + t)
    return 1.0 - 0.5 * tail if z >= 0 else 0.5 * tail


def reference_jet(c, u, n_max):
    """_legendre_jet's recurrence one step at a time, as literally as it
    reads: the coefficient jets (-b_k u, a_k c), their values times both
    jets plus their derivatives times both values, then the two added."""
    out = np.empty((n_max + 1,) + c.shape)
    out[0, 0], out[0, 1:] = 1.0, 0.0
    if n_max > 0:
        out[1] = c
    for k in range(1, n_max):
        coef = np.stack((-k / (k + 1.0) * u, (2.0 * k + 1.0) / (k + 1.0) * c))
        terms = coef[:, :1] * out[k - 1:k + 1]
        terms[:, 1:] += coef[:, 1:] * out[k - 1:k + 1, :1]
        out[k + 1] = terms[0] + terms[1]
    return out


class TestLegendreJet:
    """_legendre_jet runs one loop at every width, each step's coefficient
    jets formed for that step only; every entry is the literal
    recurrence's, bit for bit.  The widths span one column to a full
    refinement block, 85 and 86 either side of where an earlier kernel
    switched between two loops."""

    @pytest.mark.parametrize("width", [1, 2, 33, 85, 86, 1024])
    def test_equals_the_literal_recurrence(self, width):
        rng = np.random.default_rng(width)
        q = np.concatenate(([0.0, 1.2], rng.uniform(0.0, 40.0, width)))[:width]
        nbar = np.concatenate(([0.3, 0.0], rng.uniform(0.0, 5.0, width)))[:width]
        c, u, _, _ = _argument_jets(q, nbar)
        for n_max in range(65):
            got, want = _legendre_jet(c, u, n_max), reference_jet(c, u, n_max)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n_max

    def test_values_only(self):
        # one row per jet (no tangents), as scaled_legendre passes them
        c, u = np.array([[0.3, -0.9]]), np.array([[0.5, -2.0]])
        for n_max in range(65):
            got, want = _legendre_jet(c, u, n_max), reference_jet(c, u, n_max)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n_max


class TestScaledLegendre:
    def test_vacuum_case(self):
        np.testing.assert_array_equal(scaled_legendre(0.0, 0.0, 3), [1, 0, 0, 0])

    def test_all_ones_at_unit_argument(self):
        np.testing.assert_array_equal(scaled_legendre(1.0, 1.0, 4), np.ones(5))

    def test_negative_u_stays_real(self):
        # G_2 = (3*c*G_1 - u*G_0) / 2 = -u/2
        np.testing.assert_allclose(scaled_legendre(0.0, -4.0, 2), [1.0, 0.0, 2.0])

    def test_matches_textbook_legendre_at_u_one(self):
        for c in np.linspace(-1.0, 1.0, 21):
            seq = scaled_legendre(c, 1.0, 20)
            for n in range(21):
                assert seq[n] == pytest.approx(legendre_direct(n, c), abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = rng.uniform(-2.0, 2.0)
            u = rng.uniform(-3.0, 3.0)
            s = rng.uniform(0.1, 4.0)
            plain = scaled_legendre(c, u, 12)
            scaled = scaled_legendre(s * c, s * s * u, 12)
            for n in range(13):
                np.testing.assert_allclose(
                    scaled[n], s ** n * plain[n], rtol=1e-10, atol=1e-300
                )

    def test_first_entries_exact(self):
        seq = scaled_legendre(0.37, -1.21, 5)
        assert seq[0] == 1.0
        assert seq[1] == 0.37

    def test_array_arguments_broadcast(self):
        c = np.array([0.0, 1.0])
        seq = scaled_legendre(c, 1.0, 2)
        assert seq.shape == (3, 2)
        np.testing.assert_allclose(seq[:, 1], [1.0, 1.0, 1.0])

    def test_finite_over_model_envelope(self):
        # Arguments as the state model produces them: chat, uhat in (-1, 1)
        # even for variances at the envelope corners, out to n = 64.
        rng = np.random.default_rng(3)
        for _ in range(100):
            vq = 10 ** rng.uniform(-6, 6)
            vp = max(vq, 0.25 / vq) * 10 ** rng.uniform(0, 3)
            big_b = (2 * vq + 1) * (2 * vp + 1)
            chat = (4 * vq * vp - 1) / big_b
            uhat = (2 * vq - 1) * (2 * vp - 1) / big_b
            assert np.all(np.isfinite(scaled_legendre(chat, uhat, 64)))

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            scaled_legendre(0.0, 0.0, -1)
        with pytest.raises(ValueError, match=r"^n_max must be an integer, got 2.5$"):
            scaled_legendre(0.3, 0.1, 2.5)
        with pytest.raises(ValueError, match=r"^n_max must be an integer, got True$"):
            scaled_legendre(0.3, 0.1, True)
        assert scaled_legendre(0.3, 0.1, 0).tolist() == [1.0]
        assert scaled_legendre(0.3, 0.1, np.int64(1)).tolist() == [1.0, 0.3]


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reflection_identity(self):
        for z in np.linspace(-6.0, 6.0, 49):
            assert std_normal_cdf(z) == pytest.approx(
                1.0 - std_normal_cdf(-z), abs=1e-15
            )

    def test_two_sigma_quantile_value(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_against_series_and_fraction_oracle(self):
        for z in np.linspace(-8.0, 8.0, 161):
            assert std_normal_cdf(z) == pytest.approx(
                normal_cdf_oracle(z), abs=1e-12
            )


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_inverts_cdf_by_bisection(self):
        def bisect(p):
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if std_normal_cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for p in (0.025, 0.2, 0.6, 0.975):
            assert std_normal_quantile(p) == pytest.approx(bisect(p), abs=1e-9)

    def test_known_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_antisymmetry(self):
        for p in (1e-6, 0.01, 0.3, 0.49):
            assert std_normal_quantile(p) + std_normal_quantile(1.0 - p) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_exact_antisymmetry_above_one_half(self):
        # For x in (1/2, 1), 1 - x is exact (Sterbenz), so the two sides
        # evaluate the same tail and must agree bit for bit.  Below 1/2,
        # 1 - p can round and they need not.
        ulp = 2.0 ** -53
        xs = np.concatenate((
            np.random.default_rng(3).uniform(0.5, 1.0, 10 ** 4),
            0.5 + ulp * np.arange(1, 1001),
            1.0 - ulp * np.arange(1, 1001),
            1.0 - np.geomspace(0.5, 1e-16, 2000),
        ))
        xs = xs[(xs > 0.5) & (xs < 1.0)]
        assert xs.size >= 10 ** 4
        for x in xs.tolist():
            assert std_normal_quantile(x) == -std_normal_quantile(1.0 - x)

    def test_round_trip(self):
        for p in np.geomspace(1e-8, 0.5, 40):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)
            q = 1.0 - p
            assert std_normal_cdf(std_normal_quantile(q)) == pytest.approx(q, abs=1e-10)

    def test_against_mpmath_root(self):
        # The root x of ncdf(x) = p at 30 digits, by Newton from the float
        # value; above 1/2 the same root solves ncdf(-x) = 1 - p, whose
        # right side is exact in mpmath and keeps the residual's digits.
        lower = np.geomspace(1e-300, 0.5, 120)
        upper = 1.0 - np.geomspace(1e-16, 0.5, 40)
        with mpmath.workdps(30):
            for p in np.concatenate((lower, upper)).tolist():
                q = std_normal_quantile(p)
                x = mpmath.mpf(q)
                for _ in range(6):
                    if p <= 0.5:
                        residual = mpmath.ncdf(x) - p
                    else:
                        residual = (1 - mpmath.mpf(p)) - mpmath.ncdf(-x)
                    step = residual / mpmath.npdf(x)
                    x -= step
                    if abs(step) <= mpmath.mpf(10) ** -28 * max(abs(x), 1):
                        break
                assert abs(q - x) <= 2e-15 * max(abs(x), 1), p

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)
