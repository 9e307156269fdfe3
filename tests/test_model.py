import math
import re

import mpmath as mp
import numpy as np
import pytest

from fockfit.model import (
    MAX_FOCK,
    FockDistribution,
    QuadratureVariances,
    SqueezedThermalState,
    fidelity,
    fock_distribution,
    fock_probability,
    from_variances,
    to_variances,
)
from fockfit.estimation import _FLOOR_FACTOR
from fockfit.model import _argument_jets, _bin_sum, _fit_coords, _fock_table
from fockfit.numerics import _legendre_jet, scaled_legendre
from wigner_oracle import fock_probability_oracle

VACUUM = QuadratureVariances(0.5, 0.5)


def thermal(nbar):
    return to_variances(SqueezedThermalState(0.0, nbar))


def squeezed_vacuum(r):
    return QuadratureVariances(0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r))


def thermal_prob(nbar, n):
    return nbar ** n / (nbar + 1.0) ** (n + 1)


def random_variances(rng, n=1, vq_lo=0.005, vq_hi=5.0):
    out = []
    for _ in range(n):
        vq = vq_lo * (vq_hi / vq_lo) ** rng.random()
        floor = max(vq, 0.25 / vq)
        out.append(QuadratureVariances(vq, floor * math.exp(rng.uniform(0.0, 3.0))))
    return out


class TestParameterizations:
    def test_vacuum(self):
        assert to_variances(SqueezedThermalState(0, 0)) == VACUUM

    def test_thermal(self):
        assert to_variances(SqueezedThermalState(0, 2)) == QuadratureVariances(2.5, 2.5)

    def test_squeezed_thermal_values(self):
        v = to_variances(SqueezedThermalState(1.0, 0.01))
        assert v.vq == pytest.approx(0.51 * math.exp(-2.0), rel=1e-15)
        assert v.vp == pytest.approx(0.51 * math.exp(2.0), rel=1e-15)
        # reference value for this state's vp, quoted to 3 digits
        assert v.vp == pytest.approx(3.77, abs=5e-3)

    def test_squeezing_beyond_float_range_named(self):
        # exp(2r) is a float up to r = 354.89; above it, a ValueError names
        # r.  From r = 354.2 (at nbar = 0) the state is beyond the model's
        # float range already.
        assert math.isfinite(to_variances(SqueezedThermalState(354.19, 0.0)).vp)
        with pytest.raises(ValueError, match="^state beyond the model's float range: "):
            to_variances(SqueezedThermalState(354.8, 0.0))
        for r in (354.9, 400.0, 1e300):
            message = re.escape(f"r = {r} is too large: exp(2r) overflows a float")
            with pytest.raises(ValueError, match=f"^{message}$"):
                to_variances(SqueezedThermalState(r, 0.0))

    def test_uncertainty_product(self):
        for r, nbar in [(0.0, 0.0), (1.3, 0.2), (2.5, 2.0)]:
            v = to_variances(SqueezedThermalState(r, nbar))
            assert v.vq * v.vp == pytest.approx((2 * nbar + 1) ** 2 / 4, rel=1e-14)

    def test_fit_coords_on_arrays_equal_the_float_path(self):
        # Bit for bit, one state at a time and as arrays, and equal to the
        # formula in math.sqrt and max: r = 0, nbar = 0, r = 3.5, then
        # random states.
        rng = np.random.default_rng(8)
        r = np.concatenate(([0.0, 0.0, 3.5, 3.5, 1.0, 0.0], rng.uniform(0.0, 3.5, 300)))
        nbar = np.concatenate(([0.0, 2.0, 0.0, 7.0, 0.0, 50.0],
                               np.expm1(rng.uniform(0.0, 4.0, 300))))
        states = [to_variances(SqueezedThermalState(*s)) for s in zip(r.tolist(), nbar.tolist())]
        q, nb = _fit_coords(*np.array([(v.vq, v.vp) for v in states]).T)
        for v, coords in zip(states, zip(q.tolist(), nb.tolist())):
            h = math.sqrt(v.vq * v.vp)
            want = (max((v.vq + v.vp) / (2.0 * h) - 1.0, 0.0), max(h - 0.5, 0.0))
            assert _fit_coords(v.vq, v.vp) == coords == want

    def test_from_variances_trivial(self):
        s = from_variances(QuadratureVariances(0.5, 0.5))
        assert (s.r, s.nbar) == (0.0, 0.0)
        s = from_variances(QuadratureVariances(2.5, 2.5))
        assert s.r == 0.0
        assert s.nbar == pytest.approx(2.0, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            v = to_variances(
                SqueezedThermalState(rng.uniform(0, 3), rng.uniform(0, 5))
            )
            back = to_variances(from_variances(v))
            assert back.vq == pytest.approx(v.vq, rel=1e-12)
            assert back.vp == pytest.approx(v.vp, rel=1e-12)

    def test_unphysical_variances_rejected(self):
        with pytest.raises(ValueError):
            QuadratureVariances(0.4, 0.5)
        with pytest.raises(ValueError):
            QuadratureVariances(0.6, 0.5)
        with pytest.raises(ValueError):
            QuadratureVariances(-0.5, 0.5)
        with pytest.raises(ValueError, match="^vq must be finite and positive, got nan$"):
            QuadratureVariances(math.nan, 1.0)
        with pytest.raises(ValueError, match="^vp must be finite and positive, got inf$"):
            QuadratureVariances(0.5, math.inf)
        with pytest.raises(ValueError, match="^vq must be finite and positive, got 0.0$"):
            QuadratureVariances(0.0, 1.0)

    def test_states_beyond_the_models_float_range_rejected(self):
        message = r"^state beyond the model's float range: \(2vq \+ 1\)\(2vp \+ 1\) = "
        for vq, vp, shown in ((1e160, 1e160, "inf"), (2.0 ** -1023, 1.0000001 * 2.0 ** 1021,
                                                       "4.49423e\\+307"),
                              (1.0000001 * 2.0 ** 510, 1.0000001 * 2.0 ** 510, "4.49423e\\+307")):
            with pytest.raises(ValueError, match=rf"{message}{shown} > 2\*\*1022$"):
                QuadratureVariances(vq, vp)
        with pytest.raises(ValueError, match=rf"{message}inf > 2\*\*1022$"):
            to_variances(SqueezedThermalState(0.0, 1e160))

    def test_largest_states_give_finite_probabilities(self):
        # States with (2vq + 1)(2vp + 1) at or just below 2**1022, from the
        # most squeezed to thermal ones: every probability is finite and
        # no step of the Fock table overflows (the test configuration makes
        # RuntimeWarnings errors).
        states = [QuadratureVariances(0.25 * 2.0 ** -1021, 2.0 ** 1021),
                  QuadratureVariances(2.0 ** 510 - 0.5, 2.0 ** 510 - 0.5)]
        for vq in np.logspace(-300, 150, 10):
            vp = 0.5 * (2.0 ** 1022 / (2.0 * vq + 1.0) - 1.0)
            while (2.0 * vq + 1.0) * (2.0 * vp + 1.0) > 2.0 ** 1022:
                vp = np.nextafter(vp, 0.0)
            states.append(QuadratureVariances(float(vq), float(vp)))
        assert max((2.0 * v.vq + 1.0) * (2.0 * v.vp + 1.0) for v in states) == 2.0 ** 1022
        for v in states:
            for n_max in (1, 20, MAX_FOCK):
                d = fock_distribution(v, n_max)
                assert all(math.isfinite(p) for p in d.all_probs)
            assert 0.0 < fidelity(v, VACUUM) <= 1.0 and fidelity(v, v) == 1.0

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            SqueezedThermalState(-0.1, 0.0)
        with pytest.raises(ValueError):
            SqueezedThermalState(0.1, -1e-3)
        with pytest.raises(ValueError, match="^r must be finite, got nan$"):
            SqueezedThermalState(math.nan, 0.0)
        with pytest.raises(ValueError, match="^nbar must be finite, got inf$"):
            SqueezedThermalState(0.0, math.inf)
        with pytest.raises(ValueError, match="^squeezing r must be >= 0, got -0.1$"):
            SqueezedThermalState(-0.1, 0.0)

    @pytest.mark.parametrize("make, args, field, shown", [
        (SqueezedThermalState, (True, 0.0), "r", "True"),
        (SqueezedThermalState, (0.5, False), "nbar", "False"),
        (SqueezedThermalState, ("0.5", 0.0), "r", "'0.5'"),
        (QuadratureVariances, (True, 1.0), "vq", "True"),
        (QuadratureVariances, (0.5, "1"), "vp", "'1'"),
        (QuadratureVariances, (0.5, None), "vp", "None"),
    ])
    def test_non_number_named(self, make, args, field, shown):
        # bools are ints to Python; neither they nor strings are numbers here
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {shown}$"):
            make(*args)
        assert make(*(np.float64(1) for _ in args)) == make(1.0, 1.0)


class TestFockProbability:
    def test_vacuum(self):
        assert fock_probability(VACUUM, 0) == 1.0
        for n in range(1, 10):
            assert fock_probability(VACUUM, n) == 0.0

    @pytest.mark.parametrize("nbar", [0.1, 1.0, 2.0])
    def test_thermal_closed_form(self, nbar):
        v = thermal(nbar)
        for n in range(21):
            assert fock_probability(v, n) == pytest.approx(
                thermal_prob(nbar, n), abs=1e-12
            )

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5])
    def test_squeezed_vacuum_closed_forms(self, r):
        v = squeezed_vacuum(r)
        sech = 1.0 / math.cosh(r)
        assert fock_probability(v, 0) == pytest.approx(sech, abs=1e-12)
        assert fock_probability(v, 2) == pytest.approx(
            0.5 * math.tanh(r) ** 2 * sech, abs=1e-12
        )
        for n in range(1, 20, 2):
            assert fock_probability(v, n) == pytest.approx(0.0, abs=1e-14)

    def test_out_of_range_n(self):
        with pytest.raises(ValueError):
            fock_probability(VACUUM, 65)
        with pytest.raises(ValueError):
            fock_probability(VACUUM, -1)

    def test_integer_n_checked(self):
        for n in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="^n must be an integer"):
                fock_probability(thermal(1.0), n)
        assert fock_probability(thermal(1.0), np.int64(2)) == fock_probability(thermal(1.0), 2)

    def test_envelope_does_not_overflow(self):
        for vq, vp in [(1e-6, 1e6), (1e-6, 0.25e6 + 1), (1e6, 1e6), (1e-6, 1e-6 + 0.25e12)]:
            v = QuadratureVariances(vq, min(vp, 1e6) if vq * min(vp, 1e6) >= 0.25 else vp)
            for n in (0, 1, 32, 64):
                assert math.isfinite(fock_probability(v, n))


class TestFockDistribution:
    def test_vacuum(self):
        d = fock_distribution(VACUUM, 20)
        assert d.probs[0] == 1.0
        assert all(p == 0.0 for p in d.probs[1:])
        assert d.overflow == 0.0

    def test_thermal_overflow_matches_geometric_tail(self):
        d = fock_distribution(thermal(2.0), 20)
        assert d.overflow == pytest.approx((2.0 / 3.0) ** 21, rel=1e-10)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for v in random_variances(rng, 200):
            d = fock_distribution(v, 20)
            assert sum(d.probs) + d.overflow == pytest.approx(1.0, abs=1e-12)

    def test_matches_fock_probability_entrywise(self):
        for v in (thermal(0.7), squeezed_vacuum(1.5), QuadratureVariances(0.3, 4.0)):
            d = fock_distribution(v, 20)
            for n in range(21):
                assert d.probs[n] == fock_probability(v, n)

    def test_normalization_over_64_bins(self):
        rng = np.random.default_rng(11)
        for v in random_variances(rng, 1000):
            total = sum(fock_distribution(v, 64).probs)
            assert total <= 1.0 + 1e-12

    def test_tail_small_for_low_energy_states(self):
        # A 64-bin truncation only captures states whose mean Fock number
        # ((2 nbar + 1) cosh 2r - 1) / 2 sits well below 64; at the corner
        # (r, nbar) = (2.5, 2) the mean is ~185 and the overflow is ~0.55,
        # so the sub-1e-6 tail claim is restricted to this box.
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = to_variances(
                SqueezedThermalState(rng.uniform(0, 1.0), rng.uniform(0, 0.2))
            )
            assert fock_distribution(v, 64).overflow < 1e-6

    def test_bad_n_max(self):
        with pytest.raises(ValueError):
            fock_distribution(VACUUM, 0)
        with pytest.raises(ValueError):
            fock_distribution(VACUUM, 65)

    def test_integer_n_max_checked(self):
        for n_max in (20.0, 20.5, True):
            with pytest.raises(ValueError, match="^n_max must be an integer"):
                fock_distribution(thermal(1.0), n_max)
        assert fock_distribution(thermal(1.0), np.int32(20)) == fock_distribution(thermal(1.0), 20)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FockDistribution(1, (0.5, 0.2), 0.1)
        with pytest.raises(ValueError, match="^probs must have n_max [+] 1 entries$"):
            FockDistribution(2, (0.5, 0.5), 0.0)
        with pytest.raises(ValueError, match=r"^probs must lie in \[0, 1\], got 1.5$"):
            FockDistribution(1, (1.5, -0.5), 0.0)
        with pytest.raises(ValueError, match=r"^probs must lie in \[0, 1\], got nan$"):
            FockDistribution(1, (math.nan, 0.5), 0.5)
        with pytest.raises(ValueError, match=r"^overflow must lie in \[0, 1\], got -0.25$"):
            FockDistribution(1, (0.75, 0.5), -0.25)
        for n_max in (1.0, True):
            with pytest.raises(ValueError, match="^n_max must be an integer"):
                FockDistribution(n_max, (0.5, 0.5), 0.0)


class TestOracleAgreement:
    def test_vacuum(self):
        assert fock_probability_oracle(VACUUM, 0) == pytest.approx(1.0, abs=1e-8)

    def test_thermal_value(self):
        assert fock_probability_oracle(thermal(1.0), 3) == pytest.approx(
            1.0 / 16.0, abs=1e-8
        )

    def test_high_squeezing_state(self):
        v = to_variances(SqueezedThermalState(2.5, 0.01))
        for n in range(21):
            assert fock_probability_oracle(v, n) == pytest.approx(
                fock_probability(v, n), abs=1e-8
            )

    def test_oracle_bounds(self):
        with pytest.raises(ValueError):
            fock_probability_oracle(VACUUM, 31)


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(23)
        for v in random_variances(rng, 50):
            assert fidelity(v, v) == 1.0
        # the closed form rounds to 1 - 2**-52 here
        v = to_variances(SqueezedThermalState(1.171360696103887, 0.01079952680025247))
        assert fidelity(v, v) == 1.0

    @staticmethod
    def _fidelity_oracle(a, b):
        with mp.workdps(50):
            vq1, vp1, vq2, vp2 = map(mp.mpf, (a.vq, a.vp, b.vq, b.vp))
            xi = (vq1 + vq2) * (vp1 + vp2)
            lam = 4 * max(vq1 * vp1 - 0.25, 0) * max(vq2 * vp2 - 0.25, 0)
            return float((mp.sqrt(xi + lam) + mp.sqrt(lam)) / xi)

    def test_overflowing_terms_give_the_true_value(self):
        # Xi = (vq1 + vq2)(vp1 + vp2) overflows a float in the first two
        # pairs, Lam = 4 (vq1 vp1 - 1/4)(vq2 vp2 - 1/4) in the last two and
        # neither in the third; the fidelity is the 50-digit value, with no
        # RuntimeWarning
        pairs = [((300.0, 0.0), (0.0, 1e50)), ((354.0, 0.0), (0.0, 1e150)),
                 ((354.0, 0.0), (353.0, 0.0)), ((0.0, 1e100), (0.0, 2e100)),
                 ((100.0, 1e80), (90.0, 3e80))]
        for s1, s2 in pairs:
            a, b = (to_variances(SqueezedThermalState(*s)) for s in (s1, s2))
            want = self._fidelity_oracle(a, b)
            assert 0.0 < want < 1.0
            assert fidelity(a, b) == pytest.approx(want, rel=1e-14)
            assert fidelity(b, a) == pytest.approx(want, rel=1e-14)
            assert fidelity(a, a) == 1.0
        assert fidelity(to_variances(SqueezedThermalState(300.0, 0.0)),
                        thermal(1e50)) == pytest.approx(7.280654576347254e-156, rel=1e-14)

    def test_columns_equal_one_state_at_a_time(self):
        # a FitBatch-like pair of columns, rows with and without overflow
        states = [to_variances(SqueezedThermalState(r, nbar)) for r, nbar in
                  ((300.0, 0.0), (1.0, 0.1), (0.0, 2e100), (0.0, 1e50), (2.5, 0.01))]
        cols = type("Columns", (), {"vq": np.array([v.vq for v in states]),
                                    "vp": np.array([v.vp for v in states])})
        for b in states:
            got = fidelity(cols, b)
            assert got.tolist() == [fidelity(a, b) for a in states]

    def test_vacuum_vs_thermal(self):
        for nbar in (0.3, 1.0, 4.0):
            assert fidelity(VACUUM, thermal(nbar)) == pytest.approx(
                1.0 / (nbar + 1.0), rel=1e-12
            )

    def test_vacuum_vs_squeezed(self):
        for r in (0.2, 1.0, 2.5):
            assert fidelity(VACUUM, squeezed_vacuum(r)) == pytest.approx(
                1.0 / math.cosh(r), rel=1e-12
            )

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(29)
        pairs = zip(random_variances(rng, 100), random_variances(rng, 100))
        for a, b in pairs:
            f_ab = fidelity(a, b)
            assert 0.0 < f_ab <= 1.0
            assert f_ab == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_monotone_degradation_in_r(self):
        values = [fidelity(VACUUM, squeezed_vacuum(r)) for r in np.arange(0, 3.5, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))


def _convolution_oracle(q, nbar, n_max, digits=50):
    """P(0..n_max) at ``digits`` significant digits from an independent form
    of the closed form: the generating function sum_n P(n) z^n equals
    P(0) (1 - alpha z)^(-1/2) (1 - beta z)^(-1/2) with
    alpha = (2vq-1)/(2vq+1) and beta = (2vp-1)/(2vp+1), so P(n) is the
    convolution of two binomial series.  The double inputs (q, nbar) are
    taken exactly."""
    with mp.workdps(digits):
        q, nbar = mp.mpf(q), mp.mpf(nbar)
        h = nbar + mp.mpf(1) / 2
        e2r = 1 + q + mp.sqrt(q * (q + 2))
        vq, vp = h / e2r, h * e2r
        alpha = (2 * vq - 1) / (2 * vq + 1)
        beta = (2 * vp - 1) / (2 * vp + 1)
        p0 = 2 / mp.sqrt((2 * vq + 1) * (2 * vp + 1))
        binom = [mp.mpf(1)]
        for k in range(1, n_max + 1):
            binom.append(binom[-1] * (2 * k - 1) / (2 * k))
        a = [binom[k] * alpha ** k for k in range(n_max + 1)]
        b = [binom[k] * beta ** k for k in range(n_max + 1)]
        probs = [p0 * mp.fsum(a[k] * b[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
        return probs, 1 - mp.fsum(probs)


class TestHighPrecision:
    """The batched kernel over the whole advertised domain n <= MAX_FOCK,
    beyond the Wigner oracle's n <= 30."""

    R = (0.0, 0.3, 1.0, 1.75, 2.5, 3.5, 5.0)
    NBAR = (0.0, 0.01, 0.2, 1.0, 5.0, 20.0)

    def test_closed_form_matches_50_digit_oracle(self):
        r, nbar = map(np.ravel, np.meshgrid(self.R, self.NBAR, indexing="ij"))
        q = 2.0 * np.sinh(r) ** 2
        table, _ = _fock_table(q, nbar, MAX_FOCK)
        for i in range(q.shape[0]):
            probs, overflow = _convolution_oracle(q[i], nbar[i], MAX_FOCK)
            # a few ulps per entry; the overflow bin sums 65 of them
            for n in range(MAX_FOCK + 1):
                assert abs(table[n, i] - float(probs[n])) <= 2e-15, (r[i], nbar[i], n)
            assert abs(table[MAX_FOCK + 1, i] - float(overflow)) <= 1e-13, (r[i], nbar[i])

    def test_error_within_the_rounding_floor_model(self):
        # estimation._evaluate's rho takes the error of bin n <= n_max as
        # (n + 1)(n + 2)/2 eps P_n, quadratic in n because at the
        # recurrence's double root (q = 0) an error made at order k grows
        # linearly up to order n, and that of the overflow bin as the sum of
        # those plus (n_max + 1) eps; the floor is _FLOOR_FACTOR times this.
        # Thermal and near-thermal states up to nbar = 50, random states and
        # strong squeezing out to the search box's corners (r <= 14, that is
        # q <= 1e12, and nbar <= 1e6), against a 120-digit oracle; the
        # parity zeros at nbar = 0 and P_n below 1e-280, where a relative
        # error means nothing, are skipped.
        nbars = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 33.1, 50.0)
        r = [0.0, 1e-4, 1e-2, 0.1] * len(nbars)
        nbar = [x for x in nbars for _ in range(4)]
        rng = np.random.default_rng(64)
        box_r, box_nbar = np.meshgrid((3.5, 5.0, 7.0, 10.0, 14.0),
                                      (0.0, 0.01, 1.0, 50.0, 1e3, 1e4, 1e6), indexing="ij")
        r = np.concatenate((r, rng.uniform(0.0, 3.5, 60), box_r.ravel()))
        nbar = np.concatenate((nbar, np.expm1(rng.uniform(0.0, math.log1p(50.0), 60)),
                               box_nbar.ravel()))
        q = 2.0 * np.sinh(r) ** 2
        table, _ = _fock_table(q, nbar, MAX_FOCK)
        n = np.arange(MAX_FOCK + 1)
        per_bin = _FLOOR_FACTOR * 0.5 * (n + 1.0) * (n + 2.0) * np.finfo(float).eps
        with mp.workdps(120):
            for i in range(q.shape[0]):
                probs, overflow = _convolution_oracle(q[i], nbar[i], MAX_FOCK, digits=120)
                for k in range(MAX_FOCK + 1):
                    if (nbar[i] == 0.0 and k % 2) or probs[k] < mp.mpf("1e-280"):
                        continue
                    err = abs(mp.mpf(table[k, i]) - probs[k])
                    assert err <= per_bin[k] * probs[k], (r[i], nbar[i], k)
                tail = per_bin @ np.array([float(p) for p in probs]) + _FLOOR_FACTOR * (
                    MAX_FOCK + 1.0) * np.finfo(float).eps
                assert abs(mp.mpf(table[MAX_FOCK + 1, i]) - overflow) <= tail, (r[i], nbar[i])

    def test_raw_negative_mass_bounded(self):
        # The kernel clamps p0 * G_n at zero; over r <= 5, nbar <= 20 the
        # clamp may only hide rounding noise.  The variance form of the same
        # closed form leaves up to -2.8e-17 per state on this grid; the
        # (q, nbar) form, with chat >= 0 exactly, leaves none.
        r = np.linspace(0.0, 5.0, 101)
        nbar = np.concatenate([[0.0], np.geomspace(1e-4, 20.0, 100)])
        rg, ng = map(np.ravel, np.meshgrid(r, nbar, indexing="ij"))
        c_jet, u_jet, p0, _ = _argument_jets(2.0 * np.sinh(rg) ** 2, ng)
        raw = p0 * scaled_legendre(c_jet[0], u_jet[0], MAX_FOCK)
        assert np.minimum(raw, 0.0).sum(axis=0).min() >= -1e-17

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_jacobian_matches_central_differences(self, n_max):
        rng = np.random.default_rng(n_max)
        r = rng.uniform(0.01, 3.0, 12)
        nbar = rng.uniform(0.005, 3.0, 12)
        x = np.stack((2.0 * np.sinh(r) ** 2, nbar))
        _, jac = _fock_table(x[0], x[1], n_max)
        for k in range(2):
            step = np.zeros_like(x)
            step[k] = 1e-6 * (1.0 + x[k])
            up, _ = _fock_table(*(x + step), n_max)
            down, _ = _fock_table(*(x - step), n_max)
            diff = (up - down) / (2.0 * step[k])
            scale = np.abs(jac[:, k]).max(axis=0)
            assert np.all(np.abs(diff - jac[:, k]) <= 1e-6 * scale)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestKernelBuffers:
    """_fock_table(..., out=) and _legendre_jet(..., out=) work in the
    caller's view of a larger buffer, as estimation._evaluate uses them:
    every entry of the view is written (G_0's derivative rows and the
    overflow bin's too), nothing outside it is, and the result is bit for
    bit that of a fresh array.  The buffer starts as NaN, so a slot never
    written would show.  The columns are (0, 0), a thermal state (q = 0),
    squeezed vacuum (nbar = 0), or those and 37 random states."""

    @staticmethod
    def columns(cols):
        rng = np.random.default_rng(8)
        q = np.concatenate(([0.0, 0.0, 1.2], rng.uniform(0.0, 40.0, 37)))
        nbar = np.concatenate(([0.0, 0.3, 0.0], rng.uniform(0.0, 5.0, 37)))
        return q[cols], nbar[cols]

    @pytest.mark.parametrize("n_max", [1, 2, 20, 64])
    @pytest.mark.parametrize("cols", [slice(0, 1), slice(1, 2), slice(2, 3), slice(0, 40)])
    def test_fock_table_out_equals_a_fresh_table(self, n_max, cols):
        q, nbar = self.columns(cols)
        buf = np.full((8, n_max + 2, q.size), np.nan)
        probs, jac = _fock_table(q, nbar, n_max, out=buf[1:5])
        fresh_probs, fresh_jac = _fock_table(q, nbar, n_max)
        assert np.shares_memory(probs, buf) and np.shares_memory(jac, buf)
        assert np.array_equal(bits(probs), bits(fresh_probs))
        assert np.array_equal(bits(jac), bits(fresh_jac))
        assert np.isnan(buf[[0, 5, 6, 7]]).all()

    @pytest.mark.parametrize("n_max", [1, 2, 20, 64])
    @pytest.mark.parametrize("cols", [slice(0, 1), slice(1, 2), slice(2, 3), slice(0, 40)])
    def test_legendre_jet_out_equals_a_fresh_result(self, n_max, cols):
        c, u, _, _ = _argument_jets(*self.columns(cols))
        buf = np.full((8, n_max + 2, c.shape[1]), np.nan)
        view = buf[1:4, :n_max + 1].swapaxes(0, 1)
        assert _legendre_jet(c, u, n_max, out=view) is view
        assert np.array_equal(bits(view), bits(_legendre_jet(c, u, n_max)))
        assert np.isnan(buf[[0, 4, 5, 6, 7]]).all()
        assert np.isnan(buf[:, n_max + 1]).all()


class TestBinSum:
    """_bin_sum adds the bins in order: bit for bit what np.add.accumulate
    gives, whatever the trailing shape."""

    @pytest.mark.parametrize("shape", [(22,), (22, 1), (2, 1), (3, 7), (22, 512),
                                       (21, 2, 5), (66, 2, 1)])
    def test_equals_accumulate(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        got = _bin_sum(a)
        want = np.add.accumulate(a, axis=0)[-1]
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))

    @pytest.mark.parametrize("n_max, width", [(20, 900), (64, 7), (64, 1024), (2, 60)])
    def test_views_of_an_evaluation_buffer(self, n_max, width):
        # the layouts estimation._evaluate sums: every slot of an (8, bins,
        # m) buffer, and the three slots of the model table, bins leading;
        # wide rows take np.add.reduce, which must not sum them pairwise.
        # Zeros of either sign are summed as the in-order adds sum them.
        rng = np.random.default_rng(n_max + width)
        buf = rng.standard_normal((8, n_max + 2, width)) * 10.0 ** rng.integers(-12, 12, width)
        buf[:, :, 0] = -0.0
        buf[1, 1:, 0] = 0.0
        for view in (buf[:, :n_max + 1].swapaxes(0, 1), buf[1:4, :n_max + 1].swapaxes(0, 1)):
            want = np.add.accumulate(view, axis=0)[-1]
            assert np.array_equal(_bin_sum(view).view(np.uint64), want.view(np.uint64))

    def test_input_untouched(self):
        a = np.arange(12.0).reshape(4, 3)
        _bin_sum(a)
        assert np.array_equal(a, np.arange(12.0).reshape(4, 3))
