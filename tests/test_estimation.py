import math
import pickle
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockfit.estimation import (
    MAX_SHOTS,
    WEIGHT_SCHEMES,
    FitBatch,
    FitResult,
    FockHistogram,
    PriorShape,
    fit,
    fit_batch,
    fit_frequencies,
    mle_weights,
    objective,
    posterior_weights,
    uniform_weights,
    weights_for,
)
from fockfit.model import (
    HEISENBERG_SLACK,
    QuadratureVariances,
    SqueezedThermalState,
    fock_distribution,
    from_variances,
    to_variances,
)
from fockfit import estimation
from fockfit.estimation import (
    _FLOOR_FACTOR, _GRID_BLOCK, _GRID_GEMM_SIZE, _MAX_EVALS, _REFINE_BLOCK, _UPPER, _covariance,
    _evaluate, _fit_points, _grid_winners, _iterate, _model_grid, _parameters, _refine,
    _snap_to_bounds, _trial_step,
)
from fockfit.model import _bin_sum, _fit_coords, _fock_table
from fockfit.sampling import SeedSpec, _sample_blocks, sample_histogram


def histogram_from_counts(counts, n_max=20):
    full = list(counts) + [0] * (n_max + 2 - len(counts))
    return FockHistogram(tuple(full[:-1]), full[-1], sum(full))


def vacuum_histogram(n=100, n_max=20):
    return histogram_from_counts([n], n_max)


def exact_frequencies(state, n_max=20):
    d = fock_distribution(to_variances(state), n_max)
    return np.array(d.probs + (d.overflow,))


class TestHistogram:
    def test_basic_accessors(self):
        h = histogram_from_counts([90, 8, 2])
        assert h.n_max == 20
        assert h.total == 100
        assert h.frequencies[0] == 0.9
        assert h.frequencies.shape == (22,)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FockHistogram((5, 3), 1, 10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FockHistogram((5, -1), 0, 4)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ValueError, match="^counts: "):
            FockHistogram((5,), 0, 5)

    def test_integer_fields_checked(self):
        for counts, overflow, total, name in (
                ((1.5, 2.5), 0, 4, "counts"), ((True, 2), 0, 3, "counts"),
                ((1.0, 2), 0, 3, "counts"), ((1, 2), 0.0, 3, "overflow_count"),
                ((1, 2), False, 3, "overflow_count"), ((1, 2), 0, 3.0, "total"),
                ((1, 0), 0, True, "total")):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                FockHistogram(counts, overflow, total)
        h = FockHistogram((np.int64(1), np.uint32(2)), np.int16(0), np.int64(3))
        assert np.array_equal(h.frequencies, FockHistogram((1, 2), 0, 3).frequencies)

    def test_numpy_counts_cannot_wrap(self):
        # summed in int64, 2 (2**63 - 1) + 3 wraps around to 1
        with pytest.raises(ValueError, match="^counts plus overflow must sum to total$"):
            FockHistogram((np.int64(MAX_SHOTS),) * 2, np.int64(3), 1)
        with pytest.raises(ValueError, match="^counts plus overflow must sum to total$"):
            FockHistogram((np.uint64(2 ** 64 - 1), np.uint64(2)), 0, 1)

    def test_total_bounded_by_the_most_shots(self):
        h = FockHistogram((MAX_SHOTS - 1, np.int64(1)), 0, np.uint64(MAX_SHOTS))
        assert h.total == MAX_SHOTS
        for total in (MAX_SHOTS + 1, 10 ** 400):
            with pytest.raises(ValueError, match=rf"^total must be in \[1, {MAX_SHOTS}\], "
                                                 rf"got {total}$"):
                FockHistogram((total - 7, 7), 0, total)


class TestPosteriorWeights:
    def test_zero_count_bin_value(self):
        h = vacuum_histogram(100)
        w = posterior_weights(h, PriorShape(1, 1))
        # Var(p|k=0, N=100) = 101 / (102^2 * 103)
        var = 101.0 / (102 ** 2 * 103)
        assert var == pytest.approx(9.4250e-5, rel=1e-4)
        assert w[1] == pytest.approx(1.0 / var, rel=1e-12)
        assert w[1] == pytest.approx(10610.0, abs=0.5)

    def test_half_count_bin_value(self):
        h = histogram_from_counts([50, 50])
        w = posterior_weights(h, PriorShape(1, 1))
        var = 51.0 * 51.0 / (102 ** 2 * 103)
        assert var == pytest.approx(2.4272e-3, rel=1e-4)
        assert w[0] == pytest.approx(1.0 / var, rel=1e-12)

    def test_symmetry_under_count_reflection(self):
        h = histogram_from_counts([70, 30])
        w = posterior_weights(h, PriorShape(2.5, 2.5))
        assert w[0] == pytest.approx(w[1], rel=1e-12)

    def test_all_finite_for_empty_bins(self):
        h = vacuum_histogram(10)
        w = posterior_weights(h, PriorShape(1, 1))
        assert len(w) == 22
        assert all(math.isfinite(x) and x > 0 for x in w)


class TestMleWeights:
    def test_interior_value(self):
        # Var(f) = k (N - k) / N^3 = 50*50/100^3 = 2.5e-3, weight 400
        h = histogram_from_counts([50, 50])
        w = mle_weights(h)
        assert w[0] == pytest.approx(400.0, rel=1e-12)

    def test_zero_and_full_fallback(self):
        h = vacuum_histogram(100)
        w = mle_weights(h)
        # k -> max(k, 1/2) on the vanishing side: N^3 / (0.5 * N) = 2 N^2
        assert w[0] == pytest.approx(2.0 * 100 ** 2, rel=1e-12)
        assert w[1] == pytest.approx(2.0 * 100 ** 2, rel=1e-12)


class TestUniformWeights:
    def test_all_ones_and_length(self):
        h = vacuum_histogram(7)
        w = uniform_weights(h)
        assert np.array_equal(w, (1.0,) * 22)

    def test_independent_of_counts(self):
        assert np.array_equal(uniform_weights(vacuum_histogram(5)), uniform_weights(
            histogram_from_counts([1, 2, 2])
        ))


class TestWeightArrays:
    """Weights are plain float arrays: a histogram and its row of counts
    plus overflow give the same ones, and fit, fit_frequencies, objective
    and fit_batch take any of them."""

    def test_histogram_and_count_row_agree(self):
        dist = fock_distribution(to_variances(SqueezedThermalState(1.0, 0.05)), 20)
        h = sample_histogram(dist, 2000, SeedSpec(4, 0))
        k = np.array(h.counts + (h.overflow_count,))
        prior = PriorShape(2.0, 0.5)
        rules = [lambda c: posterior_weights(c, prior), mle_weights, uniform_weights,
                 *(lambda c, s=s: weights_for(c, s, prior) for s in WEIGHT_SCHEMES)]
        for rule in rules:
            assert rule(h).shape == (22,)
            assert np.array_equal(rule(h), rule(k))
        v = to_variances(SqueezedThermalState(0.9, 0.1))
        assert fit(h, posterior_weights(k)) == fit(h, posterior_weights(h))
        assert objective(v, h, posterior_weights(k)) == objective(v, h, posterior_weights(h))
        assert fit(h, posterior_weights(h).tolist()) == fit(h, posterior_weights(h))

    def test_count_arrays_match_histograms(self):
        dist = fock_distribution(to_variances(SqueezedThermalState(1.0, 0.05)), 20)
        hists = [sample_histogram(dist, 2000, SeedSpec(4, i)) for i in range(5)]
        counts = np.array([h.counts + (h.overflow_count,) for h in hists])
        for rule in (posterior_weights, mle_weights, uniform_weights):
            matrix = rule(counts)
            assert matrix.shape == counts.shape
            for h, row in zip(hists, matrix):
                assert np.array_equal(row, rule(h))
            # float counts, e.g. expected counts N p_n, take the same path
            np.testing.assert_array_equal(rule(counts.astype(float)), matrix)

    def test_huge_totals_match_exact_arithmetic(self):
        # A bin holding all but 10 of 2**62 or of MAX_SHOTS = 2**63 - 1
        # shots: as floats, N and k_0 are equal, so N + eta - k_0 and N - k_0
        # would be 0.  The histogram, its int64 and uint64 rows and the list
        # of its counts give the same weights, bit for bit.
        for total in (2 ** 62, MAX_SHOTS):
            h = FockHistogram((total - 10, 7), 3, total)
            k = h.counts + (h.overflow_count,)
            exact_total, half = Fraction(total), Fraction(1, 2)

            def posterior(nu, eta):
                s = nu + exact_total + eta
                return [s * s * (s + 1) / ((n + nu) * (exact_total + eta - n)) for n in k]

            rules = [
                (posterior_weights, posterior(1, 1)),
                (lambda c: posterior_weights(c, PriorShape(0.5, 2.0)), posterior(half, 2)),
                (mle_weights, [exact_total ** 3 / (max(n, half) * max(exact_total - n, half))
                               for n in k]),
                (uniform_weights, [1, 1, 1]),
            ]
            for rule, exact in rules:
                want = rule(h)
                assert want.tolist() == pytest.approx([float(x) for x in exact], rel=1e-15)
                for counts in (np.array(k), np.array([k, k], dtype=np.uint64), [list(k)]):
                    got = rule(counts)
                    assert got.dtype == float
                    assert np.array_equal(got, np.broadcast_to(want, got.shape))

    def test_totals_past_the_most_shots_rejected(self):
        # Summed in int64 these rows would wrap.  Rows whose float sum is
        # 2**63 but whose total is at most MAX_SHOTS pass.
        for counts in (np.array([2 ** 62, 2 ** 62, 0]), np.array([[MAX_SHOTS, 1, 0]] * 2),
                       np.array([2 ** 63, 0, 0], dtype=np.uint64),
                       np.array([[5, 1, 1], [2 ** 64 - 1, 1, 0]], dtype=np.uint64),
                       np.array([MAX_SHOTS - 2, 1, 1, 1])):
            for rule in (posterior_weights, mle_weights, uniform_weights):
                with pytest.raises(ValueError, match=r"^integer counts must total less than "
                                                     r"2\*\*63 per row$"):
                    rule(counts)
        assert posterior_weights(np.array([MAX_SHOTS - 2, 1, 1])).shape == (3,)

    def test_python_ints_past_int64_rejected(self):
        # numpy makes a list holding ints past uint64 an object array, which
        # is rejected by name; one holding an int in [2**63, 2**64) a float
        # array, whose entries are then float counts, as numpy rounds them
        big = 2 ** 70
        for rule in (posterior_weights, mle_weights, uniform_weights):
            for counts in ([[big - 10, 7, 3]], [[np.int64(2 ** 62), 2 ** 64, np.uint8(1)]]):
                with pytest.raises(ValueError, match="^counts must be integers or floats, "
                                                     "got object entries$"):
                    rule(counts)
            np.testing.assert_array_equal(rule([[2 ** 63, 7, 3]]),
                                          rule(np.array([[2.0 ** 63, 7.0, 3.0]])))
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            posterior_weights([[2 ** 63, -1, 3]])

    @pytest.mark.parametrize("counts, dtype", [
        ([["5", "3", "2"]], "<U1"), ([[True, False, True]], "bool"), ([[5, 3, "2"]], "<U21"),
        ([[2 ** 70, 3, True]], "object"), ([[5 + 0j, 3, 2]], "complex128"),
    ])
    def test_non_numeric_counts_named(self, counts, dtype):
        for rule in (posterior_weights, mle_weights, uniform_weights,
                     lambda c: weights_for(c, "mle", PriorShape(1, 1))):
            with pytest.raises(ValueError, match=f"^counts must be integers or floats, got "
                                                 f"{dtype} entries$"):
                rule(counts)

    def test_uniform_weights_build_no_totals(self):
        # the (900, 22) ones are 158,400 B; N and N - k_n would add 490 kB
        counts = np.random.default_rng(3).integers(0, 1000, size=(900, 22))
        uniform_weights(counts)
        assert _peak_memory(lambda: uniform_weights(counts)) <= 1.1 * 900 * 22 * 8

    def test_bad_count_arrays_rejected(self):
        with pytest.raises(ValueError):
            posterior_weights(np.array([3.0, -1.0, 2.0]))
        with pytest.raises(ValueError):
            mle_weights(np.array([3, 1]))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="^unknown weight scheme 'bogus'$"):
            weights_for(np.array([3, 1, 2]), "bogus", PriorShape(1.0, 1.0))

    CALLS = {
        "fit": lambda h, w: fit(h, w),
        "fit_frequencies": lambda h, w: fit_frequencies(h.frequencies, w),
        "objective": lambda h, w: objective(QuadratureVariances(0.5, 0.5), h, w),
        "fit_batch": lambda h, w: fit_batch(h.frequencies[None], np.asarray(w)[None]),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("length", [5, 21, 23])
    def test_wrong_length_rejected(self, call, length):
        with pytest.raises(ValueError, match="^expected weights of shape"):
            self.CALLS[call](vacuum_histogram(100), np.ones(length))

    @pytest.mark.parametrize("call", ["fit", "fit_frequencies", "objective"])
    def test_wrong_length_names_the_row_shapes(self, call):
        with pytest.raises(ValueError) as exc:
            self.CALLS[call](vacuum_histogram(100), np.ones(5))
        assert str(exc.value) == "expected weights of shape (22,), got (5,)"

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [["1"] * 22, [True] * 22, [1] * 21 + ["1"],
                                     [Fraction(1)] * 22])
    def test_non_numeric_weights_named(self, call, bad):
        with pytest.raises(ValueError, match="^weights must be integers or floats, got "):
            self.CALLS[call](vacuum_histogram(100), bad)

    @pytest.mark.parametrize("call", ["fit_frequencies", "fit_batch"])
    @pytest.mark.parametrize("bad", [["0.5", "0.3", "0.2"], [True, False, False],
                                     np.array([0.5, 0.3, 0.2], dtype=object)])
    def test_non_numeric_frequencies_named(self, call, bad):
        fits = {"fit_frequencies": lambda: fit_frequencies(bad, [1, 1, 1]),
                "fit_batch": lambda: fit_batch([bad], [[1, 1, 1]])}
        with pytest.raises(ValueError, match="^frequencies must be integers or floats, got "):
            fits[call]()

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_nonpositive_or_nonfinite_entry_rejected(self, call, bad):
        w = np.ones(22)
        w[3] = bad
        with pytest.raises(ValueError, match="^all weights must be finite and positive$"):
            self.CALLS[call](vacuum_histogram(100), w)


class TestPriorShape:
    @pytest.mark.parametrize("nu, eta, field", [
        (math.inf, 1.0, "nu"), (math.nan, 1.0, "nu"), (0.0, 1.0, "nu"), (-1.0, 1.0, "nu"),
        (1.0, math.inf, "eta"), (1.0, math.nan, "eta"), (1.0, 0.0, "eta"),
    ])
    def test_nonpositive_or_nonfinite_shape_named(self, nu, eta, field):
        with pytest.raises(ValueError, match=f"^{field}: expected a finite number > 0, got "):
            PriorShape(nu, eta)

    @pytest.mark.parametrize("nu, eta, field, shown", [
        (True, 1.0, "nu", "True"), ("1", 1.0, "nu", "'1'"), (1.0, True, "eta", "True"),
        (1.0, None, "eta", "None"),
    ])
    def test_non_number_shape_named(self, nu, eta, field, shown):
        with pytest.raises(ValueError, match=f"^{field}: expected a finite number > 0, "
                                             f"got {shown}$"):
            PriorShape(nu, eta)
        assert PriorShape(np.float32(2.0), 1) == PriorShape(2.0, 1.0)


class TestObjective:
    def test_zero_at_exact_frequencies(self):
        state = SqueezedThermalState(1.2, 0.3)
        freqs = exact_frequencies(state)
        w = np.ones(22)
        res = fit_frequencies(freqs, w)
        # the real zero-residual check: objective is a quadratic form
        v = to_variances(state)
        d = fock_distribution(v, 20)
        delta = sum((p - f) ** 2 for p, f in zip(d.probs + (d.overflow,), freqs))
        assert delta == 0.0
        assert res.objective < 1e-18

    def test_quadratic_in_single_perturbation(self):
        state = SqueezedThermalState(0.8, 0.05)
        v = to_variances(state)
        freqs = exact_frequencies(state)
        w = tuple(np.linspace(1.0, 4.0, 22))
        base = _objective_at(v, freqs, w)
        assert base == 0.0
        for delta in (1e-3, 2e-2):
            bumped = freqs.copy()
            bumped[3] += delta
            assert _objective_at(v, bumped, w) == pytest.approx(
                w[3] * delta ** 2, rel=1e-12
            )

    def test_vacuum_data_thermal_model_hand_sum(self):
        h = vacuum_histogram(100)
        w = posterior_weights(h, PriorShape(1, 1))
        assert objective(QuadratureVariances(0.5, 0.5), h, w) == 0.0
        # independent spreadsheet-style evaluation with thermal closed form
        nbar = 1.0
        model = [nbar ** n / (nbar + 1) ** (n + 1) for n in range(21)]
        model.append(1.0 - sum(model))
        f = [1.0] + [0.0] * 21
        s = 1 + 100 + 1
        expected = 0.0
        for k, pn, fn in zip([100] + [0] * 21, model, f):
            var = (k + 1) * (100 + 1 - k) / (s ** 2 * (s + 1))
            expected += (pn - fn) ** 2 / var
        got = objective(to_variances(SqueezedThermalState(0, nbar)), h, w)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weight_length_checked(self):
        h = vacuum_histogram(100)
        with pytest.raises(ValueError):
            objective(QuadratureVariances(0.5, 0.5), h, np.ones(5))

    def test_n_max_bounded_by_the_model_domain(self):
        # 80 bins: n_max 79, outside the model's validated domain, as for fit
        h = FockHistogram((50, 30) + (1,) * 78, 0, 158)
        for call in (objective, lambda v, h, w: fit(h, w)):
            with pytest.raises(ValueError, match=r"^n_max must be in \[1, 64\], got 79$"):
                call(QuadratureVariances(0.5, 0.5), h, uniform_weights(h))


def _objective_at(v, freqs, weights):
    d = fock_distribution(v, len(freqs) - 2)
    model = np.array(d.probs + (d.overflow,))
    return float(np.sum(np.asarray(weights) * (model - np.asarray(freqs)) ** 2))


class TestFit:
    def test_exact_recovery_on_state_grid(self):
        w = np.ones(22)
        for r in (0.0, 1.0, 2.5):
            for nbar in (0.001, 0.01, 0.1, 2.0):
                truth = to_variances(SqueezedThermalState(r, nbar))
                res = fit_frequencies(exact_frequencies(SqueezedThermalState(r, nbar)), w)
                assert res.converged
                assert res.variances.vq == pytest.approx(truth.vq, rel=1e-6)
                assert res.variances.vp == pytest.approx(truth.vp, rel=1e-6)

    def test_vacuum_histogram_recovers_vacuum_exactly(self):
        h = vacuum_histogram(100)
        res = fit(h, posterior_weights(h, PriorShape(1, 1)))
        assert res.converged
        assert (res.state.r, res.state.nbar) == (0.0, 0.0)
        assert res.objective == 0.0

    def test_returned_point_beats_probed_grid(self):
        h = histogram_from_counts([50, 30, 12, 5, 2, 1])
        w = posterior_weights(h, PriorShape(1, 1))
        res = fit(h, w)
        r_vals = np.linspace(0.0, 3.5, 60)
        nbar_vals = np.expm1(np.linspace(0.0, math.log1p(7.0), 60))
        grid_best = min(
            _objective_at(
                to_variances(SqueezedThermalState(r, nb)), h.frequencies, w
            )
            for r in r_vals
            for nb in nbar_vals
        )
        assert res.objective <= grid_best + 1e-15

    def test_constraints_always_satisfied(self):
        # 1000 badly fitting histograms in one batch; the first 50 also
        # through fit (TestFitBatch ties batched rows to single fits).
        counts, freqs, weights = _dirichlet_rows(1000)
        results = list(fit_batch(freqs, weights))
        for row in counts[:50]:
            h = FockHistogram(tuple(int(c) for c in row[:-1]), int(row[-1]), 200)
            results.append(fit(h, posterior_weights(h, PriorShape(1, 1))))
        for res in results:
            v = res.variances
            assert v.vq <= v.vp
            assert v.vq * v.vp >= 0.25 - 1e-12
            assert res.state.r >= 0.0 and res.state.nbar >= 0.0

    def test_objective_never_worse_than_truth_on_samples(self):
        truth = SqueezedThermalState(1.0, 0.01)
        tv = to_variances(truth)
        dist = fock_distribution(tv, 20)
        for e in range(25):
            h = sample_histogram(dist, 10 ** 4, SeedSpec(3, e))
            w = posterior_weights(h, PriorShape(1, 1))
            res = fit(h, w)
            assert res.objective <= objective(tv, h, w) + 1e-12

    def test_fidelity_improves_with_shots(self):
        from fockfit.model import fidelity

        truth = SqueezedThermalState(1.0, 0.01)
        tv = to_variances(truth)
        dist = fock_distribution(tv, 20)
        medians = []
        for shots in (10 ** 3, 10 ** 5):
            fids = []
            for e in range(20):
                h = sample_histogram(dist, shots, SeedSpec(8, e))
                res = fit(h, posterior_weights(h, PriorShape(1, 1)))
                fids.append(fidelity(res.variances, tv))
            medians.append(np.median(fids))
        assert medians[1] >= medians[0]

    def test_bad_frequency_vector(self):
        with pytest.raises(ValueError):
            fit_frequencies(np.array([1.0, 0.0]), np.ones(2))


def _peak_memory(run) -> int:
    """Peak bytes that tracemalloc (which sees numpy's array buffers)
    traces while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sampled_rows(r, nbar, shots, n, n_max=20, seed=17):
    dist = fock_distribution(to_variances(SqueezedThermalState(r, nbar)), n_max)
    counts = _sample_blocks([(dist, shots, 0, n)], seed)
    return counts, counts / shots, posterior_weights(counts)


def _dirichlet_rows(n, n_max=20, seed=31, shots=200):
    """Histograms of ``shots`` draws from Dirichlet(0.3) bin probabilities:
    rows that fit badly, some in flat valleys at large nbar."""
    rng = np.random.default_rng(seed)
    counts = np.array([rng.multinomial(shots, rng.dirichlet(np.full(n_max + 2, 0.3)))
                       for _ in range(n)])
    return counts, counts / shots, posterior_weights(counts)


@st.composite
def _batches(draw):
    """1 to 5 histograms that share n_max: sampled from random states, or
    arbitrary count vectors."""
    n_max = draw(st.sampled_from((3, 20)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            state = SqueezedThermalState(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))
            dist = fock_distribution(to_variances(state), n_max)
            seed = SeedSpec(draw(st.integers(0, 2 ** 32)))
            h = sample_histogram(dist, draw(st.integers(1, 10 ** 5)), seed)
            rows.append(h.counts + (h.overflow_count,))
        else:
            counts = draw(st.lists(st.integers(0, 300), min_size=n_max + 2,
                                   max_size=n_max + 2).filter(any))
            rows.append(tuple(counts))
    return np.array(rows)


class TestFitBatch:
    @settings(max_examples=25, deadline=None, database=None)
    @given(_batches())
    def test_batch_equals_single_fits(self, counts):
        total = counts.sum(axis=1, keepdims=True)
        weights = posterior_weights(counts)
        batch = fit_batch(counts / total, weights)
        for i, (row, w) in enumerate(zip(counts, weights)):
            h = FockHistogram(tuple(row[:-1].tolist()), int(row[-1]), int(row.sum()))
            assert batch[i] == fit(h, w)
            v = batch[i].variances
            assert v.vq <= v.vp
            assert v.vq * v.vp >= 0.25 - HEISENBERG_SLACK

    def test_grid_only_with_zero_budget(self):
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 6)
        grid = fit_batch(freqs, weights, max_evals=0)
        full = fit_batch(freqs, weights)
        r_vals = np.linspace(0.0, 3.5, 60)
        nbar_vals = np.expm1(np.linspace(0.0, math.log1p(7.0), 60))
        for f, w, g, res in zip(freqs, weights, grid, full):
            assert not g.converged
            assert np.min(np.abs(r_vals - g.state.r)) < 1e-12
            assert np.min(np.abs(nbar_vals - g.state.nbar)) < 1e-12
            assert g.objective == pytest.approx(_objective_at(g.variances, f, w), rel=1e-9)
            assert res.converged and res.objective <= g.objective

    def test_r_zero_fits_are_minima_along_r(self):
        # A gradient method in r stalls at r = 0, where the model's r
        # derivative vanishes; in q = cosh 2r - 1 it does not.  Every fit
        # that lands on r = 0 must be a minimum along r.
        counts, freqs, weights = _sampled_rows(0.0, 0.01, 10 ** 4, 300)
        fits = fit_batch(freqs, weights)
        on_bound = [i for i, res in enumerate(fits) if res.state.r == 0.0]
        assert len(on_bound) > 50
        for i in on_bound:
            probe = to_variances(SqueezedThermalState(1e-3, fits[i].state.nbar))
            assert _objective_at(probe, freqs[i], weights[i]) >= fits[i].objective

    @pytest.mark.parametrize("n_max", [20, 64])
    @pytest.mark.parametrize("r, nbar, zero", [(0.0, 0.01, "r"), (0.0, 1.0, "r"),
                                               (2.5, 0.0, "nbar")])
    def test_exact_boundary_rows_snap_onto_the_bound(self, n_max, r, nbar, zero):
        # A zero-residual row on a bound: the refinement alone ends up to
        # 1e-8 off it; the snap puts the coordinate exactly on zero.
        freqs = fock_distribution(to_variances(SqueezedThermalState(r, nbar)), n_max).all_probs
        fits = fit_batch(freqs[None], np.ones((1, freqs.size)))
        assert fits.converged.all()
        assert getattr(fits, zero)[0] == 0.0

    def test_snap_kept_within_rho_of_the_objective(self):
        # A column 1e-8 off the nbar = 0 bound that fits badly, so rho is
        # about 1e-14 of the objective: a snap that costs rho / 2 is kept,
        # one that costs 2 rho is not, though 2 rho is far below 1e-13 of
        # the objective.
        n_max = 20
        f = exact_frequencies(SqueezedThermalState(0.3, 2.0), n_max)[:, None]
        w = np.ones_like(f)
        snapped = np.array([[0.5], [0.0]])
        s_obj, rho = _evaluate(snapped, f, w, n_max)[[0, 6]]
        assert 0.0 < 2.0 * rho[0] < 1e-13 * s_obj[0]
        for cost, kept in ((0.5 * rho, True), (2.0 * rho, False)):
            x, obj = np.array([[0.5], [1e-8]]), s_obj - cost
            extra = _snap_to_bounds(x, obj, f, w, n_max, np.array([np.inf]))
            assert extra.tolist() == [1]
            assert np.array_equal(x, snapped) == kept
            assert np.array_equal(obj, s_obj if kept else s_obj - cost)

    def test_shape_and_weight_validation(self):
        _, freqs, weights = _sampled_rows(1.0, 0.05, 1000, 2)
        with pytest.raises(ValueError):
            fit_batch(freqs, weights[:, :-1])
        with pytest.raises(ValueError):
            fit_batch(freqs[0], weights[0])
        bad = weights.copy()
        bad[1, 3] = 0.0
        with pytest.raises(ValueError):
            fit_batch(freqs, bad)
        nan_row = freqs.copy()
        nan_row[0, 2] = np.nan
        with pytest.raises(ValueError, match="^frequencies must be finite$"):
            fit_batch(nan_row, weights)
        for bad, message in ((-1, "must be >= 0, got -1"), (True, "must be an integer, got True"),
                             (2.5, "must be an integer, got 2.5"),
                             ("3", "must be an integer, got '3'"),
                             (None, "must be an integer, got None")):
            for call in (lambda: fit_batch(freqs, weights, max_evals=bad),
                         lambda: fit_frequencies(freqs[0], weights[0], max_evals=bad)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"max_evals {message}"
        grid = fit_batch(freqs, weights, max_evals=0)
        assert not grid.converged.any() and grid.evaluations.tolist() == [3601, 3601]

    def test_bins_bounded_by_the_model_domain(self):
        # n_max = MAX_FOCK = 64 gives 66 bins; one bin more is outside the
        # model's validated domain.
        counts, freqs, weights = _sampled_rows(1.0, 0.05, 1000, 2, n_max=64)
        assert fit_batch(freqs, weights).converged.all()
        wide = np.pad(counts, ((0, 0), (0, 1)))
        with pytest.raises(ValueError, match=r"^n_max must be in \[1, 64\], got 65$"):
            fit_batch(wide / 1000, posterior_weights(wide))

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_row_independent_of_preceding_rows(self, n_max):
        # Rows are fitted in 32-row grid blocks and _REFINE_BLOCK-row
        # refinement blocks; offsets 0..33 put the target rows at every
        # position of a grid block, the 16 offsets from _REFINE_BLOCK - 12
        # across the first refinement block's end, and their results must
        # not move by a single bit, from the grid or from a start state.
        # The targets include badly fitting Dirichlet rows and rows on the
        # nbar = 0 bound; every stop test reads only its own column.
        across = range(_REFINE_BLOCK - 12, _REFINE_BLOCK + 4)
        _, filler_f, filler_w = _sampled_rows(0.5, 1.0, 1000, across[-1], n_max, seed=3)
        targets = [_sampled_rows(r, nbar, 10 ** 4, 2, n_max, seed=5)
                   for r, nbar in ((1.0, 0.05), (0.0, 0.01), (2.5, 0.01), (0.3, 0.0))]
        targets.append(_dirichlet_rows(3, n_max, seed=41))
        target_f = np.concatenate([t[1] for t in targets])
        target_w = np.concatenate([t[2] for t in targets])
        for start in (None, to_variances(SqueezedThermalState(1.0, 0.05))):
            alone = fit_batch(target_f, target_w, start=start)
            for offset in (*range(34), *across):
                fits = fit_batch(np.concatenate((filler_f[:offset], target_f)),
                                 np.concatenate((filler_w[:offset], target_w)), start=start)
                assert fits[offset:] == alone

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_results_independent_of_the_block_width(self, n_max, monkeypatch):
        # The refinement is elementwise per column, so the rows per block
        # only decide how many columns share numpy's calls: 32-, 512- and
        # 1024-row blocks must give the same bits.  The rows mix sampled
        # histograms, Dirichlet(0.3) ones and exact rows at q = 0 and at
        # nbar = 0, the bounds that the snap decides.
        sets = [_sampled_rows(r, nbar, shots, 150, n_max, seed=7)
                for r, nbar, shots in ((1.0, 0.05, 10 ** 4), (0.0, 0.01, 10 ** 4),
                                       (2.5, 0.0, 200), (0.5, 1.0, 200))]
        sets.append(_dirichlet_rows(100, n_max, seed=43))
        exact = np.array([fock_distribution(to_variances(SqueezedThermalState(r, nbar)),
                                            n_max).all_probs
                          for r, nbar in ((0.0, 0.5), (1.5, 0.0), (0.0, 0.0))])
        freqs = np.concatenate([s[1] for s in sets] + [exact])
        weights = np.concatenate([s[2] for s in sets] + [np.ones_like(exact)])
        assert len(freqs) > 512
        for start in (None, to_variances(SqueezedThermalState(1.0, 0.05))):
            fits = []
            for width in (32, 512, 1024):
                monkeypatch.setattr(estimation, "_REFINE_BLOCK", width)
                fits.append(fit_batch(freqs, weights, start=start))
            assert fits[0] == fits[1] == fits[2]
            # the exact rows end on their bounds
            assert fits[0].r[[-3, -1]].tolist() == fits[0].nbar[-2:].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_compaction_leaves_every_column(self, monkeypatch, n_max):
        # Stopped columns are written out when they are compacted away and
        # at the end: compacting once every column has stopped (1), at the
        # default share (8) or at the first stop (10**9) gives the same
        # batch, from the grid and from a start.
        sets = [_dirichlet_rows(200, n_max), _sampled_rows(0.5, 1.0, 200, 100, n_max),
                _sampled_rows(2.5, 0.01, 10 ** 4, 100, n_max),
                _sampled_rows(0.0, 0.01, 200, 100, n_max)]
        freqs = np.concatenate([s[1] for s in sets])
        weights = np.concatenate([s[2] for s in sets])
        for start in (None, to_variances(SqueezedThermalState(1.0, 0.05))):
            fits = []
            for compact in (1, 8, 10 ** 9):
                monkeypatch.setattr(estimation, "_COMPACT", compact)
                fits.append(fit_batch(freqs, weights, start=start))
            assert fits[0] == fits[1] == fits[2]

    def test_peak_memory_of_a_thousand_rows(self):
        # tracemalloc sees numpy's array buffers.  The budget is the peak
        # measured at n_max = 20 with 512-column refinement blocks
        # (1.69 MB) plus 25%; 1024-column blocks, with _evaluate's one
        # buffer as their working set, peak at 1.94 MB.  Wider blocks or
        # new per-column temporaries raise the peak RSS of every
        # 1000-replicate bootstrap.
        _, freqs, weights = _sampled_rows(2.5, 0.01, 10 ** 4, 1000)
        fit_batch(freqs[:1], weights[:1])  # build the cached model grid
        assert _peak_memory(lambda: fit_batch(freqs, weights)) <= 2.11e6

    def test_peak_memory_of_a_thousand_warm_rows(self):
        # The refits of a 1000-replicate ci: no grid stage, but from the
        # first compaction on, the unconverged columns' frequencies and
        # weights are copies.  The budget is the peak measured at n_max =
        # 20 with 1024-column blocks (2.13 MB) plus 25%.
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 1000)
        start = to_variances(SqueezedThermalState(1.0, 0.05))
        assert _peak_memory(lambda: fit_batch(freqs, weights, start=start)) <= 2.66e6


class TestWarmStart:
    """fit_batch(start=v): every row refines from v without the grid stage,
    as parametric_bootstrap refits replicates drawn from the point
    estimate."""

    def test_zero_budget_returns_the_start(self):
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 5)
        v = to_variances(SqueezedThermalState(0.8, 0.2))
        x0 = np.repeat(np.array(_fit_coords(v.vq, v.vp))[:, None], 5, axis=1)
        x, fits = _fit_points(freqs, weights, 0, (v.vq, v.vp))
        assert np.array_equal(x, x0)
        assert np.array_equal(fits.objective,
                              _evaluate(x0, freqs.T.copy(), weights.T.copy(), 20)[0])
        assert not fits.converged.any()
        np.testing.assert_array_equal(fits.evaluations, 1)
        fits = fit_batch(freqs, weights, max_evals=0, start=v)
        assert not fits.converged.any()
        np.testing.assert_array_equal(fits.evaluations, 1)
        np.testing.assert_allclose(fits.vq, v.vq, rtol=1e-12)
        np.testing.assert_allclose(fits.vp, v.vp, rtol=1e-12)

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_one_start_equals_it_repeated_per_row(self, n_max):
        # The fit's start as one state for every row, and as arrays of one
        # state per row: the same fit, and per-row starts refine each row
        # from its own state, as fit_batch does.
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 40, n_max)
        v, u = (to_variances(SqueezedThermalState(*s)) for s in ((0.8, 0.2), (1.0, 0.05)))
        x, fits = _fit_points(freqs, weights, start=(v.vq, v.vp))
        per_row = np.repeat([[v.vq], [v.vp]], len(freqs), axis=1)
        assert np.array_equal(_fit_points(freqs, weights, start=per_row)[0], x)
        assert _fit_points(freqs, weights, start=per_row)[1] == fits
        assert fits == fit_batch(freqs, weights, start=v)
        per_row[:, 25:] = [[u.vq], [u.vp]]
        mixed = _fit_points(freqs, weights, start=per_row)[1]
        assert mixed[:25] == fits[:25]
        assert mixed[25:] == fit_batch(freqs[25:], weights[25:], start=u)

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_each_row_equals_it_fitted_alone(self, n_max):
        # Every row of a warm-started batch starts at the same point; its
        # fit, evaluations included, is the one it gets in a batch of its
        # own.  The rows mix sampled histograms, Dirichlet(0.3) ones and
        # rows that end on the nbar = 0 bound.
        sets = [_sampled_rows(r, nbar, shots, 12, n_max, seed=17)
                for r, nbar, shots in ((1.0, 0.05, 10 ** 4), (0.0, 0.01, 200), (0.3, 0.0, 10 ** 4))]
        sets.append(_dirichlet_rows(12, n_max, seed=19))
        freqs = np.concatenate([s[1] for s in sets])
        weights = np.concatenate([s[2] for s in sets])
        v = to_variances(SqueezedThermalState(1.0, 0.05))
        fits = fit_batch(freqs, weights, start=v)
        for i in range(len(freqs)):
            assert fits[i:i + 1] == fit_batch(freqs[i:i + 1], weights[i:i + 1], start=v), i

    def test_never_above_the_start_objective(self):
        n_max = 20
        sets = [_sampled_rows(0.0, 0.01, 200, 30, n_max, seed=2), _dirichlet_rows(60, n_max)]
        freqs = np.concatenate([s[1] for s in sets])
        weights = np.concatenate([s[2] for s in sets])
        f, w = freqs.T.copy(), weights.T.copy()
        for r, nbar in ((1.0, 0.05), (0.0, 0.01), (2.5, 0.0), (0.0, 0.0), (3.0, 6.0)):
            v = to_variances(SqueezedThermalState(r, nbar))
            x0 = np.repeat(np.array(_fit_coords(v.vq, v.vp))[:, None], len(freqs), axis=1)
            at_start = _evaluate(x0, f, w, n_max)[0]
            fits = fit_batch(freqs, weights, start=v)
            assert np.all(fits.objective <= at_start)

    @pytest.mark.parametrize("start", [(0.5, 0.5), SqueezedThermalState(1.0, 0.05),
                                       np.array([0.5, 0.5]), "posterior"])
    def test_start_must_be_variances(self, start):
        _, freqs, weights = _sampled_rows(1.0, 0.05, 1000, 2)
        with pytest.raises(ValueError, match="^start: expected QuadratureVariances"):
            fit_batch(freqs, weights, start=start)

    @pytest.mark.parametrize("vq, vp, max_evals", [
        (2.0 ** 510 - 0.5, 2.0 ** 510 - 0.5, _MAX_EVALS),  # the hottest state: nbar = 2**510 - 1
        (1e-300, 1e300, 0),  # q = 5e299, returned as it is at a zero budget
        (0.25 * 2.0 ** -1021, 2.0 ** 1021, _MAX_EVALS),  # the most squeezed state: q = 2**1021
        (2e6, 2e6, _MAX_EVALS),  # nbar = 2e6 - 1/2
    ])
    def test_start_must_lie_in_the_search_box(self, vq, vp, max_evals):
        # Rejected before any fit work, with no RuntimeWarning on the way
        # (the test configuration makes warnings errors).
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 2)
        with pytest.raises(ValueError, match="^start: .* outside the search box"):
            fit_batch(freqs, weights, start=QuadratureVariances(vq, vp), max_evals=max_evals)

    @pytest.mark.parametrize("r, nbar", [(14.0, 0.0), (0.0, 9e5)])
    def test_start_just_inside_the_search_box_fits(self, r, nbar):
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 2)
        fits = fit_batch(freqs, weights, start=to_variances(SqueezedThermalState(r, nbar)))
        assert fits.converged.all()
        assert np.all(fits.objective <= fit_batch(freqs, weights).objective + 1e-12)

    @pytest.mark.parametrize("n_max", [20, 64])
    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_agrees_with_grid_started_refits(self, n_max, scheme):
        # Rows drawn from the start state, as bootstrap replicates are: no
        # convergence flag changes, and no row ends more than the rounding
        # floor rho above its grid-started fit.
        for i, (r, nbar) in enumerate(((1.0, 0.05), (0.0, 0.01), (2.5, 0.01), (0.3, 0.0))):
            v = to_variances(SqueezedThermalState(r, nbar))
            for shots in (200, 10 ** 4):
                counts, freqs, _ = _sampled_rows(r, nbar, shots, 40, n_max, seed=60 + i)
                weights = weights_for(counts, scheme, PriorShape(1.0, 1.0))
                x, grid = _fit_points(freqs, weights, _MAX_EVALS)
                rho = _evaluate(x, freqs.T.copy(), weights.T.copy(), n_max)[6]
                warm = fit_batch(freqs, weights, start=v)
                np.testing.assert_array_equal(warm.converged, grid.converged)
                assert np.all(warm.objective - grid.objective <= rho)


class TestReplicateScale:
    """_covariance, the linearised spread V of the fitted (q, nbar), and the
    stop rule of replicate refits that it scales (_SE_TOL)."""

    def test_matches_the_spread_of_rounding_floor_refits(self):
        # 1000 histograms of 1e5 shots drawn from one state, refit to the
        # rounding floor: their (q, nbar) spread as V says, within Monte
        # Carlo error.  A variance from 1000 draws has a relative standard
        # error of sqrt(2 / 999), 4.5%, and a correlation 1 / sqrt(1000).
        v, n = to_variances(SqueezedThermalState(1.0, 0.05)), 10 ** 5
        dist = fock_distribution(v, 20)
        cov = _covariance(np.array(_fit_coords(v.vq, v.vp))[:, None],
                          posterior_weights(dist.all_probs[None] * n).T, float(n))[:, 0]
        counts = _sample_blocks([(dist, n, 0, 1000)], 0)
        x, fits = _fit_points(counts / n, posterior_weights(counts), start=(v.vq, v.vp))
        assert fits.converged.all()
        sample = np.cov(x)
        assert sample[0, 0] == pytest.approx(cov[0], rel=4.0 * math.sqrt(2.0 / 999))
        assert sample[1, 1] == pytest.approx(cov[2], rel=4.0 * math.sqrt(2.0 / 999))
        assert sample[0, 1] / math.sqrt(sample[0, 0] * sample[1, 1]) == pytest.approx(
            cov[1] / math.sqrt(cov[0] * cov[2]), abs=4.0 / math.sqrt(1000))

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_each_column_equals_it_alone(self, n_max):
        # Every sum over the bins adds them in order, so a column's V does
        # not depend on the columns beside it: replicate sets do not change
        # with the task split or the thread count.
        rng = np.random.default_rng(5)
        x = np.stack((rng.uniform(0.0, 30.0, 40), rng.uniform(0.0, 8.0, 40)))
        x[:, :4] = [[0.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 1e-3]]
        probs = _fock_table(x[0], x[1], n_max)[0]
        n = rng.integers(100, 10 ** 6, 40).astype(float)
        w = posterior_weights((probs * n).T).T
        cov = _covariance(x, w, n)
        for i in range(40):
            assert np.array_equal(_covariance(x[:, i:i + 1], w[:, i:i + 1], n[i:i + 1]),
                                  cov[:, i:i + 1], equal_nan=True), i
        assert np.all(cov[:, 0] == 0.0)  # the vacuum: all of P in bin 0
        assert np.all(np.isfinite(cov[:, 1:])) and np.all(cov[0, 1:] > 0.0)

    def test_nan_scale_keeps_the_point_fit_rules(self):
        # A column without a finite, positive definite V stops by the two
        # rules above _STEP_TOL only: bit for bit the fit without a scale.
        sets = [_sampled_rows(1.0, 0.05, 10 ** 4, 30), _dirichlet_rows(30)]
        f = np.concatenate([s[1] for s in sets]).T.copy()
        w = np.concatenate([s[2] for s in sets]).T.copy()
        v = to_variances(SqueezedThermalState(1.0, 0.05))
        x0 = np.repeat(np.array(_fit_coords(v.vq, v.vp))[:, None], 60, axis=1)
        plain = _refine(x0, f, w, 20, _MAX_EVALS)
        for got, want in zip(_refine(x0, f, w, 20, _MAX_EVALS, np.full((3, 60), np.nan)), plain):
            assert np.array_equal(got, want)


class TestEvaluate:
    """_evaluate's rows come from one pass of in-order adds over every
    bin's terms side by side, the overflow bin's last: bit for bit the
    separate in-order sum of each term."""

    @staticmethod
    def separate_sums(x, f, w, n_max):
        p, jac = _fock_table(x[0], x[1], n_max)
        obj = _bin_sum(w * (p - f) ** 2)
        n = np.arange(n_max + 2.0)[:, None]
        model_error = 0.5 * (n + 1.0) * (n + 2.0) * p
        model_error[n_max + 1] = _bin_sum(model_error[:n_max + 1]) + (n_max + 1.0)
        model_term = _bin_sum(w * np.abs(p - f) * model_error)
        rho = _FLOOR_FACTOR * np.finfo(float).eps * ((n_max + 2) * obj + 2.0 * model_term)
        return np.stack((obj, *_bin_sum(w[:, None] * jac * (p - f)[:, None]),
                         *_bin_sum(w[:, None] * jac * jac[:, :1]),
                         _bin_sum(w * jac[:, 1] * jac[:, 1]), rho))

    @pytest.mark.parametrize("n_max", [1, 20, 64])
    def test_rows_equal_the_separate_sums(self, n_max):
        rng = np.random.default_rng(n_max)
        # q = 0 (thermal), nbar = 0 (squeezed vacuum, parity zeros), both
        # (vacuum), then random interior points
        q = np.concatenate(([0.0, 0.0, 2.0, 1e-9], rng.uniform(0.0, 30.0, 36)))
        nbar = np.concatenate(([0.0, 1.5, 0.0, 0.0], np.expm1(rng.uniform(0.0, 2.5, 36))))
        x = np.stack((q, nbar))
        f = rng.dirichlet(np.full(n_max + 2, 0.3), x.shape[1]).T
        w = 10.0 ** rng.uniform(0.0, 6.0, f.shape)
        rows = _evaluate(x, f, w, n_max)
        assert rows.shape == (7, x.shape[1])
        assert np.array_equal(rows, self.separate_sums(x, f, w, n_max))
        for i in range(x.shape[1]):
            one = (x[:, i:i + 1], f[:, i:i + 1], w[:, i:i + 1])
            assert np.array_equal(_evaluate(*one, n_max), self.separate_sums(*one, n_max))
            assert np.array_equal(_evaluate(*one, n_max)[:, 0], rows[:, i])


    @pytest.mark.parametrize("n_max", [1, 20, 64])
    def test_shared_points_equal_column_by_column_calls(self, n_max):
        # Columns that share a few points: every column at one point (a
        # replicate set's start) and every column but the last.  Each
        # column of the rows at the columns' points given in full equals a
        # call on it alone.
        rng = np.random.default_rng(n_max + 1)
        m = 50
        f = rng.dirichlet(np.full(n_max + 2, 0.3), m).T.copy()
        w = 10.0 ** rng.uniform(0.0, 6.0, f.shape)
        points = np.array([[1.2, 0.0], [0.3, 0.0]])
        for columns in (np.zeros(m, dtype=np.intp), np.arange(m) // (m - 1)):
            x = points[:, columns]
            want = np.stack([_evaluate(x[:, i:i + 1], f[:, i:i + 1], w[:, i:i + 1], n_max)[:, 0]
                             for i in range(m)], axis=1)
            got = _evaluate(x, f, w, n_max)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRoundingFloor:
    """The refinement's rounding-floor stop, a rejected trial whose undamped
    Gauss-Newton decrease is within the objective's rounding floor rho:
    rho bounds the objective's rounding noise at every fitted point, and a
    refinement restarted there finds no decrease beyond it."""

    STATES = ((0.0, 0.01), (0.0, 2.0), (0.5, 1.0), (1.0, 0.05), (1.0, 0.01), (2.0, 0.3),
              (2.5, 0.01))

    def rows(self, n_max):
        sets = [_sampled_rows(r, nbar, shots, 100, n_max, seed=11 + i)
                for i, (r, nbar) in enumerate(self.STATES) for shots in (200, 10 ** 4)]
        sets += [_sampled_rows(r, nbar, shots, 50, n_max, seed=7)
                 for r, nbar in ((0.0, 0.01), (0.3, 0.0)) for shots in (200, 10 ** 4)]
        sets.append(_dirichlet_rows(1000, n_max))
        return (np.concatenate([s[1] for s in sets]), np.concatenate([s[2] for s in sets]))

    @staticmethod
    def literal_rho(obj, p, f, w, n_max):
        eps = np.finfo(float).eps
        c = [(n + 1) * (n + 2) / 2 for n in range(n_max + 1)]
        d = [c[n] * p[n] for n in range(n_max + 1)] + [sum(c[n] * p[n] for n in range(n_max + 1))
                                                        + n_max + 1]
        return 2 * eps * ((n_max + 2) * obj + 2 * sum(
            w[n] * abs(p[n] - f[n]) * d[n] for n in range(n_max + 2)))

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_rho_bounds_the_noise_at_every_fitted_point(self, n_max):
        freqs, weights = self.rows(n_max)
        x, fits = _fit_points(freqs, weights, _MAX_EVALS)
        obj = fits.objective
        assert fits.converged.all()
        f, w = freqs.T.copy(), weights.T.copy()
        rho = _evaluate(x, f, w, n_max)[6]
        for i in range(0, len(obj), 97):
            want = self.literal_rho(obj[i], _fock_table(*x[:, i:i + 1], n_max)[0][:, 0],
                                    f[:, i], w[:, i], n_max)
            assert rho[i] == pytest.approx(want, rel=1e-12)
        # the objective over every point within 4 ulps of the fitted one
        low, high = obj.copy(), obj.copy()
        for dq in range(-4, 5):
            q = x[0]
            for _ in range(abs(dq)):
                q = np.maximum(np.nextafter(q, dq * np.inf), 0.0)
            for dn in range(-4, 5):
                nbar = x[1]
                for _ in range(abs(dn)):
                    nbar = np.maximum(np.nextafter(nbar, dn * np.inf), 0.0)
                values = _evaluate(np.stack((q, nbar)), f, w, n_max)[0]
                np.minimum(low, values, out=low)
                np.maximum(high, values, out=high)
        assert np.all(high - low <= rho)
        # a fresh refinement from the fitted point; its first evaluation
        # gives the fitted objective bit for bit
        _, restarted, _, _ = _refine(x, f, w, n_max, _MAX_EVALS)
        assert np.array_equal(_evaluate(x, f, w, n_max)[0], obj)
        assert np.all(obj - restarted <= rho)

    def test_rows_in_their_minimum_stop_early(self):
        # At the state of a 1000-replicate ci, rows that reach their minimum
        # used to make rejected trials until the damping grew large enough
        # for the step test: 9.2 LM evaluations per row before this stop,
        # 6.1 with it and 5.7 with the secant term.
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 500)
        fits = fit_batch(freqs, weights)
        assert fits.converged.all()
        assert np.mean(fits.evaluations - (60 * 60 + 1)) <= 6.0


class TestSecantTerm:
    """The refinement's structured secant estimate S of the residual
    curvature sum w (P - f) grad^2 P, and the safeguards that keep it from
    slowing any row down."""

    @staticmethod
    def literal_iteration(obj, grad, h, sec, lam, step, use, t_obj, t_grad, live):
        """One column's damping, model choice and S after a trial, from the
        rules as written: the step's model in Nielsen's ratio, the model
        that predicted the gain better, and S sized by min(1, |s^T y#| /
        |s^T S s|) and updated where the step was kept and y^T s > 0."""
        hm = np.array([[h[0], h[1]], [h[1], h[2]]])
        sm = np.array([[sec[0], sec[1]], [sec[1], sec[2]]])
        gain = obj - t_obj
        gn_pred = -(2.0 * grad @ step + step @ hm @ step)
        aug_pred = gn_pred - step @ sm @ step
        pred = aug_pred if use else gn_pred
        better = live and gain > 0.0
        ratio = min(gain / pred, 1.0) if pred > 0.0 else 0.0
        lam = min(lam * (max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3) if better else 10.0), 1e16)
        aug = abs(aug_pred - gain) <= abs(gn_pred - gain)
        y = t_grad - grad
        sized = skipped = updated = False
        if better and y @ step > 0.0:
            updated = True
            ysharp = y - hm @ step
            tau = min(1.0, abs(step @ ysharp) / abs(step @ sm @ step)) if step @ sm @ step else 1.0
            sized = tau < 1.0
            sm = tau * sm
            r = ysharp - sm @ step
            ys = y @ step
            sm = sm + (np.outer(r, y) + np.outer(y, r)) / ys - (r @ step / ys ** 2) * np.outer(y, y)
        elif better:
            skipped = True
        return lam, aug, np.array([sm[0, 0], sm[0, 1], sm[1, 1]]), sized, skipped, updated

    def test_iterations_follow_the_literal_rules(self):
        # Rows that fit badly, from a start far from most of them, so that
        # every rule is exercised: S sized down, an update skipped for
        # y^T s <= 0, and the augmented model's ratio deciding the damping.
        # An updated S meets the secant condition S s = y - H s, with H the
        # J^T W J before the step.
        n_max = 20
        sets = [_sampled_rows(0.5, 1.0, 200, 40, n_max), _dirichlet_rows(120, n_max)]
        f = np.concatenate([s[1] for s in sets]).T.copy()
        w = np.concatenate([s[2] for s in sets]).T.copy()
        m = f.shape[1]
        v = to_variances(SqueezedThermalState(1.0, 0.05))
        start = _fit_coords(v.vq, v.vp)
        x = np.repeat(np.array(start)[:, None], m, axis=1)
        at = _evaluate(x, f, w, n_max)
        lam, sec = np.full(m, 1e-3), np.zeros((3, m))
        aug, live = np.ones(m, dtype=bool), np.arange(m) % 7 != 3
        seen = {"sized": 0, "skipped": 0, "augmented ratio": 0}
        for _ in range(12):
            state = (x.copy(), at.copy(), lam.copy(), sec.copy(), aug.copy())
            trial, step, _, use = _trial_step(x, at, lam, sec, aug)
            t_at = _evaluate(trial, f, w, n_max)
            _iterate(x, at, lam, sec, aug, live, f, w, n_max)
            x0, at0, lam0, sec0, _ = state
            for i in range(m):
                want = self.literal_iteration(at0[0, i], at0[1:3, i], at0[3:6, i], sec0[:, i],
                                              lam0[i], step[:, i], use[i], t_at[0, i],
                                              t_at[1:3, i], live[i])
                assert lam[i] == pytest.approx(want[0], rel=1e-9)
                assert aug[i] == want[1]
                np.testing.assert_allclose(sec[:, i], want[2], rtol=1e-7,
                                           atol=1e-9 * np.abs(want[2]).max())
                seen["sized"] += want[3]
                seen["skipped"] += want[4]
                if want[5]:
                    s, hs = step[:, i], at0[3:5, i] * step[0, i] + at0[4:6, i] * step[1, i]
                    ysharp = t_at[1:3, i] - at0[1:3, i] - hs
                    got = sec[0:2, i] * s[0] + sec[1:3, i] * s[1]
                    assert np.abs(got - ysharp).max() <= 1e-9 * np.abs(np.r_[ysharp, hs]).max()
                kept = live[i] and t_at[0, i] < at0[0, i]
                np.testing.assert_array_equal(x[:, i], trial[:, i] if kept else x0[:, i])
            seen["augmented ratio"] += np.count_nonzero(use & (x != x0).any(axis=0)
                                                        & (lam > lam0 / 3.0))
        assert all(seen.values()), seen

    def test_ci_refits_take_fewer_evaluations(self):
        # The refits of a 1000-replicate ci, from the point estimate: 6.81
        # evaluations per row (the start's included) with J^T W J alone,
        # 5.89 with the secant term.  The bound is that plus 0.3.
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, 1000)
        fits = fit_batch(freqs, weights, start=to_variances(SqueezedThermalState(1.0, 0.05)))
        assert fits.converged.all()
        assert np.mean(fits.evaluations) <= 6.2

    @pytest.mark.parametrize("n_max", [20, 64])
    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_no_row_reaches_the_evaluation_budget(self, n_max, scheme):
        # Badly fitting rows, from the grid and from a start far from most
        # of them: a secant term without its safeguards ran one such row to
        # the budget.  Every row converges, in at most 55 LM evaluations
        # here (the grid's not counted); J^T W J alone took up to 981.
        counts, freqs, _ = _dirichlet_rows(1000, n_max)
        weights = weights_for(counts, scheme, PriorShape(1.0, 1.0))
        for start, grid in ((None, 60 * 60), (to_variances(SqueezedThermalState(1.0, 0.05)), 0)):
            fits = fit_batch(freqs, weights, start=start)
            assert fits.converged.all()
            assert np.all(fits.evaluations - grid < _MAX_EVALS)


def _full_grid_winners(freqs, wts):
    """The grid stage with no operand skipped, as the reference: every
    operand's GEMM on every zero-padded 32-row block, then one argmin."""
    operands = _model_grid(freqs.shape[1] - 2)[1]
    rows, n_bins = freqs.shape
    padded = -(-rows // _GRID_BLOCK) * _GRID_BLOCK
    lhs = np.zeros((padded, 2 * n_bins))
    lhs[:rows, :n_bins] = wts
    lhs[:rows, n_bins:] = -2.0 * wts * freqs
    values = np.empty((_GRID_BLOCK, sum(block.shape[1] for block in operands)))
    outs = np.split(values, np.cumsum([block.shape[1] for block in operands[:-1]]), axis=1)
    best = np.empty(padded, dtype=np.intp)
    for row in range(0, padded, _GRID_BLOCK):
        for block, out in zip(operands, outs):
            np.matmul(lhs[row:row + _GRID_BLOCK], block, out=out)
        best[row:row + _GRID_BLOCK] = np.argmin(values, axis=1)
    return best[:rows]


def _adversarial_rows(n_max, scheme, rows, seed):
    """``rows`` rows of frequencies and ``scheme`` weights, each one of:
    sampled from a random state at 200, 1e4 or 1e5 shots; Dirichlet(0.3)
    histograms of 200 shots; or the stored P of a grid point, where that
    point's objective and its operand's bound are 0 (on average half of
    these points are in the first or last column of an operand)."""
    rng = np.random.default_rng(seed)
    points, operands, *_ = _model_grid(n_max)
    table = np.concatenate(operands, axis=1)[n_max + 2:]
    edges = np.cumsum([0] + [block.shape[1] for block in operands])
    ends = np.concatenate((edges[:-1], edges[1:] - 1))
    states = [fock_distribution(to_variances(SqueezedThermalState(r, nbar)), n_max).all_probs
              for r, nbar in rng.uniform([0.0, 0.0], [3.0, 4.0], (4, 2))]
    counts, freqs = np.empty((2, rows, n_max + 2))
    for i, kind in enumerate(rng.integers(0, 3, rows)):
        if kind == 0:
            counts[i] = rng.multinomial(rng.choice([200, 10 ** 4, 10 ** 5]),
                                        states[rng.integers(len(states))])
            freqs[i] = counts[i] / counts[i].sum()
        elif kind == 1:
            counts[i] = rng.multinomial(200, rng.dirichlet(np.full(n_max + 2, 0.3)))
            freqs[i] = counts[i] / 200
        else:
            point = rng.choice(ends) if rng.random() < 0.5 else rng.integers(points.shape[1])
            freqs[i] = table[:, point]
            counts[i] = freqs[i] * 10 ** 5
    return freqs, weights_for(counts, scheme, PriorShape(1, 1))


class TestGridStage:
    """The cached GEMM operands of the grid stage, the bound that skips the
    operands that cannot hold a row's winner, and the grid-only fit of a
    zero budget."""

    @pytest.mark.parametrize("n_max", [1, 20, 64])
    def test_operands_are_bounded_read_only_blocks(self, n_max):
        points, operands, *_ = _model_grid(n_max)
        assert not points.flags.writeable
        assert sum(block.shape[1] for block in operands) == points.shape[1] == 60 * 60
        for block in operands:
            assert not block.flags.writeable and block.flags.c_contiguous
            assert block.shape[0] == 2 * (n_max + 2)
            assert _GRID_BLOCK * block.shape[0] * block.shape[1] <= _GRID_GEMM_SIZE

    @pytest.mark.parametrize("n_max", [1, 20, 64])
    def test_operands_hold_the_model_table_and_its_square(self, n_max):
        points, operands, *_ = _model_grid(n_max)
        table = np.concatenate(operands, axis=1)
        probs, _ = _fock_table(points[0], points[1], n_max)
        np.testing.assert_array_equal(table[n_max + 2:], probs)
        np.testing.assert_array_equal(table[:n_max + 2], probs * probs)

    @pytest.mark.parametrize("n_max", [1, 2, 20, 64])
    def test_bound_tables_hold_each_operands_range(self, n_max):
        _, operands, bound_bins, ranges, peaks = _model_grid(n_max)
        assert bound_bins == sorted({0, 1, 2, n_max + 1})
        assert ranges.shape == (2, len(bound_bins), len(operands), 1)
        for k, block in enumerate(operands):
            probs = block[n_max + 2:][bound_bins]
            np.testing.assert_array_equal(ranges[0, :, k, 0], probs.min(axis=1))
            np.testing.assert_array_equal(ranges[1, :, k, 0], probs.max(axis=1))
        squares = np.concatenate(operands, axis=1)[:n_max + 2]
        np.testing.assert_array_equal(peaks, squares.max(axis=1))
        assert not ranges.flags.writeable and not peaks.flags.writeable

    def test_grid_coordinates_are_the_documented_grid(self):
        # The literals are numpy's AVX512 values of 2 sinh(r)^2 and
        # expm1(t), each within 2 ulps of the correctly rounded value.
        points = _model_grid(20)[0].reshape(2, 60, 60)
        q, nbar = points[0, :, 0], points[1, 0]
        assert np.all(points[0] == q[:, None]) and np.all(points[1] == nbar[None])
        r_vals = np.linspace(0.0, 3.5, 60)
        t_vals = np.linspace(0.0, math.log1p(7.0), 60)
        with mp.workdps(40):
            exact_q = np.array([float(2 * mp.sinh(r) ** 2) for r in r_vals.tolist()])
            exact_nbar = np.array([float(mp.expm1(t)) for t in t_vals.tolist()])
        for got, want in ((q, exact_q), (nbar, exact_nbar)):
            assert got[0] == want[0] == 0.0
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_winners_minimise_the_objective_over_the_grid(self, n_max):
        # 40 rows: one full 32-row block and one zero-padded block.
        rows = [_sampled_rows(r, nbar, 10 ** 4, 10, n_max, seed=9)
                for r, nbar in ((1.0, 0.05), (0.0, 0.01), (2.5, 0.01), (0.5, 1.0))]
        freqs = np.concatenate([row[1] for row in rows])
        weights = np.concatenate([row[2] for row in rows])
        points = _model_grid(n_max)[0]
        winners = _grid_winners(freqs, weights)
        for f, w, best in zip(freqs, weights, winners):
            direct = _evaluate(points, f[:, None], w[:, None], n_max)[0]
            assert direct[best] <= direct.min() + 1e-9 * np.sum(w * f * f)

    @settings(max_examples=30, deadline=None, database=None)
    @given(n_max=st.sampled_from((1, 2, 7, 20, 33, 64)), scheme=st.sampled_from(WEIGHT_SCHEMES),
           rows=st.sampled_from((1, 31, 33, 1000)), seed=st.integers(0, 2 ** 32 - 1))
    # Row 32, alone in its block, takes a wrong winner under every scheme
    # when _grid_winners' margin is dropped (scale = 0).
    @example(n_max=1, scheme="posterior", rows=33, seed=205)
    def test_winners_equal_the_full_grids(self, n_max, scheme, rows, seed):
        # Skipping an operand must never change a winner, ties included:
        # rows on a grid point (bound 0), at an operand's first or last
        # column, badly fitting Dirichlet rows and mle weights at 1e5 shots.
        freqs, weights = _adversarial_rows(n_max, scheme, rows, seed)
        assert np.array_equal(_grid_winners(freqs, weights), _full_grid_winners(freqs, weights))

    @pytest.mark.parametrize("n_max", [2, 20, 64])
    def test_winners_equal_the_full_grids_at_subnormal_weights(self, n_max):
        # Weights so small that the values are subnormal, where a rounding
        # errs by up to half the least subnormal whatever the size of its
        # result: every 25th grid point's stored P as a row, under uniform
        # and 1/P weights.  A margin without its absolute term skipped every
        # operand of some blocks here.  (Subnormal GEMMs are slow.)
        table = np.concatenate(_model_grid(n_max)[1], axis=1)[n_max + 2:]
        freqs = np.ascontiguousarray(table.T[::25])
        for weights in (np.ones_like(freqs), 1.0 / np.maximum(freqs, 1e-5)):
            for scale in (1e-320, 1e-322):
                assert np.array_equal(_grid_winners(freqs, scale * weights),
                                      _full_grid_winners(freqs, scale * weights))

    # Rows at n_max 2, where every bin is a bound bin and the grid is two
    # operands.  Each is grid point 2759's stored P (the first operand's
    # least P_0 and greatest overflow P) but for one heavy bin, bin 0 or the
    # overflow bin, set within a few ulps of halfway to the nearest P of the
    # second operand: 3560's P_0 or 3445's overflow P.  The other bins
    # weigh 1e-30 of the heavy one; the overflow or bin 2 makes the row sum
    # to 1.  Point 2759 meets its operand's bound with equality, its
    # computed value ties with the other point's to the last bit, and the
    # second operand's GEMM runs first.  A margin without its relative part
    # skips the first operand, and with it each row's winner.
    EQUALITY_ROWS = [
        ([0.03454800989780552, 0.002309922080207572, 0.015176958823542669, 0.9479651091984442],
         [1.0, 1e-30, 1e-30, 1e-30]),
        ([0.03454800989780597, 0.002309922080207572, 0.015176958823542669, 0.9479651091984438],
         [0.001, 1e-33, 1e-33, 1e-33]),
        ([0.034551727647315573, 0.002309922080207572, 0.01515658135737541, 0.9479817689151014],
         [1e-27, 1e-27, 1e-27, 1000.0]),
        ([0.034551727647315573, 0.002309922080207572, 0.015156581357369303, 0.9479817689151075],
         [2e-30, 2e-30, 2e-30, 2.0]),
    ]

    @pytest.mark.parametrize("freqs, weights", EQUALITY_ROWS)
    def test_winners_where_a_bound_is_met_with_equality(self, freqs, weights):
        # One row per call: an operand is skipped only where every row of
        # its block allows it.
        freqs, weights = np.array([freqs]), np.array([weights])
        want = _full_grid_winners(freqs, weights)
        assert _grid_winners(freqs, weights).tolist() == want.tolist() == [2759]

    @pytest.mark.parametrize("n_max", [20, 64])
    @pytest.mark.parametrize("rows", [1, 1000])
    def test_operands_are_skipped_for_ci_rows(self, n_max, rows, monkeypatch):
        # Replicates of a ci: most operands are skipped, with the same
        # winners.  One row sits in a block of 31 zero padding rows, which
        # must not stop a skip.
        _, freqs, weights = _sampled_rows(1.0, 0.05, 10 ** 4, rows, n_max)
        want = _full_grid_winners(freqs, weights)
        gemms = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: gemms.append(a) or matmul(*a, **k))
        got = _grid_winners(freqs, weights)
        monkeypatch.undo()
        blocks = -(-rows // _GRID_BLOCK)
        assert np.array_equal(got, want)
        assert len(gemms) <= 0.5 * blocks * len(_model_grid(n_max)[1])

    @pytest.mark.parametrize("n_max", [20, 64])
    def test_zero_budget_counts_the_grid_and_the_winner(self, n_max):
        _, freqs, weights = _sampled_rows(0.0, 0.01, 10 ** 4, 40, n_max)
        grid = fit_batch(freqs, weights, max_evals=0)
        np.testing.assert_array_equal(grid.evaluations, 60 * 60 + 1)
        assert not grid.converged.any()


class TestFitBatchColumns:
    def batch(self):
        return FitBatch(vq=[0.5, 0.2, 0.4], vp=[0.5, 1.25, 0.9], r=[0.0, 0.4, 0.2],
                        nbar=[0.0, 0.0, 0.1], objective=[0.0, 1e-3, 2e-3],
                        converged=[True, False, True], evaluations=[3601, 3610, 3605])

    def test_rows_slices_and_failures(self):
        batch = self.batch()
        assert len(batch) == 3 and batch.n_failed == 1
        assert batch[1] == FitResult(QuadratureVariances(0.2, 1.25),
                                     SqueezedThermalState(0.4, 0.0), 1e-3, False, 3610)
        assert type(batch[1].objective) is float and type(batch[1].evaluations) is int
        assert batch[-1] == batch[2]
        assert batch[1:] == FitBatch(*(column[1:] for column in astuple(batch)))
        assert list(batch) == [batch[0], batch[1], batch[2]]

    def test_sorted_values_skip_failed_rows(self):
        batch = self.batch()
        np.testing.assert_array_equal(batch.sorted_values("vq"), [0.4, 0.5])
        with pytest.raises(ValueError, match="sigma"):
            batch.sorted_values("sigma")

    def test_columns_read_only_and_checked(self):
        r = np.array([0.0, 0.4, 0.2])
        batch = replace(self.batch(), r=r)
        with pytest.raises(ValueError):
            batch.r[0] = 1.0
        r[0] = 1.0  # the caller's array stays writeable
        with pytest.raises(ValueError, match="equal length"):
            replace(self.batch(), converged=[True])
        with pytest.raises(ValueError, match="1-D"):
            replace(self.batch(), vq=[[0.5, 0.2, 0.4]])

    def test_pickle_round_trip_keeps_columns_read_only(self):
        # Replicate sets cross the process pool pickled.
        batch = self.batch()
        copy = pickle.loads(pickle.dumps(batch))
        assert copy == batch and len(vars(copy)) == 7
        assert not any(column.flags.writeable for column in vars(copy).values())


class TestParameters:
    """fit_batch's parameter columns come from plain-float conversions that
    give exactly the floats of the model's dataclass conversions."""

    @staticmethod
    def _dataclass_path(q, nbar):
        v = to_variances(SqueezedThermalState(math.asinh(math.sqrt(0.5 * q)), nbar))
        s = from_variances(v)
        return v.vq, v.vp, s.r, s.nbar

    def test_equals_dataclass_path(self):
        qs = [0.0, 5e-324, 1e-13, 1e-6, 0.3, 1.0, 2.0 * math.sinh(3.5) ** 2, 1e6, _UPPER[0, 0]]
        nbars = [0.0, 5e-324, 1e-12, 0.05, 1.0, 7.0, 1e3, _UPPER[1, 0]]
        x = np.array([(q, nbar) for q in qs for nbar in nbars]).T
        got = _parameters(x)
        assert got.shape == (4, x.shape[1])
        want = np.array([self._dataclass_path(q, nbar) for q, nbar in x.T.tolist()]).T
        assert np.array_equal(got, want)

    def test_random_rows_equal_the_dataclass_path(self):
        # q = expm1(U[0, 10]) and nbar = U[0, 20], each 0 on half the rows:
        # the same floats, sign bits included, as the row-by-row conversion.
        rng = np.random.default_rng(5)
        x = np.stack((np.expm1(rng.uniform(0.0, 10.0, 4000)), rng.uniform(0.0, 20.0, 4000)))
        x[rng.random(x.shape) < 0.5] = 0.0
        got = _parameters(x)
        want = np.array([self._dataclass_path(q, nbar) for q, nbar in x.T.tolist()]).T
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_no_rows(self):
        assert _parameters(np.empty((2, 0))).shape == (4, 0)

    @pytest.mark.parametrize("q, nbar", [(0.0, -0.1), (0.0, -1e-14), (math.nan, 0.0),
                                         (0.0, math.nan), (0.0, math.inf), (math.inf, 0.0)])
    def test_rejects_coordinates_outside_the_domain(self, q, nbar):
        with pytest.raises(ValueError, match="outside the physical domain"):
            _parameters(np.array([[0.5, q], [0.1, nbar]]))
