import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fockfit.bootstrap as bt
from fockfit.bootstrap import (
    METHODS,
    PARAMETERS,
    BootstrapError,
    bc_interval,
    coverage_probability,
    intervals,
    parameter_values,
    parametric_bootstrap,
    percentile_interval,
)
from fockfit.estimation import (_SE_TOL, FitBatch, FitResult, FockHistogram, PriorShape,
                                _covariance, _fit_points, fit, fit_batch, posterior_weights,
                                weights_for)
from fockfit.model import SqueezedThermalState, _fit_coords, fock_distribution, to_variances
from fockfit.sampling import MAX_SEED, SeedSpec, _sample_blocks, sample_histogram

PRIOR = PriorShape(1.0, 1.0)


def fit_state(r, nbar, shots, stream=0, seed=314):
    dist = fock_distribution(to_variances(SqueezedThermalState(r, nbar)), 20)
    h = sample_histogram(dist, shots, SeedSpec(seed, stream))
    return fit(h, posterior_weights(h, PRIOR))


class TestPercentileInterval:
    def test_index_arithmetic(self):
        values = np.arange(1.0, 1001.0)
        ci = percentile_interval(values, 0.05, "r")
        assert (ci.lower, ci.upper) == (50.0, 950.0)
        assert ci.level == pytest.approx(0.90)

    def test_degenerate_replicates(self):
        ci = percentile_interval(np.full(100, 3.25), 0.05)
        assert (ci.lower, ci.upper) == (3.25, 3.25)

    def test_small_alpha_clamps_lower_index(self):
        # l = floor(100 * 0.004) = 0 clamps to the first order statistic;
        # m = floor(100 * 0.996) = 99 stays an interior index
        values = np.arange(1.0, 101.0)
        ci = percentile_interval(values, 0.004, "vq")
        assert ci.lower == 1.0
        assert ci.upper == 99.0

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            percentile_interval(np.array([3.0, 1.0, 2.0]), 0.05)
        with pytest.raises(ValueError, match="^need a 1-D vector of at least 2 estimates$"):
            percentile_interval(np.array([3.0]), 0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("interval", [
        percentile_interval, lambda values, alpha: bc_interval(values, 0.2, alpha),
    ], ids=["percentile", "bc"])
    def test_non_finite_estimates_rejected(self, interval, bad):
        # NaN is not caught by the sort check: it compares false both ways
        for values in ([0.1, bad, 0.3], sorted([0.1, 0.2, bad])):
            with pytest.raises(ValueError, match="^estimates must be finite$"):
                interval(values, 0.4)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1])
    @pytest.mark.parametrize("interval", [
        percentile_interval, lambda values, alpha: bc_interval(values, 5.5, alpha),
    ], ids=["percentile", "bc"])
    def test_alpha_domain(self, interval, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 0.5\)"):
            interval(np.arange(1.0, 11.0), alpha)

    @pytest.mark.parametrize("interval", [
        percentile_interval, lambda values, alpha: bc_interval(values, 5.5, alpha),
    ], ids=["percentile", "bc"])
    def test_alpha_message(self, interval):
        with pytest.raises(ValueError) as info:
            interval(np.arange(1.0, 11.0), 0.5)
        assert str(info.value) == "alpha must be in (0, 0.5), got 0.5"


class TestBcInterval:
    def test_matches_percentile_when_unbiased(self):
        values = np.arange(1.0, 1001.0)
        ci = bc_interval(values, point_estimate=500.0, alpha=0.05, parameter="r")
        ref = percentile_interval(values, 0.05, "r")
        assert ci.lower == pytest.approx(ref.lower, abs=1e-12)
        assert ci.upper == pytest.approx(ref.upper, abs=1e-12)

    @settings(max_examples=100, deadline=None, database=None)
    @given(k=st.integers(1, 50), alpha=st.sampled_from((0.05, 0.1, 0.2, 0.25)),
           seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-1e3, 1e3),
           scale=st.floats(1e-6, 1e3))
    def test_reduces_to_percentile_when_unbiased(self, k, alpha, seed, offset, scale):
        # n is a multiple of 20, so n * alpha is an integer for every alpha
        # drawn; with n/2 replicates at or below the point estimate,
        # b = Phi^-1(1/2) = 0 exactly and the BC levels are alpha, 1 - alpha
        # up to rounding.
        n = 20 * k
        values = offset + scale * np.cumsum(np.random.default_rng(seed).uniform(0.1, 1.0, n))
        assume(np.all(np.diff(values) > 0.0))
        ci = bc_interval(values, values[n // 2 - 1], alpha)
        ref = percentile_interval(values, alpha)
        tol = 1e-12 * (values[-1] - values[0])
        assert abs(ci.lower - ref.lower) <= tol and abs(ci.upper - ref.upper) <= tol

    @pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_estimate_rejected(self, point):
        with pytest.raises(ValueError, match=f"^point_estimate must be finite, got {point}$"):
            bc_interval([0.1, 0.2, 0.3, 0.4], point, 0.1)

    def test_degenerate_replicates_collapse(self):
        values = np.full(50, 1.5)
        ci = bc_interval(values, point_estimate=1.5, alpha=0.05)
        assert (ci.lower, ci.upper) == (1.5, 1.5)

    def test_point_outside_range_is_clamped(self):
        values = np.arange(1.0, 101.0)
        lo = bc_interval(values, point_estimate=-5.0, alpha=0.05)
        hi = bc_interval(values, point_estimate=500.0, alpha=0.05)
        assert lo.lower <= lo.upper
        assert hi.lower <= hi.upper
        assert lo.lower == 1.0
        assert hi.upper == pytest.approx(100.0, abs=1e-6)
        # above all 1000 replicates the upper level Phi(2 b + z_0.95), with
        # b = Phi^-1(999/1000), times 1000 rounds onto n itself: the last
        # order statistic, not an interpolation past it
        top = bc_interval(np.arange(1.0, 1001.0), point_estimate=2000.0, alpha=0.05)
        assert top.upper == 1000.0

    def test_bias_shifts_interval_upward(self):
        # point estimate above the replicate median -> b > 0 -> both
        # endpoints move to higher order statistics
        values = np.arange(1.0, 1001.0)
        ci = bc_interval(values, point_estimate=700.0, alpha=0.05)
        ref = percentile_interval(values, 0.05)
        assert ci.lower > ref.lower
        assert ci.upper > ref.upper

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        values = np.sort(rng.normal(size=500))
        wide = bc_interval(values, 0.1, 0.025)
        narrow = bc_interval(values, 0.1, 0.05)
        assert wide.lower <= narrow.lower
        assert narrow.upper <= wide.upper
        wide_p = percentile_interval(values, 0.025)
        narrow_p = percentile_interval(values, 0.05)
        assert wide_p.lower <= narrow_p.lower
        assert narrow_p.upper <= wide_p.upper


class TestParametricBootstrap:
    def test_reproducible_two_replicates(self):
        point = fit_state(1.0, 0.01, 2000)
        a = parametric_bootstrap(point, 2000, 2, PRIOR, SeedSpec(5, 100))
        b = parametric_bootstrap(point, 2000, 2, PRIOR, SeedSpec(5, 100))
        assert a == b
        assert len(a) == 2

    def test_vacuum_point_gives_vacuum_replicates(self):
        h_counts = tuple([500] + [0] * 20)
        from fockfit.estimation import FockHistogram

        h = FockHistogram(h_counts, 0, 500)
        point = fit(h, posterior_weights(h, PRIOR))
        reps = parametric_bootstrap(point, 500, 10, PRIOR, SeedSpec(6, 0))
        assert all(r == 0.0 for r in reps.r)
        assert all(n == 0.0 for n in reps.nbar)

    def test_spread_matches_direct_monte_carlo(self):
        truth = SqueezedThermalState(1.0, 0.01)
        point = fit_state(1.0, 0.01, 10 ** 4)
        reps = parametric_bootstrap(point, 10 ** 4, 1000, PRIOR, SeedSpec(7, 0))
        boot_std = np.std(reps.sorted_values("r"), ddof=1)
        direct = [
            fit_state(truth.r, truth.nbar, 10 ** 4, stream, seed=900).state.r
            for stream in range(400)
        ]
        direct_std = np.std(direct, ddof=1)
        assert boot_std < 2.0 * direct_std
        assert boot_std > 0.5 * direct_std

    def test_refits_start_at_the_point_estimate(self):
        # Replicates are drawn from the point estimate and refit from it,
        # under its scale: no grid stage, so every row counts fewer than
        # the grid's 3600 evaluations.
        point = fit_state(1.0, 0.05, 10 ** 4)
        reps = parametric_bootstrap(point, 10 ** 4, 40, PRIOR, SeedSpec(9, 3))
        counts = _sample_blocks([(fock_distribution(point.variances, 20), 10 ** 4, 3, 40)], 9)
        v = point.variances
        assert reps == _fit_points(counts / 10 ** 4, posterior_weights(counts, PRIOR),
                                   start=(v.vq, v.vp), scale=_scale(point, 10 ** 4, 40))[1]
        assert reps.converged.all() and reps.evaluations.max() < 60 * 60

    @pytest.mark.parametrize("r, nbar, shots", [
        (1.0, 0.05, 10 ** 4), (2.5, 0.01, 10 ** 4), (0.0, 0.01, 10 ** 4), (2.0, 5.0, 100)])
    def test_replicates_stop_within_the_scale_of_rounding_floor_refits(self, r, nbar, shots):
        # Against refits run to the rounding floor from the same start
        # (fit_batch(start=point.variances)), no row ends more than 2 tau
        # (estimation._SE_TOL) away in V's metric where the Gauss-Newton
        # step measures the distance left.  At N = 100 the residual
        # curvature that J^T W J leaves out is large, so the undamped
        # Gauss-Newton step falls short of it in slowly converging rows:
        # there 4 of 1000 rows end beyond 2 tau, the farthest at 8.1 tau.
        # No converged flag changes, and no row takes more evaluations.
        point = fit_state(r, nbar, shots)
        v = point.variances
        counts = _sample_blocks([(fock_distribution(v, 20), shots, 3, 1000)], 9)
        freqs, weights = counts / shots, posterior_weights(counts, PRIOR)
        scale = _scale(point, shots, 1000)
        x, reps = _fit_points(freqs, weights, start=(v.vq, v.vp), scale=scale)
        assert reps == parametric_bootstrap(point, shots, 1000, PRIOR, SeedSpec(9, 3))
        x_floor, floor = _fit_points(freqs, weights, start=(v.vq, v.vp))
        d = x - x_floor
        dist = np.sqrt(scale[0] * d[0] ** 2 + 2.0 * scale[1] * d[0] * d[1] + scale[2] * d[1] ** 2)
        far = dist > 2.0 * _SE_TOL
        if shots < 1000:
            assert np.count_nonzero(far) <= 10 and dist.max() <= 20.0 * _SE_TOL
        else:
            assert not far.any()
        np.testing.assert_array_equal(reps.converged, floor.converged)
        assert np.all(reps.evaluations <= floor.evaluations)
        assert reps.evaluations.mean() < 0.7 * floor.evaluations.mean()

    def test_vacuum_point_keeps_the_point_fit_rules(self):
        # At the vacuum all of P is in bin 0, so V = 0 has no inverse: the
        # replicates stop by the point fit's rules only, exactly as
        # fit_batch(start=point.variances) refits them.
        h = FockHistogram((500,) + (0,) * 20, 0, 500)
        point = fit(h, posterior_weights(h, PRIOR))
        assert np.isnan(_scale(point, 500, 1)).all()
        reps = parametric_bootstrap(point, 500, 10, PRIOR, SeedSpec(6, 0))
        counts = _sample_blocks([(fock_distribution(point.variances, 20), 500, 0, 10)], 6)
        assert reps == fit_batch(counts / 500, posterior_weights(counts, PRIOR),
                                 start=point.variances)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: at small N the objective has separated local minima, and a "
        "refit from the point estimate can end in a higher one than the grid finds"))
    def test_refits_end_no_higher_than_grid_started_refits(self):
        # The point fit refines from the best grid point; a replicate must
        # not end above the same statistic on its counts.
        point = fit_state(2.0, 5.0, 100, seed=23)
        reps = parametric_bootstrap(point, 100, 1000, PRIOR, SeedSpec(42, 0))
        counts = _sample_blocks([(fock_distribution(point.variances, 20), 100, 0, 1000)], 42)
        grid = fit_batch(counts / 100, posterior_weights(counts, PRIOR))
        assert np.all(reps.objective <= grid.objective * (1.0 + 1e-12))

    @pytest.mark.parametrize("n_shots, n_b, name", [
        (1000.5, 10, "n_shots"), (True, 10, "n_shots"), (1000, 10.5, "n_b"), (1000, 10.0, "n_b"),
    ])
    def test_non_integer_counts_rejected(self, n_shots, n_b, name):
        point = fit_state(0.5, 0.1, 1000)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            parametric_bootstrap(point, n_shots, n_b, PRIOR, SeedSpec(0, 0))

    def test_nonconverged_point_rejected(self):
        point = fit_state(0.5, 0.1, 500)
        bad = FitResult(point.variances, point.state, point.objective, False, 1)
        with pytest.raises(ValueError):
            parametric_bootstrap(bad, 500, 10, PRIOR, SeedSpec(0, 0))

    def test_failure_policy(self, monkeypatch):
        point = fit_state(0.5, 0.1, 300)
        _failing_refits(monkeypatch, lambda rows: np.arange(rows) % 3 == 2)
        with pytest.raises(BootstrapError, match="^10 of 30 bootstrap refits"):
            parametric_bootstrap(point, 300, 30, PRIOR, SeedSpec(1, 0))

    def test_rare_failures_excluded_not_fatal(self, monkeypatch):
        point = fit_state(0.5, 0.1, 300)
        _failing_refits(monkeypatch, lambda rows: np.arange(rows) == 4)
        reps = parametric_bootstrap(point, 300, 1000, PRIOR, SeedSpec(1, 0))
        assert reps.n_failed == 1
        assert reps.sorted_values("nbar").shape == (999,)


class TestIntervals:
    @pytest.mark.parametrize("methods", [METHODS, ("bc", "percentile"), ("percentile",)])
    def test_parameters_by_methods_in_order(self, methods):
        point = fit_state(0.5, 0.1, 1000)
        reps = parametric_bootstrap(point, 1000, 50, PRIOR, SeedSpec(3, 0))
        got = intervals(reps, point, 0.05, methods)
        assert [(ci.parameter, ci.method) for ci in got] == [
            (p, m) for p in PARAMETERS for m in methods
        ]
        points = parameter_values(point.variances, point.state)
        for ci in got:
            values = reps.sorted_values(ci.parameter)
            ref = (percentile_interval(values, 0.05, ci.parameter) if ci.method == "percentile"
                   else bc_interval(values, points[ci.parameter], 0.05, ci.parameter))
            assert ci == ref

    def test_unknown_method_rejected(self):
        point = fit_state(0.5, 0.1, 1000)
        reps = parametric_bootstrap(point, 1000, 10, PRIOR, SeedSpec(3, 0))
        with pytest.raises(ValueError, match="bca"):
            intervals(reps, point, 0.05, ("bca",))

    @pytest.mark.parametrize("alpha, methods, message", [
        (0.5, METHODS, "alpha must be in (0, 0.5), got 0.5"),
        (0.05, ("bca",), "unknown method 'bca'"),
        (0.05, (), "method must name at least one of ('percentile', 'bc')"),
    ], ids=["alpha=0.5", "bca", "no-method"])
    def test_bad_arguments_rejected_before_sorting(self, monkeypatch, alpha, methods, message):
        point = fit_state(0.5, 0.1, 1000)
        reps = parametric_bootstrap(point, 1000, 10, PRIOR, SeedSpec(3, 0))

        def no_sort(*args):
            pytest.fail("a replicate column was sorted before the arguments were checked")

        monkeypatch.setattr(FitBatch, "sorted_values", no_sort)
        with pytest.raises(ValueError) as info:
            intervals(reps, point, alpha, methods)
        assert str(info.value) == message

    def test_bad_alpha_reported_before_too_few_replicates(self):
        point = fit_state(0.5, 0.1, 1000)
        reps = parametric_bootstrap(point, 1000, 10, PRIOR, SeedSpec(3, 0))
        one = replace(reps, **{f.name: getattr(reps, f.name)[:1] for f in fields(reps)})
        with pytest.raises(ValueError, match="^need a 1-D vector of at least 2 estimates$"):
            intervals(one, point, 0.05, METHODS)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 0.5\), got 0.5$"):
            intervals(one, point, 0.5, METHODS)


class TestCoverage:
    def test_small_run_reproducible_and_sane(self):
        res1 = coverage_probability(
            SqueezedThermalState(0.5, 0.1), 1000, 5, 40, 0.05,
            ("percentile", "bc"), PRIOR, SeedSpec(11, 0),
        )
        res2 = coverage_probability(
            SqueezedThermalState(0.5, 0.1), 1000, 5, 40, 0.05,
            ("percentile", "bc"), PRIOR, SeedSpec(11, 0),
        )
        assert res1 == res2
        for method in ("percentile", "bc"):
            for parameter in bt.PARAMETERS:
                assert 0.0 <= res1.coverage[method][parameter] <= 1.0

    def test_single_method_accepted(self):
        res = coverage_probability(
            SqueezedThermalState(0.5, 0.1), 500, 3, 20, 0.05,
            "percentile", PRIOR, SeedSpec(12, 0),
        )
        assert set(res.coverage) == {"percentile"}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            coverage_probability(
                SqueezedThermalState(0.5, 0.1), 500, 2, 20, 0.05,
                "bca", PRIOR, SeedSpec(12, 0),
            )

    @pytest.mark.parametrize("bad, name", [
        ({"method": ()}, "method"),
        ({"n_b": -1}, "n_b"),
        ({"n_b": 1}, "n_b"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 0.5}, "alpha"),
        ({"n_experiments": 0}, "n_experiments"),
        ({"n_shots": 0}, "n_shots"),
        ({"n_shots": 1000.5}, "n_shots"),
        ({"n_shots": True}, "n_shots"),
        ({"n_experiments": 2.5}, "n_experiments"),
        ({"n_experiments": 2.0}, "n_experiments"),
        ({"n_b": 10.5}, "n_b"),
    ], ids=["no-method", "n_b=-1", "n_b=1", "alpha=0", "alpha=0.5", "n_experiments=0",
            "n_shots=0", "n_shots=1000.5", "n_shots=True", "n_experiments=2.5",
            "n_experiments=2.0", "n_b=10.5"])
    def test_bad_arguments_rejected_before_sampling(self, monkeypatch, bad, name):
        calls = []

        def recorder(label):
            return lambda *args, **kw: calls.append(label)

        monkeypatch.setattr(bt, "_sample_blocks", recorder("_sample_blocks"))
        monkeypatch.setattr(bt, "fit_batch", recorder("fit_batch"))
        monkeypatch.setattr(bt, "_fit_points", recorder("_fit_points"))
        args = {"n_shots": 500, "n_experiments": 2, "n_b": 20, "alpha": 0.05,
                "method": METHODS, **bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            coverage_probability(SqueezedThermalState(0.5, 0.1), args["n_shots"],
                                 args["n_experiments"], args["n_b"], args["alpha"],
                                 args["method"], PRIOR, SeedSpec(12, 0))
        assert calls == []

    def test_layout_past_the_last_stream_rejected_before_sampling(self, monkeypatch):
        # two experiments of 1 + 20 streams, then two of 1 + 30: 104 streams
        # from stream_index, which must end at or below 2**64 - 1
        state = SqueezedThermalState(0.5, 0.1)
        cells = [(state, 500, 20), (state, 500, 30)]
        top = bt._coverage(cells, 2, 0.05, METHODS, PRIOR, SeedSpec(12, MAX_SEED - 103), 20)
        assert [res.n_experiments for res in top] == [2, 2]
        calls = []

        def recorder(label):
            return lambda *args, **kw: calls.append(label)

        for name in ("_sample_blocks", "fit_batch", "_fit_points"):
            monkeypatch.setattr(bt, name, recorder(name))
        # the last layout is checked before its experiments are listed
        for first, n_exp, run in ((MAX_SEED - 102, 2, cells), (MAX_SEED, 2, cells[:1]),
                                  (0, 10 ** 18, cells)):
            n = n_exp * sum(n_b + 1 for _, _, n_b in run)
            with pytest.raises(ValueError, match=f"^stream_index: the {n} streams from {first} "
                                                 f"run past stream {MAX_SEED}$"):
                bt._coverage(run, n_exp, 0.05, METHODS, PRIOR, SeedSpec(12, first), 20)
        with pytest.raises(ValueError, match="^stream_index: the 42 streams from "):
            coverage_probability(state, 500, 2, 20, 0.05, METHODS, PRIOR,
                                 SeedSpec(12, MAX_SEED - 40))
        assert calls == []

    @staticmethod
    def _check_per_experiment_chain(monkeypatch, cells, n_exp, tasks):
        """The coverage pass over ``cells`` equals the public
        single-experiment path: sample, fit, bootstrap from the
        experiment's stream block, intervals.  Each experiment's replicate
        set equals its standalone parametric_bootstrap, and the replicate
        engine's tasks hold experiments of the n_b listed in ``tasks``."""
        alpha, seed = 0.25, SeedSpec(11, 7)
        want, chain_reps, start = [], [], seed.stream_index
        for truth, shots, n_b in cells:
            true_values = parameter_values(to_variances(truth), truth)
            dist = fock_distribution(to_variances(truth), 20)
            hits = []
            for i in range(n_exp):
                h = sample_histogram(dist, shots, SeedSpec(seed.master_seed, start))
                point = fit(h, posterior_weights(h, PRIOR))
                assert point.converged
                chain_reps.append(parametric_bootstrap(point, shots, n_b, PRIOR,
                                                       SeedSpec(seed.master_seed, start + 1)))
                hits.append({(ci.parameter, ci.method): ci.contains(true_values[ci.parameter])
                             for ci in intervals(chain_reps[-1], point, alpha, METHODS)})
                start += n_b + 1
            coverage = {m: {p: sum(h[(p, m)] for h in hits) / n_exp for p in PARAMETERS}
                        for m in METHODS}
            std_error = {m: {p: math.sqrt(c * (1.0 - c) / n_exp) for p, c in coverage[m].items()}
                         for m in METHODS}
            want.append(bt.CoverageResult(coverage, std_error, n_exp, n_exp))
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        real_replicates, engine_tasks, engine_reps = bt._replicates, [], []

        def recording_replicates(task):
            engine_tasks.append([n_b for _, _, n_b, _ in task[0]])
            engine_reps.extend(real_replicates(task))
            return engine_reps[-len(task[0]):]

        monkeypatch.setattr(bt, "_replicates", recording_replicates)
        got = bt._coverage(cells, n_exp, alpha, METHODS, PRIOR, seed, 20)
        assert engine_tasks == tasks
        assert engine_reps == chain_reps
        assert got == want
        if len(cells) == 1:
            truth, shots, n_b = cells[0]
            assert coverage_probability(truth, shots, n_exp, n_b, alpha, METHODS, PRIOR,
                                        seed) == want[0]

    def test_equals_per_experiment_chain(self, monkeypatch):
        # Narrow intervals at a biased state, so hits vary between
        # experiments; the six experiments share one task.
        self._check_per_experiment_chain(
            monkeypatch, [(SqueezedThermalState(2.5, 0.01), 10 ** 4, 30)], 6, [[30] * 6])

    # Tasks hold consecutive whole experiments of at most 1024 replicate
    # rows: cells of different n_b, with task boundaries inside both cells
    # and a task holding experiments of both; and experiments of over 1024
    # replicates (one task each, refit in two lock-step blocks).
    @pytest.mark.parametrize("cells, n_exp, tasks", [
        ([(SqueezedThermalState(2.5, 0.01), 10 ** 4, 300),
          (SqueezedThermalState(0.5, 0.1), 500, 150)], 5,
         [[300] * 3, [300, 300, 150], [150] * 3, [150]]),
        ([(SqueezedThermalState(1.0, 0.05), 10 ** 4, 1100)], 2, [[1100], [1100]]),
    ], ids=["boundaries-inside-cells", "over-1024-replicates"])
    def test_tasks_equal_per_experiment_chain(self, monkeypatch, cells, n_exp, tasks):
        self._check_per_experiment_chain(monkeypatch, cells, n_exp, tasks)


    def test_pooled_replicate_sets_keep_columns_read_only(self, monkeypatch):
        # At two workers the replicate sets come back pickled from the pool.
        monkeypatch.setenv("FOCKFIT_THREADS", "2")
        point = fit_state(1.0, 0.05, 10 ** 4)
        tasks = [([(point, 10 ** 4, 20, 100 * i)], PRIOR, 5, 20, "posterior") for i in range(2)]
        sets = [each for batches in bt.parallel_map(bt._replicates, tasks) for each in batches]
        assert sets == [parametric_bootstrap(point, 10 ** 4, 20, PRIOR, SeedSpec(5, 100 * i))
                        for i in range(2)]
        assert not any(column.flags.writeable for each in sets for column in vars(each).values())

    def test_peak_memory_grows_with_the_returned_replicates(self, monkeypatch):
        # tracemalloc sees numpy's array buffers.  At one worker, 15 more
        # experiments of 200 replicates add 3000 rows of the replicate
        # sets' columns, which the pass holds until it counts the hits
        # (measured growth: 1.28 times their bytes); the tasks' working
        # sets are bounded by the task size.  One count matrix over every
        # experiment's replicates would add 3000 rows of 22 int64 counts
        # (3.6 times the columns' bytes) on its own.  The slack is 1.5 times
        # the columns' bytes.
        monkeypatch.setenv("FOCKFIT_THREADS", "1")

        def peak(n_exp):
            tracemalloc.start()
            try:
                coverage_probability(SqueezedThermalState(1.0, 0.05), 10 ** 4, n_exp, 200, 0.05,
                                     METHODS, PRIOR, SeedSpec(5, 0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # build the cached interval and model constants
        reps = parametric_bootstrap(fit_state(1.0, 0.05, 10 ** 4), 10 ** 4, 2, PRIOR,
                                    SeedSpec(5, 0))
        row_bytes = sum(column.itemsize for column in vars(reps).values())
        assert peak(20) - peak(5) <= 1.5 * 15 * 200 * row_bytes


def _scale(point, n_shots, n_b, scheme="posterior"):
    """The replicate engine's scale for n_b rows drawn from ``point``: V^-1
    at the point estimate, under the weights of the expected counts."""
    v = point.variances
    expected = fock_distribution(v, 20).all_probs[None] * n_shots
    cov = _covariance(np.array(_fit_coords(v.vq, v.vp))[:, None],
                      weights_for(expected, scheme, PRIOR).T, float(n_shots))
    return np.repeat(bt._precision(cov), n_b, axis=1)


def _failing_refits(monkeypatch, failed):
    """Make every replicate refinement report the rows where
    ``failed(rows)`` is true as not converged."""
    real_fit_points = bt._fit_points

    def flaky_fit_points(*args, **kw):
        x, reps = real_fit_points(*args, **kw)
        return x, replace(reps, converged=reps.converged & ~failed(len(reps)))

    monkeypatch.setattr(bt, "_fit_points", flaky_fit_points)


def _failing_points(monkeypatch, n_rows, failed):
    """Make every fit_batch call (the point fits) of ``n_rows`` rows report
    the rows in ``failed`` as not converged."""
    real_fit_batch = bt.fit_batch

    def flaky_fit_batch(freqs, weights, **kw):
        out = real_fit_batch(freqs, weights, **kw)
        if len(out) != n_rows:
            return out
        return replace(out, converged=out.converged & ~np.isin(np.arange(n_rows), failed))

    monkeypatch.setattr(bt, "fit_batch", flaky_fit_batch)


def _record_bootstraps(monkeypatch):
    """Run the pool inline and record the first stream and the weighting
    scheme of every experiment the replicate engine bootstraps."""
    monkeypatch.setenv("FOCKFIT_THREADS", "1")
    real_replicates = bt._replicates
    streams, schemes = [], []

    def recording_replicates(task):
        experiments, _, _, _, scheme = task
        streams.extend(first for _, _, _, first in experiments)
        schemes.extend(scheme for _ in experiments)
        return real_replicates(task)

    monkeypatch.setattr(bt, "_replicates", recording_replicates)
    return streams, schemes


class TestCoverageFailurePolicy:
    STATE = SqueezedThermalState(0.5, 0.1)

    def test_failed_point_fit_excludes_its_experiment(self, monkeypatch):
        # 1 failure in 100 experiments is within the 1% allowance
        _failing_points(monkeypatch, 100, [37])
        streams, schemes = _record_bootstraps(monkeypatch)
        res = coverage_probability(self.STATE, 300, 100, 3, 0.25, "percentile", PRIOR,
                                   SeedSpec(2, 0))
        assert (res.n_experiments, res.n_used) == (100, 99)
        assert streams == [i * 4 + 1 for i in range(100) if i != 37]
        # the replicates are refit under the point fits' weighting scheme
        assert schemes == ["posterior"] * 99

    def test_too_many_failed_point_fits_raise_before_any_bootstrap(self, monkeypatch):
        _failing_points(monkeypatch, 10, [4])
        streams, _ = _record_bootstraps(monkeypatch)
        with pytest.raises(BootstrapError, match="1 of 10 experiments"):
            coverage_probability(self.STATE, 300, 10, 20, 0.05, METHODS, PRIOR, SeedSpec(2, 0))
        assert streams == []

    def test_too_many_failed_replicates_raise(self, monkeypatch):
        # the three experiments' 30 replicates share one refinement; the
        # second loses 1 of its 30 refits (above 1%), the third 2: the
        # first failing experiment in order is reported
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        failed = [30 + 12, 60 + 3, 60 + 9]
        _failing_refits(monkeypatch, lambda rows: np.isin(np.arange(rows), failed))
        with pytest.raises(BootstrapError, match="^1 of 30 bootstrap refits"):
            coverage_probability(self.STATE, 300, 3, 30, 0.05, METHODS, PRIOR, SeedSpec(2, 0))


class TestConfidenceIntervalType:
    def test_validation(self):
        with pytest.raises(ValueError):
            bt.ConfidenceInterval(1.0, 0.5, 0.9, "bc", "r")
        with pytest.raises(ValueError):
            bt.ConfidenceInterval(0.0, 0.5, 0.9, "bca", "r")
        with pytest.raises(ValueError):
            bt.ConfidenceInterval(0.0, 0.5, 0.9, "bc", "sigma")
        with pytest.raises(ValueError, match=r"^level must be in \(0, 1\), got 1.0$"):
            bt.ConfidenceInterval(0.0, 0.5, 1.0, "bc", "r")
        for lower, upper in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                             (0.0, math.inf), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="^need finite lower <= upper in "):
                bt.ConfidenceInterval(lower, upper, 0.9, "bc", "r")

    def test_contains(self):
        ci = bt.ConfidenceInterval(0.0, 1.0, 0.9, "bc", "r")
        assert ci.contains(0.5) and not ci.contains(1.5)
