"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers once its assertions hold (run with -s to see them).  The
full-scale table reproductions carry the `extended` marker and are
deselected by default; run them with `pytest -m extended`.
"""

import math

import numpy as np
import pytest

import fockfit as ff
from fockfit.model import QuadratureVariances
from wigner_oracle import fock_probability_oracle

PRIOR = ff.PriorShape(1.0, 1.0)


def exact_frequencies(state, n_max=20):
    d = ff.fock_distribution(ff.to_variances(state), n_max)
    return np.array(d.probs + (d.overflow,))


def test_criterion_1_model_exactness():
    for nbar in (0.1, 1.0, 2.0):
        v = ff.to_variances(ff.SqueezedThermalState(0.0, nbar))
        for n in range(21):
            closed = nbar ** n / (nbar + 1.0) ** (n + 1)
            assert ff.fock_probability(v, n) == pytest.approx(closed, abs=1e-12)
    for r in (0.5, 1.0, 2.5):
        v = QuadratureVariances(0.5 * math.exp(-2 * r), 0.5 * math.exp(2 * r))
        sech = 1.0 / math.cosh(r)
        assert ff.fock_probability(v, 0) == pytest.approx(sech, abs=1e-12)
        assert ff.fock_probability(v, 2) == pytest.approx(
            0.5 * math.tanh(r) ** 2 * sech, abs=1e-12
        )
        for n in range(1, 21, 2):
            assert ff.fock_probability(v, n) == pytest.approx(0.0, abs=1e-12)
    print("[criterion 1] PASS - closed-form thermal and squeezed-vacuum "
          "probabilities reproduced to 1e-12")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for r in np.linspace(0.0, 2.5, 10):
        for nbar in np.linspace(0.0, 2.0, 10):
            v = ff.to_variances(ff.SqueezedThermalState(r, nbar))
            for n in range(21):
                diff = abs(fock_probability_oracle(v, n) - ff.fock_probability(v, n))
                worst = max(worst, diff)
                assert diff < 1e-8
    print(f"[criterion 2] PASS - Wigner-overlap quadrature agrees with the "
          f"closed form on the 10x10 grid, n<=20 (worst |diff| = {worst:.2e})")


def test_criterion_3_fidelity_sanity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = ff.to_variances(
            ff.SqueezedThermalState(rng.uniform(0, 2.5), rng.uniform(0, 2))
        )
        assert ff.fidelity(v, v) == pytest.approx(1.0, abs=1e-12)
    vac = QuadratureVariances(0.5, 0.5)
    for nbar in (0.2, 1.0, 3.0):
        th = ff.to_variances(ff.SqueezedThermalState(0.0, nbar))
        assert ff.fidelity(vac, th) == pytest.approx(1.0 / (nbar + 1.0), rel=1e-12)
    for r in (0.3, 1.0, 2.5):
        sq = QuadratureVariances(0.5 * math.exp(-2 * r), 0.5 * math.exp(2 * r))
        assert ff.fidelity(vac, sq) == pytest.approx(1.0 / math.cosh(r), rel=1e-12)
    for _ in range(100):
        a = ff.to_variances(ff.SqueezedThermalState(rng.uniform(0, 2), rng.uniform(0, 2)))
        b = ff.to_variances(ff.SqueezedThermalState(rng.uniform(0, 2), rng.uniform(0, 2)))
        assert ff.fidelity(a, b) == pytest.approx(ff.fidelity(b, a), abs=1e-14)
    print("[criterion 3] PASS - fidelity identities (self, thermal, squeezed) "
          "and symmetry verified")


def test_criterion_4_fit_recovery():
    w = np.ones(22)
    worst = 0.0
    for r in (0.0, 1.0, 2.5):
        for nbar in (0.001, 0.01, 0.1, 2.0):
            state = ff.SqueezedThermalState(r, nbar)
            truth = ff.to_variances(state)
            freqs = exact_frequencies(state)
            res = ff.fit_frequencies(freqs, w)
            assert res.converged
            rel = max(
                abs(res.variances.vq - truth.vq) / truth.vq,
                abs(res.variances.vp - truth.vp) / truth.vp,
            )
            worst = max(worst, rel)
            assert rel < 1e-6
            truth_obj = ff.objective(
                truth,
                ff.FockHistogram(
                    tuple(int(round(f * 10 ** 15)) for f in freqs[:-1]),
                    10 ** 15 - sum(int(round(f * 10 ** 15)) for f in freqs[:-1]),
                    10 ** 15,
                ),
                w,
            )
            assert res.objective <= truth_obj + 1e-12
    print(f"[criterion 4] PASS - exact-probability fits recover (vq, vp) on the "
          f"12-state grid (worst relative error = {worst:.2e})")


def test_criterion_5_paper_fidelity_numbers():
    cfg = ff.StudyConfig(
        true_states=(ff.SqueezedThermalState(2.5, 0.1),),
        shot_counts=(10000, 10100),
        n_experiments=100,
        master_seed=20260808,
    )
    # 3 Monte Carlo sigma around the reference mean of 0.9991, using the
    # reference spread of 0.0011 over 100 experiments
    tol = 3.0 * 0.0011 / math.sqrt(100)
    rows = ff.fidelity_study(cfg).rows
    for row in rows:
        assert row.n_failed == 0
        assert row.mean_fidelity == pytest.approx(0.9991, abs=tol)
        assert 0.00055 < row.std_fidelity < 0.0022
    low_cfg = ff.StudyConfig(
        true_states=(
            ff.SqueezedThermalState(0.0, 0.01),
            ff.SqueezedThermalState(0.5, 0.01),
        ),
        shot_counts=(10000,),
        n_experiments=100,
        master_seed=20260808,
    )
    low_rows = ff.fidelity_study(low_cfg).rows
    for row in low_rows:
        assert row.mean_fidelity > 0.9999
    print(
        "[criterion 5] PASS - (r=2.5, nbar=0.1): mean fidelity "
        f"{rows[0].mean_fidelity:.5f} (N=1e4), {rows[1].mean_fidelity:.5f} "
        f"(N=10100) vs reference 0.9991; std {rows[0].std_fidelity:.5f} vs "
        "0.0011; small-squeezing states exceed 0.9999"
    )


def test_criterion_6_bias_table_reduced():
    cfg = ff.StudyConfig(
        true_states=(
            ff.SqueezedThermalState(0.0, 0.01),
            ff.SqueezedThermalState(2.5, 0.01),
        ),
        shot_counts=(10000,),
        n_experiments=200,
        master_seed=11,
    )
    rows = ff.run_study("bias", cfg).rows
    by_r = {row.state_r: row for row in rows}
    bs_nbar = by_r[2.5].bias_over_std_nbar
    bs_r0 = by_r[0.0].bias_over_std_r
    # reference values -1.40 and +0.69 come from 1000-experiment runs; the
    # 3-sigma band combines our 200-experiment error with theirs, via
    # SE(B/sigma) ~ sqrt((1 + (B/sigma)^2/2) / n)
    assert bs_nbar < -1.0
    assert bs_nbar == pytest.approx(-1.40, abs=0.33)
    assert bs_r0 > 0.0
    assert bs_r0 == pytest.approx(0.69, abs=0.26)
    print(
        f"[criterion 6] PASS - B/sigma(nbar | r=2.5) = {bs_nbar:+.2f} "
        f"(reference -1.40), B/sigma(r | r=0) = {bs_r0:+.2f} (reference +0.69)"
    )


@pytest.mark.extended
def test_criterion_6_bias_table_full():
    cfg = ff.StudyConfig(
        true_states=tuple(
            ff.SqueezedThermalState(r, 0.01) for r in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
        ),
        shot_counts=(10000,),
        n_experiments=1000,
        master_seed=11,
    )
    rows = ff.run_study("bias", cfg).rows
    reference = {
        0.0: {"r": 0.69, "vp": 0.68, "vq": -0.68, "nbar": 0.069},
        0.5: {"r": -0.16, "vp": -0.19, "vq": 0.013, "nbar": -0.25},
        1.0: {"r": -0.24, "vp": -0.32, "vq": 0.16, "nbar": -0.64},
        1.5: {"r": -0.020, "vp": -0.12, "vq": -0.085, "nbar": -0.90},
        2.0: {"r": 0.27, "vp": 0.094, "vq": -0.44, "nbar": -1.098},
        2.5: {"r": 0.45, "vp": 0.15, "vq": -0.72, "nbar": -1.40},
    }
    for row in rows:
        table = reference[row.state_r]
        for name, target in table.items():
            got = getattr(row, f"bias_over_std_{name}")
            # both sides are 1000-experiment Monte Carlo estimates
            se = math.sqrt(2.0 * (1.0 + target ** 2 / 2.0) / 1000.0)
            assert got == pytest.approx(target, abs=3.0 * se), (row.state_r, name)
    print("[criterion 6 extended] PASS - full 1000-experiment table matches "
          "the reference B/sigma entries within 3 sigma")


def test_criterion_7_coverage_smoke():
    res = ff.coverage_probability(
        ff.SqueezedThermalState(2.5, 0.01), 10000, 20, 200, 0.05,
        ("percentile", "bc"), PRIOR, ff.SeedSpec(42, 0),
    )
    perc = res.coverage["percentile"]["nbar"]
    bc = res.coverage["bc"]["nbar"]
    assert bc > perc
    print(
        f"[criterion 7 smoke] PASS - nbar coverage at (r=2.5, nbar=0.01): "
        f"bias-corrected {bc:.2f} > percentile {perc:.2f}"
    )


@pytest.mark.extended
def test_criterion_7_coverage_tables_full():
    res = ff.coverage_probability(
        ff.SqueezedThermalState(2.5, 0.01), 10000, 100, 1000, 0.05,
        ("percentile", "bc"), PRIOR, ff.SeedSpec(20260808, 0),
    )
    perc = res.coverage["percentile"]["nbar"]
    bc = res.coverage["bc"]["nbar"]
    assert perc == pytest.approx(0.15, abs=3 * math.sqrt(0.15 * 0.85 / 100))
    assert bc == pytest.approx(0.74, abs=3 * math.sqrt(0.74 * 0.26 / 100))
    res0 = ff.coverage_probability(
        ff.SqueezedThermalState(0.0, 0.01), 10000, 100, 1000, 0.05,
        ("percentile", "bc"), PRIOR, ff.SeedSpec(20260808, 0),
    )
    perc_r = res0.coverage["percentile"]["r"]
    assert perc_r == pytest.approx(0.98, abs=3 * math.sqrt(0.98 * 0.02 / 100))
    print(
        f"[criterion 7 extended] PASS - (2.5, 0.01): percentile nbar {perc:.2f} "
        f"(reference 0.15), BC nbar {bc:.2f} (reference 0.74); (0, 0.01): "
        f"percentile r {perc_r:.2f} (reference 0.98)"
    )


def test_criterion_8_weight_scheme_ordering():
    cfg = ff.StudyConfig(
        true_states=(ff.SqueezedThermalState(2.5, 0.01),),
        shot_counts=(10000,),
        n_experiments=100,
        schemes=(ff.SchemeSpec("posterior", 1, 1), ff.SchemeSpec("uniform")),
        master_seed=4711,
    )
    rows = ff.weight_comparison_study(cfg).rows
    by_scheme = {row.scheme: row.mean_infidelity for row in rows}
    assert by_scheme["posterior"] < by_scheme["uniform"]
    print(
        f"[criterion 8] PASS - paired mean infidelity at (r=2.5, nbar=0.01): "
        f"posterior {by_scheme['posterior']:.2e} < uniform {by_scheme['uniform']:.2e}"
    )


def test_criterion_9_determinism(monkeypatch, tmp_path):
    state = ff.SqueezedThermalState(0.5, 0.1)
    run = lambda: ff.coverage_probability(
        state, 800, 4, 20, 0.05, ("percentile", "bc"), PRIOR, ff.SeedSpec(13, 0)
    )
    monkeypatch.setenv("FOCKFIT_THREADS", "1")
    serial = run()
    monkeypatch.setenv("FOCKFIT_THREADS", str(max(2, __import__("os").cpu_count() or 2)))
    threaded = run()
    assert serial == threaded
    monkeypatch.delenv("FOCKFIT_THREADS")

    from fockfit.cli import main

    for name in ("a", "b"):
        counts = tmp_path / f"counts_{name}.json"
        ci_out = tmp_path / f"ci_{name}.json"
        assert main(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "1500",
                     "--seed", "21", "--out", str(counts)]) == 0
        assert main(["ci", "--counts", str(counts), "--replicates", "50",
                     "--method", "bc", "--seed", "22", "--out", str(ci_out)]) == 0
    assert (tmp_path / "counts_a.json").read_bytes() == (tmp_path / "counts_b.json").read_bytes()
    assert (tmp_path / "ci_a.json").read_bytes() == (tmp_path / "ci_b.json").read_bytes()
    print("[criterion 9] PASS - identical results across thread counts and "
          "bit-identical seeded CLI pipelines")
