import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockfit
import fockfit.bootstrap as bt
import fockfit.sampling as sampling
import fockfit.studies as studies
from fockfit.bootstrap import BootstrapError
from fockfit.estimation import _REFINE_BLOCK, FitBatch
from fockfit.model import SqueezedThermalState, fidelity, to_variances
from fockfit.sampling import SeedSpec
from fockfit.studies import (
    DEFAULT_SHOT_GRID,
    REPORT_COLUMNS,
    STUDY_KINDS,
    ConfigError,
    PriorShape,
    SchemeSpec,
    StudyConfig,
    StudyReport,
    StudyRow,
    coverage_study,
    fidelity_study,
    parse_config,
    run_study,
    weight_comparison_study,
)

STATE = SqueezedThermalState(1.0, 0.01)


def small_cfg(**kw):
    defaults = dict(
        true_states=(STATE,),
        shot_counts=(500,),
        n_experiments=8,
        n_b=(20,),
        master_seed=99,
    )
    defaults.update(kw)
    return StudyConfig(**defaults)


class TestConfigValidation:
    def test_defaults_mirror_paper(self):
        cfg = StudyConfig(true_states=(STATE,))
        assert cfg.n_experiments == 100
        assert cfg.n_max == 20
        assert cfg.alpha == 0.05
        assert cfg.schemes == (SchemeSpec("posterior", 1.0, 1.0),)
        assert cfg.shot_counts == DEFAULT_SHOT_GRID

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(true_states=())
        with pytest.raises(ValueError):
            small_cfg(alpha=0.6)
        with pytest.raises(ValueError):
            small_cfg(n_b=(1,))
        with pytest.raises(ValueError):
            small_cfg(schemes=(SchemeSpec("magic"),))
        for schemes in ((), ("posterior",)):
            with pytest.raises(ValueError, match="schemes"):
                small_cfg(schemes=schemes)


class TestStudyConfigRules:
    """StudyConfig checks its own fields, so a config built in Python meets
    the same rules as one read by parse_config."""

    @pytest.mark.parametrize("field, value", [
        *((field, bad) for field in ("shot_counts", "n_b")
          for bad in ((True,), (500.5,), ("500",))),
        *((field, bad) for field in ("n_experiments", "n_max", "master_seed")
          for bad in (True, 8.0, "8")),
        ("alpha", True),
        ("alpha", "0.05"),
        ("true_states", ((1.0, 0.01),)),
        ("exact_probabilities", "yes"),
        ("shot_counts", (2 ** 63,)),
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("state, reason", [
        (SqueezedThermalState(0.0, 1e160), "state beyond the model's float range"),
        (SqueezedThermalState(400.0, 0.0), "r = 400.0 is too large"),
    ])
    def test_state_beyond_the_model_named_by_index(self, state, reason):
        # a valid SqueezedThermalState whose variances the model rejects
        with pytest.raises(ConfigError, match=re.escape(f"true_states[1]: {reason}")):
            small_cfg(true_states=(STATE, state))

    def test_numpy_integers_accepted(self):
        i = np.int64
        cfg = small_cfg(shot_counts=(i(500),), n_experiments=i(2), n_b=(i(20),),
                        n_max=i(20), master_seed=i(99))
        assert fidelity_study(cfg) == fidelity_study(small_cfg(n_experiments=2))


class TestNumpyIntegerReports:
    @pytest.mark.parametrize("study", [fidelity_study, coverage_study])
    def test_reports_match_python_int_configs(self, tmp_path, monkeypatch, study):
        # Integer fields take numpy integers; the reports must not show it.
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        configs = {
            "python": small_cfg(n_experiments=2),
            "numpy": small_cfg(shot_counts=(np.int64(500),), n_experiments=np.int32(2),
                               n_b=(np.int64(20),), n_max=np.int16(20),
                               master_seed=np.uint64(99)),
        }
        for name, cfg in configs.items():
            report = study(cfg)
            report.write_csv(tmp_path / f"{name}.csv")
            report.write_json(tmp_path / f"{name}.json")
        for suffix in ("csv", "json"):
            python, numpy = (tmp_path / f"{name}.{suffix}" for name in configs)
            assert numpy.read_bytes() == python.read_bytes()


class TestNonFinitePriorShape:
    def test_scheme_spec_names_the_field(self):
        with pytest.raises(ValueError, match="^eta: expected a finite number > 0, got inf$"):
            SchemeSpec("posterior", 1, float("inf"))

    @pytest.mark.parametrize("kind, text, where", [
        ("fidelity", '"prior": {"nu": Infinity, "eta": 1}', "prior: nu"),
        ("weight_comparison",
         '"schemes": [{"scheme": "uniform"}, {"scheme": "posterior", "eta": Infinity}]',
         "schemes[1]: eta"),
    ])
    def test_json_infinity_rejected_by_path(self, kind, text, where):
        # Python's json module parses the non-standard literal Infinity.
        doc = json.loads(f'{{"study": "{kind}", "true_states": [{{"r": 1.0, "nbar": 0.01}}], '
                         f'{text}}}')
        with pytest.raises(ConfigError,
                           match="^" + re.escape(where) + ": expected a finite number > 0"):
            parse_config(doc)


class TestPriorOnlyForPosteriorWeights:
    """mle and uniform weights use no prior: a nu or eta that they would
    ignore is rejected, by field or by path, instead of reported as null."""

    @pytest.mark.parametrize("scheme", ["mle", "uniform"])
    def test_scheme_spec_rejects_an_ignored_prior(self, scheme):
        for kwargs, field in (({"nu": 0.5}, "nu"), ({"eta": 9}, "eta"),
                              ({"nu": 0.2, "eta": 9}, "nu")):
            with pytest.raises(ValueError, match=f"^{field}: {scheme} weights take no prior"):
                SchemeSpec(scheme, **kwargs)
        assert SchemeSpec(scheme, 1, 1.0) == SchemeSpec(scheme)
        assert SchemeSpec("posterior", 0.5, 9).nu == 0.5

    def test_scheme_spec_rejects_a_bool_prior(self):
        # a bool would reach the reports as "nu": true and True
        for nu, eta in ((True, 1.0), (1.0, False)):
            with pytest.raises(ValueError, match="expected a finite number > 0, got "):
                SchemeSpec("posterior", nu, eta)

    @pytest.mark.parametrize("entry, where", [
        ({"scheme": "mle", "nu": 0.2, "eta": 9}, "schemes[0].nu"),
        ({"scheme": "uniform", "eta": 1}, "schemes[0].eta"),
        ({"scheme": "mle", "nu": 1.0}, "schemes[0].nu"),
    ])
    def test_config_entry_rejects_the_key_by_path(self, entry, where):
        doc = TestParseConfig().good_doc()
        doc["study"] = "weight_comparison"
        doc["schemes"] = [entry, {"scheme": "posterior", "nu": 0.5, "eta": 2}]
        with pytest.raises(ConfigError, match="^" + re.escape(where) + f": {entry['scheme']} "
                                              "weights take no prior"):
            parse_config(doc)
        doc["schemes"][0] = {"scheme": entry["scheme"]}
        assert parse_config(doc)[1].schemes[1] == SchemeSpec("posterior", 0.5, 2)

    @pytest.mark.parametrize("scheme", ["mle", "uniform"])
    def test_top_level_prior_rejected_with_a_non_posterior_scheme(self, scheme):
        doc = {**TestParseConfig().good_doc(), "study": "bias", "weight_scheme": scheme}
        assert parse_config(doc)[1].schemes == (SchemeSpec(scheme),)
        doc["prior"] = {"nu": 0.3, "eta": 7}
        with pytest.raises(ConfigError, match=rf"^prior\.nu: {scheme} weights take no prior"):
            parse_config(doc)


class TestFidelityStudy:
    def test_runs_the_configured_scheme(self):
        cfg = small_cfg(n_experiments=3, schemes=(SchemeSpec("uniform"),))
        (row,) = fidelity_study(cfg).rows
        assert (row.scheme, row.nu, row.eta) == ("uniform", None, None)
        paired = weight_comparison_study(
            small_cfg(n_experiments=3, schemes=(SchemeSpec("posterior"), SchemeSpec("uniform"))))
        assert paired.rows[1] == row

    def test_exact_mode_reaches_unit_fidelity(self):
        cfg = small_cfg(n_experiments=1, exact_probabilities=True,
                        shot_counts=(10 ** 6,))
        row = fidelity_study(cfg).rows[0]
        assert row.mean_fidelity == pytest.approx(1.0, abs=1e-9)
        assert row.n_failed == 0

    def test_row_per_state_and_shots(self):
        cfg = small_cfg(
            true_states=(STATE, SqueezedThermalState(0.0, 0.1)),
            shot_counts=(200, 400),
            n_experiments=3,
        )
        report = fidelity_study(cfg)
        assert len(report.rows) == 4
        combos = {(r.state_r, r.shots) for r in report.rows}
        assert combos == {(1.0, 200), (1.0, 400), (0.0, 200), (0.0, 400)}

    def test_deterministic(self):
        cfg = small_cfg(n_experiments=4)
        assert fidelity_study(cfg) == fidelity_study(cfg)

    def test_monotone_information(self):
        cfg = small_cfg(shot_counts=(10 ** 3, 10 ** 5), n_experiments=20)
        rows = fidelity_study(cfg).rows
        by_shots = {r.shots: r.mean_infidelity for r in rows}
        assert by_shots[10 ** 5] < by_shots[10 ** 3]


class TestBiasStudy:
    def test_is_the_point_study_under_its_one_name(self):
        assert STUDY_KINDS["bias"] is fidelity_study
        assert not hasattr(fockfit, "bias_study")

    def test_exact_input_has_negligible_bias(self):
        cfg = small_cfg(n_experiments=1, exact_probabilities=True)
        row = run_study("bias", cfg).rows[0]
        assert abs(row.bias_r) < 1e-6
        assert abs(row.bias_nbar) < 1e-6

    def test_reports_all_four_parameters(self):
        row = run_study("bias", small_cfg()).rows[0]
        for name in ("r", "nbar", "vq", "vp"):
            assert getattr(row, f"bias_{name}") is not None
            assert getattr(row, f"std_{name}") is not None


class TestWeightComparison:
    def test_requires_two_schemes(self):
        with pytest.raises(ValueError):
            weight_comparison_study(small_cfg())

    def test_paired_seeds_make_identical_scheme_rows_identical(self):
        cfg = small_cfg(
            schemes=(SchemeSpec("posterior", 1, 1), SchemeSpec("posterior", 1, 1)),
        )
        rows = weight_comparison_study(cfg).rows
        assert rows[0] == rows[1]

    def test_posterior_beats_uniform_at_high_squeezing(self):
        cfg = StudyConfig(
            true_states=(SqueezedThermalState(2.5, 0.01),),
            shot_counts=(10 ** 4,),
            n_experiments=10,
            schemes=(SchemeSpec("posterior", 1, 1), SchemeSpec("uniform")),
            master_seed=12,
        )
        rows = weight_comparison_study(cfg).rows
        by_scheme = {r.scheme: r.mean_infidelity for r in rows}
        assert by_scheme["posterior"] < by_scheme["uniform"]

    def test_priors_give_weights_within_order_of_magnitude(self):
        from fockfit.estimation import posterior_weights
        from fockfit.model import fock_distribution, to_variances
        from fockfit.sampling import SeedSpec, sample_histogram

        dist = fock_distribution(to_variances(SqueezedThermalState(2.5, 0.01)), 20)
        h = sample_histogram(dist, 1000, SeedSpec(0, 0))
        w11 = posterior_weights(h, PriorShape(1, 1))
        w22 = posterior_weights(h, PriorShape(2, 2))
        ratio = w11 / w22
        assert np.all(ratio < 10.0) and np.all(ratio > 0.1)


THREE_SCHEMES = (SchemeSpec("posterior", 1.0, 1.0), SchemeSpec("mle"), SchemeSpec("uniform"))


def _one_cell_stats(state, fits):
    """A point study row's statistics for one cell's FitBatch, computed as a
    one-cell loop would: one-dimensional np.mean and np.std(ddof=1) of each
    compressed column, None below 1 and 2 used rows."""
    ok = fits.converged
    truth = to_variances(state)
    true_values = bt.parameter_values(truth, state)

    def spread(values):
        return float(np.std(values, ddof=1)) if values.shape[0] >= 2 else None

    stats = {"n_failed": fits.n_failed}
    for name in bt.PARAMETERS:
        est = getattr(fits, name)[ok]
        bias = float(np.mean(est) - true_values[name]) if est.shape[0] else None
        std = spread(est)
        stats[f"bias_{name}"] = bias
        stats[f"std_{name}"] = std
        stats[f"bias_over_std_{name}"] = (
            bias / std if bias is not None and std is not None and std > 0.0 else None)
    fid = fidelity(fits, truth)[ok]
    stats["mean_fidelity"] = float(np.mean(fid)) if fid.shape[0] else None
    stats["std_fidelity"] = spread(fid)
    stats["mean_infidelity"] = float(np.mean(1.0 - fid)) if fid.shape[0] else None
    stats["std_infidelity"] = spread(1.0 - fid)
    return stats


class TestPointStudyWithFailedRows:
    """Every statistic of a point study whose cells lose 0, 1, n - 2, n - 1
    and n rows to failed fits equals the one-cell computation bit for bit."""

    N = 12
    CFG = small_cfg(true_states=(STATE, SqueezedThermalState(0.5, 0.1)), shot_counts=(300, 2000),
                    n_experiments=N, schemes=THREE_SCHEMES, master_seed=5)
    # failed rows per cell, cells in (state, shots, scheme) order
    FAILED = (0, 1, N - 2, N - 1, N, 0, 1, N - 2, N - 1, N, 3, 0)

    def test_every_field_equals_the_one_cell_reference(self, monkeypatch):
        real_fit_batch, seen = studies.fit_batch, []
        rng = np.random.default_rng(3)
        failing = np.concatenate([k * self.N + rng.choice(self.N, size=n_failed, replace=False)
                                  for k, n_failed in enumerate(self.FAILED)]).astype(int)

        def fit_batch_with_failures(freqs, weights, **kw):
            fits = real_fit_batch(freqs, weights, **kw)
            converged = np.array(fits.converged)
            converged[failing] = False
            seen.append(FitBatch(fits.vq, fits.vp, fits.r, fits.nbar, fits.objective,
                                 converged, fits.evaluations))
            return seen[-1]

        monkeypatch.setattr(studies, "fit_batch", fit_batch_with_failures)
        rows = weight_comparison_study(self.CFG).rows
        (fits,) = seen
        assert len(rows) == len(self.FAILED)
        for k, row in enumerate(rows):
            state = SqueezedThermalState(row.state_r, row.state_nbar)
            want = _one_cell_stats(state, fits[k * self.N:(k + 1) * self.N])
            assert want["n_failed"] == self.FAILED[k]
            assert {name: getattr(row, name) for name in want} == want, f"cell {k}"
        assert rows[4].mean_fidelity is None and rows[3].std_fidelity is None
        assert rows[3].mean_fidelity is not None and rows[2].std_fidelity is not None


class TestPointStudyOnePass:
    """A point study is one columnar pass: one sampling pass, one model
    distribution per state, one weights call per scheme and one fit."""

    def test_one_sampling_pass_model_per_state_weights_per_scheme_and_fit(self, monkeypatch):
        log = []

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kw):
                log.append(name)
                return real(*args, **kw)
            monkeypatch.setattr(module, name, counted)

        count(sampling, "_stream_generators")
        for name in ("fock_distribution", "weights_for", "fit_batch"):
            count(studies, name)
        cfg = small_cfg(true_states=(STATE, SqueezedThermalState(0.5, 0.1)),
                        shot_counts=(200, 500, 1000), n_experiments=4, schemes=THREE_SCHEMES)
        rows = weight_comparison_study(cfg).rows
        assert len(rows) == 2 * 3 * 3
        assert Counter(log) == {"_stream_generators": 1, "fock_distribution": 2,
                                "weights_for": 3, "fit_batch": 1}


class TestCoverageStudy:
    @pytest.mark.parametrize("schemes", [
        (SchemeSpec("uniform"),),
        (SchemeSpec("mle"),),
        (SchemeSpec("posterior"), SchemeSpec("posterior")),
    ])
    def test_needs_one_posterior_scheme(self, schemes):
        with pytest.raises(ValueError, match="one posterior spec"):
            coverage_study(small_cfg(n_experiments=2, schemes=schemes))

    def test_prior_comes_from_the_scheme(self):
        cfg = small_cfg(n_experiments=2, schemes=(SchemeSpec("posterior", 2.0, 0.5),))
        row = coverage_study(cfg).rows[0]
        assert (row.scheme, row.nu, row.eta) == ("posterior", 2.0, 0.5)
        assert row == run_study(*parse_config({
            "study": "coverage", "true_states": [{"r": 1.0, "nbar": 0.01}],
            "shot_counts": [500], "n_experiments": 2, "n_b": 20, "master_seed": 99,
            "prior": {"nu": 2.0, "eta": 0.5}})).rows[0]

    def test_rows_per_method_and_nb(self):
        cfg = small_cfg(n_experiments=4, n_b=(20, 30))
        report = coverage_study(cfg)
        assert len(report.rows) == 4
        combos = {(r.method, r.n_b) for r in report.rows}
        assert combos == {("percentile", 20), ("bc", 20), ("percentile", 30), ("bc", 30)}
        for row in report.rows:
            assert 0.0 <= row.coverage_nbar <= 1.0
            assert row.se_coverage_nbar is not None


class TestReportSerialization:
    def test_csv_and_json_round_trip(self, tmp_path):
        report = fidelity_study(small_cfg(n_experiments=2))
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        report.write_csv(csv_path)
        report.write_json(json_path)
        header = csv_path.read_text().splitlines()[0].split(",")
        assert tuple(header) == REPORT_COLUMNS
        doc = json.loads(json_path.read_text())
        assert doc["format_version"] == 1
        assert doc["rows"][0]["mean_fidelity"] == report.rows[0].mean_fidelity


# Report cells of every kind the writers see: None, ints, signed zeros,
# subnormals, huge and non-finite floats, and arbitrary floats and text.
_CELL = st.one_of(
    st.none(), st.integers(-10 ** 20, 10 ** 20), st.floats(),
    st.sampled_from([0, 7, 0.0, -0.0, 5e-324, -5e-324, 1e300, math.inf, -math.inf, math.nan]))
_TEXT = st.text(st.characters(max_codepoint=127))
_ROWS = st.lists(st.builds(
    StudyRow, scheme=_TEXT, method=st.one_of(st.none(), _TEXT),
    **{name: _CELL for name in REPORT_COLUMNS if name not in ("scheme", "method")}), max_size=4)


def _reference_csv(rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for row in map(asdict, rows):
        writer.writerow(["" if row[c] is None else repr(float(row[c]))
                         if isinstance(row[c], float) else row[c] for c in REPORT_COLUMNS])
    return buf.getvalue()


class TestReportWriters:
    """write_json and write_csv give, byte for byte, json.dumps(indent=1)
    of the asdict rows and csv.writer's lines (CRLF endings included)."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writers")

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=_ROWS)
    @example(rows=[])
    def test_bytes_equal_the_reference_writers(self, out, rows):
        report = StudyReport(tuple(rows))
        report.write_json(out / "r.json")
        report.write_csv(out / "r.csv")
        want = json.dumps({"format_version": 1, "rows": [asdict(r) for r in rows]}, indent=1)
        assert (out / "r.json").read_bytes() == (want + "\n").encode("ascii")
        assert (out / "r.csv").read_bytes() == _reference_csv(rows).encode("ascii")

    @settings(max_examples=50, deadline=None, database=None)
    @given(rows=_ROWS)
    def test_to_dicts_are_fresh_asdict_copies(self, rows):
        report = StudyReport(tuple(rows))
        dicts = report.to_dicts()
        assert dicts == [asdict(r) for r in rows]
        for d in dicts:
            d["shots"] = "changed"
        assert report.to_dicts() == [asdict(r) for r in rows]
        assert all(r.shots != "changed" for r in report.rows)


class TestParseConfig:
    def good_doc(self):
        return {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 1.0, "nbar": 0.01}],
            "shot_counts": [500],
            "n_experiments": 2,
            "master_seed": 4,
        }

    def test_round_trip(self):
        kind, cfg = parse_config(self.good_doc())
        assert kind == "fidelity"
        assert cfg.true_states[0].r == 1.0
        report = run_study(kind, cfg)
        assert len(report.rows) == 1

    def test_unknown_field_named(self):
        doc = self.good_doc()
        doc["bogus_field"] = 1
        with pytest.raises(ConfigError, match="bogus_field"):
            parse_config(doc)

    def test_nested_field_path_named(self):
        doc = self.good_doc()
        doc["true_states"] = [{"r": 1.0, "nbar": 0.01, "phase": 0.2}]
        with pytest.raises(ConfigError, match=r"true_states\[0\].*phase"):
            parse_config(doc)

    @pytest.mark.parametrize("changes, message", [
        (None, "config: expected a JSON object"),
        ({"study": None}, "config: missing required field 'study'"),
        ({"true_states": None}, "config: missing required field 'true_states'"),
        ({"true_states": [0.5]}, "true_states[0]: expected an object with 'r' and 'nbar'"),
        ({"true_states": [{"r": -1, "nbar": 0.01}]},
         "true_states[0]: squeezing r must be >= 0, got -1.0"),
        ({"true_states": [{"r": 1.0, "nbar": 0.01}, {"r": 400, "nbar": 0}]},
         "true_states[1]: r = 400.0 is too large: exp(2r) overflows a float"),
        ({"true_states": [{"r": 0.0, "nbar": 1e308}]},
         "true_states[0]: vq must be finite and positive, got inf"),
        ({"true_states": [{"r": 0.0, "nbar": 1e160}]},
         "true_states[0]: state beyond the model's float range: (2vq + 1)(2vp + 1) = inf"),
        ({"shot_counts": [500, 2 ** 63]},
         "shot_counts: expected a nonempty list of integers in [1, 2**63 - 1]"),
        ({"true_states": {"r": 1.0, "nbar": 0.01}}, "true_states: expected a nonempty list"),
        ({"study": "weight_comparison", "schemes": ["posterior", "mle"]},
         "schemes[0]: expected an object with 'scheme'"),
        ({"prior": [1.0, 1.0]}, "prior: expected an object with 'nu' and 'eta'"),
    ], ids=["not-an-object", "no-study", "no-true_states", "state-not-an-object", "r=-1",
            "r=400", "nbar=1e308", "nbar=1e160", "shots=2**63",
            "true_states-not-a-list", "scheme-not-an-object", "prior-not-an-object"])
    def test_malformed_part_named_by_path(self, changes, message):
        # changes=None wraps the document in a list; a None value drops its field
        doc = [self.good_doc()]
        if changes is not None:
            doc = {k: v for k, v in {**doc[0], **changes}.items() if v is not None}
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(doc)

    def test_bad_study_kind(self):
        doc = self.good_doc()
        doc["study"] = "tomography"
        with pytest.raises(ConfigError, match="study"):
            parse_config(doc)

    @pytest.mark.parametrize("kind", [["bias"], {"kind": "bias"}])
    def test_non_string_study_kind_rejected(self, kind):
        doc = self.good_doc()
        doc["study"] = kind
        with pytest.raises(ConfigError, match="^study: "):
            parse_config(doc)
        with pytest.raises(ConfigError, match="^study: "):
            run_study(kind, small_cfg())

    @pytest.mark.parametrize("scheme", ["magic", ["posterior"], {"scheme": "posterior"}])
    def test_unknown_weight_scheme_named(self, scheme):
        doc = self.good_doc()
        doc["weight_scheme"] = scheme
        with pytest.raises(ConfigError, match="^weight_scheme: unknown weight scheme"):
            parse_config(doc)

    def test_scalar_n_b_accepted(self):
        doc = self.good_doc()
        doc["study"] = "coverage"
        doc["n_b"] = 50
        _, cfg = parse_config(doc)
        assert cfg.n_b == (50,)

    def test_weight_comparison_needs_schemes(self):
        doc = self.good_doc()
        doc["study"] = "weight_comparison"
        with pytest.raises(ConfigError, match="schemes"):
            parse_config(doc)


class TestThreadCountInvariance:
    # A coverage study runs its bootstraps on the process pool; a point
    # study fits in one serial batch whatever the worker count.
    @pytest.mark.parametrize("study, cfg", [
        (fidelity_study, small_cfg(n_experiments=6)),
        (coverage_study, small_cfg(n_experiments=3, shot_counts=(500, 800))),
    ], ids=["fidelity", "coverage"])
    def test_results_identical_serial_vs_parallel(self, monkeypatch, study, cfg):
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        serial = study(cfg)
        monkeypatch.setenv("FOCKFIT_THREADS", "2")
        parallel = study(cfg)
        assert serial == parallel

    def test_coverage_tasks_identical_serial_vs_parallel(self, monkeypatch):
        # Two experiments of 400 replicates fill a task, so the six
        # experiments run as three tasks, on the pool at two workers.
        cfg = small_cfg(n_experiments=3, shot_counts=(500, 800), n_b=(400,))
        real_parallel_map, items = bt.parallel_map, []

        def counted_parallel_map(fn, tasks):
            items.append(len(tasks))
            return real_parallel_map(fn, tasks)

        monkeypatch.setattr(bt, "parallel_map", counted_parallel_map)
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        serial = coverage_study(cfg)
        monkeypatch.setenv("FOCKFIT_THREADS", "2")
        parallel = coverage_study(cfg)
        assert items == [3, 3]
        assert serial == parallel


class TestBooleansRejected:
    """JSON booleans parse as bool, a subclass of int; integer fields must
    not accept them."""

    @pytest.mark.parametrize("field, value", [
        ("n_experiments", True),
        ("shot_counts", [True]),
        ("n_b", True),
        ("n_b", [20, False]),
        ("n_max", True),
        ("master_seed", False),
        ("format_version", True),
        ("alpha", True),
        ("study", True),
        ("weight_scheme", True),
    ])
    def test_boolean_rejected_with_field_name(self, field, value):
        doc = TestParseConfig().good_doc()
        doc[field] = value
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config(doc)


class TestFloatFieldsRejectNonNumbers:
    """Float fields take JSON numbers only: float() would turn a boolean
    into 0.0 or 1.0 and parse a numeric string."""

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("field, put", [
        ("true_states[0].r", lambda doc, v: doc["true_states"][0].update(r=v)),
        ("true_states[0].nbar", lambda doc, v: doc["true_states"][0].update(nbar=v)),
        ("prior.nu", lambda doc, v: doc.update(prior={"nu": v, "eta": 1.0})),
        ("prior.eta", lambda doc, v: doc.update(prior={"nu": 1.0, "eta": v})),
        ("schemes[1].nu", lambda doc, v: doc["schemes"][1].update(nu=v)),
        ("schemes[1].eta", lambda doc, v: doc["schemes"][1].update(eta=v)),
        ("alpha", lambda doc, v: doc.update(alpha=v)),
    ])
    def test_rejected_with_field_name(self, field, put, value):
        doc = TestParseConfig().good_doc()
        doc["study"] = "weight_comparison"
        doc["schemes"] = [{"scheme": "uniform"}, {"scheme": "posterior"}]
        parse_config(doc)
        put(doc, value)
        with pytest.raises(ConfigError, match=re.escape(field) + ": expected a number"):
            parse_config(doc)


class TestFieldsTheStudyIgnores:
    @pytest.mark.parametrize("scheme", ["uniform", "mle"])
    def test_coverage_takes_posterior_weights_only(self, scheme):
        doc = TestParseConfig().good_doc()
        doc["study"] = "coverage"
        doc["weight_scheme"] = "posterior"
        assert parse_config(doc)[1].schemes == (SchemeSpec("posterior"),)
        doc["weight_scheme"] = scheme
        with pytest.raises(ConfigError, match="weight_scheme"):
            parse_config(doc)

    @pytest.mark.parametrize("kind", ["coverage", "fidelity", "bias"])
    def test_schemes_only_for_weight_comparison(self, kind):
        doc = TestParseConfig().good_doc()
        doc["study"] = kind
        doc["schemes"] = [{"scheme": "uniform"}, {"scheme": "posterior"}]
        with pytest.raises(ConfigError, match="schemes"):
            parse_config(doc)

    def test_weight_comparison_rejects_a_prior_it_would_ignore(self):
        # each scheme carries its own nu and eta; only the default prior,
        # which existing configs send, is accepted
        doc = TestParseConfig().good_doc()
        doc["study"] = "weight_comparison"
        doc["schemes"] = [{"scheme": "uniform"}, {"scheme": "posterior"}]
        doc["prior"] = {"nu": 1, "eta": 1.0}
        parse_config(doc)
        for prior in ({"nu": 0.5, "eta": 0.5}, {"nu": 1.0, "eta": 2.0}):
            doc["prior"] = prior
            with pytest.raises(ConfigError, match="^prior: a weight comparison takes"):
                parse_config(doc)

    @pytest.mark.parametrize("kind, field, value", [
        ("coverage", "exact_probabilities", True),
        *((kind, field, value) for kind in ("fidelity", "bias", "weight_comparison")
          for field, value in (("n_b", 50), ("alpha", 0.1))),
        ("weight_comparison", "weight_scheme", "posterior"),
    ])
    def test_fields_the_kind_does_not_read_rejected(self, kind, field, value):
        doc = TestParseConfig().good_doc()
        doc["study"] = kind
        doc["prior"] = {"nu": 1.0, "eta": 1.0}  # read by all but weight_comparison
        if kind == "weight_comparison":
            doc["schemes"] = [{"scheme": "uniform"}, {"scheme": "posterior"}]
        parse_config(doc)
        doc[field] = value
        with pytest.raises(ConfigError, match=f"{field}: a {kind} study does not use"):
            parse_config(doc)


class TestCoverageStudyOnePass:
    """A coverage study is one coverage pass: one point fit_batch over every
    cell, then one parallel_map of the replicate engine over tasks of whole
    experiments, each task refined in one call."""

    CFG = small_cfg(true_states=(STATE, SqueezedThermalState(0.5, 0.1)), n_experiments=3,
                    n_b=(20, 30, 25), master_seed=7)

    @staticmethod
    def _count_calls(monkeypatch):
        """Run the pool inline and log every fit_batch call, parallel_map
        call and replicate refinement, each with its row or item count;
        parallel_map's tasks are kept in ``tasks``."""
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        log, tasks = [], []
        real_fit_batch, real_parallel_map = bt.fit_batch, bt.parallel_map
        real_fit_points = bt._fit_points

        def counted_fit_batch(freqs, weights, **kw):
            log.append(("fit_batch", len(freqs)))
            return real_fit_batch(freqs, weights, **kw)

        def counted_parallel_map(fn, items):
            log.append(("parallel_map", len(items)))
            tasks.extend(items)
            return real_parallel_map(fn, items)

        def counted_fit_points(freqs, *args, **kw):
            log.append(("refine", len(freqs)))
            return real_fit_points(freqs, *args, **kw)

        monkeypatch.setattr(bt, "fit_batch", counted_fit_batch)
        monkeypatch.setattr(bt, "parallel_map", counted_parallel_map)
        monkeypatch.setattr(bt, "_fit_points", counted_fit_points)
        return log, tasks

    def test_one_point_batch_and_one_pool(self, monkeypatch):
        # the 18 experiments' 450 replicate rows are one task
        assert self._check_one_pass(monkeypatch, self.CFG.n_b) == 1

    @pytest.mark.parametrize("n_b, n_tasks", [((300, 450, 400), 9), ((1100, 20), 12)],
                             ids=["two-experiments-a-task", "over-1024"])
    def test_tasks_of_whole_experiments(self, monkeypatch, n_b, n_tasks):
        assert self._check_one_pass(monkeypatch, n_b) == n_tasks

    def _check_one_pass(self, monkeypatch, n_b) -> int:
        """Run CFG with ``n_b``, check its calls and return its task count."""
        log, tasks = self._count_calls(monkeypatch)
        cfg = replace(self.CFG, n_b=n_b)
        coverage_study(cfg)
        n_cells = 2 * len(n_b)
        # every experiment's (n_b, first replicate stream), in stream order
        experiments, stream = [], 0
        for _ in cfg.true_states:
            for nb in n_b:
                experiments += [(nb, stream + i * (nb + 1) + 1) for i in range(3)]
                stream += 3 * (nb + 1)
        per_task = max(1, _REFINE_BLOCK // max(n_b))
        # the point batch, then the one map, whose tasks hold consecutive
        # whole experiments (at most _REFINE_BLOCK rows, or one experiment)
        # and refine their rows in one call each
        assert log == [("fit_batch", 3 * n_cells), ("parallel_map", len(tasks))] + [
            ("refine", sum(nb for _, _, nb, _ in task[0])) for task in tasks]
        assert [len(task[0]) for task in tasks[:-1]] == [per_task] * (len(tasks) - 1)
        assert [(nb, first) for task in tasks for _, _, nb, first in task[0]] == experiments
        assert all(sum(nb for _, _, nb, _ in task[0]) <= max(_REFINE_BLOCK, max(n_b))
                   for task in tasks)
        return len(tasks)

    def test_rows_equal_per_cell_calls_at_their_offsets(self, monkeypatch):
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        cfg = self.CFG
        expected, offset = [], 0
        for state in cfg.true_states:
            for shots in cfg.shot_counts:
                for nb in cfg.n_b:
                    res = bt.coverage_probability(state, shots, cfg.n_experiments, nb, cfg.alpha,
                                                  bt.METHODS, PriorShape(1.0, 1.0),
                                                  SeedSpec(cfg.master_seed, offset), cfg.n_max)
                    offset += cfg.n_experiments * (nb + 1)
                    for method in bt.METHODS:
                        expected.append((state, shots, nb, method, res.n_used,
                                         res.coverage[method], res.std_error[method]))
        rows = [(SqueezedThermalState(row.state_r, row.state_nbar), row.shots, row.n_b,
                 row.method, row.n_experiments - row.n_failed,
                 {p: getattr(row, f"coverage_{p}") for p in bt.PARAMETERS},
                 {p: getattr(row, f"se_coverage_{p}") for p in bt.PARAMETERS})
                for row in coverage_study(cfg).rows]
        assert rows == expected

    def test_failed_point_in_second_cell_raises_before_any_bootstrap(self, monkeypatch):
        log, _ = self._count_calls(monkeypatch)
        counted_fit_batch = bt.fit_batch
        n_rows = 3 * 6

        def failing_fit_batch(freqs, weights, **kw):
            out = counted_fit_batch(freqs, weights, **kw)
            if len(out) != n_rows:
                return out
            # row 4 is the second experiment of the second cell
            return replace(out, converged=out.converged & (np.arange(n_rows) != 4))

        monkeypatch.setattr(bt, "fit_batch", failing_fit_batch)
        with pytest.raises(BootstrapError, match="^1 of 3 experiments failed to converge$"):
            coverage_study(self.CFG)
        assert log == [("fit_batch", n_rows)]


class TestReadmeExamples:
    """README.md's library quick tour runs, and the study configs it
    documents parse as documented."""

    def section(self, heading="### Study configs"):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        return text.split(heading, 1)[1].split("\n## ", 1)[0]

    def test_library_quick_tour_runs(self, capsys):
        block = re.search(r"```python\n(.*?)```", self.section("## Library quick tour"),
                          re.S).group(1)
        exec(compile(block, "README.md quick tour", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("SqueezedThermalState(") and lines[0].endswith(" True")
        assert lines[1].startswith("1000 0 ")
        assert lines[2].startswith("ConfidenceInterval(") and "level=0.9" in lines[2]

    def test_json_block_is_a_coverage_config(self):
        block = re.search(r"```json\n(.*?)```", self.section(), re.S).group(1)
        kind, cfg = parse_config(json.loads(block))
        assert kind == "coverage"
        assert cfg.n_b == (1000, 2000)

    def test_schemes_snippet_is_a_weight_comparison(self):
        snippet = re.search(r'"schemes": (\[.*?\])', self.section(), re.S).group(1)
        doc = {"study": "weight_comparison", "true_states": [{"r": 1.0, "nbar": 0.01}],
               "schemes": json.loads(snippet)}
        kind, cfg = parse_config(doc)
        assert kind == "weight_comparison"
        assert cfg.schemes == (SchemeSpec("posterior", 1.0, 1.0), SchemeSpec("uniform"))
