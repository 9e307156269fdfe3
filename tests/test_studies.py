import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fockfit.bootstrap as bt
from fockfit.bootstrap import BootstrapError
from fockfit.model import SqueezedThermalState
from fockfit.sampling import SeedSpec
from fockfit.studies import (
    DEFAULT_SHOT_GRID,
    REPORT_COLUMNS,
    ConfigError,
    PriorShape,
    SchemeSpec,
    StudyConfig,
    bias_study,
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
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            small_cfg(**{field: value})

    def test_numpy_integers_accepted(self):
        i = np.int64
        cfg = small_cfg(shot_counts=(i(500),), n_experiments=i(2), n_b=(i(20),),
                        n_max=i(20), master_seed=i(99))
        assert fidelity_study(cfg) == fidelity_study(small_cfg(n_experiments=2))


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
    def test_exact_input_has_negligible_bias(self):
        cfg = small_cfg(n_experiments=1, exact_probabilities=True)
        row = bias_study(cfg).rows[0]
        assert abs(row.bias_r) < 1e-6
        assert abs(row.bias_nbar) < 1e-6

    def test_reports_all_four_parameters(self):
        row = bias_study(small_cfg()).rows[0]
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
        w11 = np.array(posterior_weights(h, PriorShape(1, 1)).weights)
        w22 = np.array(posterior_weights(h, PriorShape(2, 2)).weights)
        ratio = w11 / w22
        assert np.all(ratio < 10.0) and np.all(ratio > 0.1)


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
    cell and one parallel_map over every cell's bootstraps."""

    CFG = small_cfg(true_states=(STATE, SqueezedThermalState(0.5, 0.1)), n_experiments=3,
                    n_b=(20, 30, 25), master_seed=7)

    @staticmethod
    def _count_calls(monkeypatch):
        """Run the pool inline and log every fit_batch and parallel_map call
        (fit_batch with its row count); bootstrap refits log too."""
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        log = []
        real_fit_batch, real_parallel_map = bt.fit_batch, bt.parallel_map

        def counted_fit_batch(freqs, weights, **kw):
            log.append(("fit_batch", len(freqs)))
            return real_fit_batch(freqs, weights, **kw)

        def counted_parallel_map(fn, items):
            log.append(("parallel_map", len(items)))
            return real_parallel_map(fn, items)

        monkeypatch.setattr(bt, "fit_batch", counted_fit_batch)
        monkeypatch.setattr(bt, "parallel_map", counted_parallel_map)
        return log

    def test_one_point_batch_and_one_pool(self, monkeypatch):
        log = self._count_calls(monkeypatch)
        coverage_study(self.CFG)
        n_cells = 6
        # the point batch, then the one map, inside which each of the 18
        # experiments refits its replicates
        assert log[:2] == [("fit_batch", 3 * n_cells), ("parallel_map", 3 * n_cells)]
        assert sorted(set(log[2:])) == [("fit_batch", 20), ("fit_batch", 25), ("fit_batch", 30)]
        assert len(log[2:]) == 3 * n_cells

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
        log = self._count_calls(monkeypatch)
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
    """The study configs that README.md documents parse as documented."""

    def section(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        return text.split("### Study configs", 1)[1].split("\n## ", 1)[0]

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
