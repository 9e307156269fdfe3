import json
import re

import numpy as np
import pytest

from fockfit.model import SqueezedThermalState
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
        assert cfg.prior == PriorShape(1.0, 1.0)
        assert cfg.shot_counts == DEFAULT_SHOT_GRID

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(true_states=())
        with pytest.raises(ValueError):
            small_cfg(alpha=0.6)
        with pytest.raises(ValueError):
            small_cfg(n_b=(1,))
        with pytest.raises(ValueError):
            small_cfg(weight_scheme="magic")


class TestFidelityStudy:
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
    def test_results_identical_serial_vs_parallel(self, monkeypatch):
        cfg = small_cfg(n_experiments=6)
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        serial = fidelity_study(cfg)
        monkeypatch.setenv("FOCKFIT_THREADS", "2")
        parallel = fidelity_study(cfg)
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
    ])
    def test_boolean_rejected_with_field_name(self, field, value):
        doc = TestParseConfig().good_doc()
        doc[field] = value
        with pytest.raises(ConfigError, match=field):
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
        assert parse_config(doc)[1].weight_scheme == "posterior"
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
