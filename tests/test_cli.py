import argparse
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fockfit.cli as cli
from fockfit.bootstrap import intervals, parametric_bootstrap
from fockfit.cli import EXIT_IO, EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, main
from fockfit.estimation import FitResult, PriorShape, fit, weights_for
from fockfit.sampling import SeedSpec


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestProbs:
    def test_vacuum_rows(self, capsys):
        assert run(["probs", "--r", "0", "--nbar", "0", "--nmax", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,probability"
        assert lines[1] == "0,1.0"
        assert lines[2] == "1,0.0"
        assert lines[-1] == "overflow,0.0"

    def test_thermal_values(self, capsys):
        assert run(["probs", "--r", "0", "--nbar", "1", "--nmax", "10"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for n in range(11):
            label, value = lines[1 + n].split(",")
            assert int(label) == n
            assert float(value) == pytest.approx(2.0 ** -(n + 1), rel=1e-12)

    def test_unphysical_variances_fail(self, capsys):
        assert run(["probs", "--vq", "0.2", "--vp", "0.2"]) == EXIT_USAGE

    def test_contradictory_styles_fail(self):
        assert run(["probs", "--r", "1", "--nbar", "0", "--vq", "1", "--vp", "1"]) == EXIT_USAGE

    def test_variance_style_works(self, capsys):
        assert run(["probs", "--vq", "0.5", "--vp", "0.5", "--nmax", "2"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("n,probability\n0,1.0")


class TestStateFlags:
    @pytest.mark.parametrize("flags, where", [
        ([], "--r/--nbar/--vq/--vp: expected"),
        (["--r", "1"], "--r: expected --r with --nbar, or --vq with --vp"),
        (["--r", "1", "--nbar", "0", "--vq", "1"], "--r/--nbar/--vq: expected"),
        (["--r", "1", "--nbar", "-1"], "--r/--nbar: thermal occupation nbar"),
        (["--vq", "0.2", "--vp", "0.2"], "--vq/--vp: "),
    ])
    def test_usage_error_names_the_flags(self, capsys, flags, where):
        assert run(["probs", *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"fockfit: {where}")


class TestSimulate:
    def test_vacuum_counts(self, tmp_path):
        out = tmp_path / "counts.json"
        assert run(["simulate", "--r", "0", "--nbar", "0", "--shots", "100",
                    "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["format_version"] == 1
        assert doc["counts"][0] == 100
        assert sum(doc["counts"]) + doc["overflow"] == doc["total"] == 100

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--r", "1.0", "--nbar", "0.05", "--shots", "5000",
                "--seed", "7", "--stream", "2"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_thermal_ground_count_near_half(self, tmp_path):
        out = tmp_path / "counts.json"
        assert run(["simulate", "--r", "0", "--nbar", "1", "--shots", "100000",
                    "--seed", "3", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert abs(doc["counts"][0] - 50000) < 5 * math.sqrt(25000)

    def test_exact_counts_are_expected_values(self, tmp_path):
        out = tmp_path / "exact.json"
        assert run(["simulate", "--r", "0", "--nbar", "1", "--shots", "1024",
                    "--exact", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        # thermal nbar=1: P(n) = 2^-(n+1), so expected counts halve each bin
        assert doc["counts"][:5] == [512, 256, 128, 64, 32]
        assert sum(doc["counts"]) + doc["overflow"] == 1024


class TestEstimate:
    def test_vacuum_round_trip(self, tmp_path):
        counts = tmp_path / "counts.json"
        est = tmp_path / "estimate.json"
        run(["simulate", "--r", "0", "--nbar", "0", "--shots", "200", "--out", str(counts)])
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_OK
        doc = read_json(est)
        assert doc["r"] == 0.0
        assert doc["nbar"] == 0.0
        assert doc["converged"] is True
        assert doc["weight_scheme"] == "posterior"

    def test_exact_pipeline_recovers_parameters(self, tmp_path):
        counts = tmp_path / "counts.json"
        est = tmp_path / "estimate.json"
        run(["simulate", "--r", "1.0", "--nbar", "0.01", "--shots", str(10 ** 12),
             "--exact", "--out", str(counts)])
        assert run(["estimate", "--counts", str(counts), "--from-exact",
                    "--out", str(est)]) == EXIT_OK
        doc = read_json(est)
        assert doc["weight_scheme"] == "uniform"
        assert doc["r"] == pytest.approx(1.0, rel=1e-6)
        assert doc["nbar"] == pytest.approx(0.01, rel=1e-4)
        vq_true = 0.51 * math.exp(-2.0)
        assert doc["vq"] == pytest.approx(vq_true, rel=1e-6)

    def test_malformed_json_fails_without_output(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text("{not json")
        est = tmp_path / "estimate.json"
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_USAGE
        assert not est.exists()

    def test_missing_file_is_io_error(self, tmp_path):
        est = tmp_path / "estimate.json"
        assert run(["estimate", "--counts", str(tmp_path / "nope.json"),
                    "--out", str(est)]) == EXIT_IO

    def test_schema_violation_detected(self, tmp_path, capsys):
        good = {"format_version": 1, "n_max": 2, "counts": [5, 3, 1], "overflow": 0, "total": 9}
        no_total = {k: v for k, v in good.items() if k != "total"}
        counts = tmp_path / "counts.json"
        est = tmp_path / "estimate.json"
        for doc, message in (
                ({**good, "total": 999}, "counts plus overflow must sum to total"),
                ([good], "expected a JSON object"),
                (no_total, "missing field 'total'"),
                ({**good, "n_max": 3}, "n_max does not match counts length"),
                ({**good, "counts": {"0": 5, "1": 3, "2": 1}}, "counts must be a list"),
                ({**good, "counts": [5, -3, 1]}, "counts must be >= 0, got -3")):
            counts.write_text(json.dumps(doc))
            assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"fockfit: {counts}: {message}\n"
            assert not est.exists()

    def test_counts_beyond_the_model_domain_rejected(self, tmp_path, capsys):
        # 80 bins is n_max = 79, above MAX_FOCK = 64
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({
            "format_version": 1, "n_max": 79, "counts": [50, 30] + [1] * 78,
            "overflow": 0, "total": 158,
        }))
        est = tmp_path / "estimate.json"
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_USAGE
        assert "n_max must be in [1, 64], got 79" in capsys.readouterr().err
        assert not est.exists()

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        counts = tmp_path / "counts.json"
        est = tmp_path / "estimate.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "300", "--out", str(counts)])
        real_fit = cli.est.fit

        def fake_fit(h, w, **kw):
            res = real_fit(h, w, **kw)
            return FitResult(res.variances, res.state, res.objective, False, res.evaluations)

        monkeypatch.setattr(cli.est, "fit", fake_fit)
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_NONCONVERGED
        assert read_json(est)["converged"] is False
        assert run(["estimate", "--counts", str(counts), "--allow-nonconverged",
                    "--out", str(est)]) == EXIT_OK


class TestCi:
    def test_intervals_written_for_all_parameters(self, tmp_path):
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "2000",
             "--seed", "5", "--out", str(counts)])
        assert run(["ci", "--counts", str(counts), "--replicates", "60",
                    "--alpha", "0.05", "--method", "bc", "--seed", "6",
                    "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        intervals = {e["parameter"]: e for e in doc["intervals"]}
        assert set(intervals) == {"vq", "vp", "r", "nbar"}
        for entry in intervals.values():
            assert entry["method"] == "bc"
            assert entry["level"] == pytest.approx(0.9)
            assert entry["lower"] <= entry["upper"]

    def test_reproducible(self, tmp_path):
        counts = tmp_path / "counts.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "1000",
             "--seed", "5", "--out", str(counts)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ci", "--counts", str(counts), "--replicates", "40",
                "--method", "percentile", "--seed", "9"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_percentile_uses_floor_indices(self, tmp_path, monkeypatch):
        # with 1000 replicates and alpha=0.05 the interval must be the
        # 50th and 950th order statistics of the replicate estimates
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "0", "--nbar", "0.5", "--shots", "500",
             "--seed", "1", "--out", str(counts)])

        import fockfit.bootstrap as bt

        captured = {}
        real = bt.percentile_interval

        def spy(values, alpha, parameter="nbar"):
            ci = real(values, alpha, parameter)
            if parameter == "nbar":
                captured["expected"] = (float(values[49]), float(values[949]))
                captured["got"] = (ci.lower, ci.upper)
            return ci

        monkeypatch.setattr(cli.bt, "percentile_interval", spy)
        assert run(["ci", "--counts", str(counts), "--replicates", "1000",
                    "--method", "percentile", "--seed", "2", "--out", str(out)]) == EXIT_OK
        assert captured["got"] == captured["expected"]


    @pytest.mark.parametrize("scheme", ["uniform", "mle"])
    def test_replicates_refit_under_the_weight_scheme(self, tmp_path, scheme):
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "1.0", "--nbar", "0.05", "--shots", "2000",
             "--seed", "5", "--out", str(counts)])
        assert run(["ci", "--counts", str(counts), "--weights", scheme, "--replicates", "60",
                    "--method", "bc", "--seed", "6", "--out", str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["weight_scheme"] == scheme
        got = [(e["parameter"], e["method"], e["level"], e["lower"], e["upper"])
               for e in doc["intervals"]]

        h = cli._counts_to_histogram(read_json(counts), str(counts))
        prior = PriorShape(1.0, 1.0)
        point = fit(h, weights_for(h, scheme, prior))

        def expected(refit_scheme):
            reps = parametric_bootstrap(point, h.total, 60, prior, SeedSpec(6, 0), h.n_max,
                                        scheme=refit_scheme)
            return [(ci.parameter, ci.method, ci.level, ci.lower, ci.upper)
                    for ci in intervals(reps, point, 0.05, ("bc",))]

        assert got == expected(scheme)
        assert got != expected("posterior")

    @pytest.mark.parametrize("alpha", ["0.7", "0.5", "0", "-0.1", "nan"])
    def test_bad_alpha_rejected_before_fitting(self, tmp_path, monkeypatch, capsys, alpha):
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "500", "--out", str(counts)])
        fits = []
        monkeypatch.setattr(cli.est, "fit", lambda *a, **kw: fits.append(a))
        assert run(["ci", "--counts", str(counts), "--replicates", "1000",
                    "--alpha", alpha, "--out", str(out)]) == EXIT_USAGE
        assert fits == []
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_message(self, tmp_path, monkeypatch, capsys):
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "500", "--out", str(counts)])
        fits = []
        monkeypatch.setattr(cli.est, "fit", lambda *a, **kw: fits.append(a))
        assert run(["ci", "--counts", str(counts), "--replicates", "1000",
                    "--alpha", "0.5", "--out", str(out)]) == EXIT_USAGE
        assert fits == []
        assert capsys.readouterr().err == "fockfit: --alpha must be in (0, 0.5), got 0.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("replicates", ["1", "0", "-5"])
    def test_too_few_replicates_rejected_before_fitting(self, tmp_path, monkeypatch, capsys,
                                                        replicates):
        counts = tmp_path / "counts.json"
        out = tmp_path / "ci.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "500", "--out", str(counts)])

        def no_fit(*args, **kwargs):
            raise AssertionError("ci fitted before rejecting --replicates")

        monkeypatch.setattr(cli.est, "fit", no_fit)
        assert run(["ci", "--counts", str(counts), "--replicates", replicates,
                    "--out", str(out)]) == EXIT_USAGE
        assert "--replicates" in capsys.readouterr().err
        assert not out.exists()


class TestFidelityCommand:
    def test_identical_states(self, capsys):
        assert run(["fidelity", "--state1", "r=1,nbar=0.1",
                    "--state2", "r=1,nbar=0.1"]) == EXIT_OK
        assert float(capsys.readouterr().out) == 1.0

    def test_vacuum_vs_thermal(self, capsys):
        assert run(["fidelity", "--state1", "r=0,nbar=0",
                    "--state2", "r=0,nbar=1"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.5, rel=1e-12)

    def test_vacuum_vs_squeezed_mixed_styles(self, capsys):
        assert run(["fidelity", "--state1", "vq=0.5,vp=0.5",
                    "--state2", "r=1,nbar=0"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(
            1.0 / math.cosh(1.0), rel=1e-10
        )

    def test_invalid_state_rejected(self, capsys):
        assert run(["fidelity", "--state1", "r=-1,nbar=0",
                    "--state2", "r=0,nbar=0"]) == EXIT_USAGE
        assert run(["fidelity", "--state1", "q=1", "--state2", "r=0,nbar=0"]) == EXIT_USAGE
        for state, message in (("r0.5", "expected key=value pairs, got 'r0.5'"),
                               ("r=abc", "bad number in 'r=abc'")):
            capsys.readouterr()
            assert run(["fidelity", "--state1", state, "--state2", "r=0,nbar=0"]) == EXIT_USAGE
            assert capsys.readouterr().err == f"fockfit: --state1: {message}\n"

    def test_repeated_key_rejected(self, capsys):
        assert run(["fidelity", "--state1", "r=1,r=2,nbar=0",
                    "--state2", "r=2,nbar=0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "fockfit: --state1: key 'r' given twice\n"
        assert captured.out == ""


class TestStudyCommand:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        return path

    def test_smoke_study_writes_reports(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "shot_counts": [300],
            "n_experiments": 2,
            "master_seed": 1,
        })
        out = tmp_path / "report.csv"
        assert run(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.exists()
        assert (tmp_path / "report.json").exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("state_r,state_nbar,shots,scheme")

    def test_unknown_field_reported(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "frobnicate": True,
        })
        out = tmp_path / "report.csv"
        assert run(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "frobnicate" in capsys.readouterr().err

    def test_weight_comparison_config(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "weight_comparison",
            "true_states": [{"r": 1.0, "nbar": 0.01}],
            "shot_counts": [500],
            "n_experiments": 3,
            "schemes": [
                {"scheme": "posterior", "nu": 1, "eta": 1},
                {"scheme": "uniform"},
            ],
            "master_seed": 3,
        })
        out = tmp_path / "report.csv"
        assert run(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert ",posterior," in lines[1]
        assert ",uniform," in lines[2]

    def test_coverage_smoke_config(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "coverage",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "shot_counts": [300],
            "n_experiments": 2,
            "n_b": 20,
            "master_seed": 1,
        })
        out = tmp_path / "report.csv"
        assert run(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        body = out.read_text().splitlines()
        assert len(body) == 3  # header + percentile row + bc row

    @pytest.mark.parametrize("json_out", [None, "report.json", "./report.json"])
    def test_reports_sharing_one_path_rejected_before_the_study(self, tmp_path, monkeypatch,
                                                                capsys, json_out):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "shot_counts": [300],
            "n_experiments": 2,
        })
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.studies, "run_study", lambda *a: pytest.fail("study ran"))
        args = ["study", "--config", str(cfg), "--out", "report.json"]
        if json_out is not None:
            args += ["--json-out", json_out]
        assert run(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("fockfit: --out/--json-out: ")
        assert not (tmp_path / "report.json").exists()

    def test_json_out_naming_a_directory_is_an_io_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "shot_counts": [300],
            "n_experiments": 2,
        })
        # a --json-out given, and the default, the CSV path with .json
        for taken, flags in ((tmp_path / "taken", ["--json-out", str(tmp_path / "taken")]),
                             (tmp_path / "report.json", [])):
            taken.mkdir()
            assert run(["study", "--config", str(cfg), "--out", str(tmp_path / "report.csv"),
                        *flags]) == EXIT_IO
            assert capsys.readouterr().err.startswith(
                f"fockfit: --json-out: cannot write {taken}: is a directory")
            assert taken.is_dir() and list(taken.iterdir()) == []
            # rejected before the study ran: no CSV without its JSON
            assert not (tmp_path / "report.csv").exists()

    def test_failed_report_write_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        # An OSError the checks before the study cannot foresee, such as a
        # full disk; forced here, since file permissions do not bind root.
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": "fidelity",
            "true_states": [{"r": 0.5, "nbar": 0.1}],
            "shot_counts": [300],
            "n_experiments": 2,
        })

        def broken_write(self, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.studies.StudyReport, "write_json", broken_write)
        assert run(["study", "--config", str(cfg), "--out", str(tmp_path / "report.csv")]) \
            == EXIT_IO
        assert capsys.readouterr().err == (
            "fockfit: cannot write report: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("kind", [["bias"], {"kind": "bias"}])
    def test_non_string_study_kind_is_a_usage_error(self, tmp_path, kind):
        cfg = self.write_config(tmp_path, {
            "format_version": 1,
            "study": kind,
            "true_states": [{"r": 0.5, "nbar": 0.1}],
        })
        out = tmp_path / "report.csv"
        proc = _fresh_python("from fockfit.cli import main; raise SystemExit(main())",
                             "study", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("fockfit: study: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this fockfit."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_does_not_load_the_process_pool():
    # The pool module is imported only when a coverage study starts a pool.
    proc = _fresh_python("import sys, fockfit.cli; "
                         "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_numpy_polynomial():
    # Only the tests' Wigner-overlap oracle uses Gauss-Hermite quadrature.
    proc = _fresh_python("import sys, fockfit.cli; print('numpy.polynomial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_does_not_load_numpy_random():
    # Only sampling and the studies use numpy's generators, at call time;
    # estimate and probs never pay for importing them.
    proc = _fresh_python("import sys, fockfit, fockfit.cli; print('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestOutputDirectoryCheckedFirst:
    """Every output path's directory is checked before any input is read or
    anything is simulated or fitted."""

    @pytest.mark.parametrize("command, flag", [
        (["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "100"], "--out"),
        (["estimate", "--counts", "counts.json"], "--out"),
        (["ci", "--counts", "counts.json", "--replicates", "1000"], "--out"),
        (["study", "--config", "study.json"], "--out"),
        (["study", "--config", "study.json", "--out", "report.csv"], "--json-out"),
    ])
    def test_missing_directory_fails_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                     command, flag):
        monkeypatch.chdir(tmp_path)
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "100",
             "--out", "counts.json"])
        (tmp_path / "study.json").write_text(json.dumps(
            {"study": "fidelity", "true_states": [{"r": 0.5, "nbar": 0.1}]}))
        before = sorted(tmp_path.iterdir())

        def no_work(*args, **kwargs):
            pytest.fail("work started before the output paths were checked")

        for owner, name in ((cli, "_read_json"), (cli, "sample_histogram"),
                            (cli.est, "fit_batch"), (cli.studies, "run_study")):
            monkeypatch.setattr(owner, name, no_work)
        missing = os.path.join("missing_dir", "out.json")
        assert run([*command, flag, missing]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"fockfit: {flag}: cannot write {missing}: ")
        assert sorted(tmp_path.iterdir()) == before
        (tmp_path / "taken").mkdir()
        before = sorted(tmp_path.iterdir())
        assert run([*command, flag, "taken"]) == EXIT_IO
        assert capsys.readouterr().err == f"fockfit: {flag}: cannot write taken: is a directory\n"
        assert sorted(tmp_path.iterdir()) == before


_PROBS = ["probs", "--r", "0.5", "--nbar", "0.1"]
_SIMULATE = ["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "100", "--out", "out.json"]
_CI = ["ci", "--counts", "counts.json", "--replicates", "50", "--out", "out.json"]
_SEED_RANGE = "must be in [0, 18446744073709551615]"


class TestIntegerFlagsNamed:
    """A bad integer flag is reported under the flag's own name, before any
    input is read or anything is computed, simulated or fitted."""

    CASES = [
        (_PROBS, "--nmax", "65", "must be in [1, 64], got 65"),
        (_PROBS, "--nmax", "0", "must be in [1, 64], got 0"),
        (_SIMULATE, "--nmax", "65", "must be in [1, 64], got 65"),
        (_SIMULATE, "--seed", "-1", f"{_SEED_RANGE}, got -1"),
        (_SIMULATE, "--seed", str(2 ** 64), f"{_SEED_RANGE}, got {2 ** 64}"),
        (_SIMULATE, "--stream", "-2", "must be >= 0, got -2"),
        (_SIMULATE, "--shots", "0", "must be >= 1, got 0"),
        (_SIMULATE + ["--exact"], "--shots", "0", "must be >= 1, got 0"),
        (_SIMULATE + ["--exact"], "--shots", "-5", "must be >= 1, got -5"),
        (_CI, "--seed", "-1", f"{_SEED_RANGE}, got -1"),
        (_CI, "--stream", "-2", "must be >= 0, got -2"),
    ]

    @pytest.mark.parametrize("command, flag, value, message", CASES, ids=[
        f"{c[0]}{'-exact' if '--exact' in c else ''}{f}={v}" for c, f, v, _ in CASES])
    def test_bad_value_names_the_flag(self, tmp_path, monkeypatch, capsys, command, flag,
                                      value, message):
        monkeypatch.chdir(tmp_path)
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "100",
             "--out", "counts.json"])
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())

        def no_work(*args, **kwargs):
            pytest.fail("work started before the integer flags were checked")

        for owner, name in ((cli, "_read_json"), (cli, "fock_distribution"),
                            (cli, "sample_histogram"), (cli.est, "fit")):
            monkeypatch.setattr(owner, name, no_work)
        # the flag given last is the one argparse keeps
        assert run([*command, flag, value]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"fockfit: {flag} {message}\n")
        assert sorted(tmp_path.iterdir()) == before


def _failing_fit_batch(monkeypatch, owner, n_rows, failed):
    """Make ``owner.fit_batch`` report the rows in ``failed`` of every call
    with ``n_rows`` rows as not converged."""
    real_fit_batch = owner.fit_batch

    def flaky_fit_batch(freqs, weights, **kw):
        out = real_fit_batch(freqs, weights, **kw)
        if len(out) != n_rows:
            return out
        return replace(out, converged=out.converged & ~np.isin(np.arange(n_rows), failed))

    monkeypatch.setattr(owner, "fit_batch", flaky_fit_batch)


def _failing_refits(monkeypatch, n_rows, failed):
    """Make every replicate refinement of ``n_rows`` rows report the rows
    in ``failed`` as not converged."""
    real_fit_points = cli.bt._fit_points

    def flaky_fit_points(*args, **kw):
        x, reps = real_fit_points(*args, **kw)
        if len(reps) == n_rows:
            reps = replace(reps, converged=reps.converged & ~np.isin(np.arange(n_rows), failed))
        return x, reps

    monkeypatch.setattr(cli.bt, "_fit_points", flaky_fit_points)


def _coverage_config(tmp_path, n_experiments=10):
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps({
        "study": "coverage", "true_states": [{"r": 0.5, "nbar": 0.1}], "shot_counts": [300],
        "n_experiments": n_experiments, "n_b": 20, "master_seed": 1,
    }))
    return path


class TestConvergenceFailureExits:
    """Exit 2: the reason on stderr and no output written."""

    def counts(self, tmp_path):
        counts = tmp_path / "counts.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "2000", "--seed", "5",
             "--out", str(counts)])
        return counts

    def test_ci_with_a_nonconverged_point_fit(self, tmp_path, monkeypatch, capsys):
        counts, out = self.counts(tmp_path), tmp_path / "ci.json"
        _failing_fit_batch(monkeypatch, cli.est, 1, [0])
        assert run(["ci", "--counts", str(counts), "--replicates", "50",
                    "--out", str(out)]) == EXIT_NONCONVERGED
        assert capsys.readouterr().err == "fit did not converge; no intervals computed\n"
        assert not out.exists()

    def test_ci_with_too_many_failed_replicate_refits(self, tmp_path, monkeypatch, capsys):
        counts, out = self.counts(tmp_path), tmp_path / "ci.json"
        _failing_refits(monkeypatch, 50, [7])
        assert run(["ci", "--counts", str(counts), "--replicates", "50",
                    "--out", str(out)]) == EXIT_NONCONVERGED
        assert capsys.readouterr().err == "1 of 50 bootstrap refits failed to converge\n"
        assert not out.exists()

    def test_coverage_study_with_too_many_failed_point_fits(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.setenv("FOCKFIT_THREADS", "1")
        _failing_fit_batch(monkeypatch, cli.bt, 10, [4])
        out = tmp_path / "report.csv"
        assert run(["study", "--config", str(_coverage_config(tmp_path)),
                    "--out", str(out)]) == EXIT_NONCONVERGED
        assert capsys.readouterr().err == "1 of 10 experiments failed to converge\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coverage.json"]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_is_a_usage_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("FOCKFIT_THREADS", value)
    out = tmp_path / "report.csv"
    assert run(["study", "--config", str(_coverage_config(tmp_path, 2)),
                "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("fockfit: FOCKFIT_THREADS must be ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coverage.json"]


class TestNonFinitePriorShape:
    @pytest.mark.parametrize("flag, field", [("--nu", "nu"), ("--eta", "eta")])
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    @pytest.mark.parametrize("command", ["estimate", "ci"])
    def test_bad_shape_rejected_before_any_fit(self, tmp_path, monkeypatch, capsys, flag,
                                               field, value, command):
        counts, out = tmp_path / "counts.json", tmp_path / "out.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "300", "--out", str(counts)])
        monkeypatch.setattr(cli.est, "fit_batch", lambda *a, **kw: pytest.fail("fit ran"))
        args = [command, "--counts", str(counts), flag, value, "--out", str(out)]
        if command == "ci":
            args += ["--replicates", "50"]
        assert run(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"fockfit: --{field}: expected a finite number > 0, got ")
        assert not out.exists()

    def test_message_names_the_flag(self, tmp_path, capsys):
        counts, out = tmp_path / "counts.json", tmp_path / "out.json"
        run(["simulate", "--r", "0.5", "--nbar", "0.1", "--shots", "300", "--out", str(counts)])
        assert run(["ci", "--counts", str(counts), "--eta", "nan", "--replicates", "50",
                    "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "fockfit: --eta: expected a finite number > 0, got nan\n"

    def test_json_infinity_in_a_study_config(self, tmp_path, monkeypatch, capsys):
        cfg, out = tmp_path / "study.json", tmp_path / "report.csv"
        cfg.write_text('{"study": "fidelity", "true_states": [{"r": 0.5, "nbar": 0.1}], '
                       '"prior": {"nu": Infinity, "eta": 1}}')
        monkeypatch.setattr(cli.studies, "run_study", lambda *a: pytest.fail("study ran"))
        assert run(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "fockfit: prior: nu: expected a finite number > 0, got inf\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study.json"]


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["simulate", "--r", "0", "--nbar", "0"]) == EXIT_USAGE


class TestOneParser:
    """main parses with one cached parser and looks its handler up by the
    command's name on every call."""

    def test_every_subcommand_has_a_handler(self):
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["ci", "estimate", "fidelity", "probs", "simulate", "study"]
        for name in sub.choices:
            assert callable(getattr(cli, f"cmd_{name}"))

    def test_parser_built_once_across_calls(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["probs", "--r", "0", "--nbar", "0", "--nmax", "2"],
                     ["fidelity", "--state1", "r=0,nbar=0", "--state2", "r=0,nbar=1"],
                     ["frobnicate"],
                     ["probs", "--vq", "0.5", "--vp", "0.5", "--nmax", "2"]):
            run(argv)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    def test_ci_then_estimate_match_the_goldens(self, tmp_path):
        golden = Path(__file__).parent / "golden"
        counts = str(golden / "inputs" / "counts-n20.json")
        assert run(["ci", "--counts", counts, "--replicates", "200", "--weights", "uniform",
                    "--method", "percentile", "--out", str(tmp_path / "ci.json")]) == EXIT_OK
        assert run(["estimate", "--counts", counts,
                    "--out", str(tmp_path / "estimate.json")]) == EXIT_OK
        for got, want in (("ci.json", "ci-uniform-percentile.json"),
                          ("estimate.json", "estimate-posterior.json")):
            assert (tmp_path / got).read_bytes() == (golden / "outputs" / want).read_bytes()

    def test_handler_looked_up_at_call_time(self, monkeypatch):
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_fidelity", lambda args: calls.append(args.state1) or 7)
        assert run(["fidelity", "--state1", "r=0,nbar=0", "--state2", "r=0,nbar=1"]) == 7
        assert calls == ["r=0,nbar=0"]


class TestCountsFileIntegers:
    @pytest.mark.parametrize("field, value", [
        ("counts", [True, False, 0]),
        ("overflow", False),
        ("total", True),
        ("n_max", True),
        ("format_version", True),
    ])
    def test_boolean_rejected_with_field_name(self, tmp_path, capsys, field, value):
        doc = {"format_version": 1, "n_max": 2, "counts": [1, 0, 0], "overflow": 0, "total": 1}
        doc[field] = value
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(doc))
        est = tmp_path / "estimate.json"
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not est.exists()


class TestDuplicateJsonKeys:
    """A key repeated in any object of a JSON input, at any depth, is an
    error naming the file and the key; json.load alone keeps the last."""

    COUNTS = '{"format_version": 1, "n_max": 2, "counts": [6, 3, 1], "overflow": 0, ' \
             '"total": 999, "total": 10}'
    STUDY = '{"format_version": 1, "study": "fidelity", "true_states": [%s], ' \
            '"shot_counts": [300], "n_experiments": %s, "master_seed": 1}'

    def check(self, capsys, path, key, argv):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"fockfit: {path}: duplicate key '{key}'\n"

    def test_counts_file(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(self.COUNTS)
        out = tmp_path / "estimate.json"
        self.check(capsys, counts, "total",
                   ["estimate", "--counts", str(counts), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("state, n_experiments, key", [
        ('{"r": 1.0, "nbar": 0.1, "r": 0.2}', "2", "r"),
        ('{"r": 0.5, "nbar": 0.1}', '2, "n_experiments": 3', "n_experiments"),
    ])
    def test_study_config(self, tmp_path, monkeypatch, capsys, state, n_experiments, key):
        cfg = tmp_path / "study.json"
        cfg.write_text(self.STUDY % (state, n_experiments))
        monkeypatch.setattr(cli.studies, "run_study", lambda *a: pytest.fail("study ran"))
        out = tmp_path / "report.csv"
        self.check(capsys, cfg, key, ["study", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()


class TestAtomicWrite:
    def test_concurrent_writers_never_clobber(self, tmp_path):
        # A fixed "<path>.tmp" lets one writer truncate or rename away the
        # other's temporary file; each writer needs its own.
        path = tmp_path / "out.json"
        texts = [f"{i}" * 5000 for i in range(8)]
        errors = []

        def writer(text):
            try:
                for _ in range(25):
                    cli._atomic_write(str(path), text)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_stale_tmp_file_is_not_touched(self, tmp_path):
        path = tmp_path / "out.json"
        other = tmp_path / "out.json.tmp"
        other.write_text("another writer's data")
        cli._atomic_write(str(path), "mine\n")
        assert path.read_text() == "mine\n"
        assert other.read_text() == "another writer's data"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(cli._CliError) as info:
            cli._atomic_write(str(path), "new\n")
        assert info.value.code == EXIT_IO
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_report_writes_are_atomic(self, tmp_path, monkeypatch):
        from fockfit.studies import StudyReport

        report = StudyReport(())
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("x")))
        for write in (report.write_csv, report.write_json):
            with pytest.raises(OSError):
                write(tmp_path / "report")
        assert list(tmp_path.iterdir()) == []
