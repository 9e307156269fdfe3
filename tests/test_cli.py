import json
import math
import os
import threading

import pytest

import fockfit.cli as cli
from fockfit.cli import EXIT_IO, EXIT_NONCONVERGED, EXIT_OK, EXIT_USAGE, main
from fockfit.estimation import FitResult


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

    def test_schema_violation_detected(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({
            "format_version": 1, "n_max": 2, "counts": [5, 3, 1],
            "overflow": 0, "total": 999,
        }))
        est = tmp_path / "estimate.json"
        assert run(["estimate", "--counts", str(counts), "--out", str(est)]) == EXIT_USAGE

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

    def test_invalid_state_rejected(self):
        assert run(["fidelity", "--state1", "r=-1,nbar=0",
                    "--state2", "r=0,nbar=0"]) == EXIT_USAGE
        assert run(["fidelity", "--state1", "q=1", "--state2", "r=0,nbar=0"]) == EXIT_USAGE


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


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["simulate", "--r", "0", "--nbar", "0"]) == EXIT_USAGE


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
