"""Smoke tests of the benchmark itself: every workload, untraced and
traced, at toy sizes (``--smoke``), plus the refusal to run without a
source tree.  They are not part of the package's test suite:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_spans(path: Path) -> None:
    doc = json.loads(path.read_text())
    width = len(doc["fields"])
    spans = doc["spans"]
    names = {s[3] for s in spans}
    assert {"bench.op", "cli.main", "estimation.fit_frequencies"} <= names
    for s in spans:
        assert len(s) == width
        span_id, parent, _, _, start, end, _ = s
        assert start <= end
        if parent >= 0:
            assert parent < span_id
            assert spans[parent][4] <= start and end <= spans[parent][5]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    report = {line.split()[0]: line.split()[1:3] for line in lines[:-1]
              if line and not line.startswith("#")}
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
        assert report[m["name"]][1] == m["unit"]
    if trace:
        (span_line,) = [line for line in lines if line.startswith("# spans: ")]
        check_spans(ROOT / span_line.removeprefix("# spans: "))


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
