"""Byte-identity of the CLI's outputs against tests/golden/outputs, at one
and two worker threads (see tests/golden/regenerate.py)."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockfit

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_output_is_committed():
    assert sorted(golden.output_names()) == sorted(p.name for p in golden.OUTPUTS.iterdir())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_the_golden_files(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("FOCKFIT_THREADS", threads)
    golden.write_outputs(tmp_path)
    mismatches = [golden.first_difference(name, (golden.OUTPUTS / name).read_bytes(),
                                          (tmp_path / name).read_bytes())
                  for name in golden.output_names()]
    assert [m for m in mismatches if m] == []


def test_outputs_match_the_golden_files_on_numpys_baseline_code(tmp_path):
    # numpy runs CPU-specific SIMD code for some functions, such as sinh and
    # expm1.  With every dispatched feature this CPU has switched off, numpy
    # runs its baseline code, and the outputs must still be the golden
    # bytes.  On a CPU with none of them, this is the default path.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    off = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    src = os.path.dirname(os.path.dirname(fockfit.__file__))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import importlib.util, sys; from pathlib import Path; "
            "from numpy._core._multiarray_umath import __cpu_features__ as cpu; "
            "assert not any(cpu[name] for name in sys.argv[3:]); "
            "spec = importlib.util.spec_from_file_location('golden_regenerate', sys.argv[1]); "
            "golden = importlib.util.module_from_spec(spec); spec.loader.exec_module(golden); "
            "golden.write_outputs(Path(sys.argv[2]))")
    proc = subprocess.run([sys.executable, "-c", code, _spec.origin, str(tmp_path), *off],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    mismatches = [golden.first_difference(name, (golden.OUTPUTS / name).read_bytes(),
                                          (tmp_path / name).read_bytes())
                  for name in golden.output_names()]
    assert [m for m in mismatches if m] == []


@pytest.mark.parametrize("name, want, got, message", [
    ("a.json", b'{"x": [1, {"y": 2.0}]}', b'{"x": [1, {"y": 2.5}]}',
     "a.json: $.x[1].y: expected 2.0, got 2.5"),
    ("a.json", b'{"x": 1}', b'{"x": 1, "z": 2}',
     "a.json: $: expected {'x': 1}, got {'x': 1, 'z': 2}"),
    ("a.json", b'{"x": 1}\n', b'{"x":1}\n', "a.json: bytes differ from offset 5"),
    ("b.csv", b"p,q\n1,2\n3,4\n", b"p,q\n1,2\n3,5\n", "b.csv: row 2, column q: expected '4', got '5'"),
    ("b.csv", b"p,q\n1,2\n", b"p,q\n1,2\n3,4\n", "b.csv: rows: expected 2, got 3"),
])
def test_a_mismatch_names_the_file_and_the_first_differing_field(name, want, got, message):
    assert golden.first_difference(name, want, got) == message
    assert golden.first_difference(name, want, want) is None


@pytest.mark.parametrize("name, old, new, shifts", [
    ("a.json", b'{"x": [1.0, {"y": 2.0}, {"y": 4.0}]}', b'{"x": [1.0, {"y": 2.5}, {"y": 4.0}]}',
     {"$.x[].y": 0.25}),
    ("a.json", b'{"x": [{"y": 2.0}, {"y": 4.0}]}', b'{"x": [{"y": 2.2}, {"y": 5.0}]}',
     {"$.x[].y": 0.25}),
    ("a.json", b'{"x": 0.0, "ok": true, "s": null}', b'{"x": 1e-300, "ok": false, "s": null}',
     {"$.x": math.inf, "$.ok": math.inf}),
    ("a.json", b'{"x": [1.0]}', b'{"x": [1.0, 2.0]}', {"(layout)": math.inf}),
    ("b.csv", b"p,q\n1,2\n3,4\n", b"p,q\n1,2\n3,5\n", {"q": 0.25}),
    ("b.csv", b"p,q\n1,\n", b"p,q\n1,bc\n", {"q": math.inf}),
])
def test_regeneration_reports_the_largest_shift_per_field(name, old, new, shifts):
    assert golden.largest_shifts(name, old, new) == shifts
    assert golden.largest_shifts(name, old, old) == {}
