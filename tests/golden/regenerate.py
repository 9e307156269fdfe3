"""Golden outputs of the fockfit CLI: the commands, how to run them, and how
to report the first difference between two outputs.

Each command reads only files under ``inputs/`` and writes only files named
after ``--out``/``--json-out``.  ``tests/test_golden.py`` runs every command
into a temporary directory and compares the bytes with ``outputs/``.

Run this file by hand to rewrite ``outputs/``, only in a change that means
to change numbers:

    PYTHONPATH=src python tests/golden/regenerate.py

It prints, for each file it rewrites, the largest relative shift of every
field that moved against the file it replaces.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
OUTPUTS = HERE / "outputs"

# {inputs} and {outputs} stand for the two directories.
COMMANDS = (
    "simulate --r 1.0 --nbar 0.05 --shots 10000 --seed 7 --out {outputs}/simulate-n20.json",
    "simulate --r 2.0 --nbar 0.3 --shots 10000 --nmax 64 --seed 7 "
    "--out {outputs}/simulate-n64.json",
    "simulate --r 0.5 --nbar 0.1 --shots 5000 --seed 18446744073709551615 --stream 4294967295 "
    "--out {outputs}/simulate-seed-max.json",
    "simulate --r 0.5 --nbar 0.1 --shots 5000 --seed 7 --stream 18446744073709551615 "
    "--out {outputs}/simulate-stream-max.json",
    "simulate --r 0.8 --nbar 0.2 --shots 123457 --exact --out {outputs}/simulate-exact.json",
    "estimate --counts {inputs}/counts-n20.json --out {outputs}/estimate-posterior.json",
    "estimate --counts {inputs}/counts-n20.json --weights mle --out {outputs}/estimate-mle.json",
    "estimate --counts {inputs}/counts-n20.json --weights uniform "
    "--out {outputs}/estimate-uniform.json",
    "estimate --counts {inputs}/counts-n64.json --out {outputs}/estimate-n64.json",
    "estimate --counts {inputs}/counts-boundary.json --out {outputs}/estimate-boundary.json",
    "estimate --counts {inputs}/counts-exact.json --from-exact "
    "--out {outputs}/estimate-from-exact.json",
    "ci --counts {inputs}/counts-n20.json --replicates 1000 --method bc "
    "--out {outputs}/ci-bc.json",
    "ci --counts {inputs}/counts-n20.json --replicates 200 --weights uniform "
    "--method percentile --out {outputs}/ci-uniform-percentile.json",
    "ci --counts {inputs}/counts-boundary.json --replicates 400 --seed 12345 "
    "--stream 4294967000 --out {outputs}/ci-stream.json",
    *(f"study --config {{inputs}}/study-{kind}.json --out {{outputs}}/study-{kind}.csv "
      f"--json-out {{outputs}}/study-{kind}.json"
      for kind in ("fidelity", "bias-mle", "bias-exact-uniform", "weights", "coverage")),
)


def _argvs(inputs: Path, outputs: Path) -> list[list[str]]:
    return [[arg.format(inputs=inputs, outputs=outputs) for arg in command.split()]
            for command in COMMANDS]


def output_names() -> list[str]:
    """The file names the commands write, in command order."""
    return [Path(argv[i + 1]).name for argv in _argvs(Path("in"), Path("out"))
            for i, arg in enumerate(argv) if arg in ("--out", "--json-out")]


def write_outputs(outputs: Path) -> None:
    """Run every command through ``fockfit.cli.main``, writing into ``outputs``."""
    from fockfit.cli import main

    for argv in _argvs(INPUTS, outputs):
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"fockfit {' '.join(argv)} exited with {code}")


def _first_json_difference(want, got, path: str):
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        items = [(f"{path}.{key}", want[key], got[key]) for key in want]
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        items = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(want, got))]
    else:
        return None if want == got and type(want) is type(got) else (path, want, got)
    for sub_path, a, b in items:
        found = _first_json_difference(a, b, sub_path)
        if found:
            return found
    return None


def _first_csv_difference(want: str, got: str):
    want_rows, got_rows = (list(csv.reader(io.StringIO(text))) for text in (want, got))
    if len(want_rows) != len(got_rows):
        return "rows", len(want_rows), len(got_rows)
    header = want_rows[0]
    for r, (a_row, b_row) in enumerate(zip(want_rows, got_rows)):
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            if a != b:
                return f"row {r}, column {header[c] if c < len(header) else c}", a, b
        if len(a_row) != len(b_row):
            return f"row {r} length", len(a_row), len(b_row)
    return None


def first_difference(name: str, want: bytes, got: bytes) -> str | None:
    """None if the bytes are equal, else the file name and the first field
    (JSON path, or CSV row and column) that differs."""
    if want == got:
        return None
    found = None
    if name.endswith(".json"):
        found = _first_json_difference(json.loads(want), json.loads(got), "$")
    elif name.endswith(".csv"):
        found = _first_csv_difference(want.decode(), got.decode())
    if found is None:
        offset = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                      min(len(want), len(got)))
        return f"{name}: bytes differ from offset {offset}"
    field, a, b = found
    return f"{name}: {field}: expected {a!r}, got {b!r}"


def _json_fields(value, field: str):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_fields(item, f"{field}.{key}")
    elif isinstance(value, list):
        for item in value:
            yield from _json_fields(item, f"{field}[]")
    else:
        yield field, value


def _csv_value(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _fields(name: str, data: bytes) -> list:
    """(field, value) for every leaf of an output, in file order: a JSON
    path with the list indices left out, so that one field gathers every
    row, or a CSV column, whose numeric cells are read as floats."""
    if name.endswith(".json"):
        return list(_json_fields(json.loads(data), "$"))
    rows = list(csv.reader(io.StringIO(data.decode())))
    return [(column, _csv_value(cell)) for row in rows[1:] for column, cell in zip(rows[0], row)]


def _relative_shift(old, new) -> float:
    if old == new and type(old) is type(new):
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return abs(new - old) / abs(old) if numbers and old != 0 else math.inf


def largest_shifts(name: str, old: bytes, new: bytes) -> dict:
    """The largest relative shift |new - old| / |old| of every field of an
    output that moved (inf where a zero or a non-number changed), or
    {"(layout)": inf} when the two files do not have the same fields."""
    old_fields, new_fields = _fields(name, old), _fields(name, new)
    if [f for f, _ in old_fields] != [f for f, _ in new_fields]:
        return {"(layout)": math.inf}
    shifts = {}
    for (field, a), (_, b) in zip(old_fields, new_fields):
        shift = _relative_shift(a, b)
        if shift > 0.0:
            shifts[field] = max(shift, shifts.get(field, 0.0))
    return shifts


if __name__ == "__main__":
    OUTPUTS.mkdir(exist_ok=True)
    previous = {}
    for stale in OUTPUTS.iterdir():
        previous[stale.name] = stale.read_bytes()
        stale.unlink()
    write_outputs(OUTPUTS)
    print(f"wrote {len(output_names())} files to {OUTPUTS}", file=sys.stderr)
    for name in output_names():
        if name not in previous:
            print(f"{name}: new")
            continue
        shifts = largest_shifts(name, previous[name], (OUTPUTS / name).read_bytes())
        print(f"{name}: " + (", ".join(f"{field} {shift:.1e}" for field, shift in shifts.items())
                             or "unchanged"))
