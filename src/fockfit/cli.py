"""Command-line front end.

Subcommands: probs, simulate, estimate, ci, fidelity, study.  Files are
versioned JSON (counts, estimates, study configs) and CSV (study reports);
every command that draws random numbers takes --seed/--stream and is
bit-reproducible.  Exit codes: 0 success, 1 usage or validation error,
2 convergence failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import bootstrap as bt
from . import estimation as est
from . import studies
from ._io import atomic_write, check_int, is_int
from .model import (
    MAX_FOCK, QuadratureVariances, SqueezedThermalState, fidelity, fock_distribution, to_variances,
)
from .sampling import MAX_SEED, SeedSpec, sample_histogram

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGED = 2
EXIT_IO = 3

FORMAT_VERSION = 1

# (low, high or None) of each integer flag, checked under the flag's name
# before any work; estimate's n_max comes from its counts file instead.
_INT_FLAGS = {"nmax": (1, MAX_FOCK), "shots": (1, None), "seed": (0, MAX_SEED),
              "stream": (0, None), "replicates": (2, None)}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(EXIT_USAGE, message)


def _atomic_write(path: str, text: str) -> None:
    try:
        atomic_write(path, text)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    def unique_keys(pairs):
        # json.load keeps the last of a repeated key; reject it instead
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise _CliError(EXIT_USAGE, f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _CliError(EXIT_USAGE, f"{path}: expected a JSON object")
    return doc


def _check_output_dirs(args) -> None:
    """Fail before any work if the directory of an output path is missing,
    the path is a directory, or study's two reports (--json-out defaults to
    --out with .json) share a path."""
    if args.command == "study" and args.json_out is None:
        args.json_out = os.path.splitext(args.out)[0] + ".json"
    for flag in ("--out", "--json-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise _CliError(EXIT_IO, f"{flag}: cannot write {path}: no such directory")
        if os.path.isdir(path):
            raise _CliError(EXIT_IO, f"{flag}: cannot write {path}: is a directory")
    if args.command == "study" and os.path.realpath(args.json_out) == os.path.realpath(args.out):
        raise _CliError(EXIT_USAGE, f"--out/--json-out: both reports would be written to "
                                    f"{args.out}; give --json-out a different path")


def _state(values: dict, where: str, expected: str) -> QuadratureVariances:
    """The state from exactly r and nbar or vq and vp; errors start with ``where``."""
    try:
        if values.keys() == {"r", "nbar"}:
            return to_variances(SqueezedThermalState(values["r"], values["nbar"]))
        if values.keys() == {"vq", "vp"}:
            return QuadratureVariances(values["vq"], values["vp"])
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"{where}: {exc}") from exc
    raise _CliError(EXIT_USAGE, f"{where}: expected {expected}")


def _state_from_flags(args) -> QuadratureVariances:
    given = {k: v for k in ("r", "nbar", "vq", "vp") if (v := getattr(args, k)) is not None}
    return _state(given, "/".join(f"--{k}" for k in given) or "--r/--nbar/--vq/--vp",
                  "--r with --nbar, or --vq with --vp")


def _parse_state_string(text: str, flag: str) -> QuadratureVariances:
    pairs = {}
    for chunk in text.split(","):
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if not sep:
            raise _CliError(EXIT_USAGE, f"{flag}: expected key=value pairs, got {chunk!r}")
        if key in pairs:
            raise _CliError(EXIT_USAGE, f"{flag}: key {key!r} given twice")
        try:
            pairs[key] = float(value)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"{flag}: bad number in {chunk!r}") from exc
    return _state(pairs, flag, "r=..,nbar=.. or vq=..,vp=..")


def _counts_to_histogram(doc: dict, path: str) -> est.FockHistogram:
    for key in ("format_version", "n_max", "counts", "overflow", "total"):
        if key not in doc:
            raise _CliError(EXIT_USAGE, f"{path}: missing field '{key}'")
    if not is_int(doc["format_version"]) or doc["format_version"] != FORMAT_VERSION:
        raise _CliError(EXIT_USAGE, f"{path}: unsupported format_version")
    counts = doc["counts"]
    if not isinstance(counts, list):
        raise _CliError(EXIT_USAGE, f"{path}: counts must be a list")
    for key in ("n_max", "overflow"):
        if not is_int(doc[key]):
            raise _CliError(EXIT_USAGE, f"{path}: {key} must be an integer")
    if doc["n_max"] != len(counts) - 1:
        raise _CliError(EXIT_USAGE, f"{path}: n_max does not match counts length")
    try:
        return est.FockHistogram(tuple(counts), doc["overflow"], doc["total"])
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}") from exc


def _write_counts(path: str, h: est.FockHistogram) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "n_max": h.n_max,
        "counts": list(h.counts),
        "overflow": h.overflow_count,
        "total": h.total,
    }
    _atomic_write(path, json.dumps(doc) + "\n")


def _expected_counts(probs: list[float], shots: int) -> list[int]:
    """Largest-remainder apportionment of shots across bins."""
    scaled = [p * shots for p in probs]
    base = [math.floor(x) for x in scaled]
    leftover = shots - sum(base)
    order = sorted(range(len(probs)), key=lambda i: (base[i] - scaled[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def _estimate_doc(res: est.FitResult, scheme: str, prior: est.PriorShape,
                  intervals: list | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "vq": res.variances.vq,
        "vp": res.variances.vp,
        "r": res.state.r,
        "nbar": res.state.nbar,
        "objective": res.objective,
        "converged": res.converged,
        "weight_scheme": scheme,
        "prior": {"nu": prior.nu, "eta": prior.eta},
    }
    if intervals is not None:
        doc["intervals"] = [
            {
                "parameter": ci.parameter,
                "method": ci.method,
                "level": ci.level,
                "lower": ci.lower,
                "upper": ci.upper,
            }
            for ci in intervals
        ]
    return doc


def cmd_probs(args) -> int:
    v = _state_from_flags(args)
    dist = fock_distribution(v, args.nmax)
    print("n,probability")
    for n, p in enumerate(dist.probs):
        print(f"{n},{p!r}")
    print(f"overflow,{dist.overflow!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    v = _state_from_flags(args)
    dist = fock_distribution(v, args.nmax)
    if args.exact:
        counts = _expected_counts(list(dist.probs) + [dist.overflow], args.shots)
        h = est.FockHistogram(tuple(counts[:-1]), counts[-1], args.shots)
    else:
        h = sample_histogram(dist, args.shots, SeedSpec(args.seed, args.stream))
    _write_counts(args.out, h)
    return EXIT_OK


def _fit_from_args(args, h: est.FockHistogram):
    scheme = args.weights
    if scheme is None:
        scheme = "uniform" if getattr(args, "from_exact", False) else "posterior"
    try:
        prior = est.PriorShape(args.nu, args.eta)
    except ValueError as exc:
        # PriorShape's message starts with the field, which is also the flag's name
        raise _CliError(EXIT_USAGE, f"--{exc}") from exc
    return est.fit(h, est.weights_for(h, scheme, prior)), scheme, prior


def cmd_estimate(args) -> int:
    h = _counts_to_histogram(_read_json(args.counts), args.counts)
    res, scheme, prior = _fit_from_args(args, h)
    _atomic_write(args.out, json.dumps(_estimate_doc(res, scheme, prior)) + "\n")
    if not res.converged and not args.allow_nonconverged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_ci(args) -> int:
    bt._check_interval_args(args.alpha, name="--alpha")
    h = _counts_to_histogram(_read_json(args.counts), args.counts)
    res, scheme, prior = _fit_from_args(args, h)
    if not res.converged:
        print("fit did not converge; no intervals computed", file=sys.stderr)
        return EXIT_NONCONVERGED
    reps = bt.parametric_bootstrap(
        res, h.total, args.replicates, prior,
        SeedSpec(args.seed, args.stream), h.n_max, scheme,
    )
    intervals = bt.intervals(reps, res, args.alpha, (args.method,))
    _atomic_write(args.out, json.dumps(_estimate_doc(res, scheme, prior, intervals)) + "\n")
    return EXIT_OK


def cmd_fidelity(args) -> int:
    a = _parse_state_string(args.state1, "--state1")
    b = _parse_state_string(args.state2, "--state2")
    print(f"{fidelity(a, b):.12g}")
    return EXIT_OK


def cmd_study(args) -> int:
    kind, cfg = studies.parse_config(_read_json(args.config))
    report = studies.run_study(kind, cfg)
    try:
        report.write_csv(args.out)
        report.write_json(args.json_out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write report: {exc}") from exc
    return EXIT_OK


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, help="squeezing parameter (with --nbar)")
    p.add_argument("--nbar", type=float, help="mean thermal occupation (with --r)")
    p.add_argument("--vq", type=float, help="q-quadrature variance (with --vp)")
    p.add_argument("--vp", type=float, help="p-quadrature variance (with --vq)")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", choices=est.WEIGHT_SCHEMES, default=None,
                   help="weighting scheme of the fit and of ci's replicate refits "
                        "(default: posterior)")
    p.add_argument("--nu", type=float, default=1.0, help="Beta prior shape nu")
    p.add_argument("--eta", type=float, default=1.0, help="Beta prior shape eta")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fockfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="print the model Fock distribution as CSV")
    _add_state_flags(p)
    p.add_argument("--nmax", type=int, default=20)

    p = sub.add_parser("simulate", help="sample a count histogram and write a counts file")
    _add_state_flags(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="write expected counts (largest-remainder rounding) instead of sampling")
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="fit a counts file and write an estimate file")
    p.add_argument("--counts", required=True)
    _add_weight_flags(p)
    p.add_argument("--from-exact", dest="from_exact", action="store_true",
                   help="counts hold exact expected values; default to uniform weights")
    p.add_argument("--allow-nonconverged", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ci", help="fit plus parametric-bootstrap confidence intervals")
    p.add_argument("--counts", required=True)
    _add_weight_flags(p)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="tail probability on each side: the two-sided interval has level "
                        "1 - 2*alpha, so the default 0.05 gives a 90%% interval")
    p.add_argument("--method", choices=bt.METHODS, default="bc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fidelity", help="fidelity between two states")
    p.add_argument("--state1", required=True, help="r=..,nbar=.. or vq=..,vp=..")
    p.add_argument("--state2", required=True, help="r=..,nbar=.. or vq=..,vp=..")

    p = sub.add_parser("study", help="run a study config and write CSV/JSON reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--json-out", default=None,
                   help="JSON report path (default: CSV path with .json)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        for dest, (low, high) in _INT_FLAGS.items():
            if (value := getattr(args, dest, None)) is not None:
                check_int(f"--{dest}", value, low, high)
        # looked up on every call, so a replaced cmd_* attribute is the one run
        return globals()[f"cmd_{args.command}"](args)
    except bt.BootstrapError as exc:
        # too many refits failed: the reason alone, as a failed fit reports it
        print(exc, file=sys.stderr)
        return EXIT_NONCONVERGED
    except (_CliError, ValueError) as exc:
        print(f"fockfit: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
