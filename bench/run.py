"""fockfit benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload ci-1k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fockfit is imported from its
``src`` directory.  The workloads are in BENCHMARK.json and
bench/workloads.py.  With ``--trace 0`` the run repeats the workload's
operation for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed amount of work with every public fockfit
function wrapped in a span and reports the per-layer metrics.  Every
output is checked.  A human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The program's own parallelism; results are bit-identical for any value.
FOCKFIT_THREADS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 120
EXACT_CHECKS = 8
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


class Tally:
    """Attempted operations and checks, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{what}: {error}")


def call(cli, op) -> tuple[float, str | None]:
    """Run one operation through fockfit.cli.main and check its outputs."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except Exception:
        return time.perf_counter() - t0, "raised\n" + traceback.format_exc()
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(rc)
    except (OSError, ValueError, KeyError, TypeError):
        return dt, "unreadable output\n" + traceback.format_exc()


def read_outputs(op) -> list[bytes]:
    return [p.read_bytes() if p.exists() else b"" for p in op.outputs]


def set_up_once(wl, tally: Tally) -> float:
    """Wall time of a fresh interpreter that imports fockfit, reads the
    workload's input and runs the smallest instance of its operation."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *wl.setup_argv()]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record("set-up", f"timed out after {SETUP_TIMEOUT_S} s")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    tally.record("set-up", None if proc.returncode == 0
                 else f"exited with {proc.returncode}: {proc.stderr.strip()}")
    return dt


def gate(wl, probes, workloads, args, tally: Tally, timed: bool) -> dict:
    """Grid-stage gate on the workload's samples, which keeps the references
    the operation checks compare against, and the --from-exact round trips."""
    wl.refs, timings = probes.grid_stage(wl.samples(), timed)
    for i, ref in enumerate(wl.refs):
        tally.record(f"gate sample {i}", probes.gate_error(ref))
    count = 2 if args.smoke else EXACT_CHECKS
    for i, error in enumerate(workloads.exact_recovery_errors(wl.work, args.seed, count)):
        tally.record(f"--from-exact round trip {i}", error)
    return timings


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(q, q-th percentile) for the highest q with ten samples beyond it."""
    import numpy as np  # imported in main, after the thread settings

    n = len(latencies)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, float(np.percentile(latencies, q))
    return None


def run_timed(wl, cli, probes, workloads, args, tally: Tally, notes: dict) -> dict:
    wl.generate()
    gate(wl, probes, workloads, args, tally, timed=False)
    latencies, fits = [], 0
    t_start = time.perf_counter()
    i = 0
    while True:
        op = wl.op(i)
        dt, error = call(cli, op)
        tally.record(f"operation {i}", error)
        latencies.append(dt)
        fits += op.fits
        i += 1
        # Start another operation only if it should end within the run, so
        # that a run of long operations does not overshoot by one of them.
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / i > args.seconds:
            break
    # Pool workers are the only child processes so far; the set-up probes
    # below would otherwise count as children.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mb = (self_kb + FOCKFIT_THREADS * child_kb) / 1024.0
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [set_up_once(wl, tally) for _ in range(repeats)]

    # The gated latency is the mean.  On shared vCPUs whose speed swings by
    # a fifth over tens of seconds (the 2-vCPU VM of the first trajectory
    # point), a median over many short requests jumps between the fast and
    # the slow cluster, while the mean moves smoothly.  The median is
    # printed in the report.
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms.mean": sum(latencies) / len(latencies) * 1e3,
        "fits_per_s": fits / sum(latencies),
        "peak_rss_mb": peak_mb,
    }
    stats = {**metrics, "latency_ms.p50": statistics.median(latencies) * 1e3}
    notes["operations"] = len(latencies)
    notes["setup_s.runs"] = repeats
    notes["latency_ms.p50"] = (stats["latency_ms.p50"], "ms")
    found = tail(latencies)
    if found:
        notes[f"latency_ms.p{found[0]:g}"] = (found[1] * 1e3, "ms")
    alias, source, scale, unit = wl.alias
    notes[alias] = (stats[source] * scale, unit)
    return metrics


def run_traced(wl, cli, probes, workloads, tracing, args, tally: Tally, notes: dict):
    """One operation, untraced and then traced; the traced run must write
    byte-identical outputs.  A pooled workload runs untraced with the
    configured workers and traced with one, so all spans stay in this
    process and the comparison checks that results do not depend on the
    worker count."""
    wl.generate()
    timings = gate(wl, probes, workloads, args, tally, timed=True)
    tracer, ref = tracing.Tracer(), tracing.Tracer()
    op = wl.op(0)
    with tracing.installed(ref, only=("parallel.parallel_map",)), ref.op(0):
        untraced, error = call(cli, op)
    tally.record("untraced operation", error)
    expected = read_outputs(op)
    if wl.pooled:
        os.environ["FOCKFIT_THREADS"] = "1"
    try:
        with tracing.installed(tracer), tracer.op(0):
            traced, error = call(cli, op)
    finally:
        os.environ["FOCKFIT_THREADS"] = str(FOCKFIT_THREADS)
    if error is None and read_outputs(op) != expected:
        error = "traced outputs differ from the untraced run's"
    tally.record("traced operation", error)

    metrics = tracing.layer_metrics(tracer.spans, ref.spans)
    metrics.update(timings)
    metrics.update(probes.layer_probes(*wl.probe_state(), smoke=args.smoke))
    if not wl.pooled:
        notes["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    program_spans = sum(s[3] != tracing.OP_SPAN for s in tracer.spans)
    notes["trace.overhead_frac.estimated"] = (
        program_spans * tracing.span_cost_ns() * 1e-9 / traced, "fraction")
    notes["breakdown"] = tracing.breakdown(tracer.spans)
    return metrics, tracer


def environment(numpy, fockfit) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)),
           "FOCKFIT_THREADS": os.environ["FOCKFIT_THREADS"]}
    env.update({v: os.environ[v] for v in BLAS_VARS})
    env.update({"python": sys.version.split()[0], "numpy": numpy.__version__,
                "fockfit": fockfit.__version__})
    return env


def print_report(wl, why, args, env, metrics, units, notes, tally) -> None:
    print(f"# fockfit bench  workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"# why: {why}")
    print(f"# params: {json.dumps(wl.params())}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if wl.pooled and args.trace:
        print("# traced with FOCKFIT_THREADS=1; the untraced reference run used "
              f"FOCKFIT_THREADS={FOCKFIT_THREADS}")
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<48} {len(tally.errors) / tally.attempted:>16.6g} fraction"
          f"   ({len(tally.errors)} of {tally.attempted})")
    breakdown = notes.pop("breakdown", None)
    for name, value in notes.items():
        if isinstance(value, tuple):
            print(f"{name:<48} {value[0]:>16.6g} {value[1]}")
        else:
            print(f"# {name}: {value}")
    if breakdown:
        print(f"# {'span':<44} {'calls':>8} {'ms/call':>12} {'self ms':>12} {'self share':>10}")
        for name, n, per_call, own, share in breakdown:
            print(f"# {name:<44} {n:>8} {per_call:>12.5g} {own:>12.5g} {share:>10.4f}")
    for error in tally.errors:
        print(f"# FAILED {error}", file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload to a few seconds (for the smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fockfit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no fockfit source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(whys)}",
              file=sys.stderr)
        return 2

    # Thread counts must be fixed before numpy is first imported.
    os.environ["FOCKFIT_THREADS"] = str(FOCKFIT_THREADS)
    for var in BLAS_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import numpy
    import fockfit
    from fockfit import cli

    if Path(fockfit.__file__).resolve().parent != SRC / "fockfit":
        print(f"bench: imported fockfit from {fockfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes
    import tracing
    import workloads

    env = environment(numpy, fockfit)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tally, notes = Tally(), {}
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.smoke)
        if args.trace:
            metrics, tracer = run_traced(wl, cli, probes, workloads, tracing, args, tally,
                                         notes)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            span_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
            tracer.dump(span_path, {"workload": wl.name, "seed": args.seed, "env": env})
            notes["spans"] = str(span_path.relative_to(ROOT))
        else:
            metrics = run_timed(wl, cli, probes, workloads, args, tally, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if sorted(metrics) != sorted(wanted):
        print(f"bench: computed metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(wanted)}", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in wanted}
    print_report(wl, whys[wl.name], args, env, metrics, units, notes, tally)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
