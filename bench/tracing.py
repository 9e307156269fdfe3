"""In-memory span recorder that wraps fockfit's public functions from
outside the package, and the per-layer metrics computed from its spans.

A span is ``[id, parent_id, request_id, name, start_ns, end_ns, info]``.
Spans are appended in start order by a single thread, so the parent of a
span is the innermost span still open when it starts.  The recorder is
only correct when every traced call runs in this process: the pooled
workloads are traced with FOCKFIT_THREADS=1, which makes
``parallel_map`` run its items inline.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import fockfit
from fockfit import _parallel, bootstrap, cli, estimation, model, numerics, sampling, studies

MODULES = (model, numerics, estimation, sampling, bootstrap, studies, _parallel, cli)
# Metric and span names start with a letter, so `_parallel` is `parallel`.
LAYER_NAMES = tuple(m.__name__.rsplit(".", 1)[1].lstrip("_") for m in MODULES)

# Public methods that do a layer's work but are not module-level functions.
METHODS = ((studies.StudyReport, "write_csv"), (studies.StudyReport, "write_json"))

OP_SPAN = "bench.op"
FIT_SPANS = ("estimation.fit", "estimation.fit_frequencies")
WEIGHT_SPANS = (
    "estimation.posterior_weights", "estimation.mle_weights", "estimation.uniform_weights",
)
INTERVAL_SPANS = ("bootstrap.bc_interval", "bootstrap.percentile_interval")
REPORT_SPANS = ("studies.StudyReport.write_csv", "studies.StudyReport.write_json")

_clock = time.perf_counter_ns


def public_functions(mod):
    """(name, function) for each public function defined in ``mod``."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


# Counts taken from a traced call's result, stored in its span's info.
ANNOTATORS = {
    "estimation.fit_frequencies":
        lambda out: {"evals": out.evaluations, "converged": out.converged},
    "bootstrap.parametric_bootstrap": lambda out: {"n_failed": out.n_failed},
}


class Tracer:
    """Records spans for the functions it wraps; ``request`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               self.request, name, 0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = _clock()
        return rec

    def _close(self, rec):
        rec[5] = _clock()
        self._stack.pop()

    def wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        parallel = name == "parallel.parallel_map"
        worker_count = _parallel.worker_count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if parallel:
                task, items = args
                info = {"items": len(items), "workers": min(worker_count(), len(items))}
                if info["workers"] <= 1:
                    args = (self.wrap(_task_name(task), task), items)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if parallel:
                rec[6] = info
            elif annotate is not None:
                rec[6] = annotate(out)
            return out

        return traced

    @contextmanager
    def op(self, request):
        """Root span of one benchmark operation."""
        self.request = request
        rec = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(rec)
            self.request = None

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["id", "parent", "request", "name",
                                            "start_ns", "end_ns", "info"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def span_cost_ns(calls: int = 20_000) -> float:
    """Wall time a traced call adds: a wrapped no-op against the bare one."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = _clock()
    for _ in range(calls):
        noop()
    t1 = _clock()
    for _ in range(calls):
        traced()
    t2 = _clock()
    return ((t2 - t1) - (t1 - t0)) / calls


def _task_name(task) -> str:
    return f"{task.__module__.rsplit('.', 1)[1].lstrip('_')}.{task.__name__}"


@contextmanager
def installed(tracer: Tracer, only: tuple[str, ...] | None = None):
    """Replace every reference to fockfit's public functions (in the
    package, its modules and their module-level dicts) with traced
    wrappers; restore the originals on exit.  ``only`` limits the wrapped
    functions to the given span names."""
    wrapped = {}
    for mod, layer in zip(MODULES, LAYER_NAMES):
        for name, fn in public_functions(mod):
            span = f"{layer}.{name}"
            if only is None or span in only:
                wrapped[fn] = tracer.wrap(span, fn)
    undo = []
    for target in (fockfit, *MODULES):
        for attr, val in list(vars(target).items()):
            if inspect.isfunction(val) and val in wrapped:
                undo.append((setattr, target, attr, val))
                setattr(target, attr, wrapped[val])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        undo.append((dict.__setitem__, val, key, item))
                        val[key] = wrapped[item]
    if only is None:
        for cls, attr in METHODS:
            fn = vars(cls)[attr]
            undo.append((setattr, cls, attr, fn))
            setattr(cls, attr, tracer.wrap(f"studies.{cls.__name__}.{attr}", fn))
    try:
        yield
    finally:
        for restore, target, key, val in reversed(undo):
            restore(target, key, val)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its children's."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_metrics(spans, parallel_ref=None) -> dict[str, float]:
    """Per-layer metrics from the traced operations' spans.

    ``parallel_ref`` holds the spans of the same operations run with the
    configured worker count, where only ``parallel_map`` was wrapped; it
    supplies the worker counts and wall times for the pool efficiency.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    op_wall = sum(s[5] - s[4] for s in by_name[OP_SPAN])
    self_by_name = defaultdict(int)
    for s, own in zip(spans, selfs):
        self_by_name[s[3]] += own

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def total(*names):
        return sum(s[5] - s[4] for n in names for s in by_name[n])

    def share(*names):
        return sum(self_by_name[n] for n in names) / op_wall

    def per_call(names, scale):
        n = calls(*names)
        return total(*names) / n * scale if n else 0.0

    def has_ancestor(span, ids):
        p = span[1]
        while p >= 0 and p not in ids:
            p = spans[p][1]
        return p >= 0

    fits = by_name["estimation.fit_frequencies"]
    boots = by_name["bootstrap.parametric_bootstrap"]
    boot_ids = {s[0] for s in boots}
    fits_under_boot = sum(has_ancestor(s, boot_ids) for s in fits)

    maps = by_name["parallel.parallel_map"]
    ref_maps = [s for s in (parallel_ref or []) if s[3] == "parallel.parallel_map"]
    efficiency = 0.0
    if ref_maps and len(ref_maps) == len(maps):
        busy = sum(s[5] - s[4] for s in maps)
        capacity = sum(s[6]["workers"] * (s[5] - s[4]) for s in ref_maps)
        efficiency = busy / capacity

    out = {
        "estimation.fit.calls": len(fits),
        "estimation.fit.ms_per_call": per_call(["estimation.fit_frequencies"], 1e-6),
        "estimation.fit.self_share": share(*FIT_SPANS),
        "estimation.fit.evals_per_call":
            sum(s[6]["evals"] for s in fits) / len(fits) if fits else 0.0,
        "estimation.fit.converged_frac":
            sum(s[6]["converged"] for s in fits) / len(fits) if fits else 0.0,
        "estimation.weights.calls": calls(*WEIGHT_SPANS),
        "estimation.weights.us_per_call": per_call(WEIGHT_SPANS, 1e-3),
        "sampling.sample_histogram.calls": calls("sampling.sample_histogram"),
        "bootstrap.parametric_bootstrap.calls": len(boots),
        "bootstrap.parametric_bootstrap.fit_calls_per_call":
            fits_under_boot / len(boots) if boots else 0.0,
        "bootstrap.parametric_bootstrap.n_failed": sum(s[6]["n_failed"] for s in boots),
        "bootstrap.parametric_bootstrap.self_share": share("bootstrap.parametric_bootstrap"),
        "bootstrap.intervals.calls": calls(*INTERVAL_SPANS),
        "bootstrap.intervals.self_share": share(*INTERVAL_SPANS),
        "parallel.parallel_map.calls": len(maps),
        "parallel.parallel_map.items": sum(s[6]["items"] for s in maps),
        "parallel.parallel_map.workers":
            max((s[6]["workers"] for s in ref_maps), default=0),
        "parallel.parallel_map.efficiency": efficiency,
        "studies.run_study.calls": calls("studies.run_study"),
        "studies.report_write.share": total(*REPORT_SPANS) / op_wall,
        "cli.calls": calls("cli.main"),
        "cli.self_ms": (sum(self_by_name[n] for n in by_name if n.startswith("cli."))
                        / calls("cli.main") * 1e-6) if calls("cli.main") else 0.0,
    }
    for layer in LAYER_NAMES:
        out[f"{layer}.self_share"] = sum(
            own for n, own in self_by_name.items() if n.split(".", 1)[0] == layer
        ) / op_wall
    return out


def breakdown(spans) -> list[tuple[str, int, float, float, float]]:
    """(name, calls, ms per call, self ms, self share) for every span name,
    largest self time first."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0, 0])
    for s, own in zip(spans, selfs):
        row = rows[s[3]]
        row[0] += 1
        row[1] += s[5] - s[4]
        row[2] += own
    op_wall = rows[OP_SPAN][1]
    table = [(name, n, dur / n * 1e-6, own * 1e-6, own / op_wall)
             for name, (n, dur, own) in rows.items()]
    return sorted(table, key=lambda r: -r[3])
