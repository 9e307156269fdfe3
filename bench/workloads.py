"""The benchmark's workloads: seeded input generation, the CLI operation
each one repeats, the output checks, and the samples for the grid gate.

Every input file is written by ``generate`` before timing starts; the
operations only pass file paths to ``fockfit.cli.main``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fockfit import (
    PARAMETERS, PriorShape, SeedSpec, SqueezedThermalState, fock_distribution,
    posterior_weights, sample_histogram, to_variances, weights_for,
)
from fockfit import cli

PRIOR = PriorShape(1.0, 1.0)
ALPHA = 0.05
LEVEL = 1.0 - 2.0 * ALPHA  # the interval level fockfit reports for --alpha
EXACT_SHOTS = 10 ** 12  # "large --shots", where --from-exact recovers to 1e-6


@dataclass
class Op:
    """One CLI call: its argv, the fits it performs, the files it writes,
    and a check of its exit code and outputs (None when correct)."""

    argv: list[str]
    fits: int
    outputs: tuple[Path, ...]
    check: Callable[[int], str | None]


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n")
    return path


def _write_counts(path: Path, h) -> Path:
    return _write_json(path, {
        "format_version": 1, "n_max": h.n_max, "counts": list(h.counts),
        "overflow": h.overflow_count, "total": h.total,
    })


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _dist(state: SqueezedThermalState, n_max: int):
    return fock_distribution(to_variances(state), n_max)


def exact_recovery_errors(work: Path, seed: int, count: int) -> list[str | None]:
    """Round-trip ``count`` seeded states, alternately at n_max 20 and 64,
    through ``simulate --exact`` and ``estimate --from-exact``.  At large
    --shots the estimate must recover r and nbar to 1e-6 relative."""
    rng = np.random.default_rng([seed, 1])
    errors = []
    for i in range(count):
        n_max = (20, 64)[i % 2]
        r = float(rng.uniform(0.0, 3.0))
        nbar = math.exp(rng.uniform(math.log(0.005), math.log(3.0)))
        counts, out = work / f"exact-{i}.json", work / f"exact-{i}-estimate.json"
        rc = cli.main(["simulate", "--r", repr(r), "--nbar", repr(nbar), "--shots",
                       str(EXACT_SHOTS), "--nmax", str(n_max), "--exact", "--out", str(counts)])
        if rc == 0:
            rc = cli.main(["estimate", "--counts", str(counts), "--from-exact",
                           "--out", str(out)])
        if rc != 0:
            errors.append(f"simulate or estimate exited with {rc}")
            continue
        doc = _read_json(out)
        wrong = [f"{name}={doc[name]!r} for {true!r}" for name, true in (("r", r), ("nbar", nbar))
                 if not abs(doc[name] - true) <= 1e-6 * true]
        if doc["weight_scheme"] != "uniform":
            wrong.append(f"weight_scheme={doc['weight_scheme']!r}")
        errors.append(f"--from-exact at n_max={n_max}: {', '.join(wrong)}" if wrong else None)
    return errors


class Workload:
    """Base: ``op(i)`` is the i-th operation of an endless deterministic
    sequence; operation 0 makes the fixed traced run."""

    name = ""
    # The report's name for the workload's headline number:
    # (alias, statistic of the timed run, scale, unit).
    alias: tuple[str, str, float, str]
    pooled = False

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)
        self.refs: list = []  # probes.GateRef per sample, set by the runner

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 63))

    def params(self) -> dict:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """argv of the smallest instance of the workload's operation."""
        raise NotImplementedError

    def samples(self) -> list:
        """(histogram, weights) inputs for the grid gate and probe."""
        raise NotImplementedError

    def probe_state(self) -> tuple[SqueezedThermalState, int]:
        raise NotImplementedError


class CiWorkload(Workload):
    name = "ci-1k"
    alias = ("ci_s.p50", "latency_ms.p50", 1e-3, "s")
    STATE = SqueezedThermalState(1.0, 0.05)
    SHOTS = 10_000
    N_MAX = 20
    N_INPUTS = 8

    def params(self):
        return {"r": self.STATE.r, "nbar": self.STATE.nbar, "shots": self.SHOTS,
                "n_max": self.N_MAX, "replicates": self.replicates, "method": "bc",
                "alpha": ALPHA, "counts_files": self.N_INPUTS}

    @property
    def replicates(self) -> int:
        return 20 if self.smoke else 1000

    def generate(self):
        dist = _dist(self.STATE, self.N_MAX)
        self.hists, self.counts = [], []
        for k in range(self.N_INPUTS):
            h = sample_histogram(dist, self.SHOTS, SeedSpec(self._seed()))
            self.hists.append(h)
            self.counts.append(_write_counts(self.work / f"counts-{k}.json", h))
        self.boot_seeds = [self._seed() for _ in range(64)]

    def _argv(self, counts: Path, replicates: int, seed: int, out: Path) -> list[str]:
        return ["ci", "--counts", str(counts), "--replicates", str(replicates),
                "--alpha", str(ALPHA), "--method", "bc", "--seed", str(seed),
                "--out", str(out)]

    def op(self, i):
        k = i % self.N_INPUTS
        out = self.work / "ci.json"
        argv = self._argv(self.counts[k], self.replicates,
                          self.boot_seeds[i % len(self.boot_seeds)], out)
        return Op(argv, self.replicates + 1, (out,), lambda rc: self._check(rc, out, k))

    def _check(self, rc, out, k):
        if rc != 0:
            return f"ci exited with {rc}"
        doc = _read_json(out)
        ref = self.refs[k]
        if not doc["converged"]:
            return "ci point fit did not converge"
        if (doc["r"], doc["nbar"], doc["objective"]) != (
                ref.full.state.r, ref.full.state.nbar, ref.full.objective):
            return "ci point estimate differs from a direct fit of the same counts"
        if not doc["objective"] <= ref.grid_objective:
            return "ci point objective above its grid stage"
        intervals = doc["intervals"]
        if sorted(ci["parameter"] for ci in intervals) != sorted(PARAMETERS):
            return f"expected one interval per parameter, got {intervals}"
        for ci in intervals:
            if ci["method"] != "bc" or abs(ci["level"] - LEVEL) > 1e-12:
                return f"wrong interval method or level: {ci}"
            if not ci["lower"] <= ci["upper"]:
                return f"interval lower > upper: {ci}"
        return None

    def setup_argv(self):
        return self._argv(self.counts[0], 2, self.boot_seeds[0], self.work / "setup.json")

    def samples(self):
        return [(h, posterior_weights(h, PRIOR)) for h in self.hists]

    def probe_state(self):
        return self.STATE, self.SHOTS


class WeightsWorkload(Workload):
    name = "weights-study"
    alias = ("study_fits_per_s", "fits_per_s", 1.0, "1/s")
    pooled = True
    N_CONFIGS = 4
    STATES = (SqueezedThermalState(1.0, 0.05), SqueezedThermalState(0.5, 1.0))
    SHOTS = (1_000, 10_000, 100_000)
    SCHEMES = ("posterior", "mle", "uniform")

    @property
    def n_experiments(self) -> int:
        return 4 if self.smoke else 50

    @property
    def fits(self) -> int:
        return len(self.STATES) * len(self.SHOTS) * len(self.SCHEMES) * self.n_experiments

    def params(self):
        return {"states": [[s.r, s.nbar] for s in self.STATES], "shots": list(self.SHOTS),
                "schemes": list(self.SCHEMES), "n_experiments": self.n_experiments,
                "configs": self.N_CONFIGS}

    def config(self, master_seed, small=False):
        return {"format_version": 1, "study": "weight_comparison",
                "true_states": [{"r": s.r, "nbar": s.nbar} for s in self.STATES],
                "shot_counts": list(self.SHOTS[:1] if small else self.SHOTS),
                "n_experiments": 2 if small else self.n_experiments,
                "schemes": [{"scheme": s} for s in self.SCHEMES],
                "prior": {"nu": PRIOR.nu, "eta": PRIOR.eta}, "master_seed": master_seed}

    def _check(self, rc, report):
        if rc != 0:
            return f"study exited with {rc}"
        rows = _read_json(report)["rows"]
        got = sorted((row["state_r"], row["state_nbar"], row["shots"], row["scheme"])
                     for row in rows)
        want = sorted((s.r, s.nbar, n, scheme) for s in self.STATES for n in self.SHOTS
                      for scheme in self.SCHEMES)
        if got != want:
            return "weight comparison rows do not match the config"
        for row in rows:
            if row["n_failed"] or row["n_experiments"] != self.n_experiments:
                return f"bad weight comparison row {row}"
            if not 0.0 < row["mean_fidelity"] <= 1.0:
                return f"mean_fidelity out of (0, 1] in {row}"
        return None

    def samples(self):
        # Experiment 0 of each (state, shots) pair; its stream block is
        # shared by every scheme (see fockfit.studies._point_rows).
        out = []
        for si, state in enumerate(self.STATES):
            for ni, shots in enumerate(self.SHOTS):
                stream = (si * len(self.SHOTS) + ni) * self.n_experiments
                h = sample_histogram(_dist(state, 20), shots,
                                     SeedSpec(self.master_seeds[0], stream))
                out += [(h, weights_for(h, s, PRIOR)) for s in self.SCHEMES]
        return out

    def probe_state(self):
        return self.STATES[0], self.SHOTS[1]

    def generate(self):
        self.master_seeds = [self._seed() for _ in range(self.N_CONFIGS)]
        self.configs = [_write_json(self.work / f"config-{k}.json", self.config(ms))
                        for k, ms in enumerate(self.master_seeds)]

    def _argv(self, config: Path, stem: str) -> list[str]:
        return ["study", "--config", str(config), "--out", str(self.work / f"{stem}.csv"),
                "--json-out", str(self.work / f"{stem}.json")]

    def op(self, i):
        config = self.configs[i % self.N_CONFIGS]
        outs = (self.work / "report.csv", self.work / "report.json")
        return Op(self._argv(config, "report"), self.fits, outs,
                  lambda rc: self._check(rc, outs[1]))

    def setup_argv(self):
        small = _write_json(self.work / "config-setup.json",
                            self.config(self.master_seeds[0], small=True))
        return self._argv(small, "setup")


WORKLOADS = {w.name: w for w in (CiWorkload, WeightsWorkload)}
