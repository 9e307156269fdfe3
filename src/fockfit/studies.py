"""Drivers for the simulation studies: fidelity-versus-shots curves,
weight-scheme comparisons on paired data, bias/spread tables, and
interval-coverage tables.  Reports are machine-readable (CSV and JSON).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ._io import atomic_write, is_int, is_number
from .bootstrap import METHODS, PARAMETERS, _coverage, parameter_values
from .estimation import WEIGHT_SCHEMES, PriorShape, fit_batch, weights_for
from .model import MAX_FOCK, SqueezedThermalState, fidelity, fock_distribution, to_variances
from .sampling import MAX_SEED, MAX_SHOTS, SeedSpec, _sample_blocks

__all__ = [
    "DEFAULT_SHOT_GRID",
    "STUDY_KINDS",
    "ConfigError",
    "SchemeSpec",
    "StudyConfig",
    "StudyRow",
    "StudyReport",
    "fidelity_study",
    "weight_comparison_study",
    "coverage_study",
    "run_study",
    "parse_config",
]

# Logarithmic shot grid for fidelity-vs-N curves (10^2 .. 10^5, half-decade
# steps), used when a config does not list shot counts explicitly.
DEFAULT_SHOT_GRID = (100, 316, 1000, 3162, 10000, 31623, 100000)


class ConfigError(ValueError):
    """A study-config rule broken; the message starts "<field>: " or "config: "."""


@dataclass(frozen=True)
class SchemeSpec:
    """One weighting rule to run: the scheme name plus, for the posterior
    scheme, the Beta prior shape; the other schemes take no prior, so their
    nu and eta must stay 1."""

    scheme: str
    nu: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if self.scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.scheme!r}")
        PriorShape(self.nu, self.eta)
        for name in ("nu", "eta"):
            if self.scheme != "posterior" and getattr(self, name) != 1:
                raise ValueError(f"{name}: {self.scheme} weights take no prior; only posterior "
                                 f"weights use nu and eta")


def _ints_from(lo: int, hi: float = float("inf")):
    return lambda n: is_int(n) and lo <= n <= hi


def _list_of(ok):
    return lambda v: isinstance(v, (tuple, list)) and len(v) > 0 and all(map(ok, v))


@dataclass(frozen=True)
class StudyConfig:
    """One study's settings.  Built in Python or by parse_config, it checks
    every field's type and range and raises ConfigError naming the field."""

    true_states: tuple[SqueezedThermalState, ...]
    shot_counts: tuple[int, ...] = DEFAULT_SHOT_GRID
    n_experiments: int = 100
    n_b: tuple[int, ...] = (1000,)
    alpha: float = 0.05
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec("posterior"),)
    n_max: int = 20
    master_seed: int = 0
    exact_probabilities: bool = False

    def __post_init__(self):
        for name, ok, expected in _FIELD_RULES:
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name}: expected {expected}, got {value!r}")
        for i, state in enumerate(self.true_states):
            try:
                to_variances(state)  # its variances must be in the model's range
            except ValueError as exc:
                raise ConfigError(f"true_states[{i}]: {exc}") from exc
        # numpy integers pass the rules; stored as ints, they reach the
        # reports as the same numbers Python ints give.
        for name in ("shot_counts", "n_b"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        for name in ("n_experiments", "n_max", "master_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


# (field, check, what it expects) for each StudyConfig field; see is_int.
_FIELD_RULES = (
    ("true_states", _list_of(lambda s: isinstance(s, SqueezedThermalState)),
     "a nonempty list of SqueezedThermalState"),
    ("shot_counts", _list_of(_ints_from(1, MAX_SHOTS)),
     "a nonempty list of integers in [1, 2**63 - 1]"),
    ("n_experiments", _ints_from(1), "an integer >= 1"),
    ("n_b", _list_of(_ints_from(2)), "a nonempty list of integers >= 2"),
    ("alpha", lambda a: is_number(a) and 0.0 < a < 0.5, "a number in (0, 0.5)"),
    ("schemes", _list_of(lambda s: isinstance(s, SchemeSpec)), "a nonempty list of SchemeSpec"),
    ("n_max", _ints_from(1, MAX_FOCK), f"an integer in [1, {MAX_FOCK}]"),
    ("master_seed", _ints_from(0, MAX_SEED), "an integer in [0, 2**64)"),
    ("exact_probabilities", lambda b: isinstance(b, bool), "a bool"),
)


@dataclass(frozen=True)
class StudyRow:
    """One report line: a (state, shots, scheme, method) combination with
    whichever statistics the study computed; unused cells stay None."""

    state_r: float
    state_nbar: float
    shots: int
    scheme: str
    nu: Optional[float] = None
    eta: Optional[float] = None
    n_experiments: int = 0
    n_failed: int = 0
    mean_fidelity: Optional[float] = None
    std_fidelity: Optional[float] = None
    mean_infidelity: Optional[float] = None
    std_infidelity: Optional[float] = None
    bias_r: Optional[float] = None
    std_r: Optional[float] = None
    bias_over_std_r: Optional[float] = None
    bias_nbar: Optional[float] = None
    std_nbar: Optional[float] = None
    bias_over_std_nbar: Optional[float] = None
    bias_vq: Optional[float] = None
    std_vq: Optional[float] = None
    bias_over_std_vq: Optional[float] = None
    bias_vp: Optional[float] = None
    std_vp: Optional[float] = None
    bias_over_std_vp: Optional[float] = None
    coverage_vq: Optional[float] = None
    se_coverage_vq: Optional[float] = None
    coverage_vp: Optional[float] = None
    se_coverage_vp: Optional[float] = None
    coverage_r: Optional[float] = None
    se_coverage_r: Optional[float] = None
    coverage_nbar: Optional[float] = None
    se_coverage_nbar: Optional[float] = None
    method: Optional[str] = None
    n_b: Optional[int] = None


REPORT_COLUMNS = tuple(f.name for f in fields(StudyRow))


@dataclass(frozen=True)
class StudyReport:
    rows: tuple[StudyRow, ...]

    def to_dicts(self) -> list[dict]:
        # StudyRow fields are scalars or None, so a shallow copy is asdict's
        # deep one
        return [dict(vars(row)) for row in self.rows]

    def write_csv(self, path) -> None:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(REPORT_COLUMNS)
        for row in map(vars, self.rows):
            writer.writerow(
                ["" if row[c] is None else repr(float(row[c]))
                 if isinstance(row[c], float) else row[c]
                 for c in REPORT_COLUMNS]
            )
        atomic_write(path, buf.getvalue())

    def write_json(self, path) -> None:
        """The text of ``json.dumps({"format_version": 1, "rows":
        self.to_dicts()}, indent=1)`` plus a newline.  Each row goes through
        json's C encoder, whose item separator carries the row's indent;
        json.dumps takes the pure-Python encoder whenever indent is set."""
        rows = ",\n  ".join("{\n   " + json.dumps(vars(row), separators=(",\n   ", ": "))[1:-1]
                             + "\n  }" for row in self.rows)
        rows = f"[\n  {rows}\n ]" if self.rows else "[]"
        atomic_write(path, f'{{\n "format_version": 1,\n "rows": {rows}\n}}\n')


def _row(state: SqueezedThermalState, shots: int, spec: SchemeSpec, cfg: StudyConfig,
         n_failed: int, **cells) -> StudyRow:
    """One report row: the (state, shots, scheme) columns every study
    writes, the prior for the posterior scheme only, then the study's cells."""
    is_posterior = spec.scheme == "posterior"
    return StudyRow(state_r=state.r, state_nbar=state.nbar, shots=shots, scheme=spec.scheme,
                    nu=spec.nu if is_posterior else None, eta=spec.eta if is_posterior else None,
                    n_experiments=cfg.n_experiments, n_failed=n_failed, **cells)


def _cell_moments(values: np.ndarray, ok: np.ndarray):
    """Each cell's count of converged rows, and the mean and sample
    standard deviation of each quantity over them: ``values`` is
    (quantity, cell, row) and ``ok`` (cell, row); the moments are
    (quantity, cell), meaningful for cells with >= 1 and >= 2 used rows.

    Cells with the same count are reduced together.  Each quantity's
    converged entries are compressed into a C-contiguous
    (quantity, cell, used) block, so every reduction runs along a
    contiguous last axis and sums each cell in the order the one-cell
    np.mean and np.std would."""
    used = ok.sum(axis=1).tolist()
    mean, std = np.empty(values.shape[:2]), np.empty(values.shape[:2])
    # a set of the counts: np.unique raised the process's peak RSS
    for m in set(used) - {0}:
        cells = [k for k, u in enumerate(used) if u == m]
        block = np.stack([q[cells][ok[cells]] for q in values]).reshape(-1, len(cells), m)
        mean[:, cells] = np.mean(block, axis=-1)
        if m >= 2:
            std[:, cells] = np.std(block, axis=-1, ddof=1)
    return used, mean, std


def _point_rows(cfg: StudyConfig) -> list[StudyRow]:
    """One report row per (state, shots, scheme), from one columnar pass.

    Each state's model distribution is computed once.  Every (state,
    shots) block of experiments is simulated once, in one sampling pass,
    block b from the streams starting at b * n_experiments (blocks in
    config order, shots varying fastest), so every scheme sees identical
    simulated data.  Each scheme's weights are computed once over all
    blocks, and every block's experiments under every scheme are fitted in
    one fit_batch call, which fits a row the same whatever rows share its
    batch.  The statistics of all cells are reduced from (quantity, cell,
    row) arrays (see _cell_moments)."""
    n, schemes = cfg.n_experiments, cfg.schemes
    truths = [to_variances(state) for state in cfg.true_states]
    dists = [fock_distribution(truth, cfg.n_max) for truth in truths]
    blocks = [(dist, shots, n) for dist in dists for shots in cfg.shot_counts]
    totals = np.repeat(np.array([s for _, s, _ in blocks], dtype=float), n)[:, None]
    if cfg.exact_probabilities:
        # Expected counts N*p_n stand in for observed counts.
        f = np.repeat([dist.all_probs for dist, _, _ in blocks], n, axis=0)
        counts = f * totals
    else:
        counts = _sample_blocks([(d, s, b * n, n) for b, (d, s, _) in enumerate(blocks)],
                                cfg.master_seed)
        f = counts / totals
    # rows in (state, shots, scheme) order, each cell's n experiments together
    by_block = (len(blocks), n, cfg.n_max + 2)
    weights = np.stack([weights_for(counts, spec.scheme, PriorShape(spec.nu, spec.eta))
                        .reshape(by_block) for spec in schemes], axis=1)
    freqs = np.stack([f.reshape(by_block)] * len(schemes), axis=1)
    fits = fit_batch(freqs.reshape(-1, by_block[2]), weights.reshape(-1, by_block[2]))

    cells = [(state, truth, shots, spec) for state, truth in zip(cfg.true_states, truths)
             for shots in cfg.shot_counts for spec in schemes]
    true_rows = np.repeat([(truth.vq, truth.vp) for _, truth, _, _ in cells], n, axis=0)
    fid = fidelity(fits, SimpleNamespace(vq=true_rows[:, 0], vp=true_rows[:, 1]))
    values = np.stack([getattr(fits, p) for p in PARAMETERS] + [fid, 1.0 - fid])
    used, mean, std = _cell_moments(values.reshape(len(values), len(cells), n),
                                    fits.converged.reshape(len(cells), n))
    rows = []
    for k, (state, truth, shots, spec) in enumerate(cells):
        means = mean[:, k].tolist() if used[k] else [None] * len(values)
        spreads = std[:, k].tolist() if used[k] >= 2 else [None] * len(values)
        stats: dict[str, Optional[float]] = {}
        for name, true_value, mu, sd in zip(PARAMETERS, parameter_values(truth, state).values(),
                                            means, spreads):
            bias = mu - true_value if mu is not None else None
            stats |= {f"bias_{name}": bias, f"std_{name}": sd,
                      f"bias_over_std_{name}": bias / sd if sd is not None and sd > 0.0 else None}
        rows.append(_row(state, shots, spec, cfg, n - used[k], **stats,
                         mean_fidelity=means[-2], std_fidelity=spreads[-2],
                         mean_infidelity=means[-1], std_infidelity=spreads[-1]))
    return rows


def fidelity_study(cfg: StudyConfig) -> StudyReport:
    """Point-estimate study under each configured weight scheme: for every
    configured (state, shots, scheme), the mean and spread of the
    estimate-versus-truth fidelity, and the bias, standard deviation and
    their ratio for each of the four parameters.  The "fidelity", "bias"
    and "weight_comparison" study kinds all run it."""
    return StudyReport(tuple(_point_rows(cfg)))


def weight_comparison_study(cfg: StudyConfig) -> StudyReport:
    """fidelity_study repeated per weighting scheme on shared simulated
    data, so the resulting curves are paired."""
    _check_paired_schemes(cfg)
    return fidelity_study(cfg)


def _check_paired_schemes(cfg: StudyConfig) -> None:
    if len(cfg.schemes) < 2:
        raise ConfigError("schemes: a weight comparison needs >= 2 entries")


def coverage_study(cfg: StudyConfig) -> StudyReport:
    """Interval coverage per (state, shots, n_b), reported for both the
    percentile and BC methods computed from the same replicate sets.  All
    cells run in one coverage pass (one sampling pass and one batch of
    point fits, then one pool of replicate-engine tasks of whole
    experiments), with the cells' stream blocks laid out back to back in
    config order (n_b varying fastest).
    Coverage fits with posterior weights only, so ``cfg.schemes`` must be
    one posterior spec, whose prior it uses."""
    spec = cfg.schemes[0]
    if len(cfg.schemes) != 1 or spec.scheme != "posterior":
        raise ConfigError("schemes: a coverage study needs one posterior spec")
    cells = [(state, shots, nb) for state in cfg.true_states
             for shots in cfg.shot_counts for nb in cfg.n_b]
    results = _coverage(cells, cfg.n_experiments, cfg.alpha, METHODS,
                        PriorShape(spec.nu, spec.eta), SeedSpec(cfg.master_seed, 0), cfg.n_max)
    rows = [
        _row(state, shots, spec, cfg, result.n_experiments - result.n_used,
             **{f"coverage_{p}": result.coverage[method][p] for p in PARAMETERS},
             **{f"se_coverage_{p}": result.std_error[method][p] for p in PARAMETERS},
             method=method, n_b=nb)
        for (state, shots, nb), result in zip(cells, results) for method in METHODS
    ]
    return StudyReport(tuple(rows))


STUDY_KINDS = {
    "fidelity": fidelity_study,
    "bias": fidelity_study,
    "weight_comparison": weight_comparison_study,
    "coverage": coverage_study,
}


def _check_kind(kind) -> str:
    if not isinstance(kind, str) or kind not in STUDY_KINDS:
        raise ConfigError(f"study: expected one of {sorted(STUDY_KINDS)}, got {kind!r}")
    return kind


def run_study(kind: str, cfg: StudyConfig) -> StudyReport:
    return STUDY_KINDS[_check_kind(kind)](cfg)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return doc[key]


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field '{key}'")


def _number(value, field: str) -> float:
    if not is_number(value):
        raise ConfigError(f"{field}: expected a number")
    return float(value)


def _parse_state(entry, where: str) -> SqueezedThermalState:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object with 'r' and 'nbar'")
    _reject_unknown(entry, {"r", "nbar"}, where)
    r, nbar = (_number(_require(entry, key, where), f"{where}.{key}") for key in ("r", "nbar"))
    try:
        return SqueezedThermalState(r, nbar)  # StudyConfig checks its variances
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _each(raw, field: str, parse) -> tuple:
    """Each entry of a JSON list parsed, named by path; a non-list is StudyConfig's."""
    if not isinstance(raw, list):
        return raw
    return tuple(parse(entry, f"{field}[{i}]") for i, entry in enumerate(raw))


def _parse_scheme(entry, where: str) -> SchemeSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object with 'scheme'")
    _reject_unknown(entry, {"scheme", "nu", "eta"}, where)
    for key in ("nu", "eta"):
        if key in entry and entry.get("scheme") in ("mle", "uniform"):
            raise ConfigError(f"{where}.{key}: {entry['scheme']} weights take no prior; only "
                              f"posterior weights use nu and eta")
    nu, eta = (_number(entry.get(key, 1.0), f"{where}.{key}") for key in ("nu", "eta"))
    try:
        return SchemeSpec(_require(entry, "scheme", where), nu, eta)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The fields each study kind reads; parse_config rejects the others by
# name.  weight_scheme and prior give the other kinds their one scheme; a
# weight comparison accepts only the default prior, which existing configs set.
_POINT_FIELDS = {"format_version", "study", "true_states", "shot_counts", "n_experiments",
                 "prior", "n_max", "master_seed", "exact_probabilities"}
_KIND_FIELDS = {
    "fidelity": _POINT_FIELDS | {"weight_scheme"},
    "bias": _POINT_FIELDS | {"weight_scheme"},
    "weight_comparison": _POINT_FIELDS | {"schemes"},
    "coverage": _POINT_FIELDS - {"exact_probabilities"} | {"n_b", "alpha", "weight_scheme"},
}
_CONFIG_FIELDS = set().union(*_KIND_FIELDS.values())
# StudyConfig fields that map from JSON as they are, a list as a tuple.
_PLAIN_FIELDS = {f.name for f in fields(StudyConfig)} - {"true_states", "schemes"}


def parse_config(doc: dict) -> tuple[str, StudyConfig]:
    """Map a study-config document onto (study kind, StudyConfig).

    It checks what only the document has: a JSON object of known fields at
    format_version 1, a known study kind that reads every field set, and the
    nested states, prior and schemes, named by path.  StudyConfig checks
    every field's own rules; its ConfigError passes through unchanged.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    _reject_unknown(doc, _CONFIG_FIELDS, "config")
    version = doc.get("format_version", 1)
    if not is_int(version) or version != 1:
        raise ConfigError("format_version: only version 1 is supported")
    kind = _check_kind(_require(doc, "study", "config"))
    kwargs = {key: tuple(doc[key]) if isinstance(doc[key], list) else doc[key]
              for key in _PLAIN_FIELDS & doc.keys()}
    if "n_b" in doc and not isinstance(doc["n_b"], list):
        kwargs["n_b"] = (doc["n_b"],)
    kwargs["true_states"] = _each(_require(doc, "true_states", "config"), "true_states",
                                  _parse_state)
    scheme = doc.get("weight_scheme", "posterior")
    if scheme not in WEIGHT_SCHEMES:
        raise ConfigError(f"weight_scheme: unknown weight scheme {scheme!r}")
    if kind == "coverage" and scheme != "posterior":
        raise ConfigError("weight_scheme: a coverage study uses posterior weights only")
    prior = doc.get("prior", {"nu": 1.0, "eta": 1.0})
    if not isinstance(prior, dict):
        raise ConfigError("prior: expected an object with 'nu' and 'eta'")
    _reject_unknown(prior, {"nu", "eta"}, "prior")
    for key in ("nu", "eta"):
        _require(prior, key, "prior")
    kwargs["schemes"] = (_parse_scheme({**doc.get("prior", {}), "scheme": scheme}, "prior"),)
    if kind == "weight_comparison" and (prior["nu"], prior["eta"]) != (1, 1):
        raise ConfigError("prior: a weight comparison takes each scheme's nu and eta "
                          "from 'schemes'; prior may only be {\"nu\": 1, \"eta\": 1}")
    if "schemes" in doc:
        kwargs["schemes"] = _each(doc["schemes"], "schemes", _parse_scheme)
    cfg = StudyConfig(**kwargs)
    for key in doc:
        if key not in _KIND_FIELDS[kind]:
            raise ConfigError(f"{key}: a {kind} study does not use this field")
    if kind == "weight_comparison":
        _check_paired_schemes(cfg)
    return kind, cfg
