"""Drivers for the simulation studies: fidelity-versus-shots curves,
weight-scheme comparisons on paired data, bias/spread tables, and
interval-coverage tables.  Reports are machine-readable (CSV and JSON).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from ._io import atomic_write, is_json_int, is_json_number
from .bootstrap import METHODS, PARAMETERS, coverage_probability, parameter_values
from .estimation import WEIGHT_SCHEMES, FitBatch, PriorShape, fit_batch, weights_for
from .model import SqueezedThermalState, fidelity, fock_distribution, to_variances
from .sampling import SeedSpec, _sample_counts

__all__ = [
    "DEFAULT_SHOT_GRID",
    "STUDY_KINDS",
    "ConfigError",
    "SchemeSpec",
    "StudyConfig",
    "StudyRow",
    "StudyReport",
    "fidelity_study",
    "bias_study",
    "weight_comparison_study",
    "coverage_study",
    "run_study",
    "parse_config",
]

# Logarithmic shot grid for fidelity-vs-N curves (10^2 .. 10^5, half-decade
# steps), used when a config does not list shot counts explicitly.
DEFAULT_SHOT_GRID = (100, 316, 1000, 3162, 10000, 31623, 100000)


class ConfigError(ValueError):
    """Study configuration schema violation; the message names the field."""


@dataclass(frozen=True)
class SchemeSpec:
    """One weighting rule to run: the scheme name plus, for the posterior
    scheme, the Beta prior shape."""

    scheme: str
    nu: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if self.scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.scheme!r}")
        PriorShape(self.nu, self.eta)


@dataclass(frozen=True)
class StudyConfig:
    true_states: tuple[SqueezedThermalState, ...]
    shot_counts: tuple[int, ...] = DEFAULT_SHOT_GRID
    n_experiments: int = 100
    n_b: tuple[int, ...] = (1000,)
    alpha: float = 0.05
    prior: PriorShape = PriorShape(1.0, 1.0)
    weight_scheme: str = "posterior"
    schemes: Optional[tuple[SchemeSpec, ...]] = None
    n_max: int = 20
    master_seed: int = 0
    exact_probabilities: bool = False

    def __post_init__(self):
        if not self.true_states:
            raise ValueError("true_states must be nonempty")
        if not self.shot_counts or any(n < 1 for n in self.shot_counts):
            raise ValueError("shot_counts must be positive")
        if self.n_experiments < 1:
            raise ValueError("n_experiments must be >= 1")
        if not self.n_b or any(nb < 2 for nb in self.n_b):
            raise ValueError("n_b values must be >= 2")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")
        if not 1 <= self.n_max <= 64:
            raise ValueError(f"n_max must be in [1, 64], got {self.n_max}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


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
        return [asdict(row) for row in self.rows]

    def write_csv(self, path) -> None:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(REPORT_COLUMNS)
        for row in self.to_dicts():
            writer.writerow(
                ["" if row[c] is None else repr(float(row[c]))
                 if isinstance(row[c], float) else row[c]
                 for c in REPORT_COLUMNS]
            )
        atomic_write(path, buf.getvalue())

    def write_json(self, path) -> None:
        atomic_write(path, json.dumps({"format_version": 1, "rows": self.to_dicts()},
                                      indent=1) + "\n")


def _spread(values: np.ndarray) -> Optional[float]:
    return float(np.std(values, ddof=1)) if values.shape[0] >= 2 else None


def _aggregate_point_row(state: SqueezedThermalState, shots: int, spec: SchemeSpec,
                         cfg: StudyConfig, fits: FitBatch) -> StudyRow:
    ok = fits.converged
    truth = to_variances(state)
    true_values = parameter_values(truth, state)
    stats: dict[str, Optional[float]] = {}
    for name in PARAMETERS:
        est = getattr(fits, name)[ok]
        bias = float(np.mean(est) - true_values[name]) if est.shape[0] else None
        std = _spread(est)
        stats[f"bias_{name}"] = bias
        stats[f"std_{name}"] = std
        stats[f"bias_over_std_{name}"] = (
            bias / std if bias is not None and std is not None and std > 0.0 else None
        )
    fid = fidelity(fits, truth)[ok]
    is_posterior = spec.scheme == "posterior"
    return StudyRow(
        state_r=state.r,
        state_nbar=state.nbar,
        shots=shots,
        scheme=spec.scheme,
        nu=spec.nu if is_posterior else None,
        eta=spec.eta if is_posterior else None,
        n_experiments=cfg.n_experiments,
        n_failed=fits.n_failed,
        mean_fidelity=float(np.mean(fid)) if fid.shape[0] else None,
        std_fidelity=_spread(fid),
        mean_infidelity=float(np.mean(1.0 - fid)) if fid.shape[0] else None,
        std_infidelity=_spread(1.0 - fid),
        **stats,
    )


def _point_rows(cfg: StudyConfig, schemes: tuple[SchemeSpec, ...]) -> list[StudyRow]:
    """One report row per (state, shots, scheme).  Each (state, shots)
    block of experiments is simulated once, from the streams starting at
    block * n_experiments (blocks in config order, shots varying fastest),
    so every scheme sees identical simulated data; then every block's
    experiments under every scheme are fitted in one fit_batch call, which
    fits a row the same whatever rows share its batch."""
    blocks = [(state, shots) for state in cfg.true_states for shots in cfg.shot_counts]
    n = cfg.n_experiments
    freqs, weights = [], []
    for b, (state, shots) in enumerate(blocks):
        dist = fock_distribution(to_variances(state), cfg.n_max)
        if cfg.exact_probabilities:
            # Expected counts N*p_n stand in for observed counts.
            f = np.tile(dist.all_probs, (n, 1))
            counts = f * shots
        else:
            counts = _sample_counts(dist, shots, SeedSpec(cfg.master_seed, b * n), n)
            f = counts / shots
        for spec in schemes:
            freqs.append(f)
            weights.append(weights_for(counts, spec.scheme, PriorShape(spec.nu, spec.eta)))
    fits = fit_batch(np.concatenate(freqs), np.concatenate(weights))
    cells = [(state, shots, spec) for state, shots in blocks for spec in schemes]
    return [_aggregate_point_row(state, shots, spec, cfg, fits[k * n:(k + 1) * n])
            for k, (state, shots, spec) in enumerate(cells)]


def fidelity_study(cfg: StudyConfig) -> StudyReport:
    """Point-estimate study under the configured weight scheme: for every
    configured (state, shots) pair, the mean and spread of the
    estimate-versus-truth fidelity, and the bias, standard deviation and
    their ratio for each of the four parameters.  Both the "fidelity" and
    the "bias" study kinds run it."""
    spec = SchemeSpec(cfg.weight_scheme, cfg.prior.nu, cfg.prior.eta)
    return StudyReport(tuple(_point_rows(cfg, (spec,))))


bias_study = fidelity_study


def weight_comparison_study(cfg: StudyConfig) -> StudyReport:
    """fidelity_study repeated per weighting scheme on shared simulated
    data, so the resulting curves are paired."""
    if cfg.schemes is None or len(cfg.schemes) < 2:
        raise ValueError("weight comparison needs >= 2 entries in schemes")
    return StudyReport(tuple(_point_rows(cfg, cfg.schemes)))


def coverage_study(cfg: StudyConfig) -> StudyReport:
    """Interval coverage per (state, shots, n_b), reported for both the
    percentile and BC methods computed from the same replicate sets."""
    rows = []
    offset = 0
    for state in cfg.true_states:
        for shots in cfg.shot_counts:
            for nb in cfg.n_b:
                result = coverage_probability(
                    state, shots, cfg.n_experiments, nb, cfg.alpha, METHODS,
                    cfg.prior, SeedSpec(cfg.master_seed, offset), cfg.n_max,
                )
                offset += cfg.n_experiments * (nb + 1)
                for method in METHODS:
                    cov = result.coverage[method]
                    se = result.std_error[method]
                    rows.append(
                        StudyRow(
                            state_r=state.r,
                            state_nbar=state.nbar,
                            shots=shots,
                            scheme="posterior",
                            nu=cfg.prior.nu,
                            eta=cfg.prior.eta,
                            n_experiments=cfg.n_experiments,
                            n_failed=result.n_experiments - result.n_used,
                            **{f"coverage_{p}": cov[p] for p in PARAMETERS},
                            **{f"se_coverage_{p}": se[p] for p in PARAMETERS},
                            method=method,
                            n_b=nb,
                        )
                    )
    return StudyReport(tuple(rows))


STUDY_KINDS = {
    "fidelity": fidelity_study,
    "bias": bias_study,
    "weight_comparison": weight_comparison_study,
    "coverage": coverage_study,
}


def run_study(kind: str, cfg: StudyConfig) -> StudyReport:
    if kind not in STUDY_KINDS:
        raise ConfigError(f"study: unknown study kind {kind!r}")
    return STUDY_KINDS[kind](cfg)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return doc[key]


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field '{key}'")


def _number(value, field: str) -> float:
    if not is_json_number(value):
        raise ConfigError(f"{field}: expected a number")
    return float(value)


def _parse_state(entry, where: str) -> SqueezedThermalState:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object with 'r' and 'nbar'")
    _reject_unknown(entry, {"r", "nbar"}, where)
    r, nbar = (_number(_require(entry, key, where), f"{where}.{key}") for key in ("r", "nbar"))
    try:
        return SqueezedThermalState(r, nbar)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_scheme(entry, where: str) -> SchemeSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object with 'scheme'")
    _reject_unknown(entry, {"scheme", "nu", "eta"}, where)
    nu, eta = (_number(entry.get(key, 1.0), f"{where}.{key}") for key in ("nu", "eta"))
    try:
        return SchemeSpec(_require(entry, "scheme", where), nu, eta)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The fields each study kind reads; parse_config rejects the others by
# name.  A weight comparison also accepts a prior, which existing configs
# set though each of its schemes carries its own.
_POINT_FIELDS = {"format_version", "study", "true_states", "shot_counts", "n_experiments",
                 "prior", "n_max", "master_seed", "exact_probabilities"}
_KIND_FIELDS = {
    "fidelity": _POINT_FIELDS | {"weight_scheme"},
    "bias": _POINT_FIELDS | {"weight_scheme"},
    "weight_comparison": _POINT_FIELDS | {"schemes"},
    "coverage": _POINT_FIELDS - {"exact_probabilities"} | {"n_b", "alpha", "weight_scheme"},
}
_CONFIG_FIELDS = set().union(*_KIND_FIELDS.values())


def parse_config(doc: dict) -> tuple[str, StudyConfig]:
    """Validate a study-config document and build (study kind, StudyConfig).

    Raises ConfigError naming the offending field on any schema violation.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    _reject_unknown(doc, _CONFIG_FIELDS, "config")
    version = doc.get("format_version", 1)
    if not is_json_int(version) or version != 1:
        raise ConfigError("format_version: only version 1 is supported")
    kind = _require(doc, "study", "config")
    if kind not in STUDY_KINDS:
        raise ConfigError(
            f"study: expected one of {sorted(STUDY_KINDS)}, got {kind!r}"
        )
    states = _require(doc, "true_states", "config")
    if not isinstance(states, list) or not states:
        raise ConfigError("true_states: expected a nonempty list")
    true_states = tuple(
        _parse_state(s, f"true_states[{i}]") for i, s in enumerate(states)
    )

    kwargs: dict = {"true_states": true_states}
    if "shot_counts" in doc:
        raw = doc["shot_counts"]
        if not isinstance(raw, list) or not all(is_json_int(n) for n in raw):
            raise ConfigError("shot_counts: expected a list of integers")
        kwargs["shot_counts"] = tuple(raw)
    for key in ("n_experiments", "n_max", "master_seed"):
        if key in doc:
            if not is_json_int(doc[key]):
                raise ConfigError(f"{key}: expected an integer")
            kwargs[key] = doc[key]
    if "n_b" in doc:
        raw = doc["n_b"]
        if is_json_int(raw):
            raw = [raw]
        if not isinstance(raw, list) or not all(is_json_int(n) for n in raw):
            raise ConfigError("n_b: expected an integer or list of integers")
        kwargs["n_b"] = tuple(raw)
    if "alpha" in doc:
        kwargs["alpha"] = _number(doc["alpha"], "alpha")
    if "prior" in doc:
        entry = doc["prior"]
        if not isinstance(entry, dict):
            raise ConfigError("prior: expected an object with 'nu' and 'eta'")
        _reject_unknown(entry, {"nu", "eta"}, "prior")
        nu, eta = (_number(_require(entry, key, "prior"), f"prior.{key}")
                   for key in ("nu", "eta"))
        try:
            kwargs["prior"] = PriorShape(nu, eta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"prior: {exc}") from exc
    if "weight_scheme" in doc:
        if kind == "coverage" and doc["weight_scheme"] != "posterior":
            raise ConfigError("weight_scheme: a coverage study uses posterior weights only")
        kwargs["weight_scheme"] = doc["weight_scheme"]
    if doc.get("schemes") is not None:
        raw = doc["schemes"]
        if not isinstance(raw, list):
            raise ConfigError("schemes: expected a list")
        kwargs["schemes"] = tuple(
            _parse_scheme(s, f"schemes[{i}]") for i, s in enumerate(raw)
        )
    if "exact_probabilities" in doc:
        if not isinstance(doc["exact_probabilities"], bool):
            raise ConfigError("exact_probabilities: expected a boolean")
        kwargs["exact_probabilities"] = doc["exact_probabilities"]
    for key in doc:
        if key not in _KIND_FIELDS[kind]:
            raise ConfigError(f"{key}: a {kind} study does not use this field")
    try:
        cfg = StudyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    if kind == "weight_comparison" and (cfg.schemes is None or len(cfg.schemes) < 2):
        raise ConfigError("schemes: weight_comparison needs >= 2 entries")
    return kind, cfg
