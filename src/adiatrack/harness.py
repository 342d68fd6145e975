"""Experiment orchestration: configs, tracking runs, sweeps, slope fits.

Reproducibility contract: the config hash is a pure function of the
canonicalized (key-sorted, resolved) config JSON, per-seed runs derive
their streams from listed seeds, and every output byte is fixed by
(config, seed).  The certificate gates the run: schedules.verify_drift
scans the schedule's declared certificate first, and a failing one raises
before the learners take a step, so no trace is written for it.  The run
then walks its schedule once (learners.track): every seed and the
checkpoint targets share each block, so memory does not grow with the
horizon.  A sweep builds, scans and walks each distinct cell schedule once
and advances every cell of it at its own rate; whether cells share a walk
changes no output bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import bounds, chains, learners, schedules
from .dp import RewardSpec
from .learners import LearningRate, NoiseModel

SPEC_VERSION = "0.1.0"

__all__ = [
    "SPEC_VERSION",
    "ExperimentConfig",
    "SlopeEstimate",
    "log_checkpoints",
    "canonical_json",
    "run_tracking",
    "run_sweep",
    "fit_slope",
    "default_bound_constants",
]


def log_checkpoints(t_max: int, per_decade: int = 8) -> list:
    """Logarithmically spaced integer checkpoints on [1, t_max], endpoints kept."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    k = max(1, int(round(per_decade * math.log10(max(t_max, 2)))))
    grid = {int(round(10 ** e)) for e in np.linspace(0.0, math.log10(t_max), k + 1)}
    grid.add(t_max)
    return sorted(t for t in grid if 1 <= t <= t_max)


def _read_list(values: list, name: str, read) -> list:
    """Each entry of a JSON list through read (chains.number or chains.integer),
    named name[i] in its error; anything but a list is rejected by name."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return [read({f"{name}[{i}]": v}, f"{name}[{i}]") for i, v in enumerate(values)]


def canonical_json(doc) -> str:
    """Key-sorted, compact JSON; floats keep their shortest round-trip repr."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class ExperimentConfig:
    """A fully resolved tracking experiment.

    seeds may be given as an explicit list or {"base": b, "count": k}
    (resolved to b..b+k-1); checkpoints as a list or {"per_decade": m}.
    """

    schedule: dict
    reward: dict
    rate: dict
    noise: dict = field(default_factory=lambda: {"kind": "zero", "eps_max": 0.0})
    learner: str = "td0"
    n_actions: int = 1
    t_max: int = 1000
    checkpoints: list = field(default_factory=list)
    seeds: list = field(default_factory=list)
    x0: int = 0

    def __post_init__(self):
        for name in ("schedule", "reward", "rate", "noise"):
            chains._json_object(getattr(self, name), name)
        chains._json_object(self.schedule.get("params", {}), "params")  # sweep cells read it too
        if self.learner not in ("td0", "q"):
            raise ValueError(f"unknown learner {self.learner!r}")
        for name in ("t_max", "x0", "n_actions"):
            setattr(self, name, chains.integer(vars(self), name))
        if self.t_max < 2:  # the drift certificate needs one step
            raise ValueError("t_max must be >= 2")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if isinstance(self.seeds, dict):
            base, count = chains.integer(self.seeds, "base"), chains.integer(self.seeds, "count")
            self.seeds = [base + k for k in range(count)]
        self.seeds = _read_list(self.seeds, "seeds", chains.integer)
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if len(set(self.seeds)) < len(self.seeds):  # one CSV per seed
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        for i, seed in enumerate(self.seeds):
            if seed < 0:  # a stream's SeedSequence takes none
                raise ValueError(f"seeds[{i}] must be non-negative, got {seed}")
        if isinstance(self.checkpoints, dict):
            self.checkpoints = log_checkpoints(
                self.t_max, chains.integer(self.checkpoints, "per_decade"))
        if not self.checkpoints:
            self.checkpoints = log_checkpoints(self.t_max)
        self.checkpoints = sorted(set(_read_list(self.checkpoints, "checkpoints",
                                                   chains.integer)))

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        extra = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        missing = [f.name for f in fields(ExperimentConfig) if f.name not in doc
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return ExperimentConfig(**doc)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(chains._json_object(json.load(fh), "config"))

    def canonical_dict(self) -> dict:
        return {"schedule": self.schedule, "reward": self.reward, "rate": self.rate,
                "noise": self.noise, "learner": self.learner,
                "n_actions": self.n_actions, "t_max": self.t_max,
                "checkpoints": self.checkpoints, "seeds": self.seeds, "x0": self.x0}

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.canonical_dict()).encode()).hexdigest()[:12]

    def build(self):
        """Instantiate (schedule, reward spec, rate, noise) from the dicts."""
        return (schedules.schedule_from_spec(self.schedule),
                RewardSpec.from_spec(self.reward),
                LearningRate.from_spec(self.rate),
                NoiseModel.from_spec(self.noise))


@dataclass
class SlopeEstimate:
    """Least-squares slope of log(median sup_error) against log t."""

    slope: float
    intercept: float
    t_lo: int
    t_hi: int
    n_points: int
    residual_rms: float

    def to_json(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "t_lo": self.t_lo, "t_hi": self.t_hi,
                "n_points": self.n_points, "residual_rms": self.residual_rms}


def fit_slope(ts, values, t_lo, t_hi) -> SlopeEstimate | None:
    """Fit on checkpoints in [t_lo, t_hi] with positive values; None if < 2 points."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi) & (values > 0)
    if mask.sum() < 2:
        return None
    x, y = np.log(ts[mask]), np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return SlopeEstimate(slope=float(slope), intercept=float(intercept),
                         t_lo=int(t_lo), t_hi=int(t_hi), n_points=int(mask.sum()),
                         residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def default_bound_constants(spec: RewardSpec, schedule) -> bounds.Thm2Constants:
    """Constants-of-1 bound inputs with the scales the run actually has."""
    rho = min(max(schedule.rho_cap, 1e-6), 1.0 - 1e-6)
    return bounds.Thm2Constants(r_max_eff=spec.value_cap, rho=rho, beta=spec.beta)


def _track(config: ExperimentConfig, schedule, spec: RewardSpec, rates, noise: NoiseModel):
    """learners.track of config's seeds at each rate, one list of traces per rate."""
    n_actions = config.n_actions if config.learner == "q" else None
    return learners.track(schedule, spec, rates, noise, config.t_max, config.seeds,
                          config.checkpoints, x0=config.x0, n_actions=n_actions)


def _run_traces(config: ExperimentConfig):
    schedule, spec, rate, noise = config.build()
    schedules.verify_drift(schedule, config.t_max)  # raises before the first step
    return schedule, spec, _track(config, schedule, spec, [rate], noise)[0]


def _summary(config: ExperimentConfig, schedule, spec, traces) -> dict:
    errs = np.stack([t.errors() for t in traces])  # seeds x checkpoints
    med = np.median(errs, axis=0)
    q1 = np.quantile(errs, 0.25, axis=0)
    q3 = np.quantile(errs, 0.75, axis=0)
    exps = bounds.ExponentTriple(schedule.params.gamma_p, float(config.rate["gamma_alpha"]),
                                 schedule.params.gamma_pi)
    label = bounds.classify_regime(exps)
    report = bounds.tracking_error_bound(default_bound_constants(spec, schedule),
                                         exps, config.t_max)
    ts = traces[0].checkpoint_ts()
    slope = fit_slope(ts, med, max(1, config.t_max // 100), config.t_max)
    return {
        "spec_version": SPEC_VERSION,
        "config_hash": config.config_hash(),
        "config": config.canonical_dict(),
        "checkpoints": [int(t) for t in ts],
        "median_sup_error": med.tolist(),
        "iqr_lo": q1.tolist(),
        "iqr_hi": q3.tolist(),
        "final_median_error": float(med[-1]),
        "regime": label.regime,
        "same_rate_as_static": label.same_rate_as_static,
        "adiabatic_under_conjecture": label.adiabatic_under_conjecture,
        "bound_report": report.to_json(),
        "slope": slope.to_json() if slope else None,
        "max_abs_value": max(t.max_abs_value for t in traces),
    }


def _write_run(config: ExperimentConfig, schedule, spec, traces, out_dir) -> dict:
    """Write one CSV per seed plus the summary JSON of a run; return the summary."""
    os.makedirs(out_dir, exist_ok=True)
    chash = config.config_hash()
    for trace in traces:
        trace.write_csv(os.path.join(out_dir, f"{chash}_{trace.seed}.csv"))
    summary = _summary(config, schedule, spec, traces)
    with open(os.path.join(out_dir, f"summary_{chash}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def run_tracking(config: ExperimentConfig, out_dir) -> dict:
    """Run all seeds, write one CSV per seed plus a summary JSON; return the summary."""
    return _write_run(config, *_run_traces(config), out_dir)


def _cell_schedule(base_schedule: dict, gamma_p: float, gamma_pi: float) -> dict:
    """Realize one sweep cell's (gamma_p, gamma_pi) as a schedule spec.

    gamma_pi = 0 cells reuse the base anchors: constant for gamma_p = inf,
    never-arriving interpolation for gamma_p >= 1, cyclic for gamma_p in
    (0,1).  gamma_pi > 0 cells map to the 3-state shrinking family, which
    couples gamma_p = gamma_pi + 1; anything else has no realizing family
    and raises ValueError naming the reason.
    """
    anchors = base_schedule.get("mats")
    if anchors is None:
        anchors = [base_schedule.get("p_start"), base_schedule.get("p_end")]
    if anchors[0] is None or anchors[-1] is None:
        raise ValueError("base schedule carries no anchor matrices")
    params = dict(base_schedule["params"])
    if gamma_pi == 0.0:
        params["gamma_pi"] = 0.0
        if gamma_p == schedules.GAMMA_INF:
            return {"kind": "constant", "n": base_schedule["n"],
                    "params": {**params, "gamma_p": "inf"}, "p": anchors[0]}
        params["gamma_p"] = gamma_p
        if gamma_p >= 1.0:
            return {"kind": "interpolation", "n": base_schedule["n"], "params": params,
                    "p_start": anchors[0], "p_end": anchors[-1]}
        return {"kind": "cyclic", "n": base_schedule["n"], "params": params,
                "mats": anchors}
    if gamma_p == gamma_pi + 1.0:
        return {"kind": "shrinking-state", "n": 3,
                "params": {**params, "gamma_p": gamma_p, "gamma_pi": gamma_pi,
                           "c_pi": min(params.get("c_pi", 0.2), 1.0 / 3.0)}}
    raise ValueError(f"no schedule family realizes gamma_p={gamma_p} with gamma_pi="
                     f"{gamma_pi} (shrinking family forces gamma_p = gamma_pi + 1)")


def run_sweep(grid: dict, base: ExperimentConfig, out_dir) -> list:
    """Run one tracking experiment per exponent-triple cell; emit a merged CSV.

    grid: {"gamma_p": [...], "gamma_alpha": [...], "gamma_pi": [...]}, with
    "inf" accepted in gamma_p.  Cells violating standing assumptions or
    with no realizing schedule family are recorded as skipped, not errors.
    Cells with the same schedule spec share one build, one certificate scan
    and one walk (learners.track at every cell's rate); each cell's files
    are those run_tracking writes for it.  Every certificate is scanned
    before the first learner step, so a failing one raises with no cell
    written.  The merged table is sorted by cell key.
    """
    gps = _read_list(grid["gamma_p"], "gamma_p", chains.number)  # "inf" reads as inf
    gas = _read_list(grid["gamma_alpha"], "gamma_alpha", chains.number)
    gpis = _read_list(grid.get("gamma_pi", [0.0]), "gamma_pi", chains.number)
    rows, groups = [], {}  # schedule spec JSON -> (schedule, [(row, exps, cell config)])
    for gp in gps:
        for ga in gas:
            for gpi in gpis:
                # comma-free key: the merged table stays plain CSV
                key = f"gp={'inf' if gp == schedules.GAMMA_INF else gp}|ga={ga}|gpi={gpi}"
                row = {"cell": key,
                       "gamma_p": "inf" if gp == schedules.GAMMA_INF else gp,
                       "gamma_alpha": ga, "gamma_pi": gpi}
                try:
                    exps = bounds.ExponentTriple(gp, ga, gpi)
                except ValueError as exc:
                    rows.append({**row, "status": f"skipped: {exc}"})
                    continue
                try:  # no family realizes the cell, or its family refuses the constants
                    sched_spec = _cell_schedule(base.schedule, gp, gpi)
                    # json.dumps, not canonical_json: a NaN constant is the family's to refuse
                    spec_key = json.dumps(sched_spec, sort_keys=True)
                    schedule = (groups[spec_key][0] if spec_key in groups
                                else schedules.schedule_from_spec(sched_spec))
                except ValueError as exc:
                    rows.append({**row, "status": f"skipped: {exc}"})
                    continue
                cfg = ExperimentConfig.from_dict({
                    **base.canonical_dict(), "schedule": sched_spec,
                    "rate": {**base.rate, "gamma_alpha": ga}})
                groups.setdefault(spec_key, (schedule, []))[1].append((row, exps, cfg))
    if groups:  # read before the scans, as each cell's build() reads them
        spec, noise = RewardSpec.from_spec(base.reward), NoiseModel.from_spec(base.noise)
    for schedule, _ in groups.values():
        schedules.verify_drift(schedule, base.t_max)  # raises before any cell is written
    os.makedirs(out_dir, exist_ok=True)
    for schedule, cells in groups.values():
        rates = [LearningRate.from_spec(cfg.rate) for _, _, cfg in cells]
        for (row, exps, cfg), traces in zip(cells, _track(base, schedule, spec, rates, noise)):
            summary = _write_run(cfg, schedule, spec, traces,
                                 os.path.join(out_dir, cfg.config_hash()))
            label = bounds.classify_regime(exps)
            slope = summary["slope"]
            rows.append({**row, "status": "ok", "regime": label.regime,
                         "same_rate_as_static": label.same_rate_as_static,
                         "final_median_error": summary["final_median_error"],
                         "slope": slope["slope"] if slope else "",
                         "config_hash": summary["config_hash"]})
    rows.sort(key=lambda r: r["cell"])
    columns = ["cell", "gamma_p", "gamma_alpha", "gamma_pi", "status", "regime",
               "same_rate_as_static", "final_median_error", "slope", "config_hash"]
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    return rows
