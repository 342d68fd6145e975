"""Experiment orchestration: configs, tracking runs, sweeps, slope fits.

Reproducibility contract: the config hash is a pure function of the
canonicalized (key-sorted, resolved) config JSON, per-seed runs derive
their streams from listed seeds, and every output byte is fixed by
(config, seed).  One runner, _run, serves a run (run_tracking: one group
of one cell) and a sweep (run_sweep: one group per distinct cell
schedule, holding its grid cells).  It reads every input before the first
scan: the reward, the noise, each cell's rate, and each group's schedule
against the rewards, x0, n_actions and the checkpoints
(learners._checked_grid, the checks learners.track makes).  Then the
certificate gates the run: schedules.verify_drift scans every group's
declared certificate, and a failing one raises before the learners take a
step, so no trace is written for it.  Each group then walks its schedule
once (learners.track at all its rates): every seed, rate and checkpoint
target shares each block, so memory does not grow with the horizon, and
whether cells share a walk changes no output bit.  A sweep reads its base's
anchors (schedules._spec_anchors), params and n as track does, before any
cell, so a cell is skipped only for a reason of its own.
"""

from __future__ import annotations

import errno
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
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    k = max(1, int(round(per_decade * math.log10(max(t_max, 2)))))
    grid = {int(round(10 ** e)) for e in np.linspace(0.0, math.log10(t_max), k + 1)}
    grid.add(t_max)
    return sorted(t for t in grid if 1 <= t <= t_max)


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
        if self.learner not in ("td0", "q"):
            raise ValueError(f"unknown learner {self.learner!r}")
        for name in ("t_max", "x0", "n_actions"):
            setattr(self, name, chains.integer(vars(self), name))
        if self.t_max < 2:  # the drift certificate needs one step
            raise ValueError("t_max must be >= 2")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if isinstance(self.seeds, dict):
            chains._known_keys(self.seeds, "seeds", ("base", "count"))
            base, count = chains.integer(self.seeds, "base"), chains.integer(self.seeds, "count")
            self.seeds = [base + k for k in range(count)]
        self.seeds = chains._read_list(self.seeds, "seeds", chains.integer)
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if len(set(self.seeds)) < len(self.seeds):  # one CSV per seed
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        for i, seed in enumerate(self.seeds):
            if seed < 0:  # a stream's SeedSequence takes none
                raise ValueError(f"seeds[{i}] must be non-negative, got {seed}")
        if isinstance(self.checkpoints, dict):
            chains._known_keys(self.checkpoints, "checkpoints", ("per_decade",))
            self.checkpoints = log_checkpoints(
                self.t_max, chains.integer(self.checkpoints, "per_decade"))
        if not self.checkpoints:
            self.checkpoints = log_checkpoints(self.t_max)
        self.checkpoints = sorted(set(chains._read_list(self.checkpoints, "checkpoints",
                                                          chains.integer)))

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        chains._known_keys(doc, "config", [f.name for f in fields(ExperimentConfig)])
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
        """Every field, so none drops out of the hash; shallow, as asdict copies per hash."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


def _summary(config: ExperimentConfig, chash: str, schedule, spec, traces) -> dict:
    errs = np.stack([t.errors() for t in traces])  # seeds x checkpoints
    med = np.median(errs, axis=0)
    q1, q3 = np.quantile(errs, [0.25, 0.75], axis=0)
    exps = bounds.ExponentTriple(schedule.params.gamma_p, float(config.rate["gamma_alpha"]),
                                 schedule.params.gamma_pi)
    label = bounds.classify_regime(exps)
    report = bounds.tracking_error_bound(default_bound_constants(spec, schedule),
                                         exps, config.t_max)
    ts = traces[0].checkpoint_ts()
    slope = fit_slope(ts, med, max(1, config.t_max // 100), config.t_max)
    return {
        "spec_version": SPEC_VERSION,
        "config_hash": chash,
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
    tails = traces[0].csv_tails()  # a function of t and the rate: every seed's alike
    for trace in traces:
        trace.write_csv(os.path.join(out_dir, f"{chash}_{trace.seed}.csv"), tails)
    summary = _summary(config, chash, schedule, spec, traces)
    with open(os.path.join(out_dir, f"summary_{chash}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def _check_out_dir(out_dir):
    """Raise NotADirectoryError, as making out_dir would, unless the nearest
    existing ancestor of out_dir is a directory; creates nothing."""
    path = missing = os.path.normpath(out_dir)
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path) or os.curdir
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)


def _run(base: ExperimentConfig, groups: list) -> list:
    """Run groups [(schedule, [(cell config, out_dir)])], one walk per group
    at its cells' rates, and write each cell (_write_run); return the
    summaries in order.  Cell configs differ from base only in rate and in
    the schedule spec their group's schedule was built from.  Every input,
    out dirs included (_check_out_dir), is checked before the first scan and
    every scan made before the first step, so a bad input or a failing
    certificate raises with nothing written.
    """
    spec, noise = RewardSpec.from_spec(base.reward), NoiseModel.from_spec(base.noise)
    rates = [[LearningRate.from_spec(cfg.rate) for cfg, _ in cells] for _, cells in groups]
    n_actions = base.n_actions if base.learner == "q" else None
    for schedule, cells in groups:
        learners._checked_grid(schedule, spec, base.t_max, base.checkpoints, base.x0, n_actions)
        for _, out_dir in cells:
            _check_out_dir(out_dir)
    for schedule, _ in groups:
        schedules.verify_drift(schedule, base.t_max)
    summaries = []
    for (schedule, cells), group_rates in zip(groups, rates):
        traces = learners.track(schedule, spec, group_rates, noise, base.t_max, base.seeds,
                                base.checkpoints, x0=base.x0, n_actions=n_actions)
        summaries += [_write_run(cfg, schedule, spec, cell_traces, out_dir)
                      for (cfg, out_dir), cell_traces in zip(cells, traces)]
    return summaries


def run_tracking(config: ExperimentConfig, out_dir) -> dict:
    """Run all seeds, write one CSV per seed plus a summary JSON; return the summary."""
    schedule = schedules.schedule_from_spec(config.schedule)
    return _run(config, [(schedule, [(config, out_dir)])])[0]


def _cell_schedule(base_schedule: dict, anchors: list, gamma_p: float, gamma_pi: float) -> dict:
    """Realize one sweep cell's (gamma_p, gamma_pi) as a schedule spec.

    gamma_pi = 0 cells copy the base's n and anchors as spelt: constant for
    gamma_p = inf, never-arriving interpolation for gamma_p >= 1, cyclic for
    gamma_p in (0,1).  gamma_pi > 0 cells map to the 3-state shrinking
    family, which couples gamma_p = gamma_pi + 1; anything else has no
    realizing family and raises ValueError naming the reason.
    """
    params = dict(base_schedule["params"])
    if gamma_pi == 0.0:
        if not anchors:
            raise ValueError("base schedule carries no anchor matrices")
        params["gamma_pi"], n = 0.0, len(anchors[0])  # run_sweep checked the base's n
        if gamma_p == schedules.GAMMA_INF:
            return {"kind": "constant", "n": n,
                    "params": {**params, "gamma_p": "inf"}, "p": anchors[0]}
        params["gamma_p"] = gamma_p
        if gamma_p >= 1.0:
            return {"kind": "interpolation", "n": n, "params": params,
                    "p_start": anchors[0], "p_end": anchors[-1]}
        return {"kind": "cyclic", "n": n, "params": params, "mats": anchors}
    if gamma_p == gamma_pi + 1.0:
        return {"kind": "shrinking-state", "n": 3,
                "params": {**params, "gamma_p": gamma_p, "gamma_pi": gamma_pi,
                           "c_pi": min(chains.number(params, "c_pi"), 1.0 / 3.0)}}
    raise ValueError(f"no schedule family realizes gamma_p={gamma_p} with gamma_pi="
                     f"{gamma_pi} (shrinking family forces gamma_p = gamma_pi + 1)")


def run_sweep(grid: dict, base: ExperimentConfig, out_dir) -> list:
    """Run one tracking experiment per exponent-triple cell; emit a merged CSV.

    grid: {"gamma_p": [...], "gamma_alpha": [...], "gamma_pi": [...]}, with
    "inf" accepted in gamma_p and gamma_pi optional ([0]); any other key, an
    empty axis and a value an axis lists twice are refused.  The base's
    anchors, n and params are checked as track checks them, before any cell.
    Cells violating standing assumptions, with no realizing family or
    refused by it are recorded as skipped, not errors.  Cells with the same
    schedule spec are one group of _run: one build, one certificate scan and
    one walk at every cell's rate; each cell's files are those run_tracking
    writes for it.  A bad input or a failing certificate raises before
    out_dir is made; the merged table, sorted by cell key, is written last.
    """
    grid = chains._known_keys(grid, "grid", ("gamma_p", "gamma_alpha", "gamma_pi"))
    if missing := [k for k in ("gamma_p", "gamma_alpha") if k not in grid]:
        raise ValueError(f"grid lacks {missing}")
    gps = chains._read_list(grid["gamma_p"], "gamma_p", chains.number)  # "inf" reads as inf
    gas = chains._read_list(grid["gamma_alpha"], "gamma_alpha", chains.number)
    gpis = chains._read_list(grid.get("gamma_pi", [0.0]), "gamma_pi", chains.number)
    for name, values in (("gamma_p", gps), ("gamma_alpha", gas), ("gamma_pi", gpis)):
        twice = [f"lists {v} more than once" for i, v in enumerate(values) if v in values[:i]]
        if twice or not values:
            raise ValueError(f"grid axis {name} {(twice or ['is empty'])[0]}")
    # the base is read and its anchors checked as track does it, though it is not built
    anchors = schedules._spec_anchors(base.schedule)
    if "params" not in base.schedule:  # a constant spec may omit them; every cell reads them
        raise ValueError(f"{base.schedule['kind']} schedule spec lacks ['params'] a sweep needs")
    params = schedules.DriftParams.from_spec(base.schedule["params"])
    if anchors:
        n = schedules._ArcWalk(anchors, params, closed=False).n
        if (spec_n := chains.integer(base.schedule, "n", n)) != n:
            raise ValueError(f"schedule spec n={spec_n} vs its {n}-state matrices")
    rows, groups = [], {}  # schedule spec JSON -> (schedule, [(row, cell config)])
    for gp in gps:
        for ga in gas:
            for gpi in gpis:
                # comma-free key: the merged table stays plain CSV
                key = f"gp={'inf' if gp == schedules.GAMMA_INF else gp}|ga={ga}|gpi={gpi}"
                row = {"cell": key,
                       "gamma_p": "inf" if gp == schedules.GAMMA_INF else gp,
                       "gamma_alpha": ga, "gamma_pi": gpi}
                # a standing assumption fails, no family realizes the cell, or
                # its family refuses the constants
                try:
                    bounds.ExponentTriple(gp, ga, gpi)
                    sched_spec = _cell_schedule(base.schedule, anchors, gp, gpi)
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
                groups.setdefault(spec_key, (schedule, []))[1].append((row, cfg))
    summaries = _run(base, [(schedule, [(cfg, os.path.join(out_dir, cfg.config_hash()))
                                        for _, cfg in cells])
                            for schedule, cells in groups.values()])
    ok_rows = [row for _, cells in groups.values() for row, _ in cells]
    for row, summary in zip(ok_rows, summaries):
        slope = summary["slope"]
        rows.append({**row, "status": "ok", "regime": summary["regime"],
                     "same_rate_as_static": summary["same_rate_as_static"],
                     "final_median_error": summary["final_median_error"],
                     "slope": slope["slope"] if slope else "",
                     "config_hash": summary["config_hash"]})
    rows.sort(key=lambda r: r["cell"])
    columns = ["cell", "gamma_p", "gamma_alpha", "gamma_pi", "status", "regime",
               "same_rate_as_static", "final_median_error", "slope", "config_hash"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    return rows
