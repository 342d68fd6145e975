"""Experiment orchestration: configs, tracking runs, sweeps, slope fits.

Reproducibility contract: the config hash is a pure function of the
canonicalized (key-sorted, resolved) config JSON, per-seed runs derive
their streams from listed seeds, and every output byte is fixed by
(config, seed).  One runner, _run, serves a run (run_tracking: one group
of one cell) and a sweep (run_sweep: one group per distinct cell
schedule, holding its grid cells), in three phases.  Settle reads every
input: the reward, the noise, and per cell its rate, its exponent triple
(gamma_alpha + gamma_pi >= 1 is refused there), regime and four-term bound
(null where a term overflows the floats), next to the config hash its
caller made (refusing a NaN or Infinity in the config); then each group's
schedule against the rewards, x0, n_actions and the checkpoints
(learners._checked_grid, the checks learners.track makes) and each out
path.  Walk: each group walks its schedule once (learners.track at all its
rates, one TrackingTrace per cell), certifying each block before a
learner steps through it, so a certificate failing at t stops the run
there; every seed, rate and checkpoint target shares each block, so memory
does not grow with the horizon, and whether cells share a walk changes no
output bit.  Write: each cell's trace writes its seeds' CSVs, and its
summary reduces trace.sup_error across seeds; the out dirs and files are
made only once every walk succeeded, so a bad input, a failing certificate
or a failed walk leaves nothing written.  No family is named here: the
schedules module reads a spec (resolve_spec, for the hash) and realizes a
sweep's cells (sweep_cells, over a base schedule built as track builds it).
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__, bounds, chains, learners, schedules
from .dp import RewardSpec
from .learners import LearningRate, NoiseModel

__all__ = [
    "ExperimentConfig",
    "log_checkpoints",
    "canonical_json",
    "run_tracking",
    "run_sweep",
    "fit_slope",
]


def log_checkpoints(t_max: int, per_decade: int) -> list:
    """Logarithmically spaced integer checkpoints on [1, t_max], endpoints kept."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    # per_decade capped at 40 t_max, refused below at any t_max, so that no int
    # beyond the floats overflows the product
    k = max(1, int(round(min(per_decade, 40 * t_max) * math.log10(max(t_max, 2)))))
    if k + 1 > 10 * t_max:  # the grid holds at most t_max distinct checkpoints
        raise ValueError(f"per_decade={per_decade} asks for more than 10 * t_max = "
                         f"{10 * t_max} grid points")
    grid = {int(round(10 ** e)) for e in np.linspace(0.0, math.log10(t_max), k + 1)}
    grid.add(t_max)
    return sorted(t for t in grid if 1 <= t <= t_max)


def canonical_json(doc) -> str:
    """Key-sorted, compact JSON; floats keep their shortest round-trip repr."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _hash(doc: dict) -> str:
    """The config hash of a resolved config (ExperimentConfig.canonical_dict)."""
    try:
        text = canonical_json(doc)
    except ValueError:  # json.load reads these tokens; strict JSON has none
        raise ValueError('config holds NaN or Infinity, which JSON does not allow; '
                         'an infinite exponent is written "inf"') from None
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class ExperimentConfig:
    """A fully resolved tracking experiment.

    seeds may be given as a list or {"base": b, "count": k} (resolved to
    b..b+k-1); checkpoints as a list (its points in [1, t_max] kept) or
    {"per_decade": m}, by default {"per_decade": 8}.  learner follows
    n_actions: "td0" at 1, "q" above ("td0" with more actions is refused).
    t_max lies in [2, 2**53), so each t walked (to t_max + 1) is an exact float; a seeds
    count is at most SEED_COUNT_MAX, each seed holding about 4 KB of tables through a walk.
    """

    SEED_COUNT_MAX = 100_000
    schedule: dict
    reward: dict
    rate: dict
    seeds: list | dict
    noise: dict = field(default_factory=lambda: {"kind": "zero", "eps_max": 0.0})
    learner: str = "td0"
    n_actions: int = 1
    t_max: int = 1000
    checkpoints: list | dict = field(default_factory=lambda: {"per_decade": 8})
    x0: int = 0

    def __post_init__(self):
        for name in ("schedule", "reward", "rate", "noise"):
            chains._object(getattr(self, name), name)
        if self.learner not in ("td0", "q"):
            raise ValueError(f"unknown learner {self.learner!r}")
        for name in ("t_max", "x0", "n_actions"):
            setattr(self, name, chains.integer(vars(self), name))
        if not 2 <= chains.number(vars(self), "t_max") < 2 ** 53:  # names an int no float holds
            raise ValueError("t_max must lie in [2, 2**53)")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if self.n_actions != 1 and self.learner == "td0":
            raise ValueError(f"n_actions={self.n_actions} needs learner 'q', not 'td0'")
        self.learner = "td0" if self.n_actions == 1 else "q"  # what learners.track runs
        if isinstance(self.seeds, dict):
            chains._object(self.seeds, "seeds", ("base", "count"))
            base, count = chains.integer(self.seeds, "base"), chains.integer(self.seeds, "count")
            if count > self.SEED_COUNT_MAX:
                raise ValueError(f"seeds count must be at most {self.SEED_COUNT_MAX}, got {count}")
            self.seeds = [base + k for k in range(count)]
        self.seeds = chains._read_list(self.seeds, "seeds", chains.integer)
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if len(set(self.seeds)) < len(self.seeds):  # one CSV per seed
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        for i, seed in enumerate(self.seeds):
            if not 0 <= seed < 2 ** 64:  # SeedSequence takes no negative; a CSV name has 20 digits
                raise ValueError(f"seeds[{i}] must be "
                                 f"{'non-negative' if seed < 0 else 'below 2**64'}, got {seed}")
        if isinstance(self.checkpoints, dict):
            chains._object(self.checkpoints, "checkpoints", ("per_decade",))
            self.checkpoints = log_checkpoints(
                self.t_max, chains.integer(self.checkpoints, "per_decade"))
        read = chains._read_list(self.checkpoints, "checkpoints", chains.integer)
        self.checkpoints = learners._checkpoints(read, self.t_max)  # what a run reads

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        chains._object(doc, "config", [f.name for f in fields(ExperimentConfig)],
                       [f.name for f in fields(ExperimentConfig)
                        if f.default is MISSING and f.default_factory is MISSING])
        return ExperimentConfig(**doc)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def canonical_dict(self) -> dict:
        """Every field as the run reads it, so spellings of one run hash alike:
        each number of the four spec objects read (chains._resolved: numeric
        strings as floats, -0.0 as 0.0, a string read as +inf as "inf"), the
        schedule's as schedules.resolve_spec reads it (its n filled in), and the
        noise's eps_max filled in.  A constant spec's omitted params stay omitted."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["noise"] = {"eps_max": 0.0, **self.noise}
        for name in ("reward", "rate", "noise"):
            doc[name] = chains._resolved(doc[name], ())
        doc["schedule"] = schedules.resolve_spec(self.schedule)
        return doc

    def config_hash(self) -> str:
        return _hash(self.canonical_dict())

    def build(self):
        """Instantiate (schedule, reward spec, rate, noise) from the dicts."""
        return (schedules.schedule_from_spec(self.schedule),
                RewardSpec.from_spec(self.reward),
                LearningRate.from_spec(self.rate),
                NoiseModel.from_spec(self.noise))


def fit_slope(ts, values, t_lo, t_hi) -> dict | None:
    """Least-squares slope of log(values) against log(ts), fit on the checkpoints
    in [t_lo, t_hi] with positive values; None if < 2 points."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ts >= t_lo) & (ts <= t_hi) & (values > 0)
    if mask.sum() < 2:
        return None
    x, y = np.log(ts[mask]), np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return {"slope": float(slope), "intercept": float(intercept), "t_lo": int(t_lo),
            "t_hi": int(t_hi), "n_points": int(mask.sum()),
            "residual_rms": float(np.sqrt(np.mean(resid ** 2)))}


def _settled(doc: dict, chash: str, schedule, spec: RewardSpec) -> tuple:
    """A cell's rate and the summary entries its resolved config alone fixes.  The
    bound takes constants of 1 with the scales the run has (R_max, beta and
    rho_cap clipped into (0, 1)), and is null where a term overflows."""
    rate = LearningRate.from_spec(doc["rate"])
    exps = bounds.ExponentTriple(schedule.params.gamma_p, rate.gamma_alpha,
                                 schedule.params.gamma_pi)
    rho = min(max(schedule.rho_cap, 1e-6), 1.0 - 1e-6)
    consts = bounds.Thm2Constants(r_max_eff=spec.value_cap, rho=rho, beta=spec.beta)
    try:
        report = bounds.tracking_error_bound(consts, exps, doc["t_max"])
    except ArithmeticError:  # a term leaves the floats: rho_cap near 1, or huge rewards
        report = None
    return rate, {"spec_version": __version__, "config_hash": chash, "config": doc,
                  **bounds.classify_regime(exps), "bound_report": report}


def _summary(facts: dict, trace: learners.TrackingTrace) -> dict:
    """A cell's settled facts around its trace's reductions over the seeds:
    median and IQR of sup_error per checkpoint, the median's slope and max |value|."""
    med = np.median(trace.sup_error, axis=0)
    q1, q3 = np.quantile(trace.sup_error, [0.25, 0.75], axis=0)
    t_max = facts["config"]["t_max"]
    return {**facts, "checkpoints": list(trace.t), "median_sup_error": med.tolist(),
            "iqr_lo": q1.tolist(), "iqr_hi": q3.tolist(), "final_median_error": float(med[-1]),
            "slope": fit_slope(trace.t, med, max(1, t_max // 100), t_max),
            "max_abs_value": max(trace.max_abs_value)}


def _write_run(facts: dict, trace: learners.TrackingTrace, out_dir) -> dict:
    """Write one CSV per seed plus the summary JSON of a cell; return the summary."""
    os.makedirs(out_dir, exist_ok=True)
    chash = facts["config_hash"]
    trace.write_csv(out_dir, chash)
    summary = _summary(facts, trace)
    with open(os.path.join(out_dir, f"summary_{chash}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, allow_nan=False)
    return summary


def _check_out_dir(out_dir):
    """Raise what making out_dir would: FileNotFoundError for an empty path,
    NotADirectoryError if its nearest existing ancestor is no directory; creates nothing."""
    if not os.fspath(out_dir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
    path = missing = os.path.normpath(out_dir)
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path) or os.curdir
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)


def _run(base: ExperimentConfig, groups: list) -> list:
    """Run groups [(schedule, [(cell's resolved config, its hash, out_dir)])]
    in the three phases of the module docstring; return the cells' summaries
    in order.  Cell configs differ from base only in rate and in the schedule
    spec their group's schedule was built from."""
    spec, noise = RewardSpec.from_spec(base.reward), NoiseModel.from_spec(base.noise)
    settled = [[_settled(doc, chash, schedule, spec) for doc, chash, _ in cells]
               for schedule, cells in groups]
    for schedule, cells in groups:
        learners._checked_grid(schedule, spec, base.t_max, base.checkpoints, base.x0,
                               base.n_actions)
        for *_, out_dir in cells:
            _check_out_dir(out_dir)
    traces = [learners.track(schedule, spec, [rate for rate, _ in group], noise, base.t_max,
                             base.seeds, base.checkpoints, x0=base.x0, n_actions=base.n_actions)
              for (schedule, _), group in zip(groups, settled)]
    return [_write_run(facts, trace, out_dir)
            for (_, cells), group, group_traces in zip(groups, settled, traces)
            for (*_, out_dir), (_, facts), trace in zip(cells, group, group_traces)]


def run_tracking(config: ExperimentConfig, out_dir) -> dict:
    """Run all seeds, write one CSV per seed plus a summary JSON; return the summary."""
    schedule, doc = schedules.schedule_from_spec(config.schedule), config.canonical_dict()
    return _run(config, [(schedule, [(doc, _hash(doc), out_dir)])])[0]


def run_sweep(grid: dict, base: ExperimentConfig, out_dir) -> list:
    """Run one tracking experiment per exponent-triple cell; emit a merged CSV.

    grid: {"gamma_p": [...], "gamma_alpha": [...], "gamma_pi": [...]}, with "inf" accepted
    in gamma_p and gamma_pi optional ([0]); any other key, an empty axis and a value an
    axis lists twice are refused.  The base schedule is built as track builds it, before
    any cell (schedules.sweep_cells, which realizes each cell); its n against the rewards
    is checked by the runs of the cells that copy it.  Cells violating standing
    assumptions, with no realizing family or refused by it (its constants or the rewards'
    n) are recorded as skipped.  Cells with the same schedule spec are one group of _run:
    one build and one certified walk at every cell's rate; each cell's files are those
    run_tracking writes for it.  Nothing is written before every walk has succeeded; the
    merged table, sorted by cell key, is written last.
    """
    chains._object(grid, "grid", ("gamma_p", "gamma_alpha", "gamma_pi"), ("gamma_p", "gamma_alpha"))
    gps = chains._read_list(grid["gamma_p"], "gamma_p", chains.number)  # "inf" reads as inf
    gas = chains._read_list(grid["gamma_alpha"], "gamma_alpha", chains.number)
    gpis = chains._read_list(grid.get("gamma_pi", [0.0]), "gamma_pi", chains.number)
    for name, values in (("gamma_p", gps), ("gamma_alpha", gas), ("gamma_pi", gpis)):
        twice = [f"lists {v} more than once" for i, v in enumerate(values) if v in values[:i]]
        if twice or not values:
            raise ValueError(f"grid axis {name} {(twice or ['is empty'])[0]}")
    realize = schedules.sweep_cells(base.schedule)  # the base built as track builds it
    n_rewards = RewardSpec.from_spec(base.reward).n
    rows, groups = [], {}  # a cell's schedule -> [(row, cell config, its hash)]
    for gp in gps:
        for ga in gas:
            for gpi in gpis:
                spelt = "inf" if gp == math.inf else gp  # a comma-free key: never quoted
                row = {"cell": f"gp={spelt}|ga={ga}|gpi={gpi}", "gamma_p": spelt,
                       "gamma_alpha": ga, "gamma_pi": gpi}
                # a standing assumption fails, no family realizes the cell, or
                # its family refuses the constants or the rewards
                try:
                    bounds.ExponentTriple(gp, ga, gpi)
                    sched_spec, schedule = realize(gp, gpi, n_rewards)
                except ValueError as exc:
                    rows.append({**row, "status": f"skipped: {exc}"})
                    continue
                doc = ExperimentConfig.from_dict({  # resolved once, hashed to its out dir's name
                    **vars(base), "schedule": sched_spec,
                    "rate": {**base.rate, "gamma_alpha": ga}}).canonical_dict()
                groups.setdefault(schedule, []).append((row, doc, _hash(doc)))
    _check_out_dir(out_dir)  # a cell's dir joined to an empty root would pass its own check
    summaries = _run(base, [(schedule, [(doc, chash, os.path.join(out_dir, chash))
                                        for _, doc, chash in cells])
                            for schedule, cells in groups.items()])
    ok_rows = [row for cells in groups.values() for row, *_ in cells]
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
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a status holding a comma
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)
    return rows
