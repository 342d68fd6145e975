"""Asynchronous stochastic-approximation tracking: TD(0) and Q-learning.

One table component updates per step, chosen by the sampled inhomogeneous
chain; tracking error is the sup-norm distance to the exact fixed point of
the *current* schedule matrix, solved on demand at checkpoints.

Determinism contract: a run is a pure function of (schedule, specs, seed).
The path stream is the same one chains.simulate would use for that seed;
explicit noise draws come from a second stream derived from the same seed,
so zero-noise runs reproduce the bare simulated path exactly.  Batch seeds
derive as base_seed + index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import chains, dp
from .chains import sample_from_row

__all__ = [
    "LearningRate",
    "NoiseModel",
    "TraceRow",
    "TrackingTrace",
    "sa_step",
    "td0_track",
    "q_track",
    "check_boundedness",
    "noise_rng",
]


@dataclass(frozen=True)
class LearningRate:
    """Power-law step size c_alpha / t**gamma_alpha, both constants in (0,1)."""

    c_alpha: float
    gamma_alpha: float

    def __post_init__(self):
        if not 0 < self.c_alpha < 1:
            raise ValueError("c_alpha must lie in (0, 1)")
        if not 0 < self.gamma_alpha < 1:
            raise ValueError("gamma_alpha must lie in (0, 1)")

    def alpha(self, t: int) -> float:
        return self.c_alpha / t ** self.gamma_alpha

    def to_spec(self) -> dict:
        return {"c_alpha": self.c_alpha, "gamma_alpha": self.gamma_alpha}

    @staticmethod
    def from_spec(doc: dict) -> "LearningRate":
        return LearningRate(float(doc["c_alpha"]), float(doc["gamma_alpha"]))


@dataclass(frozen=True)
class NoiseModel:
    """Explicit additive update noise: zero, or iid uniform on [-eps_max, eps_max].

    The bootstrap sample inside TD/Q updates already injects a martingale
    difference; this extra term exists to stress the explicit-noise pathway
    of the tracking bound.
    """

    kind: str = "zero"
    eps_max: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform-iid"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.eps_max < 0:
            raise ValueError("eps_max must be non-negative")
        if self.kind == "uniform-iid" and self.eps_max == 0.0:
            raise ValueError("uniform-iid noise needs eps_max > 0")

    def draws(self, t_max: int, seed: int) -> np.ndarray | None:
        if self.kind == "zero":
            return None
        return noise_rng(seed).uniform(-self.eps_max, self.eps_max, t_max)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "eps_max": self.eps_max}

    @staticmethod
    def from_spec(doc: dict) -> "NoiseModel":
        return NoiseModel(str(doc["kind"]), float(doc.get("eps_max", 0.0)))


def noise_rng(seed: int) -> np.random.Generator:
    """Noise stream for a run; independent of the path stream for the same seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 1])))


@dataclass(frozen=True)
class TraceRow:
    t: int
    sup_error: float
    alpha_t: float
    pi_min_t: float
    drift_t: float


@dataclass
class TrackingTrace:
    """Checkpointed sup-norm tracking errors plus per-step diagnostics."""

    rows: list
    seed: int
    config: dict = field(default_factory=dict)
    max_abs_value: float = 0.0

    CSV_COLUMNS = ("t", "sup_error", "alpha_t", "pi_min_t", "drift_t")

    def __post_init__(self):
        ts = [row.t for row in self.rows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("checkpoints must be strictly increasing in t")
        if any(not np.isfinite(row.sup_error) or row.sup_error < 0 for row in self.rows):
            raise ValueError("sup_error must be finite and non-negative")

    @property
    def final_error(self) -> float:
        return self.rows[-1].sup_error

    def errors(self) -> np.ndarray:
        return np.array([row.sup_error for row in self.rows])

    def checkpoint_ts(self) -> np.ndarray:
        return np.array([row.t for row in self.rows])

    def write_csv(self, path):
        # RFC-4180-plain: comma separated, LF line endings, header row.
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([row.t, repr(row.sup_error), repr(row.alpha_t),
                                 repr(row.pi_min_t), repr(row.drift_t)])


def sa_step(r_cur: np.ndarray, x_cur: int, f_value: float, alpha_t: float,
            eps_t: float = 0.0) -> np.ndarray:
    """One asynchronous update: component x_cur moves toward the operator value.

    new[x] = old[x] + alpha_t * (f_value - old[x] + eps_t); every other
    component is returned bit-identical.  alpha_t = 0 is allowed for test
    degenerates, otherwise rates live in (0, 1).
    """
    if not 0.0 <= alpha_t < 1.0:
        raise ValueError(f"alpha_t {alpha_t} outside [0, 1)")
    out = np.array(r_cur, dtype=float)
    out[x_cur] = out[x_cur] + alpha_t * (f_value - out[x_cur] + eps_t)
    return out


def materialize(schedule, t_max: int):
    """Stack P^(1..t_max+1) and row cumsums; index t holds matrix t (index 0 is zero).

    Passing the result to td0_track/q_track lets a multi-seed batch reuse
    one schedule walk; the arrays are read-only inputs thereafter.
    """
    mats = np.zeros((t_max + 2, schedule.n, schedule.n))
    mats[1:] = schedule.block(1, t_max + 2)
    return mats, np.cumsum(mats, axis=2)


def _resolve_checkpoints(checkpoint_grid, t_max: int):
    cps = sorted({int(t) for t in checkpoint_grid if 1 <= int(t) <= t_max})
    if not cps:
        raise ValueError("checkpoint grid is empty within [1, t_max]")
    return cps


def _diagnostics(mats, t, spec, fixed_point_cache, target_fn):
    """(target, pi_min, drift) at checkpoint t, memoized across seeds."""
    if fixed_point_cache is not None and t in fixed_point_cache:
        return fixed_point_cache[t]
    mat = chains.TransitionMatrix(mats[t])
    target = target_fn(mat, spec)
    pi_min = chains.stationary_distribution(mat).min_prob()
    drift = 0.5 * np.abs(mats[t + 1] - mats[t]).sum(axis=1).max()
    entry = (target, pi_min, float(drift))
    if fixed_point_cache is not None:
        fixed_point_cache[t] = entry
    return entry


def _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
           table_init, bootstrap, target_fn, fixed_point_cache, config_echo,
           materialized=None):
    if schedule.n != spec.n:
        raise ValueError(f"schedule n={schedule.n} vs rewards n={spec.n}")
    if not 0 <= x0 < schedule.n:
        raise ValueError(f"x0={x0} out of range")
    cps = _resolve_checkpoints(checkpoint_grid, t_max)
    mats, cums = materialized if materialized is not None else materialize(schedule, t_max)
    uniforms = chains.path_rng(seed).random(t_max)
    eps_draws = noise.draws(t_max, seed)

    r_vec = spec.r
    beta = spec.beta
    c_alpha, g_alpha = rate.c_alpha, rate.gamma_alpha
    table = np.zeros(spec.n) if table_init is None else np.array(table_init, dtype=float)
    max_abs = float(np.abs(table).max())
    x = x0
    rows = []
    k = 0
    for t in range(1, t_max + 1):
        xn = sample_from_row(cums[t, x], uniforms[t - 1])
        alpha_t = c_alpha / t ** g_alpha
        eps = eps_draws[t - 1] if eps_draws is not None else 0.0
        table[x] = table[x] + alpha_t * (r_vec[x] + beta * bootstrap(table, xn)
                                         - table[x] + eps)
        if abs(table[x]) > max_abs:
            max_abs = abs(table[x])
        x = xn
        if k < len(cps) and t == cps[k]:
            target, pi_min, drift = _diagnostics(mats, t, spec, fixed_point_cache,
                                                 target_fn)
            rows.append(TraceRow(t=t,
                                 sup_error=float(np.abs(table - target).max()),
                                 alpha_t=alpha_t, pi_min_t=pi_min, drift_t=drift))
            k += 1
    return TrackingTrace(rows=rows, seed=int(seed), config=config_echo,
                         max_abs_value=max_abs)


def td0_track(schedule, spec: dp.RewardSpec, rate: LearningRate, noise: NoiseModel,
              t_max: int, seed: int, checkpoint_grid, x0: int = 0,
              table_init=None, fixed_point_cache: dict | None = None,
              materialized=None) -> TrackingTrace:
    """Track the discounted reward of the drifting chain with TD(0).

    The sampled next state supplies the bootstrap (realized operator value
    plus its implicit martingale noise); the table starts at zero unless a
    test overrides table_init.
    """
    echo = {"learner": "td0", "t_max": int(t_max), "x0": int(x0),
            "rate": rate.to_spec(), "noise": noise.to_spec()}
    return _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
                  table_init, bootstrap=lambda table, xn: table[xn],
                  target_fn=dp.exact_reward, fixed_point_cache=fixed_point_cache,
                  config_echo=echo, materialized=materialized)


def q_track(schedule, spec: dp.RewardSpec, n_actions: int, rate: LearningRate,
            noise: NoiseModel, t_max: int, seed: int, checkpoint_grid, x0: int = 0,
            table_init=None, fixed_point_cache: dict | None = None,
            materialized=None) -> TrackingTrace:
    """Q-learning on the product-space chain; only the visited (s,a) cell moves.

    Ties in the max over next actions break toward the lowest action index
    (numpy max over a contiguous slice), keeping replays deterministic.
    """
    if schedule.n % n_actions != 0:
        raise ValueError("schedule must live on the (state, action) product space")

    def bootstrap(table, xn):
        sp = xn // n_actions
        return table[sp * n_actions:(sp + 1) * n_actions].max()

    echo = {"learner": "q", "t_max": int(t_max), "x0": int(x0),
            "n_actions": int(n_actions), "rate": rate.to_spec(),
            "noise": noise.to_spec()}
    return _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
                  table_init, bootstrap=bootstrap,
                  target_fn=lambda mat, sp: dp.exact_q(mat, sp, n_actions),
                  fixed_point_cache=fixed_point_cache, config_echo=echo,
                  materialized=materialized)


def check_boundedness(trace: TrackingTrace, f_max: float, eps_max: float,
                      beta: float, slack: float = 1e-9) -> dp.CheckResult:
    """All iterates stay inside the ball of radius (f_max + eps_max)/(1 - beta).

    Uses the running max of |table| recorded over every step of the run,
    not just the checkpoints.
    """
    radius = (f_max + eps_max) / (1.0 - beta)
    return dp.CheckResult(lhs=trace.max_abs_value, rhs=radius,
                          passed=trace.max_abs_value <= radius + slack,
                          detail={"seed": trace.seed})
