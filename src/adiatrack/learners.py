"""Asynchronous stochastic-approximation tracking: TD(0) and Q-learning.

One table component updates per step, chosen by the sampled inhomogeneous
chain; tracking error is the sup-norm distance to the exact fixed point of
the *current* schedule matrix, solved on demand at checkpoints.

Kernel: materialize walks the schedule once per batch; each seed then runs
a step loop on Python floats only (the row cumsums as one flat list, the
step sizes, the seed's uniforms and noise draws as lists, the table as a
list).  Indexing a list and arithmetic on Python floats cost a fraction of
indexing an array and arithmetic on numpy scalars, and IEEE arithmetic is
the same on both, so the loop is several times faster and bit-identical to
a numpy per-step loop.  Q-learning's bootstrap, the max over the next
state's action block, is kept per state and recomputed only when the
updated entry held it, since a builtin max over a fresh slice costs about a
third of a step.  Advancing all seeds per step as one numpy table was
measured too: bit-identical, but slower (0.7x) at the four seeds of a sweep
cell and ahead only from about 20 seeds on, while the Python-float loop
wins at every seed count.

Determinism contract: a run is a pure function of (schedule, specs, seed).
The path stream is the same one chains.simulate would use for that seed,
sampled by the same inverse-CDF loop as chains.sample_from_row; explicit
noise draws come from a second stream derived from the same seed, so
zero-noise runs reproduce the bare simulated path exactly.  Batch seeds
derive as base_seed + index.  Whether a batch shares one materialize walk
changes no output bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import chains, dp

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


class Materialized:
    """What a batch of seeds on one schedule shares: one walk, step sizes, targets.

    mats stacks P^(0..t_max+1) (index t holds matrix t, index 0 is zero) for
    the checkpoint targets; cums holds every row cumsum in one flat list of
    Python floats, row x of matrix t starting at (t*n + x)*n.  Step sizes are
    memoized per rate, and the targets solved at checkpoints per t and per
    target kind, so seeds share them and specs never do.
    """

    def __init__(self, schedule, t_max: int, mats: np.ndarray):
        self.schedule, self.t_max, self.mats = schedule, int(t_max), mats
        self.cums = np.cumsum(mats, axis=2).ravel().tolist()
        self._step_sizes, self._diagnostics = {}, {}

    def step_sizes(self, rate: LearningRate) -> list:
        """[rate.alpha(t) for t in 1..t_max], computed once per rate."""
        if rate not in self._step_sizes:
            self._step_sizes[rate] = [rate.alpha(t) for t in range(1, self.t_max + 1)]
        return self._step_sizes[rate]

    def diagnostics(self, t: int, spec: dp.RewardSpec, n_actions: int | None):
        """(target as a list, pi_min, drift) at checkpoint t; n_actions None is TD's."""
        key = (t, n_actions, float(spec.beta), spec.r.tobytes())
        if key not in self._diagnostics:
            mat = chains.TransitionMatrix(self.mats[t])
            target = (dp.exact_reward(mat, spec) if n_actions is None
                      else dp.exact_q(mat, spec, n_actions))
            pi_min = chains.stationary_distribution(mat).min_prob()
            drift = 0.5 * np.abs(self.mats[t + 1] - self.mats[t]).sum(axis=1).max()
            self._diagnostics[key] = (target.tolist(), pi_min, float(drift))
        return self._diagnostics[key]


def materialize(schedule, t_max: int) -> Materialized:
    """Walk P^(1..t_max+1) once; td0_track/q_track take the result as `materialized`."""
    mats = np.zeros((t_max + 2, schedule.n, schedule.n))
    mats[1:] = schedule.block(1, t_max + 2)
    return Materialized(schedule, t_max, mats)


def _resolve_checkpoints(checkpoint_grid, t_max: int):
    cps = sorted({int(t) for t in checkpoint_grid if 1 <= int(t) <= t_max})
    if not cps:
        raise ValueError("checkpoint grid is empty within [1, t_max]")
    return cps


def _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
           table_init, n_actions, config_echo, materialized):
    if schedule.n != spec.n:
        raise ValueError(f"schedule n={schedule.n} vs rewards n={spec.n}")
    if not 0 <= x0 < schedule.n:
        raise ValueError(f"x0={x0} out of range")
    cp_iter = iter(_resolve_checkpoints(checkpoint_grid, t_max) + [0])
    m = materialize(schedule, t_max) if materialized is None else materialized
    if m.schedule is not schedule or m.t_max < t_max:
        raise ValueError("materialized walk belongs to another schedule or a shorter horizon")
    cums, n, na, r_vec, beta = m.cums, schedule.n, n_actions or 1, spec.r.tolist(), spec.beta
    table = [0.0] * n if table_init is None else np.array(table_init, dtype=float).tolist()
    max_abs = max(map(abs, table))
    # the bootstrap: vmax[s] is the max of state s's action block (TD(0): the table itself)
    vmax = table if na == 1 else [max(table[s:s + na]) for s in range(0, n, na)]
    x, rows, n1, cp, draws = x0, [], n - 1, next(cp_iter), noise.draws(t_max, seed)
    for t, u, eps, alpha_t in zip(range(1, t_max + 1),
                                  chains.path_rng(seed).random(t_max).tolist(),
                                  [0.0] * t_max if draws is None else draws.tolist(),
                                  m.step_sizes(rate)):
        row = i = (t * n + x) * n  # chains.sample_from_row on the flat cumsums
        last = row + n1
        while i < last and cums[i] <= u:
            i += 1
        xn, old = i - row, table[x]
        v = table[x] = old + alpha_t * (r_vec[x] + beta * vmax[xn // na] - old + eps)
        if na > 1 and (v > vmax[s := x // na] or old == vmax[s]):  # keep vmax[s] exact
            vmax[s] = v if v > vmax[s] else max(table[s * na:s * na + na])
        if v > max_abs or -v > max_abs:
            max_abs = abs(v)
        x = xn
        if t == cp:
            target, pi_min, drift = m.diagnostics(t, spec, n_actions)
            sup_error = max(abs(a - b) for a, b in zip(table, target))
            rows.append(TraceRow(t, sup_error, alpha_t, pi_min, drift))
            cp = next(cp_iter)
    return TrackingTrace(rows=rows, seed=int(seed), config=config_echo,
                         max_abs_value=max_abs)


def td0_track(schedule, spec: dp.RewardSpec, rate: LearningRate, noise: NoiseModel,
              t_max: int, seed: int, checkpoint_grid, x0: int = 0,
              table_init=None, materialized: Materialized | None = None) -> TrackingTrace:
    """Track the discounted reward of the drifting chain with TD(0).

    The sampled next state supplies the bootstrap (realized operator value
    plus its implicit martingale noise); the table starts at zero unless a
    test overrides table_init.
    """
    echo = {"learner": "td0", "t_max": int(t_max), "x0": int(x0),
            "rate": rate.to_spec(), "noise": noise.to_spec()}
    return _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
                  table_init, None, echo, materialized)


def q_track(schedule, spec: dp.RewardSpec, n_actions: int, rate: LearningRate,
            noise: NoiseModel, t_max: int, seed: int, checkpoint_grid, x0: int = 0,
            table_init=None, materialized: Materialized | None = None) -> TrackingTrace:
    """Q-learning on the product-space chain; only the visited (s,a) cell moves.

    The bootstrap is the max over the next state's action block; ties have
    one value, so the order of the max cannot change a replay.
    """
    if schedule.n % n_actions != 0:
        raise ValueError("schedule must live on the (state, action) product space")
    echo = {"learner": "q", "t_max": int(t_max), "x0": int(x0),
            "n_actions": int(n_actions), "rate": rate.to_spec(),
            "noise": noise.to_spec()}
    return _track(schedule, spec, rate, noise, t_max, seed, checkpoint_grid, x0,
                  table_init, int(n_actions), echo, materialized)


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
