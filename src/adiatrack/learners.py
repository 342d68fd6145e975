"""Asynchronous stochastic-approximation tracking: TD(0) and Q-learning.

One table component updates per step, the current state x of the sampled
inhomogeneous chain: table[x] += alpha_t (r[x] + beta boot - table[x] + eps_t),
with boot the next state's entry (TD(0)) or the max over its action block
(Q-learning); every other component is left bit-identical.  Tracking error
is the sup-norm distance to the exact fixed point of the *current* schedule
matrix, solved at checkpoints: a block's TD(0) targets in one stacked
solve, Q-learning's one policy iteration per checkpoint.

Kernel: materialize walks the schedule once per call of track
(Schedule.blocks), yielding each block with the row cumsums of its step
matrices, and each block advances every (rate, seed) run before the next
is made; a sweep's cells of one schedule are one call, one rate each.  No
certificate is scanned here: a trace row's pi floor and drift are solved
at its checkpoint only, once per block for every rate.  Per seed and
block, chains.next_states draws the block's successor table in one numpy
pass, and that table and the seed's noise draws are read by every rate's
run of the seed.  The step loop runs on Python floats only (the successor
table, step sizes and noise draws as lists, the table).  Memory is
O(block * n^2 + rates * seeds * n).  Indexing a list and arithmetic on
Python floats cost a fraction of indexing an array and arithmetic on numpy
scalars, and IEEE arithmetic is the same on both, so the loop is several
times faster and bit-identical to a numpy per-step loop.  Q-learning's
bootstrap, the max over the next state's action block, is kept per state
and recomputed only when the updated entry held it, since a builtin max
over a fresh slice costs about a third of a step.  Advancing all seeds per
step as one numpy table was measured too: bit-identical, but slower (0.7x)
at the four seeds of a sweep cell and ahead only from about 20 seeds on,
while the Python-float loop wins at every seed count.

Determinism contract: a run is a pure function of (schedule, specs, seed).
The path uniforms are chains.stream(seed, 0), drawn into states by
chains.next_states, the stream and the sampler chains.simulate uses;
explicit noise draws are chains.stream(seed, 1), so zero-noise runs
reproduce the bare simulated path exactly.  Both are drawn block by block,
which gives the same numbers as one draw of the whole horizon.  Batch
seeds derive as base_seed + index.  Whether seeds, rates or sweep cells
share a walk changes no output bit.
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
    "materialize",
    "track",
    "td0_track",
    "q_track",
    "check_boundedness",
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
        return LearningRate(chains.number(doc, "c_alpha"), chains.number(doc, "gamma_alpha"))


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
        if not self.eps_max >= 0:  # NaN fails too
            raise ValueError("eps_max must be non-negative")
        if self.kind == "uniform-iid" and self.eps_max == 0.0:
            raise ValueError("uniform-iid noise needs eps_max > 0")

    def draws(self, t_max: int, seed: int) -> np.ndarray | None:
        if self.kind == "zero":
            return None
        return chains.stream(seed, 1).uniform(-self.eps_max, self.eps_max, t_max)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "eps_max": self.eps_max}

    @staticmethod
    def from_spec(doc: dict) -> "NoiseModel":
        return NoiseModel(str(doc["kind"]), chains.number(doc, "eps_max", 0.0))


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


def materialize(schedule, t_max: int):
    """A run's one walk: Schedule.blocks of P^(1..t_max+1), with cums.

    Yields (lo, block, cums) per block: block is P^(lo..hi), whose last
    matrix is also the next block's first, and cums the (k, n, n) stack of
    row cumsums of its k = hi - lo step matrices P^(lo..hi-1),
    chains.next_states' input.
    """
    for lo, block in schedule.blocks(1, t_max + 1):
        yield lo, block, np.cumsum(block[:-1], axis=2)


class _Run:
    """One (rate, seed) learner between blocks: table, state, checkpoint errors."""

    def __init__(self, seed: int, table: list, x0: int, na: int):
        self.seed, self.table, self.x, self.na = int(seed), list(table), x0, na
        self.max_abs = max(map(abs, self.table))
        # the bootstrap: vmax[s] is the max of state s's action block (TD(0): the table itself)
        self.vmax = self.table if na == 1 else [max(self.table[s:s + na])
                                                for s in range(0, len(table), na)]
        self.hits = []  # (t, sup_error, alpha_t) at each checkpoint

    def advance(self, nxt: list, eps: list, alphas: list, targets: list, r_vec: list,
                beta: float):
        """Take one block's steps, step j with alphas[j], noise eps[j] and
        successor nxt[x][j] of state x; targets lists (j, t, target) for the
        block's checkpoints, in order."""
        na = self.na
        table, vmax, x, max_abs = self.table, self.vmax, self.x, self.max_abs
        cp_iter = iter(targets + [(-1, 0, None)])
        cp, t_cp, target = next(cp_iter)
        for j, e, alpha_t in zip(range(len(alphas)), eps, alphas):
            xn, old = nxt[x][j], table[x]
            v = table[x] = old + alpha_t * (r_vec[x] + beta * vmax[xn // na] - old + e)
            if na > 1 and (v > vmax[s := x // na] or old == vmax[s]):  # keep vmax[s] exact
                vmax[s] = v if v > vmax[s] else max(table[s * na:s * na + na])
            if v > max_abs or -v > max_abs:
                max_abs = abs(v)
            x = xn
            if j == cp:
                self.hits.append((t_cp, max(abs(a - b) for a, b in zip(table, target)),
                                  alpha_t))
                cp, t_cp, target = next(cp_iter)
        self.x, self.max_abs = x, max_abs


def track(schedule, spec: dp.RewardSpec, rates, noise: NoiseModel, t_max: int, seeds,
          checkpoint_grid, x0: int = 0, n_actions: int | None = None, table_init=None):
    """Traces of every (rate, seed) from one walk, one list of seed traces per
    rate: TD(0) when n_actions is None, else Q-learning.

    A seed's path and noise draws are made once per block and read by every
    rate's run of that seed.  Scans no certificate (schedules.verify_drift
    does): an uncertified schedule is tracked all the same.
    """
    n = schedule.n
    if n != spec.n:
        raise ValueError(f"schedule n={n} vs rewards n={spec.n}")
    if n_actions is not None and n % n_actions != 0:
        raise ValueError("schedule must live on the (state, action) product space")
    if not 0 <= x0 < n:
        raise ValueError(f"x0={x0} out of range")
    cps = sorted({int(t) for t in checkpoint_grid if 1 <= int(t) <= t_max})
    if not cps:
        raise ValueError("checkpoint grid is empty within [1, t_max]")
    table = [0.0] * n if table_init is None else np.array(table_init, dtype=float).tolist()
    runs = [[_Run(seed, table, x0, n_actions or 1) for seed in seeds] for _ in rates]
    streams = [(chains.stream(seed, 0), None if noise.kind == "zero" else chains.stream(seed, 1))
               for seed in seeds]
    r_vec, diagnostics = spec.r.tolist(), {}
    for lo, block, cums in materialize(schedule, t_max):
        k = len(cums)
        at = [t for t in cps if lo <= t < lo + k]
        mats = block[[t - lo for t in at]]
        solved = (dp.exact_rewards(mats, np.tile(spec.r, (len(at), 1)),
                                   np.full(len(at), spec.beta))
                  if n_actions is None
                  else [dp.exact_q(chains.TransitionMatrix(m), spec, n_actions) for m in mats])
        targets = [(t - lo, t, target.tolist()) for t, target in zip(at, solved)]
        alphas = [[rate.alpha(t) for t in range(lo, lo + k)] for rate in rates]
        for i, (path, noise_stream) in enumerate(streams):
            # nxt[x][j]: x's successor at step j; n lists of k build faster than k lists of n
            nxt = chains.next_states(cums, path.random(k)).T.tolist()
            eps = ([0.0] * k if noise_stream is None
                   else noise_stream.uniform(-noise.eps_max, noise.eps_max, k).tolist())
            for rate_runs, rate_alphas in zip(runs, alphas):
                rate_runs[i].advance(nxt, eps, rate_alphas, targets, r_vec, spec.beta)
        if at:  # pi floor and drift at the block's checkpoints: P^(t) and P^(t+1)
            pi_min = chains.stationary_stack(mats).min(axis=1)
            drift = chains.matrix_tv_distances(mats, block[[t - lo + 1 for t in at]])
            diagnostics.update(zip(at, zip(pi_min.tolist(), drift.tolist())))
    echo = {"learner": "td0" if n_actions is None else "q", "t_max": int(t_max),
            "x0": int(x0), "noise": noise.to_spec()}
    if n_actions is not None:
        echo["n_actions"] = int(n_actions)
    return [[TrackingTrace(rows=[TraceRow(t, err, alpha_t, *diagnostics[t])
                                 for t, err, alpha_t in run.hits],
                           seed=run.seed, config={**echo, "rate": rate.to_spec()},
                           max_abs_value=run.max_abs)
             for run in rate_runs]
            for rate, rate_runs in zip(rates, runs)]


def td0_track(schedule, spec: dp.RewardSpec, rate: LearningRate, noise: NoiseModel,
              t_max: int, seed: int, checkpoint_grid, x0: int = 0,
              table_init=None) -> TrackingTrace:
    """Track the discounted reward of the drifting chain with TD(0): one seed of track.

    The sampled next state supplies the bootstrap (realized operator value
    plus its implicit martingale noise); the table starts at zero unless a
    test overrides table_init.
    """
    return track(schedule, spec, [rate], noise, t_max, [seed], checkpoint_grid, x0, None,
                 table_init)[0][0]


def q_track(schedule, spec: dp.RewardSpec, n_actions: int, rate: LearningRate,
            noise: NoiseModel, t_max: int, seed: int, checkpoint_grid, x0: int = 0,
            table_init=None) -> TrackingTrace:
    """Q-learning on the product-space chain, one seed of track; only the
    visited (s,a) cell moves.

    The bootstrap is the max over the next state's action block; ties have
    one value, so the order of the max cannot change a replay.
    """
    return track(schedule, spec, [rate], noise, t_max, [seed], checkpoint_grid, x0,
                 int(n_actions), table_init)[0][0]


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
