"""Asynchronous stochastic-approximation tracking: TD(0) and Q-learning.

One table component updates per step, the current state x of the sampled
inhomogeneous chain: table[x] += alpha_t (r[x] + beta boot - table[x] + eps_t),
with boot the next state's entry (TD(0)) or the max over its action block
(Q-learning); every other component is left bit-identical.  Tracking error
is the sup-norm distance to the exact fixed point of the *current* schedule
matrix, solved at checkpoints: a block's targets in one stacked call
(dp.exact_rewards for TD(0), dp.exact_q's policy iteration for Q-learning).

Kernel: track first checks its inputs (_checked_grid: the schedule's size
against the rewards and n_actions, x0, and a checkpoint in [1, t_max]),
then materialize walks the schedule once per call (Schedule.blocks),
yielding each block with the row cumsums of its step matrices, and each
block advances every (rate, seed) run before the next is made; a sweep's
cells of one schedule are one call, one rate each.  No certificate is
scanned here: a trace row's pi floor and drift are solved at its
checkpoint only, once per block for every rate.  Per seed and block,
chains.next_states draws the block's successor table in one numpy pass,
and that table and the seed's noise draws are read by every rate's run
of the seed.  The step loop runs on Python floats only (the successor
table, step sizes and noise draws as lists, the table), one loop per
learner from checkpoint to checkpoint: no step tests for a checkpoint, and
no TD(0) step keeps action blocks.  A rate's step sizes are
LearningRate.alpha's c_alpha / t**gamma_alpha, one comprehension per
block.  Memory is O(block * n^2 + rates * seeds * n).  Indexing a list and
arithmetic on Python floats cost a fraction of indexing an array and
arithmetic on numpy scalars, and IEEE arithmetic is the same on both, so
the loop is several times faster and bit-identical to a numpy per-step
loop.  Q-learning's bootstrap, the max over the next state's action block,
is kept per state and recomputed only when the updated entry held it,
since a builtin max over a fresh slice costs about a third of a step.
Advancing all seeds per step as one numpy table was measured too:
bit-identical, but slower (0.7x) at the four seeds of a sweep cell and
ahead only from about 20 seeds on, while the Python-float loop wins at
every seed count.

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

import math
from dataclasses import dataclass
from itertools import islice

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

    @staticmethod
    def from_spec(doc: dict) -> "LearningRate":
        doc = chains._known_keys(doc, "rate", ("c_alpha", "gamma_alpha"))
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

    @staticmethod
    def from_spec(doc: dict) -> "NoiseModel":
        doc = chains._known_keys(doc, "noise", ("kind", "eps_max"))
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
    max_abs_value: float = 0.0

    CSV_COLUMNS = ("t", "sup_error", "alpha_t", "pi_min_t", "drift_t")

    def __post_init__(self):
        ts = [row.t for row in self.rows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("checkpoints must be strictly increasing in t")
        if any(not 0.0 <= row.sup_error < math.inf for row in self.rows):  # NaN fails too
            raise ValueError("sup_error must be finite and non-negative")

    @property
    def final_error(self) -> float:
        return self.rows[-1].sup_error

    def errors(self) -> np.ndarray:
        return np.array([row.sup_error for row in self.rows])

    def checkpoint_ts(self) -> np.ndarray:
        return np.array([row.t for row in self.rows])

    def csv_tails(self) -> list:
        """Each row's alpha_t, pi_min_t and drift_t CSV columns, which every
        seed of a rate shares."""
        return [f"{row.alpha_t!r},{row.pi_min_t!r},{row.drift_t!r}" for row in self.rows]

    def write_csv(self, path, tails=None):
        """RFC-4180-plain: comma separated, LF line endings, header row; the
        rows' tails are csv_tails() unless given."""
        tails = self.csv_tails() if tails is None else tails
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n" + "".join(
                f"{row.t},{row.sup_error!r},{tail}\n" for row, tail in zip(self.rows, tails)))


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
        block's checkpoints, in order.  Each segment of steps up to and
        including a checkpoint's j is one loop, and its hit is recorded after."""
        na, table, vmax, x, max_abs = self.na, self.table, self.vmax, self.x, self.max_abs
        steps, done = zip(range(len(alphas)), eps, alphas), 0
        for cp, t_cp, target in targets + [(len(alphas) - 1, None, None)]:
            if na == 1:  # vmax is the table: no action blocks to keep
                for j, e, alpha_t in islice(steps, cp + 1 - done):
                    xn, old = nxt[x][j], table[x]
                    v = table[x] = old + alpha_t * (r_vec[x] + beta * table[xn] - old + e)
                    if v > max_abs or -v > max_abs:
                        max_abs = abs(v)
                    x = xn
            else:
                s = x // na
                for j, e, alpha_t in islice(steps, cp + 1 - done):
                    xn, old = nxt[x][j], table[x]
                    sn = xn // na
                    v = table[x] = old + alpha_t * (r_vec[x] + beta * vmax[sn] - old + e)
                    m = vmax[s]
                    if v > m:  # keep vmax[s] exact
                        vmax[s] = v
                    elif old == m:
                        vmax[s] = max(table[s * na:s * na + na])
                    if v > max_abs or -v > max_abs:
                        max_abs = abs(v)
                    x, s = xn, sn
            done = cp + 1
            if target is not None:
                self.hits.append((t_cp, max(abs(a - b) for a, b in zip(table, target)),
                                  alphas[cp]))
        self.x, self.max_abs = x, max_abs


def _checked_grid(schedule, spec: dp.RewardSpec, t_max: int, checkpoint_grid, x0: int,
                  n_actions: int | None) -> list:
    """The checks track makes before its walk, on the schedule's size against
    the rewards and n_actions, on x0 and on the grid; returns the grid's
    points in [1, t_max], sorted, of which there must be one."""
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
    return cps


def track(schedule, spec: dp.RewardSpec, rates, noise: NoiseModel, t_max: int, seeds,
          checkpoint_grid, x0: int = 0, n_actions: int | None = None, table_init=None):
    """Traces of every (rate, seed) from one walk, one list of seed traces per
    rate: TD(0) when n_actions is None, else Q-learning.

    A seed's path and noise draws are made once per block and read by every
    rate's run of that seed.  Its inputs are checked first (_checked_grid,
    which a harness run calls before its certificate scans).  Scans no
    certificate (schedules.verify_drift does): an uncertified schedule is
    tracked all the same.
    """
    cps = _checked_grid(schedule, spec, t_max, checkpoint_grid, x0, n_actions)
    table = ([0.0] * schedule.n if table_init is None
             else np.array(table_init, dtype=float).tolist())
    runs = [[_Run(seed, table, x0, n_actions or 1) for seed in seeds] for _ in rates]
    streams = [(chains.stream(seed, 0), None if noise.kind == "zero" else chains.stream(seed, 1))
               for seed in seeds]
    r_vec, diagnostics = spec.r.tolist(), {}
    powers = [(rate.c_alpha, rate.gamma_alpha) for rate in rates]  # LearningRate.alpha's
    for lo, block, cums in materialize(schedule, t_max):
        k = len(cums)
        at = [t for t in cps if lo <= t < lo + k]
        mats = block[[t - lo for t in at]]
        r, beta = np.tile(spec.r, (len(at), 1)), np.full(len(at), spec.beta)
        solved = (dp.exact_rewards(mats, r, beta) if n_actions is None
                  else dp.exact_q(mats, r, beta, n_actions))
        targets = [(t - lo, t, target.tolist()) for t, target in zip(at, solved)]
        alphas = [[c / t ** g for t in range(lo, lo + k)] for c, g in powers]
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
    return [[TrackingTrace(rows=[TraceRow(t, err, alpha_t, *diagnostics[t])
                                 for t, err, alpha_t in run.hits],
                           seed=run.seed, max_abs_value=run.max_abs)
             for run in rate_runs]
            for rate_runs in runs]


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
