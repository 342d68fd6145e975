"""Asynchronous stochastic-approximation tracking: TD(0) and Q-learning.

One table component updates per step, the current state x of the sampled
inhomogeneous chain: table[x] += alpha_t (r[x] + beta boot - table[x] + eps_t),
with boot the next state's entry (TD(0)) or the max over its action block
(Q-learning); every other component is left bit-identical.  Tracking error
is the sup-norm distance to the exact fixed point of the *current* schedule
matrix at each checkpoint, scored after the walk from the kept tables.
track returns one TrackingTrace per rate: the checkpoints and their alpha_t,
pi_min_t and drift_t columns once, every seed's errors as one (seeds,
checkpoints) array.  n_actions picks the learner: 1 is TD(0), above 1
Q-learning on the (state, action) product space.  td0_track and q_track,
its one-rate, one-seed calls, have no caller in the package and stay only
while the benchmark tracer (perfbench/tracer.py) names them.

Kernel: track first checks its inputs (_checked_grid: n_actions >= 1, the
schedule's size against the rewards and n_actions, x0, and the checkpoint rule
_checkpoints, which ExperimentConfig applies too; then table_init), then
materialize walks the schedule once per call, the certified walk
(schedules._certified_blocks), yielding each block with the row cumsums of its
step matrices and the scan's pi floors and drifts, which track keeps at the
block's checkpoints with their targets, one stacked dp.exact_q call at
n_actions (one solve, one certificate, for TD(0) and Q-learning alike); each
block advances every (rate, seed) run before the next is made, and a sweep's
cells of one schedule are one call, one rate each.  A failing certificate
raises DriftCertificateError, and no run steps in or after the failing block.
Per seed and block, chains.next_states draws the block's successor table in
one numpy pass, and that table and the seed's noise draws are read by every
rate's run of the seed.  The step loop runs on Python floats only (the
successor table, step sizes and noise draws as lists, the table), one loop per
learner from checkpoint to checkpoint, each followed by a copy of the table:
no step tests for or scores a checkpoint, and no TD(0) step keeps action
blocks.  A rate's step sizes are LearningRate.alpha's
c_alpha / t**gamma_alpha, one comprehension per block.  Memory is
O(block * n^2 + rates * seeds * checkpoints * n).  Indexing a list and
arithmetic on Python floats cost a fraction of indexing an array and
arithmetic on numpy scalars, and IEEE arithmetic is the same on both, so the
loop is several times faster and bit-identical to a numpy per-step loop.
Q-learning's bootstrap, the max over the next state's action block, is kept
per state and recomputed only when the updated entry held it, since a builtin
max over a fresh slice costs about a third of a step.  Advancing all seeds per
step as one numpy table was measured too: bit-identical, but slower (0.7x) at
the four seeds of a sweep cell and ahead only from about 20 seeds on, while
the Python-float loop wins at every seed count.  Two more layouts were
measured and left out (perfbench, alternating pairs, two shared cores): one
chains.next_states call over all seeds per block took track-q from 25.0 to
28.8 ms; the seeds split over two forked processes took track-q from 33.4 to
27.7 ms (74 of 80 pairs) but track-adiabatic from 22.1 to 23.9 ms, a bare fork
and reap costing 3.4 ms.  _Run.advance, half of either, is at CPython's floor.

Determinism contract: a run is a pure function of (schedule, specs, seed).
The path uniforms are chains.stream(seed, 0), drawn into states by
chains.next_states, the stream and the sampler chains.simulate uses;
explicit noise draws are chains.stream(seed, 1), drawn in track alone
(NoiseModel holds the envelope and draws nothing), so zero-noise runs
reproduce the bare simulated path exactly.  Both are drawn block by block,
which gives the same numbers as one draw of the whole horizon.  Batch
seeds derive as base_seed + index.  Whether seeds, rates or sweep cells
share a walk changes no output bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import chains, dp, schedules

__all__ = [
    "LearningRate",
    "NoiseModel",
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
        doc = chains._object(doc, "rate", ("c_alpha", "gamma_alpha"))
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
        if not 0 <= self.eps_max < math.inf:  # NaN fails too
            raise ValueError(f"eps_max must be finite and non-negative, got {self.eps_max!r}")
        if not 2 * self.eps_max < math.inf:  # the draws' span, numpy's uniform needs it finite
            raise ValueError(f"eps_max={self.eps_max!r} spans more than the floats hold")
        if self.kind == "uniform-iid" and self.eps_max == 0.0:
            raise ValueError("uniform-iid noise needs eps_max > 0")
        if self.kind == "zero" and self.eps_max != 0.0:  # it would draw nothing
            raise ValueError(f"zero noise needs eps_max = 0, got {self.eps_max!r}")

    @staticmethod
    def from_spec(doc: dict) -> "NoiseModel":
        doc = chains._object(doc, "noise", ("kind", "eps_max"), ("kind",))
        return NoiseModel(str(doc["kind"]), chains.number(doc, "eps_max", 0.0))


@dataclass
class TrackingTrace:
    """One rate's checkpointed sup-norm tracking errors, every seed's, with
    the checkpoint diagnostics they share: the checkpoints t and their
    alpha_t, pi_min_t and drift_t columns, once; a (seeds, checkpoints)
    sup_error array; one max |table entry| per seed.  An array field makes
    the generated == raise: compare traces field by field."""

    seeds: list
    t: list
    alpha_t: list
    pi_min_t: list
    drift_t: list
    sup_error: np.ndarray
    max_abs_value: list

    CSV_COLUMNS = ("t", "sup_error", "alpha_t", "pi_min_t", "drift_t")

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.t, self.t[1:])):
            raise ValueError("checkpoints must be strictly increasing in t")
        if not ((self.sup_error >= 0.0) & (self.sup_error < math.inf)).all():  # NaN fails too
            raise ValueError("sup_error must be finite and non-negative")

    def write_csv(self, out_dir, prefix):
        """Write each seed's trace to out_dir/{prefix}_{seed}.csv,
        RFC-4180-plain: comma separated, LF line endings, header row."""
        header = ",".join(self.CSV_COLUMNS) + "\n"
        tails = [f",{a!r},{p!r},{d!r}\n"
                 for a, p, d in zip(self.alpha_t, self.pi_min_t, self.drift_t)]
        for seed, errors in zip(self.seeds, self.sup_error.tolist()):
            with open(os.path.join(out_dir, f"{prefix}_{seed}.csv"), "w", newline="\n") as fh:
                fh.write(header + "".join(f"{t},{err!r}{tail}"
                                          for t, err, tail in zip(self.t, errors, tails)))


def materialize(schedule, t_max: int):
    """A run's one walk: the certified walk of P^(1..t_max+1), with cums.

    Yields (lo, block, cums, pi_min, drift) per certified block: block is
    P^(lo..hi), whose last matrix is also the next block's first, cums the
    (k, n, n) row cumsums of its k = hi - lo step matrices P^(lo..hi-1),
    chains.next_states' input, and the scan's (k,) pi_min and drift at those
    t (schedules._certified_blocks, which raises after the last such block).
    """
    for lo, block, pi_min, drift in schedules._certified_blocks(schedule, t_max):
        yield lo, block, np.cumsum(block[:-1], axis=2), pi_min, drift


class _Run:
    """One (rate, seed) learner between blocks: table, state, kept tables."""

    def __init__(self, table: np.ndarray, x0: int, na: int):
        self.table, self.x, self.na = table.tolist(), x0, na
        self.max_abs = max(map(abs, self.table))
        # the bootstrap: vmax[s] is the max of state s's action block (TD(0): the table itself)
        self.vmax = self.table if na == 1 else [max(self.table[s:s + na])
                                                for s in range(0, len(table), na)]
        self.kept = []  # a copy of the table at each checkpoint

    def advance(self, nxt: list, eps: list, alphas: list, stops: list, r_vec: list,
                beta: float):
        """Take one block's steps, step j with alphas[j], noise eps[j] and
        successor nxt[x][j] of state x, one loop per segment between stops,
        the block's checkpoint steps j in order; after each stop a copy of
        the table is kept."""
        na, table, vmax, x, max_abs = self.na, self.table, self.vmax, self.x, self.max_abs
        ends = [j + 1 for j in stops] + [len(alphas)]
        for start, end in zip([0] + ends, ends):
            if start:  # the segment before ended at a stop
                self.kept.append(table[:])
            if na == 1:  # vmax is the table: no action blocks to keep
                for j in range(start, end):
                    xn, old = nxt[x][j], table[x]
                    v = table[x] = old + alphas[j] * (r_vec[x] + beta * table[xn] - old + eps[j])
                    if v > max_abs or -v > max_abs:
                        max_abs = abs(v)
                    x = xn
            else:
                s = x // na
                for j in range(start, end):
                    xn, old = nxt[x][j], table[x]
                    sn = xn // na
                    v = table[x] = old + alphas[j] * (r_vec[x] + beta * vmax[sn] - old + eps[j])
                    m = vmax[s]
                    if v > m:  # keep vmax[s] exact
                        vmax[s] = v
                    elif old == m:
                        vmax[s] = max(table[s * na:s * na + na])
                    if v > max_abs or -v > max_abs:
                        max_abs = abs(v)
                    x, s = xn, sn
        self.x, self.max_abs = x, max_abs


def _checkpoints(checkpoint_grid, t_max: int) -> list:
    """The checkpoint rule of a config and a run: the grid's points in [1, t_max], sorted."""
    cps = sorted({int(t) for t in checkpoint_grid if 1 <= int(t) <= t_max})
    if not cps:
        raise ValueError("checkpoint grid is empty within [1, t_max]")
    return cps


def _checked_grid(schedule, spec: dp.RewardSpec, t_max: int, checkpoint_grid, x0: int,
                  n_actions: int) -> list:
    """track's checks before its walk: n_actions, the schedule's size against the
    rewards and n_actions, x0; returns the grid's _checkpoints."""
    n = schedule.n
    if n_actions < 1:
        raise ValueError(f"n_actions must be >= 1, got {n_actions}")
    if n != spec.n:
        raise ValueError(f"schedule n={n} vs rewards n={spec.n}")
    if n % n_actions != 0:
        raise ValueError("schedule must live on the (state, action) product space")
    if not 0 <= x0 < n:
        raise ValueError(f"x0={x0} out of range")
    return _checkpoints(checkpoint_grid, t_max)


def track(schedule, spec: dp.RewardSpec, rates, noise: NoiseModel, t_max: int, seeds,
          checkpoint_grid, x0: int = 0, n_actions: int = 1, table_init=None):
    """Traces of every (rate, seed) from one walk, one TrackingTrace of every
    seed per rate: TD(0) at n_actions = 1, Q-learning above.

    A seed's path and noise draws are made once per block and read by every
    rate's run of that seed.  Its inputs and table_init are checked first
    (_checked_grid, which a harness run calls before any walk).  The walk
    certifies the schedule as it goes (materialize): a failing certificate
    raises DriftCertificateError; no run steps in or after the failing block.
    """
    cps = _checked_grid(schedule, spec, t_max, checkpoint_grid, x0, n_actions)
    table = np.zeros(schedule.n) if table_init is None else np.array(table_init, dtype=float)
    if table.shape != (schedule.n,) or not np.isfinite(table).all():
        raise ValueError(f"table_init must hold {schedule.n} finite numbers")
    runs = [[_Run(table, x0, n_actions) for _ in seeds] for _ in rates]
    streams = [(chains.stream(seed, 0), None if noise.kind == "zero" else chains.stream(seed, 1))
               for seed in seeds]
    r_vec, targets, scans = spec.r.tolist(), [], []
    powers = [(rate.c_alpha, rate.gamma_alpha) for rate in rates]  # LearningRate.alpha's
    for lo, block, cums, pi_min, drift in materialize(schedule, t_max):
        k = len(cums)
        stops = [t - lo for t in cps if lo <= t < lo + k]
        mats = block[stops]
        r, beta = np.tile(spec.r, (len(stops), 1)), np.full(len(stops), spec.beta)
        targets.append(dp.exact_q(mats, r, beta, n_actions))
        scans.append(np.stack((pi_min[stops], drift[stops]), axis=1))  # the scan's
        alphas = [[c / t ** g for t in range(lo, lo + k)] for c, g in powers]
        for i, (path, noise_stream) in enumerate(streams):
            # nxt[x][j]: x's successor at step j; n lists of k build faster than k lists of n
            nxt = chains.next_states(cums, path.random(k)).T.tolist()
            eps = ([0.0] * k if noise_stream is None
                   else noise_stream.uniform(-noise.eps_max, noise.eps_max, k).tolist())
            for rate_runs, rate_alphas in zip(runs, alphas):
                rate_runs[i].advance(nxt, eps, rate_alphas, stops, r_vec, spec.beta)
    kept = np.array([run.kept for rate_runs in runs for run in rate_runs])
    kept = kept.reshape(len(runs), len(streams), len(cps), schedule.n)
    errors = np.abs(kept - np.concatenate(targets)).max(axis=-1)  # in one pass
    pi_min_t, drift_t = np.concatenate(scans).T.tolist()
    return [TrackingTrace([int(seed) for seed in seeds], cps, [rate.alpha(t) for t in cps],
                          pi_min_t, drift_t, rate_errors, [run.max_abs for run in rate_runs])
            for rate, rate_runs, rate_errors in zip(rates, runs, errors)]


def td0_track(schedule, spec: dp.RewardSpec, rate: LearningRate, noise: NoiseModel,
              t_max: int, seed: int, checkpoint_grid, x0: int = 0,
              table_init=None) -> TrackingTrace:
    """TD(0), track at one rate, one seed and n_actions = 1."""
    return track(schedule, spec, [rate], noise, t_max, [seed], checkpoint_grid, x0, 1,
                 table_init)[0]


def q_track(schedule, spec: dp.RewardSpec, n_actions: int, rate: LearningRate,
            noise: NoiseModel, t_max: int, seed: int, checkpoint_grid, x0: int = 0,
            table_init=None) -> TrackingTrace:
    """Q-learning, track at one rate and one seed; ties in the bootstrap's max
    have one value, so the order of the max cannot change a replay."""
    return track(schedule, spec, [rate], noise, t_max, [seed], checkpoint_grid, x0,
                 n_actions, table_init)[0]
