"""Straight-line recomputation of tracking results, without adiatrack.

The benchmark checks every tracking summary against these numbers.  They
follow the conventions the package documents (README, determinism
contract), written out again from scratch:

  * path stream: Generator(PCG64(SeedSequence([seed, 0]))), one uniform
    per transition, drawn as one block;
  * transition t (t = 1..T) leaves the current state through row x of
    P^(t) by inverse CDF over the row's cumulative sums;
  * rate c_alpha / t**gamma_alpha; tables start at zero; no extra noise;
  * targets are exact: a linear solve for TD(0), policy iteration for Q;
  * checkpoints are log-spaced, per_decade per decade, endpoints kept.

Schedules: constant, interpolation (convex walk p_start -> p_end by TV arc
c_p/t**gamma_p, clamped) and cyclic (the same walk around a closed cycle).

Usage: python3 perfbench/reference.py < configs.json > medians.json
(a JSON list of experiment configs in, one tracking_medians result each out).
The benchmark runs it in its own process, so its memory stays out of the
benchmark's peak RSS.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np


def log_checkpoints(t_max: int, per_decade: int) -> list:
    k = max(1, int(round(per_decade * math.log10(max(t_max, 2)))))
    grid = {int(round(10 ** e)) for e in np.linspace(0.0, math.log10(t_max), k + 1)}
    grid.add(t_max)
    return sorted(t for t in grid if 1 <= t <= t_max)


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum(axis=1).max())


def _arc(t_max: int, c_p: float, gamma_p: float) -> list:
    """S[k] = sum_{u<=k} c_p / u**gamma_p, summed left to right, S[0] = 0."""
    s = [0.0]
    for u in range(1, t_max + 1):
        s.append(s[-1] + c_p / u ** gamma_p)
    return s


def schedule_matrices(spec: dict, t_max: int) -> np.ndarray:
    """P^(t) for t = 1..t_max at index t (index 0 unused)."""
    kind = spec["kind"]
    n = int(spec["n"])
    mats = np.empty((t_max + 1, n, n))
    if kind == "constant":
        mats[:] = np.array(spec["p"], dtype=float)
        return mats
    params = spec["params"]
    arc = _arc(t_max, float(params["c_p"]), float(params["gamma_p"]))
    if kind == "interpolation":
        a = np.array(spec["p_start"], dtype=float)
        b = np.array(spec["p_end"], dtype=float)
        length = _tv(a, b)
        for t in range(1, t_max + 1):
            w = min(1.0, arc[t - 1] / length) if length > 0 else 0.0
            mats[t] = (1.0 - w) * a + w * b
        return mats
    if kind == "cyclic":
        anchors = [np.array(m, dtype=float) for m in spec["mats"]]
        segments = []
        for i, a in enumerate(anchors):
            b = anchors[(i + 1) % len(anchors)]
            if _tv(a, b) > 0.0:
                segments.append((a, b, _tv(a, b)))
        offsets = np.concatenate([[0.0], np.cumsum([seg[2] for seg in segments])])
        cycle = float(offsets[-1])
        for t in range(1, t_max + 1):
            pos = math.fmod(arc[t - 1], cycle)
            j = min(int(np.searchsorted(offsets, pos, side="right")) - 1, len(segments) - 1)
            a, b, length = segments[j]
            w = min(max((pos - offsets[j]) / length, 0.0), 1.0)
            mats[t] = (1.0 - w) * a + w * b
        return mats
    raise ValueError(f"reference has no schedule kind {kind!r}")


def discounted_reward(p: np.ndarray, r: np.ndarray, beta: float) -> np.ndarray:
    return np.linalg.solve(np.eye(len(r)) - beta * p, r)


def optimal_q(p: np.ndarray, r: np.ndarray, beta: float, n_actions: int) -> np.ndarray:
    """Howard policy iteration on the (state, action) product space."""
    n = len(r)
    state = np.arange(n) // n_actions
    policy = np.zeros(n // n_actions, dtype=int)
    for _ in range(100):
        # next pair y continues with action policy[state(y)]
        follow = np.zeros((n, n))
        follow[np.arange(n), state * n_actions + policy[state]] = 1.0
        q = np.linalg.solve(np.eye(n) - beta * p @ follow, r)
        improved = q.reshape(-1, n_actions).argmax(axis=1)
        if np.array_equal(improved, policy):
            return q
        policy = improved
    raise ArithmeticError("policy iteration did not settle in 100 rounds")


def tracking_medians(config: dict) -> dict:
    """Per-checkpoint median over seeds of the sup-norm tracking error.

    config: an experiment config dict with explicit seed list and t_max,
    learner "td0" or "q", checkpoints {"per_decade": m}.
    """
    t_max = int(config["t_max"])
    cps = log_checkpoints(t_max, int(config["checkpoints"]["per_decade"]))
    mats = schedule_matrices(config["schedule"], t_max)
    cums = np.cumsum(mats, axis=2).tolist()
    r = np.array(config["reward"]["r"], dtype=float)
    beta = float(config["reward"]["beta"])
    c_alpha = float(config["rate"]["c_alpha"])
    g_alpha = float(config["rate"]["gamma_alpha"])
    q_learning = config.get("learner", "td0") == "q"
    n_actions = int(config.get("n_actions", 1))
    if q_learning:
        targets = [optimal_q(mats[t], r, beta, n_actions) for t in cps]
    else:
        targets = [discounted_reward(mats[t], r, beta) for t in cps]
    r_list = r.tolist()
    last = len(r_list) - 1

    errors = []
    for seed in config["seeds"]:
        uniforms = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(seed), 0]))).random(t_max).tolist()
        table = [0.0] * len(r_list)
        x = int(config.get("x0", 0))
        row_errors = []
        k = 0
        for t in range(1, t_max + 1):
            cum, u = cums[t][x], uniforms[t - 1]
            xn = 0
            while xn < last and cum[xn] <= u:
                xn += 1
            if q_learning:
                s = xn // n_actions
                boot = max(table[s * n_actions:(s + 1) * n_actions])
            else:
                boot = table[xn]
            alpha = c_alpha / t ** g_alpha
            table[x] = table[x] + alpha * (r_list[x] + beta * boot - table[x] + 0.0)
            x = xn
            if t == cps[k]:
                row_errors.append(float(np.abs(np.array(table) - targets[k]).max()))
                k += 1
                if k == len(cps):
                    break
        errors.append(row_errors)
    return {"checkpoints": cps,
            "median_sup_error": np.median(np.array(errors), axis=0).tolist()}


def regime(gamma_p: float, gamma_alpha: float, gamma_pi: float) -> str:
    """The paper's exponent race: adiabatic, diabatic or on the boundary."""
    margin = gamma_p - gamma_alpha - gamma_pi
    if margin > 0 and gamma_alpha > 3 * gamma_pi:
        return "adiabatic"
    if margin < 0:
        return "diabatic"
    return "boundary"


if __name__ == "__main__":
    json.dump([tracking_medians(config) for config in json.load(sys.stdin)], sys.stdout)
