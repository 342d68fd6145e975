"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Each workload drives a public entry point behind the `adiatrack` CLI
(`harness.run_tracking`, `harness.run_sweep`, `verify.suite_*`) with inputs
that depend only on the workload name and the seed.  One operation is one
call of that entry point.  `check` compares its outputs with numbers the
benchmark computes itself (reference.py for tracking, the suites' own
contract for verify) and digests the output bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from adiatrack import harness, verify

import reference

ABS_TOL = 1e-9  # per-checkpoint median sup error vs the reference

A = [[0.9, 0.1], [0.2, 0.8]]
B = [[0.1, 0.9], [0.8, 0.2]]
Q_P = [[0.45, 0.45, 0.05, 0.05], [0.1, 0.1, 0.4, 0.4],
       [0.35, 0.35, 0.15, 0.15], [0.2, 0.2, 0.3, 0.3]]
RATE = {"c_alpha": 0.5, "gamma_alpha": 0.6}
REWARD = {"r": [1.0, 0.0], "beta": 0.5}
ADIABATIC = {"kind": "interpolation", "n": 2,
             "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
             "p_start": A, "p_end": B}

# Sizes per operation: each operation takes a few tenths of a second, so the
# reference task timed right before it (run.py) sees the same machine speed.
# track-q needs many seeds for the Q kernel to outweigh verify_drift, which
# solves for the stationary vector at every t up to 10^4.
TRACK_ADIABATIC = {"t_max": 2_000, "seeds": 20}
TRACK_Q = {"t_max": 1_000, "seeds": 40}
SWEEP_SHORT = {"t_max": 500, "seeds": 4,
               "grid": {"gamma_p": [1.0, 0.3, "inf"], "gamma_alpha": [0.6, 0.8],
                        "gamma_pi": [0.0]}}
VERIFY_FIXEDPOINT = {"n_reward_cases": 85, "n_q_cases": 15, "n_restart_cases": 10}


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")


def reference_medians(configs: list) -> list:
    """reference.tracking_medians of each config, computed in a child process."""
    done = subprocess.run([sys.executable, REFERENCE], input=json.dumps(configs),
                          capture_output=True, text=True, check=True, timeout=150)
    return json.loads(done.stdout)


def _seeds(base: int, seed: int, count: int) -> list:
    return [base + 1000 * seed + k for k in range(count)]


def output_digest(out_dir) -> str:
    """sha256 over every file an operation wrote, by relative path."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _compare_summary(summary: dict, expected: dict, regime: str) -> str | None:
    """None when the summary matches the reference, else the first difference."""
    if summary["checkpoints"] != expected["checkpoints"]:
        return "checkpoint grid differs from the reference"
    if summary["regime"] != regime:
        return f"regime {summary['regime']!r}, expected {regime!r}"
    for t, got, want in zip(expected["checkpoints"], summary["median_sup_error"],
                            expected["median_sup_error"]):
        if not abs(got - want) <= ABS_TOL:
            return f"median sup error at t={t}: {got!r} vs reference {want!r}"
    return None


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Tracking:
    """harness.run_tracking on one experiment config."""

    def __init__(self, config: dict, regime: str):
        self.config = config
        self.regime = regime
        self.work = len(config["seeds"]) * config["t_max"]
        self.work_unit = "steps"
        self.parsed = harness.ExperimentConfig.from_dict(config)
        self._expected = None

    def run(self, out_dir):
        return harness.run_tracking(self.parsed, out_dir)

    def expected(self):
        if self._expected is None:
            self._expected, = reference_medians([self.config])
        return self._expected

    def digest(self, result, out_dir) -> str:
        return output_digest(out_dir)

    def checks(self, result) -> int:
        return 0

    def check(self, result, out_dir) -> str | None:
        path = os.path.join(out_dir, f"summary_{result['config_hash']}.json")
        return _compare_summary(_load(path), self.expected(), self.regime)


class Sweep:
    """harness.run_sweep over an exponent grid around a base config."""

    def __init__(self, base: dict, grid: dict):
        self.config = base
        self.grid = grid
        self.cells = {}  # cell key -> (config for the reference, regime)
        for gp in grid["gamma_p"]:
            for ga in grid["gamma_alpha"]:
                for gpi in grid["gamma_pi"]:
                    key = f"gp={gp}|ga={float(ga)}|gpi={float(gpi)}"
                    config = {**base, "schedule": self._cell_schedule(base["schedule"], gp),
                              "rate": {**base["rate"], "gamma_alpha": ga}}
                    gp_num = float("inf") if gp == "inf" else float(gp)
                    self.cells[key] = (config, reference.regime(gp_num, ga, gpi))
        self.work = len(self.cells) * len(base["seeds"]) * base["t_max"]
        self.work_unit = "steps"
        self.parsed = harness.ExperimentConfig.from_dict(base)
        self._expected = None

    @staticmethod
    def _cell_schedule(base: dict, gamma_p) -> dict:
        # gamma_pi = 0 cells: constant at gamma_p = inf, the interpolation
        # walk for gamma_p >= 1, the cyclic walk for gamma_p in (0, 1)
        params = {**base["params"], "gamma_p": gamma_p, "gamma_pi": 0.0}
        if gamma_p == "inf":
            return {"kind": "constant", "n": base["n"], "params": params, "p": base["p_start"]}
        if gamma_p >= 1.0:
            return {**base, "params": params}
        return {"kind": "cyclic", "n": base["n"], "params": params,
                "mats": [base["p_start"], base["p_end"]]}

    def run(self, out_dir):
        return harness.run_sweep(self.grid, self.parsed, out_dir)

    def expected(self):
        if self._expected is None:
            medians = reference_medians([config for config, _ in self.cells.values()])
            self._expected = dict(zip(self.cells, medians))
        return self._expected

    def digest(self, rows, out_dir) -> str:
        return output_digest(out_dir)

    def checks(self, rows) -> int:
        return 0

    def check(self, rows, out_dir) -> str | None:
        if sorted(row["cell"] for row in rows) != sorted(self.cells):
            return "sweep cells differ from the grid"
        for row in rows:
            if row["status"] != "ok":
                return f"cell {row['cell']}: {row['status']}"
            chash = row["config_hash"]
            summary = _load(os.path.join(out_dir, chash, f"summary_{chash}.json"))
            problem = _compare_summary(summary, self.expected()[row["cell"]],
                                       self.cells[row["cell"]][1])
            if problem:
                return f"cell {row['cell']}: {problem}"
        return None


class VerifyFixedPoint:
    """verify.suite_lipschitz + verify.suite_restart at reduced case counts."""

    def __init__(self, master_seed: int, n_reward_cases: int, n_q_cases: int,
                 n_restart_cases: int):
        self.master_seed = master_seed
        self.counts = (n_reward_cases, n_q_cases, n_restart_cases)
        # one check per Lipschitz case, two per restart case
        self.work = n_reward_cases + n_q_cases + 2 * n_restart_cases
        self.work_unit = "checks"
        self.config = None

    def run(self, out_dir):
        n_reward, n_q, n_restart = self.counts
        return [verify.suite_lipschitz(n_reward_cases=n_reward, n_q_cases=n_q,
                                       master_seed=self.master_seed),
                verify.suite_restart(n_cases=n_restart, master_seed=self.master_seed)]

    def digest(self, reports, out_dir) -> str:
        return hashlib.sha256(harness.canonical_json(reports).encode()).hexdigest()

    def checks(self, reports) -> int:
        return sum(report["checks"] for report in reports)

    def check(self, reports, out_dir) -> str | None:
        for report in reports:
            if not report["pass"]:
                return f"suite {report['suite']} failed: {report['violations'][:1]}"
        checks = self.checks(reports)
        if checks != self.work:
            return f"{checks} checks run, expected {self.work}"
        return None


def make(name: str, seed: int):
    if name == "track-adiabatic":
        size = TRACK_ADIABATIC
        config = {"schedule": ADIABATIC, "reward": REWARD, "rate": RATE,
                  "t_max": size["t_max"], "seeds": _seeds(101, seed, size["seeds"]),
                  "checkpoints": {"per_decade": 8}}
        return Tracking(config, "adiabatic")
    if name == "track-q":
        size = TRACK_Q
        config = {"schedule": {"kind": "constant", "n": 4, "p": Q_P},
                  "reward": {"r": [1.0, 0.0, 0.5, 0.25], "beta": 0.5}, "rate": RATE,
                  "learner": "q", "n_actions": 2, "t_max": size["t_max"],
                  "seeds": _seeds(211, seed, size["seeds"]),
                  "checkpoints": {"per_decade": 8}}
        return Tracking(config, "adiabatic")
    if name == "sweep-short":
        size = SWEEP_SHORT
        base = {"schedule": ADIABATIC, "reward": REWARD, "rate": RATE,
                "t_max": size["t_max"], "seeds": _seeds(101, seed, size["seeds"]),
                "checkpoints": {"per_decade": 8}}
        return Sweep(base, size["grid"])
    if name == "verify-fixedpoint":
        return VerifyFixedPoint(verify.DEFAULT_MASTER_SEED + seed, **VERIFY_FIXEDPOINT)
    raise ValueError(f"unknown workload {name!r}")


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def recorded_digest(name: str, seed: int) -> str | None:
    """The output digest recorded for (workload, seed), if one was recorded."""
    if not os.path.exists(DIGESTS):
        return None
    return _load(DIGESTS).get(name, {}).get(str(seed))
