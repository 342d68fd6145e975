"""Recompute tests/fixtures/tracking_reference.json from the one reference.

The per-checkpoint medians come from perfbench/reference.py, the straight-line
recursion (no package imports) that also checks the benchmark's tracking
results, so the frozen thresholds rest on a code path independent of
adiatrack.  This driver holds only the four acceptance configs (the keys the
reference reads), the statistics derived from their medians and the fixture's
layout; the fixture's hand-frozen "thresholds" block is not written.

Run:  python scripts/reference_recursion.py out.json   (about 7 s), then diff
out.json against the frozen fixture, which is never rewritten.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import reference  # noqa: E402  (perfbench/reference.py)

A, B = [[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.8, 0.2]]
# Q on (state, action) pairs, flat index 2 s + a, behavior uniform over the two actions
Q_P = [[0.45, 0.45, 0.05, 0.05], [0.1, 0.1, 0.4, 0.4],
       [0.35, 0.35, 0.15, 0.15], [0.2, 0.2, 0.3, 0.3]]
Q_R = [1.0, 0.0, 0.5, 0.25]
BETA, C_ALPHA, G_ALPHA, T_MAX, N_SEEDS = 0.5, 0.5, 0.6, 100_000, 20
TD_BASE_SEED, Q_BASE_SEED = 101, 211


def medians(schedule, base_seed, r=(1.0, 0.0), learner="td0", n_actions=1):
    """The checkpoints and per-checkpoint median sup errors of one config."""
    config = {"schedule": schedule, "reward": {"r": list(r), "beta": BETA},
              "rate": {"c_alpha": C_ALPHA, "gamma_alpha": G_ALPHA}, "t_max": T_MAX,
              "seeds": [base_seed + k for k in range(N_SEEDS)],
              "checkpoints": {"per_decade": 8}, "learner": learner, "n_actions": n_actions}
    result = reference.tracking_medians(config)
    return result["checkpoints"], np.array(result["median_sup_error"])


def fit_slope(ts, med, t_lo, t_hi):
    """Least-squares slope of log median against log t over [t_lo, t_hi]."""
    mask = (ts >= t_lo) & (ts <= t_hi) & (med > 0)
    return float(np.polyfit(np.log(ts[mask]), np.log(med[mask]), 1)[0])


def decade_median(ts, med, t_lo, t_hi):
    return float(np.median(med[(ts >= t_lo) & (ts <= t_hi)]))


def main(out_path):
    cps, static = medians({"kind": "constant", "n": 2, "p": A}, TD_BASE_SEED)
    _, adia = medians({"kind": "interpolation", "n": 2, "p_start": A, "p_end": B,
                       "params": {"c_p": 0.05, "gamma_p": 1.0}}, TD_BASE_SEED)
    _, dia = medians({"kind": "cyclic", "n": 2, "mats": [A, B],
                      "params": {"c_p": 0.05, "gamma_p": 0.3}}, TD_BASE_SEED)
    _, q = medians({"kind": "constant", "n": 4, "p": Q_P}, Q_BASE_SEED, Q_R, "q", 2)
    ts = np.array(cps, dtype=float)
    ups = [(cps[i], float(static[i]), float(static[i + 1])) for i in range(len(cps) - 1)
           if cps[i] >= 1000 and static[i + 1] > static[i]]  # rises after t = 1e3
    adia_last = decade_median(ts, adia, T_MAX // 10, T_MAX)
    dia_last = decade_median(ts, dia, T_MAX // 10, T_MAX)
    out = {"t_max": T_MAX, "n_seeds": N_SEEDS, "checkpoints": cps,
           "c_alpha": C_ALPHA, "gamma_alpha": G_ALPHA, "beta": BETA,
           "static_td": {"base_seed": TD_BASE_SEED, "median_final": float(static[-1]),
                         "slope_1e3_1e5": fit_slope(ts, static, 1e3, T_MAX),
                         "checkpoint_medians": static.tolist(),
                         "monotonicity": {"violations_after_1e3": ups, "max_up_ratio": max(
                             [b / a for (_, a, b) in ups], default=1.0)}},
           "adiabatic": {"c_p": 0.05, "gamma_p": 1.0, "family": "interpolation",
                         "median_final": float(adia[-1]),
                         "first_decade": decade_median(ts, adia, 1, 10),
                         "last_decade": adia_last, "checkpoint_medians": adia.tolist()},
           "diabatic": {"c_p": 0.05, "gamma_p": 0.3, "family": "cyclic",
                        "median_final": float(dia[-1]), "last_decade": dia_last,
                        "checkpoint_medians": dia.tolist()},
           "separation": {"final_ratio": float(dia[-1] / adia[-1]),
                          "last_decade_ratio": dia_last / adia_last},
           "static_q": {"base_seed": Q_BASE_SEED, "p": Q_P, "r": Q_R, "n_actions": 2,
                        "median_final": float(q[-1]), "checkpoint_medians": q.tolist()}}
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/reference_recursion.py out.json")
    main(sys.argv[1])
