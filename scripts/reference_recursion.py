"""Recompute tests/fixtures/tracking_reference.json from the one reference.

The per-checkpoint medians come from perfbench/reference.py, the straight-line
recursion (no package imports) that also checks the benchmark's tracking
results, so the frozen thresholds rest on a code path independent of
adiatrack.  This driver reads the four acceptance configs from configs/ as
plain JSON, and holds only the statistics derived from their medians and the
fixture's layout; the fixture's hand-frozen "thresholds" block is not written.

Run:  python scripts/reference_recursion.py out.json   (about 7 s), then diff
out.json against the frozen fixture, which is never rewritten.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import reference  # noqa: E402  (perfbench/reference.py)


def load(name):
    """configs/<name>.json with its {"base", "count"} seeds expanded to the list
    the reference reads."""
    with open(os.path.join(ROOT, "configs", f"{name}.json")) as fh:
        config = json.load(fh)
    base, count = config["seeds"]["base"], config["seeds"]["count"]
    return {**config, "seeds": list(range(base, base + count))}


def medians(config):
    """The checkpoints and per-checkpoint median sup errors of one config."""
    result = reference.tracking_medians(config)
    return result["checkpoints"], np.array(result["median_sup_error"])


def fit_slope(ts, med, t_lo, t_hi):
    """Least-squares slope of log median against log t over [t_lo, t_hi]."""
    mask = (ts >= t_lo) & (ts <= t_hi) & (med > 0)
    return float(np.polyfit(np.log(ts[mask]), np.log(med[mask]), 1)[0])


def decade_median(ts, med, t_lo, t_hi):
    return float(np.median(med[(ts >= t_lo) & (ts <= t_hi)]))


def drift(config):
    """The fixture's fields naming a drifting config's schedule."""
    schedule = config["schedule"]
    return {"c_p": schedule["params"]["c_p"], "gamma_p": schedule["params"]["gamma_p"],
            "family": schedule["kind"]}


def main(out_path):
    td, adia_cfg, dia_cfg, q_cfg = map(load, ("static_td", "adiabatic", "diabatic", "static_q"))
    (cps, static), (_, adia), (_, dia), (_, q) = map(medians, (td, adia_cfg, dia_cfg, q_cfg))
    t_max = td["t_max"]
    ts = np.array(cps, dtype=float)
    ups = [(cps[i], float(static[i]), float(static[i + 1])) for i in range(len(cps) - 1)
           if cps[i] >= 1000 and static[i + 1] > static[i]]  # rises after t = 1e3
    adia_last = decade_median(ts, adia, t_max // 10, t_max)
    dia_last = decade_median(ts, dia, t_max // 10, t_max)
    out = {"t_max": t_max, "n_seeds": len(td["seeds"]), "checkpoints": cps,
           "c_alpha": td["rate"]["c_alpha"], "gamma_alpha": td["rate"]["gamma_alpha"],
           "beta": td["reward"]["beta"],
           "static_td": {"base_seed": td["seeds"][0], "median_final": float(static[-1]),
                         "slope_1e3_1e5": fit_slope(ts, static, 1e3, t_max),
                         "checkpoint_medians": static.tolist(),
                         "monotonicity": {"violations_after_1e3": ups, "max_up_ratio": max(
                             [b / a for (_, a, b) in ups], default=1.0)}},
           "adiabatic": {**drift(adia_cfg), "median_final": float(adia[-1]),
                         "first_decade": decade_median(ts, adia, 1, 10),
                         "last_decade": adia_last, "checkpoint_medians": adia.tolist()},
           "diabatic": {**drift(dia_cfg), "median_final": float(dia[-1]), "last_decade": dia_last,
                        "checkpoint_medians": dia.tolist()},
           "separation": {"final_ratio": float(dia[-1] / adia[-1]),
                          "last_decade_ratio": dia_last / adia_last},
           "static_q": {"base_seed": q_cfg["seeds"][0], "p": q_cfg["schedule"]["p"],
                        "r": q_cfg["reward"]["r"], "n_actions": q_cfg["n_actions"],
                        "median_final": float(q[-1]), "checkpoint_medians": q.tolist()}}
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/reference_recursion.py out.json")
    main(sys.argv[1])
