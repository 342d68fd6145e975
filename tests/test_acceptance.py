"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
pass/fail report per criterion.  Tracking thresholds marked [frozen] are
stored in tests/fixtures/tracking_reference.json, beside the medians of the
one straight-line reference recursion (perfbench/reference.py, no package
imports) that scripts/reference_recursion.py derives them from.
"""

import time

import numpy as np

from adiatrack import verify
from adiatrack.dp import RewardSpec, bellman_g
from adiatrack.harness import ExperimentConfig, fit_slope, run_tracking
from adiatrack.learners import LearningRate, NoiseModel, td0_track
from adiatrack.schedules import ConstantSchedule

from conftest import (
    adiabatic_config_dict,
    diabatic_config_dict,
    static_td_config_dict,
    stochastic,
)


def _report(number, name, passed, elapsed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    line = f"CRITERION {number:02d} {name}: {verdict} ({elapsed:.1f}s) {detail}"
    print(line)
    assert passed, line


def _decade_median(ts, med, t_lo, t_hi):
    ts = np.asarray(ts, dtype=float)
    med = np.asarray(med, dtype=float)
    return float(np.median(med[(ts >= t_lo) & (ts <= t_hi)]))


def test_criterion_01_ergodicity_coefficient_properties():
    started = time.monotonic()
    report = verify.suite_prop1(n_cases=10_000, tol=1e-10)
    elapsed = time.monotonic() - started
    _report(1, "ergodicity-coefficient properties (1e4 pairs)",
            report["pass"] and elapsed < 30.0, elapsed,
            f"checks={report['checks']} violations={report['violation_count']}")


def test_criterion_02_marginal_bound_dominance():
    started = time.monotonic()
    report = verify.suite_thm1(tol=1e-10, limit_behavior=False)
    elapsed = time.monotonic() - started
    _report(2, "comparison/stationarity bound dominance (T<=512)",
            report["pass"] and elapsed < 120.0, elapsed,
            f"checks={report['checks']} worst_margin={report['worst_margin']:.2e}")


def test_criterion_03_nonconvergent_limit_behavior():
    started = time.monotonic()
    report = verify.suite_thm1(tol=1e-10, dominance=False, limit_behavior=True)
    elapsed = time.monotonic() - started
    _report(3, "cyclic non-convergent gap decreases under the bound",
            report["pass"] and elapsed < 60.0, elapsed,
            f"checks={report['checks']}")


def test_criterion_04_lipschitz_and_restart():
    started = time.monotonic()
    lip = verify.suite_lipschitz(n_reward_cases=8500, n_q_cases=1500, tol=1e-10)
    res = verify.suite_restart(n_cases=1000, value_tol=1e-8, rho_tol=1e-12)
    elapsed = time.monotonic() - started
    _report(4, "fixed-point Lipschitz + restart identity sweeps",
            lip["pass"] and res["pass"] and elapsed < 60.0, elapsed,
            f"lipschitz_checks={lip['checks']} restart_checks={res['checks']}")


def test_criterion_05_operator_contraction():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    betas = [0.5, 0.9, 0.99]
    violations = 0
    for i in range(10_000):
        beta = betas[i % 3]
        # even i: the TD operator F, which is G with one action per state
        n, n_actions = (int(rng.integers(2, 6)), 1) if i % 2 == 0 else (6, 2)
        raw = rng.random((n, n))
        p = stochastic(raw / raw.sum(axis=1, keepdims=True))
        spec = RewardSpec(rng.uniform(-1, 1, n), beta)
        a, b = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        one = p[None], spec.r[None], np.array([spec.beta])  # k = 1 stacks
        gap = np.abs(bellman_g(*one, a[None], n_actions)
                     - bellman_g(*one, b[None], n_actions)).max()
        if gap > beta * np.abs(a - b).max() + 1e-12:
            violations += 1
    elapsed = time.monotonic() - started
    _report(5, "one-step operators contract by beta (1e4 pairs)",
            violations == 0, elapsed, f"violations={violations}")


def test_criterion_06_sequence_lemma_oracles():
    started = time.monotonic()
    report = verify.suite_lemmas(n_cases=400, tol=1e-10, t_horizon=1000)
    elapsed = time.monotonic() - started
    _report(6, "sequence-lemma oracles on power-law inputs",
            report["pass"], elapsed,
            f"checks={report['checks']} violations={report['violation_count']}")


def test_criterion_07_conditional_mixing():
    started = time.monotonic()
    report = verify.suite_mixing(t_horizon=4096)
    elapsed = time.monotonic() - started
    _report(7, "conditional-marginal mixing bound (T=4096)",
            report["pass"] and elapsed < 60.0, elapsed,
            f"checks={report['checks']} worst_margin={report['worst_margin']:.2e}")


def test_criterion_08_noise_envelope_coverage():
    started = time.monotonic()
    report = verify.suite_coverage(n_reps=500, t_max=1000, delta=0.05, tau=4)
    elapsed = time.monotonic() - started
    _report(8, "noise envelope coverage (500 reps, delta=0.05)",
            report["pass"], elapsed,
            f"worst_margin={report['worst_margin']:.4f}")


def test_criterion_09_iterate_boundedness(static_td_run, adiabatic_run,
                                          diabatic_run, static_q_run):
    started = time.monotonic()
    ball = (1.0 + 0.0) / (1.0 - 0.5) + 1e-9  # f_max = r_max = 1, no noise
    runs = {"static_td": static_td_run, "adiabatic": adiabatic_run,
            "diabatic": diabatic_run, "static_q": static_q_run}
    worst = {name: run[1]["max_abs_value"] for name, run in runs.items()}
    ok = all(v <= ball for v in worst.values())

    noise_sched = ConstantSchedule([[0.9, 0.1], [0.2, 0.8]])
    noise_ball = (1.0 + 0.5) / (1.0 - 0.5) + 1e-9
    for seed in range(5):
        trace = td0_track(noise_sched, RewardSpec([1.0, 0.0], 0.5),
                          LearningRate(0.5, 0.6), NoiseModel("uniform-iid", 0.5),
                          20_000, seed, [20_000])
        ok = ok and trace.max_abs_value <= noise_ball
    elapsed = time.monotonic() - started
    _report(9, "all runs stay in the (F_max+eps_max)/(1-beta) ball", ok, elapsed,
            "max |table| per run: " +
            ", ".join(f"{k}={v:.3f}" for k, v in worst.items()))


def test_criterion_10_static_chain_rate(static_td_run, reference):
    config, summary, _, elapsed = static_td_run
    thresholds = reference["thresholds"]
    slope = fit_slope(summary["checkpoints"], summary["median_sup_error"],
                      1000, config.t_max)
    slope_ok = slope is not None and slope.slope <= thresholds["static_slope_max"]
    final_ok = summary["final_median_error"] < thresholds["static_final_error"]
    _report(10, "static-chain rate (20 seeds, T=1e5)",
            slope_ok and final_ok and elapsed < 120.0, elapsed,
            f"slope={slope.slope:.3f} [frozen<=-0.2] "
            f"final={summary['final_median_error']:.4f} [frozen<0.05]")


def test_criterion_11_adiabatic_diabatic_separation(adiabatic_run, diabatic_run,
                                                    reference):
    _, adia, _, t_a = adiabatic_run
    _, dia, _, t_d = diabatic_run
    ratio_min = reference["thresholds"]["separation_ratio_min"]
    ts = adia["checkpoints"]
    t_max = ts[-1]
    adia_first = _decade_median(ts, adia["median_sup_error"], 1, 10)
    adia_last = _decade_median(ts, adia["median_sup_error"], t_max // 10, t_max)
    dia_last = _decade_median(dia["checkpoints"], dia["median_sup_error"],
                              t_max // 10, t_max)
    ordering = adia["final_median_error"] < dia["final_median_error"]
    settled = adia_last < adia_first
    ratio = dia_last / adia_last
    elapsed = t_a + t_d
    _report(11, "adiabatic cell beats diabatic cell (T=1e5)",
            ordering and settled and ratio >= ratio_min and elapsed < 300.0,
            elapsed,
            f"final adia={adia['final_median_error']:.4f} "
            f"dia={dia['final_median_error']:.4f} last-decade ratio={ratio:.1f} "
            f"[frozen>={ratio_min}]")


def test_criterion_12_byte_identical_reruns(static_td_run, adiabatic_run,
                                            diabatic_run, tmp_path):
    started = time.monotonic()
    ok = True
    for (config, _, out_dir, _), rebuild in (
            (static_td_run, static_td_config_dict),
            (adiabatic_run, adiabatic_config_dict),
            (diabatic_run, diabatic_config_dict)):
        redo_dir = tmp_path / config.config_hash()
        run_tracking(ExperimentConfig.from_dict(rebuild()), redo_dir)
        for fresh in sorted(redo_dir.iterdir()):
            original = out_dir / fresh.name
            ok = ok and original.exists() and \
                original.read_bytes() == fresh.read_bytes()
    elapsed = time.monotonic() - started
    _report(12, "criteria 10-11 reruns byte-identical", ok, elapsed)


def test_q_learning_fixture_threshold(static_q_run, reference):
    """Companion to criteria 9-10: the static Q config reproduces its frozen
    reference threshold."""
    _, summary, _, elapsed = static_q_run
    threshold = reference["thresholds"]["q_final_error"]
    _report(0, "static Q-learning final error under frozen threshold",
            summary["final_median_error"] < threshold, elapsed,
            f"final={summary['final_median_error']:.4f} [frozen<{threshold}]")


def test_runs_equal_the_frozen_reference(static_td_run, adiabatic_run, diabatic_run,
                                         static_q_run, reference):
    """The package's runs reproduce the reference recursion's medians frozen in
    the fixture: the TD runs bit for bit, static Q within 1e-11 (its frozen
    targets came from value iteration, the package's from policy iteration;
    they differed by at most 4.27e-13 when this test was written)."""
    for name, run, tol in (("static_td", static_td_run, 0.0), ("adiabatic", adiabatic_run, 0.0),
                           ("diabatic", diabatic_run, 0.0), ("static_q", static_q_run, 1e-11)):
        summary = run[1]
        assert summary["checkpoints"] == reference["checkpoints"], name
        frozen = reference[name]["checkpoint_medians"]
        gap = np.abs(np.subtract(summary["median_sup_error"], frozen)).max()
        assert gap <= tol, f"{name}: median sup error {gap:.3g} from the frozen reference"
