import json
import os

import numpy as np
import pytest

from adiatrack import chains, harness, learners, verify
from adiatrack.cli import main as cli_main
from adiatrack.harness import (
    SPEC_VERSION,
    ExperimentConfig,
    canonical_json,
    fit_slope,
    log_checkpoints,
    run_sweep,
    run_tracking,
)

BASE_CONFIG = {
    "schedule": {"kind": "constant", "n": 2, "p": [[0.9, 0.1], [0.2, 0.8]]},
    "reward": {"r": [1.0, 0.0], "beta": 0.5},
    "rate": {"c_alpha": 0.5, "gamma_alpha": 0.6},
    "t_max": 2000,
    "seeds": {"base": 101, "count": 4},
    "checkpoints": {"per_decade": 6},
}


def make_config(**overrides):
    doc = {**{k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE_CONFIG.items()},
           **overrides}
    return ExperimentConfig.from_dict(doc)


# --------------------------------------------------------------------- config

def test_seeds_and_checkpoints_resolution():
    config = make_config()
    assert config.seeds == [101, 102, 103, 104]
    assert config.checkpoints[0] == 1 and config.checkpoints[-1] == 2000


def test_config_hash_is_pure_and_order_insensitive():
    c1 = make_config()
    c2 = ExperimentConfig.from_dict(json.loads(
        canonical_json(make_config().canonical_dict())))
    assert c1.config_hash() == c2.config_hash()
    assert len(c1.config_hash()) == 12


def test_config_hash_changes_with_content():
    assert make_config().config_hash() != make_config(t_max=2001).config_hash()


def test_config_rejects_unknown_fields_and_empty_seeds():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({**BASE_CONFIG, "mystery": 1})
    with pytest.raises(ValueError, match="non-empty"):
        make_config(seeds=[])


def test_log_checkpoints_cover_endpoints():
    cps = log_checkpoints(100_000, per_decade=8)
    assert cps[0] == 1 and cps[-1] == 100_000
    assert all(b > a for a, b in zip(cps, cps[1:]))


# ------------------------------------------------------------------- tracking

def test_zero_reward_pipeline_all_zero(tmp_path):
    config = make_config(reward={"r": [0.0, 0.0], "beta": 0.5})
    summary = run_tracking(config, tmp_path)
    assert summary["final_median_error"] == 0.0
    assert set(summary["median_sup_error"]) == {0.0}
    assert summary["spec_version"] == SPEC_VERSION


def test_rerun_is_byte_identical(tmp_path):
    config = make_config()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_tracking(config, d1)
    run_tracking(make_config(), d2)
    name = f"{config.config_hash()}_101.csv"
    assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    s1 = json.loads((d1 / f"summary_{config.config_hash()}.json").read_text())
    s2 = json.loads((d2 / f"summary_{config.config_hash()}.json").read_text())
    assert s1 == s2


def test_tracking_aborts_on_bad_certificate(tmp_path):
    from adiatrack.schedules import DriftCertificateError
    config = make_config(schedule={
        "kind": "constant", "n": 2, "p": [[0.9, 0.1], [0.2, 0.8]],
        "params": {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.9, "gamma_pi": 0.0}})
    with pytest.raises(DriftCertificateError):
        run_tracking(config, tmp_path)
    assert not list(tmp_path.iterdir())  # no trace file was written


def test_summary_carries_regime_and_bound(tmp_path):
    summary = run_tracking(make_config(), tmp_path)
    assert summary["regime"] == "adiabatic"
    assert set(summary["bound_report"]) == {"ada1", "ada2", "ada3", "ada4",
                                            "total", "tau", "regime",
                                            "same_rate_as_static"}
    assert summary["bound_report"]["ada3"] == 0.0  # static chain sentinel


Q_PRODUCT = [[0.45, 0.45, 0.05, 0.05], [0.1, 0.1, 0.4, 0.4],
             [0.35, 0.35, 0.15, 0.15], [0.2, 0.2, 0.3, 0.3]]


@pytest.mark.parametrize("overrides", [
    {"schedule": {"kind": "interpolation", "n": 2,
                  "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
                  "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
     "noise": {"kind": "uniform-iid", "eps_max": 0.2}, "x0": 1},
    {"schedule": {"kind": "constant", "n": 4, "p": Q_PRODUCT},
     "reward": {"r": [1.0, 0.0, 0.5, 0.25], "beta": 0.5}, "learner": "q", "n_actions": 2},
])
def test_shared_materialization_equals_per_seed_runs(overrides):
    config = make_config(t_max=2100, **overrides)
    schedule, spec, traces = harness._run_traces(config)
    _, _, rate, noise = config.build()
    for seed, trace in zip(config.seeds, traces):
        if config.learner == "td0":
            alone = learners.td0_track(schedule, spec, rate, noise, config.t_max, seed,
                                       config.checkpoints, x0=config.x0)
        else:
            alone = learners.q_track(schedule, spec, config.n_actions, rate, noise,
                                     config.t_max, seed, config.checkpoints, x0=config.x0)
        assert (trace.rows, trace.max_abs_value, trace.seed, trace.config) == \
            (alone.rows, alone.max_abs_value, alone.seed, alone.config)


# ---------------------------------------------------------------------- slope

def test_fit_slope_recovers_power_law():
    ts = np.array(log_checkpoints(100_000))
    est = fit_slope(ts, 3.0 * ts ** -0.3, 100, 100_000)
    assert est.slope == pytest.approx(-0.3, abs=1e-9)
    assert est.residual_rms < 1e-9


def test_fit_slope_needs_two_positive_points():
    assert fit_slope([10, 100], [0.0, 0.0], 1, 1000) is None


# ---------------------------------------------------------------------- sweep

def test_sweep_single_cell_matches_track(tmp_path):
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]})
    rows = run_sweep({"gamma_p": [1.0], "gamma_alpha": [0.6]}, base, tmp_path / "sweep")
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    direct = run_tracking(base, tmp_path / "direct")
    assert rows[0]["final_median_error"] == direct["final_median_error"]
    assert rows[0]["config_hash"] == direct["config_hash"]
    table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert table[0].startswith("cell,gamma_p,gamma_alpha,gamma_pi,status")
    assert len(table) == 2


def test_sweep_orders_cells_and_records_skips(tmp_path):
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
        t_max=500)
    rows = run_sweep({"gamma_p": ["inf", 0.3], "gamma_alpha": [0.6],
                      "gamma_pi": [0.0, 0.7]}, base, tmp_path)
    cells = [r["cell"] for r in rows]
    assert cells == sorted(cells)
    statuses = {r["cell"]: r["status"] for r in rows}
    assert statuses["gp=0.3|ga=0.6|gpi=0.0"] == "ok"
    skip = [s for s in statuses.values() if s.startswith("skipped")]
    assert len(skip) == 2  # gamma_alpha + gamma_pi >= 1 cells


def test_sweep_adiabatic_beats_diabatic_even_at_small_horizon(tmp_path):
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
        t_max=5000, seeds={"base": 101, "count": 6})
    rows = run_sweep({"gamma_p": [1.0, 0.3], "gamma_alpha": [0.6]}, base, tmp_path)
    err = {r["cell"]: r["final_median_error"] for r in rows}
    assert err["gp=1.0|ga=0.6|gpi=0.0"] < err["gp=0.3|ga=0.6|gpi=0.0"]


def test_sweep_cells_are_independent(tmp_path):
    # any subset of cells, run in any order, yields the same merged rows
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
        t_max=500)
    full = run_sweep({"gamma_p": [1.0, 0.3, "inf"], "gamma_alpha": [0.6]},
                     base, tmp_path / "full")
    subset = run_sweep({"gamma_p": ["inf", 0.3], "gamma_alpha": [0.6]},
                       base, tmp_path / "subset")
    by_cell = {r["cell"]: r for r in full}
    for row in subset:
        assert by_cell[row["cell"]] == row


def test_sweep_table_is_plain_csv(tmp_path):
    import csv
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
        t_max=300)
    run_sweep({"gamma_p": [1.0, "inf"], "gamma_alpha": [0.6]}, base, tmp_path)
    rows = list(csv.reader((tmp_path / "sweep.csv").open()))
    assert all(len(r) == len(rows[0]) for r in rows)  # no embedded separators


def test_sweep_shrinking_cell_runs(tmp_path):
    base = make_config(t_max=400, seeds={"base": 5, "count": 3},
                       reward={"r": [1.0, 0.0, -0.5], "beta": 0.5},
                       rate={"c_alpha": 0.5, "gamma_alpha": 0.4},
                       schedule={"kind": "interpolation", "n": 2,
                                 "params": {"c_p": 0.2, "gamma_p": 1.5,
                                            "c_pi": 0.2, "gamma_pi": 0.0},
                                 "p_start": [[0.9, 0.1], [0.2, 0.8]],
                                 "p_end": [[0.1, 0.9], [0.8, 0.2]]})
    rows = run_sweep({"gamma_p": [1.5], "gamma_alpha": [0.4], "gamma_pi": [0.5]},
                     base, tmp_path)
    assert rows[0]["status"] == "ok"
    assert rows[0]["regime"] == "boundary"  # 0.4 <= 3*0.5 blocks adiabatic


ACCEPTANCE_ANCHORS = {
    "kind": "interpolation", "n": 2,
    "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
    "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]}


def test_sweep_records_unconstructible_cell_as_skipped(tmp_path):
    # the shrinking family refuses c_p = 0.05 at gamma_pi = 0.2: its first
    # step drifts 0.0552 > 0.05; the cell is skipped, not an error
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=200)
    rows = run_sweep({"gamma_p": [1.2], "gamma_alpha": [0.7], "gamma_pi": [0.2]},
                     base, tmp_path)
    assert len(rows) == 1
    assert rows[0]["status"].startswith("skipped: measured drift")
    assert "exceeds the declared bound" in rows[0]["status"]
    assert (tmp_path / "sweep.csv").read_text().count("skipped") == 1


def test_sweep_still_raises_on_failed_certificate(tmp_path):
    # constructible cell whose declared floor c_pi = 0.9 fails verify_drift
    from adiatrack.schedules import DriftCertificateError
    anchors = {**ACCEPTANCE_ANCHORS,
               "params": {**ACCEPTANCE_ANCHORS["params"], "c_pi": 0.9}}
    base = make_config(schedule=anchors, t_max=200)
    with pytest.raises(DriftCertificateError):
        run_sweep({"gamma_p": [1.0], "gamma_alpha": [0.6]}, base, tmp_path)


# ------------------------------------------------------------------ verify CLI

def test_verify_suite_detects_corrupted_rho(monkeypatch):
    true_rho = chains.ergodicity_coefficient

    def corrupted(p):
        return 0.5 * true_rho(p)

    monkeypatch.setattr(chains, "ergodicity_coefficient", corrupted)
    report = verify.suite_prop1(n_cases=150)
    assert not report["pass"]
    # counterexample inputs are reported verbatim
    assert "p" in report["violations"][0]["inputs"]


def test_cli_bound_matches_regime(capsys):
    rc = cli_main(["bound", "--gamma-p", "0.3", "--gamma-alpha", "0.6",
                   "--gamma-pi", "0", "--T", "1000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "diabatic"
    assert doc["spec_version"] == SPEC_VERSION


def test_cli_bound_static_prints_zero_drift_term(capsys):
    rc = cli_main(["bound", "--gamma-p", "inf", "--gamma-alpha", "0.6",
                   "--gamma-pi", "0", "--T", "100000"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ada3"] == 0.0


def test_cli_track_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE_CONFIG, "t_max": 300}))
    rc = cli_main(["track", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec_version"] == SPEC_VERSION

    rc = cli_main(["track", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out2")])
    assert rc == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, "schedule": {
        "kind": "constant", "n": 2, "p": [[0.9, 0.1], [0.2, 0.8]],
        "params": {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.9, "gamma_pi": 0.0}}}))
    rc = cli_main(["track", "--config", str(bad), "--out", str(tmp_path / "out3")])
    assert rc == 2


def test_cli_verify_exit_codes(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "coverage",
                        lambda master_seed: {"pass": True, "suite": "coverage"})
    assert cli_main(["verify", "--suite", "coverage"]) == 0
    monkeypatch.setitem(verify.SUITES, "coverage",
                        lambda master_seed: {"pass": False, "suite": "coverage"})
    assert cli_main(["verify", "--suite", "coverage"]) == 1
    capsys.readouterr()


def test_cli_sweep_smoke(tmp_path, capsys):
    cfg = {**BASE_CONFIG, "t_max": 300,
           "schedule": {"kind": "interpolation", "n": 2,
                        "params": {"c_p": 0.05, "gamma_p": 1.0,
                                   "c_pi": 0.25, "gamma_pi": 0.0},
                        "p_start": [[0.9, 0.1], [0.2, 0.8]],
                        "p_end": [[0.1, 0.9], [0.8, 0.2]]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "grid.json").write_text(json.dumps({"gamma_p": [1.0],
                                                    "gamma_alpha": [0.6]}))
    rc = cli_main(["sweep", "--grid", str(tmp_path / "grid.json"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"][0]["status"] == "ok"
    assert os.path.exists(tmp_path / "out" / "sweep.csv")
