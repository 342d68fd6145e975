import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack import __version__, bounds, chains, dp, learners, schedules, verify
from adiatrack.cli import main as cli_main
from adiatrack.harness import (
    ExperimentConfig,
    canonical_json,
    fit_slope,
    log_checkpoints,
    run_sweep,
    run_tracking,
)

import conftest
from conftest import matrix_tv, random_rows, stochastic, trace_fields, tv

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


def test_config_hash_is_one_per_resolved_run():
    # eight spellings of the adiabatic run: as committed, noise without its
    # eps_max or with -0.0, an integral gamma_p, the schedule's n left out or
    # written 2.0, its checkpoints listed with points outside [1, t_max], which
    # no run reads, and learner "q" at one action, which runs TD(0) as
    # n_actions picks it
    doc = conftest.config_dict("adiabatic")
    spec = doc["schedule"]
    checkpoints = log_checkpoints(doc["t_max"], doc["checkpoints"]["per_decade"])
    spellings = [doc, {**doc, "noise": {"kind": "zero"}},
                 {**doc, "noise": {"kind": "zero", "eps_max": -0.0}},
                 {**doc, "schedule": {**spec, "params": {**spec["params"], "gamma_p": 1}}},
                 {**doc, "schedule": {k: v for k, v in spec.items() if k != "n"}},
                 {**doc, "schedule": {**spec, "n": 2.0}},
                 {**doc, "checkpoints": [-3, 0, *checkpoints, 5 * doc["t_max"]]},
                 {**doc, "learner": "q"}]
    configs = [ExperimentConfig.from_dict(d) for d in spellings]
    assert {c.config_hash() for c in configs} == {"cfd3500f67d0"}
    assert all(c.canonical_dict() == configs[0].canonical_dict() for c in configs)
    # "inf" stays a string, and a constant spec's omitted params stay omitted
    static = ExperimentConfig.from_dict({**doc, "schedule": {
        "kind": "constant", "p": spec["p_start"], "params": {**spec["params"], "gamma_p": "inf"}}})
    assert static.canonical_dict()["schedule"]["params"]["gamma_p"] == "inf"
    assert make_config().canonical_dict()["schedule"] == BASE_CONFIG["schedule"]


def test_numeric_strings_hash_as_the_numbers_they_read_as():
    # chains.number reads "0.5" as 0.5 and "Infinity" as inf: one run, one hash
    doc = conftest.config_dict("adiabatic")
    spec = doc["schedule"]
    gamma_p = lambda value: {**doc, "schedule": {**spec, "params": {**spec["params"],
                                                                   "gamma_p": value}}}
    hashes = lambda docs: {ExperimentConfig.from_dict(d).config_hash() for d in docs}
    assert hashes([doc, {**doc, "rate": {**doc["rate"], "c_alpha": "0.5"}},
                   {**doc, "reward": {**doc["reward"], "beta": "0.5"}}]) == {"cfd3500f67d0"}
    assert len(hashes(gamma_p(s) for s in ("inf", "Infinity", "INF", "+inf"))) == 1
    # what no reader takes as a number stays as spelt, for the reader to name
    for value in ("nan", "-inf"):
        params = ExperimentConfig.from_dict(gamma_p(value)).canonical_dict()["schedule"]["params"]
        assert params["gamma_p"] == value


def test_acceptance_config_hashes_are_pinned():
    # the out dir and file names of the four acceptance runs and of the
    # recorded benchmark outputs
    names = ["static_td", "adiabatic", "diabatic", "static_q"]
    assert [ExperimentConfig.from_dict(conftest.config_dict(n)).config_hash() for n in names] == [
        "dcf8ee043d52", "cfd3500f67d0", "a1ce077f2fd5", "57365d580392"]


def test_static_q_config_is_the_frozen_fixture_chain(reference):
    # the fixture's static_q medians were computed on this chain and reward
    doc = conftest.config_dict("static_q")
    assert (doc["schedule"]["p"], doc["reward"]["r"], doc["n_actions"], doc["reward"]["beta"]) == (
        reference["static_q"]["p"], reference["static_q"]["r"], reference["static_q"]["n_actions"],
        reference["beta"])


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
    assert summary["spec_version"] == __version__


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


ACCEPTANCE_ANCHORS = {
    "kind": "interpolation", "n": 2,
    "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
    "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]}


def test_tracking_aborts_on_bad_certificate(tmp_path, monkeypatch):
    from adiatrack.schedules import _CHUNK, DriftCertificateError, verify_drift
    steps = []  # one entry per block a learner takes: none, the scan gates the run
    advance = learners._Run.advance
    monkeypatch.setattr(learners._Run, "advance",
                        lambda run, *args: steps.append(1) or advance(run, *args))
    # Each report's extreme sits at the horizon's end, where P^(t_max+1),
    # walked for the last drift_t, must not enter it.  pi_min falls along
    # flat -> A and breaks the floor 0.47 on the way.
    floor = {"kind": "interpolation", "n": 2,
             "params": {"c_p": 0.03, "gamma_p": 1.0, "c_pi": 0.47, "gamma_pi": 0.0},
             "p_start": [[0.5, 0.5], [0.5, 0.5]], "p_end": [[0.9, 0.1], [0.2, 0.8]]}
    # restart wrapping scales the inner drift 0.05/t by 0.5/0.8: 0.03125/t, whose
    # declared scaling t**1.5 grows with t and breaks c_p = 0.02 from t = 1
    drift = {"kind": "restart-wrapped", "n": 2, "inner": ACCEPTANCE_ANCHORS, "beta": 0.5,
             "beta_hat": 0.8, "x_restart": 0,
             "params": {"c_p": 0.02, "gamma_p": 1.5, "c_pi": 0.1, "gamma_pi": 0.0}}
    for schedule, bound in ((floor, "pi floor c_pi"), (drift, "drift c_p")):
        # t_max = _CHUNK: the walk's last block holds P^(t_max+1) alone
        config = make_config(schedule=schedule, t_max=_CHUNK)
        with pytest.raises(DriftCertificateError) as err:
            run_tracking(config, tmp_path / "out")
        with pytest.raises(DriftCertificateError) as scanned:
            verify_drift(config.build()[0], config.t_max)
        assert err.value.report == scanned.value.report  # every field
        assert [v.bound for v in err.value.report.violations] == [bound]
        assert not list(tmp_path.iterdir())  # no trace file was written
        assert not steps  # the learners never stepped


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
def test_shared_materialization_equals_per_seed_runs(overrides, tmp_path, monkeypatch):
    config = make_config(t_max=2100, **overrides)
    runs, track = [], learners.track  # what the run's one learners.track call returns
    monkeypatch.setattr(learners, "track",
                        lambda *a, **kw: runs.append(track(*a, **kw)) or runs[-1])
    run_tracking(config, tmp_path)
    (trace,), = runs
    schedule, spec, rate, noise = config.build()
    assert trace.seeds == config.seeds
    for i, seed in enumerate(config.seeds):
        if config.learner == "td0":
            alone = learners.td0_track(schedule, spec, rate, noise, config.t_max, seed,
                                       config.checkpoints, x0=config.x0)
        else:
            alone = learners.q_track(schedule, spec, config.n_actions, rate, noise,
                                     config.t_max, seed, config.checkpoints, x0=config.x0)
        assert trace_fields(alone) == ([seed], trace.t, trace.alpha_t, trace.pi_min_t,
                                       trace.drift_t, trace.sup_error[i:i + 1].tolist(),
                                       trace.max_abs_value[i:i + 1])


def test_run_memory_does_not_grow_with_the_horizon(tmp_path):
    import tracemalloc

    from adiatrack.schedules import _CHUNK

    def peak(t_max):
        config = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=t_max, seeds=[101])
        tracemalloc.start()
        try:
            run_tracking(config, tmp_path / str(t_max))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * _CHUNK)  # fills the one-time caches (memoized checks, lazy imports)
    assert peak(8 * _CHUNK) - peak(2 * _CHUNK) < 1_000_000


# ---------------------------------------------------------------------- slope

def test_fit_slope_recovers_power_law():
    ts = np.array(log_checkpoints(100_000, 8))
    est = fit_slope(ts, 3.0 * ts ** -0.3, 100, 100_000)
    assert est["slope"] == pytest.approx(-0.3, abs=1e-9)
    assert est["residual_rms"] < 1e-9


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
    base = make_config(schedule={
        "kind": "interpolation", "n": 2,
        "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
        "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
        t_max=300)
    run_sweep({"gamma_p": [1.0, "inf"], "gamma_alpha": [0.6]}, base, tmp_path)
    rows = list(csv.reader((tmp_path / "sweep.csv").open()))
    assert all(len(r) == len(rows[0]) for r in rows)  # no embedded separators


def test_sweep_table_quotes_a_status_holding_a_comma(tmp_path):
    # gamma_p = 0 and gamma_alpha = 1 are skipped with messages naming intervals
    base = ExperimentConfig.from_dict({**conftest.config_dict("adiabatic"), "t_max": 300,
                                       "seeds": {"base": 101, "count": 2}})
    rows = run_sweep({"gamma_p": [0.0, 1.0], "gamma_alpha": [0.6, 1.0]}, base, tmp_path)
    header, *table = csv.reader((tmp_path / "sweep.csv").read_text().splitlines())
    assert len(header) == 10 and all(len(r) == 10 for r in table)
    assert [r[header.index("status")] for r in table] == [r["status"] for r in rows]
    assert sum("," in r["status"] for r in rows) == 3


SHRINK_PARAMS = {"c_p": 0.2, "gamma_p": 1.5, "c_pi": 0.2, "gamma_pi": 0.0}


@pytest.mark.parametrize("schedule", [
    {"kind": "interpolation", "n": 2, "params": SHRINK_PARAMS,
     "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
    # a base whose family reads no anchors serves the gamma_pi > 0 cells
    {"kind": "shrinking-state", "n": 3, "params": {**SHRINK_PARAMS, "gamma_pi": 0.5}},
    # params read as numbers where track reads them so, a string c_pi included
    {"kind": "interpolation", "n": 2, "params": {**SHRINK_PARAMS, "c_pi": "0.2"},
     "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.1, 0.9], [0.8, 0.2]]},
], ids=["interpolation", "shrinking-state", "string-c_pi"])
def test_sweep_shrinking_cell_runs(tmp_path, schedule):
    base = make_config(t_max=400, seeds={"base": 5, "count": 3},
                       reward={"r": [1.0, 0.0, -0.5], "beta": 0.5},
                       rate={"c_alpha": 0.5, "gamma_alpha": 0.4}, schedule=schedule)
    rows = run_sweep({"gamma_p": [1.5], "gamma_alpha": [0.4], "gamma_pi": [0.5]},
                     base, tmp_path)
    assert rows[0]["status"] == "ok"
    assert rows[0]["regime"] == "boundary"  # 0.4 <= 3*0.5 blocks adiabatic


def test_sweep_runs_a_constant_base(tmp_path):
    # a constant base's one anchor is p: its gamma_p = inf cell is the base
    # itself, byte for byte, and its gamma_p = 1 cell an interpolation of p to p
    schedule = {**BASE_CONFIG["schedule"],
                "params": {"c_p": 0.05, "gamma_p": "inf", "c_pi": 0.25, "gamma_pi": 0.0}}
    base = make_config(schedule=schedule, t_max=300)
    rows = run_sweep({"gamma_p": [1.0, "inf"], "gamma_alpha": [0.6]}, base,
                     tmp_path / "sweep")
    assert [r["status"] for r in rows] == ["ok", "ok"]
    direct = run_tracking(base, tmp_path / "direct")
    chash = direct["config_hash"]
    assert rows[1]["cell"] == "gp=inf|ga=0.6|gpi=0.0" and rows[1]["config_hash"] == chash
    names = sorted(os.listdir(tmp_path / "direct"))
    assert names == sorted(os.listdir(tmp_path / "sweep" / chash))
    for name in names:
        assert ((tmp_path / "sweep" / chash / name).read_bytes()
                == (tmp_path / "direct" / name).read_bytes())


def test_sweep_records_unconstructible_cell_as_skipped(tmp_path):
    # the shrinking family refuses c_p = 0.05 at gamma_pi = 0.2: its first
    # step drifts 0.0552 > 0.05; the cell is skipped, not an error
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=200)
    rows = run_sweep({"gamma_p": [1.2], "gamma_alpha": [0.7], "gamma_pi": [0.2]},
                     base, tmp_path)
    assert len(rows) == 1
    assert rows[0]["status"] == ("skipped: drift c_p violated at t=1: "
                                 "observed 0.055153231400438596 vs allowed 0.05")
    assert (tmp_path / "sweep.csv").read_text().count("skipped") == 1


def test_sweep_skips_a_gamma_pi_cell_its_rewards_cannot_run(tmp_path):
    # gamma_pi > 0 cells run the 3-state shrinking family: over the adiabatic
    # config's 2 rewards such a cell is skipped and its gamma_pi = 0 cells run;
    # over a 3-state base with 3 rewards it runs
    doc = conftest.config_dict("adiabatic")
    params = {**doc["schedule"]["params"], "c_p": 0.1}
    doc = {**doc, "t_max": 200, "seeds": {"base": 101, "count": 4},
           "schedule": {**doc["schedule"], "params": params}}
    grid = {"gamma_p": [1.0, 1.2], "gamma_alpha": [0.6], "gamma_pi": [0.0, 0.2]}
    rows = run_sweep(grid, ExperimentConfig.from_dict(doc), tmp_path / "two")
    no_family = ("skipped: no schedule family realizes gamma_p=1.0 with gamma_pi=0.2 "
                 "(shrinking family forces gamma_p = gamma_pi + 1)")
    assert [(r["cell"], r["status"]) for r in rows] == [
        ("gp=1.0|ga=0.6|gpi=0.0", "ok"), ("gp=1.0|ga=0.6|gpi=0.2", no_family),
        ("gp=1.2|ga=0.6|gpi=0.0", "ok"),
        ("gp=1.2|ga=0.6|gpi=0.2",
         "skipped: the 3-state shrinking family vs rewards n=2")]
    assert len(os.listdir(tmp_path / "two")) == 3  # two cell dirs and sweep.csv
    three = {**doc, "reward": {"r": [1.0, 0.0, 0.5], "beta": 0.5},
             "schedule": {"kind": "interpolation", "n": 3, "params": {**params, "c_pi": 0.1},
                          "p_start": [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]],
                          "p_end": [[0.3, 0.4, 0.3], [0.4, 0.3, 0.3], [0.25, 0.35, 0.4]]}}
    rows = run_sweep(grid, ExperimentConfig.from_dict(three), tmp_path / "three")
    assert [r["status"] for r in rows] == ["ok", no_family, "ok", "ok"]


def test_empty_out_path_is_refused_before_any_walk(tmp_path, monkeypatch):
    # os.makedirs("") raises; "" must not read as the working directory, where
    # a sweep's cell dirs would land before its sweep.csv failed
    monkeypatch.chdir(tmp_path)
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=200)
    with pytest.raises(FileNotFoundError, match="No such file or directory: ''"):
        run_sweep({"gamma_p": [1.0], "gamma_alpha": [0.6]}, base, "")
    assert os.listdir(tmp_path) == []

    def walk(schedule, t_max):
        raise AssertionError("the walk was started")

    monkeypatch.setattr(learners, "materialize", walk)
    with pytest.raises(FileNotFoundError, match="No such file or directory: ''"):
        run_tracking(base, "")
    assert os.listdir(tmp_path) == []


def test_sweep_cells_equal_their_own_runs(tmp_path):
    # two schedules at two rates each: a group's cells share its walk and its
    # path and noise draws, and every file of a cell is the one run_tracking
    # writes for that cell's config on its own
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=2500, x0=1,
                       noise={"kind": "uniform-iid", "eps_max": 0.2})
    rows = run_sweep({"gamma_p": [1.0, 0.3], "gamma_alpha": [0.6, 0.8]}, base,
                     tmp_path / "sweep")
    assert [r["status"] for r in rows] == ["ok"] * 4
    for row in rows:
        chash = row["config_hash"]
        cell = tmp_path / "sweep" / chash
        doc = json.loads((cell / f"summary_{chash}.json").read_text())["config"]
        assert doc["rate"]["gamma_alpha"] == row["gamma_alpha"]
        summary = run_tracking(ExperimentConfig.from_dict(doc), tmp_path / "alone" / chash)
        assert summary["config_hash"] == chash
        names = sorted(os.listdir(cell))
        assert names == sorted(os.listdir(tmp_path / "alone" / chash))
        assert len(names) == len(base.seeds) + 1
        for name in names:
            assert (cell / name).read_bytes() == (tmp_path / "alone" / chash / name).read_bytes()


def test_sweep_reads_a_base_without_n_as_track_does(tmp_path):
    # n defaults to the anchors' size, as schedule_from_spec reads it: every
    # cell writes the files of the same base with "n": 2
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    grid = {"gamma_p": [1.0, 0.3, "inf"], "gamma_alpha": [0.6]}
    bare = {k: v for k, v in ACCEPTANCE_ANCHORS.items() if k != "n"}
    rows = run_sweep(grid, make_config(schedule=bare, t_max=300), tmp_path / "bare")
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert rows == run_sweep(grid, make_config(schedule=ACCEPTANCE_ANCHORS, t_max=300),
                             tmp_path / "spelt")
    assert files(tmp_path / "bare") == files(tmp_path / "spelt")


def test_sweep_writes_nothing_when_a_later_walk_raises(tmp_path, monkeypatch):
    # two groups (gamma_p inf and 1.0), one block each at t_max 200: the first
    # walk succeeds, the second raises, and neither cell's out dir is made
    calls, solve = [], dp.exact_q

    def exact_q(*args):
        calls.append(1)
        if len(calls) > 1:
            raise ArithmeticError("second solve")
        return solve(*args)

    monkeypatch.setattr(dp, "exact_q", exact_q)
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=200)
    with pytest.raises(ArithmeticError, match="second solve"):
        run_sweep({"gamma_p": ["inf", 1.0], "gamma_alpha": [0.6]}, base, tmp_path / "out")
    assert len(calls) == 2 and not (tmp_path / "out").exists()


def test_sweep_still_raises_on_failed_certificate(tmp_path, monkeypatch):
    # constructible cell whose declared floor c_pi = 0.9 fails verify_drift
    from adiatrack.schedules import DriftCertificateError
    anchors = {**ACCEPTANCE_ANCHORS,
               "params": {**ACCEPTANCE_ANCHORS["params"], "c_pi": 0.9}}
    base = make_config(schedule=anchors, t_max=200)
    with pytest.raises(DriftCertificateError):
        run_sweep({"gamma_p": [1.0], "gamma_alpha": [0.6]}, base, tmp_path / "one")
    # a grid whose first schedule, the constant A (pi_min 1/3), keeps the floor
    # c_pi = 0.3 while the path from A to a chain of pi_min 1/11 breaks it: the
    # constant group walks its one block (2 rates x 4 seeds), the path's learners
    # never step, since the floor fails in its first block, and nothing is written
    steps = []
    advance = learners._Run.advance
    monkeypatch.setattr(learners._Run, "advance",
                        lambda run, *args: steps.append(1) or advance(run, *args))
    anchors = {**ACCEPTANCE_ANCHORS, "p_end": [[0.95, 0.05], [0.5, 0.5]],
               "params": {**ACCEPTANCE_ANCHORS["params"], "c_pi": 0.3}}
    base = make_config(schedule=anchors, t_max=2000)
    with pytest.raises(DriftCertificateError) as err:
        run_sweep({"gamma_p": ["inf", 1.0], "gamma_alpha": [0.6, 0.8]}, base,
                  tmp_path / "grid")
    assert [v.bound for v in err.value.report.violations] == ["pi floor c_pi"]
    assert err.value.report.violations[0].t > 1
    assert not (tmp_path / "one").exists() and not (tmp_path / "grid").exists()
    assert len(steps) == 8
    rows = run_sweep({"gamma_p": ["inf"], "gamma_alpha": [0.6, 0.8]}, base, tmp_path / "ok")
    assert [r["status"] for r in rows] == ["ok", "ok"]  # the constant cells pass alone


def test_sweep_builds_each_block_once(tmp_path, monkeypatch):
    # the certificate scan rides the learners' walk: at T = 2 _CHUNK + 5 each
    # group's walk is 3 blocks, and each block is built once
    from adiatrack.schedules import _CHUNK
    built, block = [], schedules.Schedule.block
    monkeypatch.setattr(schedules.Schedule, "block",
                        lambda s, *args: built.append(s.kind) or block(s, *args))
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=2 * _CHUNK + 5)
    rows = run_sweep({"gamma_p": [1.0, 0.3], "gamma_alpha": [0.6]}, base, tmp_path)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert sorted(built) == ["cyclic"] * 3 + ["interpolation"] * 3


def test_sweep_resolves_each_cell_once(tmp_path, monkeypatch):
    # the resolved config names a cell's out dir and is its summary's config;
    # a skipped cell is never resolved
    resolved, canonical = [], ExperimentConfig.canonical_dict
    monkeypatch.setattr(ExperimentConfig, "canonical_dict",
                        lambda cfg: resolved.append(1) or canonical(cfg))
    base = make_config(schedule=ACCEPTANCE_ANCHORS, t_max=200)
    rows = run_sweep({"gamma_p": [1.0, 0.3, "inf"], "gamma_alpha": [0.6],
                      "gamma_pi": [0.0, 0.7]}, base, tmp_path)
    assert [r["status"] for r in rows].count("ok") == 3 == len(resolved)
    run_tracking(base, tmp_path / "run")
    assert len(resolved) == 4


def test_certificate_failing_mid_horizon_stops_the_walk_at_its_block(tmp_path, monkeypatch):
    # the floor c_pi = 0.3 first fails at t = 91,381, in the walk's 45th block
    # (lo = 90,113): the learners step through the 44 blocks before it, no further
    from adiatrack.schedules import DriftCertificateError, verify_drift
    steps, advance = [], learners._Run.advance
    monkeypatch.setattr(learners._Run, "advance",
                        lambda run, *args: steps.append(1) or advance(run, *args))
    schedule = {"kind": "interpolation", "n": 2,
                "params": {"c_p": 0.002, "gamma_p": 1.0, "c_pi": 0.3, "gamma_pi": 0.0},
                "p_start": [[0.9, 0.1], [0.2, 0.8]], "p_end": [[0.95, 0.05], [0.5, 0.5]]}
    config = make_config(schedule=schedule, t_max=100_000, seeds=[1, 2])
    sched, spec, rate, noise = config.build()
    with pytest.raises(DriftCertificateError) as err:
        learners.track(sched, spec, [rate], noise, config.t_max, config.seeds,
                       config.checkpoints)
    with pytest.raises(DriftCertificateError) as scanned:
        verify_drift(sched, config.t_max)
    assert err.value.report == scanned.value.report  # every field
    assert [(v.bound, v.t) for v in err.value.report.violations] == [("pi floor c_pi", 91_381)]
    assert len(steps) == 88  # 44 blocks x 2 seeds
    with pytest.raises(DriftCertificateError):
        run_tracking(config, tmp_path / "out")
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------------ verify CLI

def test_verify_suite_detects_corrupted_rho(monkeypatch):
    true_rhos, n_cases = chains.ergodicity_coefficients, 150

    def corrupted(mats):  # halved on the 2x2 eigenvalue stack only, so its checks fail first
        return 0.5 * true_rhos(mats) if mats.shape == (n_cases, 2, 2) else true_rhos(mats)

    monkeypatch.setattr(chains, "ergodicity_coefficients", corrupted)
    report = verify.suite_prop1(n_cases=n_cases)
    assert not report["pass"]
    first = report["violations"][0]
    assert first["check"] == "second_eigenvalue"
    rng2 = chains.stream(verify.DEFAULT_MASTER_SEED, 2)  # redraw the 2x2 cases up to this one
    p = [random_rows(rng2, 2) for _ in range(first["case"] - n_cases)][-1]
    assert first["inputs"] == {"p": p.tolist()}  # counterexample inputs reported verbatim
    assert (first["lhs"], first["rhs"]) == (abs(p[0, 0] + p[1, 1] - 1.0),
                                            0.5 * true_rhos(p[None])[0])


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_rows_equal_the_per_matrix_formula_bit_for_bit(n):
    oracle_rng, draw_rng = np.random.default_rng(n), np.random.default_rng(n)
    expected = np.array([random_rows(oracle_rng, n) for _ in range(60)])
    draws = [verify._draw(draw_rng, n) for _ in range(60)]
    assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state  # same draw order
    styles, raw = map(np.array, zip(*draws))
    assert set(styles.tolist()) == {0, 1, 2}
    assert verify._rows(styles, raw).tobytes() == expected.tobytes()
    for style in range(3):  # one style's stack
        assert (verify._rows(styles[styles == style], raw[styles == style]).tobytes()
                == expected[styles == style].tobytes())
    assert verify._matrices(draws).tobytes() == expected.tobytes()
    for draw, one in zip(draws, expected):  # k = 1 stacks
        assert verify._rows([draw[0]], draw[1][None]).tobytes() == one[None].tobytes()
        assert verify._matrices([draw]).tobytes() == one[None].tobytes()


def test_verify_check_fails_a_nan_side(monkeypatch):
    rec = verify._Recorder("demo", 0)
    rec.check("a", np.nan, 1.0, 0.0)
    rec.check("b", 0.0, np.nan, 0.0)
    assert [v["check"] for v in rec.report()["violations"]] == ["a", "b"]
    # a broken oracle returning NaN fails its suite instead of passing silently
    monkeypatch.setattr(chains, "ergodicity_coefficients", lambda mats: np.full(len(mats), np.nan))
    report = verify.suite_restart(n_cases=20)
    assert not report["pass"]
    assert {v["check"] for v in report["violations"]} == {"restart_rho_cap"}
    first = report["violations"][0]
    assert np.isnan(first["lhs"]) and first["case"] == 1


def test_verify_report_keeps_a_nan_margin(monkeypatch):
    for order in ([0.5, np.nan, 0.25], [np.nan, 0.5, 0.25], [0.5, 0.25, np.nan]):
        rec = verify._Recorder("demo", 0)
        rec.check("b", 0.0, 1.0, 0.0)
        for rhs in order:
            rec.check("a", 0.0, rhs, 0.0)
        report = rec.report()
        assert np.isnan(report["worst_margin_by_check"]["a"]), order
        assert report["worst_margin_by_check"]["b"] == 1.0
        assert np.isnan(report["worst_margin"]), order
    monkeypatch.setattr(chains, "ergodicity_coefficients", lambda mats: np.full(len(mats), np.nan))
    report = verify.suite_restart(n_cases=20)
    assert np.isnan(report["worst_margin_by_check"]["restart_rho_cap"])
    assert np.isnan(report["worst_margin"])


def _per_case_lipschitz(n_reward_cases, n_q_cases, master_seed, tol=1e-10):
    """suite_lipschitz as a per-case loop: a validated draw and one dp check per case."""
    rec = verify._Recorder("lipschitz", master_seed)
    rng = chains.stream(master_seed, 5)
    betas = [0.5, 0.9, 0.99]
    for i in range(n_reward_cases):
        rec.cases += 1
        n = int(rng.integers(2, 7))
        p = stochastic(random_rows(rng, n))
        q = stochastic(random_rows(rng, n))
        spec = dp.RewardSpec(rng.uniform(0, 1, n), betas[i % 3])
        (lhs,), (rhs,) = dp.check_lipschitz(p[None], q[None], spec.r[None],
                                            np.array([spec.beta]), 1)
        rec.check("reward_lipschitz", lhs, rhs, tol)
    for i in range(n_q_cases):
        rec.cases += 1
        nsa = 2 * int(rng.integers(2, 4))
        p = stochastic(random_rows(rng, nsa))
        q = stochastic(random_rows(rng, nsa))
        spec = dp.RewardSpec(rng.uniform(0, 1, nsa), betas[i % 3])
        (lhs,), (rhs,) = dp.check_lipschitz(p[None], q[None], spec.r[None],
                                            np.array([spec.beta]), 2)
        rec.check("q_lipschitz", lhs, rhs, tol)
    return rec.report()


def _per_case_restart(n_cases, master_seed, value_tol=1e-8, rho_tol=1e-12):
    """suite_restart as a per-case loop: a validated draw and one dp check per case."""
    rec = verify._Recorder("restart", master_seed)
    rng = chains.stream(master_seed, 6)
    for _ in range(n_cases):
        rec.cases += 1
        n = int(rng.integers(2, 6))
        p = stochastic(random_rows(rng, n))
        beta = float(rng.uniform(0.2, 0.9))
        beta_hat = beta + (1.0 - beta) * float(rng.uniform(0.2, 0.9))
        x_restart = int(rng.integers(n))
        spec = dp.RewardSpec(rng.uniform(-1, 1, n), beta)
        (lhs,), (rhs,), (rho,), (rho_bound,) = dp.check_restart_identities(
            p[None], spec.r[None], np.array([beta]), np.array([beta_hat]),
            np.array([x_restart]))
        rec.check("restart_value_identity", abs(lhs - rhs), 0.0, value_tol)
        rec.check("restart_rho_cap", rho, rho_bound, rho_tol)
    return rec.report()


def _per_case_prop1(n_cases, master_seed, tol=1e-10):
    """suite_prop1 as a per-case loop: validated draws, products and pushed
    vectors (stochastic) and k = 1 calls per case."""
    rec = verify._Recorder("prop1", master_seed)
    rng = chains.stream(master_seed, 1)

    def random_distribution(n):
        raw = rng.random(n) + 1e-12
        return stochastic(raw / raw.sum())

    for _ in range(n_cases):
        rec.cases += 1
        n = int(rng.integers(2, 7))
        p = stochastic(random_rows(rng, n))
        q = stochastic(random_rows(rng, n))
        rho_p = chains.ergodicity_coefficient(p)
        rho_q = chains.ergodicity_coefficient(q)
        prod = stochastic(p @ q)
        rec.check("submultiplicative", chains.ergodicity_coefficient(prod), rho_p * rho_q, tol)
        lam, mu = random_distribution(n), random_distribution(n)
        rec.check("tv_contraction",
                  tv(stochastic(lam @ p), stochastic(mu @ p)),
                  rho_p * tv(lam, mu), tol)
        overlap = 1.0 - np.minimum(p[:, None, :], p[None, :, :]).sum(2).min()
        rec.check("row_pair_vs_overlap_form", abs(rho_p - overlap), 0.0, tol)
        if rho_p < 1.0 - 1e-6:
            pert = stochastic(0.7 * p + 0.3 * q)
            gap = tv(chains.stationary_distribution(p), chains.stationary_distribution(pert))
            rec.check("stationary_perturbation", gap, matrix_tv(p, pert) / (1.0 - rho_p), tol)
    rng2 = chains.stream(master_seed, 2)
    for _ in range(n_cases):
        rec.cases += 1
        p = stochastic(random_rows(rng2, 2))
        second = float(p[0, 0] + p[1, 1] - 1.0)  # the non-unit eigenvalue
        rec.check("second_eigenvalue", abs(second), chains.ergodicity_coefficient(p), tol)
    return rec.report()


def _log_checks(monkeypatch) -> list:
    """Every (case, name, lhs, rhs) any recorder checks and every (case, name,
    bool) it requires from here on, in order."""
    checks, record, require = [], verify._Recorder.check, verify._Recorder.require

    def logged(rec, name, lhs, rhs, tol, inputs=None):
        checks.append((rec.cases, name, lhs, rhs))
        record(rec, name, lhs, rhs, tol, inputs)

    def logged_require(rec, name, condition, inputs=None):
        checks.append((rec.cases, name, bool(condition)))
        require(rec, name, condition, inputs)

    monkeypatch.setattr(verify._Recorder, "check", logged)
    monkeypatch.setattr(verify._Recorder, "require", logged_require)
    return checks


@pytest.mark.parametrize("master_seed", [verify.DEFAULT_MASTER_SEED, 7, 11])
def test_stacked_prop1_equals_per_case_loop(monkeypatch, master_seed):
    checks = _log_checks(monkeypatch)
    report, stacked = canonical_json(verify.suite_prop1(400, master_seed=master_seed)), checks.copy()
    checks.clear()
    assert report == canonical_json(_per_case_prop1(400, master_seed))
    assert stacked == checks
    assert {name for _, name, _, _ in checks} == {
        "submultiplicative", "tv_contraction", "row_pair_vs_overlap_form",
        "stationary_perturbation", "second_eigenvalue"}


def test_prop1_pair_checks_catch_a_corrupted_stack_rho(monkeypatch):
    true_rhos = chains.ergodicity_coefficients
    monkeypatch.setattr(chains, "ergodicity_coefficients", lambda mats: 0.5 * true_rhos(mats))
    report = verify.suite_prop1(n_cases=50)
    assert not report["pass"]
    first = report["violations"][0]
    assert first["check"] == "tv_contraction" and first["case"] == 1
    rng = chains.stream(verify.DEFAULT_MASTER_SEED, 1)  # redraw case 1
    n = int(rng.integers(2, 7))
    p, q = random_rows(rng, n), random_rows(rng, n)
    lam, mu = rng.random(n) + 1e-12, rng.random(n) + 1e-12
    lam, mu = lam / lam.sum(), mu / mu.sum()
    assert first["inputs"] == {"p": p.tolist(), "q": q.tolist()}
    rho_p = true_rhos(p[None])[0]
    assert first["lhs"] == pytest.approx(0.5 * np.abs(lam @ p - mu @ p).sum(), rel=1e-12)
    assert first["rhs"] == pytest.approx(0.5 * rho_p * 0.5 * np.abs(lam - mu).sum(), rel=1e-12)


def test_prop1_pair_checks_reject_a_row_off_by_1e9(monkeypatch):
    true_rows, calls = verify._rows, []

    def one_bad_case(styles, raw):
        rows = true_rows(styles, raw)
        calls.append(rows.shape)
        if len(calls) == 1:  # the case's p stack: rho(p) = 1, so no stationary solve checks it
            rows[0] = np.eye(rows.shape[1])
            rows[0, 1, 0] = 1e-9  # row 1 sums to 1 + 1e-9
        return rows

    monkeypatch.setattr(verify, "_rows", one_bad_case)
    with pytest.raises(chains.InvariantError, match="sums to"):
        verify.suite_prop1(n_cases=1)


def _per_t_thm1(master_seed, tol=1e-10):
    """suite_thm1 as a per-t walk: one validated matrix_at call per step, and
    both bounds evaluated straight-line per start, in the evaluators' order."""
    def gap_bound(params, rho, t, init_gap):
        phi = [params.drift_bound(max(s - 1, 1)) for s in range(1, t // 2 + 1)]
        return (phi[-1] * rho / (1.0 - rho) ** 2 + rho ** (t // 2 + 1) / (1.0 - rho) * sum(phi)
                + init_gap * rho ** t)

    rec = verify._Recorder("thm1", master_seed)
    for fam in verify.scan_families():
        n, mats = fam.n, []
        marg, ref_pow, mu = np.eye(n), np.eye(n), np.full(n, 1.0 / n)
        for t in range(1, verify.THM1_HORIZONS[-1] + 1):
            mats.append(fam.matrix_at(t))
            marg, ref_pow = marg @ mats[-1], ref_pow @ mats[0]
            if t not in verify.THM1_HORIZONS:
                continue
            rec.cases += 1
            rho, pi = chains.ergodicity_coefficient(mats[-1]), chains.stationary_distribution(mats[-1])
            for x in range(n) if rho < 1.0 else []:
                init_gap = 0.5 * float(np.abs(np.eye(n)[x] - pi).sum())
                rec.check("stationarity_gap_dominance", 0.5 * np.abs(marg[x] - pi).sum(),
                          gap_bound(fam.params, rho, t, init_gap), tol)
            rho_ref = chains.ergodicity_coefficient(mats[0])
            for x in range(n):
                bound = 0.5 * float(np.abs(np.eye(n)[x] - mu).sum()) * rho_ref ** t
                for s, mat in enumerate(mats, 1):
                    bound += matrix_tv(mat, mats[0]) * rho_ref ** (t - s)
                rec.check("homogeneous_comparison_dominance",
                          0.5 * np.abs(marg[x] - mu @ ref_pow).sum(), bound, tol)
    cyc = schedules.CyclicSchedule(
        [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.8, 0.2]]],
        schedules.DriftParams(0.3, 0.7, 0.2, 0.0))
    marg, gaps = np.array([1.0, 0.0]), {}
    for t in range(1, 10_001):
        p = cyc.matrix_at(t)
        marg = marg @ p
        if t in (100, 1000, 10_000):
            rec.cases += 1
            pi = chains.stationary_distribution(p)
            gaps[t] = 0.5 * np.abs(marg - pi).sum()
            rec.check("limit_gap_below_bound", gaps[t], gap_bound(
                cyc.params, chains.ergodicity_coefficient(p), t,
                0.5 * np.abs(np.array([1.0, 0.0]) - pi).sum()), tol)
    rec.require("limit_gap_strictly_decreasing", gaps[100] > gaps[1000] > gaps[10_000])
    return rec.report()


def test_block_thm1_equals_per_t_walk(monkeypatch):
    checks = _log_checks(monkeypatch)
    report, block = canonical_json(verify.suite_thm1()), checks.copy()
    checks.clear()
    assert report == canonical_json(_per_t_thm1(verify.DEFAULT_MASTER_SEED))
    assert block == checks


@pytest.mark.parametrize("suite, digest", [
    ("thm1", "2b4121c5d47e73d6efa4b61187c68cc39b217fbeadf8c1449f120452d5db637b"),
    ("mixing", "13c4c05623d3bd6a61018517cddb640e70333f376bc54bec7be9f5d9c4ad3229"),
    ("lipschitz", "efb032a3db26f07d0b2b108a27701f27ab5f30a8480b49a06700fbdbdcaedd1e"),
    ("prop1", "676a3ed0418c61a69fda659d4c090139901fe5e7673b4fa97c6a365871cdba23"),
    ("restart", "5eec3eccec12e4055f976ebecf40b1920dd354cce03e5c380213eb15042d7922"),
    ("lemmas", "f42d98a2f9d6fc08ece33c6ae5356a23c76678b26ed9c158bfdbd20836e8e37d"),
    ("coverage", "e87540cfce5289b28caf040525e7083fed3f7632d962834b67207ebe7df4fa20"),
])
def test_block_suite_reports_keep_their_bytes(suite, digest):
    # sha256 of the canonical default-seed report, recorded before the suite's
    # code was refactored onto stacks; the digests assume the numpy pinned in CI
    report = canonical_json(verify.run_suite(suite))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, digest", [
    ("lipschitz", "f3fcfc01f5e9f4cefa7ed0ede5775e2e54b3ffc78bd44cc99f41c5420ffbdc7d"),
    ("prop1", "c4365e6020d4484e65a3ea81e31f21ac7f4758fb0fa38269b42d3ef88b722d3b"),
    ("restart", "786646c94fd069fa5ad98631d66b0266a8bc117b93d54f2d838e8d3702a9114b"),
])
def test_random_matrix_suite_reports_keep_their_bytes_at_seed_1(suite, digest):
    # sha256 of the canonical master-seed-1 report, recorded before the random
    # matrices were built as one stack per size; the numpy pinned in CI assumed
    report = canonical_json(verify.run_suite(suite, master_seed=1))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "419584ecb77b5c7549e178d83131d11d2c6251e5d8b665668611b391af0159b2"),
    (1, "6599f0a77c269cba7fc5554624f5428ee0e0bd96f913038d5eed66b8ed433f27"),
    (2, "529b5eb5fd0783a1f94c19db3164654975097f6f907502a8edd74bfdb3cd089b"),
])
def test_reduced_fixed_point_reports_keep_their_bytes(seed, digest):
    # sha256 of the canonical [lipschitz, restart] reports at 85 reward, 15 Q and
    # 10 restart cases, master seed 20240809 + seed: the benchmark's
    # verify-fixedpoint operation, recorded before its array passes were merged
    master_seed = verify.DEFAULT_MASTER_SEED + seed
    reports = [verify.suite_lipschitz(n_reward_cases=85, n_q_cases=15, master_seed=master_seed),
               verify.suite_restart(n_cases=10, master_seed=master_seed)]
    assert hashlib.sha256(canonical_json(reports).encode()).hexdigest() == digest


def _per_case_lemmas(n_cases, master_seed, tol=1e-10, t_horizon=1000):
    """suite_lemmas as a per-case loop: each oracle called on one case (a
    k = 1 stack), scalar check recursions that stop drawing at a case's first
    feedback violation."""
    rec = verify._Recorder("lemmas", master_seed)
    rng = chains.stream(master_seed, 4)
    for _ in range(n_cases):
        rec.cases += 1
        ts = np.arange(1, t_horizon + 1, dtype=float)

        gamma = float(rng.choice([0.3, 0.5, 0.7, 1.0, 1.3, 2.0]))
        s = int(rng.integers(1, t_horizon // 2))
        t_hi = int(rng.integers(s, t_horizon))
        direct = float((np.arange(s, t_hi + 1, dtype=float) ** -gamma).sum())
        lo, hi = bounds.power_sum_bounds(s, t_hi, gamma)
        rec.check("power_sum_lower", lo, direct, tol, lambda: {"gamma": gamma, "s": s, "t": t_hi})
        rec.check("power_sum_upper", direct, hi, tol, lambda: {"gamma": gamma, "s": s, "t": t_hi})

        c_a = float(rng.uniform(0.05, 0.95))
        g_a = float(rng.uniform(0.05, 0.95))
        a_seq = c_a / ts ** g_a
        if rng.integers(2):
            b_seq = float(rng.uniform(0.1, 3.0)) / ts ** float(rng.uniform(0.0, 1.5))
        else:
            b_seq = np.sort(rng.random(t_horizon))[::-1]
        (lhs,), (rhs,) = bounds.decaying_sum_check(a_seq[None], b_seq[None], t_horizon)
        rec.check("decaying_sum", lhs, rhs, tol, lambda: {"c_a": c_a, "gamma_a": g_a})

        c_big = float(rng.uniform(0.1, 3.0))
        g_big = float(rng.uniform(0.0, 1.5))
        a_big = c_big / ts ** g_big
        alpha = c_a / ts ** float(rng.uniform(0.05, 1.0))
        (coeffs,) = bounds.recursion_coefficients(a_big[None], alpha[None], verify_tol=tol)
        rec.require("recursion_coefficients_growth",
                    np.isfinite((np.abs(coeffs) * ts ** g_big).max()),
                    lambda: {"c_A": c_big, "gamma_A": g_big})

        z0 = float(rng.uniform(0.0, 2.0))
        a_rec = rng.uniform(0.01, 0.99, t_horizon)
        c_rec = rng.uniform(0.0, 1.0, t_horizon)
        (closed,) = bounds.unroll_recursion(z0, a_rec[None], c_rec[None])
        z = z0
        ok = True
        for n_ in range(t_horizon):  # exact iterate must match the closed form
            z = z * (1.0 - a_rec[n_]) + c_rec[n_]
            if abs(z - closed[n_]) > tol * (1.0 + abs(z)):
                ok = False
                break
        rec.require("recursion_unroll_identity", ok, lambda: {"z0": z0})
        slackened = z0
        ok = True
        for n_ in range(t_horizon):  # <= version stays below the closed form
            slackened = slackened * (1.0 - a_rec[n_]) + c_rec[n_] * 0.7
            if slackened > closed[n_] + tol:
                ok = False
                break
        rec.require("recursion_unroll_dominates", ok, lambda: {"z0": z0})

        beta = float(rng.uniform(0.1, 0.9))
        alpha_z = rng.uniform(0.01, 0.5, t_horizon)
        c_z = rng.uniform(0.0, 0.5, t_horizon)
        (tilde,) = bounds.dominating_sequence(z0, alpha_z[None], beta, c_z[None])
        w = z0
        z_prev = z0
        ok = True
        for k in range(t_horizon):
            w = (1.0 - alpha_z[k]) * w + alpha_z[k] * beta * z_prev + c_z[k]
            z_t = w if rng.integers(4) == 0 else float(rng.random()) * w
            if z_t > tilde[k] + tol:
                ok = False
                break
            z_prev = z_t
        rec.require("dominating_sequence", ok, lambda: {"beta": beta, "z0": z0})
    return rec.report()


@pytest.mark.parametrize("master_seed", [verify.DEFAULT_MASTER_SEED, 7, 11])
def test_stacked_lemmas_equals_per_case_loop(monkeypatch, master_seed):
    checks = _log_checks(monkeypatch)
    report, stacked = canonical_json(verify.suite_lemmas(40, master_seed=master_seed)), checks.copy()
    checks.clear()
    assert report == canonical_json(_per_case_lemmas(40, master_seed))
    assert stacked == checks
    assert len(checks) == 40 * 7


@pytest.mark.parametrize("oracle, mutate, caught", [
    ("dominating_sequence", lambda out: 0.5 * out, "dominating_sequence"),
    ("unroll_recursion", lambda out: out + 1e-6, "recursion_unroll_identity"),
], ids=["dominating_sequence-halved", "unroll_recursion-shifted"])
def test_lemmas_suite_catches_a_mutated_oracle(monkeypatch, oracle, mutate, caught):
    true_oracle = getattr(bounds, oracle)
    monkeypatch.setattr(bounds, oracle, lambda *args: mutate(true_oracle(*args)))
    report = verify.suite_lemmas(n_cases=5)
    assert not report["pass"]
    assert report["violations"][0]["check"] == caught


@pytest.mark.parametrize("master_seed", [verify.DEFAULT_MASTER_SEED, 7, 11])
def test_stacked_fixed_point_suites_equal_per_case_loops(monkeypatch, master_seed):
    checks = _log_checks(monkeypatch)
    for suite, per_case in [(lambda: verify.suite_lipschitz(90, 12, master_seed=master_seed),
                             lambda: _per_case_lipschitz(90, 12, master_seed)),
                            (lambda: verify.suite_restart(60, master_seed=master_seed),
                             lambda: _per_case_restart(60, master_seed))]:
        report, stacked = canonical_json(suite()), checks.copy()
        checks.clear()
        assert report == canonical_json(per_case())
        assert stacked == checks
        checks.clear()


def test_lipschitz_suite_checks_each_matrix_size_in_one_call(monkeypatch):
    calls, real = [], dp.check_lipschitz
    monkeypatch.setattr(dp, "check_lipschitz",
                        lambda p, *a: calls.append((a[-1], p.shape)) or real(p, *a))
    assert verify.suite_lipschitz(n_reward_cases=30, n_q_cases=40)["pass"]
    sizes = [shape for n_actions, shape in calls if n_actions == 2]  # the Q cases'
    assert sorted(shape[1] for shape in sizes) == [4, 6]  # 2 or 3 states, 2 actions
    assert sum(shape[0] for shape in sizes) == 40


def test_restart_suite_detects_corrupted_rho(monkeypatch):
    true_rhos = chains.ergodicity_coefficients
    monkeypatch.setattr(chains, "ergodicity_coefficients", lambda mats: 2.0 * true_rhos(mats))
    report = verify.suite_restart(n_cases=50)
    assert not report["pass"]
    first = report["violations"][0]
    assert first["check"] == "restart_rho_cap"
    inputs = first["inputs"]  # reproduces the case through the check at k = 1
    _, _, (rho,), (rho_bound,) = (side.tolist() for side in dp.check_restart_identities(
        *(np.array([inputs[key]]) for key in ("p", "r", "beta", "beta_hat", "x_restart"))))
    assert not rho <= rho_bound + 1e-12
    assert (rho, rho_bound) == (first["lhs"], first["rhs"])


def test_verify_builds_counterexample_inputs_only_on_a_violation():
    built = []
    rec = verify._Recorder("demo", 0)
    rec.check("a", 1.0, 2.0, 0.0, lambda: built.append("a") or {"x": 1})
    rec.require("b", True, lambda: built.append("b") or {"x": 2})
    rec.check("c", 3.0, 2.0, 0.0, lambda: built.append("c") or {"x": 3})
    rec.require("d", False, lambda: built.append("d") or {"x": 4})
    assert built == ["c", "d"]
    assert [v["inputs"] for v in rec.report()["violations"]] == [{"x": 3}, {"x": 4}]


def test_verify_report_keeps_worst_margin_per_check():
    rec = verify._Recorder("demo", 0)
    for name, lhs, rhs in [("a", 1.0, 2.0), ("b", 1.0, 1.5), ("a", 1.0, 1.25)]:
        rec.check(name, lhs, rhs, 0.0)
    rec.require("c", True)  # a boolean check has no margin
    report = rec.report()
    assert report["worst_margin_by_check"] == {"a": 0.25, "b": 0.5}
    assert report["worst_margin"] == 0.25

    lip = verify.suite_lipschitz(n_reward_cases=30, n_q_cases=6)
    by_check = lip["worst_margin_by_check"]
    assert set(by_check) == {"reward_lipschitz", "q_lipschitz"}
    assert min(by_check.values()) == lip["worst_margin"]


def test_cli_bound_matches_regime(capsys):
    rc = cli_main(["bound", "--gamma-p", "0.3", "--gamma-alpha", "0.6",
                   "--gamma-pi", "0", "--T", "1000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "diabatic"
    assert doc["spec_version"] == __version__


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
    assert doc["spec_version"] == __version__

    rc = cli_main(["track", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out2")])
    assert rc == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, "schedule": {
        "kind": "constant", "n": 2, "p": [[0.9, 0.1], [0.2, 0.8]],
        "params": {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.9, "gamma_pi": 0.0}}}))
    rc = cli_main(["track", "--config", str(bad), "--out", str(tmp_path / "out3")])
    assert rc == 2


@pytest.mark.parametrize("p", [[[0.99, 0.01], [0.01, 0.99]], [[0, 1], [1, 0]]],
                         ids=["rho-0.98", "periodic"])
def test_cli_track_slow_mixing_chain_runs_with_a_null_bound(tmp_path, capsys, p):
    # rho_cap near 1 sends ada1's exp out of the floats: the run still completes
    cfg = {**BASE_CONFIG, "schedule": {"kind": "constant", "n": 2, "p": p}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bound_report"] is None and summary["regime"] == "adiabatic"
    chash = summary["config_hash"]
    with open(out / f"summary_{chash}.json") as fh:
        assert json.load(fh) == summary
    assert sorted(os.listdir(out)) == sorted([f"summary_{chash}.json"] + [
        f"{chash}_{seed}.csv" for seed in range(101, 105)])


def test_cli_track_overflowing_bound_runs_with_a_null_bound(tmp_path, capsys):
    # rewards of 1e300 send ada4's products out of the floats: the bound is
    # null, the summary strict JSON and every seed's CSV written
    cfg = {**BASE_CONFIG, "reward": {"r": [1e300, -1e300], "beta": 0.999999}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bound_report"] is None
    chash = summary["config_hash"]
    with open(out / f"summary_{chash}.json") as fh:
        assert json.loads(fh.read(), parse_constant=pytest.fail) == summary
    assert sorted(os.listdir(out)) == sorted([f"summary_{chash}.json"] + [
        f"{chash}_{seed}.csv" for seed in range(101, 105)])


@pytest.mark.parametrize("exponent", ["gamma_p", "gamma_pi"])
def test_cli_track_nan_exponent_is_config_error(tmp_path, capsys, exponent):
    params = {**ACCEPTANCE_ANCHORS["params"], exponent: "nan"}
    cfg = {**BASE_CONFIG, "t_max": 200, "schedule": {**ACCEPTANCE_ANCHORS, "params": params}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli_main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: drift exponents must be non-negative\n"
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("kind, eps_max", [
    pytest.param("uniform-iid", "nan", id="uniform-iid"),
    pytest.param("zero", "nan", id="zero"),
    # an infinite envelope would pass a non-negativity check, then fail its draws
    pytest.param("uniform-iid", "inf", id="uniform-iid-inf"),
])
def test_cli_track_nan_eps_max_is_config_error(tmp_path, capsys, kind, eps_max):
    cfg = {**BASE_CONFIG, "t_max": 200, "noise": {"kind": kind, "eps_max": eps_max}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli_main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ("config error: eps_max must be finite and "
                                                   f"non-negative, got {eps_max}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, named", [
    ("--gamma-p", "gamma_p must be non-negative (inf allowed)"),
    ("--gamma-pi", "gamma_pi must be non-negative"),
], ids=["gamma-p", "gamma-pi"])
def test_cli_bound_nan_exponent_is_config_error(capsys, flag, named):
    args = {"--gamma-p": "1.0", "--gamma-alpha": "0.6", "--gamma-pi": "0", "--T": "1000",
            flag: "nan"}
    rc = cli_main(["bound", *(word for item in args.items() for word in item)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {named}\n"


def test_cli_verify_exit_codes(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "coverage",
                        lambda master_seed: {"pass": True, "suite": "coverage"})
    assert cli_main(["verify", "--suite", "coverage"]) == 0
    monkeypatch.setitem(verify.SUITES, "coverage",
                        lambda master_seed: {"pass": False, "suite": "coverage"})
    assert cli_main(["verify", "--suite", "coverage"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["prop1", "thm1"])
def test_cli_verify_negative_master_seed_is_usage_error(capsys, suite):
    # argparse rejects it (exit 2) before a suite draws, not a stream's ValueError (exit 1)
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "--suite", suite, "--master-seed", "-1"])
    assert exc.value.code == 2
    assert "--master-seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err


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


def test_cli_sweep_failed_certificate_is_config_error(tmp_path, capsys):
    # the cell's declared floor c_pi = 0.9 fails verify_drift at t = 1, as in track
    cfg = {**BASE_CONFIG, "t_max": 200,
           "schedule": {**ACCEPTANCE_ANCHORS,
                        "params": {**ACCEPTANCE_ANCHORS["params"], "c_pi": 0.9}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "grid.json").write_text(json.dumps({"gamma_p": [1.0],
                                                    "gamma_alpha": [0.6]}))
    rc = cli_main(["sweep", "--grid", str(tmp_path / "grid.json"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "pi floor c_pi violated at t=1" in err
    # a shrinking base whose own params break its construction scan stops the sweep too
    shrinking = {"kind": "shrinking-state", "params": {**SHRINK_PARAMS, "c_p": 0.01,
                                                       "gamma_pi": 0.5}}
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "schedule": shrinking}))
    rc = cli_main(["sweep", "--grid", str(tmp_path / "grid.json"),
                   "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == 2 and capsys.readouterr().err == (
        "schedule certificate failed, no trace written: drift c_p violated at t=1: "
        "observed 0.08528433037009236 vs allowed 0.01\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drop", ["schedule", "reward", "rate", "seeds"])
def test_cli_track_config_missing_field_is_config_error(tmp_path, capsys, drop):
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != drop}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = cli_main(["track", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: config lacks ['{drop}']\n"


@pytest.mark.parametrize("consts, named", [
    pytest.param({"r_max_eff": 1.0, "rho": 0.5}, "bound constants lacks ['beta']",
                 id="consts0-missing keys ['beta']"),
    pytest.param({"r_max_eff": 1.0, "rho": 0.5, "beta": 0.5, "c_alpha": 0.5},
                 "unknown bound constants fields: ['c_alpha']",
                 id="consts1-unknown keys ['c_alpha']"),
    ({"r_max_eff": 1.0, "rho": 0.5, "beta": None}, "beta must be a number, got None"),
    ([0.5], "bound constants must be an object, got [0.5]"),
])
def test_cli_bound_malformed_constants_is_config_error(tmp_path, capsys, consts, named):
    (tmp_path / "consts.json").write_text(json.dumps(consts))
    rc = cli_main(["bound", "--constants", str(tmp_path / "consts.json"),
                   "--gamma-p", "1.0", "--gamma-alpha", "0.6", "--gamma-pi", "0",
                   "--T", "1000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("change, named", [
    pytest.param({"r_max_eff": "nan"}, "r_max_eff must be finite and non-negative, got nan",
                 id="r_max_eff-nan"),
    pytest.param({"d_a": "inf"}, "d_a must be finite and non-negative, got inf", id="d_a-inf"),
    pytest.param({"r_max_eff": -1.0}, "r_max_eff must be finite and non-negative, got -1.0",
                 id="r_max_eff-negative"),
    pytest.param({"d_b": -0.5}, "d_b must be finite and non-negative, got -0.5", id="d_b-negative"),
    pytest.param({"d_b_prime": "-inf"}, "d_b_prime must be finite and non-negative, got -inf",
                 id="d_b_prime-minus-inf"),
    pytest.param({"k": "nan"}, "k must be finite and non-negative, got nan", id="k-nan"),
    pytest.param({"tau_coeff": -4.0}, "tau_coeff must be finite and positive, got -4.0",
                 id="tau_coeff-negative"),
    # finite constants whose bound leaves the floats: refused, not printed as Infinity
    pytest.param({"tau_coeff": 1e6}, "the bound overflows at these constants",
                 id="tau_coeff-1e6-overflows"),
    pytest.param({"r_max_eff": 1e308},
                 "the bound overflows at these constants (ada1, ada4, total not finite)",
                 id="r_max_eff-1e308-inf-terms"),
])
def test_cli_bound_refuses_constants_it_cannot_trust(tmp_path, capsys, change, named):
    consts = {"r_max_eff": 1.0, "rho": 0.5, "beta": 0.5, **change}
    (tmp_path / "consts.json").write_text(json.dumps(consts))
    rc = cli_main(["bound", "--constants", str(tmp_path / "consts.json"),
                   "--gamma-p", "1.0", "--gamma-alpha", "0.6", "--gamma-pi", "0",
                   "--T", "1000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and named in captured.err


def _no_walk(schedule, t_max):
    raise AssertionError("the walk was started")


# a horizon, seed or exponent beyond what the floats hold exactly or finitely, and a seeds
# count above its bound, are refused before any seed list is built or walk starts
BOUND_ROWS = [
    pytest.param({"t_max": 1e300}, "t_max must lie in [2, 2**53)", id="t_max-1e300"),
    pytest.param({"t_max": 2**53 + 1}, "t_max must lie in [2, 2**53)", id="t_max-2**53+1"),
    pytest.param({"t_max": 2**53}, "t_max must lie in [2, 2**53)", id="t_max-2**53"),
    pytest.param({"seeds": {"base": 0, "count": ExperimentConfig.SEED_COUNT_MAX + 1}},
                 f"seeds count must be at most {ExperimentConfig.SEED_COUNT_MAX}, got "
                 f"{ExperimentConfig.SEED_COUNT_MAX + 1}", id="seeds-count-bound+1"),
    pytest.param({"seeds": {"base": 10**300, "count": 2}},
                 f"seeds[0] must be below 2**64, got {10**300}", id="seeds-base-1e300"),
    pytest.param({"seeds": [2**64 - 1, 2**64]}, f"seeds[1] must be below 2**64, got {2**64}",
                 id="seeds-2**64"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "params": {**ACCEPTANCE_ANCHORS["params"],
                                                                "gamma_p": 1e300}}},
                 "a finite drift exponent must be at most 19", id="gamma_p-1e300"),
]


# Each config fails inside the CLI's run body: in ExperimentConfig.from_dict or later.
ROW_SUM_1_1 = {"kind": "constant", "n": 2, "p": [[0.5, 0.6], [0.2, 0.8]],
               "params": {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.1, "gamma_pi": 0.0}}


@pytest.mark.parametrize("change, named", [
    ({"schedule": ROW_SUM_1_1}, "row 0 sums to"),
    ({"reward": {"r": [1.0, 0.0], "beta": 1.5}}, "beta must lie strictly in (0,1)"),
    ({"x0": 5}, "x0=5 out of range"),
    ({"reward": {"r": [1.0, 0.0], "beta": None}}, "beta must be a number, got None"),
    ({"rate": {"c_alpha": None, "gamma_alpha": 0.6}}, "c_alpha must be a number, got None"),
    ({"t_max": None}, "t_max must be an integer, got None"),
    ({"x0": None}, "x0 must be an integer, got None"),
    ({"seeds": [101, None]}, "seeds[1] must be an integer, got None"),
    ({"checkpoints": {"per_decade": 2.5}}, "per_decade must be an integer, got 2.5"),
    ({"learner": "q", "n_actions": 0}, "n_actions must be >= 1, got 0"),
    ({"learner": "q", "n_actions": -1}, "n_actions must be >= 1, got -1"),
    ({"seeds": [1, 1]}, "seeds must be distinct, got [1, 1]"),
    ({"seeds": 5}, "seeds must be a list, got 5"),
    ({"checkpoints": 7}, "checkpoints must be a list, got 7"),
    ({"rate": [0.5]}, "rate must be an object, got [0.5]"),
    ({"schedule": "constant"}, "schedule must be an object, got 'constant'"),
    ({"schedule": {**ACCEPTANCE_ANCHORS, "params": None}}, "params must be an object, got None"),
    ({"seeds": [-1]}, "seeds[0] must be non-negative, got -1"),
    ({"schedule": {"kind": "cyclic", "n": 2, "params": {**ACCEPTANCE_ANCHORS["params"],
                                                        "gamma_p": 0.3}, "mats": 5}},
     "mats must be a list, got 5"),
    ({"schedule": {"kind": "restart-wrapped", "n": 2, "inner": ACCEPTANCE_ANCHORS,
                   "params": ACCEPTANCE_ANCHORS["params"], "beta": 0.5, "beta_hat": 0.8,
                   "x_restart": None}}, "x_restart must be an integer, got None"),
    ({"checkpoints": [10**7]}, "checkpoint grid is empty within [1, t_max]"),
    ({"schedule": {**BASE_CONFIG["schedule"], "n": 7}}, "schedule spec n=7 vs its 2-state"),
    ({"rate": {"c_alpha": 1.5, "gamma_alpha": 0.6}}, "c_alpha must lie in (0, 1)"),
    ({"reward": {"r": [1.0, 0.0, 0.5], "beta": 0.5}}, "vs rewards n=3"),
    ({"x0": True}, "x0 must be an integer, got True"),  # JSON booleans are not 1 and 0
    ({"seeds": [True, False]}, "seeds[0] must be an integer, got True"),
    ({"n_actions": True}, "n_actions must be an integer, got True"),
    ({"rate": {"c_alpha": 0.5, "gamma_alpha": True}}, "gamma_alpha must be a number, got True"),
    # entries of arrays are JSON numbers too: not booleans, not strings
    ({"reward": {"r": [True, False], "beta": 0.5}}, "r[0] must be a number, got True"),
    ({"reward": {"r": ["1", "0"], "beta": 0.5}}, "r[0] must be a number, got '1'"),
    ({"schedule": {**BASE_CONFIG["schedule"], "p": [[0.5, 0.5], [True, False]]}},
     "p[1][0] must be a number, got True"),
    ({"schedule": {**BASE_CONFIG["schedule"], "p": [["0.9", "0.1"], [0.2, 0.8]]}},
     "p[0][0] must be a number, got '0.9'"),
    ({"schedule": {**ACCEPTANCE_ANCHORS, "p_start": [[0.9, 0.1], [0.2, True]]}},
     "p_start[1][1] must be a number, got True"),
    ({"schedule": {**ACCEPTANCE_ANCHORS, "p_end": [["0.1", 0.9], [0.8, 0.2]]}},
     "p_end[0][0] must be a number, got '0.1'"),
    ({"schedule": {"kind": "cyclic", "n": 2, "params": {**ACCEPTANCE_ANCHORS["params"],
                                                        "gamma_p": 0.3},
                   "mats": [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [False, True]]]}},
     "mats[1][1][0] must be a number, got False"),
    # nested objects refuse keys they do not read, as the top level does
    pytest.param({"schedule": {**BASE_CONFIG["schedule"], "parms": {
        "c_p": 1.0, "gamma_p": "inf", "c_pi": 0.1, "gamma_pi": 0.0}}},
                 "unknown constant schedule spec fields: ['parms']",
                 id="change35-unknown schedule fields: ['parms']"),
    ({"schedule": {**ACCEPTANCE_ANCHORS,
                   "params": {**ACCEPTANCE_ANCHORS["params"], "c_pii": 0.1}}},
     "unknown params fields: ['c_pii']"),
    ({"reward": {"r": [1.0, 0.0], "beta": 0.5, "bta": 0.9}}, "unknown reward fields: ['bta']"),
    ({"rate": {"c_alpha": 0.5, "gamma_alpha": 0.6, "gama_alpha": 0.8}},
     "unknown rate fields: ['gama_alpha']"),
    ({"noise": {"kind": "zero", "eps": 0.1}}, "unknown noise fields: ['eps']"),
    # matrices enter through a schedule's anchors, validated there
    ({"schedule": {**BASE_CONFIG["schedule"], "p": [[0.5, 0.5]]}},
     "expected square matrix, got shape (1, 2)"),
    ({"schedule": {"kind": "cyclic", "n": 2, "params": {**ACCEPTANCE_ANCHORS["params"],
                                                        "gamma_p": 0.3},
                   "mats": [[[0.9, 0.1], [0.2, 0.8]],
                            [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]]}},
     "anchor matrices must share a dimension"),
    # seeds and checkpoints objects refuse keys they do not read
    ({"seeds": {"base": 1, "count": 2, "cuont": 5}}, "unknown seeds fields: ['cuont']"),
    ({"checkpoints": {"per_decade": 8, "per_decde": 2}},
     "unknown checkpoints fields: ['per_decde']"),
    ({"checkpoints": {"per_decade": 0}}, "per_decade must be >= 1, got 0"),
    ({"checkpoints": {"per_decade": -5}}, "per_decade must be >= 1, got -5"),
    # a spec without a kind names the missing kind
    ({"schedule": {"n": 2, "p": [[0.9, 0.1], [0.2, 0.8]]}}, "unknown schedule kind None"),
    # the standing assumption is a cell's config alone: refused before any walk
    ({"schedule": {**ACCEPTANCE_ANCHORS,
                   "params": {**ACCEPTANCE_ANCHORS["params"], "gamma_pi": 0.5}}},
     "need gamma_alpha + gamma_pi < 1"),
    # the draws span [-eps_max, eps_max]: a span beyond the floats is refused up front
    ({"noise": {"kind": "uniform-iid", "eps_max": 1e308}},
     "eps_max=1e+308 spans more than the floats hold"),
    # zero noise draws nothing, so an envelope it declares would go unused
    ({"noise": {"kind": "zero", "eps_max": 0.5}}, "zero noise needs eps_max = 0, got 0.5"),
    # TD(0) learns on states alone: an action count would only move the hash
    ({"n_actions": 2}, "n_actions=2 needs learner 'q', not 'td0'"),
    # more grid points than 10 * t_max: refused before the grid is allocated, and before
    # an int beyond the floats overflows (last, so that the ids of the rows above stay)
    ({"checkpoints": {"per_decade": 10**12}},
     "per_decade=1000000000000 asks for more than 10 * t_max = 2000 grid points"),
    ({"checkpoints": {"per_decade": 10**400}}, "asks for more than 10 * t_max = 2000 grid points"),
    # a given grid, even an empty or null one, is never replaced by the default one
    ({"checkpoints": []}, "checkpoint grid is empty within [1, t_max]"),
    ({"checkpoints": None}, "checkpoints must be a list, got None"),
    *BOUND_ROWS,
])
def test_cli_track_invalid_config_in_run_is_config_error(tmp_path, capsys, monkeypatch, change,
                                                         named):
    monkeypatch.setattr(learners, "materialize", _no_walk)
    (tmp_path / "cfg.json").write_text(json.dumps({**BASE_CONFIG, "t_max": 200, **change}))
    rc = cli_main(["track", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists()


SWEEP_GRID = {"gamma_p": [1.0], "gamma_alpha": [0.6]}


@pytest.mark.parametrize("change, grid, named", [
    pytest.param({"reward": {"r": [1.0, 0.0], "beta": 1.5}}, SWEEP_GRID,
                 "beta must lie strictly in (0,1)", id="reward0-beta must lie strictly in (0,1)"),
    pytest.param({"reward": {"r": [1.0, 0.0, 0.5], "beta": 0.5}}, SWEEP_GRID, "vs rewards n=3",
                 id="reward1-vs rewards n=3"),
    pytest.param({}, {**SWEEP_GRID, "gamma_p": [None]},
                 "gamma_p[0] must be a number, got None", id="grid-gamma_p-null"),
    pytest.param({}, {**SWEEP_GRID, "gamma_pi": [0.0, None]},
                 "gamma_pi[1] must be a number, got None", id="grid-gamma_pi-null"),
    pytest.param({}, [1, 2], "grid must be an object, got [1, 2]", id="grid-not-an-object"),
    pytest.param({}, {**SWEEP_GRID, "gamma_p": 1.0}, "gamma_p must be a list, got 1.0",
                 id="grid-gamma_p-not-a-list"),
    pytest.param({}, {**SWEEP_GRID, "gamma_pi": None}, "gamma_pi must be a list, got None",
                 id="grid-gamma_pi-list-null"),
    pytest.param({"rate": {"c_alpha": 1.5, "gamma_alpha": 0.6}}, SWEEP_GRID,
                 "c_alpha must lie in (0, 1)", id="rate-c_alpha-1.5"),
    pytest.param({"x0": 5}, SWEEP_GRID, "x0=5 out of range", id="x0-5"),
    pytest.param({"checkpoints": [10**7]}, SWEEP_GRID,
                 "checkpoint grid is empty within [1, t_max]", id="checkpoints-1e7"),
    pytest.param({"schedule": {"kind": "cyclic", "n": 2, "params": {
        **ACCEPTANCE_ANCHORS["params"], "gamma_p": 0.3}, "mats": 5}}, SWEEP_GRID,
                 "mats must be a list, got 5", id="schedule-mats-5"),
    pytest.param({"x0": True}, SWEEP_GRID, "x0 must be an integer, got True", id="x0-true"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS,
                               "params": {**ACCEPTANCE_ANCHORS["params"], "c_pii": 0.1}}},
                 SWEEP_GRID, "unknown params fields: ['c_pii']", id="params-typo"),
    pytest.param({"reward": {"r": [1.0, "0"], "beta": 0.5}}, SWEEP_GRID,
                 "r[1] must be a number, got '0'", id="reward-string-entry"),
    # the cells copy only n, the anchors and params: any other base key is refused
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "p_ende": [[0.5, 0.5], [0.5, 0.5]]}},
                 SWEEP_GRID, "unknown interpolation schedule spec fields: ['p_ende']",
                 id="schedule-p_ende"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "kind": "mystery"}}, SWEEP_GRID,
                 "unknown schedule kind 'mystery'", id="schedule-kind-mystery"),
    # the base's anchors and params are read and checked as track reads them,
    # before any cell, not left for each cell to skip on
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "p_start": [[0.9, "0.1"], [0.2, 0.8]]}},
                 SWEEP_GRID, "p_start[0][1] must be a number, got '0.1'",
                 id="schedule-p_start-string-entry"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "p_end": [[0.2, 0.9], [0.8, 0.2]]}},
                 SWEEP_GRID, "row 0 sums to 1.1, not 1", id="schedule-p_end-row-sum-1.1"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "p_start": [[1.0, 0.0], [0.2, 0.8]]}},
                 SWEEP_GRID, "anchor matrix 0 is reducible", id="schedule-p_start-reducible"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS, "p_end": [[0.1, 0.9]]}},
                 {**SWEEP_GRID, "gamma_p": [1.0, "inf"]},
                 "expected square matrix, got shape (1, 2)", id="schedule-p_end-non-square"),
    pytest.param({"schedule": {**ACCEPTANCE_ANCHORS,
                               "params": {**ACCEPTANCE_ANCHORS["params"], "c_p": -1}}},
                 SWEEP_GRID, "c_p must be positive", id="params-c_p-negative"),
    # params are optional for a constant spec under track, but every cell reads them
    pytest.param({"schedule": BASE_CONFIG["schedule"]}, SWEEP_GRID,
                 "constant schedule spec lacks ['params']", id="constant-base-without-params"),
    # the base is built as track builds it: a base its own family refuses stops the sweep
    pytest.param({"schedule": {"kind": "restart-wrapped", "n": 2,
                               "inner": {**ACCEPTANCE_ANCHORS, "kind": "x"},
                               "params": ACCEPTANCE_ANCHORS["params"], "beta": 0.5,
                               "beta_hat": 0.8, "x_restart": 0}}, SWEEP_GRID,
                 "unknown schedule kind 'x'", id="restart-wrapped-base-inner-kind-x"),
    pytest.param({"schedule": {"kind": "cyclic", "n": 2,
                               "params": {**ACCEPTANCE_ANCHORS["params"], "gamma_p": 1.0},
                               "mats": [ACCEPTANCE_ANCHORS["p_start"],
                                        ACCEPTANCE_ANCHORS["p_end"]]}}, SWEEP_GRID,
                 "cyclic schedule needs gamma_p in (0, 1)", id="cyclic-base-gamma_p-1.0"),
    *(pytest.param(row.values[0], SWEEP_GRID, row.values[1], id=row.id) for row in BOUND_ROWS),
    # the grid refuses keys it does not read, and names a missing axis
    pytest.param({}, {**SWEEP_GRID, "gama_pi": [0.5]}, "unknown grid fields: ['gama_pi']",
                 id="grid-gama_pi-typo"),
    pytest.param({}, {"gamma_alpha": [0.6]}, "grid lacks ['gamma_p']", id="grid-without-gamma_p"),
    pytest.param({}, {"gamma_p": [1.0]}, "grid lacks ['gamma_alpha']",
                 id="grid-without-gamma_alpha"),
    # a value listed twice would run its cell twice; an empty axis runs no cell
    pytest.param({}, {**SWEEP_GRID, "gamma_p": [1.0, "inf", 1]},
                 "grid axis gamma_p lists 1.0 more than once", id="grid-gamma_p-twice"),
    pytest.param({}, {**SWEEP_GRID, "gamma_alpha": [0.6, 0.8, 0.6]},
                 "grid axis gamma_alpha lists 0.6 more than once", id="grid-gamma_alpha-twice"),
    pytest.param({}, {**SWEEP_GRID, "gamma_pi": [0.0, 0.0]},
                 "grid axis gamma_pi lists 0.0 more than once", id="grid-gamma_pi-twice"),
    pytest.param({}, {**SWEEP_GRID, "gamma_p": []}, "grid axis gamma_p is empty",
                 id="grid-gamma_p-empty"),
    pytest.param({}, {**SWEEP_GRID, "gamma_alpha": []}, "grid axis gamma_alpha is empty",
                 id="grid-gamma_alpha-empty"),
    pytest.param({}, {**SWEEP_GRID, "gamma_pi": []}, "grid axis gamma_pi is empty",
                 id="grid-gamma_pi-empty"),
])
def test_cli_sweep_invalid_config_in_run_is_config_error(tmp_path, capsys, monkeypatch, change,
                                                         grid, named):
    monkeypatch.setattr(learners, "materialize", _no_walk)
    cfg = {**BASE_CONFIG, "t_max": 200, "schedule": ACCEPTANCE_ANCHORS, **change}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    rc = cli_main(["sweep", "--grid", str(tmp_path / "grid.json"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists()


CYCLIC_ANCHORS = {"kind": "cyclic", "n": 2,
                  "params": {**ACCEPTANCE_ANCHORS["params"], "gamma_p": 0.3},
                  "mats": [ACCEPTANCE_ANCHORS["p_start"], ACCEPTANCE_ANCHORS["p_end"]]}


@pytest.mark.parametrize("command", ["track", "sweep"])
@pytest.mark.parametrize("schedule, drop", [
    (ACCEPTANCE_ANCHORS, "params"),
    (BASE_CONFIG["schedule"], "p"),
    (ACCEPTANCE_ANCHORS, "p_start"),
    (ACCEPTANCE_ANCHORS, "p_end"),
    (CYCLIC_ANCHORS, "mats"),
], ids=["params", "p", "p_start", "p_end", "mats"])
def test_cli_spec_missing_a_required_key_is_config_error(tmp_path, capsys, command, schedule,
                                                         drop):
    # the error names the missing field and the schedule kind, not a bare KeyError
    spec = {k: v for k, v in schedule.items() if k != drop}
    (tmp_path / "cfg.json").write_text(json.dumps({**BASE_CONFIG, "t_max": 200,
                                                   "schedule": spec}))
    (tmp_path / "grid.json").write_text(json.dumps(SWEEP_GRID))
    args = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    args += ["--grid", str(tmp_path / "grid.json")] if command == "sweep" else []
    assert cli_main(args) == 2
    assert capsys.readouterr().err == (f"config error: {schedule['kind']} schedule spec "
                                       f"lacks ['{drop}']\n")
    assert not (tmp_path / "out").exists()


CORPUS_CONFIG = {**BASE_CONFIG, "t_max": 200, "schedule": ACCEPTANCE_ANCHORS,
                 "noise": {"kind": "uniform-iid", "eps_max": 0.1},
                 "seeds": {"base": 101, "count": 2}, "checkpoints": {"per_decade": 2}}
CORPUS_CONSTANTS = {"r_max_eff": 1.0, "rho": 0.5, "beta": 0.5}

# every JSON object a command reads: its name in messages, the commands that
# read it, where it sits (a file, then the keys down to it) and its required keys
JSON_OBJECTS = [
    ("config", ("track", "sweep"), ("config",), ["schedule", "reward", "rate"]),
    ("interpolation schedule spec", ("track", "sweep"), ("config", "schedule"),
     ["params", "p_start", "p_end"]),
    ("params", ("track", "sweep"), ("config", "schedule", "params"),
     ["c_p", "gamma_p", "c_pi", "gamma_pi"]),
    ("reward", ("track", "sweep"), ("config", "reward"), ["r", "beta"]),
    ("rate", ("track", "sweep"), ("config", "rate"), ["c_alpha", "gamma_alpha"]),
    ("noise", ("track", "sweep"), ("config", "noise"), ["kind"]),
    ("seeds", ("track", "sweep"), ("config", "seeds"), ["base", "count"]),
    ("checkpoints", ("track", "sweep"), ("config", "checkpoints"), ["per_decade"]),
    ("grid", ("sweep",), ("grid",), ["gamma_p", "gamma_alpha"]),
    ("bound constants", ("bound",), ("constants",), ["r_max_eff", "rho", "beta"]),
]


def _corpus_cases():
    for name, commands, path, required in JSON_OBJECTS:
        where = ".".join(path)
        for command in commands:
            for key in required:
                if (command, name, key) != ("sweep", "rate", "gamma_alpha"):  # the grid sets it
                    yield pytest.param(command, path, key, f"{name} lacks ['{key}']",
                                       id=f"{command}-{where}-lacks-{key}")
            yield pytest.param(command, path, None, f"unknown {name} fields: ['zz']",
                               id=f"{command}-{where}-unknown-key")


@pytest.mark.parametrize("command, path, drop, named", list(_corpus_cases()))
def test_cli_json_object_names_a_lacking_or_unknown_key(tmp_path, capsys, command, path, drop,
                                                        named):
    docs = json.loads(json.dumps({"config": CORPUS_CONFIG, "grid": SWEEP_GRID,
                                  "constants": CORPUS_CONSTANTS}))  # a deep copy
    obj = docs
    for key in path:
        obj = obj[key]
    if drop:
        del obj[drop]
    else:
        obj["zz"] = 0
    for file, doc in docs.items():
        (tmp_path / f"{file}.json").write_text(json.dumps(doc))
    cfg, grid, consts = (str(tmp_path / f"{file}.json") for file in docs)
    out = ["--out", str(tmp_path / "out")]
    args = {"track": ["track", "--config", cfg, *out],
            "sweep": ["sweep", "--grid", grid, "--config", cfg, *out],
            "bound": ["bound", "--constants", consts, "--gamma-p", "1.0", "--gamma-alpha", "0.6",
                      "--gamma-pi", "0", "--T", "1000"]}[command]
    assert cli_main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["track", "sweep"])
@pytest.mark.parametrize("change, out, named", [
    ({"rate": {"c_alpha": 1.5, "gamma_alpha": 0.6}}, "out", "c_alpha must lie in (0, 1)"),
    ({"x0": 5}, "out", "x0=5 out of range"),
    ({"reward": {"r": [1.0, 0.0, 0.5], "beta": 0.5}}, "out", "vs rewards n=3"),
    ({"checkpoints": [10**7]}, "out", "checkpoint grid is empty within [1, t_max]"),
    ({"schedule": {**ACCEPTANCE_ANCHORS, "n": 7}}, "out", "schedule spec n=7 vs its 2-state"),
    ({}, "afile/out", "Not a directory"),
    # json.load reads an Infinity token, which the config hash cannot write back
    ({"rate": {"c_alpha": float("inf"), "gamma_alpha": 0.6}}, "out",
     'config holds NaN or Infinity, which JSON does not allow; an infinite exponent is '
     'written "inf"'),
    # a drift bound of inf, as a token or as a string, would certify any step
    ({"schedule": {**ACCEPTANCE_ANCHORS,
                   "params": {**ACCEPTANCE_ANCHORS["params"], "c_p": float("inf")}}}, "out",
     "c_p must be finite, got inf"),
    ({"schedule": {**ACCEPTANCE_ANCHORS, "params": {**ACCEPTANCE_ANCHORS["params"], "c_p": "inf"}}},
     "out", "c_p must be finite, got inf"),
], ids=["c_alpha-1.5", "x0-5", "reward-size-3", "checkpoints-1e7", "schedule-n-7",
        "out-under-a-file", "c_alpha-Infinity", "c_p-Infinity", "c_p-inf"])
def test_cli_config_error_raises_before_the_certificate_scan(tmp_path, capsys, monkeypatch,
                                                               command, change, out, named):
    def scan(schedule, t_max):
        raise AssertionError("the certificate scan was called")

    monkeypatch.setattr(schedules, "_certified_blocks", scan)
    (tmp_path / "grid.json").write_text(json.dumps(SWEEP_GRID))
    (tmp_path / "afile").write_text("")
    args = [command, "--config", str(tmp_path / "cfg.json")]
    args += ["--grid", str(tmp_path / "grid.json")] if command == "sweep" else []
    cfg = {**BASE_CONFIG, "t_max": 200, "schedule": ACCEPTANCE_ANCHORS}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with pytest.raises(AssertionError, match="the certificate scan was called"):
        cli_main(args + ["--out", str(tmp_path / "out")])  # the valid config reaches the scan
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, **change}))
    assert cli_main(args + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists() and (tmp_path / "afile").is_file()


HUGE = 10 ** 400  # a JSON integer no float holds
HUGE_CASES = [  # (id, config change, grid change, the key named)
    ("c_alpha", {"rate": {"c_alpha": HUGE, "gamma_alpha": 0.6}}, {}, "c_alpha"),
    ("c_p", {"schedule": {**ACCEPTANCE_ANCHORS,
                          "params": {**ACCEPTANCE_ANCHORS["params"], "c_p": HUGE}}}, {}, "c_p"),
    ("beta", {"reward": {"r": [1.0, 0.0], "beta": HUGE}}, {}, "beta"),
    ("reward-entry", {"reward": {"r": [HUGE, 0.0], "beta": 0.5}}, {}, "r[0]"),
    ("matrix-entry", {"schedule": {**ACCEPTANCE_ANCHORS, "p_end": [[0.1, 0.9], [0.8, HUGE]]}},
     {}, "p_end[1][1]"),
    ("t_max", {"t_max": HUGE}, {}, "t_max"),
    ("grid-value", {}, {"gamma_alpha": [HUGE]}, "gamma_alpha[0]"),  # read by sweep alone
]


@pytest.mark.parametrize("command, change, grid, named", [
    pytest.param(command, change, grid, named, id=f"{case}-{command}")
    for case, change, grid, named in HUGE_CASES for command in ("track", "sweep")
    if command == "sweep" or not grid])
def test_cli_refuses_a_number_beyond_the_floats_by_name(tmp_path, capsys, monkeypatch, command,
                                                         change, grid, named):
    def scan(schedule, t_max):
        raise AssertionError("the certificate scan was called")

    monkeypatch.setattr(schedules, "_certified_blocks", scan)
    cfg = {**BASE_CONFIG, "t_max": 200, "schedule": ACCEPTANCE_ANCHORS, **change}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "grid.json").write_text(json.dumps({**SWEEP_GRID, **grid}))
    args = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    assert cli_main(args + ["--grid", str(tmp_path / "grid.json")] * (command == "sweep")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"config error: {named} must fit a float, got an integer of 401 digits\n")
    assert not (tmp_path / "out").exists()


# a leaf's mutants: each t_max among them is <= 200 or refused by ExperimentConfig, and a
# seeds count takes the bound + 1 for 1e300 and HUGE, so a broken check cannot hang the suite
MUTANTS = [None, True, "x", -1, 0, 0.5, "inf", 1e300, HUGE, [], {}]


def _leaves(doc, path=()):
    """The path of every leaf of JSON doc: a value that is no object and no list."""
    if not isinstance(doc, (dict, list)):
        yield path
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from _leaves(value, (*path, key))


@given(st.data())
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_cli_mutated_configs_run_or_are_refused_whole(data):
    # one or two leaves of an acceptance config (at T = 200) and the separation grid
    # take a mutant: track and sweep each exit 0, or exit 2 with one line and no out
    # dir, never 1 or a traceback; sweep refuses a base that schedule_from_spec refuses
    name = data.draw(st.sampled_from(["static_td", "adiabatic", "diabatic", "static_q"]))
    docs = {"cfg": {**conftest.config_dict(name), "t_max": 200},
            "grid": conftest.config_dict("separation_grid")}
    for *parents, key in data.draw(st.lists(st.sampled_from(list(_leaves(docs))),
                                            min_size=1, max_size=2)):
        obj = docs
        for parent in parents:
            obj = obj[parent]
        obj[key] = data.draw(st.sampled_from(MUTANTS))
        if key == "count" and obj[key] in (1e300, HUGE):
            obj[key] = ExperimentConfig.SEED_COUNT_MAX + 1
    try:
        schedules.schedule_from_spec(docs["cfg"]["schedule"])
        base_refused = False
    except Exception:
        base_refused = True
    with tempfile.TemporaryDirectory() as tmp:
        for file, doc in docs.items():
            with open(os.path.join(tmp, f"{file}.json"), "w") as fh:
                json.dump(doc, fh)
        cfg, grid = (os.path.join(tmp, f"{file}.json") for file in docs)
        for command in ("track", "sweep"):
            out, err = os.path.join(tmp, f"out-{command}"), io.StringIO()
            args = [command, "--config", cfg, "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli_main(args + ["--grid", grid] * (command == "sweep"))
            if rc == 0 and not (command == "sweep" and base_refused):
                continue
            assert rc == 2, (command, docs)
            assert err.getvalue().startswith(("config error: ", "schedule certificate failed"))
            assert err.getvalue().count("\n") == 1 and not os.path.exists(out)
