"""Tests of the benchmark machinery on the real workloads.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

ORIGINALS = {(owner, name): owner.__dict__[name]
             for owner, name, *_ in tracer.TARGETS + tracer.COUNTED}

# Counts that must repeat exactly for one seed.
EXACT_COUNTS = (("calls", "schedules.walk"), ("calls", "chains.stationary"),
                ("calls", "chains.rho"), ("calls", "dp.target"),
                ("counts", "learners.steps"), ("counts", "dp.bellman_g"),
                ("counts", "dp.q_solves"), ("counts", "learners.materialize_bytes"))


def _traced_session(name, seed, work_dir):
    """One traced operation under a fresh tracer: (tracer, op record)."""
    wl = workloads.make(name, seed)
    t = tracer.Tracer()
    t.install()
    try:
        op = run.run_op(wl, work_dir, t)
    finally:
        t.remove()
    assert op["problem"] is None, op["problem"]
    return t, op


@pytest.fixture(scope="module", params=run.NAMES)
def two_sessions(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return [_traced_session(request.param, 3, work / f"session{k}") for k in range(2)]


def test_wrappers_restore_every_patched_callable(two_sessions):
    for (owner, name), original in ORIGINALS.items():
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} left patched"


def test_counts_repeat_exactly_for_one_seed(two_sessions):
    (first, op1), (second, op2) = two_sessions
    for table, key in EXACT_COUNTS:
        assert first.ops[0][table].get(key, 0) == second.ops[0][table].get(key, 0), key
    assert op1["checks"] == op2["checks"]


def test_layer_self_times_never_sum_above_wall(two_sessions):
    for t, op in two_sessions:
        assert sum(t.ops[0]["self_s"].values()) <= op["wall_s"]


def test_layer_metrics_fit_the_traced_wall(two_sessions):
    t, op = two_sessions[0]
    layers = run.layer_metrics(t, [op], [op])
    self_times = sum(value for name, (value, unit) in layers.items()
                     if unit == "s" and not name.startswith("trace."))
    assert self_times <= layers["trace.wall_s"][0]
    assert layers["trace.overhead_frac"][0] == 0.0


def test_wrappers_restored_when_an_operation_raises(tmp_path):
    class Broken:
        def run(self, out_dir):
            workloads.harness.run_tracking(None, out_dir)

    t = tracer.Tracer()
    t.install()
    try:
        op = run.run_op(Broken(), tmp_path / "op", t)
    finally:
        t.remove()
    assert op["problem"] and "AttributeError" in op["problem"]
    assert t.ops[0]["calls"] == {"harness": 1}
    for (owner, name), original in ORIGINALS.items():
        assert owner.__dict__[name] is original
