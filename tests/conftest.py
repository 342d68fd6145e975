import json
import os
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from adiatrack.chains import _check_rows, matrix_tv_distances
from adiatrack.harness import ExperimentConfig, run_tracking

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def matrix_tv(p, q):
    """Maximum row TV of two (n, n) matrices: matrix_tv_distances at k = 1."""
    return float(matrix_tv_distances(p[None], q[None])[0])


def tv(lam, mu):
    """TV of two (n,) distributions: matrix_tv_distances of their one-row
    matrices at k = 1."""
    return float(matrix_tv_distances(lam[None, None], mu[None, None])[0])


def trace_fields(trace):
    """A learners.TrackingTrace's fields as plain lists, so == compares every
    value bit for bit; its sup_error array makes the trace's own == raise."""
    return (trace.seeds, trace.t, trace.alpha_t, trace.pi_min_t, trace.drift_t,
            trace.sup_error.tolist(), trace.max_abs_value)


def stochastic(rows):
    """rows as a float64 array whose last-axis rows are validated
    (chains._check_rows): a transition matrix, a distribution or a stack."""
    arr = np.array(rows, dtype=float)
    _check_rows(arr)
    return arr


def random_rows(rng, n):
    """One random (n, n) transition matrix, unvalidated, drawn and built per
    matrix: the oracle for verify's stacked _draw and _rows, in the same draw
    order (style, then raw entries) and with the same elementwise steps."""
    style = rng.integers(3)
    raw = rng.random((n, n))
    if style == 1:
        raw = raw ** 4  # skewed rows, ergodicity coefficient near 1
    elif style == 2:
        cycle = np.eye(n)[(np.arange(n) + 1) % n]  # cycle backbone, still dense
        raw = 0.2 * raw + 0.8 * cycle + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.fixture(scope="session")
def reference():
    """Frozen outputs of scripts/reference_recursion.py, the driver over the one
    reference recursion perfbench/reference.py, plus its hand-frozen thresholds."""
    with open(os.path.join(FIXTURES, "tracking_reference.json")) as fh:
        return json.load(fh)


def matrices(n=None, min_n=2, max_n=6):
    """Hypothesis strategy: dense positive (hence irreducible) row-stochastic matrices."""
    dims = st.just(n) if n else st.integers(min_n, max_n)

    @st.composite
    def build(draw):
        size = draw(dims)
        raw = np.array(draw(st.lists(
            st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size),
            min_size=size, max_size=size)))
        return stochastic(raw / raw.sum(axis=1, keepdims=True))

    return build()


def distributions(n):
    @st.composite
    def build(draw):
        raw = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
        return stochastic(raw / raw.sum())

    return build()


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


# ---------------------------------------------------------------------------
# Session-scoped tracking runs of the four acceptance configs, shared by the
# learners invariants and the acceptance criteria.  scripts/reference_recursion.py
# runs the same files through the one reference recursion (perfbench/reference.py);
# the medians and thresholds asserted against them are frozen in
# tracking_reference.json.

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_dict(name):
    """configs/<name>.json, an acceptance config or the separation grid, as a
    fresh dict on every call."""
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        return json.load(fh)


def _run(name, tmp_path_factory):
    config, out_dir = ExperimentConfig.from_dict(config_dict(name)), tmp_path_factory.mktemp(name)
    started = time.monotonic()
    summary = run_tracking(config, out_dir)
    return config, summary, out_dir, time.monotonic() - started


@pytest.fixture(scope="session")
def static_td_run(tmp_path_factory):
    return _run("static_td", tmp_path_factory)


@pytest.fixture(scope="session")
def adiabatic_run(tmp_path_factory):
    return _run("adiabatic", tmp_path_factory)


@pytest.fixture(scope="session")
def diabatic_run(tmp_path_factory):
    return _run("diabatic", tmp_path_factory)


@pytest.fixture(scope="session")
def static_q_run(tmp_path_factory):
    return _run("static_q", tmp_path_factory)
