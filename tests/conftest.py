import json
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from adiatrack.chains import _check_rows, matrix_tv_distances

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def matrix_tv(p, q):
    """Maximum row TV of two (n, n) matrices: matrix_tv_distances at k = 1."""
    return float(matrix_tv_distances(p[None], q[None])[0])


def tv(lam, mu):
    """TV of two (n,) distributions: matrix_tv_distances of their one-row
    matrices at k = 1."""
    return float(matrix_tv_distances(lam[None, None], mu[None, None])[0])


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
# Session-scoped tracking runs shared by the learners invariants and the
# acceptance criteria.  Constants mirror scripts/reference_recursion.py, which
# runs them through the one reference recursion (perfbench/reference.py); the
# medians and thresholds asserted against them are frozen in
# tracking_reference.json.

A_ROWS = [[0.9, 0.1], [0.2, 0.8]]
B_ROWS = [[0.1, 0.9], [0.8, 0.2]]
RATE = {"c_alpha": 0.5, "gamma_alpha": 0.6}
REWARD = {"r": [1.0, 0.0], "beta": 0.5}
T_MAX = 100_000
SEEDS_TD = {"base": 101, "count": 20}
SEEDS_Q = {"base": 211, "count": 20}


def static_td_config_dict():
    return {"schedule": {"kind": "constant", "n": 2, "p": A_ROWS},
            "reward": REWARD, "rate": RATE, "t_max": T_MAX,
            "seeds": SEEDS_TD, "checkpoints": {"per_decade": 8}}


def adiabatic_config_dict():
    return {"schedule": {"kind": "interpolation", "n": 2,
                         "params": {"c_p": 0.05, "gamma_p": 1.0,
                                    "c_pi": 0.25, "gamma_pi": 0.0},
                         "p_start": A_ROWS, "p_end": B_ROWS},
            "reward": REWARD, "rate": RATE, "t_max": T_MAX,
            "seeds": SEEDS_TD, "checkpoints": {"per_decade": 8}}


def diabatic_config_dict():
    return {"schedule": {"kind": "cyclic", "n": 2,
                         "params": {"c_p": 0.05, "gamma_p": 0.3,
                                    "c_pi": 0.25, "gamma_pi": 0.0},
                         "mats": [A_ROWS, B_ROWS]},
            "reward": REWARD, "rate": RATE, "t_max": T_MAX,
            "seeds": SEEDS_TD, "checkpoints": {"per_decade": 8}}


def static_q_config_dict(reference):
    doc = reference["static_q"]
    return {"schedule": {"kind": "constant", "n": 4, "p": doc["p"]},
            "reward": {"r": doc["r"], "beta": 0.5}, "rate": RATE,
            "learner": "q", "n_actions": doc["n_actions"], "t_max": T_MAX,
            "seeds": SEEDS_Q, "checkpoints": {"per_decade": 8}}


def _run(config_dict, out_dir):
    import time

    from adiatrack.harness import ExperimentConfig, run_tracking

    config = ExperimentConfig.from_dict(config_dict)
    started = time.monotonic()
    summary = run_tracking(config, out_dir)
    return config, summary, out_dir, time.monotonic() - started


@pytest.fixture(scope="session")
def static_td_run(tmp_path_factory):
    return _run(static_td_config_dict(), tmp_path_factory.mktemp("static_td"))


@pytest.fixture(scope="session")
def adiabatic_run(tmp_path_factory):
    return _run(adiabatic_config_dict(), tmp_path_factory.mktemp("adiabatic"))


@pytest.fixture(scope="session")
def diabatic_run(tmp_path_factory):
    return _run(diabatic_config_dict(), tmp_path_factory.mktemp("diabatic"))


@pytest.fixture(scope="session")
def static_q_run(reference, tmp_path_factory):
    return _run(static_q_config_dict(reference), tmp_path_factory.mktemp("static_q"))
