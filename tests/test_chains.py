import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack import chains
from adiatrack.bounds import noise_envelope_coverage
from adiatrack.bounds import homogeneous_comparison_bound
from adiatrack.chains import (
    InvariantError,
    check_stack,
    ergodicity_coefficient,
    ergodicity_coefficients,
    next_states,
    simulate,
    stationary_distribution,
    stationary_stack,
)
from adiatrack.schedules import ConstantSchedule, CyclicSchedule, DriftParams, InterpolationSchedule

from conftest import distributions, matrices, matrix_tv, random_rows, stochastic, tv

P_REF = stochastic([[0.9, 0.1], [0.2, 0.8]])
SWAP = stochastic([[0.0, 1.0], [1.0, 0.0]])


def second_eigenvalue(p):
    """The non-unit eigenvalue trace(P) - 1 of a 2x2 stochastic matrix, as
    suite_prop1 reads it off its stack."""
    return float(p[0, 0] + p[1, 1] - 1.0)


def exact_marginal(lam0, mats):
    """Exact left fold lam0 P1 ... PT over a (T, n, n) stack, renormalized once
    at the end; the float drift |sum - 1| of the fold must stay below 1e-9."""
    v = np.array(lam0, dtype=float)
    for m in mats:
        v = v @ m
    drift = abs(v.sum() - 1.0)
    assert drift < 1e-9, f"marginal drifted from the simplex by {drift!r}"
    return v / v.sum()


# ---------------------------------------------------------------- invariants

# a distribution enters as the start lam of the comparison bound, a matrix
# as a schedule's anchor

def test_distribution_rejects_bad_sum():
    with pytest.raises(InvariantError):
        homogeneous_comparison_bound([[0.5, 0.4]], [0.5, 0.5], P_REF, P_REF[None])


def test_distribution_rejects_negative_entry():
    with pytest.raises(InvariantError):
        homogeneous_comparison_bound([[1.1, -0.1]], [0.5, 0.5], P_REF, P_REF[None])


def test_matrix_rejects_bad_row_and_never_renormalizes():
    with pytest.raises(InvariantError, match="row 1"):
        ConstantSchedule([[0.5, 0.5], [0.6, 0.5]])


def test_matrix_rejects_non_square():
    with pytest.raises(InvariantError):
        ConstantSchedule([[0.5, 0.5]])


# -------------------------------------------------------------- tv distances

def test_tv_identical_is_zero():
    d = stochastic([0.5, 0.5])
    assert tv(d, d) == 0.0


def test_tv_disjoint_is_one():
    assert tv(stochastic([1, 0]), stochastic([0, 1])) == 1.0


def test_tv_half_sum_example():
    # 0.5 * (|0.5-0.9| + |0.5-0.1|) = 0.4
    assert tv(stochastic([0.5, 0.5]), stochastic([0.9, 0.1])) == pytest.approx(0.4, abs=1e-15)


def test_matrix_tv_examples():
    assert matrix_tv(P_REF, P_REF) == 0.0
    ident = stochastic(np.eye(2))
    assert matrix_tv(ident, SWAP) == 1.0
    q = stochastic([[0.8, 0.2], [0.2, 0.8]])
    assert matrix_tv(P_REF, q) == pytest.approx(0.1, abs=1e-15)


@given(matrices(max_n=5), matrices(max_n=5))
@settings(max_examples=60, deadline=None)
def test_matrix_tv_symmetric_unit_interval(p, q):
    if len(p) != len(q):
        return
    d = matrix_tv(p, q)
    assert 0.0 <= d <= 1.0
    assert d == matrix_tv(q, p)


def test_matrix_tv_of_different_matrix_shapes_raises():
    # broadcasting a 1-state against a 2-state one-row stack would read [0.5]
    with pytest.raises(ValueError, match=r"dimension mismatch: \(1, 1\) vs \(1, 2\) matrices"):
        chains.matrix_tv_distances(np.ones((1, 1, 1)), np.full((1, 1, 2), 0.5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        chains.matrix_tv_distances(np.stack([P_REF] * 3), np.eye(3)[None])


def test_matrix_tv_one_matrix_pairs_with_every_matrix_of_a_stack():
    stack = np.stack([P_REF, SWAP, np.eye(2)])
    got = chains.matrix_tv_distances(stack, np.eye(2)[None])
    assert got.tolist() == [matrix_tv(m, np.eye(2))
                            for m in stack]


# ------------------------------------------------------ ergodicity coefficient

def test_rho_identity_and_rank_one():
    assert ergodicity_coefficient(stochastic(np.eye(2))) == 1.0
    rank1 = stochastic([[0.3, 0.7], [0.3, 0.7]])
    assert ergodicity_coefficient(rank1) == 0.0


def test_rho_row_pair_example():
    assert ergodicity_coefficient(P_REF) == pytest.approx(0.7, abs=1e-15)


def _rho_brute(p):
    # independent re-derivation: explicit loop over unordered row pairs
    best = 0.0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            best = max(best, 0.5 * abs(p[i] - p[j]).sum())
    return best


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rho_matches_bruteforce_and_overlap(p):
    rho = ergodicity_coefficient(p)
    assert rho == pytest.approx(_rho_brute(p), abs=1e-12)
    overlap = 1.0 - min(np.minimum(p[i], p[j]).sum()
                        for i in range(len(p)) for j in range(len(p)) if i != j)
    assert rho == pytest.approx(overlap, abs=1e-12)


@given(matrices(n=4), matrices(n=4))
@settings(max_examples=80, deadline=None)
def test_rho_submultiplicative(p, q):
    prod = stochastic(p @ q)
    assert ergodicity_coefficient(prod) <= \
        ergodicity_coefficient(p) * ergodicity_coefficient(q) + 1e-12


@given(matrices(n=3), distributions(3), distributions(3))
@settings(max_examples=80, deadline=None)
def test_rho_contracts_tv(p, lam, mu):
    pushed = tv(stochastic(lam @ p), stochastic(mu @ p))
    assert pushed <= ergodicity_coefficient(p) * tv(lam, mu) + 1e-12


@given(matrices(n=2))
@settings(max_examples=80, deadline=None)
def test_second_eigenvalue_below_rho(p):
    assert abs(second_eigenvalue(p)) <= ergodicity_coefficient(p) + 1e-12


@given(matrices(n=3), matrices(n=3))
@settings(max_examples=60, deadline=None)
def test_stationary_perturbation_bound(p, q):
    rho = ergodicity_coefficient(p)
    if rho >= 1.0 - 1e-9:
        return
    pert = stochastic(0.8 * p + 0.2 * q)
    gap = tv(stationary_distribution(p), stationary_distribution(pert))
    assert gap <= matrix_tv(p, pert) / (1.0 - rho) + 1e-10


# --------------------------------------------------------------- eigenvalues

def test_second_eigenvalue_examples():
    for m in (P_REF, SWAP):  # trace - 1 is the eigenvalue numpy finds besides 1
        assert min(abs(np.linalg.eigvals(m) - second_eigenvalue(m))) <= 1e-12
    assert second_eigenvalue(P_REF) == pytest.approx(0.7, abs=1e-15)
    assert second_eigenvalue(SWAP) == -1.0
    assert second_eigenvalue(stochastic([[0.3, 0.7], [0.3, 0.7]])) == \
        pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- stationary

def test_stationary_rank_one_returns_common_row():
    q = [0.3, 0.2, 0.5]
    p = stochastic([q, q, q])
    np.testing.assert_allclose(stationary_distribution(p), q, atol=1e-13)


def test_stationary_two_thirds_one_third():
    np.testing.assert_allclose(stationary_distribution(P_REF),
                               [2 / 3, 1 / 3], atol=1e-13)


def test_stationary_symmetric_swap():
    np.testing.assert_allclose(stationary_distribution(SWAP),
                               [0.5, 0.5], atol=1e-13)


def test_stationary_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        stationary_distribution(stochastic(np.eye(2)))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_stationary_fixed_point_residual(p):
    pi = stationary_distribution(p)
    assert 0.5 * np.abs(pi @ p - pi).sum() <= 1e-12


@given(st.lists(matrices(n=3), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_stationary_stack_equals_one_matrix_solve(mats):
    # the single-matrix direct solve with one refinement step, written out
    stack = np.array(mats)
    pis = stationary_stack(stack)
    for m, pi in zip(mats, pis):
        a = m.T - np.eye(3)
        a[-1, :] = 1.0
        b = np.array([0.0, 0.0, 1.0])
        one = np.linalg.solve(a, b)
        one = one + np.linalg.solve(a, b - a @ one)
        assert pi.tobytes() == one.tobytes()
        assert stationary_distribution(m).tobytes() == one.tobytes()


@given(st.lists(matrices(n=4), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_ergodicity_coefficients_equal_per_matrix_row_pairs(mats):
    rhos = ergodicity_coefficients(np.array(mats))
    for m, rho in zip(mats, rhos):
        pair_tv = 0.5 * np.abs(m[:, None, :] - m[None, :, :]).sum(axis=2)
        assert rho == float(pair_tv.max()) == ergodicity_coefficient(m)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_ergodicity_coefficients_over_unordered_pairs_equal_the_all_pairs_form(rng, n):
    # the oracle: every ordered row pair, a row with itself included
    mats = np.array([random_rows(rng, n) for _ in range(300)])
    rows, others = mats[:, :, None, :], mats[:, None, :, :]
    all_pairs = (0.5 * np.abs(rows - others).sum(axis=3)).max(axis=(1, 2))
    assert ergodicity_coefficients(mats).tobytes() == all_pairs.tobytes()


def test_check_stack_rejects_what_transition_matrix_rejects():
    good = np.array([P_REF, SWAP, P_REF])
    assert check_stack(good) is good
    with pytest.raises(InvariantError, match="matrix 1 of the stack is reducible"):
        check_stack(np.array([P_REF, np.eye(2), P_REF]))
    with pytest.raises(InvariantError, match="row 1 of matrix 2"):
        check_stack(np.array([P_REF, P_REF, [[0.5, 0.5], [0.5, 0.6]]]))
    with pytest.raises(InvariantError, match="non-finite"):
        check_stack(np.array([P_REF, [[np.nan, 1.0], [0.5, 0.5]]]))
    with pytest.raises(InvariantError, match="outside"):
        check_stack(np.array([[[1.1, -0.1], [0.5, 0.5]]]))


# -------------------------------------------------------------- irreducibility

def test_irreducibility_examples():
    # check_stack at k = 1 decides irreducibility
    check_stack(SWAP[None])  # irreducible: returns without raising
    for p in (np.eye(2), [[0.5, 0.5], [0.0, 1.0]]):
        with pytest.raises(InvariantError, match="reducible"):
            check_stack(stochastic(p)[None])


# ----------------------------------------------------------------- propagation

def test_propagate_period_two_permutation():
    out = exact_marginal([1.0, 0.0], np.array([SWAP, SWAP]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_propagate_single_step():
    out = exact_marginal([1.0, 0.0], P_REF[None])
    np.testing.assert_allclose(out, [0.9, 0.1], atol=1e-15)


# ------------------------------------------------------------------ simulation

def test_simulate_permutation_path():
    path = simulate(ConstantSchedule(SWAP), t_max=4, x0=0, seeds=[1])[0]
    np.testing.assert_array_equal(path, [0, 1, 0, 1, 0])


def test_simulate_zero_steps():
    path = simulate(ConstantSchedule(P_REF), t_max=0, x0=1, seeds=[1])[0]
    np.testing.assert_array_equal(path, [1])


def test_simulate_deterministic_in_seed():
    sched = ConstantSchedule(P_REF)
    a = simulate(sched, 500, 0, [42])[0]
    b = simulate(sched, 500, 0, [42])[0]
    c = simulate(sched, 500, 0, [43])[0]
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


def test_simulate_occupation_near_stationary():
    # stationary mass of state 0 is 2/3; long-run occupation at fixed seeds
    sched = ConstantSchedule(P_REF)
    for path in simulate(sched, 100_000, 0, [11, 12, 13]):
        occ = (path == 0).mean()
        assert abs(occ - 2 / 3) < 0.02


def test_simulate_rejects_bad_start():
    with pytest.raises(ValueError):
        simulate(ConstantSchedule(P_REF), 10, 5, [0])


def _seed_sequence_stream(seed, k):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k])))


def _sample_from_row(row_cumsum, u):
    """Inverse-CDF draw on one row: first index whose cumulative mass exceeds u."""
    i, last = 0, row_cumsum.size - 1
    while i < last and row_cumsum[i] <= u:
        i += 1
    return i


def test_stream_keys_pin_path_noise_and_coverage_draws(monkeypatch):
    # key 0: path uniforms, 1: noise draws, 2: coverage draws, all off one seed
    seed = 12
    uniforms = _seed_sequence_stream(seed, 0).random(300)
    cums = np.cumsum(P_REF, axis=1)
    states = [0]
    for u in uniforms:
        states.append(_sample_from_row(cums[states[-1]], u))
    np.testing.assert_array_equal(simulate(ConstantSchedule(P_REF), 300, 0, [seed])[0],
                                  states)
    np.testing.assert_array_equal(chains.stream(seed, 1).uniform(-0.3, 0.3, 500),
                                  _seed_sequence_stream(seed, 1).uniform(-0.3, 0.3, 500))
    np.testing.assert_array_equal(chains.stream(seed, 2).random(50),
                                  _seed_sequence_stream(seed, 2).random(50))
    keys, real = [], chains.stream
    monkeypatch.setattr(chains, "stream", lambda s, k: keys.append((s, k)) or real(s, k))
    noise_envelope_coverage(np.full(50, 0.1), np.full(50, 0.5), 1.0, 0.05, 4, 50, 3, seed)
    assert keys == [(seed, 2)]


def test_simulate_path_is_read_only_int64():
    paths = simulate(ConstantSchedule(P_REF), 5, 0, [3, 4])
    assert paths.dtype == np.int64 and paths.shape == (2, 6)
    with pytest.raises(ValueError):
        paths[0, 1] = 0
    with pytest.raises(ValueError):
        paths[1][1] = 0
    assert simulate(ConstantSchedule(P_REF), 5, 0, []).shape == (0, 6)


def _per_path(schedule, t_max, x0, seed):
    """One seed's path in the per-path form: the seed's successor table per
    block (next_states), walked in Python; each row of simulate equals it."""
    states, uniforms = [x0], chains.stream(seed, 0).random(t_max)
    for lo, block in schedule.blocks(1, t_max + 1):
        nxt = next_states(np.cumsum(block[:-1], axis=2), uniforms[lo - 1:lo + len(block) - 2])
        for row in nxt.tolist():
            states.append(row[states[-1]])
    return states


@pytest.mark.parametrize("schedule", [
    ConstantSchedule([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]),
    InterpolationSchedule(P_REF, SWAP * 0.9 + 0.05, DriftParams(0.5, 1.0, 0.01, 0.0)),
    CyclicSchedule([P_REF, SWAP * 0.8 + 0.1, [[0.5, 0.5], [0.5, 0.5]]],
                   DriftParams(0.5, 0.3, 0.01, 0.0)),
], ids=["constant", "interpolation", "cyclic"])
def test_simulate_rows_equal_the_per_path_form(schedule):
    # 5,000 steps cross two block boundaries of the walk
    seeds = [0, 7, 101, 2**40]
    paths = simulate(schedule, 5_000, 1, seeds)
    for path, seed in zip(paths, seeds):
        np.testing.assert_array_equal(path, _per_path(schedule, 5_000, 1, seed))


def _per_row(cums, us):
    return [[_sample_from_row(row, u) for row in mat] for mat, u in zip(cums, us)]


def test_next_states_equals_per_row_loop():
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        raw = rng.random((300, n, n)) * (rng.random((300, n, n)) < 0.7)  # zero columns
        raw[raw.sum(axis=2) == 0.0] = 1.0
        cums = np.cumsum(raw / raw.sum(axis=2, keepdims=True), axis=2)
        us = rng.random(300)
        hit = rng.integers(0, n, (2, 100))  # u exactly at a cumsum value
        us[:100] = cums[np.arange(100), hit[0], hit[1]]
        out = next_states(cums, us)
        assert out.dtype == np.int64 and out.shape == (300, n)
        np.testing.assert_array_equal(out, _per_row(cums, us))
    edges = [
        ([0.3, 0.2, -1e-12, 0.5 + 1e-12], 0.5 - 0.5e-12),  # non-monotone cumsum
        ([0.3, 0.2, -1e-12, 0.5 + 1e-12], 0.5),
        ([0.25, 0.25, 0.5], 0.5),  # u exactly at a cumsum value
        ([0.25, 0.25, 0.5], 0.25),
        ([0.5, 0.5 - 1e-12], 1.0 - 0.5e-12),  # u above the row's total
        ([0.25, 0.25, 0.5 - 1e-12], 1.0 - 0.5e-12),
        ([0.0, 0.0, 1.0], 0.0),  # zero columns
        ([0.5, 0.0, 0.0, 0.5], 0.5),
        ([1.0, 0.0, 0.0], 0.999),
    ]
    for row, u in edges:
        cums = np.cumsum(np.tile(row, (len(row), 1)), axis=1)[None]
        np.testing.assert_array_equal(next_states(cums, np.array([u])),
                                      _per_row(cums, [u]))


@pytest.mark.parametrize("rows,t_max", [
    ([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]], 20),
    ([[0.4, 0.3, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1],
      [0.25, 0.25, 0.25, 0.25], [0.05, 0.15, 0.3, 0.5]], 10),
])
def test_empirical_frequencies_match_exact_marginal(rows, t_max):
    # 1e5 seeded paths, chi-squared-free: per-state frequency within 0.01
    sched = ConstantSchedule(rows)
    n, n_paths = sched.n, 100_000
    exact = exact_marginal(np.eye(n)[0], sched.block(1, t_max + 1))
    ends = simulate(sched, t_max, 0, range(1000, 1000 + n_paths))[:, -1]
    counts = np.bincount(ends, minlength=n)
    np.testing.assert_allclose(counts / n_paths, exact, atol=0.01)


def test_the_root_loads_no_module_and_chains_only_itself():
    # a fresh process: the package root re-exports nothing, and chains sits
    # at the bottom of the layers (chains -> schedules -> dp -> learners)
    probe = ("import json, sys\n"
             "def loaded(): return sorted(m for m in sys.modules if m.startswith('adiatrack.'))\n"
             "import adiatrack\n"
             "root = loaded()\n"
             "import adiatrack.chains\n"
             "print(json.dumps([root, loaded()]))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chains.__file__))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert json.loads(out) == [[], ["adiatrack.chains"]]
