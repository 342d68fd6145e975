import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack import chains, dp, verify
from adiatrack.dp import (
    RewardSpec,
    bellman_g,
    check_lipschitz,
    check_restart_identities,
    exact_q,
    exact_reward,
)

from conftest import matrices, random_rows, stochastic

P_REF = np.array([[0.9, 0.1], [0.2, 0.8]])
FLAT = np.array([[0.5, 0.5], [0.5, 0.5]])


def truncated_series(p, spec, horizon):
    """Independent oracle: sum_{t<=H} beta^t P^t r by direct accumulation."""
    term = spec.r.copy()
    total = term.copy()
    for _ in range(horizon):
        term = spec.beta * (p @ term)
        total = total + term
    return total


def exact_q1(p, spec, n_actions, **kw):
    """exact_q at k = 1: the stack of p alone."""
    return exact_q(p[None], spec.r[None], np.array([spec.beta]), n_actions, **kw)[0]


def bellman_g1(p, spec, q_in, n_actions):
    """bellman_g at k = 1; at n_actions = 1 it is the TD operator r + beta P q_in."""
    return bellman_g(p[None], spec.r[None], np.array([spec.beta]),
                     np.asarray(q_in, dtype=float)[None], n_actions)[0]


def lipschitz_reward1(p, q, spec):
    """check_lipschitz at one action and k = 1: its sides (lhs, rhs) as floats;
    the check holds when lhs <= rhs + 1e-10."""
    (lhs,), (rhs,) = (side.tolist() for side in check_lipschitz(
        p[None], q[None], spec.r[None], np.array([spec.beta]), 1))
    return lhs, rhs


def restart_identity1(p, spec, beta_hat, x_restart):
    """check_restart_identities at k = 1: its sides (lhs, rhs, rho, rho_bound)
    as floats; the check holds when |lhs - rhs| <= 1e-8 and
    rho <= rho_bound + 1e-12 (restart_holds)."""
    (lhs,), (rhs,), (rho,), (rho_bound,) = (side.tolist() for side in check_restart_identities(
        p[None], spec.r[None], np.array([spec.beta]), np.array([beta_hat]),
        np.array([x_restart])))
    return lhs, rhs, rho, rho_bound


def restart_holds(lhs, rhs, rho, rho_bound):
    """The restart check's verdict on the sides of restart_identity1."""
    return abs(lhs - rhs) <= 1e-8 and rho <= rho_bound + 1e-12


def backward_induction_q(p, spec, n_actions, horizon):
    """Independent oracle: finite-horizon dynamic program, Q_H = 0."""
    n_states = len(p) // n_actions
    q = np.zeros(len(p))
    for _ in range(horizon):
        v = q.reshape(n_states, n_actions).max(axis=1)
        v_prod = v[np.arange(len(p)) // n_actions]
        q = spec.r + spec.beta * (p @ v_prod)
    return q


def test_reward_spec_validation():
    with pytest.raises(ValueError):
        RewardSpec([1.0, np.inf], 0.5)
    with pytest.raises(ValueError):
        RewardSpec([1.0, 0.0], 1.0)
    spec = RewardSpec([1.0, -2.0], 0.5)
    assert spec.r_max == 2.0
    assert spec.value_cap == 4.0


# booleans, strings and unknown keys: test_harness's CLI config-error cases
@pytest.mark.parametrize("doc, named", [
    ({"r": [1.0, None], "beta": 0.5}, "r[1] must be a number, got None"),
    ({"r": 1.0, "beta": 0.5}, "r must be a list, got 1.0"),
])
def test_reward_spec_from_spec_reads_a_list_of_json_numbers(doc, named):
    with pytest.raises(ValueError) as err:
        RewardSpec.from_spec(doc)
    assert str(err.value) == named
    spec = RewardSpec.from_spec({"r": [1, 0.5], "beta": 0.5})
    assert spec.r.tolist() == [1.0, 0.5] and spec.beta == 0.5


# -------------------------------------------------------------- exact_reward

def test_exact_reward_zero_rewards():
    np.testing.assert_array_equal(exact_reward(P_REF, RewardSpec([0.0, 0.0], 0.9)),
                                  [0.0, 0.0])


def test_exact_reward_flat_chain_closed_form():
    out = exact_reward(FLAT, RewardSpec([1.0, 0.0], 0.5))
    np.testing.assert_allclose(out, [1.5, 0.5], atol=1e-13)
    series = truncated_series(FLAT, RewardSpec([1.0, 0.0], 0.5), horizon=60)
    np.testing.assert_allclose(out, series, atol=1e-12)


def test_exact_reward_tiny_discount_near_rewards():
    spec = RewardSpec([1.0, -0.5], 1e-6)
    out = exact_reward(P_REF, spec)
    np.testing.assert_allclose(out, spec.r, atol=2e-6)


@given(matrices(max_n=5), st.floats(0.1, 0.95))
@settings(max_examples=60, deadline=None)
def test_exact_reward_matches_truncated_series(p, beta):
    rng = np.random.default_rng(3)
    spec = RewardSpec(rng.uniform(-1, 1, len(p)), beta)
    horizon = 60
    tail = beta ** (horizon + 1) * spec.r_max / (1 - beta)
    assert np.abs(exact_reward(p, spec) - truncated_series(p, spec, horizon)).max() \
        <= tail + 1e-12


@given(matrices(max_n=5), st.floats(0.1, 0.95))
@settings(max_examples=60, deadline=None)
def test_exact_reward_respects_value_cap(p, beta):
    rng = np.random.default_rng(4)
    spec = RewardSpec(rng.uniform(-1, 1, len(p)), beta)
    assert np.abs(exact_reward(p, spec)).max() <= spec.value_cap + 1e-12


def test_exact_q_at_one_action_equals_per_matrix_exact_reward(rng):
    betas = np.array([0.5, 0.9, 0.99])[np.arange(9) % 3]
    for n in range(2, 7):
        raw = rng.random((9, n, n))
        mats = raw / raw.sum(axis=2, keepdims=True)
        r = rng.uniform(-1, 1, (9, n))
        np.testing.assert_array_equal(
            exact_q(mats, r, betas, 1),
            [exact_reward(stochastic(m), RewardSpec(ri, b))
             for m, ri, b in zip(mats, r, betas)])


@pytest.mark.parametrize("error", [1e-9, np.nan])
def test_exact_q_at_one_action_certificate_rejects_an_inexact_solve(monkeypatch, error):
    # every one-action solve goes through exact_q's one certificate: the stack,
    # both members of a restart check and the one-matrix exact_reward
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real(a, b) + error)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        exact_q(np.stack([P_REF, FLAT]), np.array([[1.0, 0.0], [0.0, 0.0]]),
                np.array([0.5, 0.5]), 1)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        restart_identity1(P_REF, RewardSpec([1.0, 0.0], 0.5), 0.8, 0)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        exact_reward(P_REF, RewardSpec([1.0, 0.0], 0.5))


# ------------------------------------------- the TD operator F (G at one action)

def test_bellman_f_fixed_point_and_zero_input():
    spec = RewardSpec([1.0, 0.0], 0.5)
    star = exact_reward(P_REF, spec)
    np.testing.assert_allclose(bellman_g1(P_REF, spec, star, 1), star, atol=1e-12)
    np.testing.assert_array_equal(bellman_g1(P_REF, spec, np.zeros(2), 1), spec.r)


@given(matrices(n=3), st.floats(0.1, 0.95))
@settings(max_examples=80, deadline=None)
def test_bellman_f_is_beta_contraction(p, beta):
    rng = np.random.default_rng(5)
    spec = RewardSpec(rng.uniform(-1, 1, 3), beta)
    a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
    gap = np.abs(bellman_g1(p, spec, a, 1) - bellman_g1(p, spec, b, 1)).max()
    assert gap <= beta * np.abs(a - b).max() + 1e-12


def test_bellman_g_at_one_action_is_r_plus_beta_p_q_bit_for_bit():
    # the singleton action max and the state gather are identities: G at one
    # action is the TD operator on the stack, and each row's own r + beta P q
    rng, k = np.random.default_rng(31), 9
    for n in range(1, 7):
        mats = np.array([random_rows(rng, n) for _ in range(k)])
        r, q = rng.uniform(-1, 1, (k, n)), rng.uniform(-5, 5, (k, n))
        beta = rng.uniform(0.1, 0.99, k)
        g = bellman_g(mats, r, beta, q, 1)
        assert g.tobytes() == (r + beta[:, None] * (mats @ q[:, :, None])[:, :, 0]).tobytes()
        assert g.tolist() == [(r[i] + beta[i] * (mats[i] @ q[i])).tolist() for i in range(k)]


# -------------------------------------------------------------------- exact_q

def test_exact_q_zero_rewards():
    np.testing.assert_array_equal(
        exact_q1(P_REF, RewardSpec([0.0, 0.0], 0.5), n_actions=1), [0.0, 0.0])


def test_exact_q_single_action_collapses_to_reward():
    spec = RewardSpec([1.0, 0.0], 0.5)
    q = exact_q1(P_REF, spec, n_actions=1)
    np.testing.assert_allclose(q, exact_reward(P_REF, spec), atol=1e-9)


def test_exact_q_matches_backward_induction():
    rng = np.random.default_rng(6)
    raw = rng.random((4, 4))
    p = stochastic(raw / raw.sum(axis=1, keepdims=True))
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5)
    q = exact_q1(p, spec, n_actions=2)
    brute = backward_induction_q(p, spec, n_actions=2, horizon=60)
    np.testing.assert_allclose(q, brute, atol=1e-8)


def best_of_all_policies(p, spec, n_actions):
    """Independent oracle: the elementwise max of Q^pi over every deterministic
    policy, each evaluated by a state-level solve of V^pi."""
    n_states = len(p) // n_actions
    to_state = p.reshape(len(p), n_states, n_actions).sum(axis=2)
    best = np.full(len(p), -np.inf)
    for pi in itertools.product(range(n_actions), repeat=n_states):
        chosen = [s * n_actions + a for s, a in enumerate(pi)]
        v = np.linalg.solve(np.eye(n_states) - spec.beta * to_state[chosen], spec.r[chosen])
        best = np.maximum(best, spec.r + spec.beta * (to_state @ v))
    return best


@st.composite
def product_cases(draw):
    n_states, n_actions = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    p = draw(matrices(n=n_states * n_actions))
    r = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(-1, 1),
                               min_size=len(p), max_size=len(p))))
    if draw(st.booleans()):  # every action a copy of action 0: ties up to rounding
        first = np.arange(len(p)) // n_actions * n_actions
        p, r = stochastic(p[first]), r[first]
    return p, RewardSpec(r, draw(st.sampled_from([0.5, 0.9, 0.99]))), n_actions


@given(product_cases())
@settings(max_examples=150, deadline=None)
def test_exact_q_is_the_best_of_all_deterministic_policies(case):
    p, spec, n_actions = case
    q = exact_q1(p, spec, n_actions, tol=1e-12)
    np.testing.assert_allclose(q, best_of_all_policies(p, spec, n_actions),
                               rtol=0, atol=1e-11 * (1 + spec.value_cap))


def _solved_policies(monkeypatch, n_actions, perturb=None):
    """Spy on exact_q's solves; returns the policy each solve evaluated for
    the first row of its stack.  perturb(k, q) may alter that row of the k-th
    solution in place."""
    real, policies = np.linalg.solve, []

    def spy(a, b):
        mass = np.abs(a[0] - np.eye(len(b[0]))).sum(axis=0)  # only F_pi's columns move
        policies.append(mass.reshape(-1, n_actions).argmax(axis=1).tolist())
        q = real(a, b)
        if perturb:
            perturb(len(policies), q[0, :, 0])
        return q

    monkeypatch.setattr(np.linalg, "solve", spy)
    return policies


# every pair moves to (0, 0) or (1, 0) with probability 1/2: at beta = 1/2
# each solve is exact, so actions 1 and 2 of state 0 tie to the bit
TIED = np.tile([0.5, 0, 0, 0.5, 0, 0], (6, 1))
TIED_SPEC = RewardSpec([0.0, 1.0, 1.0, 0.0, 0.0, 0.0], 0.5)


def test_exact_q_breaks_ties_by_lowest_action(monkeypatch):
    policies = _solved_policies(monkeypatch, 3)
    q = exact_q1(TIED, TIED_SPEC, 3)
    assert policies == [[0, 0], [1, 0]]  # state 0: action 1 of the tied 1 and 2
    np.testing.assert_array_equal(q, [0.5, 1.5, 1.5, 0.5, 0.5, 0.5])


def test_exact_q_stops_at_a_rounding_cycle_between_tied_actions(monkeypatch):
    # rounding that favours action 2, then 1, then 2 ... of the tied pair
    def flip(k, q):
        q[1 + k % 2] += 4e-16
    policies = _solved_policies(monkeypatch, 3, flip)
    q = exact_q1(TIED, TIED_SPEC, 3, tol=1e-12)
    assert policies == [[0, 0], [2, 0], [1, 0]]  # [2, 0] repeats: stop
    np.testing.assert_allclose(q, [0.5, 1.5, 1.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-15)


def test_exact_q_raises_when_policies_cycle_without_settling(monkeypatch):
    def flip(k, q):
        q[1 + k % 2] += 1e-6  # far beyond rounding: no policy is greedy for its own Q
    policies = _solved_policies(monkeypatch, 3, flip)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        exact_q1(TIED, TIED_SPEC, 3, tol=1e-12)
    assert policies == [[0, 0], [2, 0], [1, 0]]


def test_exact_q_certificate_rejects_an_inexact_solve(monkeypatch):
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real(a, b) + 1e-9)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        exact_q1(P_REF, RewardSpec([1.0, 0.0], 0.99), n_actions=1)


def test_exact_q_certifies_where_value_iteration_cycles(monkeypatch):
    """exact_q calls 113, 196, 389, 917, 953, 2225, 2296 and 2999 of a
    per-case suite_lipschitz(8500, 1500) at the default seed (call i is Q
    case i // 2, side i % 2): value iteration started from the solve falls
    into a float limit cycle there and never meets (1 - beta) * 1e-12.
    Policy iteration certifies and returns on each."""
    real = dp.check_lipschitz
    monkeypatch.setattr(dp, "check_lipschitz",  # the reward cases: draws only
                        lambda p, *a: (np.zeros(len(p)), np.zeros(len(p))) if a[-1] == 1
                        else real(p, *a))
    assert verify.suite_lipschitz(n_reward_cases=8500, n_q_cases=1500)["pass"]
    rng, betas, cases = chains.stream(verify.DEFAULT_MASTER_SEED, 5), [0.5, 0.9, 0.99], []
    for _ in range(8500):  # the reward cases' draws
        n = int(rng.integers(2, 7))
        random_rows(rng, n), random_rows(rng, n), rng.uniform(0, 1, n)
    for k in range(1500):  # the Q cases' draws, as the suite makes them
        nsa = 2 * int(rng.integers(2, 4))
        sides = random_rows(rng, nsa), random_rows(rng, nsa)
        cases.append((sides, RewardSpec(rng.uniform(0, 1, nsa), betas[k % 3])))
    n_actions, kw = 2, {"tol": 1e-12}
    for i in (113, 196, 389, 917, 953, 2225, 2296, 2999):
        sides, spec = cases[i // 2]
        p = sides[i % 2]
        q = exact_q1(p, spec, n_actions, **kw)
        gap = np.abs(bellman_g1(p, spec, q, n_actions) - q).max()
        assert gap <= (1 - spec.beta) * kw["tol"] + (len(p) + 5) * 2 ** -53 * np.abs(q).max()
        threshold, vi = (1 - spec.beta) * kw["tol"], q
        for _ in range(300):  # still a limit-cycle case for value iteration
            vi_next = bellman_g1(p, spec, vi, n_actions)
            assert np.abs(vi_next - vi).max() > threshold
            vi = vi_next


def test_exact_q_stack_equals_each_rows_own_call(monkeypatch):
    # rows that stop after different numbers of rounds share each stack's
    # solves; every row equals its k = 1 call bit for bit
    rng = np.random.default_rng(16)
    betas = [0.5, 0.9, 0.99] * 4
    groups = [  # (rows, rewards, discounts, n_actions)
        ([TIED] + [random_rows(rng, 6) for _ in range(11)],
         [TIED_SPEC.r] + [rng.uniform(0, 1, 6) for _ in range(11)], betas, 3),
        ([P_REF, FLAT, random_rows(rng, 2)],
         [[1.0, 0.0], [0.0, 1.0], [0.5, 0.25]], [0.9, 0.5, 0.99], 1),
        ([random_rows(rng, 4) for _ in range(12)],
         [rng.uniform(0, 1, 4) for _ in range(12)], betas, 2),
        ([random_rows(rng, 6) for _ in range(12)],
         [rng.uniform(0, 1, 6) for _ in range(12)], betas, 2),
    ]
    real, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or real(a, b))
    for rows, r, beta, n_actions in groups:
        mats, r, beta = np.array(rows), np.array(r), np.array(beta)
        solves.clear()
        stacked = exact_q(mats, r, beta, n_actions, tol=1e-12)
        live, rounds = list(solves), []
        for i in range(len(mats)):
            solves.clear()
            one = exact_q(mats[i:i + 1], r[i:i + 1], beta[i:i + 1], n_actions, tol=1e-12)
            assert one.tobytes() == stacked[i:i + 1].tobytes()
            rounds.append(len(solves))
        # round j solves the rows that need more than j rounds, in one call
        assert live == [sum(n > j for n in rounds) for j in range(max(rounds))]
        assert (len(set(rounds)) > 1) == (n_actions > 1)  # one round at one action


def test_exact_q_of_an_empty_stack_is_empty():
    out = exact_q(np.zeros((0, 4, 4)), np.zeros((0, 4)), np.zeros(0), 2)
    assert out.shape == (0, 4)


def test_exact_q_cycling_row_raises_inside_a_mixed_stack(monkeypatch):
    # row 1: action 0 pays in every state, so its first policy is greedy and
    # it stops after one round, certified on its own
    mats = np.stack([TIED, TIED])
    r, beta = np.array([TIED_SPEC.r, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]), np.array([0.5, 0.5])
    exact_q(mats[1:], r[1:], beta[1:], 3, tol=1e-12)

    def flip(k, q):
        q[1 + k % 2] += 1e-6  # row 0 (TIED) only: no policy is greedy for its own Q
    policies = _solved_policies(monkeypatch, 3, flip)
    with pytest.raises(ArithmeticError, match="Bellman residual"):
        exact_q(mats, r, beta, 3, tol=1e-12)
    assert policies == [[0, 0], [2, 0], [1, 0]]


# ------------------------------------------------------------------ bellman_g

def test_bellman_g_fixed_point_and_zero_input():
    rng = np.random.default_rng(7)
    raw = rng.random((4, 4))
    p = stochastic(raw / raw.sum(axis=1, keepdims=True))
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5)
    star = exact_q1(p, spec, n_actions=2)
    np.testing.assert_allclose(bellman_g1(p, spec, star, 2), star, atol=1e-9)
    np.testing.assert_array_equal(bellman_g1(p, spec, np.zeros(4), 2), spec.r)


@given(matrices(n=4), st.floats(0.1, 0.95))
@settings(max_examples=80, deadline=None)
def test_bellman_g_is_beta_contraction(p, beta):
    rng = np.random.default_rng(8)
    spec = RewardSpec(rng.uniform(-1, 1, 4), beta)
    a, b = rng.uniform(-5, 5, 4), rng.uniform(-5, 5, 4)
    gap = np.abs(bellman_g1(p, spec, a, 2) - bellman_g1(p, spec, b, 2)).max()
    assert gap <= beta * np.abs(a - b).max() + 1e-12


# ------------------------------------------------------------------ lipschitz

def test_lipschitz_reward_identical_matrices():
    spec = RewardSpec([1.0, 0.0], 0.9)
    lhs, rhs = lipschitz_reward1(P_REF, P_REF, spec)
    assert lhs <= rhs + 1e-10 and lhs == 0.0 and rhs == 0.0


def test_lipschitz_reward_random_sweep(rng):
    # rewards one-signed: the TV-metered bound's domain
    for _ in range(300):
        n = int(rng.integers(2, 5))
        raw1, raw2 = rng.random((n, n)), rng.random((n, n))
        p = stochastic(raw1 / raw1.sum(axis=1, keepdims=True))
        q = stochastic(raw2 / raw2.sum(axis=1, keepdims=True))
        spec = RewardSpec(rng.uniform(0, 1, n), float(rng.choice([0.5, 0.9])))
        lhs, rhs = lipschitz_reward1(p, q, spec)
        assert lhs <= rhs + 1e-10


def test_lipschitz_reward_signed_rewards_need_factor_two():
    # with sign-changing rewards the TV-metered constant can be beaten by
    # up to 2x (the reward span); the doubled bound always holds
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(4000):
        raw1, raw2 = rng.random((2, 2)), rng.random((2, 2))
        p = stochastic(raw1 / raw1.sum(axis=1, keepdims=True))
        q = stochastic(raw2 / raw2.sum(axis=1, keepdims=True))
        spec = RewardSpec(rng.uniform(-1, 1, 2), 0.5)
        lhs, rhs = lipschitz_reward1(p, q, spec)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
        assert lhs <= 2 * rhs + 1e-10
    assert worst > 1.0  # the one-signed restriction is not vacuous


def test_lipschitz_q_random_sweep(rng):
    for _ in range(60):
        raw1, raw2 = rng.random((4, 4)), rng.random((4, 4))
        p = stochastic(raw1 / raw1.sum(axis=1, keepdims=True))
        q = stochastic(raw2 / raw2.sum(axis=1, keepdims=True))
        spec = RewardSpec(rng.uniform(0, 1, 4), 0.9)
        (lhs,), (rhs,) = check_lipschitz(p[None], q[None], spec.r[None],
                                         np.array([spec.beta]), n_actions=2)
        assert lhs <= rhs + 1e-10  # the one-pair check's default slack


@pytest.mark.parametrize("side, matrix", [(0, 1), (1, 4)], ids=["p", "q"])
@pytest.mark.parametrize("n_actions", [1, 2])
def test_check_lipschitz_names_a_bad_row_of_either_stack(side, matrix, n_actions):
    # p and q are validated as the one (2k, N, N) stack (p; q): a bad row 2 of
    # matrix 1 of p or of q is named, q's matrix j as matrix k + j (k = 3)
    rng, k = np.random.default_rng(29), 3
    pair = [np.array([random_rows(rng, 4) for _ in range(k)]) for _ in range(2)]
    pair[side][1, 2] = [0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(chains.InvariantError, match=rf"^row 2 of matrix {matrix} sums to 0\.9375,"):
        check_lipschitz(*pair, rng.uniform(0, 1, (k, 4)), np.full(k, 0.9), n_actions)


def test_pair_checks_solve_both_members_of_every_pair_in_one_call(monkeypatch):
    rng, k = np.random.default_rng(23), 5
    p, q = (np.array([random_rows(rng, 4) for _ in range(k)]) for _ in range(2))
    r, beta = rng.uniform(0, 1, (k, 4)), np.array([0.5, 0.9, 0.99, 0.5, 0.9])
    beta_hat, x_restart = beta + (1 - beta) * 0.5, rng.integers(4, size=k)
    shapes, real = [], dp.exact_q
    monkeypatch.setattr(dp, "exact_q", lambda m, *a, **kw: shapes.append(m.shape)
                        or real(m, *a, **kw))

    def sides(i):  # every check on pairs i (a slice), one call each
        return [side.tobytes() for side in (
            *dp.check_lipschitz(p[i], q[i], r[i], beta[i], 1),
            *dp.check_lipschitz(p[i], q[i], r[i], beta[i], 2),
            *dp.check_restart_identities(p[i], r[i], beta[i], beta_hat[i], x_restart[i]))]

    stacked = sides(slice(None))
    # one exact_q call per check, both members stacked
    assert shapes == [(2 * k, 4, 4)] * 3
    for i in range(k):  # each pair's sides equal its own k = 1 calls bit for bit
        one = sides(slice(i, i + 1))
        assert one == [np.frombuffer(side, dtype=np.float64)[i:i + 1].tobytes()
                       for side in stacked]


# ------------------------------------------------------------ restart identity

def test_restart_identity_zero_rewards():
    sides = restart_identity1(P_REF, RewardSpec([0.0, 0.0], 0.5), 0.8, 0)
    assert restart_holds(*sides) and sides[:2] == (0.0, 0.0)


def test_restart_identity_swap_example():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = RewardSpec([1.0, 0.0], 0.5)
    lhs, rhs, rho, rho_bound = restart_identity1(swap, spec, beta_hat=0.8, x_restart=0)
    assert restart_holds(lhs, rhs, rho, rho_bound)
    # both sides equal 10/3 at the restart state; rho exactly beta/beta_hat
    assert lhs == pytest.approx(10 / 3, abs=1e-12)
    assert rhs == pytest.approx(10 / 3, abs=1e-12)
    assert rho == pytest.approx(0.625, abs=1e-15)


def test_restart_identity_random_sweep(rng):
    for _ in range(150):
        n = int(rng.integers(2, 5))
        raw = rng.random((n, n))
        p = stochastic(raw / raw.sum(axis=1, keepdims=True))
        beta = float(rng.uniform(0.2, 0.9))
        beta_hat = beta + (1 - beta) * float(rng.uniform(0.2, 0.9))
        spec = RewardSpec(rng.uniform(-1, 1, n), beta)
        sides = restart_identity1(p, spec, beta_hat, int(rng.integers(n)))
        assert restart_holds(*sides)
        assert sides[2] <= beta / beta_hat + 1e-12


def test_restart_identity_rejects_bad_discounts():
    with pytest.raises(ValueError):
        restart_identity1(P_REF, RewardSpec([1.0, 0.0], 0.5), 0.4, 0)
