import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack.bounds import (
    ExponentTriple,
    Thm2Constants,
    classify_regime,
    conditional_mixing_check,
    decaying_sum_check,
    dominating_sequence,
    homogeneous_comparison_bound,
    noise_envelope,
    noise_envelope_coverage,
    power_sum_bounds,
    recursion_coefficients,
    stationarity_gap_bound,
    tracking_error_bound,
    unroll_recursion,
)
from adiatrack import bounds, chains
from adiatrack.chains import stationary_distribution
from adiatrack.schedules import (
    ConstantSchedule,
    CyclicSchedule,
    DriftParams,
    InterpolationSchedule,
)

A = np.array([[0.9, 0.1], [0.2, 0.8]])
FLAT = np.array([[0.5, 0.5], [0.5, 0.5]])
SWAP_ISH = np.array([[0.3, 0.7], [0.6, 0.4]])


# ------------------------------------------------- homogeneous comparison bound

def test_comparison_bound_vanishes_when_nothing_differs():
    lam = np.array([0.3, 0.7])
    assert homogeneous_comparison_bound(lam[None], lam, A, np.stack([A] * 3)).tolist() == [0.0]


def test_comparison_bound_reduces_to_initial_term():
    lam, mu = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    got = homogeneous_comparison_bound(lam[None], mu, A, np.stack([A] * 5))
    assert got.tolist() == pytest.approx([0.3 * 0.7 ** 5], abs=1e-15)


def test_comparison_bound_two_matrix_hand_value():
    # T=2 with mats (FLAT, A) against reference A, from the starts e_0 and e_1:
    #   ||lam-mu|| rho^2 + ||FLAT-A|| rho^1 + ||A-A|| rho^0
    mu = np.array([0.5, 0.5])
    hand = 0.5 * 0.7 ** 2 + 0.4 * 0.7 + 0.0
    got = homogeneous_comparison_bound(np.eye(2), mu, A, np.stack([FLAT, A]))
    assert got.shape == (2,)
    np.testing.assert_allclose(got, [hand, hand], rtol=0, atol=1e-14)


def test_comparison_bound_needs_matrices():
    with pytest.raises(ValueError):
        homogeneous_comparison_bound(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), A,
                                     np.empty((0, 2, 2)))
    with pytest.raises(chains.InvariantError, match="row 1 of matrix 0 sums to"):
        homogeneous_comparison_bound(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), A,
                                     np.array([[[0.5, 0.5], [0.5, 0.6]]]))
    with pytest.raises(chains.InvariantError, match="row 0 sums to"):
        homogeneous_comparison_bound(np.array([[0.6, 0.6]]), np.array([1.0, 0.0]), A,
                                     A[None])


def test_comparison_bound_reference_of_another_size_raises():
    # broadcast against the 2-state block, the 1-state reference would read 0.5
    with pytest.raises(ValueError, match="dimension mismatch"):
        homogeneous_comparison_bound([[1.0, 0.0]], [1.0], [[1.0]], np.stack([A] * 5))
    # and against the 2-state start, a 1-state mu would read 0.1715
    with pytest.raises(ValueError, match="dimension mismatch"):
        homogeneous_comparison_bound([[1.0, 0.0]], [1.0], A, np.stack([A] * 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        homogeneous_comparison_bound(np.eye(3), [0.5, 0.5], A, np.stack([A] * 3))


def test_bound_stacks_equal_row_calls():
    # an (m, n) stack of starts gives the m one-row (m = 1) bounds bit for bit
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        rows = rng.random((n + 1, n))
        starts = rows / rows.sum(axis=1, keepdims=True)
        block = rng.random((17, n, n)) + 0.1
        block /= block.sum(axis=2, keepdims=True)
        mu = np.full(n, 1.0 / n)
        stacked = homogeneous_comparison_bound(starts, mu, block[0], block)
        assert stacked.tolist() == [homogeneous_comparison_bound(lam[None], mu, block[0],
                                                                 block).item()
                                    for lam in starts]
        gaps = 0.5 * np.abs(starts - mu).sum(axis=1)
        phi = (0.3 / np.arange(1, 9)).tolist()
        stacked = stationarity_gap_bound(phi, 0.6, 17, gaps)
        assert stacked.shape == (n + 1,)
        assert stacked.tolist() == [stationarity_gap_bound(phi, 0.6, 17, [g]).item()
                                    for g in gaps.tolist()]


# ---------------------------------------------------- stationarity gap bound

HARMONIC = [1.0, 1 / 2, 1 / 3, 1 / 4]  # phi_t = 1/t


def test_gap_bound_zero_drift_zero_init():
    assert stationarity_gap_bound([0.0] * 4, 0.5, 8, [0.0]).tolist() == [0.0]


def test_gap_bound_hand_value():
    # phi_t = 1/t, rho = 0.5, T = 4, init gap 1:
    # 0.5*(0.5/0.25) + 0.5^3/0.5*(1+0.5) + 0.5^4 = 1 + 0.375 + 0.0625
    got = stationarity_gap_bound(HARMONIC, 0.5, 4, [1.0])
    assert got.tolist() == pytest.approx([1.4375], abs=1e-15)


def test_gap_bound_odd_horizon_floors():
    # T=5 floors to the same half-horizon pieces; only the initial-gap
    # term sees the extra rho power
    (even,) = stationarity_gap_bound(HARMONIC, 0.5, 4, [1.0])
    (odd,) = stationarity_gap_bound(HARMONIC, 0.5, 5, [1.0])
    assert odd == pytest.approx(even - 0.5 ** 4 + 0.5 ** 5, abs=1e-15)


def test_gap_bound_accepts_sequence_input():
    # phi reads its first T/2 entries, from a list or an array; init_gap is
    # one value per start
    assert stationarity_gap_bound(np.array(HARMONIC), 0.5, 4, [1.0]).tolist() == [1.4375]
    got = stationarity_gap_bound(HARMONIC, 0.5, 4, np.array([1.0, 0.0]))
    np.testing.assert_allclose(got, [1.4375, 1.375], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="need phi"):
        stationarity_gap_bound(HARMONIC, 0.5, 10, [1.0])


def test_gap_bound_rejects_rho_one():
    with pytest.raises(ValueError):
        stationarity_gap_bound([0.0] * 2, 1.0, 4, [0.0])


# ------------------------------------------------------- tracking error bound

def _consts(**kw):
    base = dict(r_max_eff=1.0, rho=0.5, beta=0.5)
    base.update(kw)
    return Thm2Constants(**base)


def test_tracking_bound_drift_term_hand_value():
    rep = tracking_error_bound(_consts(), ExponentTriple(1.0, 0.5, 0.0), 100)
    # d_b * k / (1-beta) * T^-(1-0.5-0) = 2 * 100^-0.5 = 0.2
    assert rep["ada3"] == pytest.approx(0.2, abs=1e-15)


def test_tracking_bound_static_sentinel_zeroes_drift_terms():
    rep = tracking_error_bound(_consts(), ExponentTriple(math.inf, 0.6, 0.0), 1000)
    assert rep["ada3"] == 0.0
    assert rep["ada4"] == pytest.approx(8.0 / 0.25 * math.log(1000.0) / 1e9 + 2.0 / 1e9)
    assert rep["regime"] == "adiabatic"


def test_tracking_bound_total_is_sum_and_monotone_fixture():
    exps = ExponentTriple(1.0, 0.5, 0.1)
    hi = tracking_error_bound(_consts(), exps, 10 ** 6)
    lo = tracking_error_bound(_consts(), exps, 10 ** 4)
    for rep in (hi, lo):
        assert rep["total"] == rep["ada1"] + rep["ada2"] + rep["ada3"] + rep["ada4"]
        assert min(rep["ada1"], rep["ada2"], rep["ada3"], rep["ada4"]) >= 0.0
    assert hi["total"] < lo["total"]


def test_tracking_bound_tau_definition():
    rep = tracking_error_bound(_consts(tau_coeff=4.0), ExponentTriple(1.0, 0.5, 0.0), 64)
    assert rep["tau"] == pytest.approx(4.0 * math.log(64.0) / abs(math.log(0.5)))


def test_tracking_bound_json_shape():
    rep = tracking_error_bound(_consts(), ExponentTriple(1.0, 0.5, 0.0), 100)
    assert set(rep) == {"ada1", "ada2", "ada3", "ada4", "total", "tau",
                        "regime", "same_rate_as_static"}


@pytest.mark.parametrize("value", [None, "half", [0.5]])
def test_constants_from_spec_names_a_non_numeric_key(value):
    with pytest.raises(ValueError, match="beta must be a number"):
        Thm2Constants.from_spec({"r_max_eff": 1.0, "rho": 0.5, "beta": value})
    assert Thm2Constants.from_spec({"r_max_eff": 1, "rho": "0.5", "beta": 0.5}).rho == 0.5


def test_exponent_triple_standing_assumptions():
    with pytest.raises(ValueError):
        ExponentTriple(1.0, 0.6, 0.5)  # gamma_alpha + gamma_pi >= 1
    with pytest.raises(ValueError):
        ExponentTriple(1.0, 1.2, 0.0)


# ------------------------------------------------------------ regime classifier

def test_classify_regime_examples():
    lab = classify_regime(ExponentTriple(1.0, 0.5, 0.1))
    assert lab["regime"] == "adiabatic"
    assert classify_regime(ExponentTriple(0.3, 0.5, 0.0))["regime"] == "diabatic"
    lab2 = classify_regime(ExponentTriple(1.0, 0.6, 0.0))
    assert lab2["same_rate_as_static"]  # 0.4 > 0.3
    # boundary: drift rate matches the combined decay exactly
    assert classify_regime(ExponentTriple(0.6, 0.6, 0.0))["regime"] != "diabatic"
    assert classify_regime(ExponentTriple(0.6, 0.6, 0.0))["regime"] != "adiabatic"


def test_classify_regime_needs_noise_condition_for_adiabatic():
    # drift fast enough but gamma_alpha <= 3 gamma_pi: boundary, not adiabatic
    lab = classify_regime(ExponentTriple(2.0, 0.5, 0.2))
    assert lab["regime"] == "boundary"
    assert lab["adiabatic_under_conjecture"]  # 0.5 > 0.2


def test_classify_regime_static_chain():
    lab = classify_regime(ExponentTriple(math.inf, 0.6, 0.0))
    assert lab["regime"] == "adiabatic" and lab["same_rate_as_static"]


# ------------------------------------------------------------- power sum bounds

def test_power_sum_bounds_degenerate_point():
    lo, hi = power_sum_bounds(5, 5, 0.5)
    assert lo == 0.0
    assert hi == pytest.approx(5 ** -0.5)


def test_power_sum_bounds_sqrt_example():
    direct = sum(n ** -0.5 for n in range(1, 5))
    lo, hi = power_sum_bounds(1, 4, 0.5)
    assert lo == pytest.approx(2.0) and hi == pytest.approx(3.0)
    assert lo <= direct <= hi
    assert direct == pytest.approx(2.7845, abs=1e-4)


def test_power_sum_bounds_harmonic_convention():
    direct = sum(1.0 / n for n in range(1, 101))
    lo, hi = power_sum_bounds(1, 100, 1.0)
    assert lo == pytest.approx(math.log(100.0))
    assert hi == pytest.approx(1.0 + math.log(100.0))
    assert lo <= direct <= hi


@given(st.integers(1, 400), st.integers(0, 400), st.floats(0.05, 2.5))
@settings(max_examples=100, deadline=None)
def test_power_sum_bounds_bracket_direct_sum(s, extra, gamma):
    t = s + extra
    direct = float(np.sum(np.arange(s, t + 1, dtype=float) ** -gamma))
    lo, hi = power_sum_bounds(s, t, gamma)
    assert lo - 1e-10 <= direct <= hi + 1e-10


# ------------------------------------------------------------ decaying sum check

def test_decaying_sum_zero_b():
    (lhs,), (rhs,) = decaying_sum_check([[0.5] * 10], [[0.0] * 10], 10)
    assert lhs <= rhs + 1e-12 and lhs == 0.0


def test_decaying_sum_power_law_example():
    ts = np.arange(1, 65, dtype=float)
    (lhs,), (rhs,) = decaying_sum_check((0.5 / ts ** 0.5)[None], (1.0 / ts)[None], 64)
    assert lhs <= rhs + 1e-12


def test_decaying_sum_powerlaw_scaling_recorded():
    # LHS * T^gamma_b stays bounded over a horizon scan; the constant is
    # recorded, not asserted against any particular value
    scaled = []
    for t_hor in [2 ** k for k in range(4, 13)]:
        ts = np.arange(1, t_hor + 1, dtype=float)
        (lhs,), (rhs,) = decaying_sum_check((0.3 / ts ** 0.6)[None], (2.0 / ts ** 0.8)[None],
                                            t_hor)
        assert lhs <= rhs + 1e-12
        scaled.append(lhs * t_hor ** 0.8)
    assert np.isfinite(scaled).all()
    assert max(scaled) / min(scaled) < 50  # bounded, no blow-up across the scan


def test_decaying_sum_validates_inputs():
    with pytest.raises(ValueError):
        decaying_sum_check([[1.5] * 4], [[1.0] * 4], 4)
    with pytest.raises(ValueError):
        decaying_sum_check([[0.5] * 4], [[1.0, 2.0, 1.0, 0.5]], 4)


# -------------------------------------------------------- recursion coefficients

def test_recursion_coefficients_zero_sequence():
    out = recursion_coefficients(np.zeros((1, 10)), np.full((1, 10), 0.3))
    np.testing.assert_array_equal(out, np.zeros((1, 10)))


def test_recursion_coefficients_power_law_reconstructs_and_caps():
    ts = np.arange(1, 1001, dtype=float)
    a_big = 2.0 / ts ** 0.7
    alpha = 0.5 / ts ** 0.6
    (coeffs,) = recursion_coefficients(a_big[None], alpha[None], verify_tol=1e-10)  # verifies
    growth = np.abs(coeffs) * ts ** 0.7
    assert np.isfinite(growth.max())  # growth constant recorded, not pinned


def test_recursion_coefficients_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        recursion_coefficients(np.ones((1, 4)), np.array([[0.5, 0.0, 0.5, 0.5]]))


# --------------------------------------------------------- recursion unrolling

@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_unroll_recursion_matches_direct_iteration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    z0 = float(rng.uniform(0, 3))
    a = rng.uniform(0.01, 0.99, n)
    c = rng.uniform(0, 1, n)
    (closed,) = unroll_recursion(z0, a[None], c[None])
    z = z0
    for k in range(n):
        z = z * (1 - a[k]) + c[k]
        assert abs(z - closed[k]) <= 1e-10 * (1 + abs(z))
    # the closed form z0 prod_k (1-a_k) + sum_j c_j prod_{k>j} (1-a_k) at N
    tail = np.cumprod((1 - a)[::-1])[::-1]  # prod_{k>=j}
    assert abs(z0 * tail[0] + (c[:-1] * tail[1:]).sum() + c[-1] - closed[-1]) \
        <= 1e-10 * (1 + abs(z))
    starts, a_k = rng.uniform(0, 3, 3), rng.uniform(0.01, 0.99, (3, n))
    c_k = rng.uniform(0, 1, (3, n))
    rows = unroll_recursion(starts, a_k, c_k)  # a (k, N) stack is k k = 1 calls, bit for bit
    for i in range(3):
        np.testing.assert_array_equal(
            rows[i], unroll_recursion(float(starts[i]), a_k[i:i + 1], c_k[i:i + 1])[0])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_dominating_sequence_dominates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    z0 = float(rng.uniform(0, 2))
    beta = float(rng.uniform(0.05, 0.95))
    alpha = rng.uniform(0.01, 0.6, n)
    c = rng.uniform(0, 0.5, n)
    (tilde,) = dominating_sequence(z0, alpha[None], beta, c[None])
    w = z0
    z_prev = z0
    for k in range(n):
        w = (1 - alpha[k]) * w + alpha[k] * beta * z_prev + c[k]
        z_t = float(rng.random()) * w
        assert z_t <= tilde[k] + 1e-10
        z_prev = z_t


def test_lemma_oracle_stacks_equal_row_calls():
    rng = np.random.default_rng(3)
    ts = np.arange(1, 101, dtype=float)
    a = 0.5 / ts ** rng.uniform(0.1, 0.9, (4, 1))
    b = np.sort(rng.random((4, 100)))[:, ::-1]
    beta, z0 = rng.uniform(0.1, 0.9, 4), rng.uniform(0, 2, 4)
    stacked = (decaying_sum_check(a, b, 100), recursion_coefficients(b, a),
               dominating_sequence(z0, a, beta, b))
    for i in range(4):  # each row against its k = 1 call
        (lhs,), (rhs,) = decaying_sum_check(a[i:i + 1], b[i:i + 1], 100)
        assert (lhs, rhs) == (stacked[0][0][i], stacked[0][1][i])
        np.testing.assert_array_equal(stacked[1][i],
                                      recursion_coefficients(b[i:i + 1], a[i:i + 1])[0])
        np.testing.assert_array_equal(
            stacked[2][i],
            dominating_sequence(float(z0[i]), a[i:i + 1], float(beta[i]), b[i:i + 1])[0])


def test_recursion_coefficients_names_the_drifting_row():
    alpha = np.full((2, 50), 0.3)
    a_big = np.array([np.zeros(50), 2.0 / np.arange(1, 51) ** 0.7])  # row 0 rebuilds exactly
    with pytest.raises(ArithmeticError, match=r"at t=\d+ of row 1$"):
        recursion_coefficients(a_big, alpha, verify_tol=0.0)  # any rounding is drift


@pytest.mark.parametrize("call, named", [
    (lambda: decaying_sum_check([0.5] * 4, [1.0] * 4, 4), "a and b must be"),
    (lambda: recursion_coefficients(np.ones(4), np.full(4, 0.5)), "A and alpha must be"),
    (lambda: unroll_recursion(0.0, np.full(4, 0.5), np.ones(4)), "a and c must be"),
    (lambda: dominating_sequence(0.0, np.full(4, 0.5), 0.5, np.ones(4)), "alpha and c must be"),
    (lambda: homogeneous_comparison_bound([1.0, 0.0], [0.5, 0.5], A, A[None]),
     r"lam \(2,\) \(an \(m, n\) stack of starts\)"),
    (lambda: stationarity_gap_bound(HARMONIC, 0.5, 4, 1.0), r"init_gap must be an \(m,\) array"),
], ids=["decaying_sum_check", "recursion_coefficients", "unroll_recursion",
        "dominating_sequence", "homogeneous_comparison_bound", "stationarity_gap_bound"])
def test_stack_only_oracles_refuse_a_1d_input(call, named):
    # one case is a k = 1 (or m = 1) stack; a bare vector is not read as one
    with pytest.raises(ValueError, match=named):
        call()


# -------------------------------------------------------- conditional mixing

def test_conditional_mixing_constant_schedule():
    sched = ConstantSchedule(A)
    t_hor = 512
    rho = 0.7
    tau = math.ceil(8 * math.log(t_hor) / abs(math.log(rho)))
    lhs, rhs = conditional_mixing_check(sched, tau, t_hor, rho)
    assert lhs <= rhs + 1e-12
    # static chain after tau steps is within rho^tau <= T^-8 of stationary
    assert lhs <= t_hor ** -8.0 + 1e-12


def test_conditional_mixing_boundary_and_range_checks():
    sched = ConstantSchedule(A)
    rho = 0.7
    tau = math.ceil(8 * math.log(256) / abs(math.log(rho)))
    lhs, rhs = conditional_mixing_check(sched, 256, 256, rho)  # t = T
    assert lhs <= rhs + 1e-12
    with pytest.raises(ValueError):
        conditional_mixing_check(sched, tau - 1, 256, rho)
    with pytest.raises(ValueError):
        conditional_mixing_check(sched, tau, 256, rho=1.0)
    with pytest.raises(ValueError):
        conditional_mixing_check(sched, tau, 256, rho=0.5)  # below rho_cap


def test_conditional_mixing_drifting_schedule():
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.05, 1.0, 0.25, 0.0))
    t_hor = 1024
    rho = 0.7
    tau = math.ceil(8 * math.log(t_hor) / abs(math.log(rho)))
    for t in (tau, 2 * tau, t_hor):
        lhs, rhs = conditional_mixing_check(sched, t, t_hor, rho)
        assert lhs <= rhs + 1e-12


def _per_t_mixing_lhs(sched, t, tau):
    """The worst conditional gap of conditional_mixing_check, one matrix_at per step."""
    marginals = np.eye(sched.n)
    for u in range(t - tau + 1, t + 1):
        marginals = marginals @ sched.matrix_at(u)
    pi = stationary_distribution(sched.matrix_at(t))
    return float(0.5 * np.abs(marginals - pi).sum(axis=1).max())


def test_conditional_mixing_window_equals_per_t_walk():
    scheds = [InterpolationSchedule(A, FLAT, DriftParams(0.05, 1.0, 0.25, 0.0)),
              CyclicSchedule([A, SWAP_ISH], DriftParams(0.1, 0.7, 0.1, 0.0))]
    t_hor, rho = 1024, 0.8
    tau = math.ceil(8 * math.log(t_hor) / abs(math.log(rho)))
    for sched in scheds:
        for t in (tau, tau + 1, 300, 777, t_hor):
            lhs, _ = conditional_mixing_check(sched, t, t_hor, rho)
            assert lhs == _per_t_mixing_lhs(sched, t, tau)


# ---------------------------------------------------------------- noise envelope

def test_noise_envelope_monotone_in_delta():
    ts = np.arange(1, 101, dtype=float)
    alpha = 0.5 / ts ** 0.6
    pi = np.full(100, 0.5)
    wide = noise_envelope(alpha, pi, 1.0, delta=0.01, tau=4, t_max=100)
    narrow = noise_envelope(alpha, pi, 1.0, delta=0.2, tau=4, t_max=100)
    assert (wide > narrow).all()


def test_scanned_recursions_equal_their_scalar_loops():
    # the per-step loops that _linear_scan replaced, kept as the reference
    ts = np.arange(1, 1001, dtype=float)
    alpha, pi, tau = 0.5 / ts ** 0.6, np.full(1000, 0.5), 4
    damp_sq, acc, s_run = (1.0 - alpha * pi) ** 2, 0.0, np.empty(1000)
    for t in range(1000):
        acc = acc * damp_sq[t] + alpha[t] ** 2
        s_run[t] = acc
    env = np.sqrt(2.0 * tau * s_run * math.log(2.0 * 1000 * tau / 0.05))
    np.testing.assert_array_equal(noise_envelope(alpha, pi, 1.0, 0.05, tau, 1000), env)

    eps = chains.stream(7, 2).uniform(-1.0, 1.0, size=(200, 1000))
    e_run, runs = alpha[tau - 1] * eps[:, tau - 1], []
    for t in range(tau - 1, 1000):
        if t > tau - 1:
            e_run = (1.0 - alpha * pi)[t] * e_run + alpha[t] * eps[:, t]
        runs.append(e_run)
    lo = tau - 1  # noise_envelope_coverage's scan, whose envelope it never leaves here
    np.testing.assert_array_equal(
        bounds._linear_scan(0.0, 1.0 - alpha[lo:] * pi[lo:], alpha[lo:] * eps[:, lo:]),
        np.array(runs).T)
    violated = (np.abs(np.array(runs)) > env[lo:, None]).any(axis=0)
    _, _, n_violating = noise_envelope_coverage(alpha, pi, 1.0, 0.05, tau, 1000, n_reps=200,
                                                seed=7)
    assert n_violating == violated.sum()

    b = 2.0 / ts ** 0.8
    lhs = 0.0
    for t in range(1000):
        lhs = (1.0 - alpha[t]) * lhs + alpha[t] * b[t]
    assert decaying_sum_check(alpha[None], b[None], 1000)[0].tolist() == [lhs]


def test_coverage_zero_noise_never_violates():
    ts = np.arange(1, 101, dtype=float)
    fraction, threshold, n_violating = noise_envelope_coverage(
        0.5 / ts ** 0.6, np.full(100, 0.5), eps_max=0.0, delta=0.05, tau=4, t_max=100,
        n_reps=50, seed=1)
    assert n_violating == 0 and fraction <= threshold


def test_coverage_spec_point():
    ts = np.arange(1, 1001, dtype=float)
    fraction, threshold, _ = noise_envelope_coverage(
        0.5 / ts ** 0.6, np.full(1000, 0.5), eps_max=1.0, delta=0.05, tau=4, t_max=1000,
        n_reps=500, seed=7)
    assert threshold == pytest.approx(0.05 + 2 * math.sqrt(0.05 * 0.95 / 500))
    assert fraction <= threshold


def test_coverage_envelope_is_not_vacuous():
    # the realized process reaches a constant fraction of the envelope, so a
    # mis-scaled envelope (an order too tight) would be caught by coverage
    ts = np.arange(1, 1001, dtype=float)
    alpha = 0.5 / ts ** 0.6
    pi = np.full(1000, 0.5)
    env = noise_envelope(alpha, pi, 1.0, 0.05, 4, 1000)
    rng = np.random.default_rng(11)
    damp = 1.0 - alpha * pi
    hits = 0
    for _ in range(100):
        eps = rng.uniform(-1, 1, 1000)
        e = 0.0
        for t in range(3, 1000):
            e = alpha[t] * eps[t] if t == 3 else damp[t] * e + alpha[t] * eps[t]
            if abs(e) > 0.15 * env[t]:
                hits += 1
                break
    assert hits > 10
