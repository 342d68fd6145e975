"""Closed-form evaluators for the mixing and tracking bounds, plus the
sequence-lemma oracles the test suite leans on.

Conventions shared by every evaluator here:
  * rho is the uniform ergodicity-coefficient bound in (0, 1); evaluators
    reject rho >= 1 (the bounds go vacuous there)
  * gamma_p = math.inf is the static chain: drift-driven terms vanish
    exactly instead of needing a separate caller code path
  * the mixing window tau = ceil(8 log T / |log rho|) is _mixing_window's
  * horizons written T/2 floor for odd T
  * stacks only, one case a row: (m, n) starts or (m,) initial gaps give
    (m,) Theorem 1 bounds, and the lemma oracles take (k, T) stacks
  * a check returns its sides, never a verdict: the caller judges
    lhs <= rhs at its own tolerance, as with dp's checks
  * every damped recursion z <- m z + c runs through the one step-major
    _linear_scan
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import chains

__all__ = [
    "ExponentTriple",
    "Thm2Constants",
    "homogeneous_comparison_bound",
    "stationarity_gap_bound",
    "tracking_error_bound",
    "classify_regime",
    "power_sum_bounds",
    "decaying_sum_check",
    "recursion_coefficients",
    "unroll_recursion",
    "dominating_sequence",
    "conditional_mixing_check",
    "noise_envelope",
    "noise_envelope_coverage",
]


@dataclass(frozen=True)
class ExponentTriple:
    """Decay exponents: matrix drift, learning rate, stationary-minimum floor.

    Standing assumptions: gamma_alpha in (0,1) and gamma_alpha + gamma_pi < 1.
    gamma_p may be inf (static chain).
    """

    gamma_p: float
    gamma_alpha: float
    gamma_pi: float

    def __post_init__(self):
        if not 0 < self.gamma_alpha < 1:
            raise ValueError("gamma_alpha must lie in (0, 1)")
        if not self.gamma_pi >= 0:  # NaN fails too
            raise ValueError("gamma_pi must be non-negative")
        if not self.gamma_alpha + self.gamma_pi < 1:
            raise ValueError("need gamma_alpha + gamma_pi < 1")
        if not self.gamma_p >= 0:
            raise ValueError("gamma_p must be non-negative (inf allowed)")


def classify_regime(exps: ExponentTriple) -> dict:
    """{"regime", "same_rate_as_static", "adiabatic_under_conjecture"}.

    regime: adiabatic iff gamma_p > gamma_alpha + gamma_pi and gamma_alpha > 3 gamma_pi;
    diabatic iff gamma_p < gamma_alpha + gamma_pi; boundary otherwise.

    same_rate_as_static: gamma_p - gamma_alpha - gamma_pi > (gamma_alpha - 3 gamma_pi)/2,
    i.e. the drift term decays no slower than the static-chain noise term.
    adiabatic_under_conjecture flags the (unproven, weaker) gamma_alpha > gamma_pi
    variant for experiment labeling; nothing asserts on it.
    """
    gp, ga, gpi = exps.gamma_p, exps.gamma_alpha, exps.gamma_pi
    drift_margin = gp - ga - gpi  # inf - finite = inf, as wanted
    if drift_margin > 0 and ga > 3 * gpi:
        regime = "adiabatic"
    elif drift_margin < 0:
        regime = "diabatic"
    else:
        regime = "boundary"
    return {"regime": regime,
            "same_rate_as_static": bool(drift_margin > (ga - 3 * gpi) / 2.0),
            "adiabatic_under_conjecture": bool(drift_margin > 0 and ga > gpi)}


def homogeneous_comparison_bound(lam, mu, p_ref, block):
    """Upper bound on || lam P^(1)...P^(T) - mu P_ref^T ||, per start.

    ||lam - mu|| rho(P_ref)^T + sum_t ||P^(t) - P_ref|| rho(P_ref)^(T-t), from
    the (T, n, n) block P^(1..T), for each row of an (m, n) stack of starts
    lam: (m,) bounds.  The drift terms are added one t at a time, so a row's
    bound is its m = 1 call's bit for bit.
    """
    lam, mu, p_ref, block = (np.asarray(a, dtype=float) for a in (lam, mu, p_ref, block))
    if block.ndim != 3 or not len(block):
        raise ValueError("need a non-empty (T, n, n) block of schedule matrices")
    n = block.shape[2]  # broadcasting would pair unrelated states
    if lam.ndim != 2 or lam.shape[1] != n or mu.shape != (n,) or p_ref.shape != (n, n):
        raise ValueError(f"dimension mismatch: lam {lam.shape} (an (m, n) stack of starts), "
                         f"mu {mu.shape} and p_ref {p_ref.shape} vs a block of {n}-state matrices")
    for arr in (lam, mu[None], p_ref, block):
        chains._check_rows(arr)
    rho = float(chains.ergodicity_coefficients(p_ref[None])[0])
    total = 0.5 * np.abs(lam - mu).sum(axis=1) * rho ** len(block)
    for t, d_t in enumerate(chains.matrix_tv_distances(block, p_ref[None]).tolist(), 1):
        total = total + d_t * rho ** (len(block) - t)
    return total


def stationarity_gap_bound(phi, rho: float, t_horizon: int, init_gap):
    """Upper bound on the TV gap between the inhomogeneous marginal at T and
    the stationary distribution of the current matrix.

    The sequence phi(1..T/2) must dominate the backward per-step drift
    ||P^(t) - P^(t-1)|| and be positive (or zero) decreasing.  The bound is

        phi(T/2) rho/(1-rho)^2 + rho^(T/2+1)/(1-rho) * sum_{t<=T/2} phi(t)
        + init_gap * rho^T

    with T/2 floored for odd T, for each entry of the (m,) init_gap: (m,)
    bounds.  rho >= 1 is rejected (vacuous bound).
    """
    init_gap = np.asarray(init_gap, dtype=float)
    if init_gap.ndim != 1:
        raise ValueError(f"init_gap must be an (m,) array, got shape {init_gap.shape}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if t_horizon < 2:
        raise ValueError("t_horizon must be >= 2")
    half = t_horizon // 2
    phi = list(phi[:half])
    if len(phi) < half:
        raise ValueError(f"need phi(1..{half}), got {len(phi)} values")
    return (phi[-1] * rho / (1.0 - rho) ** 2 + rho ** (half + 1) / (1.0 - rho) * sum(phi)
            + init_gap * rho ** t_horizon)


@dataclass(frozen=True)
class Thm2Constants:
    """Constants entering the four-term tracking bound.

    r_max_eff plays the value scale R_max = r_max/(1-beta); k is the
    fixed-point Lipschitz constant.  The d_* constants absorb the theory's
    unpinned dependences on the rate, floor and drift constants; they
    default to 1 and only rate exponents are ever asserted on.
    """

    r_max_eff: float
    rho: float
    beta: float
    d_a: float = 1.0
    d_b: float = 1.0
    d_b_prime: float = 1.0
    k: float = 1.0
    delta: float = 0.05
    tau_coeff: float = 4.0

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        for name in ("r_max_eff", "d_a", "d_b", "d_b_prime", "k"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        if not 0 < self.tau_coeff < math.inf:
            raise ValueError(f"tau_coeff must be finite and positive, got {self.tau_coeff!r}")

    @staticmethod
    def from_spec(doc: dict) -> "Thm2Constants":
        chains._object(doc, "bound constants", [f.name for f in fields(Thm2Constants)],
                       [f.name for f in fields(Thm2Constants) if f.default is MISSING])
        return Thm2Constants(**{k: chains.number(doc, k) for k in doc})


def tracking_error_bound(consts: Thm2Constants, exps: ExponentTriple,
                         t_horizon: int) -> dict:
    """Evaluate the four-term high-probability tracking bound at horizon T: its
    terms, total and tau, with the regime and same_rate_as_static of
    classify_regime.

    ada1: stretched-exponential forgetting of the initial condition
    ada2: martingale-noise term, sqrt(tau log(2 T tau / delta)) / T^((ga-3gpi)/2)
    ada3: drift term d_b k/(1-beta) / T^(gp-ga-gpi)   (0 for static chains)
    ada4: conditional-mixing remainder, three summands
    tau = tau_coeff * log T / |log rho|.
    """
    gp, ga, gpi = exps.gamma_p, exps.gamma_alpha, exps.gamma_pi
    if not 1.0 - ga - gpi > 0:
        raise ValueError("need gamma_alpha + gamma_pi < 1")
    if t_horizon < 2:
        raise ValueError("t_horizon must be >= 2")
    big_t = float(t_horizon)
    rho, beta, r_max = consts.rho, consts.beta, consts.r_max_eff
    tau = consts.tau_coeff * math.log(big_t) / abs(math.log(rho))

    ada1 = (2.0 * r_max * math.exp((1.0 - beta) * tau)
            * math.exp(-(big_t ** (1.0 - ga - gpi) - 1.0) / (1.0 - ga - gpi)))
    ada2 = (consts.d_a / (1.0 - beta)
            * math.sqrt(tau * math.log(2.0 * big_t * tau / consts.delta))
            / big_t ** ((ga - 3.0 * gpi) / 2.0))
    if gp == math.inf:
        ada3 = drift_summand = 0.0
    else:
        ada3 = consts.d_b * consts.k / (1.0 - beta) / big_t ** (gp - ga - gpi)
        drift_summand = (2.0 * r_max * consts.d_b_prime
                         / ((1.0 - rho) ** 2 * (1.0 - beta)) / big_t ** (gp - gpi))
    ada4 = (drift_summand
            + 8.0 * r_max / (1.0 - rho) ** 2 * math.log(big_t) / big_t ** 3
            + 2.0 * r_max / big_t ** 3)
    terms = {"ada1": ada1, "ada2": ada2, "ada3": ada3, "ada4": ada4,
             "total": ada1 + ada2 + ada3 + ada4, "tau": tau}
    lost = [name for name, value in terms.items() if not math.isfinite(value)]
    if lost:  # a float product overflowed to inf (or inf * 0 to NaN)
        raise ArithmeticError(f"{', '.join(lost)} not finite")
    label = classify_regime(exps)
    return {**terms, "regime": label["regime"],
            "same_rate_as_static": label["same_rate_as_static"]}


def power_sum_bounds(s: int, t: int, gamma: float):
    """Integral bounds on sum_{n=s}^{t} n^-gamma.

    lower = (t^(1-gamma) - s^(1-gamma))/(1-gamma), upper = s^-gamma + lower;
    the gamma = 1 case reads the braceted expression as log t - log s.
    """
    if not 1 <= s <= t:
        raise ValueError("need 1 <= s <= t")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma == 1.0:
        lower = math.log(t) - math.log(s)
    else:
        lower = (t ** (1.0 - gamma) - s ** (1.0 - gamma)) / (1.0 - gamma)
    return lower, s ** -gamma + lower


def _stacks(*arrays, names: str) -> list:
    """The arrays as float64 (k, T) stacks of one shape, one case a row."""
    out = [np.asarray(arr, dtype=float) for arr in arrays]
    if out[0].ndim != 2 or any(arr.shape != out[0].shape for arr in out):
        raise ValueError(f"{names} must be (k, T) stacks of one shape, got shapes "
                         f"{[arr.shape for arr in out]}")
    return out


def decaying_sum_check(a, b, t_horizon: int):
    """Sides of sum_t a_t b_t prod_{s>t} (1-a_s) <= b_{T/2} + e^{-sum_{t>=T/2} a_t} sum_{t<=T/2} a_t b_t.

    a_t in (0,1), b_t non-negative decreasing, as (k, T) stacks over
    t = 1..T; returns (lhs, rhs), each (k,).  The left side is evaluated by
    direct recursion.
    """
    a_arr, b_arr = _stacks(a, b, names="a and b")
    if a_arr.shape[1] != t_horizon:
        raise ValueError(f"need sequences of length t_horizon={t_horizon}, got {a_arr.shape[1]}")
    if not ((a_arr > 0) & (a_arr < 1)).all():
        raise ValueError("a_t must lie in (0, 1)")
    if (b_arr < 0).any() or (np.diff(b_arr) > 0).any():
        raise ValueError("b_t must be non-negative and decreasing")
    lhs = _linear_scan(0.0, 1.0 - a_arr, a_arr * b_arr)[:, -1]  # (1 - a) lhs + a b
    half = max(t_horizon // 2, 1)
    # math.exp per row: np.exp differs from it in the last ulp on some inputs
    tail = np.vectorize(math.exp, otypes=[float])(-a_arr[:, half - 1:].sum(axis=1))
    return lhs, b_arr[:, half - 1] + tail * (a_arr[:, :half] * b_arr[:, :half]).sum(axis=1)


def recursion_coefficients(a_big, alpha, verify_tol: float = 1e-10) -> np.ndarray:
    """Invert A_T = sum_t a_t alpha_t prod_{s>t}(1-alpha_s): return the a_t.

    a_t = (A_t - A_{t-1})/alpha_t + A_{t-1} with A_0 = 0, along the rows of
    (k, T) stacks; the reconstruction identity is re-verified at every
    horizon to verify_tol before returning.
    """
    a_big, alpha = _stacks(a_big, alpha, names="A and alpha")
    if (alpha <= 0).any():
        raise ValueError("alpha_t must be positive")
    prev = np.concatenate([np.zeros_like(a_big[:, :1]), a_big[:, :-1]], axis=1)
    coeffs = (a_big - prev) / alpha + prev
    drift = np.abs(_linear_scan(0.0, 1.0 - alpha, alpha * coeffs) - a_big)
    bad = np.argwhere(drift > verify_tol)
    if bad.size:  # row-major: the first row that drifts, at its first t
        row, t = bad[0]
        raise ArithmeticError(f"reconstruction drifted to {float(drift[row, t])!r} "
                              f"at t={t + 1} of row {row}")
    return coeffs


def _linear_scan(z0, m, c) -> np.ndarray:
    """z_1..z_N of z_{n+1} = m_n z_n + c_n along the last axis of c: the one
    per-step recursion of this module.  Leading axes are independent rows,
    z0 is a scalar or one start per row, and m broadcasts against c.
    Step-major, so a (k, N) stack costs N vector steps."""
    c, z = np.asarray(c, dtype=float), np.asarray(z0, dtype=float)
    out = np.empty(c.shape[::-1])
    for n, (m_n, c_n) in enumerate(zip(np.asarray(m).T, c.T, strict=True)):
        z = m_n * z + c_n
        out[n] = z
    return out.T


def unroll_recursion(z0, a, c) -> np.ndarray:
    """Iterates [z_1, ..., z_N] of z_{n+1} = (1 - a_n) z_n + c_n, run step by
    step (_linear_scan); they equal the closed form
    z_{n+1} = z_0 prod_{k<=n}(1-a_k) + sum_{j<=n} c_j prod_{j<k<=n}(1-a_k).
    When the recursion holds with <= instead of =, they are an upper bound.
    a and c are (k, N) stacks, one case a row, with z0 a scalar or one start
    per row.
    """
    a, c = _stacks(a, c, names="a and c")
    return _linear_scan(z0, 1.0 - a, c)


def dominating_sequence(z0_tilde, alpha, beta, c) -> np.ndarray:
    """The dominating recursion z~_{t+1} = (1 - alpha_t (1-beta)) z~_t + c_t.

    Any positive sequence satisfying the unrolled inequality with an extra
    beta z_s feedback term stays below this one (given z~_0 >= z_0).  alpha
    and c are (k, T) stacks; z0_tilde and beta are scalars or one value per
    row.
    """
    alpha, c = _stacks(alpha, c, names="alpha and c")
    damping = alpha * (1.0 - np.asarray(beta, dtype=float))[..., None]
    return unroll_recursion(z0_tilde, damping, c)


def _mixing_window(t_horizon: int, rho: float) -> int:
    """tau = ceil(8 log T / |log rho|), the steps a conditional marginal mixes over."""
    return math.ceil(8.0 * math.log(t_horizon) / abs(math.log(rho)))


def conditional_mixing_check(schedule, t: int, t_horizon: int, rho: float):
    """Worst-case conditional marginal vs the current stationary distribution.

    With tau = ceil(8 log T / |log rho|) and tau <= t <= T, returns (lhs, rhs):
    the exact worst-case gap max_x || e_x P^(t-tau+1)...P^(t) - pi^(t) || and
    the bound it must fall below,
    D_P/((1-rho)^2 t^gamma_p) + 4 log T/((1-rho)^2 T^4) + 1/T^4
    with D_P = c_p 2^gamma_p (first term 0 for static schedules).
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if schedule.rho_cap > rho + 1e-12:
        raise ValueError(f"schedule rho_cap {schedule.rho_cap} exceeds supplied rho {rho}")
    big_t = float(t_horizon)
    tau = _mixing_window(t_horizon, rho)
    if not tau <= t <= t_horizon:
        raise ValueError(f"need tau={tau} <= t <= T={t_horizon}")

    window = schedule.block(t - tau + 1, t + 1)  # P^(t-tau+1..t), validated
    marginals = np.eye(schedule.n)  # row x = conditional law started from point mass e_x
    for mat in window:
        marginals = marginals @ mat
    pi = chains.stationary_stack(window[-1:])[0]
    lhs = float(0.5 * np.abs(marginals - pi).sum(axis=1).max())

    params = schedule.params
    if params.gamma_p == math.inf:
        drift_term = 0.0
    else:
        d_p = params.c_p * 2.0 ** params.gamma_p
        drift_term = d_p / ((1.0 - rho) ** 2 * t ** params.gamma_p)
    return lhs, (drift_term + 4.0 * math.log(big_t) / ((1.0 - rho) ** 2 * big_t ** 4)
                 + big_t ** -4)


def noise_envelope(alpha: np.ndarray, pi: np.ndarray, eps_max: float, delta: float,
                   tau: int, t_max: int) -> np.ndarray:
    """High-probability envelope for the damped noise sum, per t = 1..t_max.

    z_t = sqrt(2 tau [sum_{s<=t} eps_max^2 alpha_s^2 prod_{u>s}(1-alpha_u pi_u)^2]
                log(2 T tau / delta)).
    """
    # scalar squares: the vector alpha ** 2 is x * x, not pow(x, 2), in the last ulp
    s_run = _linear_scan(0.0, (1.0 - alpha * pi)[:t_max] ** 2,
                         [x ** 2 for x in alpha[:t_max].tolist()])
    log_term = math.log(2.0 * t_max * tau / delta)
    return eps_max * np.sqrt(2.0 * tau * s_run * log_term)


def noise_envelope_coverage(alpha, pi, eps_max: float, delta: float, tau: int,
                            t_max: int, n_reps: int, seed: int):
    """Empirical coverage of the noise envelope over seeded replications.

    Each replication draws iid bounded zero-mean noise, runs the damped sum
    E_t = sum_{s=tau}^t alpha_s eps_s prod_{u>s}(1-alpha_u pi_u), and counts
    a violation if |E_t| exceeds the envelope anywhere on [tau, T].  Returns
    (violating fraction, threshold, violating count); the fraction must stay
    below the threshold delta + 2 sqrt(delta(1-delta)/N).
    """
    if n_reps < 1 or not 1 <= tau <= t_max:
        raise ValueError("need n_reps >= 1 and 1 <= tau <= t_max")
    alpha = np.asarray(alpha, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if alpha.size != t_max or pi.size != t_max:
        raise ValueError("alpha and pi must have length t_max")
    envelope = noise_envelope(alpha, pi, eps_max, delta, tau, t_max)
    eps = chains.stream(seed, 2).uniform(-eps_max, eps_max, size=(n_reps, t_max))
    lo = tau - 1  # 0-based index of step tau, where E starts from 0
    e_run = _linear_scan(0.0, 1.0 - alpha[lo:] * pi[lo:], alpha[lo:] * eps[:, lo:])
    violated = (np.abs(e_run) > envelope[lo:]).any(axis=1)
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / n_reps)
    return float(violated.mean()), threshold, int(violated.sum())
