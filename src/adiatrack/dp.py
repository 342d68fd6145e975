"""Exact ground truth for the moving fixed points: one solve, one certificate.

exact_q is the one place a fixed point is solved and certified, TD(0)'s
and Q-learning's alike: one solve expression, R = (I - beta M)^-1 r, with
M = P at one action per state and M = P F_pi in each policy-iteration round,
then one Bellman-residual bound per row, so tracking errors are measured
against machine-precision targets.  The solves, the Bellman operator G and
the Lipschitz and restart checks take stacks: (k, n, n) matrices with (k, n)
rewards and (k,) discounts, solved in one call (a check's k pairs are one
(2k, n, n) call); a one-matrix question is a k = 1 call.  The TD operator
r + beta P v is G at one action, and check_lipschitz holds for both
learners.  The checks return their sides, (k,) each, and no verdict: the
caller judges lhs <= rhs at its own tolerance.  exact_reward, exact_q's
k = 1 call at one action, has no caller in the package: it stays only while
the benchmark tracer (perfbench/tracer.py) names it.

Q-learning instances live on the product state space: a single transition
matrix over (state, action) pairs with flat index x = s * n_actions + a.
Behavior policies are baked into that matrix; there is no separate policy
object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains

__all__ = [
    "RewardSpec",
    "exact_reward",
    "exact_q",
    "bellman_g",
    "check_lipschitz",
    "check_restart_identities",
]


@dataclass(frozen=True)
class RewardSpec:
    """Bounded per-state (or per state-action) rewards and a discount in (0,1)."""

    r: np.ndarray
    beta: float

    def __post_init__(self):
        arr = np.array(self.r, dtype=float)
        if arr.ndim != 1:
            raise ValueError("rewards must be a finite vector")
        _check_rewards(arr[None], np.array([self.beta]))
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def r_max(self) -> float:
        return float(np.abs(self.r).max())

    @property
    def value_cap(self) -> float:
        """Geometric-series bound r_max / (1 - beta) on any discounted value."""
        return self.r_max / (1.0 - self.beta)

    @staticmethod
    def from_spec(doc: dict) -> "RewardSpec":
        doc = chains._object(doc, "reward", ("r", "beta"))
        r = chains._read_list(doc["r"], "r", chains._json_number)
        return RewardSpec(np.asarray(r, dtype=float), chains.number(doc, "beta"))


def _check_rewards(r: np.ndarray, beta: np.ndarray):
    """The RewardSpec contract for (k, n) rewards and their (k,) discounts."""
    if not np.isfinite(r).all():
        raise ValueError("rewards must be a finite vector")
    bad = ~((0.0 < beta) & (beta < 1.0))  # NaN fails too
    if bad.any():
        raise ValueError(f"beta must lie strictly in (0,1), got {beta[bad][0]}")


def exact_reward(p: np.ndarray, spec: RewardSpec) -> np.ndarray:
    """R of (I - beta P) R = r for an (n, n) p: exact_q's one-matrix call at one action."""
    if len(p) != spec.n:
        raise ValueError(f"dimension mismatch: matrix n={len(p)}, rewards n={spec.n}")
    return exact_q(p[None], spec.r[None], np.array([spec.beta]), 1)[0]


def _solve(mats: np.ndarray, r: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """R_i of (I - beta_i M_i) R_i = r_i for a (k, n, n) stack; (k, n)."""
    return np.linalg.solve(np.eye(mats.shape[1]) - beta[:, None, None] * mats,
                           r[:, :, None])[:, :, 0]


def _state_of_product(nsa: int, n_actions: int) -> np.ndarray:
    if nsa % n_actions != 0:
        raise ValueError(f"product-space size {nsa} not divisible by n_actions={n_actions}")
    return np.arange(nsa) // n_actions


def bellman_g(mats: np.ndarray, r: np.ndarray, beta: np.ndarray, q: np.ndarray,
              n_actions: int) -> np.ndarray:
    """One exact application r_i + beta_i E[max_a' Q_i(next_state, a')] on the
    product space for each of a (k, N, N) stack with rewards r (k, N),
    discounts beta (k,) and Q-tables q (k, N); (k, N)."""
    k, n = r.shape
    q = np.asarray(q, dtype=float)
    if q.shape != (k, n):
        raise ValueError(f"Q table shape {q.shape} does not match ({k}, {n})")
    v = q if n_actions == 1 else (  # at one action the max and the gather are identities
        q.reshape(k, n // n_actions, n_actions).max(axis=2)[:, _state_of_product(n, n_actions)])
    return r + beta[:, None] * (mats @ v[:, :, None])[:, :, 0]


# Rounding of ||GQ - Q||_inf in units of u max|Q|, u = eps/2: 2 for storing the fixed
# point, n for P @ v on n pairs, 1 each for beta *, r + and GQ - Q (with the O(u^2) terms).
_G_ROUNDING = np.finfo(float).eps / 2


def exact_q(mats: np.ndarray, r: np.ndarray, beta: np.ndarray, n_actions: int,
            tol: float = 1e-10) -> np.ndarray:
    """Optimal Q (k, N) of a (k, N, N) product-space stack with rewards r (k, N)
    and discounts beta (k,): the one fixed-point solve, for TD(0) and
    Q-learning.  At one action it solves (I - beta P) Q = r.  Above one, by
    Howard policy iteration (Puterman 1994, sec. 6.4) per row: from the
    all-zeros policy pi, the same solve with P F_pi for P, F_pi sending pair
    y to (state(y), pi(state(y))), set pi = argmax Q (lowest action on ties),
    and stop the row when pi repeats (an earlier pi if rounding flips tied
    actions); a round is one solve of the rows still iterating.  The one
    certificate: raises ArithmeticError unless every row has
    ||GQ - Q|| <= (1-beta) tol + (N + 5) u max|Q|.
    """
    k, n = r.shape
    if n_actions == 1:
        q = _solve(mats, r, beta)
    else:
        eye, s_of = np.eye(n), _state_of_product(n, n_actions)
        policies, q, seen = np.zeros((k, n // n_actions), dtype=int), np.empty((k, n)), []
        live = np.arange(k)
        while live.size:
            seen.append(policies.copy())
            follow = eye[s_of * n_actions + policies[live][:, s_of]]  # F_pi of each live row
            q[live] = _solve(mats[live] @ follow, r[live], beta[live])
            policies[live] = q[live].reshape(live.size, n // n_actions, n_actions).argmax(axis=2)
            live = live[~(np.array(seen)[:, live] == policies[live]).all(axis=2).any(axis=0)]
    resid = np.abs(bellman_g(mats, r, beta, q, n_actions) - q).max(axis=1)
    bound = (1.0 - beta) * tol + _G_ROUNDING * (n + 5) * np.abs(q).max(axis=1)
    bad = ~(resid <= bound)  # NaN fails too
    if bad.any():
        raise ArithmeticError(f"fixed point fails its certificate: Bellman residual "
                              f"{float(resid[bad][0])!r} above {float(bound[bad][0])!r}")
    return q


def check_lipschitz(p: np.ndarray, q: np.ndarray, r: np.ndarray, beta: np.ndarray,
                    n_actions: int) -> tuple:
    """Both sides (lhs, rhs), each (k,), of
    ||Q*(.;P) - Q*(.;Q)||_inf <= beta r_max/(1-beta)^2 ||P - Q|| for each pair
    of (k, N, N) product-space stacks p, q with rewards r (k, N) and discounts
    beta (k,), Q* the optimal Q-function (exact_q at tol 1e-12): at one
    action the reward function R.  Validates the (2k, N, N) stack (p; q) once
    (chains._check_rows), the rewards as RewardSpec does, and solves it.

    Holds for one-signed rewards: the TV-metered right side pairs each
    zero-mass row difference with the reward span, which equals r_max only
    when rewards do not change sign.
    """
    stack = np.concatenate([p, q])
    chains._check_rows(stack)
    _check_rewards(r, beta)
    both = exact_q(stack, np.concatenate([r, r]), np.concatenate([beta, beta]), n_actions, 1e-12)
    lhs = np.abs(both[:len(p)] - both[len(p):]).max(axis=1)
    rhs = beta * np.abs(r).max(axis=1) / (1.0 - beta) ** 2 * chains.matrix_tv_distances(p, q)
    return lhs, rhs


def check_restart_identities(p: np.ndarray, r: np.ndarray, beta: np.ndarray,
                             beta_hat: np.ndarray, x_restart: np.ndarray) -> tuple:
    """Restart construction: wrap each matrix P (chains.restart_wraps) so
    rho drops below beta/beta_hat while the discounted value at the restart
    state rescales by (1-beta)/(1-beta_hat).

    For a (k, n, n) stack with rewards r (k, n) and per-matrix beta, beta_hat
    and x_restart (k,), returns (lhs, rhs, rho, rho_bound), each (k,): the
    wrapped value and the rescaled value at x_restart (the identity couples
    the restart state to the evaluation state), the wrapped matrix's
    ergodicity coefficient and beta/beta_hat.  Validates the stack's rows
    (chains._check_rows), the rewards as RewardSpec does, the constants as
    chains.restart_wraps does, and the wrapped rows.
    """
    chains._check_rows(p)
    _check_rewards(r, beta)
    wrapped = chains.restart_wraps(p, beta, beta_hat, x_restart)
    chains._check_rows(wrapped)
    both = exact_q(np.concatenate([wrapped, p]), np.concatenate([r, r]),
                   np.concatenate([beta_hat, beta]), 1)
    at = np.arange(len(p)), x_restart
    lhs, rhs = both[:len(p)][at], (1.0 - beta) / (1.0 - beta_hat) * both[len(p):][at]
    return lhs, rhs, chains.ergodicity_coefficients(wrapped), beta / beta_hat
