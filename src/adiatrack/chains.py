"""Finite-state probability primitives.

Distributions and row-stochastic matrices are validated at construction and
never silently repaired: a row sum off by more than 1e-12 is a bug in the
caller (usually a schedule), not something to renormalize away.  All
probability arithmetic is 64-bit float; the stated tolerances absorb
rounding.

The unsubscripted distance between distributions is total variation,
tv(a, b) = 0.5 * sum |a_x - b_x|, and between matrices the maximum row TV.
"""

from __future__ import annotations

import functools

import numpy as np

ROW_SUM_TOL = 1e-12
ENTRY_TOL = 1e-12

__all__ = [
    "Distribution",
    "TransitionMatrix",
    "InvariantError",
    "tv_distance",
    "matrix_tv_distance",
    "matrix_tv_distances",
    "ergodicity_coefficient",
    "ergodicity_coefficients",
    "stationary_distribution",
    "stationary_stack",
    "check_stack",
    "is_irreducible",
    "second_eigenvalue_2x2",
    "propagate_marginal",
    "simulate",
    "stream",
    "next_states",
    "number",
    "integer",
]


class InvariantError(ValueError):
    """A probability object violated its construction invariants."""


def _check_rows(arr: np.ndarray):
    """Finite entries in [0, 1], every last-axis row summing to 1, within 1e-12.

    The negated range test fails on NaN and +-inf too, so finiteness is
    looked at only to name the failure."""
    lo, hi = arr.min(), arr.max()
    if not (lo >= -ENTRY_TOL and hi <= 1.0 + ENTRY_TOL):
        if not np.all(np.isfinite(arr)):
            raise InvariantError("non-finite entries")
        raise InvariantError(f"entries outside [0,1]: min={lo}, max={hi}")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        where = f" of matrix {at[0]}" if len(at) > 1 else ""
        raise InvariantError(f"row {at[-1]}{where} sums to {sums[at]!r}, not 1")


class Distribution:
    """Probability vector: entries in [0, 1], summing to 1 within 1e-12."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.array(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvariantError("distribution must be a non-empty vector")
        _check_rows(arr[None])
        arr.flags.writeable = False
        self.probs = arr

    @property
    def n(self) -> int:
        return self.probs.size

    def min_prob(self) -> float:
        return float(self.probs.min())

    def __repr__(self):
        return f"Distribution({self.probs.tolist()})"


class TransitionMatrix:
    """Row-stochastic n x n matrix: rows are Distributions within 1e-12."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvariantError(f"expected square matrix, got shape {arr.shape}")
        _check_rows(arr)
        arr.flags.writeable = False
        self.rows = arr

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def __repr__(self):
        return f"TransitionMatrix({self.rows.tolist()})"


def tv_distance(lam: Distribution, mu: Distribution) -> float:
    """Total variation 0.5 * sum |lam_x - mu_x|; symmetric, in [0, 1]."""
    if lam.n != mu.n:
        raise ValueError(f"dimension mismatch: {lam.n} vs {mu.n}")
    return 0.5 * float(np.abs(lam.probs - mu.probs).sum())


def matrix_tv_distance(p: TransitionMatrix, q: TransitionMatrix) -> float:
    """Maximum over rows of the row-wise total variation distance."""
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    return float(matrix_tv_distances(p.rows[None], q.rows[None])[0])


def matrix_tv_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """matrix_tv_distance of each pair of two (k, n, n) stacks."""
    return 0.5 * np.abs(p - q).sum(axis=2).max(axis=1)


def ergodicity_coefficient(p: TransitionMatrix) -> float:
    """Maximum TV distance between any two rows of p (see ergodicity_coefficients)."""
    return float(ergodicity_coefficients(p.rows[None])[0])


def ergodicity_coefficients(mats: np.ndarray) -> np.ndarray:
    """Per-matrix maximum row-pair TV distance of a (k, n, n) stack.

    Computed brute-force over row pairs (k n^3 temporaries); cross-checked
    against the equivalent overlap form 1 - min_{x1,x2} sum_y min(P[x1,y],
    P[x2,y]), which must agree to 1e-12 for every matrix.
    """
    rows, others = mats[:, :, None, :], mats[:, None, :, :]
    rho = (0.5 * np.abs(rows - others).sum(axis=3)).max(axis=(1, 2))
    overlap = 1.0 - np.minimum(rows, others).sum(axis=3).min(axis=(1, 2))
    bad = np.abs(rho - overlap) > 1e-12
    if bad.any():
        raise ArithmeticError(f"row-pair TV maximum {rho[bad][0]!r} disagrees with "
                              f"overlap form {overlap[bad][0]!r}")
    return rho


def is_irreducible(p: TransitionMatrix) -> bool:
    """True iff the directed graph on positive entries is strongly connected."""
    return _strongly_connected((p.rows > 0.0).tobytes(), p.n)


@functools.lru_cache(maxsize=1024)
def _strongly_connected(pattern: bytes, n: int) -> bool:
    """Whether every state reaches every state along an n x n positivity pattern."""
    reach = np.frombuffer(pattern, dtype=bool).reshape(n, n) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # reach covers paths of length 2**step
        reach = (reach.astype(float) @ reach) > 0
    return bool(reach.all())


def check_stack(mats: np.ndarray) -> np.ndarray:
    """Validate a (k, n, n) stack as TransitionMatrix validates one matrix, and
    require irreducibility, decided once per distinct positivity pattern."""
    _check_rows(mats)
    pos = mats > 0.0
    changes = np.flatnonzero((pos[1:] != pos[:-1]).any(axis=(1, 2)))
    for i in (0, *(changes + 1)):  # one check per run of equal patterns, memoized
        if not _strongly_connected(pos[i].tobytes(), mats.shape[1]):
            raise InvariantError(f"matrix {i} of the stack is reducible")
    return mats


def stationary_distribution(p: TransitionMatrix, tol: float = 1e-12) -> Distribution:
    """Unique pi with pi P = pi: the one-matrix case of stationary_stack."""
    if not is_irreducible(p):
        raise ValueError("transition matrix is reducible; no unique stationary distribution")
    return Distribution(stationary_stack(p.rows[None], tol)[0])


def stationary_stack(mats: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Stationary vectors (k, n) of a stack of irreducible matrices, by direct solve.

    Per matrix: (P^T - I) pi = 0 with the last equation replaced by
    sum(pi) = 1; one step of iterative refinement; the TV residual of pi P
    vs pi must come out below tol or this raises.
    """
    k, n, _ = mats.shape
    a = np.swapaxes(mats, 1, 2) - np.eye(n)
    a[:, -1, :] = 1.0
    b = np.broadcast_to(np.eye(n)[:, -1:], (k, n, 1))  # e_n: the sum(pi) = 1 row
    try:
        pi = np.linalg.solve(a, b)
        pi = pi + np.linalg.solve(a, b - a @ pi)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular stationary system: {exc}") from exc
    pi = pi[:, :, 0]
    resid = 0.5 * np.abs((pi[:, None, :] @ mats)[:, 0] - pi).sum(axis=1)
    bad = ~(resid <= tol)  # NaN fails too
    if bad.any():
        raise ValueError(f"stationary residual {resid[bad][0]!r} exceeds tol {tol!r}")
    _check_rows(pi)
    return pi


def second_eigenvalue_2x2(p: TransitionMatrix) -> float:
    """The non-unit eigenvalue trace(P) - 1 of a 2x2 stochastic matrix."""
    if p.n != 2:
        raise ValueError(f"analytic second eigenvalue needs n=2, got n={p.n}")
    return float(p.rows[0, 0] + p.rows[1, 1] - 1.0)


def propagate_marginal(lam0: Distribution, mats) -> Distribution:
    """Exact left fold lam0 * P1 * ... * PT, renormalized once at the end.

    The float drift |sum - 1| accumulated over the fold must stay below
    1e-9 before renormalization.
    """
    v = lam0.probs.copy()
    for m in mats:
        if m.n != v.size:
            raise ValueError(f"dimension mismatch: {v.size} vs {m.n}")
        v = v @ m.rows
    drift = abs(v.sum() - 1.0)
    if drift >= 1e-9:
        raise ArithmeticError(f"marginal drifted from the simplex by {drift!r}")
    return Distribution(v / v.sum())


def stream(seed: int, k: int) -> np.random.Generator:
    """Random stream k of a seed: PCG64 seeded by SeedSequence([seed, k]).

    Keys in use: 0 a run's path uniforms, 1 its noise draws, 2 the
    noise-envelope coverage draws; the verify suites key their cases 1-6
    off the master seed and their scan anchors off (7, 3).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(k)])))


def next_states(cums: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of a block: entry (j, x) is the first index whose
    cumulative mass in row x of cums[j] (k, n, n) exceeds us[j], else n - 1.

    A column at or below u keeps the search going, so a cumsum left
    non-monotone by a -1e-12 entry gives the index a left-to-right scan
    gives.  One pass per column over (k, n) slices.
    """
    searching = np.ones(cums.shape[:2], dtype=bool)
    out = np.zeros(cums.shape[:2], dtype=np.int64)
    for i in range(cums.shape[2] - 1):
        searching &= cums[:, :, i] <= us[:, None]
        out += searching
    return out


def simulate(schedule, t_max: int, x0: int, seed: int) -> np.ndarray:
    """Sample a read-only path of t_max + 1 states; states[t] is the state
    after t transitions, transition t using schedule matrix t.

    One uniform draw per step from the path's own seeded stream, so equal
    (schedule, seed, t_max, x0) reproduce the identical path.  Steps read
    each block of the schedule's walk (Schedule.blocks) but its last
    matrix; the uniforms are drawn for the whole horizon at once, which
    keeps this an independent reference for the learners' block-wise draws.
    """
    n = schedule.n
    if not 0 <= x0 < n:
        raise ValueError(f"initial state {x0} out of range for n={n}")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    states = np.empty(t_max + 1, dtype=np.int64)
    states[0] = x = x0
    uniforms = stream(seed, 0).random(t_max)
    for lo, block in schedule.blocks(1, t_max + 1):
        nxt = next_states(np.cumsum(block[:-1], axis=2), uniforms[lo - 1:lo + len(block) - 2])
        for t, row in enumerate(nxt.tolist(), lo):
            x = states[t] = row[x]
    states.flags.writeable = False
    return states


def _json_object(value, name: str) -> dict:
    """value, where the JSON object name is read; else a ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def number(doc: dict, key: str, *default) -> float:
    """doc[key] (or the default, given and the key absent) as a float; a raw
    JSON null or list raises a ValueError naming the key, not a TypeError."""
    value = doc.get(key, *default) if default else doc[key]
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def integer(doc: dict, key: str, *default) -> int:
    """doc[key] (or the default, given and the key absent) as an int; a raw
    JSON null, list, string or non-integral number raises a ValueError naming
    the key, not a TypeError."""
    value = doc.get(key, *default) if default else doc[key]
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} must be an integer, got {value!r}")

