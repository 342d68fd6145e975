"""Finite-state probability primitives.

A distribution is a float64 (n,) array and a transition matrix a float64
(n, n) array; the primitives take (k, n, n) stacks of them.  Rows are
validated (_check_rows, check_stack) and never silently repaired: a row sum
off by more than 1e-12 is a bug in the caller (usually a schedule), not
something to renormalize away.  All probability arithmetic is 64-bit
float; the stated tolerances absorb rounding.

The unsubscripted distance between distributions is total variation,
tv(a, b) = 0.5 * sum |a_x - b_x|, and between matrices the maximum row TV.

stationary_distribution and ergodicity_coefficient, the k = 1 calls of
stationary_stack and ergodicity_coefficients, have no caller in the package:
they stay only while the benchmark tracer (perfbench/tracer.py) names them.

The package's JSON inputs are read here too.  Every JSON object (config,
schedule spec, params, reward, rate, noise, the seeds and checkpoints
objects, sweep grid, bound constants) goes through one reader, _object,
which refuses a non-object, a key the object does not read and a lacking
key it needs, each by the object's name; number, integer and _read_list
read the values inside, and _resolved every number for the config hash.
"""

from __future__ import annotations

import functools

import numpy as np

ROW_SUM_TOL = 1e-12
ENTRY_TOL = 1e-12
STATIONARY_TOL = 1e-12  # the TV residual a stationary solve may leave

__all__ = [
    "InvariantError",
    "matrix_tv_distances",
    "ergodicity_coefficient",
    "ergodicity_coefficients",
    "stationary_distribution",
    "stationary_stack",
    "check_stack",
    "simulate",
    "stream",
    "next_states",
    "number",
    "integer",
]


class InvariantError(ValueError):
    """A probability vector or matrix violated its invariants."""


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
        raise InvariantError(f"row {at[-1]}{where} sums to {float(sums[at])!r}, not 1")


def matrix_tv_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximum row TV distance of each pair of two (k, n, n) stacks; a (1, n, n)
    stack pairs with every matrix of the other.  Matrices of different shapes
    raise a ValueError, where broadcasting would compare unrelated entries."""
    if p.shape[-2:] != q.shape[-2:]:
        raise ValueError(f"dimension mismatch: {p.shape[-2:]} vs {q.shape[-2:]} matrices")
    return 0.5 * np.abs(p - q).sum(axis=2).max(axis=1)


def ergodicity_coefficient(p: np.ndarray) -> float:
    """Maximum TV distance between any two rows of an (n, n) p (see ergodicity_coefficients)."""
    return float(ergodicity_coefficients(p[None])[0])


@functools.lru_cache(maxsize=64)
def _row_pairs(n: int) -> tuple:
    """The row pairs x1 < x2 of an n-state matrix as two read-only index
    arrays, built once per n: np.triu_indices costs more than a small block's
    coefficients."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def ergodicity_coefficients(mats: np.ndarray) -> np.ndarray:
    """Per-matrix maximum row-pair TV distance of a (k, n, n) stack.

    Computed brute-force over the unordered row pairs x1 < x2 (k n^2 (n-1)/2
    temporaries; a pair and its mirror give the same value, and a row with
    itself neither raises the max nor lowers the min); cross-checked against
    the equivalent overlap form 1 - min_{x1,x2} sum_y min(P[x1,y], P[x2,y]),
    which must agree to 1e-12 for every matrix.  At n = 1 there is no pair
    and both forms give 0.
    """
    i, j = _row_pairs(mats.shape[1])
    rows, others = mats[:, i, :], mats[:, j, :]
    rho = (0.5 * np.abs(rows - others).sum(axis=2)).max(axis=1, initial=0.0)
    overlap = 1.0 - np.minimum(rows, others).sum(axis=2).min(axis=1, initial=1.0)
    bad = np.abs(rho - overlap) > 1e-12
    if bad.any():
        raise ArithmeticError(f"row-pair TV maximum {float(rho[bad][0])!r} disagrees with "
                              f"overlap form {float(overlap[bad][0])!r}")
    return rho


@functools.lru_cache(maxsize=1024)
def _strongly_connected(pattern: bytes, n: int) -> bool:
    """Whether every state reaches every state along an n x n positivity pattern."""
    reach = np.frombuffer(pattern, dtype=bool).reshape(n, n) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # reach covers paths of length 2**step
        reach = (reach.astype(float) @ reach) > 0
    return bool(reach.all())


def check_stack(mats: np.ndarray) -> np.ndarray:
    """Validate the rows of a (k, n, n) stack (_check_rows) and require
    irreducibility, decided once per distinct positivity pattern."""
    _check_rows(mats)
    pos = mats > 0.0
    changes = np.flatnonzero((pos[1:] != pos[:-1]).any(axis=(1, 2)))
    for i in (0, *(changes + 1)):  # one check per run of equal patterns, memoized
        if not _strongly_connected(pos[i].tobytes(), mats.shape[1]):
            raise InvariantError(f"matrix {i} of the stack is reducible")
    return mats


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Unique pi with pi P = pi of an (n, n) p: the one-matrix case of stationary_stack."""
    if not _strongly_connected((p > 0.0).tobytes(), len(p)):
        raise ValueError("transition matrix is reducible; no unique stationary distribution")
    return stationary_stack(p[None])[0]


def stationary_stack(mats: np.ndarray) -> np.ndarray:
    """Stationary vectors (k, n) of a stack of irreducible matrices, by direct solve.

    Per matrix: (P^T - I) pi = 0 with the last equation replaced by
    sum(pi) = 1; one step of iterative refinement; the TV residual of pi P
    vs pi must come out below STATIONARY_TOL or this raises.
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
    bad = ~(resid <= STATIONARY_TOL)  # NaN fails too
    if bad.any():
        raise ValueError(f"stationary residual {float(resid[bad][0])!r} exceeds tol "
                         f"{STATIONARY_TOL!r}")
    _check_rows(pi)
    return pi


def stream(seed: int, k: int) -> np.random.Generator:
    """Random stream k of a seed: PCG64 seeded by SeedSequence([seed, k]).

    Keys in use: 0 a run's path uniforms, 1 its noise draws (made in
    learners.track alone), 2 the noise-envelope coverage draws; the verify
    suites key their cases 1-6 off the master seed and their scan anchors
    off (7, 3).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(k)])))


def next_states(cols: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of a block: entry (x, j) of the int64 (n, k) table is
    the first column i whose mass cols[i, x, j] exceeds us[j], else n - 1, for
    the block's (n, n, k) column-layout row cumsums (learners.materialize).

    A column at or below u keeps the search going, so a cumsum left
    non-monotone by a -1e-12 entry gives the index a left-to-right scan
    gives.  One pass per contiguous cols[i], i < n - 1, broadcast against us
    (simulate passes one step's (n, m) gather of m rows and m uniforms); the
    last column is never compared, so a one-state chain draws 0.
    """
    searching = np.ones(cols.shape[1:], dtype=bool)
    out = np.zeros(cols.shape[1:], dtype=np.int64)
    for col in cols[:-1]:
        searching &= col <= us
        out += searching
    return out


def simulate(schedule, t_max: int, x0: int, seeds) -> np.ndarray:
    """One read-only path of t_max + 1 states per seed, the rows of an
    (m, t_max + 1) array: states[i, t] is seed i's state after t
    transitions, transition t using schedule matrix t.

    Each seed's uniforms come from its own stream, drawn for the whole
    horizon at once, so equal (schedule, seed, t_max, x0) reproduce the
    identical row: an independent reference for the learners' block-wise
    draws.  Each block of the walk (Schedule.blocks, but its last matrix)
    is cumsummed once, and all seeds step together through next_states.
    """
    n = schedule.n
    if not 0 <= x0 < n:
        raise ValueError(f"initial state {x0} out of range for n={n}")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    uniforms = np.array([stream(s, 0).random(t_max) for s in seeds]).reshape(len(seeds), t_max)
    states = np.empty((len(seeds), t_max + 1), dtype=np.int64)
    states[:, 0] = x0
    for lo, block in schedule.blocks(1, t_max + 1):
        for t, cums in enumerate(np.cumsum(block[:-1], axis=2), lo):
            states[:, t] = next_states(cums[states[:, t - 1]].T, uniforms[:, t - 1])
    states.flags.writeable = False
    return states


def _object(value, name: str, keys=None, required=None) -> dict:
    """value, where the JSON object name is read; else a ValueError naming
    it.  Given keys, a key outside them is refused by name (a misspelt key is
    not passed over for a default), and so is a key of required (keys unless
    given) that value lacks."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    if keys is not None:
        if unknown := sorted(set(value) - set(keys)):
            raise ValueError(f"unknown {name} fields: {unknown}")
        if missing := [k for k in (keys if required is None else required) if k not in value]:
            raise ValueError(f"{name} lacks {missing}")
    return value


def _read_list(values: list, name: str, read, depth: int = 1) -> list:
    """Each entry of a JSON list through read (number, integer or
    _json_number), named name[i] in its error; at depth 2 each entry is such a
    list itself (a matrix's rows, named name[i][j]), and so on.  Anything but
    a list where one belongs is rejected by name."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list, got {values!r}")
    if depth > 1:
        return [_read_list(v, f"{name}[{i}]", read, depth - 1) for i, v in enumerate(values)]
    return [read({f"{name}[{i}]": v}, f"{name}[{i}]") for i, v in enumerate(values)]


def _json_number(doc: dict, key: str):
    """doc[key] if it is a JSON number (number reads it); a string raises a
    ValueError naming the key.  Matrix and reward entries are read so, where
    number would take a numeric string (as gamma_p takes "inf")."""
    if isinstance(doc[key], str):
        raise ValueError(f"{key} must be a number, got {doc[key]!r}")
    number(doc, key)
    return doc[key]


def number(doc: dict, key: str, *default) -> float:
    """doc[key] (or the default, given and the key absent) as a float; a raw
    JSON null, list or boolean, and an integer beyond the floats, raise a
    ValueError naming the key, not a TypeError, an OverflowError or a silent 0/1."""
    value = doc.get(key, *default) if default else doc[key]
    try:
        if not isinstance(value, bool):
            return float(value)
    except OverflowError:
        raise ValueError(f"{key} must fit a float, got an integer of "
                         f"{len(str(abs(value)))} digits") from None
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def integer(doc: dict, key: str, *default) -> int:
    """doc[key] (or the default, given and the key absent) as an int; a raw
    JSON null, list, string, boolean or non-integral number raises a ValueError
    naming the key, not a TypeError or a silent 0/1."""
    value = doc.get(key, *default) if default else doc[key]
    try:
        if not isinstance(value, bool) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _resolved(value, integers: tuple, key=None):
    """value with each JSON number in it as a run reads it (an entry named as
    _read_list names it): by integer under a key of integers, else by number,
    -0.0 as 0.0, a string number reads as +inf as "inf".  Kinds, "nan", "-inf",
    booleans, nulls and other strings stay as spelt, for their readers to name."""
    if isinstance(value, dict):
        return {k: _resolved(v, integers, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolved(v, integers, f"{key}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return value
    if key in integers:
        return value if isinstance(value, str) else integer({key: value}, key)
    if type(value) is float:  # what number reads it as: itself
        return value + 0.0
    if not isinstance(value, str):
        return number({key: value}, key) + 0.0
    try:
        read = number({key: value}, key)
    except ValueError:  # a kind
        return value
    return read + 0.0 if np.isfinite(read) else "inf" if read > 0 else value
