"""Families of drifting transition-matrix sequences {P^(t)} with certificates.

Every schedule declares a drift certificate (c_p, gamma_p): the per-step
change satisfies ||P^(t+1) - P^(t)|| <= c_p / t**gamma_p, a stationary
floor (c_pi, gamma_pi): pi^(t)_min >= c_pi / t**gamma_pi, and rho_cap, a
uniform upper bound on the ergodicity coefficient.  gamma_p = inf encodes
a constant sequence (zero drift).  Certificates are declared, then checked
at every t of the horizon by verify_drift; construction-time checks catch
the cheap cases.

A family produces its matrices as validated (k, n, n) blocks of
P^(t_lo..t_hi-1), block(t_lo, t_hi); matrix_at(t) is the k = 1 case.
Drift is metered in matrix-TV arc length along convex segments between
anchor matrices: TV is exactly linear there, so the certificates are exact
rather than estimated.  Time indexing starts at t = 1 (the power laws
divide by t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chains
from .chains import TransitionMatrix, matrix_tv_distance

GAMMA_INF = math.inf

__all__ = [
    "GAMMA_INF",
    "DriftParams",
    "Schedule",
    "ConstantSchedule",
    "InterpolationSchedule",
    "CyclicSchedule",
    "ShrinkingStateSchedule",
    "RestartWrappedSchedule",
    "restart_wrap",
    "verify_drift",
    "DriftReport",
    "DriftCertificateError",
    "schedule_from_spec",
]


@dataclass(frozen=True)
class DriftParams:
    """Certificate constants: drift c_p/t^gamma_p, floor c_pi/t^gamma_pi."""

    c_p: float
    gamma_p: float
    c_pi: float
    gamma_pi: float

    def __post_init__(self):
        if not self.c_p > 0:
            raise ValueError("c_p must be positive")
        if not (0 < self.c_pi <= 1):
            raise ValueError("c_pi must lie in (0, 1]")
        if self.gamma_p < 0 or self.gamma_pi < 0:
            raise ValueError("drift exponents must be non-negative")

    def drift_bound(self, t: int) -> float:
        if self.gamma_p == GAMMA_INF:
            return 0.0
        return self.c_p / t ** self.gamma_p

    def pi_floor(self, t: int) -> float:
        return self.c_pi / t ** self.gamma_pi

    def to_spec(self) -> dict:
        gp = "inf" if self.gamma_p == GAMMA_INF else self.gamma_p
        return {"c_p": self.c_p, "gamma_p": gp, "c_pi": self.c_pi, "gamma_pi": self.gamma_pi}

    @staticmethod
    def from_spec(doc: dict) -> "DriftParams":
        gp = doc["gamma_p"]
        gp = GAMMA_INF if gp == "inf" else float(gp)
        return DriftParams(float(doc["c_p"]), gp, float(doc["c_pi"]), float(doc["gamma_pi"]))


_CHUNK = 2048  # matrices per block in chunked scans


def _powers(t_lo: int, t_hi: int, gamma: float) -> np.ndarray:
    """t**gamma for t in [t_lo, t_hi) by Python's scalar power, which numpy's
    vectorised power does not match in the last ulp on some inputs."""
    return np.fromiter((t ** gamma for t in range(t_lo, t_hi)), float, t_hi - t_lo)


class Schedule:
    """Deterministic map t -> P^(t), immutable after construction."""

    kind = "abstract"

    def __init__(self, n: int, params: DriftParams, rho_cap: float):
        self.n = int(n)
        self.params = params
        if not 0.0 <= rho_cap <= 1.0:
            raise ValueError(f"rho_cap {rho_cap} outside [0, 1]")
        self.rho_cap = float(rho_cap)

    def block(self, t_lo: int, t_hi: int) -> np.ndarray:
        """P^(t) for t in [t_lo, t_hi) as a validated (k, n, n) float64 array."""
        if not 1 <= t_lo < t_hi:
            raise ValueError(f"schedule time index starts at 1 and a block is non-empty, "
                             f"got [{t_lo}, {t_hi})")
        return chains.check_stack(self._block(int(t_lo), int(t_hi)))

    def blocks(self, t_lo: int, t_hi: int):
        """Yield (t, block) pieces of at most _CHUNK matrices covering [t_lo, t_hi)."""
        for lo in range(t_lo, t_hi, _CHUNK):
            yield lo, self.block(lo, min(lo + _CHUNK, t_hi))

    def matrix_at(self, t: int) -> TransitionMatrix:
        return TransitionMatrix(self.block(t, t + 1)[0])

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


def _require_irreducible(rows: np.ndarray, what: str):
    if not chains.is_irreducible(TransitionMatrix(rows)):
        raise ValueError(f"{what} is reducible")


def _blend(a: np.ndarray, b: np.ndarray, w) -> np.ndarray:
    """(1 - w) a + w b; a vector w blends one matrix per weight."""
    w = np.asarray(w, dtype=float)[..., None, None]
    return (1.0 - w) * a + w * b


class _ArcWalk(Schedule):
    """A walk advancing TV arc c_p/u**gamma_p at step u (rate fixed at construction).

    The arc prefix S_k is cached and grown by chunks; the carried S_m leads
    each growth's cumsum, so every S_k is the sequential sum bit for bit.
    """

    def __init__(self, n: int, params: DriftParams, rho_cap: float):
        super().__init__(n, params, rho_cap)
        self._rate = (params.c_p, params.gamma_p)
        self._prefix = np.zeros(1)

    def _arc(self, k_lo: int, k_hi: int) -> np.ndarray:
        """S_k for k in [k_lo, k_hi)."""
        m = self._prefix.size - 1
        if k_hi - 1 > m:
            top = max(k_hi - 1, m + _CHUNK)
            c_p, gamma_p = self._rate
            steps = np.concatenate([self._prefix[-1:], c_p / _powers(m + 1, top + 1, gamma_p)])
            self._prefix = np.concatenate([self._prefix, np.cumsum(steps)[1:]])
        return self._prefix[k_lo:k_hi]


class ConstantSchedule(Schedule):
    kind = "constant"

    def __init__(self, p: TransitionMatrix, params: DriftParams | None = None):
        _require_irreducible(p.rows, "constant schedule matrix")
        if params is None:
            pi_min = chains.stationary_distribution(p).min_prob()
            params = DriftParams(c_p=1.0, gamma_p=GAMMA_INF, c_pi=pi_min, gamma_pi=0.0)
        super().__init__(p.n, params, chains.ergodicity_coefficient(p))
        self.p = p

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        return np.broadcast_to(self.p.rows, (t_hi - t_lo, self.n, self.n)).copy()

    def to_spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "params": self.params.to_spec(),
                "p": self.p.rows.tolist()}


class InterpolationSchedule(_ArcWalk):
    """Convex walk from p_start toward p_end, advancing TV arc c_p/t^gamma_p.

    P^(t) = (1-w_t) p_start + w_t p_end with w_1 = 0 and the weight
    advancing by drift_bound(t)/D per step, clamped at 1; D is the TV
    distance between the endpoints.  D = 0 degenerates to a constant
    schedule.
    """

    kind = "interpolation"

    def __init__(self, p_start: TransitionMatrix, p_end: TransitionMatrix,
                 params: DriftParams):
        if p_start.n != p_end.n:
            raise ValueError("endpoint dimension mismatch")
        _require_irreducible(p_start.rows, "p_start")
        _require_irreducible(p_end.rows, "p_end")
        _require_irreducible(_blend(p_start.rows, p_end.rows, 0.5), "midpoint blend")
        rho_cap = max(chains.ergodicity_coefficient(p_start),
                      chains.ergodicity_coefficient(p_end))
        super().__init__(p_start.n, params, rho_cap)
        self.p_start = p_start
        self.p_end = p_end
        self.segment_length = matrix_tv_distance(p_start, p_end)

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        if self.segment_length == 0.0 or self._rate[1] == GAMMA_INF:
            w = np.zeros(t_hi - t_lo)
        else:
            w = np.minimum(1.0, self._arc(t_lo - 1, t_hi - 1) / self.segment_length)
        return _blend(self.p_start.rows, self.p_end.rows, w)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "params": self.params.to_spec(),
                "p_start": self.p_start.rows.tolist(),
                "p_end": self.p_end.rows.tolist()}


class CyclicSchedule(_ArcWalk):
    """Endless convex walk around a cycle of anchor matrices.

    Advances TV arc length c_p/t^gamma_p per step; gamma_p must lie in
    (0, 1) so the total arc diverges (the cycle is traversed forever) while
    the per-step increments vanish.  This is the non-convergent family: the
    matrix sequence keeps moving yet its increments go to zero.
    """

    kind = "cyclic"

    def __init__(self, mats, params: DriftParams):
        mats = list(mats)
        if len(mats) < 2:
            raise ValueError("cyclic schedule needs at least 2 matrices")
        if not 0 < params.gamma_p < 1:
            raise ValueError("cyclic schedule needs gamma_p in (0, 1); "
                             "outside that the cycle stalls or degenerates")
        n = mats[0].n
        for i, m in enumerate(mats):
            if m.n != n:
                raise ValueError("cycle matrices must share a dimension")
            _require_irreducible(m.rows, f"cycle matrix {i}")
        segs = []  # (start, end, TV length) of every non-degenerate segment
        for i, m in enumerate(mats):
            nxt = mats[(i + 1) % len(mats)]
            length = matrix_tv_distance(m, nxt)
            if length > 0.0:
                _require_irreducible(_blend(m.rows, nxt.rows, 0.5),
                                     f"blend of cycle matrices {i},{(i + 1) % len(mats)}")
                segs.append((m.rows, nxt.rows, length))
        super().__init__(n, params, max(chains.ergodicity_coefficient(m) for m in mats))
        self.mats = mats
        starts, ends, lengths = zip(*segs) if segs else ((), (), ())
        self._starts, self._ends = np.array(starts), np.array(ends)
        self._lengths = np.array(lengths, dtype=float)
        self._offsets = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self.cycle_length = float(self._offsets[-1])

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        if not self._lengths.size:
            return np.broadcast_to(self.mats[0].rows, (t_hi - t_lo, self.n, self.n)).copy()
        pos = np.fmod(self._arc(t_lo - 1, t_hi - 1), self.cycle_length)
        j = np.minimum(np.searchsorted(self._offsets, pos, side="right") - 1,
                       self._lengths.size - 1)
        w = np.clip((pos - self._offsets[j]) / self._lengths[j], 0.0, 1.0)
        return _blend(self._starts[j], self._ends[j], w)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "params": self.params.to_spec(),
                "mats": [m.rows.tolist() for m in self.mats]}


class ShrinkingStateSchedule(Schedule):
    """3-state birth-death family whose third state's stationary mass is
    exactly c_pi/t^gamma_pi.

    Built in reverse: fix the target pi^(t) = ((1-m)/2, (1-m)/2, m) with
    m = c_pi/t^gamma_pi and assemble the reversible nearest-neighbour
    chain with that stationary vector (propose a neighbour with prob 1/2,
    accept with the usual stationary-ratio rule).  With h = m/(1-m):

        [[1/2, 1/2,   0 ],
         [1/2, 1/2-h, h ],
         [ 0 , 1/2,  1/2]]

    Only the middle row moves, so the per-step drift is exactly
    h_t - h_{t+1}; construction scans it against the declared c_p/t^gamma_p
    and refuses parameter combinations that violate it.  The ergodicity
    coefficient is exactly 1/2 for all t (h <= 1/2 when c_pi <= 1/3).
    """

    kind = "shrinking-state"

    def __init__(self, params: DriftParams, drift_check_horizon: int = 10_000):
        if not params.gamma_pi > 0:
            raise ValueError("shrinking-state family needs gamma_pi > 0")
        if not 0 < params.c_pi <= 1.0 / 3.0:
            raise ValueError("c_pi must lie in (0, 1/3] so the third state is the minimum")
        if params.gamma_p == GAMMA_INF:
            raise ValueError("drifting family cannot declare gamma_p = inf")
        super().__init__(3, params, 0.5)
        h = self._block(1, drift_check_horizon + 1)[:, 1, 2]
        drift = h[:-1] - h[1:]
        allowed = params.c_p / _powers(1, drift_check_horizon, params.gamma_p)
        bad = drift > allowed + 1e-15
        if bad.any():
            t_bad = int(np.argmax(bad)) + 1
            raise ValueError(
                f"measured drift {drift[t_bad - 1]!r} at t={t_bad} exceeds the "
                f"declared bound {allowed[t_bad - 1]!r}")
        self.max_measured_drift_ratio = float((drift / allowed).max())

    def min_mass(self, t: int) -> float:
        return self.params.pi_floor(t)

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        m = self.params.c_pi / _powers(t_lo, t_hi, self.params.gamma_pi)
        h = m / (1.0 - m)
        mats = np.tile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], (h.size, 1, 1))
        mats[:, 1, 1] -= h
        mats[:, 1, 2] = h
        return mats

    def to_spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "params": self.params.to_spec()}


def restart_wrap(p: TransitionMatrix, beta: float, beta_hat: float,
                 x_restart: int) -> TransitionMatrix:
    """Mix p with a deterministic jump to x_restart.

    P~ = (beta/beta_hat) p + (1 - beta/beta_hat) * (all mass to x_restart),
    which forces every row-pair overlap >= 1 - beta/beta_hat and hence an
    ergodicity coefficient <= beta/beta_hat.
    """
    if not 0 < beta < beta_hat < 1:
        raise ValueError(f"need 0 < beta < beta_hat < 1, got beta={beta}, beta_hat={beta_hat}")
    if not 0 <= x_restart < p.n:
        raise ValueError(f"restart state {x_restart} out of range")
    return TransitionMatrix(_wrap_rows(p.rows, beta / beta_hat, x_restart))


def _wrap_rows(rows: np.ndarray, ratio: float, x_restart: int) -> np.ndarray:
    """ratio * rows plus mass 1 - ratio on column x_restart, for one matrix or a stack."""
    out = ratio * rows
    out[..., x_restart] += 1.0 - ratio
    return out


class RestartWrappedSchedule(Schedule):
    """Applies restart_wrap to every matrix of an inner schedule.

    Row scaling makes the drift shrink by exactly beta/beta_hat, and
    rho_cap = beta/beta_hat holds regardless of the inner family.  The
    stationary floor has no comparably clean transfer, so by default c_pi
    is probed on a short construction scan and certified properly by
    verify_drift.
    """

    kind = "restart-wrapped"

    def __init__(self, inner: Schedule, beta: float, beta_hat: float, x_restart: int,
                 params: DriftParams | None = None, probe_horizon: int = 64):
        restart_wrap(inner.matrix_at(1), beta, beta_hat, x_restart)  # checks the constants
        ratio = beta / beta_hat
        self.inner = inner
        self.beta = float(beta)
        self.beta_hat = float(beta_hat)
        self.x_restart = int(x_restart)
        if params is None:
            gamma_pi = inner.params.gamma_pi
            pis = chains.stationary_stack(self.block(1, probe_horizon + 1))
            floor = float((pis.min(axis=1) * _powers(1, probe_horizon + 1, gamma_pi)).min())
            params = DriftParams(c_p=ratio * inner.params.c_p,
                                 gamma_p=inner.params.gamma_p,
                                 c_pi=0.999 * floor, gamma_pi=gamma_pi)
        super().__init__(inner.n, params, ratio)

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        return _wrap_rows(self.inner.block(t_lo, t_hi), self.beta / self.beta_hat,
                          self.x_restart)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "n": self.n, "params": self.params.to_spec(),
                "inner": self.inner.to_spec(), "beta": self.beta,
                "beta_hat": self.beta_hat, "x_restart": self.x_restart}


@dataclass(frozen=True)
class CertificateViolation:
    bound: str
    t: int
    observed: float
    allowed: float

    def __str__(self):
        return (f"{self.bound} violated at t={self.t}: "
                f"observed {self.observed!r} vs allowed {self.allowed!r}")


@dataclass
class DriftReport:
    """Scan evidence for a schedule's declared certificate."""

    t_max: int
    max_scaled_drift: float
    drift_argmax_t: int
    min_scaled_pi_floor: float
    pi_argmin_t: int
    max_rho: float
    rho_argmax_t: int
    pi_checkpoint_count: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class DriftCertificateError(ValueError):
    def __init__(self, report: DriftReport):
        self.report = report
        super().__init__("; ".join(str(v) for v in report.violations))


_CERT_FUZZ = 1e-9
# Rounding bound of one measured drift step, in TV, per state.  The scan
# measures stored float64 matrices, whose step can exceed the exact
# schedule's by rounding alone: each stored entry (in [0, 1]) comes from its
# exact formula by a few operations, each off by at most eps/2.  For the
# blend that is at most 1.5 eps per entry of each matrix (1.5 n eps on the
# row TV), plus 1.5 eps for the weight increment and n eps for the step's
# own subtractions and sum: under 4 n eps.  t**gamma_p magnifies it (1.3e-16
# becomes 1.1e-9 at gamma_p = 2, t = 2917), so it is allowed on the step
# before scaling, not folded into _CERT_FUZZ.
_STEP_ROUNDING = 4 * np.finfo(float).eps


class _Bound:
    """One bound over a scan: extreme score, first t attaining it, first violation."""

    def __init__(self, name: str, start: float, sign: float, allowed):
        self.name, self.value, self.t, self.sign, self.allowed = name, start, 1, sign, allowed
        self.violation = None

    def update(self, t_lo: int, scores: np.ndarray, observed: np.ndarray, bad: np.ndarray):
        i = int(np.argmax(self.sign * scores))
        if self.sign * scores[i] > self.sign * self.value:
            self.value, self.t = float(scores[i]), t_lo + i
        if self.violation is None and bad.any():
            i = int(np.argmax(bad))
            self.violation = CertificateViolation(self.name, t_lo + i, float(observed[i]),
                                                  self.allowed(t_lo + i))


def verify_drift(s: Schedule, t_max: int) -> DriftReport:
    """Scan-certify a schedule's declared (c_p, gamma_p, c_pi, gamma_pi, rho_cap).

    Checks, at every t in [1, t_max]:
      * t**gamma_p * ||P^(t+1) - P^(t)||  <=  c_p   (t < t_max; zero drift when gamma_p=inf)
      * t**gamma_pi * pi^(t)_min          >=  c_pi
      * rho(P^(t))                        <=  rho_cap
    A drift step may exceed c_p/t**gamma_p by the rounding of the stored
    matrices (_STEP_ROUNDING per state) and no more.  The scan walks the
    schedule in fixed-size blocks, steps across block edges included, and
    solves for the stationary vector at every t.
    Raises DriftCertificateError naming the first offending t per bound.
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    params = s.params
    drift = _Bound("drift c_p", 0.0, 1.0, params.drift_bound)
    floor = _Bound("pi floor c_pi", math.inf, -1.0, params.pi_floor)
    rho = _Bound("rho_cap", 0.0, 1.0, lambda t: s.rho_cap)
    prev = None  # last matrix of the previous block
    for lo, block in s.blocks(1, t_max + 1):
        walk = block if prev is None else np.concatenate([prev, block])
        prev, d_lo = block[-1:], lo + len(block) - len(walk)  # d_lo: t of walk[0]
        step = 0.5 * np.abs(walk[1:] - walk[:-1]).sum(axis=2).max(axis=1)
        if params.gamma_p == GAMMA_INF:
            scaled = np.where(step <= 1e-15, 0.0, math.inf)
            bad = scaled > params.c_p + _CERT_FUZZ
        else:
            powers = _powers(d_lo, d_lo + step.size, params.gamma_p)
            scaled = step * powers
            bad = (step - _STEP_ROUNDING * s.n) * powers > params.c_p + _CERT_FUZZ
        drift.update(d_lo, scaled, step, bad)
        rhos = chains.ergodicity_coefficients(block)
        rho.update(lo, rhos, rhos, rhos > s.rho_cap + 1e-12)
        pi_min = chains.stationary_stack(block).min(axis=1)
        scaled = pi_min * _powers(lo, lo + len(block), params.gamma_pi)
        floor.update(lo, scaled, pi_min, scaled < params.c_pi - _CERT_FUZZ)

    violations = [b.violation for b in (drift, floor, rho) if b.violation]
    report = DriftReport(t_max, drift.value, drift.t, floor.value, floor.t, rho.value, rho.t,
                         pi_checkpoint_count=t_max, violations=violations)
    if violations:
        raise DriftCertificateError(report)
    return report


def schedule_from_spec(doc: dict) -> Schedule:
    """Build a schedule from its JSON spec (see each family's to_spec)."""
    kind = doc["kind"]
    if kind == "constant":
        params = DriftParams.from_spec(doc["params"]) if "params" in doc else None
        return ConstantSchedule(TransitionMatrix(doc["p"]), params)
    if kind not in ("interpolation", "cyclic", "shrinking-state", "restart-wrapped"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    params = DriftParams.from_spec(doc["params"])
    if kind == "interpolation":
        return InterpolationSchedule(TransitionMatrix(doc["p_start"]),
                                     TransitionMatrix(doc["p_end"]), params)
    if kind == "cyclic":
        return CyclicSchedule([TransitionMatrix(m) for m in doc["mats"]], params)
    if kind == "shrinking-state":
        return ShrinkingStateSchedule(params)
    # restart-wrapped
    inner = schedule_from_spec(doc["inner"])
    return RestartWrappedSchedule(inner, float(doc["beta"]), float(doc["beta_hat"]),
                                  int(doc["x_restart"]), params)
