"""Families of drifting transition-matrix sequences {P^(t)} with certificates.

Every schedule declares a drift certificate (c_p, gamma_p): the per-step
change satisfies ||P^(t+1) - P^(t)|| <= c_p / t**gamma_p, a stationary
floor (c_pi, gamma_pi): pi^(t)_min >= c_pi / t**gamma_pi, and rho_cap, a
uniform upper bound on the ergodicity coefficient.  gamma_p = inf encodes
a constant sequence (zero drift).  Certificates are declared, then checked
at every t of the horizon by the certified walk (below), which shrinking-state
also runs over its first _SHRINK_DRIFT_CHECK steps at construction.

A family produces its matrices as validated (k, n, n) float64 blocks of
P^(t_lo..t_hi-1), block(t_lo, t_hi); matrix_at(t), the k = 1 case as an
(n, n) array, has no caller in the package and stays only while the benchmark
tracer (perfbench/tracer.py) names it.  The restart construction,
restart_wraps, acts on stacks.  Schedule.blocks is the one walk over a
horizon, blocks of at most _CHUNK steps each ending on the next one's first
matrix; _certified_blocks, the one certificate scan, rides that walk and
hands on each certified block with its pi floors and drifts
(learners.materialize walks it, so a learner steps through certified matrices
only; verify_drift drains it for its report).  The constant, interpolation
and cyclic families are one walk along a path of anchor matrices (_ArcWalk),
its drift metered in matrix-TV arc length along the convex segments between
anchors: TV is exactly linear there, so the certificates are exact rather
than estimated; its constructor is where every matrix enters the program,
validated once.  Time indexing starts at t = 1 (the power laws divide by t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chains

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
    "restart_wraps",
    "verify_drift",
    "DriftReport",
    "DriftCertificateError",
    "schedule_from_spec",
]


_PARAM_KEYS = ("c_p", "gamma_p", "c_pi", "gamma_pi")  # a spec's "params", in DriftParams order


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
        if not (self.gamma_p >= 0 and self.gamma_pi >= 0):  # NaN fails too
            raise ValueError("drift exponents must be non-negative")

    def drift_bound(self, t: int) -> float:
        if self.gamma_p == GAMMA_INF:
            return 0.0
        return self.c_p / t ** self.gamma_p

    def pi_floor(self, t: int) -> float:
        return self.c_pi / t ** self.gamma_pi

    @staticmethod
    def from_spec(doc: dict) -> "DriftParams":
        # float("inf") is GAMMA_INF, so the "inf" encoding needs no case of its own
        doc = chains._object(doc, "params", _PARAM_KEYS)
        return DriftParams(*(chains.number(doc, k) for k in _PARAM_KEYS))


_CHUNK = 2048  # steps per block of the walk (Schedule.blocks)
_SHRINK_DRIFT_CHECK = 10_000  # steps the shrinking family scans (verify_drift) at construction
_RESTART_PROBE = 64  # matrices a restart-wrapped schedule probes for its default c_pi


def _powers(t_lo: int, t_hi: int, gamma: float) -> np.ndarray:
    """t**gamma for t in [t_lo, t_hi) by Python's scalar power, which numpy's
    vectorised power does not match in the last ulp on some inputs; at
    gamma 0 and 1, where both are exact, by numpy's."""
    if gamma in (0.0, 1.0):
        return np.arange(t_lo, t_hi, dtype=float) ** gamma
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
        """P^(t) for t in [t_lo, t_hi) as a validated (k, n, n) float64 array.

        A read-only block is a view of matrices that were validated and
        checked irreducible at construction, and is handed back as is;
        every writeable block, computed for the request, passes
        chains.check_stack.
        """
        if not 1 <= t_lo < t_hi:
            raise ValueError(f"schedule time index starts at 1 and a block is non-empty, "
                             f"got [{t_lo}, {t_hi})")
        mats = self._block(int(t_lo), int(t_hi))
        return chains.check_stack(mats) if mats.flags.writeable else mats

    def blocks(self, t_lo: int, t_hi: int):
        """The walk of P^(t_lo..t_hi): yield (lo, P^(lo..hi)) with hi = min(lo +
        _CHUNK, t_hi) for lo = t_lo, t_lo + _CHUNK, ... below t_hi, so each
        block's last matrix is the next block's first."""
        for lo in range(t_lo, t_hi, _CHUNK):
            yield lo, self.block(lo, min(lo + _CHUNK, t_hi) + 1)

    def matrix_at(self, t: int) -> np.ndarray:
        return self.block(t, t + 1)[0]

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        raise NotImplementedError


def _require_irreducible(rows: np.ndarray, what: str):
    if not chains._strongly_connected((rows > 0.0).tobytes(), len(rows)):
        raise ValueError(f"{what} is reducible")


def _blend(a: np.ndarray, b: np.ndarray, w) -> np.ndarray:
    """(1 - w) a + w b; a vector w blends one matrix per weight."""
    w = np.asarray(w, dtype=float)[..., None, None]
    return (1.0 - w) * a + w * b


class _ArcWalk(Schedule):
    """Convex walk along a path of anchor matrices, advancing TV arc
    c_p/u**gamma_p at step u (rate fixed at construction).

    P^(t) sits at arc S_{t-1} = sum_{u<t} c_p/u**gamma_p along the path: on
    the segment from anchor a to anchor b, (1 - w) a + w b, with w the
    share of the segment's TV length covered.  Segments of zero length are
    skipped.  An open path stops at its last anchor; a closed path wraps
    around.  A path with no segment of positive length, or gamma_p = inf,
    is its first anchor at every t.

    Each anchor, an array-like, is validated here (square, one shared size,
    chains._check_rows, irreducible) and kept in one read-only stack, which
    the path that cannot move hands back unchecked.

    The arc prefix S_k is kept at every _CHUNK-th k, plus the last span
    summed, so memory does not grow with the horizon: a request outside
    that span is summed on from the mark at or below k_lo to the end of its
    chunk at least.  The carried mark leads each cumsum, so every S_k is the
    sequential sum bit for bit, whatever was asked for before.
    """

    def __init__(self, anchors: list, params: DriftParams, closed: bool):
        mats = [np.array(m, dtype=float) for m in anchors]
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
                raise chains.InvariantError(f"expected square matrix, got shape {m.shape}")
            if m.shape != mats[0].shape:
                raise ValueError("anchor matrices must share a dimension")
            chains._check_rows(m)
            _require_irreducible(m, f"anchor matrix {i}")
        rows = np.array(mats)
        rows.flags.writeable = False
        nxt = np.roll(rows, -1, axis=0) if closed else rows[1:]
        segs = []  # (start, end, TV length) of every segment of positive length
        for i, length in enumerate(chains.matrix_tv_distances(rows[:len(nxt)], nxt).tolist()):
            if length > 0.0:
                _require_irreducible(_blend(rows[i], nxt[i], 0.5),
                                     f"blend of anchor matrices {i},{(i + 1) % len(anchors)}")
                segs.append((rows[i], nxt[i], length))
        super().__init__(len(rows[0]), params, float(chains.ergodicity_coefficients(rows).max()))
        self._anchors, self._closed = rows, closed
        starts, ends, lengths = zip(*segs) if segs else ((), (), ())
        self._starts, self._ends = np.array(starts), np.array(ends)
        self._lengths = np.array(lengths, dtype=float)
        self._offsets = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self._rate = (params.c_p, params.gamma_p)
        self._marks = [0.0]  # S_k at k = 0, _CHUNK, 2 _CHUNK, ...
        self._span = (0, np.zeros(1))  # (k0, S_k for k in [k0, k0 + size))

    def _arc(self, k_lo: int, k_hi: int) -> np.ndarray:
        """S_k for k in [k_lo, k_hi)."""
        start, arc = self._span
        if not start <= k_lo < k_hi <= start + arc.size:
            j = min(k_lo // _CHUNK, len(self._marks) - 1)
            start, top = j * _CHUNK, max(k_hi, (k_lo // _CHUNK + 1) * _CHUNK + 1)
            c_p, gamma_p = self._rate
            arc = np.cumsum(np.concatenate([self._marks[j:j + 1],
                                            c_p / _powers(start + 1, top, gamma_p)]))
            self._marks.extend(arc[len(self._marks) * _CHUNK - start::_CHUNK].tolist())
            self._span = (start, arc)
        return arc[k_lo - start:k_hi - start]

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        if not self._lengths.size or self._rate[1] == GAMMA_INF:
            return np.broadcast_to(self._anchors[0], (t_hi - t_lo, self.n, self.n))
        pos = self._arc(t_lo - 1, t_hi - 1)
        if self._closed:
            pos = np.fmod(pos, self._offsets[-1])
        j = np.minimum(np.searchsorted(self._offsets, pos, side="right") - 1,
                       self._lengths.size - 1)
        w = np.clip((pos - self._offsets[j]) / self._lengths[j], 0.0, 1.0)
        return _blend(np.take(self._starts, j, axis=0), np.take(self._ends, j, axis=0), w)


class ConstantSchedule(_ArcWalk):
    """The one-anchor path: p at every t."""

    kind = "constant"

    def __init__(self, p, params: DriftParams | None = None):
        # p is validated as an anchor before its default floor is solved from it
        super().__init__([p], params or DriftParams(1.0, GAMMA_INF, 1.0, 0.0), closed=False)
        self.p = self._anchors[0]
        if params is None:  # zero drift and the exact stationary floor
            pi_min = float(chains.stationary_stack(self.p[None]).min())
            self.params = DriftParams(c_p=1.0, gamma_p=GAMMA_INF, c_pi=pi_min, gamma_pi=0.0)


class InterpolationSchedule(_ArcWalk):
    """The open path from p_start to p_end, advancing TV arc c_p/t^gamma_p.

    P^(t) = (1-w_t) p_start + w_t p_end with w_1 = 0 and the weight
    advancing by drift_bound(t)/D per step, clamped at 1; D is the TV
    distance between the endpoints.  D = 0 degenerates to a constant
    schedule.
    """

    kind = "interpolation"

    def __init__(self, p_start, p_end, params: DriftParams):
        super().__init__([p_start, p_end], params, closed=False)
        self.p_start, self.p_end = self._anchors
        self.segment_length = float(self._offsets[-1])  # 0.0 for equal endpoints


class CyclicSchedule(_ArcWalk):
    """Endless walk around the closed path of a cycle of anchor matrices.

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
        super().__init__(mats, params, closed=True)
        self.mats = self._anchors
        self.cycle_length = float(self._offsets[-1])


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
    h_t - h_{t+1}.  Construction runs the one certificate scan (verify_drift)
    over the first _SHRINK_DRIFT_CHECK steps and raises its
    DriftCertificateError for constants it breaks.  The ergodicity
    coefficient is exactly 1/2 for all t (h <= 1/2 when c_pi <= 1/3).
    """

    kind = "shrinking-state"

    def __init__(self, params: DriftParams):
        if not params.gamma_pi > 0:
            raise ValueError("shrinking-state family needs gamma_pi > 0")
        if not 0 < params.c_pi <= 1.0 / 3.0:
            raise ValueError("c_pi must lie in (0, 1/3] so the third state is the minimum")
        if params.gamma_p == GAMMA_INF:
            raise ValueError("drifting family cannot declare gamma_p = inf")
        super().__init__(3, params, 0.5)
        verify_drift(self, _SHRINK_DRIFT_CHECK)

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        m = self.params.c_pi / _powers(t_lo, t_hi, self.params.gamma_pi)
        h = m / (1.0 - m)
        mats = np.tile([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], (h.size, 1, 1))
        mats[:, 1, 1] -= h
        mats[:, 1, 2] = h
        return mats


def restart_wraps(mats: np.ndarray, beta: np.ndarray, beta_hat: np.ndarray,
                  x_restart: np.ndarray) -> np.ndarray:
    """Mix each matrix P of a (k, n, n) stack with a deterministic jump to
    x_restart, matrix i with its own beta[i], beta_hat[i] and x_restart[i].

    P~ = (beta/beta_hat) P + (1 - beta/beta_hat) * (all mass to x_restart),
    which forces every row-pair overlap >= 1 - beta/beta_hat and hence an
    ergodicity coefficient <= beta/beta_hat.  The caller validates the rows.
    """
    bad = ~((0 < beta) & (beta < beta_hat) & (beta_hat < 1))
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"need 0 < beta < beta_hat < 1, got beta={beta[i]}, "
                         f"beta_hat={beta_hat[i]}")
    bad = ~((0 <= x_restart) & (x_restart < mats.shape[1]))
    if bad.any():
        raise ValueError(f"restart state {x_restart[np.argmax(bad)]} out of range")
    ratio = beta / beta_hat
    out = ratio[:, None, None] * mats
    out[np.arange(len(out)), :, x_restart] += (1.0 - ratio)[:, None]
    return out


class RestartWrappedSchedule(Schedule):
    """Applies restart_wraps to every matrix of an inner schedule.

    Row scaling makes the drift shrink by exactly beta/beta_hat, and
    rho_cap = beta/beta_hat holds regardless of the inner family.  The
    stationary floor has no comparably clean transfer, so by default c_pi
    is probed on the first _RESTART_PROBE matrices and certified properly
    by the certified walk (_certified_blocks).
    """

    kind = "restart-wrapped"

    def __init__(self, inner: Schedule, beta: float, beta_hat: float, x_restart: int,
                 params: DriftParams | None = None):
        restart_wraps(inner.block(1, 2), np.array([beta]), np.array([beta_hat]),
                      np.array([x_restart]))  # checks the constants
        ratio = beta / beta_hat
        self.inner = inner
        self.beta = float(beta)
        self.beta_hat = float(beta_hat)
        self.x_restart = int(x_restart)
        if params is None:
            gamma_pi = inner.params.gamma_pi
            pis = chains.stationary_stack(self.block(1, _RESTART_PROBE + 1))
            floor = float((pis.min(axis=1) * _powers(1, _RESTART_PROBE + 1, gamma_pi)).min())
            params = DriftParams(c_p=ratio * inner.params.c_p,
                                 gamma_p=inner.params.gamma_p,
                                 c_pi=0.999 * floor, gamma_pi=gamma_pi)
        super().__init__(inner.n, params, ratio)

    def _block(self, t_lo: int, t_hi: int) -> np.ndarray:
        k = t_hi - t_lo
        return restart_wraps(self.inner.block(t_lo, t_hi), np.full(k, self.beta),
                             np.full(k, self.beta_hat), np.full(k, self.x_restart))


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
    violations: list = field(default_factory=list)
    # first t where the rounding allowance covers the whole certified step
    drift_vacuous_from_t: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


class DriftCertificateError(ValueError):
    def __init__(self, report: DriftReport):
        self.report = report
        super().__init__("; ".join(str(v) for v in report.violations))

    def __reduce__(self):  # rebuilt from the report, not the message: pickle and copy
        return type(self), (self.report,)


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
        if not scores.size:
            return
        i = int(np.argmax(self.sign * scores))
        if self.sign * scores[i] > self.sign * self.value:
            self.value, self.t = float(scores[i]), t_lo + i
        if self.violation is None and bad.any():
            i = int(np.argmax(bad))
            self.violation = CertificateViolation(self.name, t_lo + i, float(observed[i]),
                                                  self.allowed(t_lo + i))


def _drift_vacuous_from(params: DriftParams, n: int, t_max: int) -> int | None:
    """First t <= t_max with _STEP_ROUNDING * n >= drift_bound(t), else None:
    from there on a step twice the certified one passes.  The float root is
    settled against drift_bound itself, which falls with t."""
    allowance, gamma_p = _STEP_ROUNDING * n, params.gamma_p
    if gamma_p == GAMMA_INF or params.drift_bound(t_max) > allowance:
        return None
    t = max(1, math.ceil((params.c_p / allowance) ** (1 / gamma_p)) - 2) if gamma_p else 1
    while params.drift_bound(t) > allowance:
        t += 1
    return t


def _certified_blocks(s: Schedule, t_max: int):
    """verify_drift's scan as a walk: yield (lo, block, pi_min, drift) per block
    of Schedule.blocks(1, t_max + 1) before the first that breaks a bound, with
    pi_min^(t) and ||P^(t+1) - P^(t)|| at each t of P^(lo..hi-1).  The scan
    goes on to t_max, so it raises DriftCertificateError with verify_drift's
    report, or returns that report."""
    params = s.params
    drift_b = _Bound("drift c_p", 0.0, 1.0, params.drift_bound)
    floor_b = _Bound("pi floor c_pi", math.inf, -1.0, params.pi_floor)
    rho_b = _Bound("rho_cap", 0.0, 1.0, lambda t: s.rho_cap)
    bounds = (drift_b, floor_b, rho_b)
    for lo, block in s.blocks(1, t_max + 1):
        head = block[:-1]
        drift = chains.matrix_tv_distances(head, block[1:])
        step = drift[:t_max - lo]
        if params.gamma_p == GAMMA_INF:
            scaled = np.where(step <= 1e-15, 0.0, math.inf)
            bad = scaled > params.c_p + _CERT_FUZZ
        else:
            powers = _powers(lo, lo + step.size, params.gamma_p)
            scaled = step * powers
            bad = (step - _STEP_ROUNDING * s.n) * powers > params.c_p + _CERT_FUZZ
        drift_b.update(lo, scaled, step, bad)
        distinct = head if (head != head[0]).any() else head[:1]  # one solve if constant
        rhos = np.broadcast_to(chains.ergodicity_coefficients(distinct), len(head))
        rho_b.update(lo, rhos, rhos, rhos > s.rho_cap + 1e-12)
        pi_min = np.broadcast_to(chains.stationary_stack(distinct).min(axis=1), len(head))
        scaled = pi_min * _powers(lo, lo + len(head), params.gamma_pi)
        floor_b.update(lo, scaled, pi_min, scaled < params.c_pi - _CERT_FUZZ)
        if not any(b.violation for b in bounds):
            yield lo, block, pi_min, drift
    report = DriftReport(t_max, drift_b.value, drift_b.t, floor_b.value, floor_b.t,
                         rho_b.value, rho_b.t,
                         [b.violation for b in bounds if b.violation],
                         _drift_vacuous_from(params, s.n, t_max))
    if not report.ok:
        raise DriftCertificateError(report)
    return report


def verify_drift(s: Schedule, t_max: int) -> DriftReport:
    """Scan-certify a schedule's declared (c_p, gamma_p, c_pi, gamma_pi, rho_cap)
    over [1, t_max], walking P^(1..t_max+1) in blocks (Schedule.blocks).

    Checks, at every t in [1, t_max]:
      * t**gamma_p * ||P^(t+1) - P^(t)||  <=  c_p   (t < t_max; zero drift when gamma_p=inf)
      * t**gamma_pi * pi^(t)_min          >=  c_pi
      * rho(P^(t))                        <=  rho_cap
    A drift step may exceed c_p/t**gamma_p by the rounding of the stored
    matrices (_STEP_ROUNDING per state) and no more.  P^(t_max+1) enters
    no bound.  A block whose matrices all equal its first is solved once.
    Raises DriftCertificateError naming the first offending t per bound.
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    walk = _certified_blocks(s, t_max)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value


# each family's own spec keys, besides "kind", "n" and "params"
_SPEC_KEYS = {"constant": ("p",), "interpolation": ("p_start", "p_end"), "cyclic": ("mats",),
              "shrinking-state": (), "restart-wrapped": ("inner", "beta", "beta_hat", "x_restart")}


def _spec_kind(doc: dict) -> str:
    """The kind of schedule spec doc, once it names a family, holds the
    family's own keys (_SPEC_KEYS) and "params" (optional for constant), and
    no key besides those, "kind" and "n"."""
    kind = chains._object(doc, "schedule").get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    own = _SPEC_KEYS[kind]
    chains._object(doc, f"{kind} schedule spec", ("kind", "n", "params", *own),
                   own if kind == "constant" else ("params", *own))
    return kind


def _spec_anchors(doc: dict) -> list:
    """The anchor matrices of schedule spec doc in path order, each entry a
    JSON number as spelt: [p] for constant, [p_start, p_end] for
    interpolation, mats for cyclic, [] for the families that read none.
    Checks the kind and key names first (_spec_kind)."""
    kind = _spec_kind(doc)
    if kind == "cyclic":
        return chains._read_list(doc["mats"], "mats", chains._json_number, 3)
    if kind in ("constant", "interpolation"):
        return [chains._read_list(doc[k], k, chains._json_number, 2) for k in _SPEC_KEYS[kind]]
    return []


def schedule_from_spec(doc: dict) -> Schedule:
    """Build a schedule from its JSON spec: {"kind", "n", "params"} and the
    family's own keys (_SPEC_KEYS: "p" for constant, whose params are
    optional; "p_start", "p_end" for interpolation; "mats" for cyclic; none
    for shrinking-state; "inner", "beta", "beta_hat", "x_restart" for
    restart-wrapped).  Gamma values may be "inf"; any other key, a matrix
    entry that is not a JSON number, or an "n" that differs from the built
    schedule's raises."""
    anchors = _spec_anchors(doc)
    kind = doc["kind"]
    params = (DriftParams.from_spec(doc["params"])
              if kind != "constant" or "params" in doc else None)
    if kind == "constant":
        schedule = ConstantSchedule(*anchors, params)
    elif kind == "interpolation":
        schedule = InterpolationSchedule(*anchors, params)
    elif kind == "cyclic":
        schedule = CyclicSchedule(anchors, params)
    elif kind == "shrinking-state":
        schedule = ShrinkingStateSchedule(params)
    else:
        schedule = RestartWrappedSchedule(schedule_from_spec(doc["inner"]),
                                          chains.number(doc, "beta"),
                                          chains.number(doc, "beta_hat"),
                                          chains.integer(doc, "x_restart"), params)
    n = chains.integer(doc, "n", schedule.n)
    if n != schedule.n:
        raise ValueError(f"schedule spec n={n} vs its {schedule.n}-state matrices")
    return schedule
