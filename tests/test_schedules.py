import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack import schedules, verify
from adiatrack.chains import (
    InvariantError,
    ergodicity_coefficient,
    restart_wraps,
    stationary_distribution,
)
from adiatrack.schedules import (
    ConstantSchedule,
    CyclicSchedule,
    DriftCertificateError,
    DriftParams,
    InterpolationSchedule,
    RestartWrappedSchedule,
    ShrinkingStateSchedule,
    schedule_from_spec,
    verify_drift,
)

from conftest import config_dict, matrix_tv, stochastic

A = np.array([[0.9, 0.1], [0.2, 0.8]])
B = np.array([[0.1, 0.9], [0.8, 0.2]])
FLAT = np.array([[0.5, 0.5], [0.5, 0.5]])


def restart_wrap1(p, beta, beta_hat, x_restart):
    """restart_wraps at k = 1, its rows validated (chains._check_rows)."""
    return stochastic(restart_wraps(p[None], np.array([beta]), np.array([beta_hat]),
                                    np.array([x_restart]))[0])


def test_drift_params_validation():
    with pytest.raises(ValueError):
        DriftParams(c_p=0.0, gamma_p=1.0, c_pi=0.2, gamma_pi=0.0)
    with pytest.raises(ValueError):
        DriftParams(c_p=0.1, gamma_p=1.0, c_pi=1.5, gamma_pi=0.0)
    p = DriftParams(0.1, math.inf, 0.2, 0.0)
    assert p.drift_bound(1) == 0.0 and p.drift_bound(7) == 0.0


def test_time_index_starts_at_one():
    sched = ConstantSchedule(A)
    with pytest.raises(ValueError):
        sched.matrix_at(0)


def test_constant_schedule_same_matrix_every_t():
    sched = ConstantSchedule(A)
    np.testing.assert_array_equal(sched.matrix_at(1), sched.matrix_at(123456))
    assert sched.rho_cap == pytest.approx(0.7)
    # default floor is the exact stationary minimum
    assert sched.params.c_pi == pytest.approx(1 / 3, abs=1e-12)


def test_anchor_solves_equal_their_one_matrix_calls_bit_for_bit():
    # rho_cap and a constant path's default floor are stacked solves; the
    # one-matrix calls they replaced must give the same bits on every anchor
    # set the acceptance configs and the verify scans build
    walks = [schedule_from_spec(config_dict(name)["schedule"])
             for name in ("static_td", "adiabatic", "diabatic", "static_q")]
    walks += [s for s in verify.scan_families() if isinstance(s, schedules._ArcWalk)]
    assert len(walks) == 11
    for walk in walks:
        assert walk.rho_cap == max(ergodicity_coefficient(p) for p in walk._anchors)
        for p in walk._anchors:
            assert ConstantSchedule(p).params.c_pi == stationary_distribution(p).min()


def test_matrix_at_is_pure():
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.1, 1.0, 0.2, 0.0))
    m1 = sched.matrix_at(17)
    m2 = sched.matrix_at(17)
    np.testing.assert_array_equal(m1, m2)


# -------------------------------------------------------------- interpolation

def test_interpolation_first_increment_matches_certificate():
    # segment length 0.4; first step moves exactly c_p/1 = 0.1
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.1, 1.0, 0.2, 0.0))
    assert matrix_tv(sched.matrix_at(1), sched.matrix_at(2)) == \
        pytest.approx(0.1, abs=1e-14)
    np.testing.assert_array_equal(sched.matrix_at(1), A)


def test_interpolation_one_step_arrival_clamps():
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.9, 1.0, 0.2, 0.0))
    np.testing.assert_array_equal(sched.matrix_at(2), sched.p_end)
    np.testing.assert_array_equal(sched.matrix_at(50), sched.p_end)


def test_interpolation_equal_endpoints_is_constant():
    sched = InterpolationSchedule(A, A, DriftParams(0.1, 1.0, 0.2, 0.0))
    for t in (1, 2, 9, 100):
        assert matrix_tv(sched.matrix_at(t), A) == 0.0


def test_interpolation_rejects_reducible_endpoint():
    with pytest.raises(ValueError, match="reducible"):
        InterpolationSchedule(np.eye(2), A,
                              DriftParams(0.1, 1.0, 0.2, 0.0))


# --------------------------------------------------------------------- cyclic

def test_cyclic_identical_matrices_degenerates_to_constant():
    sched = CyclicSchedule([A, A], DriftParams(0.1, 0.7, 0.2, 0.0))
    for t in (1, 5, 1000):
        assert matrix_tv(sched.matrix_at(t), A) == 0.0


def test_cyclic_rejects_gamma_p_at_least_one():
    with pytest.raises(ValueError, match="gamma_p"):
        CyclicSchedule([A, B], DriftParams(0.1, 1.0, 0.2, 0.0))


def test_cyclic_drift_certificate_and_window_bound():
    params = DriftParams(0.1, 0.7, 0.2, 0.0)
    sched = CyclicSchedule([A, B], params)
    prev = sched.matrix_at(1)
    for t in range(1, 2000):
        nxt = sched.matrix_at(t + 1)
        assert matrix_tv(nxt, prev) <= params.drift_bound(t) + 1e-12
        prev = nxt
    # window version: matrices k steps apart differ by at most the summed bounds
    for t in (3, 50, 700):
        k = 10
        window = sum(params.drift_bound(u) for u in range(t, t + k))
        assert matrix_tv(sched.matrix_at(t), sched.matrix_at(t + k)) <= window + 1e-12


def test_cyclic_does_not_converge():
    sched = CyclicSchedule([A, B], DriftParams(0.1, 0.7, 0.2, 0.0))
    diameter = matrix_tv(A, B)
    snapshots = [sched.matrix_at(t) for t in range(1, 10_001, 250)]
    spread = max(matrix_tv(p, q)
                 for i, p in enumerate(snapshots) for q in snapshots[i + 1:])
    assert spread >= diameter / 2


# ------------------------------------------------------------- shrinking state

def test_shrinking_min_mass_values():
    sched = ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5))
    assert sched.params.pi_floor(1) == pytest.approx(0.2)
    assert sched.params.pi_floor(16) == pytest.approx(0.05)
    # stationary solve agrees with the designed vector
    pi16 = stationary_distribution(sched.matrix_at(16))
    np.testing.assert_allclose(pi16, [0.475, 0.475, 0.05], atol=1e-12)
    assert pi16.min() == pytest.approx(0.05, abs=1e-12)


def test_shrinking_rho_is_half_everywhere():
    sched = ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5))
    for t in (1, 4, 100, 10_000):
        assert ergodicity_coefficient(sched.matrix_at(t)) == pytest.approx(0.5, abs=1e-12)


def test_shrinking_measured_drift_below_declared():
    sched = ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5))
    assert verify_drift(sched, 10_000).max_scaled_drift <= 0.2
    params = sched.params
    for t in (1, 2, 10, 500, 9_999):
        drift = matrix_tv(sched.matrix_at(t + 1), sched.matrix_at(t))
        assert drift <= params.drift_bound(t) + 1e-15


def test_shrinking_rejects_undeclared_drift():
    with pytest.raises(ValueError, match="drift c_p violated at t=1: observed "):
        ShrinkingStateSchedule(DriftParams(1e-4, 1.5, 0.2, 0.5))


def test_shrinking_constructs_exactly_what_the_scan_passes():
    # 0.10579... is the scan's max_scaled_drift of c_p = 0.2 (at t = 12): a c_p
    # just below it is within the scan's rounding allowance, so it constructs
    for gap in (5e-10, 5e-11, 5e-13):
        params = DriftParams(0.10579196397463546 - gap, 1.5, 0.2, 0.5)
        assert verify_drift(ShrinkingStateSchedule(params), 10_000).ok
    # a refusal is the scan's own report on the same matrices
    params = DriftParams(1e-4, 1.5, 0.2, 0.5)
    with pytest.raises(DriftCertificateError) as refused:
        ShrinkingStateSchedule(params)
    bare = ShrinkingStateSchedule.__new__(ShrinkingStateSchedule)
    schedules.Schedule.__init__(bare, 3, params, 0.5)  # the family, unscanned
    with pytest.raises(DriftCertificateError) as scanned:
        verify_drift(bare, schedules._SHRINK_DRIFT_CHECK)
    assert refused.value.report == scanned.value.report
    assert refused.value.report.violations[0].t == 1


def test_shrinking_requires_positive_gamma_pi():
    with pytest.raises(ValueError):
        ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.0))


# -------------------------------------------------------------------- restart

def test_restart_wrap_example_matrix():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    wrapped = restart_wrap1(swap, beta=0.5, beta_hat=0.8, x_restart=0)
    np.testing.assert_allclose(wrapped, [[0.375, 0.625], [1.0, 0.0]], atol=1e-15)
    assert ergodicity_coefficient(wrapped) == pytest.approx(0.625, abs=1e-15)


def test_restart_wrap_rejects_bad_discounts():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        restart_wrap1(swap, beta=0.8, beta_hat=0.8, x_restart=0)
    with pytest.raises(ValueError):
        restart_wrap1(swap, beta=0.9, beta_hat=0.8, x_restart=0)


def test_restart_wrapped_schedule_caps_rho_and_scales_drift():
    inner = InterpolationSchedule(A, B, DriftParams(0.1, 1.0, 0.25, 0.0))
    sched = RestartWrappedSchedule(inner, beta=0.5, beta_hat=0.8, x_restart=1)
    ratio = 0.5 / 0.8
    assert sched.rho_cap == pytest.approx(ratio)
    for t in (1, 2, 7, 40):
        assert ergodicity_coefficient(sched.matrix_at(t)) <= ratio + 1e-12
        inner_drift = matrix_tv(inner.matrix_at(t + 1), inner.matrix_at(t))
        outer_drift = matrix_tv(sched.matrix_at(t + 1), sched.matrix_at(t))
        assert outer_drift == pytest.approx(ratio * inner_drift, abs=1e-14)


def test_restart_wrapped_schedule_rejects_bad_constants():
    inner = InterpolationSchedule(A, B, DriftParams(0.1, 1.0, 0.25, 0.0))
    with pytest.raises(ValueError, match="beta"):
        RestartWrappedSchedule(inner, beta=0.8, beta_hat=0.8, x_restart=0)
    for x_restart in (-1, 2):
        with pytest.raises(ValueError, match="restart state"):
            RestartWrappedSchedule(inner, beta=0.5, beta_hat=0.8, x_restart=x_restart)


# --------------------------------------------------------------- verify_drift

def test_verify_drift_constant_passes_any_cp():
    report = verify_drift(ConstantSchedule(A), t_max=200)
    assert report.ok
    assert report.max_scaled_drift == 0.0
    assert report.max_rho == pytest.approx(0.7)


def test_verify_drift_interpolation_passes():
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.1, 1.0, 0.2, 0.0))
    report = verify_drift(sched, t_max=100)
    assert report.ok
    assert report.max_scaled_drift <= 0.1 + 1e-12


def test_verify_drift_catches_underdeclared_cp_at_t1():
    # declare half the true first-step drift: certificate must fail naming t=1
    sched = InterpolationSchedule(A, FLAT, DriftParams(0.1, 1.0, 0.2, 0.0))
    sched.params = DriftParams(0.05, 1.0, 0.2, 0.0)
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(sched, t_max=50)
    violation = err.value.report.violations[0]
    assert violation.bound == "drift c_p"
    assert violation.t == 1


def test_verify_drift_catches_overdeclared_pi_floor():
    sched = ConstantSchedule(A, DriftParams(1.0, math.inf, 0.9, 0.0))
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(sched, t_max=20)
    assert any(v.bound == "pi floor c_pi" for v in err.value.report.violations)


@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_drift_certificate_error_survives_pickle_and_copy(clone):
    # rebuilt from its report, not from its message, so it can cross a process boundary
    sched = ConstantSchedule(A, DriftParams(1.0, math.inf, 0.9, 0.0))
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(sched, t_max=20)
    twin = clone(err.value)
    assert type(twin) is DriftCertificateError and str(twin) == str(err.value)
    assert twin.report.violations
    for f in dataclasses.fields(schedules.DriftReport):
        assert getattr(twin.report, f.name) == getattr(err.value.report, f.name), f.name


def _decreasing_floor_schedule(c_pi=0.2):
    # FLAT -> A: pi_min = (0.5 - 0.4w)/(1 - 0.7w) falls strictly as w grows,
    # and the weight is still below 1 at t = 12,000
    return InterpolationSchedule(FLAT, A, DriftParams(0.03, 1.0, c_pi, 0.0))


def test_verify_drift_checks_stationary_floor_at_every_t():
    t_max = 12_000
    sched = _decreasing_floor_schedule()
    report = verify_drift(sched, t_max=t_max)
    assert report.pi_argmin_t == t_max
    assert report.min_scaled_pi_floor == \
        stationary_distribution(sched.matrix_at(t_max)).min()


def test_verify_drift_names_floor_violation_off_the_log_grid():
    # declare c_pi between pi_min(t*) and pi_min(t* + 1): the first violation
    # is t* + 1 exactly, a t a logarithmic checkpoint grid beyond 1e4 skips
    t_star = 10_500
    probe = _decreasing_floor_schedule()
    above = stationary_distribution(probe.matrix_at(t_star)).min()
    below = stationary_distribution(probe.matrix_at(t_star + 1)).min()
    assert above - below > 1e-7
    c_pi = 0.5 * (above + below) + schedules._CERT_FUZZ
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(_decreasing_floor_schedule(c_pi), t_max=12_000)
    violation, = err.value.report.violations
    assert violation.bound == "pi floor c_pi"
    assert violation.t == t_star + 1
    assert violation.observed == below


def _per_t_report(s, t_max):
    """The certificate scan as a straight loop over t, one matrix at a time."""
    params = s.params
    drift_max, drift_t, rho_max, rho_t, pi_min, pi_t = 0.0, 1, 0.0, 1, math.inf, 1
    first = {}
    prev = s.matrix_at(1)
    for t in range(1, t_max + 1):
        rho = ergodicity_coefficient(prev)
        if rho > rho_max:
            rho_max, rho_t = rho, t
        if rho > s.rho_cap + 1e-12:
            first.setdefault("rho_cap", (t, rho, s.rho_cap))
        floor = stationary_distribution(prev).min()
        scaled = floor * t ** params.gamma_pi
        if scaled < pi_min:
            pi_min, pi_t = scaled, t
        if scaled < params.c_pi - 1e-9:
            first.setdefault("pi floor c_pi", (t, floor, params.pi_floor(t)))
        if t < t_max:
            nxt = s.matrix_at(t + 1)
            drift = matrix_tv(nxt, prev)
            if params.gamma_p == math.inf:
                scaled = 0.0 if drift <= 1e-15 else math.inf
            else:
                scaled = drift * t ** params.gamma_p
            if scaled > drift_max:
                drift_max, drift_t = scaled, t
            if scaled > params.c_p + 1e-9:
                first.setdefault("drift c_p", (t, drift, params.drift_bound(t)))
            prev = nxt
    violations = [schedules.CertificateViolation(name, *first[name])
                  for name in ("drift c_p", "pi floor c_pi", "rho_cap") if name in first]
    return schedules.DriftReport(t_max, drift_max, drift_t, pi_min, pi_t, rho_max, rho_t,
                                 violations)


P4 = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.5, 0.3, 0.1],
               [0.25, 0.25, 0.25, 0.25], [0.3, 0.1, 0.1, 0.5]])


def _scan_cases():
    inner = InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0))
    cyclic = CyclicSchedule([A, B, FLAT], DriftParams(0.05, 0.7, 0.1, 0.0))
    # declared constants that the scan must refute, each at its own t
    refuted = CyclicSchedule([A, B], DriftParams(0.05, 0.3, 0.2, 0.0))
    refuted.params = DriftParams(0.04, 0.3, 0.3, 0.0)
    refuted.rho_cap = 0.65
    # B from t = 5 on: its first block varies, every later one repeats B
    arriving = InterpolationSchedule(A, B, DriftParams(0.3, 0.5, 0.25, 0.0))
    refuted_constant = ConstantSchedule(A, DriftParams(1.0, math.inf, 0.9, 0.0))
    refuted_constant.rho_cap = 0.6
    return [ConstantSchedule(A), inner, cyclic,
            ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5)),
            RestartWrappedSchedule(cyclic, 0.5, 0.8, 1), refuted,
            ConstantSchedule(P4), arriving, refuted_constant]


@pytest.mark.parametrize("case", range(9))
def test_verify_drift_report_equals_per_t_loop(case):
    sched = _scan_cases()[case]
    t_max = schedules._CHUNK + 300  # crosses a block edge
    expected = _per_t_report(sched, t_max)
    try:
        report = verify_drift(sched, t_max)
    except DriftCertificateError as exc:
        report = exc.report
    assert report == expected
    assert report.ok == (case not in (5, 8))


class _Switch(schedules.Schedule):
    """A for t <= t_switch, B after; declared constant, so the jump must be caught."""

    kind = "switch"

    def __init__(self, t_switch):
        super().__init__(2, DriftParams(1.0, math.inf, 0.25, 0.0), 0.7)
        self.t_switch = t_switch

    def _block(self, t_lo, t_hi):
        ts = np.arange(t_lo, t_hi)[:, None, None]
        return np.where(ts <= self.t_switch, A, B)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_verify_drift_catches_jump_at_block_edge(offset):
    sched = _Switch(schedules._CHUNK + offset)
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(sched, schedules._CHUNK + 10)
    violation, = err.value.report.violations
    assert (violation.bound, violation.t) == ("drift c_p", sched.t_switch)
    assert err.value.report == _per_t_report(sched, schedules._CHUNK + 10)


def test_verify_drift_certifies_gamma_p_two_past_rounding_excess():
    # the stored walk's step at t = 2917 exceeds c_p/t**2 by ~1.3e-16 TV, pure
    # rounding, which t**2 alone would blow past the 1e-9 fuzz
    sched = InterpolationSchedule(A, B, DriftParams(0.05, 2.0, 0.25, 0.0))
    report = verify_drift(sched, 5000)
    assert report.ok
    assert report.max_scaled_drift > 0.05 + 1e-9  # the excess is measured, not hidden


class _Kicked(InterpolationSchedule):
    """The gamma_p = 2 walk whose step at t_kick is longer by `kick` in TV."""

    def __init__(self, t_kick, kick):
        super().__init__(A, B, DriftParams(0.05, 2.0, 0.25, 0.0))
        self.t_kick, self.kick = t_kick, kick

    def _block(self, t_lo, t_hi):
        mats = super()._block(t_lo, t_hi)
        ts = np.arange(t_lo, t_hi)[:, None, None]
        return np.where(ts > self.t_kick,
                        mats + self.kick / self.segment_length * (B - A), mats)


def test_verify_drift_rejects_true_excess_of_1e12_at_gamma_p_two():
    sched = _Kicked(3000, 1e-12)
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(sched, 5000)
    violation, = err.value.report.violations
    assert (violation.bound, violation.t) == ("drift c_p", 3000)
    assert violation.observed > violation.allowed + 0.9e-12


def test_drift_report_names_where_the_rounding_allowance_takes_over():
    # at gamma_p = 10, c_p/t**gamma_p falls below the allowance 4 n eps (n = 2) at t = 23:
    # a step twice the certified one passes from there on
    params = DriftParams(0.05, 10.0, 0.25, 0.0)
    sched = InterpolationSchedule(A, B, params)
    allowance = schedules._STEP_ROUNDING * 2
    assert verify_drift(sched, 100).drift_vacuous_from_t == 23
    assert params.drift_bound(23) <= allowance < params.drift_bound(22)
    assert verify_drift(sched, 22).drift_vacuous_from_t is None  # past the horizon
    slow = InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0))
    assert verify_drift(slow, 5000).drift_vacuous_from_t is None
    assert verify_drift(ConstantSchedule(A), 100).drift_vacuous_from_t is None  # gamma_p inf


def _vacuous_by_definition(c_p, gamma_p, n, t_max):
    """The first t <= t_max with c_p / t**gamma_p <= 4 n eps, one t at a time."""
    eps = np.finfo(float).eps
    return next((t for t in range(1, t_max + 1) if c_p / t ** gamma_p <= 4 * n * eps), None)


@pytest.mark.parametrize("gamma_p", [0.0, 0.3, 1.0, 2.0, 5.0, 19.0])
def test_drift_vacuous_t_is_its_definition(gamma_p):
    # c_p puts the vacuous t at about 3 and about the walk's first block edge;
    # each t_max sits on both sides of it and of that edge
    edge, allowance = schedules._CHUNK, schedules._STEP_ROUNDING
    three = [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]], np.full((3, 3), 1 / 3)
    for n, (a, b) in {2: (A, B), 3: three}.items():
        for at in (3, edge + 1):
            c_p = allowance * n * at ** gamma_p
            sched = InterpolationSchedule(a, b, DriftParams(c_p, gamma_p, 0.01, 0.0))
            v = _vacuous_by_definition(c_p, gamma_p, n, 2 * edge)
            for t_max in sorted({max(2, v - 1), max(2, v), edge, edge + 1}):
                assert (verify_drift(sched, t_max).drift_vacuous_from_t
                        == _vacuous_by_definition(c_p, gamma_p, n, t_max)), (n, c_p, t_max)
    # a failing scan reports it too: the floor c_pi = 0.9 breaks at t = 1
    c_p = allowance * 2 * 40 ** gamma_p
    with pytest.raises(DriftCertificateError) as err:
        verify_drift(InterpolationSchedule(A, B, DriftParams(c_p, gamma_p, 0.9, 0.0)), 100)
    assert err.value.report.violations[0].bound == "pi floor c_pi"
    assert err.value.report.drift_vacuous_from_t == _vacuous_by_definition(c_p, gamma_p, 2, 100)


# ------------------------------------------------------------ block equivalence

_ARC = {}


def _arc(c_p, gamma_p, k):
    """S_k = sum_{u<=k} c_p/u**gamma_p, accumulated one step at a time."""
    prefix = _ARC.setdefault((c_p, gamma_p), [0.0])
    while len(prefix) <= k:
        u = len(prefix)
        prefix.append(prefix[-1] + c_p / u ** gamma_p)
    return prefix[k]


def _matrix_formula(s, t):
    """Each family's P^(t), written out per t with Python scalars."""
    if s.kind == "constant":
        return s.p
    if s.kind == "interpolation":
        c_p, gamma_p = s.params.c_p, s.params.gamma_p
        if s.segment_length == 0.0 or gamma_p == math.inf:
            return s.p_start
        w = min(1.0, _arc(c_p, gamma_p, t - 1) / s.segment_length)
        if w == 0.0:
            return s.p_start
        if w == 1.0:
            return s.p_end
        return (1.0 - w) * s.p_start + w * s.p_end
    if s.kind == "cyclic":
        segs = [(m, nxt, matrix_tv(m, nxt))
                for m, nxt in zip(s.mats, [*s.mats[1:], s.mats[0]])]
        segs = [seg for seg in segs if seg[2] > 0.0]
        offsets = np.concatenate([[0.0], np.cumsum([seg[2] for seg in segs])])
        pos = math.fmod(_arc(s.params.c_p, s.params.gamma_p, t - 1), float(offsets[-1]))
        j = min(int(np.searchsorted(offsets, pos, side="right")) - 1, len(segs) - 1)
        a, b, length = segs[j]
        w = min(max((pos - offsets[j]) / length, 0.0), 1.0)
        return (1.0 - w) * a + w * b
    if s.kind == "shrinking-state":
        m = s.params.c_pi / t ** s.params.gamma_pi
        h = m / (1.0 - m)
        return np.array([[0.5, 0.5, 0.0], [0.5, 0.5 - h, h], [0.0, 0.5, 0.5]])
    ratio = s.beta / s.beta_hat
    rows = ratio * _matrix_formula(s.inner, t).copy()
    rows[:, s.x_restart] += 1.0 - ratio
    return rows


@st.composite
def _families(draw):
    gamma = draw(st.sampled_from([0.3, 0.7, 1.5]))
    c_p = draw(st.sampled_from([0.01, 0.05, 0.3]))
    kind = draw(st.sampled_from(["constant", "interpolation", "cyclic",
                                 "shrinking-state", "restart-wrapped"]))
    if kind == "constant":
        return ConstantSchedule(A)
    if kind == "shrinking-state":
        return ShrinkingStateSchedule(DriftParams(0.5, gamma + 1.0, 0.2, gamma))
    cyclic_gamma = gamma if gamma < 1 else 0.7
    walk = draw(st.sampled_from([
        InterpolationSchedule(A, FLAT, DriftParams(c_p, gamma, 0.2, 0.0)),
        CyclicSchedule([A, B, FLAT], DriftParams(c_p, cyclic_gamma, 0.1, 0.0))]))
    if kind == "restart-wrapped":
        return RestartWrappedSchedule(walk, 0.5, 0.8, draw(st.sampled_from([0, 1])))
    if kind == walk.kind:
        return walk
    return InterpolationSchedule(A, B, DriftParams(c_p, gamma, 0.2, 0.0)) \
        if kind == "interpolation" else \
        CyclicSchedule([A, B], DriftParams(c_p, cyclic_gamma, 0.2, 0.0))


_EDGE = schedules._CHUNK


@settings(max_examples=60, deadline=None)
@given(sched=_families(),
       warm=st.integers(1, 3 * _EDGE),
       t_lo=st.one_of(st.integers(1, 4 * _EDGE),
                      st.integers(1, 3).map(lambda k: k * _EDGE)
                      .flatmap(lambda e: st.integers(e - 5, e + 1))),
       length=st.integers(1, 300))
def test_block_equals_per_t_formula(sched, warm, t_lo, length):
    sched.block(warm, warm + 1)  # grow any cached arc prefix from elsewhere first
    block = sched.block(t_lo, t_lo + length)
    assert block.shape == (length, sched.n, sched.n) and block.dtype == np.float64
    for i, t in enumerate(range(t_lo, t_lo + length)):
        assert block[i].tobytes() == np.asarray(_matrix_formula(sched, t), float).tobytes(), t


def test_block_arc_crosses_chunk_edges_sequentially():
    # one long block and piecewise blocks give the same bits on both sides of edges
    sched = CyclicSchedule([A, B], DriftParams(0.05, 0.3, 0.2, 0.0))
    whole = CyclicSchedule([A, B], DriftParams(0.05, 0.3, 0.2, 0.0)).block(1, 3 * _EDGE + 7)
    pieces = np.concatenate([blk[:-1] for _, blk in sched.blocks(3 * _EDGE + 6)])
    assert whole.tobytes() == pieces.tobytes()
    assert sched.cycle_length < _arc(0.05, 0.3, 3 * _EDGE)  # the walk wrapped


def test_restart_probe_floor_matches_per_t_solves():
    inner = InterpolationSchedule(A, B, DriftParams(0.05, 0.7, 0.25, 0.3))
    sched = RestartWrappedSchedule(inner, 0.5, 0.8, 0)
    floor = min(stationary_distribution(restart_wrap1(inner.matrix_at(t), 0.5, 0.8, 0))
                .min() * t ** 0.3 for t in range(1, 65))
    assert sched.params.c_pi == 0.999 * floor


def test_block_rejects_empty_and_nonpositive_ranges():
    sched = ConstantSchedule(A)
    with pytest.raises(ValueError, match="starts at 1"):
        sched.block(0, 5)
    with pytest.raises(ValueError, match="non-empty"):
        sched.block(5, 5)



@pytest.mark.parametrize("sched", [
    ConstantSchedule(A),
    CyclicSchedule([A, A], DriftParams(0.05, 0.5, 0.25, 0.0)),
    InterpolationSchedule(A, B, DriftParams(0.05, math.inf, 0.25, 0.0)),
    InterpolationSchedule(A, A, DriftParams(0.05, 0.5, 0.25, 0.0)),
], ids=["constant", "degenerate-cyclic", "gamma-p-inf-interpolation", "A-to-A-interpolation"])
def test_constant_block_is_a_read_only_view_of_matrix_at(sched):
    for lo, block in sched.blocks(_EDGE + 6):
        assert not block.flags.writeable
        for i, mat in enumerate(block):
            assert mat.tobytes() == sched.matrix_at(lo + i).tobytes()
    with pytest.raises(ValueError):
        sched.block(1, 3)[0, 0, 0] = 0.5


@pytest.mark.parametrize("sched", [
    InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0)),
    CyclicSchedule([A, B, FLAT], DriftParams(0.05, 0.7, 0.1, 0.0)),
], ids=["interpolation", "cyclic"])
def test_walk_blocks_share_their_edge_matrix(sched):
    t_max = 2 * _EDGE  # walks P^(1..2 * _EDGE + 1): two full blocks and no trailing one
    walked = list(sched.blocks(t_max))
    assert [lo for lo, _ in walked] == [1, _EDGE + 1]
    for (lo, block), after in zip(walked, walked[1:] + [None]):
        if after is not None:
            assert after[0] == lo + len(block) - 1
            assert after[1][0].tobytes() == block[-1].tobytes()
        for i, mat in enumerate(block):
            assert mat.tobytes() == sched.matrix_at(lo + i).tobytes(), lo + i
    assert lo + len(block) - 1 == t_max + 1


def _corrupted(base):
    """A family whose computed blocks carry one row summing to 1 + 1e-9."""

    class Corrupted(base):
        def _block(self, t_lo, t_hi):
            mats = super()._block(t_lo, t_hi).copy()
            mats[-1, 0, 0] += 1e-9
            return mats

    return Corrupted


@pytest.mark.parametrize("make", [
    lambda: _corrupted(ConstantSchedule)(A),
    lambda: _corrupted(InterpolationSchedule)(A, B, DriftParams(0.05, 1.0, 0.25, 0.0)),
], ids=["constant", "interpolation"])
def test_computed_block_is_still_checked(make):
    sched = make()
    with pytest.raises(InvariantError, match="row 0 of matrix 4"):
        sched.block(1, 6)

# ----------------------------------------------------------------- json specs

def test_schedule_from_spec_builds_every_kind():
    a, b = A.tolist(), B.tolist()
    interp = {"kind": "interpolation", "n": 2,
              "params": {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0},
              "p_start": a, "p_end": b}
    inner = InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0))
    wrap_params = {"c_p": 0.04, "gamma_p": 1.0, "c_pi": 0.1, "gamma_pi": 0.0}
    cases = [
        ({"kind": "constant", "n": 2, "p": a}, ConstantSchedule(A)),
        (interp, inner),
        ({"kind": "cyclic", "n": 2, "mats": [a, b],
          "params": {"c_p": 0.1, "gamma_p": 0.7, "c_pi": 0.2, "gamma_pi": 0.0}},
         CyclicSchedule([A, B], DriftParams(0.1, 0.7, 0.2, 0.0))),
        ({"kind": "shrinking-state", "n": 3,
          "params": {"c_p": 0.2, "gamma_p": 1.5, "c_pi": 0.2, "gamma_pi": 0.5}},
         ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5))),
        ({"kind": "restart-wrapped", "n": 2, "inner": interp, "beta": 0.5, "beta_hat": 0.8,
          "x_restart": 0, "params": wrap_params},
         RestartWrappedSchedule(inner, 0.5, 0.8, 0, DriftParams(0.04, 1.0, 0.1, 0.0))),
    ]
    for spec, sched in cases:
        built = schedule_from_spec(spec)
        assert (type(built), built.kind, built.n, built.params, built.rho_cap) == \
            (type(sched), sched.kind, sched.n, sched.params, sched.rho_cap)
        for t in (1, 2, 13, 400):
            np.testing.assert_array_equal(built.matrix_at(t), sched.matrix_at(t))


def test_gamma_inf_json_encoding():
    params = {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.3, "gamma_pi": 0.0}
    built = schedule_from_spec({"kind": "constant", "n": 2, "p": A.tolist(),
                                "params": params})
    assert built.params == DriftParams(1.0, math.inf, 0.3, 0.0)
    assert built.params.gamma_p == math.inf and built.params.drift_bound(7) == 0.0


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "n": 7, "p": A.tolist()},
    {"kind": "shrinking-state", "n": 2,
     "params": {"c_p": 0.2, "gamma_p": 1.5, "c_pi": 0.2, "gamma_pi": 0.5}},
], ids=["constant", "shrinking-state"])
def test_schedule_spec_n_must_match_its_matrices(spec):
    with pytest.raises(ValueError, match=f"schedule spec n={spec['n']} vs its"):
        schedule_from_spec(spec)


SPEC_PARAMS = {"c_p": 0.05, "gamma_p": 1.0, "c_pi": 0.25, "gamma_pi": 0.0}
INTERP_SPEC = {"kind": "interpolation", "n": 2, "params": SPEC_PARAMS,
               "p_start": A.tolist(), "p_end": B.tolist()}


# a constant schedule's misspelt "params", matrix entries that are booleans
# or strings: test_harness's CLI config-error cases
@pytest.mark.parametrize("spec, named", [
    pytest.param({**INTERP_SPEC, "mats": [A.tolist()]},
                 "unknown interpolation schedule spec fields: ['mats']",
                 id="spec0-unknown schedule fields: ['mats']"),
    pytest.param({"kind": "cyclic", "n": 2, "params": {**SPEC_PARAMS, "gamma_p": 0.5},
                  "mats": [A.tolist(), B.tolist()], "p": A.tolist()},
                 "unknown cyclic schedule spec fields: ['p']",
                 id="spec1-unknown schedule fields: ['p']"),
    pytest.param({"kind": "shrinking-state", "n": 3, "x_restart": 0,
                  "params": {"c_p": 0.2, "gamma_p": 1.5, "c_pi": 0.2, "gamma_pi": 0.5}},
                 "unknown shrinking-state schedule spec fields: ['x_restart']",
                 id="spec2-unknown schedule fields: ['x_restart']"),
    pytest.param({"kind": "restart-wrapped", "n": 2, "inner": INTERP_SPEC, "beta": 0.5,
                  "beta_hat": 0.8, "x_restart": 0, "params": SPEC_PARAMS, "beta_hatt": 0.9},
                 "unknown restart-wrapped schedule spec fields: ['beta_hatt']",
                 id="spec3-unknown schedule fields: ['beta_hatt']"),
    pytest.param({"kind": "restart-wrapped", "n": 2, "inner": {**INTERP_SPEC, "p_ende": []},
                  "beta": 0.5, "beta_hat": 0.8, "x_restart": 0, "params": SPEC_PARAMS},
                 "unknown interpolation schedule spec fields: ['p_ende']",
                 id="spec4-unknown schedule fields: ['p_ende']"),
    ({**INTERP_SPEC, "params": {**SPEC_PARAMS, "c_pii": 0.3, "gama_p": 1.0}},
     "unknown params fields: ['c_pii', 'gama_p']"),
])
def test_schedule_spec_refuses_keys_it_does_not_read(spec, named):
    with pytest.raises(ValueError) as err:
        schedule_from_spec(spec)
    assert str(err.value) == named


@pytest.mark.parametrize("spec, named", [
    ({"kind": "constant", "n": 2, "p": [0.5, 0.5]}, "p[0] must be a list, got 0.5"),
    ({**INTERP_SPEC, "p_end": [[0.1, 0.9], [0.8, None]]},
     "p_end[1][1] must be a number, got None"),
    ({"kind": "cyclic", "n": 2, "params": {**SPEC_PARAMS, "gamma_p": 0.5},
      "mats": [A.tolist(), [0.1, 0.9]]}, "mats[1][0] must be a list, got 0.1"),
])
def test_schedule_spec_matrices_are_lists_of_json_number_rows(spec, named):
    with pytest.raises(ValueError) as err:
        schedule_from_spec(spec)
    assert str(err.value) == named
    # JSON integers are numbers
    built = schedule_from_spec({"kind": "constant", "n": 2, "p": [[0.5, 0.5], [1, 0]]})
    assert built.matrix_at(1).tolist() == [[0.5, 0.5], [1.0, 0.0]]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown schedule kind"):
        schedule_from_spec({"kind": "mystery"})


# ----------------------------------------------------------------- sweep cells

P0, P1 = [[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.8, 0.2]]  # the configs' anchors
NO_FAMILY = ("no schedule family realizes gamma_p={} with gamma_pi={} "
             "(shrinking family forces gamma_p = gamma_pi + 1)")


def _cell_params(gamma_p, gamma_pi, c_p=0.05, c_pi=0.25):
    return {"c_p": c_p, "gamma_p": gamma_p, "c_pi": c_pi, "gamma_pi": gamma_pi}


# each cell's spec as the realizer gave it while it lived in harness
@pytest.mark.parametrize("params, gamma_p, gamma_pi, expected", [
    ({}, math.inf, 0.0,
     {"kind": "constant", "n": 2, "params": _cell_params("inf", 0.0), "p": P0}),
    ({}, 1.0, 0.0, {"kind": "interpolation", "n": 2, "params": _cell_params(1.0, 0.0),
                    "p_start": P0, "p_end": P1}),
    ({}, 2.0, 0.0, {"kind": "interpolation", "n": 2, "params": _cell_params(2.0, 0.0),
                    "p_start": P0, "p_end": P1}),
    ({}, 0.3, 0.0, {"kind": "cyclic", "n": 2, "params": _cell_params(0.3, 0.0), "mats": [P0, P1]}),
    ({}, 1.1, 0.1, {"kind": "shrinking-state", "n": 3, "params": _cell_params(1.1, 0.1)}),
    ({"c_p": 0.5, "c_pi": 0.5}, 1.5, 0.5,
     {"kind": "shrinking-state", "n": 3,
      "params": _cell_params(1.5, 0.5, c_p=0.5, c_pi=0.3333333333333333)}),
    ({}, 1.0, 0.2, NO_FAMILY.format(1.0, 0.2)),
    ({}, math.inf, 0.5, NO_FAMILY.format(math.inf, 0.5)),
], ids=["constant", "interpolation", "interpolation-gp2", "cyclic", "shrinking",
        "shrinking-c_pi-capped", "no-family", "no-family-gp-inf"])
@pytest.mark.parametrize("name", ["adiabatic", "diabatic"])
def test_sweep_cells_realize_each_cell_over_the_base_as_written(name, params, gamma_p, gamma_pi,
                                                                 expected):
    base = config_dict(name)["schedule"]
    realize = schedules.sweep_cells({**base, "params": {**base["params"], **params}})
    n_rewards = ShrinkingStateSchedule.STATES if gamma_pi else 2
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            realize(gamma_p, gamma_pi, n_rewards)
        assert str(err.value) == expected
        return
    spec, schedule = realize(gamma_p, gamma_pi, n_rewards)
    assert spec == expected
    assert (schedule.kind, schedule.n) == (expected["kind"], expected["n"])
    assert realize(gamma_p, gamma_pi, n_rewards)[1] is schedule  # built once
    if gamma_pi:
        with pytest.raises(ValueError) as err:
            realize(gamma_p, gamma_pi, 2)
        assert str(err.value) == "the 3-state shrinking family vs rewards n=2"


_SHRINKING = {"kind": "shrinking-state", "n": 3,
              "params": {"c_p": 0.2, "gamma_p": 1.5, "c_pi": 0.2, "gamma_pi": 0.5}}
_WRAPPED = {"kind": "restart-wrapped", "n": 2, "inner": INTERP_SPEC, "beta": 0.5,
            "beta_hat": 0.8, "x_restart": 0, "params": SPEC_PARAMS}


def _without_n(spec):
    inner = {"inner": _without_n(spec["inner"])} if "inner" in spec else {}
    return {**{k: v for k, v in spec.items() if k != "n"}, **inner}


@pytest.mark.parametrize("spec", [
    *(config_dict(name)["schedule"] for name in ("static_td", "adiabatic", "diabatic", "static_q")),
    {"kind": "constant", "n": 2, "p": A.tolist()}, INTERP_SPEC,
    {"kind": "cyclic", "n": 2, "params": {**SPEC_PARAMS, "gamma_p": 0.5},
     "mats": [A.tolist(), B.tolist()]}, _SHRINKING, _WRAPPED,
    {**_WRAPPED, "n": 3, "inner": _SHRINKING, "x_restart": 2},
], ids=["static_td", "adiabatic", "diabatic", "static_q", "constant", "interpolation", "cyclic",
        "shrinking-state", "restart-wrapped", "restart-wrapped-shrinking"])
def test_resolve_spec_fills_in_the_n_its_schedule_builds(spec, monkeypatch):
    n = schedule_from_spec(spec).n

    def build(*args, **kwargs):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(schedules.Schedule, "__init__", build)
    outer = {k: v for k, v in spec.items() if k != "n"}
    for written in (spec, outer, _without_n(spec)):  # n written, left out, left out throughout
        assert schedules.resolve_spec(written)["n"] == n
