"""Randomized and exhaustive property suites behind `adiatrack verify`.

Each suite runs with a fixed master seed (per-case streams derive from it)
and tolerances and sizes fixed in its code (TOL for every prop1, thm1,
lemmas and lipschitz check), counts violations, and reports the worst
margin, overall and per check name, plus full counterexample inputs
(matrices verbatim) so a CI failure is reproducible from the report alone; a
check builds its inputs (matrices from its case's draws) only when it fails.
Every randomized suite draws all its cases first, in the order of a per-case
loop, a random matrix as its raw draws (_draw), then builds every matrix of
a size in one _rows pass, evaluates the cases as stacks and records the
checks in case order, so the report equals the per-case loop's: prop1 per
matrix size (_prop1_pairs) and its 2x2 eigenvalue cases as one stack,
Lipschitz (reward and optimal Q: dp.check_lipschitz at one action and at
two) and restart (dp.check_restart_identities) per matrix size, each pair
one solve, and lemmas with each bounds oracle on one (cases, T) stack.  The
thm1 and mixing suites read each schedule as blocks of matrices, never one
t at a time, and thm1 evaluates every start of a horizon as one row of the
bounds evaluators' stacked calls.  The ergodicity
coefficient is always looked up through the chains module at call time, so a
corrupted implementation is caught rather than silently trusted.
"""

from __future__ import annotations

import numpy as np

from . import __version__, bounds, chains, dp, schedules

__all__ = ["SUITES", "run_suite"]

DEFAULT_MASTER_SEED = 20240809
TOL = 1e-10  # the slack of every prop1, thm1, lemmas and lipschitz check


class _Recorder:
    def __init__(self, suite, master_seed):
        self.suite = suite
        self.master_seed = master_seed
        self.cases = 0
        self.checks = 0
        self.violations = []
        self.worst_margin_by_check = {}

    def check(self, name, lhs, rhs, tol, inputs=None):
        """Record the inequality lhs <= rhs + tol; inputs() builds the
        counterexample inputs, called only on a violation."""
        self.checks += 1
        margin = rhs + tol - lhs
        if margin < self.worst_margin_by_check.get(name, np.inf) or margin != margin:  # NaN sticks
            self.worst_margin_by_check[name] = margin
        if not lhs <= rhs + tol:  # NaN fails too
            entry = {"check": name, "lhs": float(lhs), "rhs": float(rhs),
                     "tol": tol, "case": self.cases}
            if inputs:
                entry["inputs"] = inputs()
            self.violations.append(entry)

    def require(self, name, condition, inputs=None):
        self.checks += 1
        if not condition:
            entry = {"check": name, "case": self.cases}
            if inputs:
                entry["inputs"] = inputs()
            self.violations.append(entry)

    def report(self):
        margins = {k: float(v) for k, v in self.worst_margin_by_check.items()}
        return {"suite": self.suite, "master_seed": self.master_seed,
                "cases": self.cases, "checks": self.checks,
                "violation_count": len(self.violations),
                "violations": self.violations[:10],
                "worst_margin": float(np.min([np.inf, *margins.values()])),  # NaN if any is
                "worst_margin_by_check": margins,
                "pass": not self.violations,
                "spec_version": __version__}


def _draw(rng, n):
    """One random (n, n) matrix's draws in draw order, (style, raw); _matrices builds it."""
    return int(rng.integers(3)), rng.random((n, n))


def _rows(styles, raw) -> np.ndarray:
    """Random (k, n, n) transition matrices, unvalidated, from their draws styles (k,)
    and raw (k, n, n): dense positive rows (hence irreducible), varied skew."""
    n, styles = raw.shape[1], np.asarray(styles)[:, None, None]
    raw = np.where(styles == 1, raw ** 4, raw)  # skewed rows, ergodicity coefficient near 1
    cycle = np.eye(n)[(np.arange(n) + 1) % n]  # cycle backbone, still dense
    raw = np.where(styles == 2, 0.2 * raw + 0.8 * cycle + 1e-3, raw)
    return raw / raw.sum(axis=2, keepdims=True)


def _matrices(draws) -> np.ndarray:
    """The (k, n, n) stack of k (style, raw) draws of one size, in one _rows pass."""
    return _rows([style for style, _ in draws], np.array([raw for _, raw in draws]))


def _by_size(cases, check):
    """check(*stacks) on the cases of each matrix size at once; its per-case
    outputs as tuples of floats, in case order.  A case is a tuple whose first
    entry is a matrix's (style, raw) draw; column j of a size's cases is stack
    j, every column of such draws built in one _matrices pass and sliced."""
    out, sizes = [None] * len(cases), {}
    for i, case in enumerate(cases):
        sizes.setdefault(len(case[0][1]), []).append(i)
    for idx in sizes.values():
        cols = [[cases[i][j] for i in idx] for j in range(len(cases[idx[0]]))]
        draws = [draw for col in cols if isinstance(col[0], tuple) for draw in col]
        built = iter(_matrices(draws).reshape(-1, len(idx), *draws[0][1].shape))
        stacks = [next(built) if isinstance(col[0], tuple) else np.array(col) for col in cols]
        for i, row in zip(idx, zip(*(side.tolist() for side in check(*stacks)))):
            out[i] = row
    return out


def _prop1_pairs(p, q, lam, mu):
    """The pair checks of suite_prop1 on (k, n, n) stacks p, q and (k, n) uniform
    draws lam, mu (each made u + 1e-12 over its sum), each input and product
    validated as its per-case object would be.  Per case: rho(p), rho(pq),
    rho(p) rho(q), the TV of lam p and mu p, rho(p) tv(lam, mu),
    |rho(p) - overlap form|, and where rho(p) < 1 - 1e-6 the stationary gap of
    p and 0.7 p + 0.3 q with its perturbation bound (NaN elsewhere)."""
    lam, mu = ((u + 1e-12) / (u + 1e-12).sum(axis=1, keepdims=True) for u in (lam, mu))
    prod, lam_p, mu_p = p @ q, (lam[:, None] @ p)[:, 0], (mu[:, None] @ p)[:, 0]
    for arr in (p, q, prod, lam, mu, lam_p, mu_p):
        chains._check_rows(arr)
    rho_p = chains.ergodicity_coefficients(p)
    rho_q = chains.ergodicity_coefficients(q)
    overlap = 1.0 - np.minimum(p[:, :, None], p[:, None]).sum(3).min(axis=(1, 2))
    gap, bound = np.full((2, len(p)), np.nan)
    solve = rho_p < 1.0 - 1e-6
    if solve.any():
        base, pert = p[solve], 0.7 * p[solve] + 0.3 * q[solve]
        pis = [chains.stationary_stack(chains.check_stack(m)) for m in (base, pert)]
        gap[solve] = 0.5 * np.abs(pis[0] - pis[1]).sum(axis=1)
        bound[solve] = chains.matrix_tv_distances(base, pert) / (1.0 - rho_p[solve])
    return (rho_p, chains.ergodicity_coefficients(prod), rho_p * rho_q,
            0.5 * np.abs(lam_p - mu_p).sum(axis=1),
            rho_p * (0.5 * np.abs(lam - mu).sum(axis=1)), np.abs(rho_p - overlap), gap, bound)


def suite_prop1(n_cases=10_000, master_seed=DEFAULT_MASTER_SEED):
    """Ergodicity-coefficient properties on random irreducible matrix pairs.

    Per pair (n in 2..6): sub-multiplicativity over products, contraction of
    TV under right multiplication, agreement of the row-pair and overlap
    forms, and the stationary perturbation bound, on the pairs of each size
    as one stack (_prop1_pairs).  Plus, on random 2x2 matrices drawn as one
    stack, |second eigenvalue| <= rho.  Every check holds within TOL.
    """
    rec = _Recorder("prop1", master_seed)
    rng = chains.stream(master_seed, 1)
    cases = []
    for _ in range(n_cases):
        n = int(rng.integers(2, 7))
        cases.append((_draw(rng, n), _draw(rng, n), rng.random(n), rng.random(n)))
    for (p, q, *_), sides in zip(cases, _by_size(cases, _prop1_pairs)):
        rec.cases += 1
        rho_p, rho_prod, rho_pq, tv_after, tv_bound, form_gap, gap, bound = sides

        def inputs():
            return {"p": _matrices([p])[0].tolist(), "q": _matrices([q])[0].tolist()}
        rec.check("submultiplicative", rho_prod, rho_pq, TOL, inputs)
        rec.check("tv_contraction", tv_after, tv_bound, TOL, inputs)
        rec.check("row_pair_vs_overlap_form", form_gap, 0.0, TOL, inputs)
        if rho_p < 1.0 - 1e-6:
            rec.check("stationary_perturbation", gap, bound, TOL, inputs)

    rng2 = chains.stream(master_seed, 2)
    twos = _matrices([_draw(rng2, 2) for _ in range(n_cases)])
    chains._check_rows(twos)
    lam2 = np.abs(twos[:, 0, 0] + twos[:, 1, 1] - 1.0)  # the non-unit eigenvalue
    for p, lhs, rhs in zip(twos, lam2.tolist(), chains.ergodicity_coefficients(twos).tolist()):
        rec.cases += 1
        rec.check("second_eigenvalue", lhs, rhs, TOL, lambda: {"p": p.tolist()})
    return rec.report()


# the two-state anchors of the scan families and of thm1's limit check
_A2 = [[0.9, 0.1], [0.2, 0.8]]
_B2 = [[0.1, 0.9], [0.8, 0.2]]


def scan_families():
    """The schedule-family instances every dominance scan walks (n <= 4)."""
    rng = chains.stream(7, 3)  # the same anchors whatever the master seed
    a3, b3, a4, b4 = (_matrices([_draw(rng, n)])[0] for n in (3, 3, 4, 4))
    return [
        schedules.ConstantSchedule(_A2),
        schedules.ConstantSchedule(a4),
        schedules.InterpolationSchedule(
            _A2, _B2, schedules.DriftParams(0.05, 1.0, 0.2, 0.0)),
        schedules.InterpolationSchedule(
            a3, b3, schedules.DriftParams(0.1, 0.8, 0.05, 0.0)),
        schedules.InterpolationSchedule(
            a4, b4, schedules.DriftParams(0.1, 1.2, 0.05, 0.0)),
        schedules.CyclicSchedule([_A2, _B2], schedules.DriftParams(0.1, 0.7, 0.2, 0.0)),
        schedules.CyclicSchedule([a3, b3], schedules.DriftParams(0.15, 0.5, 0.05, 0.0)),
        schedules.ShrinkingStateSchedule(schedules.DriftParams(0.2, 1.5, 0.2, 0.5)),
        schedules.RestartWrappedSchedule(
            schedules.InterpolationSchedule(
                _A2, _B2, schedules.DriftParams(0.05, 1.0, 0.2, 0.0)),
            beta=0.5, beta_hat=0.8, x_restart=0),
    ]


THM1_HORIZONS = [2 ** k for k in range(1, 10)]  # T in {2, 4, ..., 512}


def suite_thm1(master_seed=DEFAULT_MASTER_SEED, dominance=True, limit_behavior=True):
    """Dominance of the comparison and stationarity-gap bounds on exact marginals.

    For every schedule family (one block each), horizons T in THM1_HORIZONS
    and every point-mass start (one row of the stacked evaluator calls), the
    exact marginal gap (matrix propagation, direct stationary solves) must
    not exceed the bounds (within TOL), with phi(t) = drift_bound(max(t - 1,
    1)).  The non-convergent cyclic family's gap at T = 1e2, 1e3, 1e4 must
    decrease strictly to witness the limit behavior.
    """
    rec = _Recorder("thm1", master_seed)
    for fam in scan_families() if dominance else []:
        n, t_hi = fam.n, THM1_HORIZONS[-1]
        phi = [fam.params.drift_bound(max(t - 1, 1)) for t in range(1, t_hi // 2 + 1)]
        block = fam.block(1, t_hi + 1)
        starts, mu = np.eye(n), np.full(n, 1.0 / n)
        marg = ref_pow = starts  # row x of marg: the exact marginal from e_x; P_ref^t
        for t, mat in enumerate(block, 1):
            marg = marg @ mat
            ref_pow = ref_pow @ block[0]
            if t not in THM1_HORIZONS:
                continue
            rec.cases += 1
            rho_last = float(chains.ergodicity_coefficients(block[t - 1:t])[0])
            pi_last = chains.stationary_stack(block[t - 1:t])[0]
            inputs = {"family": fam.kind, "n": n, "T": t}
            if rho_last < 1.0:
                init_gaps = 0.5 * np.abs(starts - pi_last).sum(axis=1)
                sides = zip(0.5 * np.abs(marg - pi_last).sum(axis=1),
                            bounds.stationarity_gap_bound(phi, rho_last, t, init_gaps))
                for x, (gap, bound) in enumerate(sides):
                    rec.check("stationarity_gap_dominance", gap, bound, TOL,
                              lambda: {**inputs, "x": x})
            sides = zip(0.5 * np.abs(marg - mu @ ref_pow).sum(axis=1),
                        bounds.homogeneous_comparison_bound(starts, mu, block[0], block[:t]))
            for x, (gap, bound) in enumerate(sides):
                rec.check("homogeneous_comparison_dominance", gap, bound, TOL,
                          lambda: {**inputs, "x": x})

    if limit_behavior:
        # gap-vs-horizon is cycle-phase dependent; this instance's decade
        # gaps decrease with wide margins (see the scan in the notes)
        cyc = schedules.CyclicSchedule([_A2, _B2], schedules.DriftParams(0.3, 0.7, 0.2, 0.0))
        phi = [cyc.params.drift_bound(max(t - 1, 1)) for t in range(1, 5_001)]
        block = cyc.block(1, 10_000 + 1)
        gaps, marg = {}, np.array([1.0, 0.0])
        for t, mat in enumerate(block, 1):
            marg = marg @ mat
            if t in (100, 1000, 10_000):
                rec.cases += 1
                pi_last = chains.stationary_stack(block[t - 1:t])[0]
                gaps[t] = 0.5 * np.abs(marg - pi_last).sum()
                bound = bounds.stationarity_gap_bound(
                    phi, float(chains.ergodicity_coefficients(block[t - 1:t])[0]), t,
                    [0.5 * np.abs(np.array([1.0, 0.0]) - pi_last).sum()])[0]
                rec.check("limit_gap_below_bound", gaps[t], bound, TOL,
                          lambda: {"T": t, "family": "cyclic"})
        rec.require("limit_gap_strictly_decreasing",
                    gaps[100] > gaps[1000] > gaps[10_000],
                    lambda: {"gaps": {str(k): float(v) for k, v in gaps.items()}})
    return rec.report()


def suite_lemmas(n_cases=300, master_seed=DEFAULT_MASTER_SEED):
    """Sequence-lemma oracles on randomized power-law inputs (T = 1000, within TOL).

    Every case is drawn first, in the order of a per-case loop, the feedback
    recursion's per-step draws included (they depend on no data).  Each
    bounds oracle then runs once on the (cases, T) stack, and the suite's
    own check recursions run as T vector steps over all cases.
    """
    rec = _Recorder("lemmas", master_seed)
    t_horizon = 1000
    rng = chains.stream(master_seed, 4)
    ts = np.arange(1, t_horizon + 1, dtype=float)
    cases, stacks = [], []
    for _ in range(n_cases):
        gamma = float(rng.choice([0.3, 0.5, 0.7, 1.0, 1.3, 2.0]))
        s = int(rng.integers(1, t_horizon // 2))
        t_hi = int(rng.integers(s, t_horizon))
        c_a, g_a = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
        if rng.integers(2):
            b_seq = float(rng.uniform(0.1, 3.0)) / ts ** float(rng.uniform(0.0, 1.5))
        else:
            b_seq = np.sort(rng.random(t_horizon))[::-1]
        c_big, g_big = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 1.5))
        alpha = c_a / ts ** float(rng.uniform(0.05, 1.0))
        z0 = float(rng.uniform(0.0, 2.0))
        a_rec, c_rec = rng.uniform(0.01, 0.99, t_horizon), rng.uniform(0.0, 1.0, t_horizon)
        beta = float(rng.uniform(0.1, 0.9))
        alpha_z, c_z = rng.uniform(0.01, 0.5, t_horizon), rng.uniform(0.0, 0.5, t_horizon)
        # the share of its unrolled bound the feedback z takes at each step
        shrink = [1.0 if rng.integers(4) == 0 else rng.random() for _ in range(t_horizon)]
        cases.append((gamma, s, t_hi, c_a, g_a, c_big, g_big, z0, beta))
        stacks.append((c_a / ts ** g_a, b_seq, c_big / ts ** g_big, alpha, a_rec, c_rec,
                       alpha_z, c_z, shrink))
    a_seq, b_seq, a_big, alpha, a_rec, c_rec, alpha_z, c_z, shrink = map(np.array, zip(*stacks))
    g_big, z0, beta = np.array([case[-3:] for case in cases]).T

    decaying = bounds.decaying_sum_check(a_seq, b_seq, t_horizon)
    coeffs = bounds.recursion_coefficients(a_big, alpha, verify_tol=TOL)
    growth_ok = np.isfinite((np.abs(coeffs) * ts ** g_big[:, None]).max(axis=1))
    closed = bounds.unroll_recursion(z0, a_rec, c_rec)
    # the lemma's closed form at t = T, z0 prod_k (1-a_k) + sum_j c_j prod_{k>j} (1-a_k),
    # from one reversed cumprod: tail[:, j] = prod_{k>=j} (1-a_k)
    tail = np.cumprod((1.0 - a_rec)[:, ::-1], axis=1)[:, ::-1]
    closed_t = z0 * tail[:, 0] + (c_rec[:, :-1] * tail[:, 1:]).sum(axis=1) + c_rec[:, -1]
    tilde = bounds.dominating_sequence(z0, alpha_z, beta, c_z)
    # per case: the exact iterate leaves the unroll (or at T the closed form),
    # the <= version rises above it, the feedback z rises above the dominating recursion
    bad = np.zeros((3, n_cases), dtype=bool)
    z = slackened = w = z_prev = z0
    for k in range(t_horizon):
        z = z * (1.0 - a_rec[:, k]) + c_rec[:, k]
        bad[0] |= np.abs(z - closed[:, k]) > TOL * (1.0 + np.abs(z))
        slackened = slackened * (1.0 - a_rec[:, k]) + c_rec[:, k] * 0.7
        bad[1] |= slackened > closed[:, k] + TOL
        w = (1.0 - alpha_z[:, k]) * w + alpha_z[:, k] * beta * z_prev + c_z[:, k]
        z_prev = shrink[:, k] * w
        bad[2] |= z_prev > tilde[:, k] + TOL
    bad[0] |= np.abs(z - closed_t) > TOL * (1.0 + np.abs(z))

    sides = zip(*(side.tolist() for side in decaying), growth_ok.tolist(), *(~bad).tolist())
    for (gamma, s, t_hi, c_a, g_a, c_big, g_big, z0, beta), (
            lhs, rhs, growth, unrolled, dominated, feedback) in zip(cases, sides):
        rec.cases += 1
        direct = float((np.arange(s, t_hi + 1, dtype=float) ** -gamma).sum())
        lo, hi = bounds.power_sum_bounds(s, t_hi, gamma)
        rec.check("power_sum_lower", lo, direct, TOL, lambda: {"gamma": gamma, "s": s, "t": t_hi})
        rec.check("power_sum_upper", direct, hi, TOL, lambda: {"gamma": gamma, "s": s, "t": t_hi})
        rec.check("decaying_sum", lhs, rhs, TOL, lambda: {"c_a": c_a, "gamma_a": g_a})
        rec.require("recursion_coefficients_growth", growth,
                    lambda: {"c_A": c_big, "gamma_A": g_big})
        rec.require("recursion_unroll_identity", unrolled, lambda: {"z0": z0})
        rec.require("recursion_unroll_dominates", dominated, lambda: {"z0": z0})
        rec.require("dominating_sequence", feedback, lambda: {"beta": beta, "z0": z0})
    return rec.report()


def suite_lipschitz(n_reward_cases=8500, n_q_cases=1500, master_seed=DEFAULT_MASTER_SEED):
    """Fixed-point Lipschitz continuity in the transition matrix.

    Reward version on random pairs (n in 2..6), optimal-Q version on random
    product-space pairs; beta drawn from {0.5, 0.9, 0.99}.  Rewards are
    non-negative: the TV-metered Lipschitz constant pairs a zero-mass row
    difference with the reward span, so one-signed rewards are the bound's
    domain (signed rewards break it by up to a factor of two); within TOL.
    """
    rec = _Recorder("lipschitz", master_seed)
    rng = chains.stream(master_seed, 5)
    betas = [0.5, 0.9, 0.99]
    cases = []
    for i in range(n_reward_cases):
        n = int(rng.integers(2, 7))
        cases.append((_draw(rng, n), _draw(rng, n), rng.random(n), betas[i % 3]))
    sides = _by_size(cases, lambda *stacks: dp.check_lipschitz(*stacks, 1))
    for (p, q, r, beta), (lhs, rhs) in zip(cases, sides):
        rec.cases += 1
        rec.check("reward_lipschitz", lhs, rhs, TOL,
                  lambda: {"p": _matrices([p])[0].tolist(), "q": _matrices([q])[0].tolist(),
                           "r": r.tolist(), "beta": beta})
    cases = []
    for i in range(n_q_cases):
        nsa = 2 * int(rng.integers(2, 4))  # 2 or 3 states, 2 actions each
        cases.append((_draw(rng, nsa), _draw(rng, nsa), rng.random(nsa), betas[i % 3]))
    sides = _by_size(cases, lambda *stacks: dp.check_lipschitz(*stacks, 2))
    for (p, q, r, beta), (lhs, rhs) in zip(cases, sides):
        rec.cases += 1
        rec.check("q_lipschitz", lhs, rhs, TOL,
                  lambda: {"p": _matrices([p])[0].tolist(), "q": _matrices([q])[0].tolist(),
                           "r": r.tolist(), "beta": beta, "n_actions": 2})
    return rec.report()


def suite_restart(n_cases=1000, master_seed=DEFAULT_MASTER_SEED):
    """Restart construction on randomized instances: value rescaling at the
    restart state (within 1e-8) and the beta/beta_hat rho cap (within 1e-12)."""
    rec = _Recorder("restart", master_seed)
    value_tol, rho_tol = 1e-8, 1e-12
    rng = chains.stream(master_seed, 6)
    cases = []
    for _ in range(n_cases):
        n = int(rng.integers(2, 6))
        p = _draw(rng, n)
        beta = float(rng.uniform(0.2, 0.9))
        beta_hat = beta + (1.0 - beta) * float(rng.uniform(0.2, 0.9))
        x_restart = int(rng.integers(n))
        r = rng.uniform(-1, 1, n)  # drawn last, as the rewards of a per-case loop
        cases.append((p, r, beta, beta_hat, x_restart))
    sides = _by_size(cases, dp.check_restart_identities)
    for (p, r, beta, beta_hat, x_restart), (lhs, rhs, rho, rho_bound) in zip(cases, sides):
        rec.cases += 1

        def inputs():
            return {"p": _matrices([p])[0].tolist(), "r": r.tolist(), "beta": beta,
                    "beta_hat": beta_hat, "x_restart": x_restart}
        rec.check("restart_value_identity", abs(lhs - rhs), 0.0, value_tol, inputs)
        rec.check("restart_rho_cap", rho, rho_bound, rho_tol, inputs)
    return rec.report()


def _mixing_checkpoints(tau, t_horizon):
    grid = {tau, t_horizon}
    t = tau
    while t < t_horizon:
        grid.add(int(t))
        t *= 1.3
    return sorted(grid)


def suite_mixing(master_seed=DEFAULT_MASTER_SEED):
    """Conditional-marginal mixing on 3-state interpolation and constant
    schedules: worst-case propagated gap vs the closed-form right side
    (within 1e-12), at log-spaced t across [tau, T], T = 4096."""
    rec = _Recorder("mixing", master_seed)
    t_horizon, tol = 4096, 1e-12
    a3 = [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]
    b3 = [[0.3, 0.4, 0.3], [0.4, 0.3, 0.3], [0.25, 0.35, 0.4]]
    fams = [
        ("interpolation", schedules.InterpolationSchedule(
            a3, b3, schedules.DriftParams(0.05, 1.0, 0.1, 0.0))),
        ("constant", schedules.ConstantSchedule(a3)),
    ]
    for name, fam in fams:
        rho = min(max(fam.rho_cap, 0.05), 0.95)
        tau = bounds._mixing_window(t_horizon, rho)
        for t in _mixing_checkpoints(tau, t_horizon):
            rec.cases += 1
            lhs, rhs = bounds.conditional_mixing_check(fam, t, t_horizon, rho)
            rec.check("conditional_mixing", lhs, rhs, tol,
                      lambda: {"family": name, "t": t, "tau": tau})
    return rec.report()


def suite_coverage(master_seed=DEFAULT_MASTER_SEED):
    """Empirical noise-envelope coverage: 500 repetitions of T = 1000, delta 0.05, tau 4."""
    rec = _Recorder("coverage", master_seed)
    n_reps, t_max, delta, tau = 500, 1000, 0.05, 4
    ts = np.arange(1, t_max + 1, dtype=float)
    alpha = 0.5 / ts ** 0.6
    pi = np.full(t_max, 0.5)
    fraction, threshold, n_violating = bounds.noise_envelope_coverage(
        alpha, pi, eps_max=1.0, delta=delta, tau=tau, t_max=t_max, n_reps=n_reps,
        seed=master_seed)
    rec.cases = n_reps
    rec.check("envelope_coverage", fraction, threshold, 0.0,
              lambda: {"delta": delta, "tau": tau, "n_reps": n_reps,
                       "n_violating": n_violating})
    return rec.report()


SUITES = {
    "prop1": suite_prop1,
    "thm1": suite_thm1,
    "lemmas": suite_lemmas,
    "lipschitz": suite_lipschitz,
    "restart": suite_restart,
    "mixing": suite_mixing,
    "coverage": suite_coverage,
}


def run_suite(name: str, master_seed: int = DEFAULT_MASTER_SEED) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](master_seed=master_seed)
