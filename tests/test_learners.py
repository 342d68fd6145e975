import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiatrack.chains import (
    simulate,
    stationary_distribution,
    stream,
)
from adiatrack import dp, learners
from adiatrack.dp import RewardSpec, exact_q, exact_reward
from adiatrack.learners import (
    LearningRate,
    NoiseModel,
    TrackingTrace,
    materialize,
    q_track,
    td0_track,
    track,
)
from adiatrack.schedules import (
    _CHUNK,
    ConstantSchedule,
    CyclicSchedule,
    DriftParams,
    InterpolationSchedule,
    ShrinkingStateSchedule,
)
from adiatrack.verify import scan_families

from conftest import matrix_tv, trace_fields

A = np.array([[0.9, 0.1], [0.2, 0.8]])
B = np.array([[0.1, 0.9], [0.8, 0.2]])
SPEC = RewardSpec([1.0, 0.0], 0.5)
RATE = LearningRate(0.5, 0.6)
ZERO_NOISE = NoiseModel("zero", 0.0)


def _noise_draws(noise, t_max, seed):
    """A run's explicit noise at steps 1..t_max as the determinism contract
    states it: none for zero noise, else stream 1 of the seed."""
    if noise.kind == "zero":
        return None
    return stream(seed, 1).uniform(-noise.eps_max, noise.eps_max, t_max)


def test_learning_rate_validation():
    with pytest.raises(ValueError):
        LearningRate(1.5, 0.6)
    with pytest.raises(ValueError):  # alpha_t = c_alpha / t**gamma_alpha stays below 1
        LearningRate(1.0, 0.6)
    with pytest.raises(ValueError):
        LearningRate(0.5, 1.0)
    assert LearningRate(0.5, 0.6).alpha(1) == 0.5


def test_noise_model_validation_and_bounds():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 1.0)
    with pytest.raises(ValueError):
        NoiseModel("uniform-iid", 0.0)
    draws = _noise_draws(NoiseModel("uniform-iid", 0.25), 10_000, seed=3)
    assert np.abs(draws).max() <= 0.25
    assert abs(draws.mean()) < 0.01


# ------------------------------------------------------------------ td0_track

def _update(table, x, f_value, alpha_t, eps_t=0.0):
    """The documented one-component update, written out: only table[x] moves."""
    out = np.array(table, dtype=float)
    out[x] = out[x] + alpha_t * (f_value - out[x] + eps_t)
    return out


@pytest.mark.parametrize("noise", [ZERO_NOISE, NoiseModel("uniform-iid", 0.3)])
def test_td0_step_moves_only_the_visited_component(noise):
    # the component offset by 1000 dominates sup_error, so sup_error pins it
    # bit for bit: the visited one to the update, the others to their start
    p = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
    spec = RewardSpec([1.0, 0.5, -0.25], 0.5)
    rate = LearningRate(0.3, 0.5)
    star = exact_reward(p, spec)
    xn = simulate(ConstantSchedule(p), 1, 1, [4])[0, 1]
    eps = 0.0 if noise is ZERO_NOISE else _noise_draws(noise, 1, 4)[0]
    for k in range(3):
        init = np.array([0.1234567890123, -7.5, np.pi])
        init[k] += 1000.0
        trace = td0_track(ConstantSchedule(p), spec, rate, noise, t_max=1, seed=4,
                          checkpoint_grid=[1], x0=1, table_init=init)
        table = _update(init, 1, spec.r[1] + spec.beta * init[xn], rate.alpha(1), eps)
        assert table[1] != init[1]
        assert trace.sup_error[0, 0] == np.abs(table - star).max()


def test_td0_zero_rewards_zero_error():
    sched = ConstantSchedule(A)
    trace = td0_track(sched, RewardSpec([0.0, 0.0], 0.5), RATE, ZERO_NOISE,
                      t_max=500, seed=5, checkpoint_grid=[1, 10, 100, 500])
    assert (trace.sup_error == 0.0).all()
    assert trace.max_abs_value == [0.0]


def test_td0_first_update_is_alpha_times_reward():
    sched = ConstantSchedule(A)
    trace = td0_track(sched, SPEC, RATE, ZERO_NOISE, t_max=1, seed=9,
                      checkpoint_grid=[1])
    # after one update from zero the visited component holds alpha_1 * r(x)
    x0 = 0
    expected = np.zeros(2)
    expected[x0] = RATE.alpha(1) * SPEC.r[x0]
    star = exact_reward(A, SPEC)
    assert trace.sup_error[0, 0] == pytest.approx(np.abs(expected - star).max(), abs=0.0)


def _replay_with_simulate_and_sa_step(schedule, spec, rate, noise, t_max, seed, cps):
    """Independent recomposition of the tracker from its documented pieces."""
    path = simulate(schedule, t_max, 0, [seed])[0]
    eps = _noise_draws(noise, t_max, seed)
    table = np.zeros(spec.n)
    errors = []
    for t in range(1, t_max + 1):
        x, xn = path[t - 1], path[t]
        f_value = spec.r[x] + spec.beta * table[xn]
        table = _update(table, x, f_value, rate.alpha(t), 0.0 if eps is None else eps[t - 1])
        if t in cps:
            star = exact_reward(schedule.matrix_at(t), spec)
            errors.append(float(np.abs(table - star).max()))
    return errors


@pytest.mark.parametrize("noise", [ZERO_NOISE, NoiseModel("uniform-iid", 0.3)])
def test_td0_trace_equals_simulate_plus_sa_step_composition(noise):
    sched = InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0))
    cps = [1, 7, 50, 200, 800]
    trace = td0_track(sched, SPEC, RATE, noise, t_max=800, seed=21,
                      checkpoint_grid=cps)
    replay = _replay_with_simulate_and_sa_step(sched, SPEC, RATE, noise, 800, 21, set(cps))
    assert trace.sup_error[0].tolist() == replay


def test_td0_bit_identical_across_calls():
    sched = ConstantSchedule(A)
    kwargs = dict(t_max=3000, seed=77, checkpoint_grid=[10, 100, 3000])
    t1 = td0_track(sched, SPEC, RATE, NoiseModel("uniform-iid", 0.2), **kwargs)
    t2 = td0_track(sched, SPEC, RATE, NoiseModel("uniform-iid", 0.2), **kwargs)
    assert t1.sup_error.tolist() == t2.sup_error.tolist()
    assert t1.max_abs_value == t2.max_abs_value


def test_td0_seeds_differ():
    sched = ConstantSchedule(A)
    t1 = td0_track(sched, SPEC, RATE, ZERO_NOISE, 2000, 1, [2000])
    t2 = td0_track(sched, SPEC, RATE, ZERO_NOISE, 2000, 2, [2000])
    assert t1.sup_error[0, -1] != t2.sup_error[0, -1]


def test_trace_diagnostics_at_checkpoints():
    # checkpoints on both sides of a block edge, and at t_max = 2 _CHUNK + 1,
    # whose P^(t_max+1) closes a one-step block of its own
    t_max = 2 * _CHUNK + 1
    # the diagnostics are the certified walk's: a constant block's pi_min is one
    # solve broadcast over the block, the others are solved per matrix
    cps = [10, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1, t_max]
    restart = next(s for s in scan_families() if s.kind == "restart-wrapped")
    for sched, spec in ((InterpolationSchedule(A, B, DriftParams(0.05, 1.0, 0.25, 0.0)), SPEC),
                        (CyclicSchedule([A, B], DriftParams(0.05, 0.5, 0.25, 0.0)), SPEC),
                        (ConstantSchedule(A), SPEC),
                        (ShrinkingStateSchedule(DriftParams(0.2, 1.5, 0.2, 0.5)),
                         RewardSpec([1.0, 0.0, 0.5], 0.5)),
                        (restart, SPEC)):
        trace = td0_track(sched, spec, RATE, ZERO_NOISE, t_max, 3, cps)
        assert trace.t == cps
        for t, alpha_t, pi_min_t, drift_t in zip(trace.t, trace.alpha_t, trace.pi_min_t,
                                                 trace.drift_t):
            assert alpha_t == RATE.alpha(t)
            assert pi_min_t == stationary_distribution(sched.matrix_at(t)).min()
            assert drift_t == matrix_tv(sched.matrix_at(t + 1), sched.matrix_at(t))


def test_tracking_trace_rejects_unordered_checkpoints():
    with pytest.raises(ValueError):
        TrackingTrace(seeds=[0], t=[5, 5], alpha_t=[0.5, 0.5], pi_min_t=[0.3, 0.3],
                      drift_t=[0.0, 0.0], sup_error=np.array([[0.1, 0.1]]),
                      max_abs_value=[1.0])


def test_trace_csv_format(tmp_path):
    sched = ConstantSchedule(A)
    trace = td0_track(sched, SPEC, RATE, ZERO_NOISE, 50, 4, [1, 50])
    trace.write_csv(tmp_path, "trace")
    raw = (tmp_path / "trace_4.csv").read_bytes()
    assert b"\r" not in raw  # RFC-4180-plain with LF endings
    lines = raw.decode().splitlines()
    assert lines[0] == "t,sup_error,alpha_t,pi_min_t,drift_t"
    assert len(lines) == 3
    values = [float(v) for v in lines[1].split(",")]
    assert values[0] == 1.0


def test_write_csv_writes_one_file_per_seed(tmp_path):
    # the shared columns once, each seed's sup_error row in its own file
    trace = TrackingTrace(seeds=[3, 8], t=[1, 10], alpha_t=[0.5, 0.1], pi_min_t=[0.3, 0.25],
                          drift_t=[0.0, 0.01], sup_error=np.array([[0.1, 0.2], [0.3, 1 / 3]]),
                          max_abs_value=[1.0, 2.0])
    trace.write_csv(tmp_path, "abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abc_3.csv", "abc_8.csv"]
    header = b"t,sup_error,alpha_t,pi_min_t,drift_t\n"
    assert (tmp_path / "abc_3.csv").read_bytes() == \
        header + b"1,0.1,0.5,0.3,0.0\n10,0.2,0.1,0.25,0.01\n"
    assert (tmp_path / "abc_8.csv").read_bytes() == \
        header + b"1,0.3,0.5,0.3,0.0\n10,0.3333333333333333,0.1,0.25,0.01\n"


# -------------------------------------------------------------------- q_track

def _product_chain():
    trans = {(0, 0): (0.9, 0.1), (0, 1): (0.2, 0.8),
             (1, 0): (0.7, 0.3), (1, 1): (0.4, 0.6)}
    rows = np.zeros((4, 4))
    for (s, a), row in trans.items():
        for sp in range(2):
            for ap in range(2):
                rows[2 * s + a, 2 * sp + ap] = row[sp] * 0.5
    return rows


def _three_action_chain():
    """A 2-state, 3-action product chain: rows (s, a), columns (s', a'), each
    next state's mass spread evenly over its actions."""
    trans = [(0.9, 0.1), (0.6, 0.4), (0.2, 0.8), (0.7, 0.3), (0.4, 0.6), (0.5, 0.5)]
    return np.array([[row[j // 3] / 3 for j in range(6)] for row in trans])


def test_q_zero_rewards_zero_error():
    sched = ConstantSchedule(_product_chain())
    trace = q_track(sched, RewardSpec([0.0] * 4, 0.5), 2, RATE, ZERO_NOISE,
                    300, 6, [300])
    assert trace.sup_error[0, 0] == 0.0


def test_q_single_action_matches_td0_step_for_step():
    sched = ConstantSchedule(A)
    cps = [1, 10, 100, 1000]
    td = td0_track(sched, SPEC, RATE, ZERO_NOISE, 1000, 31, cps)
    q = q_track(sched, SPEC, 1, RATE, ZERO_NOISE, 1000, 31, cps)
    # identical recursions: the running table norm agrees bit for bit, and so
    # do the errors: with one action, exact_q's one policy solve is exact_reward's
    assert td.max_abs_value == q.max_abs_value
    assert td.sup_error.tolist() == q.sup_error.tolist()


def test_q_track_requires_product_space():
    sched = ConstantSchedule(_product_chain())
    with pytest.raises(ValueError):
        q_track(sched, RewardSpec([0.0] * 4, 0.5), 3, RATE, ZERO_NOISE, 10, 0, [10])


def test_q_track_follows_drifting_product_schedule():
    # product-space drift: the moving target is re-solved at each checkpoint
    p_start = _product_chain()
    rng = np.random.default_rng(41)
    raw = rng.random((4, 4))
    p_end = raw / raw.sum(axis=1, keepdims=True)
    sched = InterpolationSchedule(p_start, p_end, DriftParams(0.02, 1.0, 0.05, 0.0))
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5)
    cps = [10, 300, 3000]
    trace = q_track(sched, spec, 2, RATE, ZERO_NOISE, 3000, 13, cps)
    assert trace.t == cps
    assert trace.sup_error[0, -1] < trace.sup_error[0, 0]
    assert trace.max_abs_value[0] <= spec.r_max / (1 - spec.beta) + 1e-9
    star = exact_q(sched.matrix_at(3000)[None], spec.r[None], np.array([spec.beta]), 2)[0]
    assert np.isfinite(star).all()
    assert trace.drift_t[-1] > 0.0  # schedule still moving at T


# ------------------------------------------------ kernel vs a per-step loop

def _sample_from_row(row_cumsum, u):
    """Inverse-CDF draw on one row: first index whose cumulative mass exceeds u."""
    i, last = 0, row_cumsum.size - 1
    while i < last and row_cumsum[i] <= u:
        i += 1
    return i


def _per_step_track(schedule, spec, n_actions, rate, noise, t_max, seed, cps, x0,
                    table_init):
    """The tracking recursion as a straight numpy loop, one step at a time.

    n_actions 1 is TD(0); above 1 Q-learning with the max over the next
    state's action block.  Returns trace_fields of its one-seed trace.
    """
    n = schedule.n
    cums = np.cumsum(schedule.block(1, t_max + 1), axis=2)
    uniforms = stream(seed, 0).random(t_max)
    eps = _noise_draws(noise, t_max, seed)
    table = np.zeros(n) if table_init is None else np.array(table_init, dtype=float)
    max_abs = float(np.abs(table).max())
    x, rows = x0, []
    for t in range(1, t_max + 1):
        xn = _sample_from_row(cums[t - 1, x], uniforms[t - 1])
        if n_actions == 1:
            boot = table[xn]
        else:
            sp = xn // n_actions
            boot = table[sp * n_actions:(sp + 1) * n_actions].max()
        alpha_t = rate.alpha(t)
        table[x] = table[x] + alpha_t * (spec.r[x] + spec.beta * boot - table[x]
                                         + (0.0 if eps is None else eps[t - 1]))
        max_abs = max(max_abs, abs(table[x]))
        x = xn
        if t in cps:
            mat, nxt = schedule.matrix_at(t), schedule.matrix_at(t + 1)
            target = (exact_reward(mat, spec) if n_actions == 1
                      else exact_q(mat[None], spec.r[None], np.array([spec.beta]),
                                   n_actions)[0])
            rows.append((t, float(np.abs(table - target).max()), alpha_t,
                         float(stationary_distribution(mat).min()), matrix_tv(nxt, mat)))
    t, sup_error, alpha_t, pi_min_t, drift_t = map(list, zip(*rows))
    return [seed], t, alpha_t, pi_min_t, drift_t, [sup_error], [max_abs]


@st.composite
def _kernel_cases(draw):
    # one action through td0_track, then q_track at each number of actions
    via_td0, n_actions = draw(st.sampled_from([(True, 1), (False, 1), (False, 2), (False, 3)]))
    n = draw(st.integers(2, 3)) * n_actions
    kind = draw(st.sampled_from(["constant", "interpolation", "cyclic"]))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=3 * n * n,
                                 max_size=3 * n * n))).reshape(3, n, n)
    # every entry is at least 1e-3 / 9 after normalising, so every pi_min, blends
    # included, meets the declared floor c_pi = 1e-4
    mats = [m / m.sum(axis=1, keepdims=True) for m in raw]
    if kind == "constant":
        sched = ConstantSchedule(mats[0])
    elif kind == "interpolation":
        sched = InterpolationSchedule(mats[0], mats[1], DriftParams(0.05, 0.8, 1e-4, 0.0))
    else:
        sched = CyclicSchedule(mats, DriftParams(0.05, 0.5, 1e-4, 0.0))
    spec = RewardSpec(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
                      draw(st.sampled_from([0.5, 0.9])))
    noise = draw(st.sampled_from([ZERO_NOISE, NoiseModel("uniform-iid", 0.3)]))
    t_max = draw(st.integers(2049, 2300))  # past the 2048-matrix block edge
    cps = sorted(set(draw(st.lists(st.integers(1, t_max), min_size=1, max_size=6)))
                 | {2048, 2049, t_max})
    x0 = draw(st.integers(0, n - 1))
    table_init = draw(st.none() | st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return sched, spec, via_td0, n_actions, noise, t_max, draw(st.integers(0, 2**31)), cps, \
        x0, table_init


@settings(max_examples=25, deadline=None)
@given(_kernel_cases())
def test_kernel_equals_per_step_numpy_loop(case):
    sched, spec, via_td0, n_actions, noise, t_max, seed, cps, x0, table_init = case
    kwargs = dict(t_max=t_max, seed=seed, checkpoint_grid=cps, x0=x0,
                  table_init=table_init)
    trace = (td0_track(sched, spec, RATE, noise, **kwargs) if via_td0
             else q_track(sched, spec, n_actions, RATE, noise, **kwargs))
    assert trace_fields(trace) == _per_step_track(sched, spec, n_actions, RATE, noise, t_max,
                                                  seed, set(cps), x0, table_init)  # bit for bit


def _tied_table(n, n_actions):
    """A start table whose every action block (at one action, every pair of
    entries) holds one value throughout, so Q-learning's block max is both
    raised and recomputed."""
    return [0.5 if (i // max(n_actions, 2)) % 2 else -0.25 for i in range(n)]


@pytest.mark.parametrize("n_actions", [1, 2, 3])
@pytest.mark.parametrize("t_max, cps, tied", [
    pytest.param(10_007, [1, 2047, 2048, 2049, 6000, 10_007], False, id="10007"),
    pytest.param(3 * 2048, [1, 2047, 2048, 2049, 6000, 3 * 2048], False, id="6144"),
    # the last checkpoint is the first block's last step: its tail segment is empty
    pytest.param(2048, [1, 2047, 2048], False, id="2048"),
    # a checkpoint at every step: segments of one step, back to back
    pytest.param(2500, [*range(1, 301), 2047, 2048, 2049], False, id="every-t"),
    pytest.param(4500, [1, 300, 2048, 2049, 4500], True, id="tied"),
])
def test_kernel_equals_per_step_numpy_loop_across_many_blocks(n_actions, t_max, cps, tied):
    # several blocks: each seed's uniforms and noise, drawn block by block, must
    # continue one stream, and the checkpoints at the edges see the right matrix;
    # at t_max = 3 * 2048 the walk's last block holds P^(t_max+1) alone
    p = _product_chain() if n_actions != 3 else _three_action_chain()
    sched = InterpolationSchedule(p, np.full(p.shape, 1.0 / len(p)),
                                  DriftParams(0.02, 1.0, 0.05, 0.0))
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25, -0.5, 0.75][:len(p)], 0.5)
    noise = NoiseModel("uniform-iid", 0.3)
    table_init = _tied_table(len(p), n_actions) if tied else None
    kwargs = dict(t_max=t_max, seed=5, checkpoint_grid=cps, x0=3, table_init=table_init)
    trace = (td0_track(sched, spec, RATE, noise, **kwargs) if n_actions == 1
             else q_track(sched, spec, n_actions, RATE, noise, **kwargs))
    assert trace_fields(trace) == _per_step_track(sched, spec, n_actions, RATE, noise, t_max,
                                                  5, set(cps), 3, table_init)


@pytest.mark.parametrize("n_actions", [1, 2])
def test_track_at_two_rates_equals_two_one_rate_calls(n_actions):
    # every rate's run of a seed reads that seed's one set of path and noise
    # draws per block: sharing them changes no bit of any trace
    sched = InterpolationSchedule(_product_chain(), np.full((4, 4), 0.25),
                                  DriftParams(0.02, 1.0, 0.05, 0.0))
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5)
    noise = NoiseModel("uniform-iid", 0.3)
    rates, seeds, cps = [RATE, LearningRate(0.3, 0.8)], [5, 6, 7], [1, 2048, 2049, 4500]
    shared = track(sched, spec, rates, noise, 4500, seeds, cps, x0=3, n_actions=n_actions)
    assert len(shared) == 2 and trace_fields(shared[0]) != trace_fields(shared[1])
    for rate, trace in zip(rates, shared):
        alone, = track(sched, spec, [rate], noise, 4500, seeds, cps, x0=3,
                       n_actions=n_actions)
        assert trace_fields(trace) == trace_fields(alone)


def test_track_solves_each_blocks_q_targets_in_one_call(monkeypatch):
    # one dp.exact_q call per block of the walk, on the stack of that block's
    # checkpoint matrices; a block with no checkpoint passes an empty stack
    sched = InterpolationSchedule(_product_chain(), np.full((4, 4), 0.25),
                                  DriftParams(0.02, 1.0, 0.05, 0.0))
    spec, cps, t_max = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5), [1, 2, 2047, 6000], 3 * 2048
    calls, real = [], dp.exact_q
    monkeypatch.setattr(dp, "exact_q", lambda mats, *a, **k: calls.append(len(mats))
                        or real(mats, *a, **k))
    track(sched, spec, [RATE], ZERO_NOISE, t_max, [5], cps, n_actions=2)
    per_block = [sum(lo <= t < lo + cols.shape[2] for t in cps)
                 for lo, _, cols, _, _ in materialize(sched, t_max)]
    assert calls == per_block and 0 in per_block and sum(per_block) == len(cps)


@pytest.mark.parametrize("chain", [A, _product_chain()], ids=["n=2", "n=4"])
def test_materialize_yields_the_row_cumsums_in_column_layout(chain):
    # cols[i, x, j]: the mass of columns <= i in row x at step j, contiguous,
    # bit for bit the (k, n, n) row cumsum of the block's step matrices
    sched = InterpolationSchedule(chain, np.full(chain.shape, 1 / len(chain)),
                                  DriftParams(0.02, 1.0, 0.05, 0.0))
    for _, block, cols, _, _ in materialize(sched, 3000):
        assert cols.flags.c_contiguous and cols.shape == (len(chain), len(chain), len(block) - 1)
        rows = np.cumsum(block[:-1], axis=2)
        assert cols.tobytes() == np.ascontiguousarray(rows.transpose(2, 1, 0)).tobytes()


@pytest.mark.parametrize("chain, n_actions, table_init", [
    (A, 1, [0.0, 0.0, 7.0]),  # a phantom third entry
    (A, 1, [0.0, np.nan]),
    (_product_chain(), 2, [0.0, 0.0, 0.0]),  # one short of the 4 (state, action) pairs
])
def test_track_refuses_a_malformed_table_init_before_the_walk(monkeypatch, chain, n_actions,
                                                               table_init):
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(learners, "materialize", walk)
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25][:len(chain)], 0.5)
    with pytest.raises(ValueError, match="table_init"):
        track(ConstantSchedule(chain), spec, [RATE], ZERO_NOISE, 100, [1], [100],
              n_actions=n_actions, table_init=table_init)


@pytest.mark.parametrize("n_actions", [0, -2])
def test_track_refuses_n_actions_below_one_before_the_walk(monkeypatch, n_actions):
    # 0 divided n by zero; -2 divides the 4 pairs and failed inside the first
    # block's target solve, after the scan
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(learners, "materialize", walk)
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25], 0.5)
    with pytest.raises(ValueError, match=rf"^n_actions must be >= 1, got {n_actions}$"):
        track(ConstantSchedule(_product_chain()), spec, [RATE], ZERO_NOISE, 100, [1], [100],
              n_actions=n_actions)


@pytest.mark.parametrize("n_actions", [1, 2])
def test_track_without_seeds_or_rates(n_actions):
    # the scores are one stack of (rates, seeds, checkpoints): an empty axis
    # keeps its place, a trace of no seeds per rate, or no trace at all
    chain = A if n_actions == 1 else _product_chain()
    spec = RewardSpec([1.0, 0.0, 0.5, 0.25][:len(chain)], 0.5)
    args = (ConstantSchedule(chain), spec)
    rates = [RATE, LearningRate(0.3, 0.8)]
    traces = track(*args, rates, ZERO_NOISE, 3000, [], [1, 3000], n_actions=n_actions)
    assert [(trace.seeds, trace.sup_error.shape, trace.max_abs_value) for trace in traces] \
        == [([], (0, 2), [])] * 2
    assert track(*args, [], ZERO_NOISE, 3000, [4, 5], [1, 3000], n_actions=n_actions) == []


# --------------------------------------------------------------- boundedness

def test_boundedness_ball_zero_case():
    sched = ConstantSchedule(A)
    trace = td0_track(sched, RewardSpec([0.0, 0.0], 0.5), RATE, ZERO_NOISE,
                      200, 8, [200])
    # the ball of radius (f_max + eps_max) / (1 - beta): f_max = eps_max = 0, beta = 0.5
    assert trace.max_abs_value[0] <= (0.0 + 0.0) / (1 - 0.5) + 1e-9
    assert trace.max_abs_value == [0.0]


def test_boundedness_ball_radius_two():
    # r_max = 1, no explicit noise, beta = 0.5: iterates stay within radius 2
    sched = ConstantSchedule(A)
    for seed in range(6):
        trace = td0_track(sched, SPEC, RATE, ZERO_NOISE, 20_000, seed,
                          [1, 100, 20_000])
        assert trace.max_abs_value[0] <= (SPEC.r_max + 0.0) / (1 - 0.5) + 1e-9, seed


def test_boundedness_with_explicit_noise():
    sched = ConstantSchedule(A)
    noise = NoiseModel("uniform-iid", 0.5)
    trace = td0_track(sched, SPEC, RATE, noise, 20_000, 17, [20_000])
    assert trace.max_abs_value[0] <= (SPEC.r_max + 0.5) / (1 - 0.5) + 1e-9


def test_adversarial_start_reenters_ball_and_stays():
    # start far outside the ball; once any norm snapshot is inside, it stays
    sched = ConstantSchedule(A)
    radius = SPEC.r_max / (1 - SPEC.beta)
    path = simulate(sched, 30_000, 0, [23])[0]
    table = np.array([10.0, -10.0])
    reentry = None
    for t in range(1, 30_001):
        x, xn = path[t - 1], path[t]
        table = _update(table, x, SPEC.r[x] + SPEC.beta * table[xn], RATE.alpha(t))
        norm = np.abs(table).max()
        if reentry is None and norm <= radius:
            reentry = t
        elif reentry is not None:
            assert norm <= radius + 1e-9
    assert reentry is not None  # re-entry time observed, value not asserted


def test_adversarial_run_via_table_init_records_excursion():
    sched = ConstantSchedule(A)
    trace = td0_track(sched, SPEC, RATE, ZERO_NOISE, 5_000, 2, [5_000],
                      table_init=[10.0, -10.0])
    assert trace.max_abs_value == [10.0]  # never exceeds the initial excursion
    # the ball criterion is for runs started at zero
    assert not trace.max_abs_value[0] <= (SPEC.r_max + 0.0) / (1 - 0.5) + 1e-9


# ------------------------------------------------- static-chain median decay

def test_static_schedule_median_error_decays(static_td_run, reference):
    """Static chain: 20-seed median sup_error is non-increasing along the
    checkpoint grid after burn-in, within the jitter slack frozen from the
    reference run, and strictly decreasing decade over decade."""
    _, summary, _, _ = static_td_run
    slack = reference["thresholds"]["monotonicity_slack"]
    ts = np.array(summary["checkpoints"])
    med = np.array(summary["median_sup_error"])
    tail = med[ts >= 1000]
    assert (tail[1:] <= slack * tail[:-1]).all()
    early = np.median(med[(ts >= 1000) & (ts <= 10_000)])
    late = np.median(med[ts >= 10_000])
    assert late < early
