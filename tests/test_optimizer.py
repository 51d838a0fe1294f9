import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import stl
from stlfleet.dynamics import rollout
from stlfleet.errors import SeedTooShort
from stlfleet.mission import compile_mission
from stlfleet.optimizer import (ITERATION_CAP, SATISFIED_WITH_MARGIN, VIOLATED,
                                OptimizerConfig, optimize, pullback_gradient)
from stlfleet.robustness import eval_exact, eval_smooth, gradient_smooth
from stlfleet.warmstart import build_graph, seed_trajectories, solve_assignment

from test_mission import make_scenario


def hover_seed(scenario):
    n = scenario.n_samples
    return rollout(scenario.depots, np.zeros_like(scenario.depots),
                   np.zeros((scenario.n_drones, n, 3)), scenario.ts)


def test_pullback_terminal_position_closed_form():
    n_samples, ts = 21, 0.05
    dpos = np.zeros((1, n_samples, 3))
    dvel = np.zeros((1, n_samples, 3))
    dpos[0, -1, 0] = 1.0  # objective depends only on the final position
    dacc = pullback_gradient(dpos, dvel, ts)
    n = n_samples - 1
    for k in range(n):
        assert dacc[0, k, 0] == pytest.approx((n - k - 0.5) * ts * ts)
    assert np.all(dacc[0, :, 1:] == 0.0)


def test_pullback_zero_block_for_uninvolved_drone():
    dpos = np.zeros((2, 10, 3))
    dvel = np.zeros((2, 10, 3))
    dpos[0, 5] = 1.0
    dvel[0, 3] = -2.0
    dacc = pullback_gradient(dpos, dvel, 0.05)
    assert np.any(dacc[0] != 0.0)
    assert np.all(dacc[1] == 0.0)


def test_full_chain_gradient_matches_finite_differences(rng):
    """Formula -> trace -> accelerations, against central differences."""
    scenario = make_scenario(mission=2.0)
    formula, _ = compile_mission(scenario)
    ts = scenario.ts
    acc = rng.normal(scale=0.4, size=(1, 40, 3))
    pos0 = scenario.depots
    vel0 = np.zeros_like(pos0)

    def objective(a):
        return eval_smooth(formula, rollout(pos0, vel0, a, ts), 0, 10.0)

    trace = rollout(pos0, vel0, acc, ts)
    _, dpos, dvel = gradient_smooth(formula, trace, sharpness=10.0)
    analytic = pullback_gradient(dpos, dvel, ts)
    h = 1e-6
    worst = 0.0
    for index in np.ndindex(acc.shape):
        base = acc[index]
        acc[index] = base + h
        up = objective(acc)
        acc[index] = base - h
        down = objective(acc)
        acc[index] = base
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(analytic[index] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_satisfying_seed_keeps_margin_and_monotone_history():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_trajectories(plan, scenario)
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=300, rng_seed=7, margin=0.05)
    result = optimize(formula, seed, scenario, config)
    assert result.status == SATISFIED_WITH_MARGIN
    assert result.smooth_objective >= 0.05
    history = np.asarray(result.objective_history)
    assert np.all(np.diff(history) >= 0)  # accepted iterates never get worse
    # soundness handoff: margin status implies exact satisfaction
    assert eval_exact(formula, result.trace, 0) > 0
    assert result.report.satisfied


def test_straight_line_seed_reaches_positive_exact():
    scenario = make_scenario(targets=[(-1.2, -3.0, 1.0)], mission=8.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    formula, _ = compile_mission(scenario)
    seed = seed_trajectories(solve_assignment(build_graph(scenario)), scenario)
    config = OptimizerConfig(max_iters=120, rng_seed=3)
    result = optimize(formula, seed, scenario, config)
    assert eval_exact(formula, result.trace, 0) > 0


def test_optimizer_repairs_separation_conflict_seed():
    """Straight warm-start legs cross inside the separation radius; the
    ascent must bend them apart before the mission satisfies."""
    scenario = make_scenario(n_drones=2, targets=[(0.0, -1.0, 1.0), (-4.0, -1.0, 1.0)],
                             mission=13.0, home_offset=(0.0, -1.5, 0.0), home_half=0.85,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": {1}, "blades": None}])
    formula, _ = compile_mission(scenario)
    seed = seed_trajectories(solve_assignment(build_graph(scenario)), scenario)
    assert eval_exact(formula, seed, 0) < 0
    config = OptimizerConfig(max_iters=600, rng_seed=0)
    result = optimize(formula, seed, scenario, config)
    assert eval_exact(formula, result.trace, 0) > 0


def test_unreachable_target_is_violated():
    # target sits well beyond v_max * mission duration from the depot
    scenario = make_scenario(targets=[(-3.0 + 8.0 + 4.0, -3.0, 1.0)], mission=8.0,
                             ws_half=12.0)
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=60, rng_seed=5, perturb_restarts=0)
    result = optimize(formula, hover_seed(scenario), scenario, config)
    # velocity bounds are soft clauses, so the unreachability bound applies to
    # the mission conjoined with them: covering 11.4 m from rest in 8 s at
    # peak speed V costs min(8V - V^2/2 - 11.4, 1 - V) <= -0.5 for every V
    vel = stl.atom(stl.Predicate.velocity_box("vcheck", 0, (-1, -1, -1), (1, 1, 1)))
    hard = stl.land(formula, stl.always(stl.Interval(0.0, 8.0 - scenario.ts), vel))
    assert eval_exact(hard, result.trace, 0) <= -0.5 + 1e-9
    assert result.status in (VIOLATED, ITERATION_CAP)
    assert not result.report.satisfied


def test_feasibility_projection_and_consistency(rng):
    scenario = make_scenario(targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=40, rng_seed=11)
    seed = hover_seed(scenario)
    seed.acc += rng.normal(scale=3.0, size=seed.acc.shape)  # deliberately out of box
    seed = rollout(seed.pos[:, 0], seed.vel[:, 0], seed.acc, seed.ts)
    result = optimize(formula, seed, scenario, config)
    a_max = np.asarray(scenario.limits[0].a_max)
    assert np.all(np.abs(result.trace.acc) <= a_max + 1e-15)
    assert result.trace.is_consistent(1e-9)


def test_determinism_bitwise_histories():
    scenario = make_scenario(targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    runs = []
    for _ in range(2):
        config = OptimizerConfig(max_iters=60, rng_seed=42)
        result = optimize(formula, hover_seed(scenario), scenario, config)
        runs.append(result.objective_history)
    assert runs[0] == runs[1]


def test_free_drone_mask_freezes_others():
    scenario = make_scenario(n_drones=2, targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    seed = hover_seed(scenario)
    config = OptimizerConfig(max_iters=30, rng_seed=1, perturb_restarts=0)
    result = optimize(formula, seed, scenario, config, free_drones=[0])
    assert np.array_equal(result.trace.acc[1], seed.acc[1])
    assert np.array_equal(result.trace.pos[1], seed.pos[1])


def test_non_finite_objective_carries_iterate():
    from stlfleet.errors import NonFiniteObjective
    scenario = make_scenario(mission=6.0)
    formula, _ = compile_mission(scenario)
    seed = hover_seed(scenario)
    seed.pos[0, 0, 0] = np.nan  # poisoned initial state propagates through rollout
    with pytest.raises(NonFiniteObjective) as err:
        optimize(formula, seed, scenario, OptimizerConfig(max_iters=5))
    assert err.value.accelerations is not None


def test_seed_too_short_raises():
    scenario = make_scenario(mission=8.0)
    formula, _ = compile_mission(scenario)
    short = rollout(scenario.depots, np.zeros_like(scenario.depots),
                    np.zeros((1, 10, 3)), scenario.ts)
    with pytest.raises(SeedTooShort):
        optimize(formula, short, scenario, OptimizerConfig(max_iters=5))


def test_velocity_bounds_hold_at_margin_status():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_trajectories(plan, scenario)
    formula, _ = compile_mission(scenario)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=120, rng_seed=2))
    if result.status == SATISFIED_WITH_MARGIN:
        v_max = np.asarray(scenario.limits[0].v_max)
        assert np.all(np.abs(result.trace.vel) <= v_max + 1e-9)


def test_plan_result_serialization():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_trajectories(plan, scenario)
    formula, _ = compile_mission(scenario)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=10, rng_seed=2))
    parsed = result.to_dict()
    assert parsed["status"] == result.status
    assert "report" in parsed
    csv_text = result.history_csv()
    assert csv_text.startswith("iteration,objective")


def _pullback_loop(dpos, dvel, ts):
    """Reference pullback: the reverse recursion, one sample at a time."""
    n_drones, n_samples, _ = dpos.shape
    n = n_samples - 1
    dacc = np.zeros((n_drones, n, 3))
    adj_p = dpos[:, n].copy()
    adj_v = dvel[:, n].copy()
    for k in range(n - 1, -1, -1):
        dacc[:, k] = 0.5 * ts * ts * adj_p + ts * adj_v
        adj_v += ts * adj_p + dvel[:, k]
        adj_p += dpos[:, k]
    return dacc


@settings(max_examples=60, deadline=None)
@given(drones=st.integers(1, 4), n=st.integers(0, 300),
       ts=st.sampled_from([0.05, 0.1, 0.013]), seed=st.integers(0, 2**32 - 1))
@example(drones=1, n=0, ts=0.05, seed=0)
@example(drones=4, n=0, ts=0.05, seed=1)
@example(drones=1, n=1, ts=0.05, seed=2)
@example(drones=3, n=1, ts=0.1, seed=3)
def test_pullback_bitwise_equals_reverse_loop(drones, n, ts, seed):
    rng = np.random.default_rng(seed)
    dpos = rng.normal(size=(drones, n + 1, 3))
    dvel = rng.normal(size=(drones, n + 1, 3))
    dacc = pullback_gradient(dpos, dvel, ts)
    assert dacc.shape == (drones, n, 3)
    assert np.array_equal(dacc, _pullback_loop(dpos, dvel, ts))
