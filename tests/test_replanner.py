import numpy as np
import pytest

from stlfleet.errors import NoRemainingTasks
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.optimizer import (SATISFIED_NO_MARGIN, SATISFIED_WITH_MARGIN, OptimizerConfig,
                                optimize)
from stlfleet.pipeline import run_pipeline
from stlfleet.replanner import ExecutionState, detect_event, replan, simulate_with_disturbance
from stlfleet.robustness import eval_exact
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from test_mission import make_scenario


@pytest.fixture(scope="module")
def committed():
    """A small committed plan: two drones, one target each, 13 s."""
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0), (-1.0, -1.8, 1.0)],
                             mission=13.0, home_offset=(0.0, -1.5, 0.0), home_half=0.85,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": {1}, "blades": None}])
    plan = solve_assignment(build_graph(scenario))
    seed, schedules = seed_with_schedule(plan, scenario)
    formula, _ = compile_mission(scenario)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=300, rng_seed=4))
    assert eval_exact(formula, result.trace, 0) > 0
    return scenario, formula, result.trace, schedules


def test_detect_event_thresholds():
    assert detect_event((1.2, 0, 0), (0, 0, 0), 1.0)
    assert not detect_event((1.0, 0, 0), (0, 0, 0), 1.0)  # strict inequality
    assert not detect_event((0, 0, 0), (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        detect_event((0, 0, 0), (0, 0, 0), 0.0)


def test_relaxed_limits_preserved():
    from stlfleet.dynamics import DroneLimits
    limits = DroneLimits(1.0, 1.0, 2.0, 5.0).relaxed()
    assert limits.v_max == (2.0, 2.0, 2.0)
    assert limits.a_max == (5.0, 5.0, 5.0)
    assert (limits.v_max_relaxed, limits.a_max_relaxed) == (limits.v_max, limits.a_max)


def test_empty_schedule_executes_plan_exactly(committed):
    scenario, formula, trace, schedules = committed
    state = simulate_with_disturbance(trace, schedules, [], scenario)
    assert state.events == []
    assert np.array_equal(state.executed.pos, trace.pos)
    assert np.array_equal(state.executed.vel, trace.vel)
    assert np.array_equal(state.executed.acc, trace.acc)


def test_subthreshold_offset_triggers_nothing(committed):
    scenario, formula, trace, schedules = committed
    state = simulate_with_disturbance(trace, schedules, [(5.0, 0, (0.5, 0, 0))], scenario)
    assert state.events == []
    # the offset persists as a rigid shift of the remaining positions
    k = int(round(5.0 / scenario.ts))
    assert np.allclose(state.executed.pos[0, k:] - trace.pos[0, k:], [0.5, 0, 0])


def test_single_event_replan_and_splice(committed):
    scenario, formula, trace, schedules = committed
    gap = (schedules[0][0].depart + schedules[0][-1].arrive) // 2
    t_dist = gap * scenario.ts
    config = OptimizerConfig(max_iters=150, rng_seed=2)
    state = simulate_with_disturbance(trace, schedules, [(t_dist, 0, (0.0, 1.2, 0.0))],
                                      scenario, config)
    assert len(state.events) == 1
    event = state.events[0]
    assert event.drone == 0
    assert event.deviation == pytest.approx(1.2)
    assert event.time == pytest.approx(t_dist)

    # unaffected drone's trajectory is reused bit for bit
    assert np.array_equal(state.executed.pos[1], trace.pos[1])
    assert np.array_equal(state.executed.vel[1], trace.vel[1])
    assert np.array_equal(state.committed.pos[1], trace.pos[1])

    # splice continuity at the window end, machine precision
    k0, k1 = event.window
    assert np.abs(state.committed.pos[0, k1] - trace.pos[0, k1]).max() < 1e-9
    assert np.abs(state.committed.vel[0, k1] - trace.vel[0, k1]).max() < 1e-9
    # and the segment starts exactly at the displaced position
    assert np.allclose(state.executed.pos[0, k0] - trace.pos[0, k0], [0.0, 1.2, 0.0],
                       atol=1e-12)

    # the executed trace still satisfies the full mission
    assert eval_exact(formula, state.executed, 0) > 0

    # replanned segment respects the relaxed boxes (and may exceed nominal)
    seg_acc = state.committed.acc[0, k0:k1]
    assert np.all(np.abs(seg_acc) <= 5.0 + 1e-9)


def test_event_absorbed_inside_active_window(committed):
    scenario, formula, trace, schedules = committed
    gap = (schedules[0][0].depart + schedules[0][-1].arrive) // 2
    t0 = gap * scenario.ts
    config = OptimizerConfig(max_iters=120, rng_seed=2)
    state = simulate_with_disturbance(
        trace, schedules,
        [(t0, 0, (0.0, 1.2, 0.0)), (t0 + 0.2, 0, (0.0, 1.2, 0.0))],
        scenario, config)
    # second offset lands inside the replan window of the first event
    first_window = state.events[0].window
    assert int(round((t0 + 0.2) / scenario.ts)) <= first_window[1]
    assert len(state.events) == 1


def test_replan_after_mission_end_raises(committed):
    scenario, formula, trace, schedules = committed
    state = ExecutionState(sample=trace.n_samples - 1, committed=trace.copy(),
                           executed=trace.copy(), schedules=schedules)
    with pytest.raises(NoRemainingTasks):
        replan(state, scenario, 0, OptimizerConfig(max_iters=10))


def test_glide_home_when_no_tasks_remain(committed):
    scenario, formula, trace, schedules = committed
    # deviation after the last task of drone 0 but well before mission end
    last_task = max(e.depart for e in schedules[0] if e.kind == "target")
    t_dist = (last_task + 20) * scenario.ts
    config = OptimizerConfig(max_iters=100, rng_seed=3)
    state = simulate_with_disturbance(trace, schedules, [(t_dist, 0, (0.0, 1.3, 0.0))],
                                      scenario, config)
    assert len(state.events) == 1
    assert state.events[0].kind == "glide_home"
    assert state.events[0].window[1] == trace.n_samples - 1
    # ends where the committed plan ends
    assert np.allclose(state.executed.pos[0, -1], trace.pos[0, -1], atol=1e-9)


# the pushes of perfbench's workloads.disturbance(seed=1, op) for ops 0-7,
# and a push of drone 2 whose window, samples 90 to 138, skips blade side 1
PUSHES = {
    "op0": {"time": 0.75, "drone": 1, "offset": [0.9133791670519403, 1.1647693110859747, 0.0]},
    "op1": {"time": 2.4000000000000004, "drone": 0,
            "offset": [-1.3432122716340722, -0.06446642032886778, 0.0]},
    "op2": {"time": 4.25, "drone": 1, "offset": [-1.1149679006185969, 0.6129667328490196, 0.0]},
    "op3": {"time": 5.550000000000001, "drone": 0,
            "offset": [-1.1107088567765138, 0.315478905880386, 0.0]},
    "op4": {"time": 7.4, "drone": 1, "offset": [1.2721264999698412, -0.6749917806520163, 0.0]},
    "op5": {"time": 9.4, "drone": 1, "offset": [1.0008541106944562, -1.0728322979523939, 0.0]},
    "op6": {"time": 10.850000000000001, "drone": 0,
            "offset": [0.5121901991377276, -1.3734518752327336, 0.0]},
    "op7": {"time": 12.55, "drone": 1, "offset": [-0.8268135783615307, -1.0629020725891265, 0.0]},
    "blade": {"time": 4.5, "drone": 2, "offset": [0, 1.5, 0]},
}
CLI_DEFAULTS = OptimizerConfig(max_iters=600, rng_seed=0)


@pytest.fixture(scope="module")
def turbine_plan():
    scenario = fixture_windturbine()
    return scenario, run_pipeline(scenario, "basic", CLI_DEFAULTS)


@pytest.mark.parametrize("push", list(PUSHES))
def test_event_verdict_is_the_missions_on_the_executed_plan(turbine_plan, push):
    scenario, plan = turbine_plan
    committed = plan.result.trace
    entry = PUSHES[push]
    state = simulate_with_disturbance(committed, plan.schedules,
                                      [(entry["time"], entry["drone"], entry["offset"])],
                                      scenario, CLI_DEFAULTS)
    assert len(state.events) == 1
    event = state.events[0]
    exact = eval_exact(plan.formula, state.executed, 0)
    assert abs(event.exact - exact) <= 1e-9
    assert (event.status in (SATISFIED_WITH_MARGIN, SATISFIED_NO_MARGIN)) == (exact > 0)

    k, end = event.window
    for trace in (state.executed, state.committed):
        for field in ("pos", "vel", "acc"):
            ours, theirs = getattr(trace, field), getattr(committed, field)
            assert np.array_equal(ours[:, :k], theirs[:, :k])
            for d in range(committed.n_drones):
                if d != event.drone:
                    assert np.array_equal(ours[d], theirs[d])
    for field in ("pos", "vel"):
        seam = getattr(state.committed, field)[event.drone, end] - getattr(committed, field)[
            event.drone, end]
        assert np.abs(seam).max() <= 1e-9
    # the executed trace is the final plan, flown at the pushed positions
    # until the replan at k
    for field in ("vel", "acc"):
        assert np.array_equal(getattr(state.executed, field), getattr(state.committed, field))
    assert np.array_equal(state.executed.pos[:, k:], state.committed.pos[:, k:])
