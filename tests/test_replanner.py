import numpy as np
import pytest

from stlfleet import stl
from stlfleet.errors import NoRemainingTasks
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.optimizer import OptimizerConfig, optimize
from stlfleet.replanner import (ExecutionState, _window_formula, detect_event, relaxed_limits,
                                replan, simulate_with_disturbance)
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
    limits = relaxed_limits(DroneLimits(1.0, 1.0, 2.0, 5.0))
    assert limits.v_max == (2.0, 2.0, 2.0)
    assert limits.a_max == (5.0, 5.0, 5.0)


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


# drone 2 of the bundled turbine, the only one that inspects the blade,
# replanning samples 90 to 138 as a 1.5 m push at 4.5 s does
WINDOW_STEPS = 48


def _turbine_window(steps=WINDOW_STEPS, skipped=(("target", 1), ("blade", 1))):
    scenario = fixture_windturbine()
    formula = _window_formula(scenario, 2, steps, list(skipped), scenario.depots[2],
                              np.zeros(3))
    return scenario, compile_mission(scenario)[0], formula


def _clauses(formula):
    return {child.node_id: child for child in formula.children}


def test_window_atoms_are_the_missions_own_predicates():
    scenario, mission, window = _turbine_window()
    predicates = [node.predicate for node in mission if node.kind == stl.ATOM]
    atoms = [node.predicate for node in window if node.kind == stl.ATOM]
    own = [p for p in atoms if p.name not in ("rw_rejoin_pos", "rw_rejoin_vel")]
    assert len(own) == len(atoms) - 2
    assert all(p in predicates for p in own)


def test_skipped_blade_side_dwells_as_in_the_mission():
    scenario, mission, window = _turbine_window()
    dwell = next(n for n in mission if n.node_id == "blade[1]").children[0]
    assert {n.predicate.subject for n in dwell if n.kind == stl.ATOM} == {(2,)}
    clause = _clauses(window)["replan_blade[1]"]
    assert clause.kind == stl.EVENTUALLY
    assert clause.interval == stl.Interval(
        0.0, WINDOW_STEPS * scenario.ts - scenario.blade_duration)
    assert clause.children == (dwell,)


def test_window_shorter_than_the_dwell_drops_the_task():
    # 1.2 s holds the 1 s target dwell but not the 1.5 s blade dwell
    scenario, _, window = _turbine_window(steps=24)
    assert set(_clauses(window)) == {"replan_safety", "replan_target[1]", "replan_rejoin"}
