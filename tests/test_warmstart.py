import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet.dynamics import DroneLimits, time_of_flight
from stlfleet.errors import HorizonOverflow, Uncoverable
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import BladeSide, Box
from stlfleet.warmstart import (InspectionGraph, RoutePlan, TaskNode, build_graph,
                                INFEASIBLE_EDGE, seed_with_schedule, solve_assignment,
                                verify_plan)

from test_mission import make_scenario


def graph_from_weights(w_task, w_depot, capable=None):
    """Hand-built graph: w_task (drones, tasks, tasks), w_depot (drones, tasks)."""
    w_task = np.asarray(w_task, float)
    w_depot = np.asarray(w_depot, float)
    drones, tasks = w_depot.shape
    nodes = [TaskNode(i, "target", i, (float(i), 0.0, 0.0)) for i in range(tasks)]
    if capable is None:
        capable = np.ones((drones, tasks), dtype=bool)
    depots = np.zeros((drones, 3))
    depots[:, 1] = -1.0 - np.arange(drones)
    return InspectionGraph(nodes, depots, w_task, w_depot, np.asarray(capable, bool))


def brute_force_optimum(graph):
    """Exhaustive enumeration over visit-once route sets."""
    tasks = list(range(graph.n_tasks))
    drones = graph.n_drones
    best = np.inf
    for assignment in itertools.product(range(drones), repeat=len(tasks)):
        if any(not graph.capable[d, t] for t, d in zip(tasks, assignment)):
            continue
        total = 0.0
        for d in range(drones):
            mine = [t for t, owner in zip(tasks, assignment) if owner == d]
            if not mine:
                continue
            sub_best = min(
                graph.w_depot[d, order[0]]
                + sum(graph.w_task[d, a, b] for a, b in zip(order, order[1:]))
                + graph.w_depot[d, order[-1]]
                for order in itertools.permutations(mine))
            total += sub_best
        best = min(best, total)
    return best


def test_build_graph_topology_and_symmetry():
    scenario = make_scenario(n_drones=2,
                             targets=[(0, 0, 1), (1, 0, 1), (0, 2, 1)], blade=True)
    graph = build_graph(scenario)
    assert graph.n_tasks == 4  # 3 targets + 1 merged blade node
    assert graph.depots.shape == (2, 3)
    assert graph.tasks[0].kind == "blade"
    mid = (np.asarray(scenario.blades[0].seg_start)
           + np.asarray(scenario.blades[0].seg_end)) / 2
    assert np.allclose(graph.tasks[0].position, mid)
    # 6 task pairs + 4 depot edges per drone
    pairs = graph.n_tasks * (graph.n_tasks - 1) // 2 + graph.n_tasks
    assert pairs == 10
    for d in range(2):
        assert np.allclose(graph.w_task[d], graph.w_task[d].T)
        assert np.all(np.diag(graph.w_task[d]) == 0)
    # identical limits give identical weight tables
    assert np.allclose(graph.w_task[0], graph.w_task[1])
    assert graph.weight(0, 1, 0) == graph.weight(1, 0, 0)
    with pytest.raises(Exception):
        graph.weight(graph.depot_vertex(0), graph.depot_vertex(1), 0)


def test_build_graph_time_of_flight_weight():
    scenario = make_scenario(targets=[(0, 0, 1), (1, 0, 1)])
    graph = build_graph(scenario)
    i = next(t.vertex for t in graph.tasks if t.index == 0)
    j = next(t.vertex for t in graph.tasks if t.index == 1)
    assert graph.w_task[0, i, j] == pytest.approx(2.0)  # 1 m at v=a=1


def _graph_weights_reference(scenario, tasks):
    """w_task, w_depot and capable by the original loop: one scalar
    time_of_flight per drone per task pair and depot edge."""
    n_tasks, n_drones = len(tasks), scenario.n_drones
    positions = np.array([t.position for t in tasks]).reshape(n_tasks, 3)
    w_task = np.zeros((n_drones, n_tasks, n_tasks))
    w_depot = np.zeros((n_drones, n_tasks))
    capable = np.ones((n_drones, n_tasks), dtype=bool)
    for d in range(n_drones):
        limits = scenario.limits[d]
        for i in range(n_tasks):
            w_depot[d, i] = time_of_flight(scenario.depots[d], positions[i], limits)
            for j in range(i + 1, n_tasks):
                w = time_of_flight(positions[i], positions[j], limits)
                w_task[d, i, j] = w_task[d, j, i] = w
        for task in tasks:
            if task.kind == "target":
                ok = d in scenario.capable_drones("targets", task.index)
            else:
                ok = all(d in scenario.capable_drones("blades", q) for q in task.sides)
            if not ok:
                capable[d, task.vertex] = False
                w_depot[d, task.vertex] = INFEASIBLE_EDGE
                w_task[d, task.vertex, :] = INFEASIBLE_EDGE
                w_task[d, :, task.vertex] = INFEASIBLE_EDGE
                w_task[d, task.vertex, task.vertex] = 0.0
    return w_task, w_depot, capable


def _assert_graph_matches_loop(scenario):
    graph = build_graph(scenario)
    w_task, w_depot, capable = _graph_weights_reference(scenario, graph.tasks)
    assert np.array_equal(graph.w_task, w_task)
    assert np.array_equal(graph.w_depot, w_depot)
    assert np.array_equal(graph.capable, capable)


def test_build_graph_weights_equal_loop_on_turbine():
    # the turbine merges a two-sided blade, and drones 0 and 1 lose it
    _assert_graph_matches_loop(fixture_windturbine())


@settings(max_examples=40, deadline=None)
@given(drones=st.integers(1, 3), targets=st.integers(0, 7), blade_sides=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(drones=3, targets=6, blade_sides=2, seed=0)
@example(drones=2, targets=0, blade_sides=1, seed=1)
def test_build_graph_weights_equal_loop(drones, targets, blade_sides, seed):
    rng = np.random.default_rng(seed)
    centers = [tuple(c) for c in rng.uniform([-6.0, -6.0, 1.0], [6.0, 6.0, 6.0], (targets, 3))]
    scenario = make_scenario(n_drones=drones, targets=centers)
    # per-axis limits that differ between drones
    scenario.limits = [DroneLimits(rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3))
                       for _ in range(drones)]
    for side in range(blade_sides):  # sides of one blade merge into one task
        x = 2.0 + 2.5 * side
        scenario.blades.append(BladeSide((3.0, 2.0, 0.8), (3.0, 2.0, 4.2),
                                         Box((x - 1.2, 0.8, 0.6), (x, 3.2, 4.0))))
    # every drone but the first loses a random share of the tasks
    scenario.capability = [{"targets": None, "blades": None}] + [
        {"targets": {q for q in range(targets) if rng.random() < 0.6},
         "blades": {q for q in range(blade_sides) if rng.random() < 0.6}}
        for _ in range(drones - 1)]
    _assert_graph_matches_loop(scenario)


def test_solver_single_drone_example():
    w_task = [[[0.0, 1.0], [1.0, 0.0]]]
    w_depot = [[1.0, 2.0]]
    plan = solve_assignment(graph_from_weights(w_task, w_depot))
    assert plan.objective == pytest.approx(4.0)
    assert plan.tours[0] == [[2, 0, 1]]  # depot -> A -> B -> depot, lexicographic tie-break


def test_solver_two_drones_take_their_near_tasks():
    w_task = np.full((2, 2, 2), 10.0)
    w_task[:, [0, 1], [0, 1]] = 0.0
    w_depot = np.array([[1.0, 10.0], [10.0, 1.0]])
    plan = solve_assignment(graph_from_weights(w_task, w_depot))
    assert plan.objective == pytest.approx(4.0)
    assert plan.tours[0] == [[2, 0]]
    assert plan.tours[1] == [[3, 1]]


def test_solver_zero_tasks():
    graph = graph_from_weights(np.zeros((2, 0, 0)), np.zeros((2, 0)))
    plan = solve_assignment(graph)
    assert plan.objective == 0.0
    assert plan.tours == [[[0]], [[1]]]
    ok, violations = verify_plan(plan, graph)
    assert ok, violations


def test_solver_respects_capability_and_uncoverable():
    w_task = np.zeros((2, 1, 1))
    w_depot = np.array([[1.0], [5.0]])
    capable = np.array([[False], [True]])
    plan = solve_assignment(graph_from_weights(w_task, w_depot, capable))
    assert plan.tours[1] == [[2, 0]]  # depot of drone 1 is vertex n_tasks + 1
    assert plan.objective == pytest.approx(10.0)
    with pytest.raises(Uncoverable):
        solve_assignment(graph_from_weights(w_task, w_depot, np.zeros((2, 1), bool)))


def test_solver_matches_bruteforce_random(rng):
    for _ in range(40):
        tasks = int(rng.integers(1, 5))
        drones = int(rng.integers(1, 3))
        positions = rng.uniform(-4, 4, (tasks, 3))
        depots = rng.uniform(-4, 4, (drones, 3))
        w_task = np.zeros((drones, tasks, tasks))
        w_depot = np.zeros((drones, tasks))
        speeds = rng.uniform(0.5, 1.5, drones)
        for d in range(drones):
            lim = DroneLimits(float(speeds[d]), float(speeds[d]))
            from stlfleet.dynamics import time_of_flight
            for i in range(tasks):
                w_depot[d, i] = time_of_flight(depots[d], positions[i], lim)
                for j in range(i + 1, tasks):
                    w = time_of_flight(positions[i], positions[j], lim)
                    w_task[d, i, j] = w_task[d, j, i] = w
        graph = graph_from_weights(w_task, w_depot)
        plan = solve_assignment(graph)
        assert plan.objective == pytest.approx(brute_force_optimum(graph), abs=1e-9)
        ok, violations = verify_plan(plan, graph)
        assert ok, violations


def test_objective_monotone_in_tasks(rng):
    positions = rng.uniform(-4, 4, (5, 3))
    depot = rng.uniform(-4, 4, (1, 3))
    from stlfleet.dynamics import time_of_flight
    lim = DroneLimits(1.0, 1.0)
    previous = 0.0
    for count in range(1, 6):
        w_task = np.zeros((1, count, count))
        w_depot = np.zeros((1, count))
        for i in range(count):
            w_depot[0, i] = time_of_flight(depot[0], positions[i], lim)
            for j in range(i + 1, count):
                w = time_of_flight(positions[i], positions[j], lim)
                w_task[0, i, j] = w_task[0, j, i] = w
        plan = solve_assignment(graph_from_weights(w_task, w_depot))
        assert plan.objective >= previous - 1e-12
        previous = plan.objective


def test_verify_plan_violations():
    w_task = np.zeros((1, 2, 2))
    w_task[0, 0, 1] = w_task[0, 1, 0] = 1.0
    w_depot = np.array([[1.0, 1.0]])
    graph = graph_from_weights(w_task, w_depot)
    missing = RoutePlan(tours=[[[2, 0]]], objective=2.0, tasks=graph.tasks)
    ok, violations = verify_plan(missing, graph)
    assert not ok and any("coverage" in v and "target[1]" in v for v in violations)

    double_departure = RoutePlan(tours=[[[2, 0], [2, 1]]], objective=4.0, tasks=graph.tasks)
    ok, violations = verify_plan(double_departure, graph)
    assert not ok and any("departs 2" in v for v in violations)

    # one closed walk that passes task 0 twice
    repeated = RoutePlan(tours=[[[2, 0, 1, 0]]], objective=3.0, tasks=graph.tasks)
    ok, violations = verify_plan(repeated, graph)
    assert not ok and any(v.startswith("flow") for v in violations)


def test_seed_empty_route_hovers_at_depot():
    scenario = make_scenario(targets=[])
    graph = build_graph(scenario)
    plan = solve_assignment(graph)
    trace = seed_with_schedule(plan, scenario)[0]
    assert trace.n_samples == scenario.n_samples + 1
    assert np.allclose(trace.pos[0], scenario.depots[0])
    assert trace.is_consistent(1e-9)


def test_seed_single_target_timeline():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0)
    # depot (-3, -3, 1): target 1 m away on x at v=a=1; full limits so the
    # composed bang-bang times are exactly 2 s per leg
    graph = build_graph(scenario)
    plan = solve_assignment(graph)
    trace, schedules = seed_with_schedule(plan, scenario, derate=1.0)
    target = scenario.targets[0].box.center
    arrive = int(round(2.0 / scenario.ts))
    depart = int(round(3.0 / scenario.ts))
    home = int(round(5.0 / scenario.ts))
    assert np.allclose(trace.pos[0, arrive], target, atol=1e-9)
    assert np.allclose(trace.pos[0, depart], target, atol=1e-9)
    assert np.allclose(trace.pos[0, home:], scenario.depots[0], atol=1e-9)
    entry = schedules[0][0]
    assert (entry.kind, entry.index, entry.arrive, entry.depart) == ("target", 0, arrive, depart)
    assert trace.is_consistent(1e-9)
    a_max = np.asarray(scenario.limits[0].a_max)
    assert np.all(np.abs(trace.acc[0]) <= a_max + 1e-12)


def test_seed_blade_sweep_holds_band():
    # blade corridor is ~7 m from the depot; 17 s leaves the route unscaled
    scenario = make_scenario(targets=[], blade=True, mission=17.0)
    graph = build_graph(scenario)
    plan = solve_assignment(graph)
    trace, schedules = seed_with_schedule(plan, scenario)
    from stlfleet.mission import dist_to_blade
    side = scenario.blades[0]
    entry = next(e for e in schedules[0] if e.kind == "blade_side")
    for k in range(entry.arrive, entry.depart + 1):
        dist = dist_to_blade(trace.pos[0, k], side.seg_start, side.seg_end)
        assert abs(dist - scenario.blade_standoff) < 1e-6
        assert side.box.contains(trace.pos[0, k])
    assert entry.depart - entry.arrive == int(round(scenario.blade_duration / scenario.ts))


def test_seed_compression_and_overflow():
    # route needs ~18 s at limit speeds but the mission allows 8 s
    scenario = make_scenario(targets=[(4.0, -3.0, 1.0), (4.0, 4.0, 1.0)], mission=8.0)
    graph = build_graph(scenario)
    plan = solve_assignment(graph)
    trace = seed_with_schedule(plan, scenario)[0]
    assert trace.n_samples == scenario.n_samples + 1
    assert trace.is_consistent(1e-9)
    a_max = np.asarray(scenario.limits[0].a_max)
    assert np.all(np.abs(trace.acc[0]) <= a_max + 1e-12)

    cramped = make_scenario(targets=[(4.0, -3.0, 1.0), (4.0, 4.0, 1.0)], mission=2.0)
    with pytest.raises(HorizonOverflow) as err:
        seed_with_schedule(solve_assignment(build_graph(cramped)), cramped)
    assert err.value.trace is not None
    assert err.value.trace.duration > cramped.mission_duration
