"""Acceptance suite: one test per criterion, one pass line per criterion.

Wall-clock budgets are asserted where the criterion states one. The
mock-scenario runs reuse a module-scoped pipeline result so the whole
suite stays well inside the budgets.
"""

import itertools
import time

import numpy as np
import pytest

from stlfleet.dynamics import rollout, time_of_flight, DroneLimits, Trace
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.optimizer import (SATISFIED_WITH_MARGIN, OptimizerConfig,
                                optimize, pullback_gradient)
from stlfleet.pipeline import run_pipeline
from stlfleet.replanner import simulate_with_disturbance
from stlfleet.robustness import (eval_exact, eval_smooth, gradient_smooth,
                                 smooth_max, smooth_min)
from stlfleet.warmstart import (InspectionGraph, RoutePlan, TaskNode, build_graph,
                                seed_with_schedule, solve_assignment, verify_plan)

from conftest import oracle_eval, random_formula, random_trace


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def windturbine_runs():
    """Basic and attrition pipeline runs on the bundled mock scenario."""
    scenario = fixture_windturbine()
    config = OptimizerConfig(max_iters=800, rng_seed=0)
    started = time.perf_counter()
    basic = run_pipeline(scenario, "basic", config)
    basic_seconds = time.perf_counter() - started
    started = time.perf_counter()
    attrition = run_pipeline(scenario, "attrition", config)
    attrition_seconds = time.perf_counter() - started
    return scenario, config, basic, basic_seconds, attrition, attrition_seconds


def test_criterion_1_smoothing_soundness():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(10_000):
        beta = int(rng.integers(1, 21))
        values = rng.uniform(-10.0, 10.0, beta)
        lam = float(rng.choice([1.0, 10.0, 100.0]))
        lo, hi = values.min(), values.max()
        assert smooth_min(values, lam) <= lo + 1e-12
        soft = smooth_max(values, lam)
        assert lo - 1e-12 <= soft <= hi + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"10^4 random vectors: smooth_min <= min <= smooth_max <= max "
              f"(1e-12 abs) in {elapsed:.2f}s")


def test_criterion_2_asymptotic_completeness():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for _ in range(100):
        depth = int(rng.integers(1, 5))
        length = int(rng.integers(20, 101))
        formula = random_formula(rng, budget=min(30, length - 2), n_drones=2,
                                 depth=depth)
        trace = random_trace(rng, n_drones=2, length=length)
        exact = eval_exact(formula, trace, 0)
        gaps = [abs(eval_smooth(formula, trace, 0, lam) - exact)
                for lam in (10.0, 100.0, 1000.0)]
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"gap at sharpness 100 <= gap at 10 and 1000 <= 100 on 100 random "
              f"formula/trace pairs in {elapsed:.2f}s")


def test_criterion_3_until_oracle_equivalence():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    for _ in range(1000):
        length = int(rng.integers(10, 31))
        formula = random_formula(rng, budget=min(8, length - 2), n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=length)
        t = int(rng.integers(0, 2))
        assert eval_exact(formula, trace, t) == oracle_eval(formula, trace, t,
                                                            shared_leaves={})
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"eval_exact equals the brute-force double-loop oracle on 10^3 "
              f"random instances (exact equality) in {elapsed:.2f}s")


def test_criterion_4_full_pipeline_gradient():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    ts = 0.05
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        formula = random_formula(rng, budget=12, n_drones=3, depth=2)
        acc = rng.normal(scale=0.5, size=(3, 40, 3))
        pos0 = rng.uniform(-1, 1, (3, 3))
        vel0 = rng.normal(scale=0.3, size=(3, 3))

        def objective(a):
            return eval_smooth(formula, rollout(pos0, vel0, a, ts), 0, 5.0)

        trace = rollout(pos0, vel0, acc, ts)
        _, dpos, dvel = gradient_smooth(formula, trace, sharpness=5.0)
        analytic = pullback_gradient(dpos, dvel, ts)
        fd = np.zeros_like(acc)
        flat = acc.reshape(-1)
        out = fd.reshape(-1)
        for i in range(flat.size):
            base = flat[i]
            flat[i] = base + h
            up = objective(acc)
            flat[i] = base - h
            down = objective(acc)
            flat[i] = base
            out[i] = (up - down) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        worst = max(worst, np.abs(analytic - fd).max() / scale)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 60.0
    report(4, f"formula->trace->acceleration gradient vs central differences: "
              f"max relative error {worst:.2e} over 20 instances in {elapsed:.1f}s")


def _random_routing_instance(rng):
    tasks = int(rng.integers(1, 6))
    drones = int(rng.integers(1, 3))
    positions = rng.uniform(-5, 5, (tasks, 3))
    depots = rng.uniform(-5, 5, (drones, 3))
    nodes = [TaskNode(i, "target", i, tuple(positions[i])) for i in range(tasks)]
    w_task = np.zeros((drones, tasks, tasks))
    w_depot = np.zeros((drones, tasks))
    for d in range(drones):
        speed = float(rng.uniform(0.4, 1.5))
        limits = DroneLimits(speed, speed)
        for i in range(tasks):
            w_depot[d, i] = time_of_flight(depots[d], positions[i], limits)
            for j in range(i + 1, tasks):
                w = time_of_flight(positions[i], positions[j], limits)
                w_task[d, i, j] = w_task[d, j, i] = w
    return InspectionGraph(nodes, depots, w_task, w_depot,
                           np.ones((drones, tasks), dtype=bool))


def _enumerate_route_sets(graph):
    tasks = list(range(graph.n_tasks))
    best = np.inf
    for assignment in itertools.product(range(graph.n_drones), repeat=len(tasks)):
        total = 0.0
        for d in range(graph.n_drones):
            mine = [t for t, owner in zip(tasks, assignment) if owner == d]
            if not mine:
                continue
            total += min(
                graph.w_depot[d, order[0]]
                + sum(graph.w_task[d, a, b] for a, b in zip(order, order[1:]))
                + graph.w_depot[d, order[-1]]
                for order in itertools.permutations(mine))
        best = min(best, total)
    return best


def test_criterion_5_warmstart_optimality():
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    for _ in range(200):
        graph = _random_routing_instance(rng)
        plan = solve_assignment(graph)
        assert plan.objective == pytest.approx(_enumerate_route_sets(graph), abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"solve_assignment equals exhaustive enumeration on 200 random "
              f"instances in {elapsed:.1f}s")


def test_criterion_6_constraint_verification():
    rng = np.random.default_rng(606)
    started = time.perf_counter()
    for _ in range(10):
        graph = _random_routing_instance(rng)
        plan = solve_assignment(graph)
        ok, violations = verify_plan(plan, graph)
        assert ok, violations

    graph = _random_routing_instance(np.random.default_rng(42))
    while graph.n_tasks < 2 or graph.n_drones < 1:
        graph = _random_routing_instance(np.random.default_rng(43))
    depot = graph.depot_vertex(0)
    # coverage violation: a task never visited
    missing = RoutePlan(tours=[[[depot, 0]]] + [[[graph.depot_vertex(d)]]
                                                for d in range(1, graph.n_drones)],
                        objective=0.0, tasks=graph.tasks)
    ok, violations = verify_plan(missing, graph)
    assert not ok and any("coverage" in v for v in violations)

    # depot degree violation: two departures
    double = RoutePlan(tours=[[[depot, 0], [depot, 1]]]
                       + [[[graph.depot_vertex(d)]] for d in range(1, graph.n_drones)],
                       objective=0.0, tasks=graph.tasks)
    ok, violations = verify_plan(double, graph)
    assert not ok and any("depot" in v for v in violations)

    # flow violation: task 1 flown as a disconnected subtour
    subtour = RoutePlan(tours=[[[depot, 0], [1]]]
                        + [[[graph.depot_vertex(d)]] for d in range(1, graph.n_drones)],
                        objective=0.0, tasks=graph.tasks)
    ok, violations = verify_plan(subtour, graph)
    assert not ok and any(v.startswith("flow") for v in violations)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(6, f"verify_plan accepts solver outputs and rejects coverage, flow, "
              f"and depot-degree violations in {elapsed:.2f}s")


def test_criterion_7_mock_scenario_basic(windturbine_runs):
    scenario, config, basic, basic_seconds, _, _ = windturbine_runs
    exact = eval_exact(basic.formula, basic.result.trace, 0)
    assert exact > 0.0
    assert basic.result.status == SATISFIED_WITH_MARGIN
    assert basic.result.smooth_objective >= scenario.margin
    assert basic_seconds < 600.0
    stage_line = ", ".join(f"{k} {v:.2f}s" for k, v in basic.timings.items())
    report(7, f"windturbine basic mode: exact {exact:.3f} > 0, smooth objective "
              f"{basic.result.smooth_objective:.3f} >= {scenario.margin}, wall "
              f"{basic_seconds:.1f}s < 600s (reference timings, not asserted: "
              f"{stage_line})")


def test_criterion_8_attrition_mode(windturbine_runs):
    scenario, config, basic, _, attrition, attrition_seconds = windturbine_runs
    exact = eval_exact(attrition.formula, attrition.result.trace, 0)
    assert exact > 0.0
    basic_classes = basic.safety_classes
    aware_classes = attrition.safety_classes
    improved = [name for name in ("obstacle", "separation")
                if aware_classes[name] >= basic_classes[name] - 1e-12]
    assert improved, (basic_classes, aware_classes)
    report(8, f"attrition mode: exact {exact:.3f} > 0; obstacle/separation class "
              f"robustness vs basic: "
              f"{ {k: (round(basic_classes[k], 3), round(aware_classes[k], 3)) for k in ('obstacle', 'separation')} } "
              f"(improved in {improved}); wall {attrition_seconds:.1f}s")


def test_criterion_9_replanner_suite(windturbine_runs):
    scenario, config, basic, _, _, _ = windturbine_runs
    started = time.perf_counter()
    schedules = basic.schedules
    trace = basic.result.trace
    gap = (schedules[0][0].depart + schedules[0][1].arrive) // 2
    t_dist = gap * scenario.ts

    state = simulate_with_disturbance(trace, schedules,
                                      [(t_dist, 0, (0.0, -1.2, 0.0))],
                                      scenario, OptimizerConfig(max_iters=200, rng_seed=1))
    assert len(state.events) == 1
    assert state.events[0].deviation == pytest.approx(1.2)

    quiet = simulate_with_disturbance(trace, schedules,
                                      [(t_dist, 0, (0.0, -0.5, 0.0))], scenario)
    assert quiet.events == []

    executed_exact = eval_exact(basic.formula, state.executed, 0)
    assert executed_exact > 0.0
    for drone in (1, 2):
        assert np.array_equal(state.executed.pos[drone], trace.pos[drone])
        assert np.array_equal(state.executed.vel[drone], trace.vel[drone])
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(9, f"1.2 m offset -> exactly one event, 0.5 m -> none; executed trace "
              f"exact {executed_exact:.3f} > 0; unaffected drones bit-identical; "
              f"{elapsed:.1f}s < 300s")


def test_criterion_10_round_trip_and_determinism(windturbine_runs, tmp_path):
    scenario, config, basic, _, _, _ = windturbine_runs
    path = tmp_path / "trace.csv"
    basic.result.trace.to_csv(path)
    reloaded = Trace.from_csv(path)
    fresh = eval_exact(basic.formula, reloaded, 0)
    original = eval_exact(basic.formula, basic.result.trace, 0)
    assert fresh == pytest.approx(original, abs=1e-9)

    plan = solve_assignment(build_graph(scenario))
    seed, _ = seed_with_schedule(plan, scenario)
    formula, _ = compile_mission(scenario)
    rerun = optimize(formula, seed, scenario, OptimizerConfig(max_iters=800, rng_seed=0))
    assert rerun.objective_history == basic.result.objective_history
    report(10, f"re-imported robustness matches to 1e-9 ({fresh:.6f}); two runs with "
               f"the same seed produced identical objective histories "
               f"({len(rerun.objective_history)} entries)")
