import itertools

import numpy as np
import pytest

from stlfleet.fixtures import fixture_two_drone_swap, fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.optimizer import OptimizerConfig, optimize
from stlfleet.robustness import eval_exact
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment


def test_windturbine_parameters_verbatim():
    s = fixture_windturbine()
    assert s.mission_duration == 13.0
    assert s.inspect_duration == 1.0
    assert s.blade_duration == 1.5
    assert s.ts == 0.05
    assert s.min_separation == 1.0
    assert s.blade_standoff == 2.5
    assert s.standoff_tolerance == 1.0
    assert s.margin == 0.2
    assert s.sharpness == 10.0
    assert s.trigger_radius == 1.0
    assert [lim.v_max[0] for lim in s.limits] == [1.0, 0.7, 1.0]
    assert [lim.a_max[0] for lim in s.limits] == [1.0, 0.7, 1.0]
    assert all(lim.v_max_relaxed == (2.0,) * 3 for lim in s.limits)
    assert all(lim.a_max_relaxed == (5.0,) * 3 for lim in s.limits)
    assert s.weights == {"workspace": 2.0, "obstacle": 4.0, "separation": 3.0,
                         "target": 1.0, "blade": 1.0, "home": 1.0}
    # geometry: 8 x 20 x 14 workspace, 9 targets, one blade with two sides, 3 depots
    ws = np.asarray(s.workspace.upper) - np.asarray(s.workspace.lower)
    assert tuple(ws) == (8.0, 20.0, 14.0)
    assert len(s.targets) == 9
    assert len(s.blades) == 2
    assert {b.blade_id for b in s.blades} == {0}
    seg = np.asarray(s.blades[0].seg_end) - np.asarray(s.blades[0].seg_start)
    assert np.linalg.norm(seg) == pytest.approx(7.0)
    assert s.n_drones == 3


def test_windturbine_seed_is_feasible_and_covers_tasks():
    s = fixture_windturbine()
    plan = solve_assignment(build_graph(s))
    seed, schedules = seed_with_schedule(plan, s)
    assert seed.n_samples == s.n_samples + 1
    assert seed.is_consistent(1e-9)
    for d in range(s.n_drones):
        a_max = np.asarray(s.limits[d].a_max)
        assert np.all(np.abs(seed.acc[d]) <= a_max + 1e-12)
    f, _ = compile_mission(s)
    assert eval_exact(f, seed, 0) > 0
    # 3 safety + 9 targets + 2 blade sides + 3 home + 3 stay-home conjuncts
    assert len(f.children) == 20
    # every drone starts at its depot
    assert np.allclose(seed.pos[:, 0], s.depots)


def brute_force_route_cost(graph):
    tasks = list(range(graph.n_tasks))
    best = np.inf
    for assignment in itertools.product(range(graph.n_drones), repeat=len(tasks)):
        if any(not graph.capable[d, t] for t, d in zip(tasks, assignment)):
            continue
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


def test_two_drone_swap_seed_violates_and_optimizer_recovers():
    s = fixture_two_drone_swap()
    graph = build_graph(s)
    plan = solve_assignment(graph)
    # the seed plan is the exact routing optimum over all coverage-feasible plans
    assert plan.objective == pytest.approx(brute_force_route_cost(graph), abs=1e-9)
    seed, _ = seed_with_schedule(plan, s)
    f, _ = compile_mission(s)
    assert eval_exact(f, seed, 0) < 0
    result = optimize(f, seed, s, OptimizerConfig(max_iters=1000, rng_seed=1))
    assert eval_exact(f, result.trace, 0) > 0
