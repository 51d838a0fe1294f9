"""Vectorized routing tables against the per-subset loops they replaced.

The reference functions below are the original pure-Python Held-Karp,
partition and reconstruction loops over all 2^n subsets. The numpy programs
in warmstart keep only the entries the solver can use (a drone's capable
subsets, row 0 of the partition at the full set); those must equal the
reference bit for bit, every entry left out must be inf or unread, and the
plan must be the same. verify_plan is checked against the plans the solver
returns and against single mutations of them.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stlfleet import warmstart
from stlfleet.fixtures import fixture_windturbine
from stlfleet.warmstart import (_TIE_TOL, RoutePlan, _DroneRouter, _partition_table,
                                build_graph, solve_assignment, verify_plan)

from test_warmstart import graph_from_weights


def reference_heldkarp(router):
    """completion and tour_cost by the original per-subset Python loops."""
    n, w_task, w_depot = router.n, router.w_task, router.w_depot
    completion = np.full((1 << n, n), np.inf)
    completion[0, :] = w_depot
    for subset in range(1, 1 << n):
        members = [u for u in range(n) if subset & (1 << u)]
        for v in range(n):
            if subset & (1 << v):
                continue
            best = np.inf
            for u in members:
                cost = w_task[v, u] + completion[subset ^ (1 << u), u]
                if cost < best:
                    best = cost
            completion[subset, v] = best
    tour_cost = np.full(1 << n, np.inf)
    tour_cost[0] = 0.0
    for subset in range(1, 1 << n):
        best = np.inf
        for u in range(n):
            if subset & (1 << u):
                cost = w_depot[u] + completion[subset ^ (1 << u), u]
                if cost < best:
                    best = cost
        tour_cost[subset] = best
    return completion, tour_cost


def reference_partition(tour_costs, n):
    """best[d][S] by the original submask-enumeration loop."""
    drones = len(tour_costs)
    best = np.full((drones + 1, 1 << n), np.inf)
    best[drones, 0] = 0.0
    for d in range(drones - 1, -1, -1):
        for covered in range(1 << n):
            subset = covered
            while True:
                tail = best[d + 1, covered ^ subset]
                if np.isfinite(tail):
                    cost = tour_costs[d][subset] + tail
                    if cost < best[d, covered]:
                        best[d, covered] = cost
                if subset == 0:
                    break
                subset = (subset - 1) & covered
    return best


def reference_tours(router, completion, tour_cost, best, d, remaining):
    """Original reconstruction for drone d: every tied submask, then the
    lexicographically smallest optimal tour among them."""
    def lex_min_tour(subset):
        tour = [router.depot]
        budget = tour_cost[subset]
        current = None
        while subset:
            for u in range(router.n):
                if not subset & (1 << u):
                    continue
                hop = router.w_depot[u] if current is None else router.w_task[current, u]
                if abs((hop + completion[subset ^ (1 << u), u]) - budget) <= _TIE_TOL * max(
                        1.0, abs(budget)):
                    tour.append(u)
                    budget -= hop
                    subset ^= 1 << u
                    current = u
                    break
        return tour

    candidates = []
    subset = remaining
    while True:
        total = tour_cost[subset] + best[d + 1, remaining ^ subset]
        if np.isfinite(total) and abs(total - best[d, remaining]) <= _TIE_TOL * max(
                1.0, abs(best[d, remaining])):
            candidates.append(subset)
        if subset == 0:
            break
        subset = (subset - 1) & remaining
    chosen = min(candidates, key=lambda s: tuple(lex_min_tour(s)))
    return chosen, lex_min_tour(chosen)


def random_graph(tasks, drones, seed, integer_weights=False, idle_drone=False, narrow=False):
    """Random symmetric instance in which every task has a capable drone."""
    rng = np.random.default_rng(seed)
    # small integer weights make many optima tie, which exercises tie-breaking
    if integer_weights:
        w_task = rng.integers(0, 4, (drones, tasks, tasks)).astype(float)
        w_depot = rng.integers(0, 4, (drones, tasks)).astype(float)
    else:
        w_task = rng.uniform(0.0, 5.0, (drones, tasks, tasks))
        w_depot = rng.uniform(0.0, 5.0, (drones, tasks))
    w_task = (w_task + w_task.transpose(0, 2, 1)) / 2
    w_task[:, np.arange(tasks), np.arange(tasks)] = 0.0
    capable = rng.random((drones, tasks)) < 0.6
    if narrow and tasks:
        # one all-capable drone beside drones capable of one or two tasks
        capable[0] = True
        for d in range(1, drones):
            capable[d] = False
            capable[d, rng.choice(tasks, size=min(tasks, int(rng.integers(1, 3))),
                                  replace=False)] = True
    idle = int(rng.integers(drones)) if idle_drone and drones > 1 else None
    if idle is not None:
        capable[idle] = False
    workers = [d for d in range(drones) if d != idle]
    for t in np.flatnonzero(~capable.any(axis=0)):
        capable[workers[int(rng.integers(len(workers)))], t] = True
    return graph_from_weights(w_task, w_depot, capable)


@settings(max_examples=60, deadline=None)
@given(tasks=st.integers(0, 8), drones=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       integer_weights=st.booleans(), idle_drone=st.booleans(), narrow=st.booleans(),
       chunk=st.sampled_from([1, 8, warmstart._PAIR_CHUNK]))
@example(tasks=0, drones=1, seed=0, integer_weights=False, idle_drone=False, narrow=False,
         chunk=1)
@example(tasks=0, drones=3, seed=1, integer_weights=True, idle_drone=True, narrow=False,
         chunk=8)
@example(tasks=1, drones=1, seed=2, integer_weights=False, idle_drone=False, narrow=False,
         chunk=1)
@example(tasks=1, drones=2, seed=3, integer_weights=True, idle_drone=True, narrow=False,
         chunk=8)
@example(tasks=8, drones=4, seed=4, integer_weights=True, idle_drone=True, narrow=False,
         chunk=8)
@example(tasks=8, drones=4, seed=5, integer_weights=False, idle_drone=False, narrow=True,
         chunk=1)
@example(tasks=8, drones=3, seed=6, integer_weights=True, idle_drone=False, narrow=True,
         chunk=8)
@example(tasks=6, drones=2, seed=7, integer_weights=False, idle_drone=True, narrow=True,
         chunk=warmstart._PAIR_CHUNK)
def test_vectorized_tables_bitwise_equal_loop_reference(tasks, drones, seed, integer_weights,
                                                         idle_drone, narrow, chunk):
    graph = random_graph(tasks, drones, seed, integer_weights, idle_drone, narrow)
    capable = graph.capable

    routers = [_DroneRouter(graph, d) for d in range(drones)]
    tables = [reference_heldkarp(router) for router in routers]
    for d, (router, (completion, tour_cost)) in enumerate(zip(routers, tables)):
        # the compact tables hold exactly the subsets of the capable tasks
        own = sum(1 << int(u) for u in np.flatnonzero(capable[d]))
        assert router.tasks.tolist() == np.flatnonzero(capable[d]).tolist()
        assert sorted(router.masks.tolist()) == [s for s in range(1 << tasks) if s & own == s]
        inside = np.ix_(router.masks, router.tasks)
        assert np.array_equal(router.completion, completion[inside])
        assert np.array_equal(router.tour_cost, tour_cost[router.masks])
        # and every reference entry they leave out is inf
        outside = np.ones(completion.shape, dtype=bool)
        outside[inside] = False
        assert np.all(completion[outside] == np.inf)
        outside = np.ones(tour_cost.shape, dtype=bool)
        outside[router.masks] = False
        assert np.all(tour_cost[outside] == np.inf)
    best = reference_partition([tour_cost for _, tour_cost in tables], tasks)
    # small chunks split every layer into many blocks, as large instances do
    with mock.patch.object(warmstart, "_PAIR_CHUNK", chunk):
        table = _partition_table(routers, tasks)
    # row 0 is filled only at the full set, the one entry the solver reads
    assert np.array_equal(table[1:], best[1:])
    assert np.array_equal(table[0, (1 << tasks) - 1], best[0, (1 << tasks) - 1])

    plan = solve_assignment(graph)
    assert repr(plan.objective) == repr(float(best[0, (1 << tasks) - 1]))
    remaining = (1 << tasks) - 1
    for d, router in enumerate(routers):
        chosen, tour = reference_tours(router, *tables[d], best, d, remaining)
        assert plan.tours[d] == [tour]
        remaining ^= chosen
    assert remaining == 0


def test_sixteen_task_tables_span_only_capable_subsets():
    """Drone 0 serves all 16 tasks and drones 1-2 serve 11 each: every
    router's tables are sized by its capable set, and the plan is valid."""
    rng = np.random.default_rng(16)
    points = rng.uniform(-10.0, 10.0, (16, 3))
    depots = rng.uniform(-10.0, 10.0, (3, 3))
    speed = np.array([1.0, 1.3, 0.8])
    w_task = np.linalg.norm(points[:, None] - points, axis=-1) / speed[:, None, None]
    w_depot = np.linalg.norm(depots[:, None] - points, axis=-1) / speed[:, None]
    capable = np.ones((3, 16), dtype=bool)
    for d in (1, 2):
        capable[d, rng.choice(16, size=5, replace=False)] = False
    graph = graph_from_weights(w_task, w_depot, capable)
    for d in range(3):
        size = int(capable[d].sum())
        router = _DroneRouter(graph, d)
        assert router.completion.shape == (2 ** size, size)
        assert router.tour_cost.shape == (2 ** size,)
    plan = solve_assignment(graph)
    ok, violations = verify_plan(plan, graph)
    assert ok, violations
    visited = sorted(v for cycles in plan.tours for cycle in cycles for v in cycle if v < 16)
    assert visited == list(range(16))


# a single mutation of a solver plan, and the check that must catch it
MUTATIONS = {"split": "flow", "drop": "coverage", "repeat": "flow",
             "foreign_depot": "depot", "incapable": "capability"}
TURBINE = "turbine"


def mutate(graph, tours, mutation, rng):
    """The plan's routes after one mutation, or None where it has no room for it."""
    routes = [list(cycles[0]) for cycles in tours]
    if mutation == "incapable":
        # move a task to a drone that cannot serve it
        moves = [(d, int(v)) for d in range(graph.n_drones)
                 for v in np.flatnonzero(~graph.capable[d])]
        if not moves:
            return None
        d, v = moves[int(rng.integers(len(moves)))]
        next(route for route in routes if v in route).remove(v)
        routes[d].append(v)
        return [[route] for route in routes]
    busy = [d for d, route in enumerate(routes) if len(route) > 1]
    if not busy:
        return None
    d = busy[int(rng.integers(len(busy)))]
    route = routes[d]
    if mutation == "split":
        cut = int(rng.integers(1, len(route)))
        return [[route[:cut], route[cut:]] if e == d else [other]
                for e, other in enumerate(routes)]
    if mutation == "drop":
        route.pop(int(rng.integers(1, len(route))))
    elif mutation == "repeat":
        task = route[int(rng.integers(1, len(route)))]
        route.insert(int(rng.integers(1, len(route) + 1)), task)
    else:
        others = [graph.depot_vertex(e) for e in range(graph.n_drones) if e != d]
        if not others:
            return None
        route.insert(int(rng.integers(1, len(route) + 1)), others[int(rng.integers(len(others)))])
    return [[route] for route in routes]


@settings(max_examples=80, deadline=None)
@given(instance=st.tuples(st.integers(0, 8), st.integers(1, 4), st.integers(0, 2**32 - 1),
                          st.booleans(), st.booleans(), st.booleans()),
       mutation=st.sampled_from([None, *MUTATIONS]), pick=st.integers(0, 2**32 - 1))
# the bundled turbine has tasks 0-9, of which the blade 0 is drone 2's alone,
# and depots 10-12; the solver flies [10, 1, 2, 3, 4], [11, 5, 6, 7, 8], [12, 0, 9]
@example(instance=TURBINE, mutation=("flow", {0: [[10, 1], [2, 3, 4]]}), pick=0)
@example(instance=TURBINE, mutation=("depot", {0: [[10, 1, 2, 11, 3, 4]]}), pick=0)
@example(instance=TURBINE, mutation=("flow", {0: [[10, 1, 2, 3, 4, 1]]}), pick=0)
@example(instance=TURBINE, mutation=("capability", {0: [[10, 0, 1, 2, 3, 4]], 2: [[12, 9]]}),
         pick=0)
def test_verify_plan_accepts_solver_plans_and_rejects_each_mutation(instance, mutation, pick):
    graph = build_graph(fixture_windturbine()) if instance == TURBINE else random_graph(*instance)
    plan = solve_assignment(graph)
    ok, violations = verify_plan(plan, graph)
    assert ok, violations
    if mutation is None:
        return
    if isinstance(mutation, tuple):
        check, routes = mutation
        tours = [routes.get(d, cycles) for d, cycles in enumerate(plan.tours)]
    else:
        check = MUTATIONS[mutation]
        tours = mutate(graph, plan.tours, mutation, np.random.default_rng(pick))
        assume(tours is not None)
    # a plan read back from route_plan.json carries no task list
    ok, violations = verify_plan(RoutePlan(tours=tours, objective=plan.objective), graph)
    assert not ok and any(v.startswith(f"{check}:") for v in violations), violations
