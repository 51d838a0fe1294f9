"""Vectorized routing tables against the per-subset loops they replaced.

The reference functions below are the original pure-Python Held-Karp,
partition and reconstruction loops. The numpy programs in warmstart must
reproduce every table entry bit for bit, and the same plan.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import warmstart
from stlfleet.warmstart import _TIE_TOL, _DroneRouter, _partition_table, solve_assignment

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


@settings(max_examples=60, deadline=None)
@given(tasks=st.integers(0, 8), drones=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       integer_weights=st.booleans(), idle_drone=st.booleans(),
       chunk=st.sampled_from([1, 8, warmstart._PAIR_CHUNK]))
@example(tasks=0, drones=1, seed=0, integer_weights=False, idle_drone=False, chunk=1)
@example(tasks=0, drones=3, seed=1, integer_weights=True, idle_drone=True, chunk=8)
@example(tasks=1, drones=1, seed=2, integer_weights=False, idle_drone=False, chunk=1)
@example(tasks=1, drones=2, seed=3, integer_weights=True, idle_drone=True, chunk=8)
@example(tasks=8, drones=4, seed=4, integer_weights=True, idle_drone=True, chunk=8)
def test_vectorized_tables_bitwise_equal_loop_reference(tasks, drones, seed, integer_weights,
                                                         idle_drone, chunk):
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
    idle = int(rng.integers(drones)) if idle_drone and drones > 1 else None
    if idle is not None:
        capable[idle] = False
    workers = [d for d in range(drones) if d != idle]
    for t in np.flatnonzero(~capable.any(axis=0)):
        capable[workers[int(rng.integers(len(workers)))], t] = True
    graph = graph_from_weights(w_task, w_depot, capable)

    routers = [_DroneRouter(graph, d) for d in range(drones)]
    tables = [reference_heldkarp(router) for router in routers]
    for router, (completion, tour_cost) in zip(routers, tables):
        assert np.array_equal(router.completion, completion)
        assert np.array_equal(router.tour_cost, tour_cost)
    best = reference_partition([tour_cost for _, tour_cost in tables], tasks)
    # small chunks split every layer into many blocks, as large instances do
    with mock.patch.object(warmstart, "_PAIR_CHUNK", chunk):
        assert np.array_equal(_partition_table(routers, tasks), best)

    plan = solve_assignment(graph)
    assert repr(plan.objective) == repr(float(best[0, (1 << tasks) - 1]))
    remaining = (1 << tasks) - 1
    for d, router in enumerate(routers):
        chosen, tour = reference_tours(router, *tables[d], best, d, remaining)
        assert plan.tours[d] == [tour]
        remaining ^= chosen
    assert remaining == 0
