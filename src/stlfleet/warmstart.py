"""Routing warm-start: graph construction, exact assignment, seed synthesis.

The routing problem (multi-depot coverage with per-drone symmetric
time-of-flight weights) is solved exactly at desk scale: Held-Karp with a
completion table per drone, over the subsets of the tasks C_d it can
serve, and a partition program across drones. Because the weights are
metric, visit-once closed routes lose nothing; ties go to the
lexicographically smallest route sequence. Both programs are numpy passes
that reproduce the per-subset loops bit for bit (each candidate is the
same float addition, and a minimum does not depend on its order). Memory
is dominated by the Held-Karp tables, sum over d of 2^|C_d| * |C_d| doubles.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import stl
from .dynamics import min_steps_rest_to_rest, rollout, steer_rest_to_rest, times_of_flight
from .errors import HorizonOverflow, LengthMismatch, Uncoverable
from .mission import Scenario

INFEASIBLE_EDGE = 1.0e6  # sentinel weight for edges a drone may not use
_TIE_TOL = 1e-9
MIN_SEED_SCALE = 0.2  # least time compression of a seed route before HorizonOverflow


@dataclass(frozen=True)
class TaskNode:
    """Graph vertex for one task: a target box or a merged blade."""

    vertex: int
    kind: str              # "target" or "blade"
    index: object          # target index, or blade_id for merged blades
    position: tuple
    sides: tuple = ()      # blade only: scenario blade-side indices, in order

    @property
    def name(self) -> str:
        return f"{self.kind}[{self.index}]"


@dataclass
class InspectionGraph:
    """Task and depot vertices with per-drone symmetric edge weights.

    Vertices 0..n_tasks-1 are tasks (blade nodes first, then targets);
    vertex n_tasks + d is the depot of drone d. Depots are mutually
    unconnected.
    """

    tasks: list
    depots: np.ndarray            # (drones, 3)
    w_task: np.ndarray            # (drones, tasks, tasks), symmetric, 0 diagonal
    w_depot: np.ndarray           # (drones, tasks)
    capable: np.ndarray           # (drones, tasks) bool

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_drones(self) -> int:
        return self.depots.shape[0]

    def depot_vertex(self, d: int) -> int:
        return self.n_tasks + d

    def weight(self, i: int, j: int, d: int) -> float:
        """Weight of edge i->j for drone d; vertices may include depots."""
        n = self.n_tasks
        if i == j:
            return 0.0
        if i >= n and j >= n:
            raise LengthMismatch("depots are mutually unconnected")
        if i >= n:
            return float(self.w_depot[d, j]) if i == self.depot_vertex(d) else INFEASIBLE_EDGE
        if j >= n:
            return float(self.w_depot[d, i]) if j == self.depot_vertex(d) else INFEASIBLE_EDGE
        return float(self.w_task[d, i, j])

    def to_csv(self) -> str:
        lines = ["drone,from,to,weight"]
        for d in range(self.n_drones):
            for i in range(self.n_tasks):
                lines.append(f"{d},{self.depot_vertex(d)},{i},{self.w_depot[d, i]:.9g}")
                for j in range(i + 1, self.n_tasks):
                    lines.append(f"{d},{i},{j},{self.w_task[d, i, j]:.9g}")
        return "\n".join(lines) + "\n"


@dataclass
class RoutePlan:
    """One closed route per drone over graph vertices.

    A route is held as a list with one cycle [depot, v1, ..., vk] that
    closes back to the depot; a drone with nothing to do keeps the
    degenerate cycle [depot]. Plans read from outside may hold other
    lists, which verify_plan reports.
    """

    tours: list                   # per drone: [cycle]
    objective: float
    tasks: list = field(default_factory=list)  # the graph's tasks: vertex v is tasks[v]

    def sequence(self, d: int) -> list:
        if len(self.tours[d]) != 1:
            raise LengthMismatch(f"drone {d} has {len(self.tours[d])} cycles; "
                                 f"a route is one closed cycle")
        cycle = self.tours[d][0]
        return list(cycle) + [cycle[0]]

    def assigned_tasks(self, d: int):
        """Visit-ordered (kind, index) pairs for drone d; a blade's index is
        its tuple of sides."""
        tasks = [self.tasks[v] for v in self.sequence(d)[1:-1]]
        return [("blade", t.sides) if t.kind == "blade" else ("target", t.index) for t in tasks]

    def to_dict(self) -> dict:
        return {
            "objective_seconds": self.objective,
            "routes": [{"drone": d,
                        "cycles": [[int(v) for v in cycle] for cycle in cycles]}
                       for d, cycles in enumerate(self.tours)],
            "tasks": [{"vertex": t.vertex, "kind": t.kind, "index": t.index,
                       "position": list(t.position)} for t in self.tasks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# Graph construction


def build_graph(scenario: Scenario) -> InspectionGraph:
    """Task vertices (merged blade nodes first, then target centroids) with
    per-drone time-of-flight weights; incapable edges carry the sentinel."""
    tasks = []
    blade_groups = {}
    for q, side in enumerate(scenario.blades):
        blade_groups.setdefault(side.blade_id, []).append(q)
    for blade_id in sorted(blade_groups):
        sides = blade_groups[blade_id]
        midpoints = [(np.asarray(scenario.blades[q].seg_start)
                      + np.asarray(scenario.blades[q].seg_end)) / 2.0 for q in sides]
        position = tuple(np.mean(midpoints, axis=0))
        tasks.append(TaskNode(len(tasks), "blade", blade_id, position, tuple(sides)))
    for q, target in enumerate(scenario.targets):
        tasks.append(TaskNode(len(tasks), "target", q, tuple(target.box.center)))

    n_tasks, n_drones = len(tasks), scenario.n_drones
    positions = np.array([t.position for t in tasks]).reshape(n_tasks, 3)
    bounds = np.array([limits.bounds() for limits in scenario.limits])  # (drones, 2, 3)
    v_max, a_max = bounds[:, 0, None], bounds[:, 1, None]  # broadcast over the edges
    w_depot = times_of_flight(scenario.depots[:, None], positions, v_max, a_max)
    # every ordered pair: x - y is exactly -(y - x), so the table is symmetric
    w_task = times_of_flight(positions[:, None], positions, v_max[:, None], a_max[:, None])
    capable = np.ones((n_drones, n_tasks), dtype=bool)
    for d in range(n_drones):
        for task in tasks:
            if task.kind == "target":
                ok = d in scenario.capable_drones("targets", task.index)
            else:
                # a blade node is served only by drones allowed on every side
                ok = all(d in scenario.capable_drones("blades", q) for q in task.sides)
            if not ok:
                capable[d, task.vertex] = False
                w_depot[d, task.vertex] = INFEASIBLE_EDGE
                w_task[d, task.vertex, :] = INFEASIBLE_EDGE
                w_task[d, :, task.vertex] = INFEASIBLE_EDGE
                w_task[d, task.vertex, task.vertex] = 0.0
    return InspectionGraph(tasks, np.asarray(scenario.depots, float), w_task, w_depot, capable)


# ---------------------------------------------------------------------------
# Exact assignment

_PAIR_CHUNK = 1 << 14  # candidates per partition block; bounds its temporaries

# The set arithmetic below uses only &, ^ and | on integer arrays: each
# further integer kernel (shift, negation, arithmetic with a scalar)
# faults in another ~64 KB of numpy code on first use, and peak RSS
# counts those pages.


def _submasks(bits: np.ndarray) -> np.ndarray:
    """(rows, 2^k) submasks of the sets whose members are the (rows, k)
    single bits: column j deposits the bits of j into them, lowest first."""
    sub = np.zeros((len(bits), 1), dtype=int)
    for i in range(bits.shape[1]):
        sub = np.concatenate([sub, sub | bits[:, i:i + 1]], axis=1)
    return sub


def _subsets(tasks) -> np.ndarray:
    """All 2^k subsets of the k given tasks, in _submasks order."""
    return _submasks(np.array([1 << u for u in tasks], dtype=int).reshape(1, len(tasks)))[0]


def _popcount_layers(n: int) -> list:
    """Subsets of n tasks by size: element k pairs the k-task subsets,
    ascending, with their (rows, k) member tasks, lowest first."""
    layers = [[] for _ in range(n + 1)]
    for subset in range(1 << n):
        layers[subset.bit_count()].append(subset)
    powers = np.array([1 << u for u in range(n)], dtype=int)
    return [(sets, np.nonzero(sets[:, None] & powers)[1].reshape(len(sets), k))
            for k, sets in enumerate(np.array(layer, dtype=int) for layer in layers)]


class _DroneRouter:
    """Held-Karp tables for one drone over the subsets of its capable tasks.

    Local subset s is the task set masks[s]: bit j of s is task tasks[j],
    and tasks ascend, so local order is global order. A set with a task
    the drone cannot serve has no finite tour and no entry.
    """

    def __init__(self, graph: InspectionGraph, d: int, layers=_popcount_layers):
        self.n = graph.n_tasks
        self.depot = graph.depot_vertex(d)
        blocked = ~graph.capable[d]
        self.w_task = np.where(blocked[:, None] | blocked | (graph.w_task[d] >= INFEASIBLE_EDGE),
                               np.inf, graph.w_task[d])
        self.w_depot = np.where(blocked | (graph.w_depot[d] >= INFEASIBLE_EDGE),
                                np.inf, graph.w_depot[d])
        self.tasks = np.flatnonzero(graph.capable[d])
        self.masks = _subsets(self.tasks.tolist())
        c = len(self.tasks)
        self.layers = layers(c)
        # completion[s][j]: cheapest way to leave task j, visit set s, return
        # home; inf where j is in s. It fills one popcount layer at a time,
        # one pass per member u of s: w[j, u] + completion[s ^ u, u].
        self.powers = np.array([1 << j for j in range(c)], dtype=int)
        w_into = self.w_task[np.ix_(self.tasks, self.tasks)].T.copy()
        w_depot = self.w_depot[self.tasks]
        self.completion = np.full((1 << c, c), np.inf)
        self.completion[0, :] = w_depot
        for sets, at in self.layers[1:]:
            prev = self.completion[sets[:, None] ^ self.powers[at], at]
            cand = np.full((len(sets), c), np.inf)
            for i in range(at.shape[1]):
                np.minimum(cand, prev[:, i, None] + w_into[at[:, i]], out=cand)
            np.put_along_axis(cand, at, np.inf, axis=1)
            self.completion[sets] = cand
        # tour_cost[s]: cheapest closed tour over s; the subsets containing u
        # are the odd halves of a (-1, 2, 2^u) reshape of the subset axis
        self.tour_cost = np.full(1 << c, np.inf)
        self.tour_cost[0] = 0.0
        for u in range(c):
            with_u = self.tour_cost.reshape(-1, 2, 1 << u)[:, 1]
            without_u = self.completion[:, u].reshape(-1, 2, 1 << u)[:, 0]
            np.minimum(with_u, w_depot[u] + without_u, out=with_u)

    def lex_min_tour(self, subset: int) -> list:
        """Lexicographically smallest optimal tour over the local subset."""
        tour = [self.depot]
        budget = self.tour_cost[subset]
        current = None
        while subset:
            for j, u in enumerate(self.tasks.tolist()):
                if not subset & (1 << j):
                    continue
                hop = self.w_depot[u] if current is None else self.w_task[current, u]
                remaining = self.completion[subset ^ (1 << j), j]
                if abs((hop + remaining) - budget) <= _TIE_TOL * max(1.0, abs(budget)):
                    tour.append(u)
                    budget -= hop
                    subset ^= 1 << j
                    current = u
                    break
            else:
                raise AssertionError("tour reconstruction failed")
        return tour


def _partition_table(routers: list, n: int) -> np.ndarray:
    """best[d][S]: cheapest cost for drones d.. to cover exactly the set S.

    Rows fill from the last drone up; the last is its tour costs plus the
    one finite tail, 0.0. Entry A | B of row d, A a set of drone d's tasks
    and B of the others, is the least tour_cost[s] + best[d + 1][(A ^ s) | B]
    over submasks s of A (any other submask has an infinite tour), in blocks
    of about _PAIR_CHUNK candidates. Row 0 is filled only at the full set.
    """
    drones = len(routers)
    best = np.full((drones + 1, 1 << n), np.inf)
    best[drones, 0] = 0.0
    for d in range(drones - 1, -1, -1):
        router = routers[d]
        if 0 < d == drones - 1:
            best[d, router.masks] = router.tour_cost + 0.0
            continue
        spread = _subsets(sorted(set(range(n)).difference(router.tasks.tolist())))
        layers, spread = (router.layers, spread) if d else (router.layers[-1:], spread[-1:])
        for sets, at in layers:
            rows = max(1, (_PAIR_CHUNK >> at.shape[1]) // len(spread))
            for start in range(0, len(sets), rows):
                block = sets[start:start + rows]
                sub = _submasks(router.powers[at[start:start + rows]])
                rest = router.masks[block[:, None] ^ sub][:, :, None] | spread
                cand = router.tour_cost[sub][:, :, None] + best[d + 1, rest]
                best[d, router.masks[block][:, None] | spread] = cand.min(axis=1)
    return best


def solve_assignment(graph: InspectionGraph) -> RoutePlan:
    """Exact optimum over task partitions and per-drone closed tours.

    Uncoverable tasks raise; a drone with no tasks keeps the degenerate
    stay-home cycle at zero cost.
    """
    for task in graph.tasks:
        if not graph.capable[:, task.vertex].any():
            raise Uncoverable(f"{task.name} has no capable drone")

    layers = functools.cache(_popcount_layers)  # built once per set size per solve
    routers = [_DroneRouter(graph, d, layers) for d in range(graph.n_drones)]
    remaining = full = (1 << graph.n_tasks) - 1

    best = _partition_table(routers, graph.n_tasks)
    objective = best[0, full]
    if not np.isfinite(objective):
        raise Uncoverable("no feasible partition covers all tasks")

    tours = []
    for d, router in enumerate(routers):
        subsets = _subsets([j for j, u in enumerate(router.tasks.tolist())
                            if remaining & (1 << u)])
        total = router.tour_cost[subsets] + best[d + 1, remaining ^ router.masks[subsets]]
        target = best[d, remaining]
        tied = np.isfinite(total) & (np.abs(total - target)
                                     <= _TIE_TOL * max(1.0, abs(target)))
        candidates = {s: router.lex_min_tour(s) for s in subsets[tied].tolist()}
        chosen = min(candidates, key=lambda s: tuple(candidates[s]))
        tours.append([candidates[chosen]])
        remaining ^= int(router.masks[chosen])
    return RoutePlan(tours=tours, objective=float(objective), tasks=list(graph.tasks))


# ---------------------------------------------------------------------------
# Route verification


def verify_plan(plan: RoutePlan, graph: InspectionGraph):
    """Check each drone's route and the coverage of the tasks.

    A route is one cycle that starts at the drone's own depot, holds each
    vertex once and visits only tasks the drone can serve; together the
    routes visit every task. Returns (ok, violations), each violation
    prefixed by the check it fails: flow (not one closed walk), depot,
    capability or coverage.
    """
    n = graph.n_tasks
    violations = []
    if len(plan.tours) != graph.n_drones:
        violations.append(f"depot: {len(plan.tours)} routes for {graph.n_drones} drones")
    visited = set()
    for d in range(graph.n_drones):
        cycles = plan.tours[d] if d < len(plan.tours) else []
        route = [v for cycle in cycles for v in cycle]
        depot = graph.depot_vertex(d)
        if len(cycles) != 1:
            violations.append(f"flow: drone {d} flies {len(cycles)} cycles, expected 1")
        departures = route.count(depot)
        if departures != 1:
            violations.append(f"depot: drone {d} departs {departures} times, expected 1")
        elif route[0] != depot:
            violations.append(f"depot: drone {d} starts at vertex {route[0]}, "
                              f"not at its depot {depot}")
        for v in sorted(set(route)):
            if v == depot:
                continue
            if route.count(v) > 1:
                violations.append(f"flow: drone {d} visits vertex {v} {route.count(v)} times")
            if not 0 <= v < n + graph.n_drones:
                violations.append(f"flow: drone {d} visits vertex {v}, which is not in the graph")
            elif v >= n:
                violations.append(f"depot: drone {d} passes vertex {v}, "
                                  f"the depot of drone {v - n}")
            elif not graph.capable[d, v]:
                violations.append(f"capability: drone {d} cannot serve {graph.tasks[v].name}")
        visited.update(route)
    for task in graph.tasks:
        if task.vertex not in visited:
            violations.append(f"coverage: {task.name} (vertex {task.vertex}) is never visited")
    return len(violations) == 0, violations


# ---------------------------------------------------------------------------
# Seed trajectory synthesis


@dataclass
class ScheduleEntry:
    kind: str        # "target", "blade_side", "home"
    index: int
    arrive: int      # sample index
    depart: int


def _sweep_geometry(side, standoff):
    a = np.asarray(side.seg_start)
    b = np.asarray(side.seg_end)
    normal = stl.segment_offsets(side.box.center[None, None], a[None], (b - a)[None])[0, 0]
    norm = np.linalg.norm(normal)
    if norm < 1e-9:
        raise Uncoverable("blade corridor box center lies on the blade axis")
    offset = standoff * normal / norm
    return a + offset, b + offset


def _sweep_leg(start_options, current, n_steps, ts, v_max, a_max, seg_length):
    """Pick the nearer sweep endpoint, then move along the blade for the
    largest distance a rest-to-rest profile covers in exactly n_steps."""
    d0 = np.linalg.norm(start_options[0] - current)
    d1 = np.linalg.norm(start_options[1] - current)
    start, other = (start_options if d0 <= d1 else (start_options[1], start_options[0]))
    direction = (other - start) / np.linalg.norm(other - start)
    m = n_steps // 2
    cap = seg_length
    for axis in range(3):
        share = abs(direction[axis])
        if share < 1e-12:
            continue
        cap = min(cap,
                  a_max[axis] * ts * ts * m * (n_steps - m) / share,
                  v_max[axis] * ts * (n_steps - m) / share)
    sweep = steer_rest_to_rest(cap * direction, n_steps, ts, v_max, a_max)
    if sweep is None:
        raise AssertionError("sweep profile infeasible despite feasibility cap")
    return start, start + cap * direction, sweep


def _drone_program(plan, scenario, d, derate=0.9):
    """Acceleration pieces and schedule for one drone's route.

    Legs are planned against slightly derated limits so the seed carries
    a velocity and acceleration reserve for the optimizer to spend.
    """
    limits = scenario.limits[d]
    v_max, a_max = limits.bounds()
    v_max = derate * v_max
    a_max = derate * a_max
    ts = scenario.ts
    dwell_steps = int(round(scenario.inspect_duration / ts))
    sweep_steps = int(round(scenario.blade_duration / ts))

    pieces = []
    schedule = []
    clock = 0
    current = np.asarray(scenario.depots[d], float)

    def transit(goal):
        nonlocal clock, current
        goal = np.asarray(goal, float)
        if np.allclose(goal, current, atol=1e-12):
            return
        steps, acc = min_steps_rest_to_rest(goal - current, ts, v_max, a_max)
        pieces.append(acc)
        clock += steps
        current = goal

    route = plan.sequence(d)[1:-1]
    for vertex in route:
        task = plan.tasks[vertex]
        if task.kind == "target":
            transit(scenario.targets[task.index].box.center)
            pieces.append(np.zeros((dwell_steps, 3)))
            schedule.append(ScheduleEntry("target", task.index, clock, clock + dwell_steps))
            clock += dwell_steps
        else:
            for q in task.sides:
                side = scenario.blades[q]
                endpoints = _sweep_geometry(side, scenario.blade_standoff)
                seg_length = float(np.linalg.norm(np.asarray(side.seg_end)
                                                  - np.asarray(side.seg_start)))
                start, end, sweep = _sweep_leg(endpoints, current, sweep_steps, ts,
                                               v_max, a_max, seg_length)
                transit(start)
                pieces.append(sweep)
                schedule.append(ScheduleEntry("blade_side", q, clock, clock + sweep_steps))
                clock += sweep_steps
                current = end
    # park deep inside the home box; an idle drone already inside just hovers
    if route or not scenario.home_boxes[d].contains(current):
        transit(scenario.home_boxes[d].center)
    schedule.append(ScheduleEntry("home", d, clock, clock))
    acc = np.concatenate(pieces) if pieces else np.zeros((0, 3))
    return acc, schedule


def _compress(acc, n_steps, a_max):
    """Time-scale an acceleration sequence into n_steps samples and clamp.

    The compressed profile demands 1/s^2 times the acceleration; clamping
    keeps the seed feasible in acceleration at the price of accuracy,
    which is acceptable for a warm start.
    """
    total = acc.shape[0]
    index = np.minimum((np.arange(n_steps) * total) // n_steps, total - 1)
    scaled = acc[index] * (total / n_steps) ** 2
    return np.clip(scaled, -np.asarray(a_max), np.asarray(a_max))


def seed_with_schedule(plan: RoutePlan, scenario: Scenario, derate: float = 0.9):
    """Seed trace plus the per-drone task schedule it realizes.

    Legs are planned against ``derate``-scaled limits so the seed keeps a
    kinematic reserve. Routes that cannot fit the mission duration are
    time-scaled into it (accelerations clamped); below MIN_SEED_SCALE
    compression the route is hopeless even at limit speeds and
    HorizonOverflow carries the unscaled trace for diagnosis.
    """
    n_steps = scenario.n_samples
    programs = [_drone_program(plan, scenario, d, derate) for d in range(scenario.n_drones)]
    longest = max(max(acc.shape[0] for acc, _ in programs), n_steps)
    worst = n_steps / longest
    if worst < MIN_SEED_SCALE:
        padded = [np.vstack([acc, np.zeros((longest - acc.shape[0], 3))])
                  for acc, _ in programs]
        unscaled = rollout(scenario.depots, np.zeros_like(scenario.depots),
                           np.stack(padded), scenario.ts)
        raise HorizonOverflow(
            f"route needs {longest * scenario.ts:.2f} s but the mission allows "
            f"{scenario.mission_duration:.2f} s (scale {worst:.2f} < {MIN_SEED_SCALE})",
            trace=unscaled)

    accs = []
    schedules = []
    for d, (acc, schedule) in enumerate(programs):
        total = acc.shape[0]
        if total <= n_steps:
            accs.append(np.vstack([acc, np.zeros((n_steps - total, 3))]))
            schedules.append(schedule)
        else:
            scale = n_steps / total
            _, drone_a_max = scenario.limits[d].bounds()
            accs.append(_compress(acc, n_steps, drone_a_max))
            schedules.append([ScheduleEntry(e.kind, e.index, int(e.arrive * scale),
                                            int(e.depart * scale)) for e in schedule])
    trace = rollout(scenario.depots, np.zeros_like(scenario.depots),
                    np.stack(accs), scenario.ts)
    return trace, schedules

