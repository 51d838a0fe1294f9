import copy
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import bundled_scenario_path, robustness, stl
from stlfleet.dynamics import DroneLimits, Trace, rollout
from stlfleet.errors import (InfeasibleWindow, NoCapableDrone, ParseError,
                             ValidationError)
from stlfleet.mission import (BladeSide, Box, Scenario, Target, assign_headings,
                              band_robustness, compile_mission, dist_to_blade,
                              safety_class_robustness, scenario_from_dict,
                              scenario_from_json)
from stlfleet.robustness import Program, _Segments, eval_exact
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from conftest import scalar_trace


def scenario_dict(n_drones=1, targets=((0.0, 0.0, 1.0),), blade=False,
                  obstacles=(), mission=8.0, v=1.0, capability=None,
                  min_separation=1.0, ws_half=8.0, home_offset=(0.0, 0.0, 0.0),
                  home_half=0.35) -> dict:
    """A small scenario as the JSON dict that a scenario file holds."""
    def box(center, half):
        return {"lower": np.subtract(center, half).tolist(),
                "upper": np.add(center, half).tolist()}

    depots = [[-3.0 + 1.5 * d, -3.0, 1.0] for d in range(n_drones)]
    data = {
        "workspace": {"lower": [-ws_half, -ws_half, 0.0], "upper": [ws_half, ws_half, 8.0]},
        "obstacles": [{"lower": list(lo), "upper": list(hi)} for lo, hi in obstacles],
        "targets": [{**box(c, 0.6), "yaw": 0.3} for c in targets],
        "blades": [{"leading_edge": [3.0, 2.0, 0.8], "rotor_shaft": [3.0, 2.0, 4.2],
                    "box": {"lower": [0.2, 0.8, 0.6], "upper": [2.8, 3.2, 4.0]}}]
                  if blade else [],
        "fleet": {"depots": depots,
                  "limits": [{"v_max": [v] * 3, "a_max": [v] * 3,
                              "v_max_relaxed": [2.0 * v] * 3, "a_max_relaxed": [5.0 * v] * 3}
                             for _ in range(n_drones)],
                  "home_boxes": [box(np.add(p, home_offset), home_half) for p in depots]},
        "timing": {"mission": mission, "inspect": 1.0, "blade": 1.0, "sample": 0.05},
        "thresholds": {"min_separation": min_separation, "blade_standoff": 1.5,
                       "standoff_tolerance": 0.75},
        "weights": {"workspace": 2.0, "obstacle": 4.0, "separation": 3.0},
    }
    if capability is not None:
        data["fleet"]["capability"] = [
            {kind: sorted(c[kind]) if c[kind] is not None else "all"
             for kind in ("targets", "blades")} for c in capability]
    return data


def make_scenario(**kwargs):
    """The Scenario of ``scenario_dict(**kwargs)``."""
    return scenario_from_dict(scenario_dict(**kwargs))


def same_scenario(a, b) -> bool:
    """Field-by-field equality of two scenarios, depots compared as arrays."""
    def fields(s):
        return {k: v for k, v in vars(s).items() if k != "depots"}
    return np.array_equal(a.depots, b.depots) and fields(a) == fields(b)


def test_full_scale_mission_has_twenty_conjuncts():
    scenario = make_scenario(n_drones=3,
                             targets=[(x, y, 1.0) for x in (-2.0, 0.0, 2.0)
                                      for y in (2.0, 3.5, 5.0)],
                             blade=True)
    scenario.blades.append(BladeSide((3.0, 2.0, 0.8), (3.0, 2.0, 4.2),
                                     Box((3.2, 0.8, 0.6), (5.8, 3.2, 4.0))))
    formula, weights = compile_mission(scenario)
    # 3 safety + 9 targets + 2 blade sides + 3 home + 3 stay-home
    assert len(formula.children) == 20
    assert Program(formula, scenario.ts).ops[-1].steps == scenario.n_samples
    top = weights.get(formula.node_id, 20)
    assert list(top) == [1.0] * 20  # task classes default to weight 1 here


def test_safety_weights_attached_to_inner_conjunction():
    scenario = make_scenario(n_drones=2, obstacles=[((-1, -1, 0), (1, 1, 2))])
    formula, weights = compile_mission(scenario)
    bodies = [n for n in formula if n.node_id.startswith("safety_body")]
    assert len(bodies) == 2
    for body in bodies:
        assert list(weights.get(body.node_id, 3)) == [2.0, 4.0, 3.0]


def test_zero_obstacles_prunes_clause():
    scenario = make_scenario(n_drones=2)
    formula, _ = compile_mission(scenario)
    assert not any(n.node_id.startswith("obstacles[") for n in formula)
    assert any(n.node_id.startswith("separation[") for n in formula)


def test_single_capable_drone_degenerate_disjunction():
    scenario = make_scenario(n_drones=1)
    formula, _ = compile_mission(scenario)
    target = next(n for n in formula if n.node_id == "target[0]")
    assert target.kind == stl.EVENTUALLY
    assert target.children[0].kind == stl.ALWAYS  # no disjunction wrapper


def test_compile_errors():
    scenario = make_scenario()
    scenario.inspect_duration = scenario.mission_duration + 1.0
    with pytest.raises(InfeasibleWindow):
        compile_mission(scenario)
    bad = make_scenario(n_drones=2, capability=[{"targets": set(), "blades": None}] * 2)
    with pytest.raises(NoCapableDrone):
        compile_mission(bad)


def test_dist_to_blade_examples():
    assert dist_to_blade((3, 2.5, 0), (0, 0, 0), (7, 0, 0)) == pytest.approx(2.5)
    assert dist_to_blade((4, 0, 0), (0, 0, 0), (7, 0, 0)) == 0.0
    assert dist_to_blade((8, 0, 1), (0, 0, 0), (7, 0, 0)) == pytest.approx(math.sqrt(2))


def test_band_robustness_examples_and_concavity():
    assert band_robustness(2.5, 2.5, 1.0) == pytest.approx(1.0)
    assert band_robustness(1.5, 2.5, 1.0) == 0.0
    assert band_robustness(4.0, 2.5, 1.0) == pytest.approx(-0.5)
    distances = np.linspace(0.0, 5.0, 201)
    values = np.array([band_robustness(x, 2.5, 1.0) for x in distances])
    assert distances[np.argmax(values)] == pytest.approx(2.5)
    assert values.max() == pytest.approx(1.0)
    second_diff = np.diff(values, 2)
    assert np.all(second_diff <= 1e-9)  # concave in the distance


def test_target_clause_brute_force_window_scan():
    scenario = make_scenario(mission=3.0)
    formula, _ = compile_mission(scenario)
    steps = scenario.n_samples
    dwell = int(round(scenario.inspect_duration / scenario.ts))
    center = scenario.targets[0].box.center

    inside = scalar_trace(np.zeros(steps + 1), ts=scenario.ts)
    inside.pos[0, :] = center
    clause = next(n for n in formula if n.node_id == "target[0]")
    assert eval_exact(clause, inside, 0) > 0

    # push one sample out of the box inside every candidate dwell window
    broken = inside.copy()
    for start in range(0, steps - dwell + 1, dwell):
        broken.pos[0, start + dwell // 2] = center + np.array([5.0, 0, 0])
    brute = max(min(1.0 if scenario.targets[0].box.contains(broken.pos[0, k]) else -1.0
                    for k in range(s, s + dwell + 1))
                for s in range(0, steps - dwell + 1))
    assert brute < 0
    assert eval_exact(clause, broken, 0) <= 0


def test_separation_clause_matches_pairwise_scan(rng):
    scenario = make_scenario(n_drones=2, mission=2.0)
    formula, _ = compile_mission(scenario)
    steps = scenario.n_samples
    pos = rng.uniform(-4, 4, size=(2, steps + 1, 3))
    trace = scalar_trace(np.zeros(steps + 1), ts=scenario.ts, n_drones=2)
    trace.pos[:] = pos
    clause = next(n for n in formula if n.node_id == "separation[0]")
    wrapped = stl.always(stl.Interval(0.0, scenario.mission_duration), clause)
    got = eval_exact(wrapped, trace, 0)
    brute = min(np.linalg.norm(pos[0, k] - pos[1, k]) for k in range(steps + 1))
    assert got == pytest.approx(brute - scenario.min_separation, abs=1e-12)


def test_safety_class_robustness_monitor(rng):
    scenario = make_scenario(n_drones=2, obstacles=[((-1, -1, 0), (1, 1, 2))], mission=2.0)
    steps = scenario.n_samples
    trace = scalar_trace(np.zeros(steps + 1), ts=scenario.ts, n_drones=2)
    trace.pos[0, :] = (-3.0, -3.0, 1.0)
    trace.pos[1, :] = (3.0, 3.0, 1.0)
    values = safety_class_robustness(scenario, trace)
    assert set(values) == {"workspace", "obstacle", "separation"}
    assert values["separation"] == pytest.approx(np.linalg.norm([6.0, 6.0]) - 1.0)
    assert values["obstacle"] == pytest.approx(2.0)  # 3 - 1 on each axis, min margin 2
    assert values["workspace"] == pytest.approx(1.0)  # z margin binds


def _safety_classes_by_formulas(scenario, trace):
    """Reference: each safety class as its own always-formula over the
    conjunction of the class's atoms, one separation atom per drone pair."""
    duration = min(scenario.mission_duration, trace.duration)
    out = {}
    specs = {"workspace": [], "obstacle": [], "separation": []}
    for d in range(scenario.n_drones):
        specs["workspace"].append(stl.atom(stl.Predicate.box_inside(
            f"mon_ws[{d}]", d, scenario.workspace.lower, scenario.workspace.upper)))
        for q, box in enumerate(scenario.obstacles):
            specs["obstacle"].append(stl.atom(stl.Predicate.box_outside(
                f"mon_obs[{d},{q}]", d, box.lower, box.upper)))
        for m in range(d + 1, scenario.n_drones):
            specs["separation"].append(stl.atom(stl.Predicate.min_separation(
                f"mon_dis[{d},{m}]", d, m, scenario.min_separation)))
    for name, atoms in specs.items():
        if not atoms:
            continue
        body = atoms[0] if len(atoms) == 1 else stl.land(*atoms)
        out[name] = eval_exact(stl.always(stl.Interval(0.0, duration), body), trace)
    return out


def test_safety_classes_evaluate_one_atom_group_per_kind(monkeypatch):
    # 3 workspace boxes, 6 obstacle boxes and 6 ordered separation pairs
    scenario = make_scenario(n_drones=3, obstacles=[((-1, -1, 0), (1, 1, 2)),
                                                    ((2, 2, 0), (3, 3, 2))], mission=2.0)
    trace = rollout(scenario.depots, np.zeros_like(scenario.depots),
                    np.zeros((3, scenario.n_samples - 1, 3)), scenario.ts)
    groups = []
    for group in (robustness._Boxes, robustness._Separations):
        def counted(self, trace, keep=False, _forward=group.forward):
            groups.append(len(self.scale))
            return _forward(self, trace, keep)
        monkeypatch.setattr(group, "forward", counted)
    classes = safety_class_robustness(scenario, trace)
    assert list(classes) == ["workspace", "obstacle", "separation"]
    assert groups == [3, 6, 6]


@settings(max_examples=80, deadline=None)
@given(drones=st.integers(1, 4), obstacles=st.integers(0, 3),
       samples=st.integers(1, 80), nans=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_safety_classes_match_class_formulas(drones, obstacles, samples, nans, seed):
    # a 2 s mission has 41 samples, so traces run shorter and longer than it;
    # obstacles sit at y >= 0, clear of every depot at y = -3
    rng = np.random.default_rng(seed)
    corners = rng.uniform([-6.0, 0.0, 0.0], [4.0, 5.0, 5.0], size=(obstacles, 3))
    boxes = [(lo, lo + rng.uniform(0.3, 3.0, 3)) for lo in corners]
    scenario = make_scenario(n_drones=drones, obstacles=boxes, mission=2.0,
                             min_separation=rng.uniform(0.2, 3.0))
    pos = rng.normal(scale=4.0, size=(drones, samples, 3)) + [0.0, 0.0, 3.0]
    # a NaN coordinate makes every margin that reads it NaN
    pos.reshape(-1)[rng.choice(pos.size, size=min(nans, pos.size), replace=False)] = np.nan
    trace = Trace(scenario.ts, pos, np.zeros_like(pos), np.zeros((drones, samples - 1, 3)))
    got = safety_class_robustness(scenario, trace)
    want = _safety_classes_by_formulas(scenario, trace)
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name] == value or (math.isnan(got[name]) and math.isnan(value)), name


def test_segment_offsets_match_dist_to_blade_and_band_atoms(rng):
    for _ in range(50):
        k, length = rng.integers(1, 5), rng.integers(1, 60)
        starts = rng.uniform(-5.0, 5.0, size=(k, 3))
        spans = rng.uniform(-4.0, 4.0, size=(k, 3))
        points = rng.uniform(-8.0, 8.0, size=(k, length, 3))
        dist = np.linalg.norm(stl.segment_offsets(points, starts, spans), axis=2)
        for i in range(k):
            oracle = [dist_to_blade(p, starts[i], starts[i] + spans[i]) for p in points[i]]
            np.testing.assert_allclose(dist[i], oracle, rtol=1e-12, atol=0)
        # the band atoms read the same projection, bit for bit
        preds = [stl.Predicate.segment_band(f"band{i}", i, starts[i], starts[i] + spans[i],
                                            standoff=2.0, tolerance=0.5) for i in range(k)]
        trace = Trace(0.05, points, np.zeros_like(points), np.zeros((k, length - 1, 3)))
        group = _Segments(preds)
        _, (_, atom_dist) = group.forward(trace)
        want = np.linalg.norm(stl.segment_offsets(trace.pos[group.drones], group.starts,
                                                  group.spans), axis=2)
        assert np.array_equal(atom_dist.view(np.int64), want.view(np.int64))


def test_assign_headings_rules():
    scenario = make_scenario()
    # transit along +x: yaw 0
    acc = np.zeros((1, 40, 3))
    acc[0, :10, 0] = 1.0
    trace = rollout(np.array([[-3.0, -3.0, 1.0]]), np.zeros((1, 3)), acc, 0.05)
    yaw = assign_headings(trace, scenario, plan=None)
    assert yaw[0, 20] == pytest.approx(0.0)

    # dwell inside the target: configured yaw held
    hover = scalar_trace(np.zeros(30), ts=0.05)
    hover.pos[0, :] = scenario.targets[0].box.center
    scenario.targets[0] = Target(scenario.targets[0].box, yaw=math.pi / 2)
    yaw = assign_headings(hover, scenario, plan=None)
    assert np.allclose(yaw[0], math.pi / 2)

    # blade coverage: face the closest blade point
    blade_scenario = Scenario(
        workspace=Box((-10, -10, -1), (10, 10, 5)),
        obstacles=[], targets=[],
        blades=[BladeSide((0, 0, 0), (7, 0, 0), Box((1, 1.4, -1), (6, 3.6, 1)))],
        depots=np.array([[0.0, 5.0, 0.0]]),
        limits=[DroneLimits(1.0, 1.0)],
        home_boxes=[Box((-0.5, 4.5, -0.5), (0.5, 5.5, 0.5))],
        mission_duration=8.0, inspect_duration=1.0, blade_duration=1.0, ts=0.05,
        min_separation=1.0, blade_standoff=2.5, standoff_tolerance=1.0)
    at_blade = scalar_trace(np.zeros(10), ts=0.05)
    at_blade.pos[0, :] = (3.0, 2.5, 0.0)
    yaw = assign_headings(at_blade, blade_scenario, plan=None)
    assert yaw[0, 0] == pytest.approx(-math.pi / 2)


def _headings_loop(trace, scenario, allowed_targets, allowed_blades, speed_floor=0.05):
    """Reference: the per-sample loop that assign_headings replaced."""
    yaw = np.zeros(trace.pos.shape[:2])
    for d in range(trace.n_drones):
        current = 0.0
        for k in range(trace.n_samples):
            p = trace.pos[d, k]
            target_q = next((q for q in allowed_targets[d]
                             if scenario.targets[q].box.contains(p)), None)
            blade_q = next((q for q in allowed_blades[d]
                            if scenario.blades[q].box.contains(p)), None)
            if target_q is not None:
                current = scenario.targets[target_q].yaw
            elif blade_q is not None:
                side = scenario.blades[blade_q]
                a = np.asarray(side.seg_start)
                u = np.asarray(side.seg_end) - a
                s = min(1.0, max(0.0, float((p - a) @ u) / float(u @ u)))
                closest = a + s * u
                current = math.atan2(closest[1] - p[1], closest[0] - p[0])
            elif math.hypot(trace.vel[d, k, 0], trace.vel[d, k, 1]) > speed_floor:
                current = math.atan2(trace.vel[d, k, 1], trace.vel[d, k, 0])
            yaw[d, k] = current
    return yaw


class _Plan:
    """Assigned tasks per drone, in the order a route visits them."""

    def __init__(self, tasks):
        self.tasks = tasks

    def assigned_tasks(self, d):
        return self.tasks[d]


def test_assign_headings_matches_sample_loop(rng):
    # overlapping target boxes and a blade corridor overlapping a target,
    # so the first allowed target, then the blade, must win
    scenario = make_scenario(n_drones=2, targets=[(-1.0, 1.0, 1.0), (-0.5, 1.3, 1.0),
                                                  (1.0, 1.5, 1.0)], blade=True)
    for q, yaw in enumerate((0.3, -1.2, 2.5)):
        scenario.targets[q] = Target(scenario.targets[q].box, yaw=yaw)
    # a slanted blade, so that clamping the projection to the segment shows
    scenario.blades[0] = BladeSide((2.0, 3.5, 1.0), (0.5, 3.5, 3.0), scenario.blades[0].box)
    plan = _Plan([[("target", 1), ("target", 0), ("blade", (0,))], [("target", 2)]])
    everything = ([[0, 1, 2]] * 2, [[0]] * 2)
    for _ in range(20):
        acc = rng.normal(scale=3.0, size=(2, 120, 3))
        acc[:, rng.integers(0, 120, 30)] = 0.0  # slow stretches below the speed floor
        start = np.array([[-1.0, 1.0, 1.0], [1.5, 1.5, 1.0]]) + rng.normal(scale=0.5, size=(2, 3))
        trace = rollout(start, np.zeros((2, 3)), acc * rng.uniform(0.0, 1.0), 0.05)
        trace.vel[:, :rng.integers(0, 10)] = 0.0  # no valid heading at first: 0 is held
        for chosen, allowed in ((None, everything),
                                (plan, ([[1, 0], [2]], [[0], []]))):
            got = assign_headings(trace, scenario, chosen)
            want = _headings_loop(trace, scenario, *allowed)
            # numpy's arctan2 may differ from math.atan2 in the last bit
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_scenario_json_round_trip_and_strictness():
    data = scenario_dict(n_drones=2, blade=True, obstacles=[((-1, -1, 0), (1, 1, 2))])
    text = json.dumps(data)
    assert same_scenario(scenario_from_json(text), scenario_from_dict(data))
    raw = json.loads(text)
    raw["unexpected"] = 1
    with pytest.raises(ParseError, match="unexpected"):
        scenario_from_json(json.dumps(raw))
    raw = json.loads(text)
    raw["timing"]["bogus"] = 2
    with pytest.raises(ParseError, match="timing"):
        scenario_from_json(json.dumps(raw))
    raw = json.loads(text)
    raw["timing"]["inspect"] = raw["timing"]["mission"] + 1
    with pytest.raises(ValidationError, match="timing.inspect"):
        scenario_from_json(json.dumps(raw))


def test_scenario_invariants():
    with pytest.raises(ValidationError, match="depots"):
        make_scenario(obstacles=[((-4, -4, 0), (-2, -2, 2))])  # depot inside obstacle
    with pytest.raises(ValidationError):
        Box((0, 0, 0), (0, 1, 1))
    scenario = make_scenario()
    assert scenario.n_samples == 160


@functools.cache
def _turbine_and_seed():
    """The bundled turbine's scenario dict and the seed trace planned for it."""
    data = json.loads(bundled_scenario_path("windturbine_mock").read_text())
    scenario = scenario_from_dict(data)
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    return data, seed


def _translated(data, shift):
    """Scenario dict ``data`` with every point in it moved by ``shift``."""
    def point(p):
        return np.add(p, shift).tolist()

    def box(raw):
        return {**raw, "lower": point(raw["lower"]), "upper": point(raw["upper"])}

    out = copy.deepcopy(data)
    out["workspace"] = box(data["workspace"])
    out["obstacles"] = [box(raw) for raw in data.get("obstacles", [])]
    out["targets"] = [box(raw) for raw in data.get("targets", [])]
    out["blades"] = [{**raw, "leading_edge": point(raw["leading_edge"]),
                      "rotor_shaft": point(raw["rotor_shaft"]), "box": box(raw["box"])}
                     for raw in data.get("blades", [])]
    out["fleet"]["depots"] = [point(p) for p in data["fleet"]["depots"]]
    out["fleet"]["home_boxes"] = [box(raw) for raw in data["fleet"]["home_boxes"]]
    return out


# metamorphic relation (Chen et al., ACM CSUR 2018): moving the scenario and
# the trace's positions by one vector leaves every margin unchanged; the
# velocities, and so the velocity clauses, stay as they are
@settings(max_examples=15, deadline=None)
@given(shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
@example(shift=(0.0, 0.0, 0.0))
@example(shift=(-50.0, 50.0, -50.0))
def test_translation_keeps_mission_and_safety_robustness(shift):
    data, seed = _turbine_and_seed()
    moved = scenario_from_dict(_translated(data, shift))
    trace = Trace(seed.ts, seed.pos + np.asarray(shift), seed.vel, seed.acc)
    scenario = scenario_from_dict(data)
    want = eval_exact(compile_mission(scenario)[0], seed)
    assert eval_exact(compile_mission(moved)[0], trace) == pytest.approx(want, abs=1e-9)
    classes = safety_class_robustness(scenario, seed)
    got = safety_class_robustness(moved, trace)
    assert got.keys() == classes.keys()
    for name, value in classes.items():
        assert got[name] == pytest.approx(value, abs=1e-9), name
