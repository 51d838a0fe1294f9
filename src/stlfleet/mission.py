"""Scenario model and compilation into the mission formula.

The mission conjoins, per drone, an always-clause over workspace,
obstacle, and mutual-separation predicates; per target, an eventually
clause demanding some capable drone hold the target box for the dwell
time; per blade side, the same with a box-plus-distance-band predicate;
and per drone, a return-home clause plus a stay-home clause (once home
after the first second, remain home at the next sample).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import stl
from .dynamics import DroneLimits, Trace
from .errors import (DegenerateSegment, InfeasibleWindow, NoCapableDrone, ParseError,
                     ValidationError)
from .robustness import MIN_SHARPNESS, atom_values


@dataclass(frozen=True)
class Box:
    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = np.asarray(self.lower, float)
        hi = np.asarray(self.upper, float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValidationError(f"box bounds must be 3-vectors: {self.lower}, {self.upper}")
        if not np.all(lo < hi):
            raise ValidationError(f"degenerate box: {self.lower} !< {self.upper}")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lower) + np.asarray(self.upper)) / 2.0

    def contains(self, point, margin: float = 0.0):
        """Strictly inside the box shrunk by ``margin``: a bool for one point,
        a boolean array for an array of points (one per row)."""
        p = np.asarray(point)
        inside = np.all((p > np.asarray(self.lower) + margin)
                        & (p < np.asarray(self.upper) - margin), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside


@dataclass(frozen=True)
class BladeSide:
    """One inspectable side of a blade: the blade segment plus the corridor
    box the drone must occupy while holding the standoff band."""

    seg_start: tuple  # leading-edge end of the blade segment
    seg_end: tuple    # rotor-shaft end
    box: Box
    blade_id: int = 0

    def __post_init__(self):
        a = np.asarray(self.seg_start, float)
        b = np.asarray(self.seg_end, float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValidationError(f"blade segment endpoints must be 3-vectors: {a}, {b}")
        if np.linalg.norm(b - a) == 0.0:
            raise ValidationError("blade segment endpoints coincide")
        object.__setattr__(self, "seg_start", tuple(a))
        object.__setattr__(self, "seg_end", tuple(b))


@dataclass(frozen=True)
class Target:
    box: Box
    yaw: float = 0.0  # camera heading held while dwelling in this box


@dataclass
class Scenario:
    """Everything the planner needs: geometry, fleet, timing, weights."""

    workspace: Box
    obstacles: list
    targets: list
    blades: list
    depots: np.ndarray          # (drones, 3)
    limits: list                # DroneLimits per drone
    home_boxes: list            # Box per drone
    mission_duration: float
    inspect_duration: float
    blade_duration: float
    ts: float
    min_separation: float
    blade_standoff: float
    standoff_tolerance: float
    margin: float = 0.2         # smooth-robustness buffer demanded of a plan
    sharpness: float = 10.0
    trigger_radius: float = 1.0
    weights: dict = field(default_factory=dict)
    capability: list = None     # per drone: {"targets": set | None, "blades": set | None}

    def __post_init__(self):
        self.depots = np.asarray(self.depots, float)
        if self.depots.ndim != 2 or self.depots.shape[1] != 3:
            raise ValidationError("fleet.depots must be a list of 3-D points")
        if len(self.limits) != self.n_drones or len(self.home_boxes) != self.n_drones:
            raise ValidationError("fleet.limits and fleet.home_boxes must match depot count")
        if self.capability is None:
            self.capability = [{"targets": None, "blades": None}] * self.n_drones
        if len(self.capability) != self.n_drones:
            raise ValidationError("fleet.capability must match depot count")
        for d, mask in enumerate(self.capability):
            for kind, count in (("targets", len(self.targets)), ("blades", len(self.blades))):
                unknown = [q for q in mask.get(kind) or () if q not in range(count)]
                if unknown:
                    raise ValidationError(f"fleet.capability[{d}].{kind} names {unknown}, "
                                          f"but the scenario has {count} {kind}")
        if not (np.isfinite(self.ts) and self.ts > 0):
            raise ValidationError(f"timing.sample must be positive and finite, got {self.ts}")
        for label, value in (("timing.mission", self.mission_duration),
                             ("timing.inspect", self.inspect_duration),
                             ("timing.blade", self.blade_duration)):
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"{label} must be positive and finite, got {value}")
            steps = value / self.ts
            if abs(steps - round(steps)) > 1e-6:
                raise ValidationError(f"{label} = {value} is not a multiple of ts = {self.ts}")
        if self.inspect_duration > self.mission_duration:
            raise ValidationError("timing.inspect exceeds timing.mission")
        if self.blade_duration > self.mission_duration:
            raise ValidationError("timing.blade exceeds timing.mission")
        for key in ("min_separation", "trigger_radius"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"thresholds.{key} must be positive and finite, got {value}")
        if not MIN_SHARPNESS <= self.sharpness < np.inf:
            raise ValidationError(f"thresholds.sharpness must be finite and >= "
                                  f"{MIN_SHARPNESS:g}, got {self.sharpness}")
        for key in ("margin", "blade_standoff", "standoff_tolerance"):
            if not np.isfinite(getattr(self, key)):
                raise ValidationError(f"thresholds.{key} must be finite, got {getattr(self, key)}")
        if self.blade_standoff - self.standoff_tolerance <= 0:
            raise ValidationError("thresholds: blade_standoff - standoff_tolerance must be > 0")
        for d, depot in enumerate(self.depots):
            if not self.workspace.contains(depot):
                raise ValidationError(f"fleet.depots[{d}] lies outside the workspace")
            for q, obstacle in enumerate(self.obstacles):
                if obstacle.contains(depot):
                    raise ValidationError(f"fleet.depots[{d}] lies inside obstacles[{q}]")

    @property
    def n_drones(self) -> int:
        return self.depots.shape[0]

    @property
    def n_samples(self) -> int:
        """Mission sample count N; a mission trace has N+1 states."""
        return int(round(self.mission_duration / self.ts))

    def capable_drones(self, kind: str, index: int) -> list:
        allowed = []
        for d in range(self.n_drones):
            mask = self.capability[d].get(kind)
            if mask is None or index in mask:
                allowed.append(d)
        return allowed

    def class_weight(self, name: str) -> float:
        return float(self.weights.get(name, 1.0))


# ---------------------------------------------------------------------------
# Geometry helpers


def dist_to_blade(point, seg_start, seg_end) -> float:
    """Euclidean distance from a point to the blade segment (projection
    clamped to the segment)."""
    p = np.asarray(point, float)
    a = np.asarray(seg_start, float)
    u = np.asarray(seg_end, float) - a
    denom = float(u @ u)
    if denom == 0.0:
        raise DegenerateSegment("blade segment endpoints coincide")
    s = min(1.0, max(0.0, float((p - a) @ u) / denom))
    return float(np.linalg.norm(p - (a + s * u)))


def band_robustness(dist: float, standoff: float, tolerance: float) -> float:
    """Signed margin of being strictly inside the standoff band."""
    if standoff - tolerance <= 0:
        raise ValidationError("band requires 0 < standoff - tolerance")
    return min(dist - (standoff - tolerance), (standoff + tolerance) - dist)


# ---------------------------------------------------------------------------
# Mission compilation


def _safety_predicates(scenario, d) -> dict:
    """Drone d's safety predicates by class: workspace, obstacle, separation."""
    ws = scenario.workspace
    return {
        "workspace": [stl.Predicate.box_inside(f"in_workspace[{d}]", d, ws.lower, ws.upper)],
        "obstacle": [stl.Predicate.box_outside(f"clear_obstacle[{d},{q}]", d,
                                               box.lower, box.upper)
                     for q, box in enumerate(scenario.obstacles)],
        "separation": [stl.Predicate.min_separation(f"separation[{d},{m}]", d, m,
                                                    scenario.min_separation)
                       for m in range(scenario.n_drones) if m != d],
    }


def _safety_clause(scenario, d, duration):
    """Always-clause over workspace, obstacles, and pairwise separation.

    An empty obstacle (or single-drone separation) conjunct is pruned
    rather than carried as a vacuous truth.
    """
    preds = _safety_predicates(scenario, d)
    conjuncts = [stl.atom(preds["workspace"][0], label=f"workspace[{d}]")]
    weights = [scenario.class_weight("workspace")]
    for name, label in (("obstacle", "obstacles"), ("separation", "separation")):
        if preds[name]:
            conjuncts.append(stl.land(*map(stl.atom, preds[name]), label=f"{label}[{d}]"))
            weights.append(scenario.class_weight(name))
    if len(conjuncts) == 1:
        body = conjuncts[0]
        safety_weights = {}
    else:
        body = stl.land(*conjuncts, label=f"safety_body[{d}]")
        safety_weights = {body.node_id: weights}
    clause = stl.always(stl.Interval(0.0, duration), body, label=f"safety[{d}]")
    return clause, safety_weights


_DWELLS = {"target": "inspect", "blade": "blade"}  # task kind -> its timing key


def _dwell(scenario, kind, q, d):
    """Drone d holding task q (a "target" or "blade" side) for the task's
    dwell: inside the target box, or inside the blade side's corridor box
    and its standoff band."""
    if kind == "target":
        box = scenario.targets[q].box
        hold = stl.atom(stl.Predicate.box_inside(f"in_target[{q},{d}]", d, box.lower, box.upper))
    else:
        side = scenario.blades[q]
        hold = stl.land(
            stl.atom(stl.Predicate.box_inside(f"in_blade_box[{q},{d}]", d,
                                              side.box.lower, side.box.upper)),
            stl.atom(stl.Predicate.segment_band(f"blade_band[{q},{d}]", d, side.seg_start,
                                                side.seg_end, scenario.blade_standoff,
                                                scenario.standoff_tolerance)))
    dwell = getattr(scenario, f"{_DWELLS[kind]}_duration")
    return stl.always(stl.Interval(0.0, dwell), hold)


def _task_clause(scenario, kind, q):
    """Some capable drone holds task q for its dwell, starting in time to
    finish within the mission."""
    window = scenario.mission_duration - getattr(scenario, f"{_DWELLS[kind]}_duration")
    if window < 0:
        raise InfeasibleWindow(f"{kind}s[{q}]: {_DWELLS[kind]} duration exceeds the mission")
    capable = scenario.capable_drones(f"{kind}s", q)
    if not capable:
        raise NoCapableDrone(f"{kind}s[{q}] has no capable drone")
    dwells = [_dwell(scenario, kind, q, d) for d in capable]
    body = dwells[0] if len(dwells) == 1 else stl.lor(*dwells, label=f"{kind}_any[{q}]")
    return stl.eventually(stl.Interval(0.0, window), body, label=f"{kind}[{q}]")


def _home_clauses(scenario, d):
    box = scenario.home_boxes[d]
    t_end = scenario.mission_duration
    home_pred = lambda tag: stl.atom(stl.Predicate.box_inside(  # noqa: E731
        f"in_home[{d}]{tag}", d, box.lower, box.upper))
    arrive = stl.eventually(stl.Interval(1.0, t_end), home_pred(""), label=f"home[{d}]")
    # Once home (after the first second), be home again within the
    # lookahead. The successor is a window, not a single sample: a
    # one-sample successor would cap the robustness of any plan at
    # roughly v * ts, the signed distance reachable between adjacent
    # samples while crossing the box boundary, and a short window caps
    # it at the distance coverable within the window. Leaving at the
    # very end stays allowed; the overall horizon stays the mission end.
    lookahead = min(2.0, t_end - 1.0)
    lookahead = round(lookahead / scenario.ts) * scenario.ts
    stay = stl.always(stl.Interval(1.0, t_end - lookahead),
                      stl.implies(home_pred("@now"),
                                  stl.eventually(stl.Interval(scenario.ts, lookahead),
                                                 home_pred("@next"))),
                      label=f"stay_home[{d}]")
    return arrive, stay


def compile_mission(scenario: Scenario):
    """Compile the scenario into (formula, weights).

    The top-level conjunction carries the task-class weights; each
    per-drone safety conjunction carries the workspace/obstacle/
    separation class weights.
    """
    duration = scenario.mission_duration
    conjuncts = []
    top_weights = []
    weight_entries = {}

    for d in range(scenario.n_drones):
        clause, extra = _safety_clause(scenario, d, duration)
        conjuncts.append(clause)
        top_weights.append(1.0)
        weight_entries.update(extra)
    for kind, tasks in (("target", scenario.targets), ("blade", scenario.blades)):
        for q in range(len(tasks)):
            conjuncts.append(_task_clause(scenario, kind, q))
            top_weights.append(scenario.class_weight(kind))
    for d in range(scenario.n_drones):
        arrive, stay = _home_clauses(scenario, d)
        conjuncts.extend([arrive, stay])
        top_weights.extend([scenario.class_weight("home")] * 2)

    mission = stl.land(*conjuncts, label="mission")
    weight_entries[mission.node_id] = top_weights
    return mission, stl.WeightMap(weight_entries)


def safety_class_robustness(scenario: Scenario, trace: Trace) -> dict:
    """Exact robustness of each safety class held over the whole mission.

    Complements the per-node report, where the mission nests the classes
    inside one always per drone: each class is the least margin of its
    atoms over the window [0, min(mission, trace duration)], NaN if any
    of them is NaN, as the exact semantics give it. A class's atoms are of
    one kind, evaluated as one group.
    """
    window = stl.Interval(0.0, min(scenario.mission_duration, trace.duration))
    last = window.to_steps(trace.ts)[1]
    classes = {}
    for d in range(scenario.n_drones):
        for name, preds in _safety_predicates(scenario, d).items():
            classes.setdefault(name, []).extend(preds)
    # a contiguous copy of the window: where the least margin is a zero, the
    # sign that np.min returns follows the memory layout
    return {name: float(np.min(np.ascontiguousarray(atom_values(preds, trace)[:, :last + 1])))
            for name, preds in classes.items() if preds}


# ---------------------------------------------------------------------------
# Heading annotation


HEADING_SPEED_FLOOR = 0.05  # m/s of horizontal speed above which yaw follows velocity


def assign_headings(trace: Trace, scenario: Scenario, plan=None) -> np.ndarray:
    """Post-hoc yaw per (drone, sample); not an optimized degree of freedom.

    Inside an assigned target box the configured target yaw is held;
    inside an assigned blade corridor the drone faces the closest blade
    point; in transit above HEADING_SPEED_FLOOR the yaw follows the
    horizontal velocity; otherwise the last valid heading is held.
    """
    n_drones, n_samples = trace.pos.shape[0], trace.pos.shape[1]
    yaw = np.zeros((n_drones, n_samples))
    allowed_targets, allowed_blades = _allowed_tasks(scenario, plan)
    samples = np.arange(n_samples)
    for d in range(n_drones):
        p, v = trace.pos[d], trace.vel[d]
        heading = np.zeros(n_samples)
        # samples whose heading is set; the first allowed target holding
        # the drone wins, then the first allowed blade corridor
        valid = np.zeros(n_samples, dtype=bool)
        for q in allowed_targets[d]:
            inside = scenario.targets[q].box.contains(p) & ~valid
            heading[inside] = scenario.targets[q].yaw
            valid |= inside
        for q in allowed_blades[d]:
            side = scenario.blades[q]
            inside = side.box.contains(p) & ~valid
            a = np.asarray(side.seg_start)
            away = stl.segment_offsets(p[inside][None], a[None],
                                       (np.asarray(side.seg_end) - a)[None])[0]
            heading[inside] = np.arctan2(-away[:, 1], -away[:, 0])
            valid |= inside
        moving = ~valid & (np.hypot(v[:, 0], v[:, 1]) > HEADING_SPEED_FLOOR)
        heading[moving] = np.arctan2(v[moving, 1], v[moving, 0])
        valid |= moving
        # hold the last valid heading; 0 before the first one
        last = np.maximum.accumulate(np.where(valid, samples, -1))
        yaw[d] = np.where(last >= 0, heading[last], 0.0)
    return yaw


def _allowed_tasks(scenario, plan):
    """Targets/blades each drone may claim while annotating headings."""
    n = scenario.n_drones
    if plan is None:
        return [range(len(scenario.targets))] * n, [range(len(scenario.blades))] * n
    tasks = [plan.assigned_tasks(d) for d in range(n)]
    return ([[q for kind, q in pairs if kind == "target"] for pairs in tasks],
            [[q for kind, sides in pairs if kind == "blade" for q in sides] for pairs in tasks])


def headings_to_csv(yaw: np.ndarray, ts: float) -> str:
    lines = ["t,drone,yaw"]
    for k in range(yaw.shape[1]):
        for d in range(yaw.shape[0]):
            lines.append(f"{k * ts:.6g},{d},{yaw[d, k]:.9g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario JSON schema (strict: unknown keys are rejected with their path)


_SCHEMA = {
    "": {"workspace", "obstacles", "targets", "blades", "fleet", "timing",
         "thresholds", "weights"},
    "workspace": {"lower", "upper"},
    "obstacles[]": {"lower", "upper", "name"},
    "targets[]": {"lower", "upper", "yaw", "name"},
    "blades[]": {"leading_edge", "rotor_shaft", "box", "blade_id", "name"},
    "blades[].box": {"lower", "upper"},
    "fleet": {"depots", "limits", "home_boxes", "capability"},
    "fleet.limits[]": {"v_max", "a_max", "v_max_relaxed", "a_max_relaxed"},
    "fleet.home_boxes[]": {"lower", "upper"},
    "fleet.capability[]": {"targets", "blades"},
    "timing": {"mission", "inspect", "blade", "sample"},
    "thresholds": {"min_separation", "blade_standoff", "standoff_tolerance",
                   "margin", "sharpness", "trigger_radius"},
}


def _check_keys(mapping, schema_key, path):
    allowed = _SCHEMA[schema_key]
    for key in _mapping(mapping, path):
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} at {path or '<root>'} "
                             f"(allowed: {sorted(allowed)})")


def _mapping(value, path) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object, got {value!r}")
    return value


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number, got {value!r}")
    return float(value)


def _point(value, path) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{path} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(value))


def _entries(value, path) -> list:
    """(JSON path, item) of each item of a list-valued field."""
    if not isinstance(value, list):
        raise ValidationError(f"{path} must be a list, got {value!r}")
    return [(f"{path}[{i}]", item) for i, item in enumerate(value)]


def _indices(raw, key, path):
    """A capability list: None for "all", else the set of its indices."""
    value = raw.get(key, "all")
    if value == "all":
        return None
    return {_index(q, where) for where, q in _entries(value, f"{path}.{key}")}


def _index(value, path) -> int:
    if type(value) is not int:
        raise ValidationError(f"{path} must be an integer, got {value!r}")
    return value


def _at(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValidationError it raises naming ``path``."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _box(raw, schema_key, path) -> Box:
    _check_keys(raw, schema_key, path)
    return _at(path, Box, _point(raw["lower"], f"{path}.lower"),
               _point(raw["upper"], f"{path}.upper"))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario root must be a JSON object")
    _check_keys(data, "", "")
    try:
        workspace = _box(data["workspace"], "workspace", "workspace")
        obstacles = [_box(raw, "obstacles[]", path)
                     for path, raw in _entries(data.get("obstacles", []), "obstacles")]
        targets = [Target(_box(raw, "targets[]", path),
                          yaw=_number(raw.get("yaw", 0.0), f"{path}.yaw"))
                   for path, raw in _entries(data.get("targets", []), "targets")]
        blades = []
        for path, raw in _entries(data.get("blades", []), "blades"):
            _check_keys(raw, "blades[]", path)
            blades.append(_at(path, BladeSide,
                              _point(raw["leading_edge"], f"{path}.leading_edge"),
                              _point(raw["rotor_shaft"], f"{path}.rotor_shaft"),
                              _box(raw["box"], "blades[].box", f"{path}.box"),
                              blade_id=_index(raw.get("blade_id", 0), f"{path}.blade_id")))
        fleet = data["fleet"]
        _check_keys(fleet, "fleet", "fleet")
        limits = []
        for path, raw in _entries(fleet["limits"], "fleet.limits"):
            _check_keys(raw, "fleet.limits[]", path)
            try:
                limits.append(DroneLimits(raw["v_max"], raw["a_max"], raw.get("v_max_relaxed"),
                                          raw.get("a_max_relaxed")))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: {exc}") from exc
        home_boxes = [_box(raw, "fleet.home_boxes[]", path)
                      for path, raw in _entries(fleet["home_boxes"], "fleet.home_boxes")]
        capability = None
        if "capability" in fleet:
            capability = []
            for path, raw in _entries(fleet["capability"], "fleet.capability"):
                _check_keys(raw, "fleet.capability[]", path)
                capability.append({"targets": _indices(raw, "targets", path),
                                   "blades": _indices(raw, "blades", path)})
        timing = data["timing"]
        _check_keys(timing, "timing", "timing")
        thresholds = data["thresholds"]
        _check_keys(thresholds, "thresholds", "thresholds")
        return Scenario(
            workspace=workspace, obstacles=obstacles, targets=targets, blades=blades,
            depots=[_point(p, path) for path, p in _entries(fleet["depots"], "fleet.depots")],
            limits=limits, home_boxes=home_boxes,
            mission_duration=_number(timing["mission"], "timing.mission"),
            inspect_duration=_number(timing["inspect"], "timing.inspect"),
            blade_duration=_number(timing["blade"], "timing.blade"),
            ts=_number(timing["sample"], "timing.sample"),
            **{key: _number(thresholds[key], f"thresholds.{key}")
               for key in ("min_separation", "blade_standoff", "standoff_tolerance")},
            **{key: _number(thresholds.get(key, default), f"thresholds.{key}")
               for key, default in (("margin", 0.2), ("sharpness", 10.0),
                                    ("trigger_radius", 1.0))},
            weights={k: _number(v, f"weights.{k}")
                     for k, v in _mapping(data.get("weights", {}), "weights").items()},
            capability=capability)
    except KeyError as exc:
        raise ParseError(f"missing required key {exc}") from exc


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)
