"""Event-triggered replanning against a committed plan.

A disturbance that displaces a drone beyond the trigger radius starts a
replan over the window from the trigger sample to the start of that
drone's next scheduled task. Only the affected drone is recomputed, with
relaxed kinematic limits; the other drones' committed trajectories stay
frozen (and keep constraining mutual separation through the shared
trace). The recovered segment is steered onto the committed state at the
window end exactly, so splicing preserves position and velocity
continuity at machine precision and the downstream plan is reused
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import stl
from .dynamics import DroneLimits, Trace, rollout, steer_to_state
from .errors import NoRemainingTasks, ParseError, ValidationError
from .optimizer import OptimizerConfig, optimize
from .mission import (Scenario, _dwell, _entries, _index, _mapping, _number,
                      _safety_predicates)

_REJOIN_TOL = 0.05  # meters / m/s box demanded of the optimizer around the rejoin state


@dataclass
class ReplanEvent:
    time: float
    drone: int
    deviation: float
    window: tuple              # (start sample, end sample)
    kind: str = "rejoin"       # "rejoin" or "glide_home"
    skipped: tuple = ()        # schedule entries re-inserted into the window
    status: str = None         # the window optimization's status
    exact: float = None        # exact robustness of the window formula on its result

    def to_dict(self) -> dict:
        return {"time": self.time, "drone": self.drone, "deviation": self.deviation,
                "window": list(self.window), "kind": self.kind,
                "skipped": [{"kind": k, "index": i} for k, i in self.skipped],
                "status": self.status, "exact": self.exact}


@dataclass
class ExecutionState:
    sample: int
    committed: Trace           # current plan, re-spliced by replans
    executed: Trace            # actually flown positions (with disturbances)
    schedules: list            # per-drone task schedule of the committed plan
    events: list = field(default_factory=list)

    def log(self, event: ReplanEvent) -> None:
        # drones pushed at the same sample are replanned in ascending order
        if self.events and (event.time, event.drone) <= (self.events[-1].time,
                                                          self.events[-1].drone):
            raise ValueError("event log (time, drone) pairs must be strictly increasing")
        self.events.append(event)

    def events_json(self) -> str:
        return json.dumps([e.to_dict() for e in self.events], indent=2)


def detect_event(actual, planned, trigger_radius: float) -> bool:
    """True iff the Euclidean deviation strictly exceeds the trigger radius."""
    if trigger_radius <= 0:
        raise ValueError("trigger radius must be positive")
    return float(np.linalg.norm(np.asarray(actual) - np.asarray(planned))) > trigger_radius


def relaxed_limits(limits: DroneLimits) -> DroneLimits:
    """Limits object whose nominal bounds are the relaxed ones."""
    return DroneLimits(v_max=limits.v_max_relaxed, a_max=limits.a_max_relaxed,
                       v_max_relaxed=limits.v_max_relaxed,
                       a_max_relaxed=limits.a_max_relaxed)


def _window_feasible(pos_err, vel_err, steps, ts, limits: DroneLimits,
                     start_vel) -> bool:
    """Can a minimum-norm steering correction fit the relaxed boxes?"""
    if steps < 2:
        return False
    acc = steer_to_state(pos_err, vel_err, steps, ts)
    v_max, a_max = limits.bounds()
    if np.any(np.abs(acc) > 0.9 * a_max):
        return False
    velocities = np.asarray(start_vel) + ts * np.cumsum(acc, axis=0)
    return bool(np.all(np.abs(velocities) <= v_max))


def _window_formula(scenario, drone, steps, skipped, rejoin_pos, rejoin_vel):
    """The mission's safety atoms for ``drone`` and a clause per skipped task
    over the replan window, and the rejoin box at its end."""
    duration = steps * scenario.ts
    safety = [stl.atom(p) for preds in _safety_predicates(scenario, drone).values()
              for p in preds]
    clauses = [stl.always(stl.Interval(0.0, duration),
                          safety[0] if len(safety) == 1 else stl.land(*safety),
                          label="replan_safety")]
    for kind, index in skipped:
        dwell = _dwell(scenario, kind, index, drone)
        if duration - dwell.interval.hi >= 0:  # else the task cannot fit in the window
            clauses.append(stl.eventually(stl.Interval(0.0, duration - dwell.interval.hi),
                                          dwell, label=f"replan_{kind}[{index}]"))
    rejoin = stl.land(
        stl.atom(stl.Predicate.box_inside(
            "rw_rejoin_pos", drone,
            np.asarray(rejoin_pos) - _REJOIN_TOL, np.asarray(rejoin_pos) + _REJOIN_TOL)),
        stl.atom(stl.Predicate.velocity_box(
            "rw_rejoin_vel", drone,
            np.asarray(rejoin_vel) - _REJOIN_TOL, np.asarray(rejoin_vel) + _REJOIN_TOL)))
    clauses.append(stl.always(stl.Interval(duration, duration), rejoin, label="replan_rejoin"))
    return stl.land(*clauses, label="replan_window")


def replan(state: ExecutionState, scenario: Scenario, drone: int,
           config: OptimizerConfig = None, deviation: float = None):
    """Recompute the affected drone's segment and splice it into the plan.

    Returns (window trace segment, updated committed trace, event).
    Skipped tasks (windows too short to rejoin before them at relaxed
    limits) are re-inserted into the replan window's specification.
    """
    committed = state.committed
    k = state.sample
    n = committed.n_samples - 1
    if k >= n - 1:
        raise NoRemainingTasks(f"drone {drone} deviated at the final samples (k={k})")
    ts = committed.ts
    actual_pos = state.executed.pos[drone, k]
    actual_vel = committed.vel[drone, k]
    limits = relaxed_limits(scenario.limits[drone])

    upcoming = [(entry.kind if entry.kind != "blade_side" else "blade", entry.index,
                 entry.arrive)
                for entry in state.schedules[drone]
                if entry.arrive > k and entry.kind in ("target", "blade_side")]
    skipped = []
    kind = "rejoin"
    window_end = None
    for task_kind, index, arrive in upcoming:
        steps = arrive - k
        pos_err = committed.pos[drone, arrive] - (actual_pos + steps * ts * actual_vel)
        vel_err = committed.vel[drone, arrive] - actual_vel
        if _window_feasible(pos_err, vel_err, steps, ts, limits, actual_vel):
            window_end = arrive
            break
        skipped.append((task_kind, index))
    if window_end is None:
        kind = "glide_home" if not upcoming else "rejoin"
        window_end = n

    steps = window_end - k
    rejoin_pos = committed.pos[drone, window_end]
    rejoin_vel = committed.vel[drone, window_end]

    # seed: everyone keeps the committed window accelerations except the
    # affected drone, which gets the minimum-norm steering correction
    seed_acc = committed.acc[:, k:window_end].copy()
    coast_err = rejoin_pos - (actual_pos + steps * ts * actual_vel)
    seed_acc[drone] = steer_to_state(coast_err, rejoin_vel - actual_vel, steps, ts)
    pos0 = committed.pos[:, k].copy()
    vel0 = committed.vel[:, k].copy()
    pos0[drone] = actual_pos
    vel0[drone] = actual_vel
    seed = rollout(pos0, vel0, seed_acc, ts)

    formula = _window_formula(scenario, drone, steps, skipped, rejoin_pos, rejoin_vel)
    result = optimize(formula, seed, scenario, config, free_drones=[drone],
                      limits_override={drone: limits})

    # exact terminal correction so the splice is seamless at the window end
    acc = result.trace.acc.copy()
    end_pos = result.trace.pos[drone, -1]
    end_vel = result.trace.vel[drone, -1]
    acc[drone] += steer_to_state(rejoin_pos - end_pos, rejoin_vel - end_vel, steps, ts)
    segment = rollout(pos0, vel0, acc, ts)

    updated = committed.copy()
    updated.pos[drone, k:window_end + 1] = segment.pos[drone]
    updated.vel[drone, k:window_end + 1] = segment.vel[drone]
    updated.acc[drone, k:window_end] = segment.acc[drone]

    event = ReplanEvent(time=k * ts, drone=drone,
                        deviation=float(deviation) if deviation is not None else 0.0,
                        window=(k, window_end), kind=kind, skipped=tuple(skipped),
                        status=result.status, exact=result.report.exact)
    return segment, updated, event


def simulate_with_disturbance(committed: Trace, schedules, disturbances,
                              scenario: Scenario, config: OptimizerConfig = None
                              ) -> ExecutionState:
    """Step through the plan, apply position offsets, trigger replans.

    ``disturbances`` is a list of (time_s, drone, offset) entries. An
    offset shifts the drone's actual position rigidly until a replanned
    segment (which starts at the shifted position) absorbs it. Events
    inside an active replan window are absorbed, and deviations are
    always measured against the current (possibly re-spliced) plan.
    Deterministic for a fixed schedule.
    """
    current = committed.copy()
    executed = committed.copy()
    n = committed.n_samples - 1
    n_drones = committed.n_drones
    by_sample = {}
    for time_s, drone, offset in disturbances:
        sample = int(round(float(time_s) / committed.ts))
        by_sample.setdefault(sample, []).append((int(drone), np.asarray(offset, float)))

    state = ExecutionState(sample=0, committed=current, executed=executed,
                           schedules=schedules)
    shift = np.zeros((n_drones, 3))
    window_until = np.full(n_drones, -1)
    for k in range(n + 1):
        state.sample = k
        for drone, offset in by_sample.get(k, ()):
            shift[drone] += offset
        executed.pos[:, k] = current.pos[:, k] + shift
        executed.vel[:, k] = current.vel[:, k]
        for drone in range(n_drones):
            deviation = float(np.linalg.norm(shift[drone]))
            if k <= window_until[drone]:
                continue
            if not detect_event(executed.pos[drone, k], current.pos[drone, k],
                                scenario.trigger_radius):
                continue
            _, updated, event = replan(state, scenario, drone, config,
                                       deviation=deviation)
            current = updated
            state.committed = current
            shift[drone] = 0.0
            executed.pos[drone, k] = current.pos[drone, k]
            executed.vel[drone, k] = current.vel[drone, k]
            window_until[drone] = event.window[1]
            state.log(event)
        if k < n:
            executed.acc[:, k] = current.acc[:, k]
    state.executed = executed
    state.committed = current
    return state


def load_disturbances(text: str, scenario: Scenario = None):
    """Disturbance schedule JSON: [{"time": s, "drone": id, "offset": [m,m,m]}].
    A bad entry raises an error naming its JSON path; given the scenario, a
    drone must be in its fleet and a time in its mission."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid disturbance JSON: {exc}") from exc
    last, end = (scenario.n_drones - 1, scenario.mission_duration) if scenario else (np.inf,) * 2
    schedule = []
    for path, entry in _entries(raw, "disturbances"):
        missing = {"time", "drone", "offset"} - set(_mapping(entry, path))
        if missing:
            raise ParseError(f"{path}: missing required key {min(missing)!r}")
        drone = _index(entry["drone"], f"{path}.drone")
        _within(drone, f"{path}.drone", 0, last)
        offset = tuple(_within(x, at) for at, x in _entries(entry["offset"], f"{path}.offset"))
        if len(offset) != 3:
            raise ValidationError(f"{path}.offset must hold 3 numbers, got {len(offset)}")
        schedule.append((_within(entry["time"], f"{path}.time", 0, end), drone, offset))
    return schedule


def _within(value, path, low=-np.inf, high=np.inf) -> float:
    number = _number(value, path)
    if not low <= number <= high or np.isinf(number):
        raise ValidationError(f"{path} must be finite and in [{low}, {high}], got {value}")
    return number

