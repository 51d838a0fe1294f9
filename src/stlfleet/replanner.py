"""Event-triggered replanning against a committed plan.

A disturbance that displaces a drone beyond the trigger radius starts a
replan over the window from the trigger sample to the start of that
drone's next scheduled task. The mission's own ascent recomputes only the
affected drone's accelerations in that window, under its relaxed limits;
the past and the other drones stay frozen, and every trial is steered onto
the committed state at the window end, so the splice is seamless and the
downstream plan is reused bit for bit. An event's verdict is the
mission's on the spliced plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import DroneLimits, Trace, rollout, steer_to_state
from .errors import NoRemainingTasks, ParseError, ValidationError
from .optimizer import OptimizerConfig, optimize
from .mission import Scenario, _entries, _index, _mapping, _number, compile_mission


@dataclass
class ReplanEvent:
    time: float
    drone: int
    deviation: float
    window: tuple              # (start sample, end sample)
    kind: str = "rejoin"       # "rejoin" or "glide_home"
    skipped: tuple = ()        # schedule entries the window passes over
    status: str = None         # the mission's status on the spliced plan
    exact: float = None        # the mission's exact robustness on the spliced plan

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


def _fits(acc, ts, limits: DroneLimits, start_vel) -> bool:
    """Does a steering correction fit the relaxed boxes?"""
    v_max, a_max = limits.bounds()
    if np.any(np.abs(acc) > 0.9 * a_max):
        return False
    velocities = np.asarray(start_vel) + ts * np.cumsum(acc, axis=0)
    return bool(np.all(np.abs(velocities) <= v_max))


def replan(state: ExecutionState, scenario: Scenario, drone: int,
           config: OptimizerConfig = None, deviation: float = None):
    """Recompute the affected drone's window and splice it into the plan.

    Returns (updated committed trace, event). The window ends at the first
    upcoming task that steering can reach within the relaxed limits; the
    mission still asks for the tasks skipped before it. The ascent only has
    to restore satisfaction: no margin, at most one iteration per step.
    """
    committed = state.committed
    k = state.sample
    n = committed.n_samples - 1
    if k >= n - 1:
        raise NoRemainingTasks(f"drone {drone} deviated at the final samples (k={k})")
    ts = committed.ts
    actual_pos = state.executed.pos[drone, k]
    actual_vel = committed.vel[drone, k]
    limits = scenario.limits[drone].relaxed()

    def steering(end):
        """Least-norm correction from where the drone is onto the committed
        state at ``end``."""
        steps = end - k
        return steer_to_state(committed.pos[drone, end] - (actual_pos + steps * ts * actual_vel),
                              committed.vel[drone, end] - actual_vel, steps, ts)

    upcoming = [(entry.kind if entry.kind != "blade_side" else "blade", entry.index,
                 entry.arrive)
                for entry in state.schedules[drone]
                if entry.arrive > k and entry.kind in ("target", "blade_side")]
    skipped = []
    for task_kind, index, arrive in upcoming:
        if arrive - k >= 2:
            correction = steering(arrive)
            if _fits(correction, ts, limits, actual_vel):
                window_end = arrive
                break
        skipped.append((task_kind, index))
    else:
        window_end, correction = n, steering(n)

    # seed: the committed plan, with the affected drone flying the
    # minimum-norm steering correction from where it is
    steered = rollout(actual_pos, actual_vel, correction[None], ts)
    seed = committed.copy()
    seed.pos[drone, k:window_end + 1] = steered.pos[0]
    seed.vel[drone, k:window_end + 1] = steered.vel[0]
    seed.acc[drone, k:window_end] = steered.acc[0]

    config = config or OptimizerConfig()
    config = replace(config, margin=0.0, max_iters=min(config.max_iters, window_end - k))
    result = optimize(compile_mission(scenario)[0], seed, scenario, config,
                      window=(drone, k, window_end))

    event = ReplanEvent(time=k * ts, drone=drone,
                        deviation=float(deviation) if deviation is not None else 0.0,
                        window=(k, window_end), kind="rejoin" if upcoming else "glide_home",
                        skipped=tuple(skipped), status=result.status, exact=result.report.exact)
    return result.trace, event


def simulate_with_disturbance(committed: Trace, schedules, disturbances,
                              scenario: Scenario, config: OptimizerConfig = None
                              ) -> ExecutionState:
    """Step through the plan, apply position offsets, trigger replans.

    ``disturbances`` is a list of (time_s, drone, offset) entries. An
    offset shifts the drone's actual position rigidly until a replanned
    segment (which starts at the shifted position) absorbs it. Events
    inside an active replan window are absorbed, and deviations are
    always measured against the current (possibly re-spliced) plan. A
    replan needs two steps, so a push in the last two samples triggers
    none: the drone flies it. Deterministic for a fixed schedule.

    A replan keeps every earlier sample, the other drones and the drone's
    velocity at the trigger sample, so the executed trace is the final
    plan with the flown positions: only those are written per sample.
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
        if k >= n - 1:
            continue  # too late for a replan: the drone flies the push
        for drone in range(n_drones):
            if k <= window_until[drone] or not detect_event(
                    executed.pos[drone, k], current.pos[drone, k], scenario.trigger_radius):
                continue
            current, event = replan(state, scenario, drone, config,
                                    deviation=float(np.linalg.norm(shift[drone])))
            state.committed = current
            shift[drone] = 0.0
            window_until[drone] = event.window[1]
            state.log(event)
    executed.vel[:] = current.vel
    executed.acc[:] = current.acc
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

