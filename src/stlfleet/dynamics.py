"""Per-axis double-integrator motion primitives and sampled fleet traces.

State propagation is exact piecewise-constant-acceleration integration,
so rollouts are reproducible bit for bit and the dynamics-consistency
invariant can be checked at machine precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch

_CSV_COLUMNS = ["t", "drone", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az"]
_CSV_FMT = "%.12g"  # 12 significant digits keep re-imported robustness within 1e-9


@dataclass(frozen=True)
class DroneLimits:
    """Symmetric per-axis velocity/acceleration bounds, nominal and relaxed."""

    v_max: tuple
    a_max: tuple
    v_max_relaxed: tuple = None
    a_max_relaxed: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "v_max", _bound3(self.v_max))
        object.__setattr__(self, "a_max", _bound3(self.a_max))
        object.__setattr__(self, "v_max_relaxed",
                           _bound3(self.v_max_relaxed) if self.v_max_relaxed is not None
                           else self.v_max)
        object.__setattr__(self, "a_max_relaxed",
                           _bound3(self.a_max_relaxed) if self.a_max_relaxed is not None
                           else self.a_max)
        for nominal, relaxed, what in ((self.v_max, self.v_max_relaxed, "velocity"),
                                       (self.a_max, self.a_max_relaxed, "acceleration")):
            if np.any(np.asarray(nominal) <= 0):
                raise ValueError(f"{what} bound must be positive: {nominal}")
            if np.any(np.asarray(relaxed) < np.asarray(nominal)):
                raise ValueError(f"relaxed {what} bound below nominal: {relaxed} < {nominal}")

    def bounds(self, relaxed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        if relaxed:
            return np.asarray(self.v_max_relaxed), np.asarray(self.a_max_relaxed)
        return np.asarray(self.v_max), np.asarray(self.a_max)


def _bound3(value) -> tuple:
    arr = np.asarray(value, float)
    if arr.ndim == 0:
        arr = np.full(3, float(arr))
    if arr.shape != (3,):
        raise ValueError(f"per-axis bound must be scalar or 3-vector, got shape {arr.shape}")
    return tuple(arr)


@dataclass
class Trace:
    """Sampled fleet trajectory on a uniform grid.

    pos, vel: (drones, N+1, 3); acc: (drones, N, 3). Positions and
    velocities at k+1 must equal step(state_k, acc_k, ts).
    """

    ts: float
    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, float)
        self.vel = np.asarray(self.vel, float)
        self.acc = np.asarray(self.acc, float)
        if self.pos.shape != self.vel.shape or self.pos.ndim != 3:
            raise LengthMismatch(f"pos/vel shape mismatch: {self.pos.shape} vs {self.vel.shape}")
        d, n1, _ = self.pos.shape
        if self.acc.shape != (d, n1 - 1, 3):
            raise LengthMismatch(
                f"acc shape {self.acc.shape} does not match {d} drones x {n1 - 1} steps")

    @property
    def n_drones(self) -> int:
        return self.pos.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of samples, N+1."""
        return self.pos.shape[1]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.ts

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.ts

    def consistency_error(self) -> float:
        """Worst absolute mismatch between stored states and re-integration."""
        p, v = step(self.pos[:, :-1], self.vel[:, :-1], self.acc, self.ts)
        return max(np.abs(p - self.pos[:, 1:]).max(initial=0.0),
                   np.abs(v - self.vel[:, 1:]).max(initial=0.0))

    def is_consistent(self, tol: float = 1e-9) -> bool:
        return self.consistency_error() <= tol

    def slice(self, start: int, stop: int) -> "Trace":
        """Sub-trace over samples [start, stop] inclusive."""
        return Trace(self.ts, self.pos[:, start:stop + 1].copy(),
                     self.vel[:, start:stop + 1].copy(),
                     self.acc[:, start:stop].copy())

    def copy(self) -> "Trace":
        return Trace(self.ts, self.pos.copy(), self.vel.copy(), self.acc.copy())

    # CSV interface: one row per (sample, drone); final sample has no
    # acceleration and leaves those cells empty.

    def to_csv(self, path_or_buffer) -> None:
        if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
            with open(path_or_buffer, "w", newline="") as handle:
                self._write_csv(handle)
        else:
            self._write_csv(path_or_buffer)

    def _write_csv(self, handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        times = self.times()
        for k in range(self.n_samples):
            for d in range(self.n_drones):
                row = [_CSV_FMT % times[k], d]
                row += [_CSV_FMT % x for x in self.pos[d, k]]
                row += [_CSV_FMT % x for x in self.vel[d, k]]
                if k < self.n_samples - 1:
                    row += [_CSV_FMT % x for x in self.acc[d, k]]
                else:
                    row += ["", "", ""]
                writer.writerow(row)

    @staticmethod
    def from_csv(path_or_buffer) -> "Trace":
        if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
            with open(path_or_buffer, newline="") as handle:
                return Trace._read_csv(handle)
        return Trace._read_csv(path_or_buffer)

    @staticmethod
    def _read_csv(handle) -> "Trace":
        reader = csv.reader(handle)
        header = next(reader)
        if header != _CSV_COLUMNS:
            raise LengthMismatch(f"unexpected trace CSV header: {header}")
        rows = [row for row in reader if row]
        times = sorted({float(r[0]) for r in rows})
        drones = sorted({int(r[1]) for r in rows})
        n, d = len(times), len(drones)
        t_index = {t: k for k, t in enumerate(times)}
        pos = np.zeros((d, n, 3))
        vel = np.zeros((d, n, 3))
        acc = np.zeros((d, n - 1, 3))
        for row in rows:
            k, dr = t_index[float(row[0])], int(row[1])
            pos[dr, k] = [float(x) for x in row[2:5]]
            vel[dr, k] = [float(x) for x in row[5:8]]
            if row[8] != "":
                acc[dr, k] = [float(x) for x in row[8:11]]
        ts = times[1] - times[0] if n > 1 else 1.0
        return Trace(round(ts, 12), pos, vel, acc)

    def to_csv_string(self) -> str:
        buffer = io.StringIO()
        self._write_csv(buffer)
        return buffer.getvalue()


def step(pos, vel, acc, ts):
    """One exact integration step per axis: p' = p + v*ts + a*ts^2/2, v' = v + a*ts."""
    pos = np.asarray(pos, float)
    vel = np.asarray(vel, float)
    acc = np.asarray(acc, float)
    return pos + vel * ts + 0.5 * acc * ts * ts, vel + acc * ts


def rollout(pos0, vel0, accelerations, ts) -> Trace:
    """Integrate per-drone acceleration sequences from initial states.

    pos0, vel0: (drones, 3); accelerations: (drones, N, 3) or a list of
    per-drone (N, 3) arrays that must all share N.
    """
    if isinstance(accelerations, (list, tuple)):
        lengths = {np.asarray(a).shape[0] for a in accelerations}
        if len(lengths) > 1:
            raise LengthMismatch(f"per-drone acceleration lengths differ: {sorted(lengths)}")
        accelerations = np.stack([np.asarray(a, float) for a in accelerations])
    acc = np.asarray(accelerations, float)
    pos0 = np.atleast_2d(np.asarray(pos0, float))
    vel0 = np.atleast_2d(np.asarray(vel0, float))
    if acc.ndim != 3 or pos0.shape != vel0.shape or pos0.shape[0] != acc.shape[0]:
        raise LengthMismatch(
            f"shape mismatch: pos0 {pos0.shape}, vel0 {vel0.shape}, acc {acc.shape}")
    # Sequential cumulative sums perform step()'s additions in step()'s
    # order, so the result is bit for bit the step-by-step recursion:
    # v_{k+1} = v_k + a_k ts and p_{k+1} = (p_k + v_k ts) + a_k ts^2 / 2.
    d, n, _ = acc.shape
    vel = np.empty((d, n + 1, 3))
    vel[:, 0] = vel0
    vel[:, 1:] = acc * ts
    np.cumsum(vel, axis=1, out=vel)
    terms = np.empty((d, 2 * n + 1, 3))
    terms[:, 0] = pos0
    terms[:, 1::2] = vel[:, :-1] * ts
    terms[:, 2::2] = 0.5 * acc * ts * ts
    pos = np.ascontiguousarray(np.cumsum(terms, axis=1)[:, ::2])
    return Trace(ts, pos, vel, acc)


def project_controls(accelerations, limits, relaxed: bool = False) -> np.ndarray:
    """Clamp accelerations into their per-axis boxes; idempotent.

    ``limits`` is a DroneLimits (applied to every drone) or a sequence of
    DroneLimits, one per leading row of ``accelerations``.
    """
    acc = np.array(accelerations, float)
    if isinstance(limits, DroneLimits):
        limits = [limits] * acc.shape[0]
    for d, lim in enumerate(limits):
        _, a_max = lim.bounds(relaxed)
        np.clip(acc[d], -a_max, a_max, out=acc[d])
    return acc


def time_of_flight(start, goal, limits: DroneLimits, relaxed: bool = False) -> float:
    """Rest-to-rest minimum travel time between two points.

    Axes are decoupled: each axis runs a bang-bang (triangular) or
    bang-coast-bang (trapezoidal) profile and the slowest axis decides.
    """
    delta = np.abs(np.asarray(goal, float) - np.asarray(start, float))
    v_max, a_max = limits.bounds(relaxed)
    times = np.where(delta <= v_max * v_max / a_max,
                     2.0 * np.sqrt(delta / a_max),
                     delta / v_max + v_max / a_max)
    return float(np.max(np.where(delta == 0.0, 0.0, times)))


def steer_rest_to_rest(delta, n_steps, ts, v_max, a_max):
    """Exact discrete rest-to-rest acceleration profile over n_steps samples.

    Per axis: m accelerate steps at level alpha, coast, m mirrored brake
    steps. Displacement is alpha * ts^2 * m * (n_steps - m) exactly, so
    the sampled rollout lands on the goal with zero terminal velocity at
    machine precision. Returns an (n_steps, 3) array or None when no
    feasible (m, alpha) exists within the bounds.
    """
    delta = np.asarray(delta, float)
    v_max = np.asarray(v_max, float)
    a_max = np.asarray(a_max, float)
    acc = np.zeros((n_steps, 3))
    if n_steps == 0:
        return acc if np.all(delta == 0.0) else None
    for axis in range(3):
        d = delta[axis]
        if d == 0.0:
            continue
        magnitude = abs(d)
        found = False
        for m in range(n_steps // 2, 0, -1):
            alpha = magnitude / (ts * ts * m * (n_steps - m))
            if alpha <= a_max[axis] and alpha * m * ts <= v_max[axis]:
                level = np.sign(d) * alpha
                acc[:m, axis] = level
                acc[n_steps - m:, axis] = -level
                found = True
                break
        if not found:
            return None
    return acc


def min_steps_rest_to_rest(delta, ts, v_max, a_max, max_extra: int = 64):
    """Smallest sample count for which steer_rest_to_rest succeeds."""
    base = max(1, int(np.ceil(time_of_flight(np.zeros(3), delta,
                                             DroneLimits(tuple(v_max), tuple(a_max))) / ts)))
    for n in range(base, base + max_extra):
        acc = steer_rest_to_rest(delta, n, ts, v_max, a_max)
        if acc is not None:
            return n, acc
    raise LengthMismatch(f"no rest-to-rest profile found for delta {delta} within "
                         f"{base + max_extra} steps")


def steer_to_state(pos_err, vel_err, n_steps, ts):
    """Minimum-norm acceleration sequence moving a state error to zero.

    Solves the two linear moment conditions of the discrete double
    integrator per axis: sum(a_k) * ts = vel_err and
    sum(a_k * (n - k - 1/2)) * ts^2 = pos_err. Used to rejoin a committed
    trajectory exactly; returns an (n_steps, 3) array.
    """
    pos_err = np.asarray(pos_err, float)
    vel_err = np.asarray(vel_err, float)
    if n_steps < 2:
        raise LengthMismatch("state steering needs at least two steps")
    k = np.arange(n_steps)
    rows = np.stack([np.full(n_steps, ts), ts * ts * (n_steps - k - 0.5)])
    gram = rows @ rows.T
    acc = np.empty((n_steps, 3))
    for axis in range(3):
        rhs = np.array([vel_err[axis], pos_err[axis]])
        acc[:, axis] = rows.T @ np.linalg.solve(gram, rhs)
    return acc
