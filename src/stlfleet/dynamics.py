"""Per-axis double-integrator motion primitives and sampled fleet traces.

State propagation is exact piecewise-constant-acceleration integration,
so rollouts are reproducible bit for bit and the dynamics-consistency
invariant can be checked at machine precision.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthMismatch
from .stl import _GRID_RTOL

_CSV_COLUMNS = ["t", "drone", "px", "py", "pz", "vx", "vy", "vz", "ax", "ay", "az"]
_CSV_FMT = "%.12g"  # 12 significant digits keep re-imported robustness within 1e-9
_CSV_STATE = ",".join([_CSV_FMT] * 9) + "\r\n"  # the cells after t and drone
_CSV_LAST_ROW = ",".join([_CSV_FMT, "%d"] + [_CSV_FMT] * 6) + ",,,\r\n"  # no acceleration
_CSV_BLOCK = 256  # samples formatted per write
REST_TO_REST_EXTRA = 64  # steps min_steps_rest_to_rest tries past the time of flight


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
        for nominal, relaxed in (("v_max", "v_max_relaxed"), ("a_max", "a_max_relaxed")):
            low, high = np.asarray(getattr(self, nominal)), np.asarray(getattr(self, relaxed))
            for name, bound in ((nominal, low), (relaxed, high)):
                if not np.all(np.isfinite(bound) & (bound > 0)):  # NaN fails too
                    raise ValueError(f"{name} must be positive and finite, got "
                                     f"{getattr(self, name)}")
            if np.any(high < low):
                raise ValueError(f"{relaxed} below {nominal}: {getattr(self, relaxed)} < "
                                 f"{getattr(self, nominal)}")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.v_max), np.asarray(self.a_max)

    def relaxed(self) -> "DroneLimits":
        """These limits with the relaxed bounds as the nominal ones."""
        return replace(self, v_max=self.v_max_relaxed, a_max=self.a_max_relaxed)


def _bound3(value) -> tuple:
    arr = np.asarray(value, float)
    if arr.ndim == 0:
        arr = np.full(3, float(arr))
    if arr.shape != (3,):
        raise ValueError(f"per-axis bound must be scalar or 3-vector, got shape {arr.shape}")
    return tuple(arr)


def _check_finite(cells, first, rows):
    """Reject a non-finite cell of ``cells``: CSV columns from ``first`` by data rows ``rows``."""
    bad = np.argwhere(~np.isfinite(cells.T))
    if len(bad):
        row, column = bad[0]
        raise LengthMismatch(f"trace CSV data row {rows[row] + 1}, column "
                             f"{_CSV_COLUMNS[first + column]}: {cells[column, row]} is not finite")


@dataclass
class Trace:
    """Sampled fleet trajectory on a uniform grid.

    pos, vel: (drones, N+1, 3); acc: (drones, N, 3). Positions and
    velocities at k+1 must equal the exact step from sample k:
    p + v ts + a ts^2 / 2 and v + a ts.
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
        pos, vel, acc, ts = self.pos[:, :-1], self.vel[:, :-1], self.acc, self.ts
        p, v = pos + vel * ts + 0.5 * acc * ts * ts, vel + acc * ts
        return max(np.abs(p - self.pos[:, 1:]).max(initial=0.0),
                   np.abs(v - self.vel[:, 1:]).max(initial=0.0))

    def is_consistent(self, tol: float = 1e-9) -> bool:
        return self.consistency_error() <= tol

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
        # csv.writer's excel dialect (no field needs quoting), in blocks of
        # samples to bound temporaries. Each time is formatted once, and a
        # drone's other cells only where its row differs bit for bit from its
        # previous row (so -0.0 still prints -0); a repeated row reuses text.
        d, n = self.n_drones, self.n_samples
        handle.write(",".join(_CSV_COLUMNS) + "\r\n")
        state = (self.pos[:, :-1], self.vel[:, :-1], self.acc)  # rows with acceleration
        bits = [part.view(np.int64) for part in state]
        fresh = np.ones((d, n - 1), dtype=bool)
        fresh[:, 1:] = np.any([(b[:, 1:] ^ b[:, :-1]).any(axis=2) for b in bits], axis=0)
        times = self.times().tolist()
        formats = ["%d," % j + _CSV_STATE for j in range(d)]
        texts = [""] * d  # latest text per drone: block[0], before the fresh rows
        for start in range(0, n - 1, _CSV_BLOCK):
            stop = min(n - 1, start + _CSV_BLOCK)
            table = np.concatenate([part[:, start:stop] for part in state], axis=2)
            stamps = [_CSV_FMT % t + "," for t in times[start:stop]]
            parts = [""] * (2 * d * len(stamps))  # time, then the other cells, per row
            for j in range(d):
                rows = fresh[j, start:stop]
                block = [texts[j], *map(formats[j].__mod__, map(tuple, table[j, rows].tolist()))]
                parts[2 * j::2 * d] = stamps
                parts[2 * j + 1::2 * d] = map(block.__getitem__,
                                              itertools.accumulate(rows.tolist()))
                texts[j] = block[-1]
            handle.write("".join(parts))
        final = np.concatenate([self.pos[:, -1], self.vel[:, -1]], axis=1).tolist()
        handle.write("".join(_CSV_LAST_ROW % (times[-1], j, *row) for j, row in enumerate(final)))

    @staticmethod
    def from_csv(path_or_buffer) -> "Trace":
        if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
            with open(path_or_buffer, newline="") as handle:
                return Trace._read_csv(handle)
        return Trace._read_csv(path_or_buffer)

    @staticmethod
    def _read_csv(handle) -> "Trace":
        # rows may come in any order; a missing (sample, drone) row reads as
        # zeros, and a row with an empty ax cell has no acceleration, as every
        # row of the last sample must. Every number must be finite, sample
        # times must lie on a uniform grid from 0, drone ids must run from 0
        # and no (sample, drone) pair may repeat.
        reader = csv.reader(handle)
        header = next(reader)
        if header != _CSV_COLUMNS:
            raise LengthMismatch(f"unexpected trace CSV header: {header}")
        rows = [row for row in reader if row]
        if not rows:
            raise LengthMismatch("trace CSV has no data rows")
        width = len(_CSV_COLUMNS)
        if set(map(len, rows)) != {width}:
            raise LengthMismatch(f"every trace CSV row needs {width} cells")
        # float() on every cell, one column after another
        columns = list(zip(*rows))
        sample_times = list(map(float, columns[0]))
        _check_finite(np.array([sample_times]), 0, range(len(rows)))
        drone_ids = list(map(int, columns[1]))
        times = sorted(set(sample_times))
        n, d = len(times), len(set(drone_ids))
        t_index = {t: k for k, t in enumerate(times)}
        k = np.array([t_index[t] for t in sample_times], dtype=np.intp)
        dr = np.array(drone_ids, dtype=np.intp)
        pos = np.zeros((d, n, 3))
        vel = np.zeros((d, n, 3))
        acc = np.zeros((d, n - 1, 3))
        ts = times[1] - times[0] if n > 1 else 1.0
        steps = np.array(times) / ts
        off = np.abs(steps - np.arange(n)) > _GRID_RTOL * np.maximum(1.0, steps)
        if off.any():
            raise LengthMismatch(f"trace CSV sample time {times[off.argmax()]} is off the "
                                 f"uniform {ts:.12g} s grid from 0")
        if set(drone_ids) != set(range(d)):
            raise LengthMismatch(f"trace CSV drone ids {sorted(set(drone_ids))} "
                                 f"do not run 0..{d - 1}")
        seen = np.zeros((d, n), dtype=bool)
        seen[dr, k] = True
        if np.count_nonzero(seen) != len(rows):
            raise LengthMismatch("trace CSV repeats a (sample, drone) row")
        state = np.fromiter(map(float, itertools.chain(*columns[2:8])), float,
                            6 * len(rows)).reshape(6, -1)
        _check_finite(state, 2, range(len(rows)))
        pos[dr, k] = state[:3].T
        vel[dr, k] = state[3:].T
        moving = [i for i, cell in enumerate(columns[8]) if cell != ""]
        if moving:
            at_end = np.flatnonzero(k[moving] == n - 1)
            if len(at_end):
                raise LengthMismatch(f"trace CSV data row {moving[at_end[0]] + 1}, column ax: "
                                     f"the last sample, t = {times[-1]:g} s, has no acceleration")
            pick = operator.itemgetter(*moving)
            cells = [pick(column) if len(moving) > 1 else (pick(column),)
                     for column in columns[8:]]
            cells = np.fromiter(map(float, itertools.chain(*cells)), float,
                                3 * len(moving)).reshape(3, -1)
            _check_finite(cells, 8, moving)
            acc[dr[moving], k[moving]] = cells.T
        return Trace(round(ts, 12), pos, vel, acc)


def rollout(pos0, vel0, accelerations, ts) -> Trace:
    """Integrate per-drone acceleration sequences from initial states.

    pos0, vel0: (drones, 3); accelerations: (drones, N, 3).
    """
    acc = np.asarray(accelerations, float)
    pos0 = np.atleast_2d(np.asarray(pos0, float))
    vel0 = np.atleast_2d(np.asarray(vel0, float))
    if acc.ndim != 3 or pos0.shape != vel0.shape or pos0.shape[0] != acc.shape[0]:
        raise LengthMismatch(
            f"shape mismatch: pos0 {pos0.shape}, vel0 {vel0.shape}, acc {acc.shape}")
    # Sequential cumulative sums perform one step's additions in its
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


def times_of_flight(start, goal, v_max, a_max) -> np.ndarray:
    """Rest-to-rest minimum travel times between (..., 3) start and goal
    points, under per-axis bound arrays that broadcast against them.

    Axes are decoupled: each axis runs a bang-bang (triangular) or
    bang-coast-bang (trapezoidal) profile and the slowest axis decides.
    """
    delta = np.abs(np.asarray(goal, float) - np.asarray(start, float))
    times = np.where(delta <= v_max * v_max / a_max,
                     2.0 * np.sqrt(delta / a_max),
                     delta / v_max + v_max / a_max)
    return np.max(np.where(delta == 0.0, 0.0, times), axis=-1)


def time_of_flight(start, goal, limits: DroneLimits) -> float:
    """Rest-to-rest minimum travel time between two points; see times_of_flight."""
    return float(times_of_flight(start, goal, *limits.bounds()))


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


def min_steps_rest_to_rest(delta, ts, v_max, a_max):
    """Smallest sample count for which steer_rest_to_rest succeeds, searched
    up to REST_TO_REST_EXTRA steps past the continuous time of flight."""
    base = max(1, int(np.ceil(times_of_flight(np.zeros(3), delta, v_max, a_max) / ts)))
    for n in range(base, base + REST_TO_REST_EXTRA):
        acc = steer_rest_to_rest(delta, n, ts, v_max, a_max)
        if acc is not None:
            return n, acc
    raise LengthMismatch(f"no rest-to-rest profile found for delta {delta} within "
                         f"{base + REST_TO_REST_EXTRA} steps")


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
