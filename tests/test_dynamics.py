import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet.dynamics import (_CSV_COLUMNS, _CSV_FMT, DroneLimits, Trace,
                               min_steps_rest_to_rest, rollout, steer_rest_to_rest,
                               steer_to_state, time_of_flight, times_of_flight)
from stlfleet.errors import LengthMismatch

from conftest import csv_text


def bang_bang_sim_time(delta, v_max, a_max, dt=2e-5):
    """Numeric oracle: closed-loop simulate a 1-D bang-bang until at rest on target."""
    if delta == 0:
        return 0.0
    p, v, t = 0.0, 0.0, 0.0
    while p < delta - 1e-3 or v > 1e-3:
        # brake once the stopping distance reaches the remaining distance
        if v * v / (2 * a_max) >= delta - p:
            a = -a_max
        elif v < v_max:
            a = a_max
        else:
            a = 0.0
        p += v * dt + 0.5 * a * dt * dt
        v = max(0.0, v + a * dt)
        t += dt
        if t > 100:
            raise AssertionError("oracle did not converge")
    return t


def step(pos, vel, acc, ts):
    """Reference: one exact integration step per axis,
    p' = p + v*ts + a*ts^2/2, v' = v + a*ts."""
    pos = np.asarray(pos, float)
    vel = np.asarray(vel, float)
    acc = np.asarray(acc, float)
    return pos + vel * ts + 0.5 * acc * ts * ts, vel + acc * ts


def test_step_examples():
    p, v = step(0.0, 0.0, 1.0, 0.05)
    assert p == pytest.approx(0.00125)
    assert v == pytest.approx(0.05)
    p, v = step(2.0, 3.0, 0.0, 0.05)
    assert p == pytest.approx(2.15)
    assert v == 3.0


def test_bang_bang_twenty_steps():
    acc = np.zeros((1, 20, 3))
    acc[0, :10, 0] = 1.0
    acc[0, 10:, 0] = -1.0
    trace = rollout(np.zeros((1, 3)), np.zeros((1, 3)), acc, 0.05)
    assert trace.vel[0, -1, 0] == pytest.approx(0.0, abs=1e-12)
    assert trace.pos[0, -1, 0] == pytest.approx(0.25)
    assert trace.is_consistent()


def test_rollout_zero_acc_constant_position():
    trace = rollout(np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 3)),
                    np.zeros((1, 30, 3)), 0.05)
    assert np.all(trace.pos == trace.pos[:, :1])


def test_rollout_length_mismatch():
    with pytest.raises(LengthMismatch):
        rollout(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 5, 3)), 0.05)


def test_rollout_extract_identity(rng):
    acc = rng.normal(size=(2, 25, 3))
    trace = rollout(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), acc, 0.05)
    again = rollout(trace.pos[:, 0], trace.vel[:, 0], trace.acc, trace.ts)
    assert np.array_equal(again.pos, trace.pos)
    assert np.array_equal(again.vel, trace.vel)


def test_limits_validation():
    with pytest.raises(ValueError):
        DroneLimits(v_max=0.0, a_max=1.0)
    with pytest.raises(ValueError):
        DroneLimits(v_max=1.0, a_max=1.0, v_max_relaxed=0.5)


def test_time_of_flight_examples():
    limits = DroneLimits(v_max=1.0, a_max=1.0)
    assert time_of_flight((0, 0, 0), (1, 0, 0), limits) == pytest.approx(2.0)
    assert time_of_flight((0, 0, 0), (4, 0, 0), limits) == pytest.approx(5.0)
    assert time_of_flight((1, 2, 3), (1, 2, 3), limits) == 0.0


def test_time_of_flight_against_simulation_oracle():
    limits = DroneLimits(v_max=1.0, a_max=1.0)
    for delta in (0.3, 1.0, 2.7, 6.0):
        expected = bang_bang_sim_time(delta, 1.0, 1.0)
        got = time_of_flight((0, 0, 0), (delta, 0, 0), limits)
        assert got == pytest.approx(expected, abs=0.02)
    slow = DroneLimits(v_max=0.7, a_max=0.7)
    assert time_of_flight((0, 0, 0), (0, 2.0, 0), slow) == pytest.approx(
        bang_bang_sim_time(2.0, 0.7, 0.7), abs=0.02)


def test_time_of_flight_symmetry_and_triangle(rng):
    limits = DroneLimits(v_max=(1.0, 0.7, 1.0), a_max=(1.0, 0.7, 1.0))
    for _ in range(1000):
        a, b, c = rng.uniform(-8, 8, (3, 3))
        assert time_of_flight(a, b, limits) == time_of_flight(b, a, limits)
        assert (time_of_flight(a, c, limits)
                <= time_of_flight(a, b, limits) + time_of_flight(b, c, limits) + 1e-12)


def _bits(values):
    return np.asarray(values, float).view(np.int64)


def _time_of_flight_reference(start, goal, limits):
    """The scalar formula before times_of_flight, on one pair of points."""
    delta = np.abs(np.asarray(goal, float) - np.asarray(start, float))
    v_max, a_max = limits.bounds()
    times = np.where(delta <= v_max * v_max / a_max,
                     2.0 * np.sqrt(delta / a_max),
                     delta / v_max + v_max / a_max)
    return float(np.max(np.where(delta == 0.0, 0.0, times)))


# kind per row: 0 zero delta, 1 one nonzero axis, 2 every axis exactly at
# the triangular/trapezoidal switch v_max**2 / a_max, 3 a generic delta
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 24), relaxed=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(rows=1, relaxed=False, seed=0)
@example(rows=8, relaxed=True, seed=1)
def test_times_of_flight_bitwise_equals_scalar(rows, relaxed, seed):
    rng = np.random.default_rng(seed)
    limits = []
    for _ in range(rows):
        v, a = rng.uniform(0.3, 2.0, 3), rng.uniform(0.3, 2.0, 3)
        limits.append(DroneLimits(v, a, v * rng.uniform(1.0, 3.0), a * rng.uniform(1.0, 5.0)))
    if relaxed:
        limits = [lim.relaxed() for lim in limits]
    v_max, a_max = (np.array([lim.bounds()[k] for lim in limits]) for k in (0, 1))
    kind = rng.integers(4, size=rows)
    start = np.where((kind == 2)[:, None], 0.0, rng.uniform(-10.0, 10.0, (rows, 3)))
    delta = rng.uniform(-10.0, 10.0, (rows, 3))
    delta[kind == 0] = 0.0
    delta[kind == 1] *= np.eye(3)[rng.integers(3, size=(kind == 1).sum())]
    delta[kind == 2] = rng.choice([-1.0, 1.0], ((kind == 2).sum(), 3)) * (
        v_max * v_max / a_max)[kind == 2]
    goal = start + delta
    got = _bits(times_of_flight(start, goal, v_max, a_max))
    for scalar in (time_of_flight, _time_of_flight_reference):
        want = [scalar(s, g, lim) for s, g, lim in zip(start, goal, limits)]
        assert np.array_equal(got, _bits(want))
    # build_graph's layout: one (1, 3) bound row per drone against every edge
    grid = times_of_flight(start, goal, v_max[:3, None], a_max[:3, None])
    want = [[_time_of_flight_reference(s, g, lim) for s, g in zip(start, goal)]
            for lim in limits[:3]]
    assert np.array_equal(_bits(grid), _bits(want))


def test_steer_rest_to_rest_exact_landing(rng):
    ts = 0.05
    for _ in range(50):
        delta = rng.uniform(-3, 3, 3)
        n, acc = min_steps_rest_to_rest(delta, ts, np.ones(3), np.ones(3))
        trace = rollout(np.zeros((1, 3)), np.zeros((1, 3)), acc[None, :], ts)
        assert np.allclose(trace.pos[0, -1], delta, atol=1e-9)
        assert np.allclose(trace.vel[0, -1], 0.0, atol=1e-9)
        assert np.all(np.abs(acc) <= 1.0 + 1e-12)
        assert np.all(np.abs(trace.vel) <= 1.0 + 1e-12)


def test_steer_rest_to_rest_infeasible_window():
    assert steer_rest_to_rest(np.array([5.0, 0, 0]), 4, 0.05, np.ones(3), np.ones(3)) is None


def test_steer_to_state_hits_target(rng):
    ts = 0.05
    for _ in range(20):
        pos_err = rng.uniform(-1, 1, 3)
        vel_err = rng.uniform(-0.5, 0.5, 3)
        acc = steer_to_state(pos_err, vel_err, 30, ts)
        trace = rollout(np.zeros((1, 3)), np.zeros((1, 3)), acc[None, :], ts)
        assert np.allclose(trace.pos[0, -1], pos_err, atol=1e-9)
        assert np.allclose(trace.vel[0, -1], vel_err, atol=1e-9)


def test_trace_consistency_check(rng):
    acc = rng.normal(size=(1, 10, 3))
    trace = rollout(np.zeros((1, 3)), np.zeros((1, 3)), acc, 0.05)
    assert trace.is_consistent(1e-9)
    broken = trace.copy()
    broken.pos[0, 5, 0] += 1e-6
    assert not broken.is_consistent(1e-9)


def test_csv_round_trip(rng):
    acc = rng.normal(size=(2, 15, 3))
    trace = rollout(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), acc, 0.05)
    buffer = io.StringIO(csv_text(trace))
    back = Trace.from_csv(buffer)
    assert back.ts == pytest.approx(trace.ts)
    assert np.allclose(back.pos, trace.pos, atol=1e-9)
    assert np.allclose(back.vel, trace.vel, atol=1e-9)
    assert np.allclose(back.acc, trace.acc, atol=1e-9)


def _csv_writer_reference(trace):
    """Trace CSV through csv.writer, one formatted cell at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_COLUMNS)
    times = trace.times()
    for k in range(trace.n_samples):
        for d in range(trace.n_drones):
            row = [_CSV_FMT % times[k], d]
            row += [_CSV_FMT % x for x in trace.pos[d, k]]
            row += [_CSV_FMT % x for x in trace.vel[d, k]]
            if k < trace.n_samples - 1:
                row += [_CSV_FMT % x for x in trace.acc[d, k]]
            else:
                row += ["", "", ""]
            writer.writerow(row)
    return buffer.getvalue()


# one sample writes only the final row, which has no acceleration cells
@pytest.mark.parametrize("drones,samples", [(1, 1), (3, 1), (0, 4), (1, 2), (2, 65), (3, 801)])
def test_csv_writer_matches_csv_module(rng, drones, samples):
    acc = rng.normal(scale=3.0, size=(drones, samples - 1, 3))
    trace = rollout(rng.normal(scale=40.0, size=(drones, 3)), rng.normal(size=(drones, 3)),
                    acc, 0.05)
    if drones and samples > 1:
        trace.pos[0, 1, 0] = np.nan
        trace.vel[0, 0, 1] = -np.inf
        trace.acc[0, 0, 2] = -0.0
        trace.acc[-1, -1, 0] = 1e-300
    assert csv_text(trace) == _csv_writer_reference(trace)


def _held(drones, samples, seed=0):
    """Every drone repeats one random state row, at rest."""
    pos = np.repeat(np.random.default_rng(seed).normal(scale=9.0, size=(drones, 1, 3)),
                    samples, axis=1)
    return Trace(0.5, pos, np.zeros_like(pos), np.zeros((drones, samples - 1, 3)))


def _long_runs():
    trace = _held(2, 400)
    # leaves and comes back to the first row; that run crosses the writer's
    # 256-sample block, so its rows reuse text across blocks
    trace.pos[:, 150:230] += 1.0
    trace.acc[1, 40:42] = 0.25
    return trace


def _signed_zeros():
    trace = _held(1, 7)
    trace.acc[0, 2, 1] = -0.0
    trace.vel[0, 4, 0] = -0.0
    trace.pos[0, 5:, 2] = 0.0
    trace.pos[0, 6, 2] = -0.0  # the final row differs only in a zero's sign
    return trace


def _non_finite():
    trace = _held(2, 9)
    trace.pos[0, 2:7] = np.nan
    trace.pos[0, 6].view(np.int64)[0] ^= 1  # a NaN with another payload
    trace.vel[1, 1:5, 2] = np.inf
    trace.acc[1, 3:, 0] = -np.inf
    return trace


def _one_moving():
    rng = np.random.default_rng(3)
    acc = np.zeros((2, 60, 3))
    acc[1] = rng.normal(size=(60, 3))
    return rollout(rng.normal(size=(2, 3)), np.zeros((2, 3)), acc, 0.05)


@pytest.mark.parametrize("build", [
    _long_runs, _signed_zeros, _non_finite, _one_moving,
    lambda: _held(3, 1), lambda: _held(0, 5), lambda: _held(1, 2)],
    ids=["long runs", "signed zeros", "nan and inf", "one moving", "one sample",
         "no drones", "two samples"])
def test_csv_writer_matches_csv_module_on_hovering_traces(build):
    trace = build()
    assert csv_text(trace) == _csv_writer_reference(trace)


@settings(max_examples=60, deadline=None)
@given(drones=st.integers(0, 3), samples=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_csv_writer_matches_csv_module_on_repeating_rows(drones, samples, seed):
    # every state row is drawn from a pool of four, so runs, returns to an
    # earlier row and rows differing only in a zero's sign all occur
    rng = np.random.default_rng(seed)
    pool = np.array([np.zeros(9), np.full(9, -0.0), rng.normal(size=9),
                     [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1.0, -1.0, 2.5]])
    rows = pool[rng.integers(len(pool), size=(drones, samples))]
    trace = Trace(0.05, rows[..., :3], rows[..., 3:6], rows[:, :-1, 6:])
    assert csv_text(trace) == _csv_writer_reference(trace)


def _csv_reader_reference(handle):
    """The original reader: float() per cell, one dict lookup per row."""
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


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("drones,samples", [(1, 1), (3, 1), (1, 2), (2, 65), (3, 801)])
@pytest.mark.parametrize("layout", ["written", "shuffled", "rows missing"])
def test_csv_reader_matches_row_loop(rng, drones, samples, layout):
    acc = rng.normal(scale=3.0, size=(drones, samples - 1, 3))
    trace = rollout(rng.normal(scale=40.0, size=(drones, 3)), rng.normal(size=(drones, 3)),
                    acc, 0.05)
    if samples > 1:
        trace.acc[0, 0, 2] = -0.0
        trace.acc[-1, -1, 0] = 1e-300
    header, *rows = csv_text(trace).splitlines(keepends=True)
    if layout == "shuffled":
        rows = [rows[i] for i in rng.permutation(len(rows))]
    elif layout == "rows missing" and samples > 2:
        # the first and last samples stay whole, so every time and drone id
        # still appears; a missing row reads as zeros
        keep = np.ones(len(rows), bool)
        inner = np.arange(drones, len(rows) - drones)
        keep[rng.choice(inner, size=min(3, len(inner)), replace=False)] = False
        rows = [row for row, kept in zip(rows, keep) if kept]
    text = header + "".join(rows)
    got = Trace.from_csv(io.StringIO(text))
    want = _csv_reader_reference(io.StringIO(text))
    assert got.ts == want.ts
    for name in ("pos", "vel", "acc"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("text,error", [
    ("t,drone,px\r\n0,0,1\r\n", LengthMismatch),                        # bad header
    (",".join(_CSV_COLUMNS) + "\r\n0,0,1,2,x,4,5,6,,,\r\n", ValueError),   # bad cell
    (",".join(_CSV_COLUMNS) + "\r\n0,0.5,1,2,3,4,5,6,,,\r\n", ValueError),  # bad drone id
])
def test_csv_reader_rejects_like_row_loop(text, error):
    with pytest.raises(error):
        _csv_reader_reference(io.StringIO(text))
    with pytest.raises(error):
        Trace.from_csv(io.StringIO(text))


def test_csv_reader_rejects_a_header_without_rows():
    # the row loop fails inside numpy; the reader names what is missing
    text = ",".join(_CSV_COLUMNS) + "\r\n"
    with pytest.raises(ValueError):
        _csv_reader_reference(io.StringIO(text))
    with pytest.raises(LengthMismatch, match="no data rows"):
        Trace.from_csv(io.StringIO(text))


def _mission_trace_rows():
    """A written 261-sample, two-drone trace (13 s at 0.05 s) as header and rows."""
    trace = rollout(np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 260, 3)), 0.05)
    return csv_text(trace).splitlines(keepends=True)


def _set_cells(rows, column, value, where):
    """Rows with cell ``column`` set to ``value`` in the rows ``where`` selects."""
    out = []
    for i, row in enumerate(rows):
        cells = row.split(",")
        if where(i, cells):
            cells[column] = value
        out.append(",".join(cells))
    return out


_LAST = 2 * 261 - 1  # index of the last row: drone 1 at 13 s
_drone_1 = lambda i, cells: cells[1] == "1"  # noqa: E731


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows + [rows[2]], "repeats"),
    (lambda rows: rows + _set_cells(rows[2:3], 2, "7", lambda i, cells: True), "repeats"),
    (lambda rows: _set_cells(rows, 0, "13.5", lambda i, cells: i >= _LAST - 1), "off the"),
    (lambda rows: _set_cells(rows, 0, "12.96", lambda i, cells: i == _LAST), "off the"),
    (lambda rows: rows[2:], "off the"),  # the grid no longer starts at 0
    (lambda rows: _set_cells(rows, 1, "2", _drone_1), "drone ids"),
    (lambda rows: _set_cells(rows, 1, "-1", _drone_1), "drone ids"),
], ids=["repeated-row", "repeated-key", "last-sample-moved", "one-row-moved",
        "first-sample-missing", "drone-id-gap", "negative-drone-id"])
def test_csv_reader_rejects_repeated_and_off_grid_rows(edit, message):
    header, *rows = _mission_trace_rows()
    assert Trace.from_csv(io.StringIO(header + "".join(rows))).n_samples == 261
    with pytest.raises(LengthMismatch, match=message):
        Trace.from_csv(io.StringIO(header + "".join(edit(rows))))


@pytest.mark.parametrize("column, cell", [(0, "nan"), (2, "nan"), (2, "inf"), (6, "-inf"),
                                          (8, "nan"), (9, "inf")])
def test_csv_reader_rejects_non_finite_cells(column, cell):
    header, *rows = _mission_trace_rows()
    edited = _set_cells(rows, column, cell, lambda i, cells: i == 7)
    with pytest.raises(LengthMismatch, match=f"data row 8, column {_CSV_COLUMNS[column]}: "):
        Trace.from_csv(io.StringIO(header + "".join(edited)))


@pytest.mark.parametrize("rows, row", [
    (lambda rows: rows[:-1] + [rows[-1].replace(",,,\r\n", ",0,0,0\r\n")], _LAST + 1),
    (lambda rows: rows[:2], 1),  # the t = 0 rows alone, which carry a0
], ids=["last-sample", "first-sample-only"])
def test_csv_reader_rejects_acceleration_at_the_last_sample(rows, row):
    # the last sample takes no acceleration, so acc holds no cell for it
    header, *written = _mission_trace_rows()
    edited = rows(written)
    assert edited != written
    with pytest.raises(LengthMismatch, match=f"data row {row}, column ax: the last sample"):
        Trace.from_csv(io.StringIO(header + "".join(edited)))


def test_csv_reader_rejects_ragged_rows():
    text = ",".join(_CSV_COLUMNS) + "\r\n0,0,1,2,3,4,5,6,,\r\n"
    with pytest.raises(LengthMismatch):
        Trace.from_csv(io.StringIO(text))


def _stepwise_rollout(pos0, vel0, acc, ts):
    """Reference integration: one step() call per sample."""
    d, n, _ = acc.shape
    pos = np.empty((d, n + 1, 3))
    vel = np.empty((d, n + 1, 3))
    pos[:, 0], vel[:, 0] = pos0, vel0
    for k in range(n):
        pos[:, k + 1], vel[:, k + 1] = step(pos[:, k], vel[:, k], acc[:, k], ts)
    return pos, vel


@settings(max_examples=60, deadline=None)
@given(drones=st.integers(1, 4), n=st.integers(0, 300),
       ts=st.sampled_from([0.05, 0.1, 0.013]), seed=st.integers(0, 2**32 - 1))
@example(drones=1, n=0, ts=0.05, seed=0)
@example(drones=4, n=0, ts=0.05, seed=1)
@example(drones=1, n=1, ts=0.05, seed=2)
@example(drones=3, n=1, ts=0.1, seed=3)
def test_rollout_bitwise_equals_stepwise_reference(drones, n, ts, seed):
    rng = np.random.default_rng(seed)
    pos0 = rng.normal(scale=5.0, size=(drones, 3))
    vel0 = rng.normal(size=(drones, 3))
    acc = rng.uniform(-2.0, 2.0, size=(drones, n, 3))
    trace = rollout(pos0, vel0, acc, ts)
    pos, vel = _stepwise_rollout(pos0, vel0, acc, ts)
    assert np.array_equal(trace.pos, pos)
    assert np.array_equal(trace.vel, vel)
    assert trace.pos.flags.c_contiguous and trace.vel.flags.c_contiguous
