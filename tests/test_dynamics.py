import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet.dynamics import (DroneLimits, Trace, min_steps_rest_to_rest,
                               project_controls, rollout, steer_rest_to_rest,
                               steer_to_state, step, time_of_flight)
from stlfleet.errors import LengthMismatch


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
        rollout(np.zeros((2, 3)), np.zeros((2, 3)),
                [np.zeros((5, 3)), np.zeros((6, 3))], 0.05)


def test_rollout_extract_identity(rng):
    acc = rng.normal(size=(2, 25, 3))
    trace = rollout(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), acc, 0.05)
    again = rollout(trace.pos[:, 0], trace.vel[:, 0], trace.acc, trace.ts)
    assert np.array_equal(again.pos, trace.pos)
    assert np.array_equal(again.vel, trace.vel)


def test_project_controls():
    limits = DroneLimits(v_max=1.0, a_max=1.0, v_max_relaxed=2.0, a_max_relaxed=5.0)
    acc = np.array([[[1.5, -0.2, 0.9]]])
    clipped = project_controls(acc, limits)
    assert np.allclose(clipped, [[[1.0, -0.2, 0.9]]])
    assert np.array_equal(project_controls(clipped, limits), clipped)  # idempotent
    relaxed = project_controls(np.array([[[-5.0, 0.0, 0.0]]]), limits, relaxed=True)
    assert relaxed[0, 0, 0] == -5.0


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
    buffer = io.StringIO(trace.to_csv_string())
    back = Trace.from_csv(buffer)
    assert back.ts == pytest.approx(trace.ts)
    assert np.allclose(back.pos, trace.pos, atol=1e-9)
    assert np.allclose(back.vel, trace.vel, atol=1e-9)
    assert np.allclose(back.acc, trace.acc, atol=1e-9)


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
