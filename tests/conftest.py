"""Shared fixtures and independent oracles used across the test suite.

The oracle evaluator below re-implements the robustness recursion with
plain Python loops and scalar math. It shares no code with the library
evaluator, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from stlfleet import stl
from stlfleet.dynamics import Trace
from stlfleet.optimizer import _Objective

BIG = 1e6


def halfspace(name, drone=0, offset=0.0, axis=0):
    """Predicate with margin (position[axis] - offset) for moderate states."""
    lower = [-BIG, -BIG, -BIG]
    upper = [BIG, BIG, BIG]
    lower[axis] = offset
    return stl.Predicate.box_inside(name, drone, lower, upper)


def scalar_trace(xs, ts=0.05, n_drones=1):
    """Single-axis trace: drone 0 moves along x, everything else is zero."""
    xs = np.asarray(xs, float)
    pos = np.zeros((n_drones, len(xs), 3))
    pos[0, :, 0] = xs
    vel = np.zeros_like(pos)
    acc = np.zeros((n_drones, len(xs) - 1, 3))
    return Trace(ts, pos, vel, acc)


def csv_text(trace):
    """The trace CSV that Trace.to_csv writes, as a string."""
    buffer = io.StringIO()
    trace.to_csv(buffer)
    return buffer.getvalue()


def random_trace(rng, n_drones=2, length=40, ts=0.05, span=4.0):
    """Smooth-ish random walk positions and small velocities."""
    steps = rng.normal(scale=0.3, size=(n_drones, length, 3))
    pos = np.cumsum(steps, axis=1)
    pos -= pos.mean(axis=1, keepdims=True)
    pos = np.clip(pos, -span, span) + rng.uniform(-1, 1, size=(n_drones, 1, 3))
    vel = rng.normal(scale=0.5, size=(n_drones, length, 3))
    acc = np.zeros((n_drones, length - 1, 3))
    return Trace(ts, pos, vel, acc)


def random_predicate(rng, n_drones):
    kind = rng.integers(0, 5 if n_drones > 1 else 4)
    drone = int(rng.integers(n_drones))
    name = f"p{rng.integers(10**9)}"
    if kind == 0:
        lo = rng.uniform(-4, 1, 3)
        return stl.Predicate.box_inside(name, drone, lo, lo + rng.uniform(0.8, 5, 3))
    if kind == 1:
        lo = rng.uniform(-4, 1, 3)
        return stl.Predicate.box_outside(name, drone, lo, lo + rng.uniform(0.8, 5, 3))
    if kind == 2:
        return stl.Predicate.velocity_box(name, drone, [-3.1, -2.9, -3.3], [2.9, 3.2, 3.0])
    if kind == 3:
        a = rng.uniform(-3, 3, 3)
        return stl.Predicate.segment_band(name, drone, a, a + rng.uniform(0.5, 4, 3),
                                          standoff=rng.uniform(1.0, 2.5),
                                          tolerance=rng.uniform(0.3, 0.9))
    other = int((drone + 1 + rng.integers(n_drones - 1)) % n_drones)
    return stl.Predicate.min_separation(name, drone, other, rng.uniform(0.5, 2.0))


def random_formula(rng, budget, n_drones, depth=3, allow_negation=True):
    """Random bounded formula whose evaluation lookahead stays within budget samples.

    Negation is only applied directly to atoms, which keeps every
    min/max node an under-approximation in the smooth semantics.
    """
    ts = 0.05
    if depth == 0 or budget == 0 or rng.random() < 0.2:
        a = stl.atom(random_predicate(rng, n_drones))
        if allow_negation and rng.random() < 0.3:
            return stl.neg(a)
        return a
    choice = rng.integers(0, 6)
    if choice in (0, 1):  # boolean
        children = [random_formula(rng, budget, n_drones, depth - 1, allow_negation)
                    for _ in range(rng.integers(2, 4))]
        return stl.land(*children) if choice == 0 else stl.lor(*children)
    if choice in (2, 3):  # window
        hi = int(rng.integers(1, max(2, budget // 2 + 1)))
        lo = int(rng.integers(0, hi + 1))
        child = random_formula(rng, budget - hi, n_drones, depth - 1, allow_negation)
        interval = stl.Interval(lo * ts, hi * ts)
        return (stl.always if choice == 2 else stl.eventually)(interval, child)
    if choice == 4:  # next
        lo = int(rng.integers(0, max(1, budget // 4)))
        if lo + 1 > budget:
            lo = 0
        child = random_formula(rng, budget - lo - 1, n_drones, depth - 1, allow_negation)
        return stl.next_step(stl.Interval(lo * ts, lo * ts), child)
    hi = int(rng.integers(1, max(2, budget // 2 + 1)))
    lo = int(rng.integers(0, hi + 1))
    lhs = random_formula(rng, budget - hi, n_drones, depth - 1, allow_negation)
    rhs = random_formula(rng, budget - hi, n_drones, depth - 1, allow_negation)
    return stl.until(stl.Interval(lo * ts, hi * ts), lhs, rhs)


# ---------------------------------------------------------------------------
# Independent scalar oracle


def oracle_margin(pred, trace, t):
    p = trace.pos if pred.kind != stl.VELOCITY_BOX else trace.vel
    if pred.kind in (stl.BOX_INSIDE, stl.VELOCITY_BOX, stl.BOX_OUTSIDE):
        d = pred.subject[0]
        margins = []
        for axis in range(3):
            margins.append(p[d, t, axis] - pred.lower[axis])
            margins.append(pred.upper[axis] - p[d, t, axis])
        value = min(margins) if pred.kind != stl.BOX_OUTSIDE else max(-m for m in margins)
    elif pred.kind == stl.MIN_SEPARATION:
        a, b = pred.subject
        # mirror the library's norm arithmetic exactly (sqrt of dot) so
        # the structural recursion is what the comparison exercises
        diff = trace.pos[a, t] - trace.pos[b, t]
        value = math.sqrt(float(diff @ diff)) - pred.threshold
    elif pred.kind == stl.SEGMENT_BAND:
        point = trace.pos[pred.subject[0], t]
        a = np.asarray(pred.seg_start)
        u = np.asarray(pred.seg_end) - a
        s = min(1.0, max(0.0, float(np.dot(point - a, u) / np.dot(u, u))))
        offset = point - (a + s * u)
        dist = math.sqrt(float(offset @ offset))
        value = min(dist - (pred.standoff - pred.tolerance),
                    (pred.standoff + pred.tolerance) - dist)
    else:
        raise AssertionError(pred.kind)
    return pred.scale * value


def oracle_eval(formula, trace, t, shared_leaves=None):
    """Brute-force reference semantics: plain loops, no vectorization.

    With ``shared_leaves`` (a dict), atom margins are taken from the
    library's leaf evaluation so that bitwise equality isolates the
    temporal/Boolean recursion rather than BLAS accumulation order.
    """
    ts = trace.ts
    kind = formula.kind
    if kind == stl.TRUE:
        return math.inf
    if kind == stl.ATOM:
        if shared_leaves is None:
            return oracle_margin(formula.predicate, trace, t)
        cached = shared_leaves.get(formula.node_id)
        if cached is None:
            from stlfleet.robustness import atom_values
            cached = shared_leaves[formula.node_id] = atom_values([formula.predicate], trace)[0]
        return float(cached[t])
    if kind == stl.NOT:
        return -oracle_eval(formula.children[0], trace, t, shared_leaves)
    if kind == stl.AND:
        return min(oracle_eval(c, trace, t, shared_leaves) for c in formula.children)
    if kind == stl.OR:
        return max(oracle_eval(c, trace, t, shared_leaves) for c in formula.children)
    if kind == stl.IMPLIES:
        lhs, rhs = formula.children
        return max(-oracle_eval(lhs, trace, t, shared_leaves),
                   oracle_eval(rhs, trace, t, shared_leaves))
    lo, hi = formula.interval.to_steps(ts)
    if kind == stl.ALWAYS:
        return min(oracle_eval(formula.children[0], trace, t + k, shared_leaves)
                   for k in range(lo, hi + 1))
    if kind == stl.EVENTUALLY:
        return max(oracle_eval(formula.children[0], trace, t + k, shared_leaves)
                   for k in range(lo, hi + 1))
    if kind == stl.NEXT:
        return oracle_eval(formula.children[0], trace, t + lo + 1, shared_leaves)
    if kind == stl.UNTIL:
        lhs, rhs = formula.children
        best = -math.inf
        for k in range(lo, hi + 1):
            hold = min(oracle_eval(lhs, trace, t + j, shared_leaves)
                       for j in range(0, k + 1))
            best = max(best, min(oracle_eval(rhs, trace, t + k, shared_leaves), hold))
        return best
    raise AssertionError(kind)


def weight_arity(node, ts=0.05):
    """Number of weights a node carries: operands or window samples."""
    if node.kind in (stl.AND, stl.OR, stl.IMPLIES):
        return len(node.children)
    if node.kind in (stl.ALWAYS, stl.EVENTUALLY, stl.UNTIL):
        lo, hi = node.interval.to_steps(ts)
        return hi - lo + 1
    if node.kind == stl.NEXT:
        return 1
    return 0


@pytest.fixture
def iterates(monkeypatch):
    """(smooth value, trace) of each iterate of every ``optimize`` run, in
    order: a run's start, then each accepted step."""
    seen = []
    value_and_gradient = _Objective.value_and_gradient

    def recorded(self, acc):
        value, grad = value_and_gradient(self, acc)
        seen.append((value, self.trace(acc)))
        return value, grad
    monkeypatch.setattr(_Objective, "value_and_gradient", recorded)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
