"""The exact monitor takes its atom rows from the objective's kept pass.

A monitor program tied to a lender with ``_borrow_atoms`` runs an exact
pass without evaluating any atom when the lender keeps a smooth or
weighted-smooth pass over the same trace bits: atom rows depend on
nothing but the predicates and the trace. These tests check that such a
pass gives the bits of a freshly compiled program, that any other trace
is evaluated afresh, and that the ascent saves exactly the atom groups of
one monitor pass per accepted step and is otherwise unchanged.
"""

import numpy as np
import pytest

from stlfleet import robustness, stl
from stlfleet.dynamics import rollout
from stlfleet.mission import compile_mission
from stlfleet.optimizer import OptimizerConfig, optimize
from stlfleet.robustness import Program, eval_exact, eval_smooth, gradient_smooth

from conftest import random_formula, random_predicate
from test_mission import make_scenario
from test_pass_reuse import (ASCENT_BEFORE_REUSE, LAM, _cases, _mission_case, _smooth,
                             passes)  # noqa: F401  (passes is a fixture)


@pytest.fixture
def atom_forwards(monkeypatch):
    """Atom-group forwards run, and those a program's passes would run unshared."""
    counts = {"ran": 0, "unshared": 0}
    for group in set(robustness._ATOM_GROUPS.values()):
        def counted(self, trace, keep=False, _forward=group.forward):
            counts["ran"] += 1
            return _forward(self, trace, keep)
        monkeypatch.setattr(group, "forward", counted)
    forward = Program._forward

    def counted_pass(self, trace, lam, weighting):
        counts["unshared"] += len(self.groups)
        return forward(self, trace, lam, weighting)
    monkeypatch.setattr(Program, "_forward", counted_pass)
    return counts


def _tied(formula, weights, rng):
    """A monitor of ``formula`` and the objective it borrows from: the formula
    conjoined with one more clause, as the optimizer adds velocity clauses."""
    extra = stl.always(stl.Interval(0.0, 0.1), stl.atom(random_predicate(rng, 2)))
    lender = Program(stl.land(formula, extra), 0.05, weights)
    monitor = Program(formula, 0.05, weights)
    monitor._borrow_atoms(lender)
    assert monitor._lender is not None
    return monitor, lender


def _assert_fresh_exact(got, formula, trace):
    """``got`` is bit for bit the exact pass of a new program."""
    want = Program(formula, trace.ts)._node_values(trace)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("weighted", [False, True])
def test_exact_pass_after_kept_pass_borrows_every_atom(atom_forwards, weighted):
    rng = np.random.default_rng(11)
    for formula, weights, trace in _cases():
        weights = weights if weighted else None
        monitor, lender = _tied(formula, weights, rng)
        _smooth(lender, trace, weights)
        before = atom_forwards["ran"]
        # a bitwise-equal copy, as the optimizer rolls out the accepted trial again
        got = monitor._node_values(trace.copy())
        value = eval_exact(monitor, trace.copy())
        assert atom_forwards["ran"] == before  # no atom evaluated
        _assert_fresh_exact(got, formula, trace)
        assert repr(value) == repr(eval_exact(Program(formula, trace.ts), trace))
        assert lender._kept is not None  # lending leaves the kept pass in place


def _one_bit_apart(trace, field, change):
    other = trace.copy()
    value = getattr(other, field)
    cell = (1, 17, 2)
    if change == "sign_of_zero":
        getattr(trace, field)[cell] = 0.0
        value[cell] = -0.0
    else:
        value[cell] = np.nextafter(value[cell], np.inf)
    assert getattr(other, field).tobytes() != getattr(trace, field).tobytes()
    return other


def _refused(atom_forwards, monitor, formula, trace):
    before = atom_forwards["ran"]
    got = monitor._node_values(trace)
    assert atom_forwards["ran"] == before + len(monitor.groups)
    _assert_fresh_exact(got, formula, trace)


@pytest.mark.parametrize("field", ["pos", "vel"])
@pytest.mark.parametrize("change", ["sign_of_zero", "last_bit"])
def test_one_bit_apart_is_not_borrowed(atom_forwards, field, change):
    formula, weights, trace = _mission_case(2)
    monitor, lender = _tied(formula, None, np.random.default_rng(0))
    other = _one_bit_apart(trace, field, change)
    eval_smooth(lender, trace, 0, LAM)
    _refused(atom_forwards, monitor, formula, other)


def test_kept_trace_changed_in_place_is_not_borrowed(atom_forwards):
    formula, weights, trace = _mission_case(3)
    monitor, lender = _tied(formula, None, np.random.default_rng(0))
    eval_smooth(lender, trace, 0, LAM)
    original = trace.copy()
    trace.pos += 0.25
    _refused(atom_forwards, monitor, formula, original)


def test_consumed_pass_is_not_borrowed(atom_forwards):
    formula, weights, trace = _mission_case(4)
    monitor, lender = _tied(formula, None, np.random.default_rng(0))
    eval_smooth(lender, trace, 0, LAM)
    gradient_smooth(lender, trace, LAM)  # the gradient drops the pass it used
    assert lender._kept is None
    _refused(atom_forwards, monitor, formula, trace)


def test_monitor_with_foreign_atoms_never_borrows():
    rng = np.random.default_rng(5)
    formula = random_formula(rng, budget=8, n_drones=2, depth=3)
    other = random_formula(rng, budget=8, n_drones=2, depth=3)
    monitor = Program(stl.land(formula, other), 0.05)
    monitor._borrow_atoms(Program(formula, 0.05))
    assert monitor._lender is None


@pytest.mark.parametrize("weighted", [False, True])
def test_ascent_borrows_once_per_accepted_step(atom_forwards, passes, weighted):
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0)], mission=6.0,
                             home_half=0.85, min_separation=0.5)
    formula, weights = compile_mission(scenario)
    seed = rollout(scenario.depots, np.zeros_like(scenario.depots),
                   np.zeros((scenario.n_drones, scenario.n_samples, 3)), scenario.ts)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=60, rng_seed=0),
                      weights=weights if weighted else None)
    _, exact, gradients, iterations, restarts, _, _, robustness_repr = (
        ASCENT_BEFORE_REUSE[weighted])
    assert (result.iterations, result.restarts_used) == (iterations, restarts)
    assert repr(result.report.exact) == robustness_repr
    assert (passes["exact"], passes["gradient"]) == (exact, gradients)
    # every run starts with one gradient; each accepted step adds one more,
    # and the exact check of each accepted trial evaluates no atom
    accepted = gradients - (1 + restarts)
    saved = atom_forwards["unshared"] - atom_forwards["ran"]
    assert saved == accepted * len(Program(formula, scenario.ts).groups)

