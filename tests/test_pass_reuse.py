"""A gradient reuses its program's kept smooth forward pass, and only that.

A compiled program keeps its last smooth or weighted-smooth forward pass,
keyed by the semantics and by the bits of the trace's positions and
velocities; a gradient with the same key runs only the reverse sweep.
These tests check that a reused pass gives the bits of a fresh one, that
any other trace or semantics runs its own pass, and that the ascent
saves exactly one smooth pass per accepted step and is otherwise
unchanged.
"""

import hashlib

import numpy as np
import pytest

from stlfleet import stl
from stlfleet.dynamics import rollout
from stlfleet.errors import TraceTooShort
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.optimizer import OptimizerConfig, optimize
from stlfleet.robustness import (_SCALE, Program, eval_exact, eval_smooth, eval_weighted_smooth,
                                 gradient_smooth, make_report)
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from conftest import random_formula, random_trace, weight_arity
from test_mission import make_scenario

LAM = 10.0


@pytest.fixture
def passes(monkeypatch):
    """Forward passes (smooth and exact) and gradients run by any program."""
    counts = {"smooth": 0, "exact": 0, "gradient": 0}
    forward, gradient = Program._forward, Program._gradient

    def counted_forward(self, trace, lam=None, weighting=None, keep=True):
        counts["exact" if lam is None else "smooth"] += 1
        return forward(self, trace, lam, weighting, keep)

    def counted_gradient(self, *args, **kwargs):
        counts["gradient"] += 1
        return gradient(self, *args, **kwargs)

    monkeypatch.setattr(Program, "_forward", counted_forward)
    monkeypatch.setattr(Program, "_gradient", counted_gradient)
    return counts


def _mission_case(seed):
    """The mission formula of a scenario with every atom kind, on a random flight."""
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0)], blade=True,
                             obstacles=[((-1.0, -1.0, 0.0), (0.0, 0.0, 2.0))], mission=3.0)
    formula, weights = compile_mission(scenario)
    rng = np.random.default_rng(seed)
    acc = rng.normal(scale=2.0, size=(scenario.n_drones, scenario.n_samples, 3))
    trace = rollout(scenario.depots, np.zeros_like(scenario.depots), acc, scenario.ts)
    return formula, weights, trace


def _cases():
    rng = np.random.default_rng(7)
    yield _mission_case(1)
    for _ in range(6):
        formula = random_formula(rng, budget=8, n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=30)
        weights = stl.WeightMap({node.node_id: rng.uniform(0.5, 2.0, weight_arity(node))
                                 for node in formula if weight_arity(node) > 1})
        yield formula, weights, trace


def _smooth(program, trace, weights, lam=LAM):
    if weights is None:
        return eval_smooth(program, trace, 0, lam)
    return eval_weighted_smooth(program, weights, trace, 0, lam, soft_combine=True)


def _assert_fresh(got, formula, weights, trace, lam=LAM):
    """``got`` is bit for bit the gradient of a newly compiled program."""
    want = gradient_smooth(Program(formula, trace.ts, weights), trace, lam, weights=weights)
    assert repr(got[0]) == repr(want[0])
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("weighted", [False, True])
def test_gradient_after_smooth_pass_is_fresh_gradient(passes, weighted):
    for formula, weights, trace in _cases():
        weights = weights if weighted else None
        program = Program(formula, trace.ts, weights)
        value = _smooth(program, trace, weights)
        before = dict(passes)
        # a bitwise-equal copy, as the optimizer rolls out the accepted trial again
        got = gradient_smooth(program, trace.copy(), LAM, weights=weights)
        assert passes["smooth"] == before["smooth"]  # only the reverse sweep ran
        assert repr(got[0]) == repr(value)
        _assert_fresh(got, formula, weights, trace)
        assert program._kept is None  # a gradient drops the pass it used


@pytest.mark.parametrize("field", ["pos", "vel"])
@pytest.mark.parametrize("change", ["sign_of_zero", "last_bit"])
def test_one_bit_apart_is_recomputed(passes, field, change):
    formula, weights, trace = _mission_case(2)
    cell = (1, 17, 2)
    if change == "sign_of_zero":
        getattr(trace, field)[cell] = 0.0
    program = Program(formula, trace.ts)
    eval_smooth(program, trace, 0, LAM)
    other = trace.copy()
    value = getattr(other, field)
    value[cell] = -0.0 if change == "sign_of_zero" else np.nextafter(value[cell], np.inf)
    assert getattr(other, field).tobytes() != getattr(trace, field).tobytes()
    before = passes["smooth"]
    got = gradient_smooth(program, other, LAM)
    assert passes["smooth"] == before + 1
    _assert_fresh(got, formula, None, other)


@pytest.mark.parametrize("nan", [False, True])
def test_trace_changed_in_place_is_reused_bit_identical(passes, nan):
    # no kept tape entry reads the evaluated trace again (box atoms pick
    # their faces in the forward pass, as argmin where a margin is NaN), so
    # a gradient over the pass's bits reuses it after the trace changed
    formula, weights, trace = _mission_case(3)
    if nan:
        trace.pos[0, 40, 2] = np.nan
    program = Program(formula, trace.ts)
    eval_smooth(program, trace, 0, LAM)
    original = trace.copy()
    trace.pos += 0.25
    before = passes["smooth"]
    got = gradient_smooth(program, original, LAM)
    assert passes["smooth"] == before  # only the reverse sweep ran
    want = gradient_smooth(Program(formula, original.ts), original, LAM)
    assert repr(got[0]) == repr(want[0])
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))


# (name, what runs first, whether the gradient after it is weighted)
OTHER_SEMANTICS = [
    ("other_sharpness",
     lambda program, trace, weights: eval_smooth(program, trace, 0, 2.0 * LAM), False),
    ("unweighted_then_weighted",
     lambda program, trace, weights: eval_smooth(program, trace, 0, LAM), True),
    ("weighted_then_unweighted",
     lambda program, trace, weights: eval_weighted_smooth(
         program, weights, trace, 0, LAM, soft_combine=True), False),
    ("weighted_hard_combination",
     lambda program, trace, weights: eval_weighted_smooth(
         program, weights, trace, 0, LAM, soft_combine=False), True),
    ("exact_after_smooth",
     lambda program, trace, weights: (eval_smooth(program, trace, 0, LAM),
                                      eval_exact(program, trace)), False),
    ("gradient_after_reuse",
     lambda program, trace, weights: (eval_smooth(program, trace, 0, LAM),
                                      gradient_smooth(program, trace, LAM)), False),
]


@pytest.mark.parametrize("name, first, weighted", OTHER_SEMANTICS,
                         ids=[case[0] for case in OTHER_SEMANTICS])
def test_other_semantics_never_hit(passes, name, first, weighted):
    formula, weights, trace = _mission_case(4)
    program = Program(formula, trace.ts, weights)
    first(program, trace, weights)
    gradient_weights = weights if weighted else None
    before = passes["smooth"]
    got = gradient_smooth(program, trace, LAM, weights=gradient_weights)
    assert passes["smooth"] == before + 1
    _assert_fresh(got, formula, gradient_weights, trace)


def _bundled_case():
    """The bundled mission on its routed seed trace."""
    scenario = fixture_windturbine()
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    return (*compile_mission(scenario), seed)


def test_report_fields_are_the_standalone_evaluations():
    # a report maps each field to one semantics: exact, smooth, and hard
    # min/max over raw-weighted and over share-transformed operands; each
    # field and each node's pair is bit for bit that standalone evaluation
    for formula, weights, trace in [_bundled_case(), *_cases()]:
        program = Program(formula, trace.ts, weights)
        for t_index in sorted({0, trace.n_samples - 1 - program.ops[-1].steps}):
            _smooth(program, trace, weights)
            report = make_report(program, trace, LAM, weights=weights, t_index=t_index)
            assert program._kept is None  # a report drops the kept pass and keeps none
            assert repr(report.exact) == repr(eval_exact(formula, trace, t_index))
            assert repr(report.smooth) == repr(eval_smooth(formula, trace, t_index, LAM))
            for node in formula:
                if node.node_id not in report.per_node:
                    with pytest.raises(TraceTooShort):
                        eval_exact(node, trace, t_index)
                    continue
                pair = (eval_exact(node, trace, t_index), eval_smooth(node, trace, t_index, LAM))
                assert repr(report.per_node[node.node_id]) == repr(pair), node.node_id
            if not len(weights):
                assert report.weighted_exact is report.weighted_smooth is None
                continue
            fresh = Program(formula, trace.ts, weights)
            assert (repr(report.weighted_exact)
                    == repr(fresh._evaluate(trace, t_index, None, _SCALE)))
            assert repr(report.weighted_smooth) == repr(eval_weighted_smooth(
                formula, weights, trace, t_index, LAM, soft_combine=False))


# Recorded with pass reuse turned off, so that every gradient ran its own
# forward pass, on the ascent of the seed's task assignment (drone 1 hovers
# inside the target box, so the target's disjunction keeps drone 1 alone):
# smooth forward passes, exact passes, gradients, iterations, restarts,
# history length, the sha256 of the history's reprs and the repr of the
# exact robustness of the returned trace.
ASCENT_BEFORE_REUSE = {
    False: (229, 63, 61, 60, 0, 61, "4a82a1b28387bf85", "0.5657652471873142"),
    True: (290, 106, 102, 60, 1, 61, "e6df76ba1979f6b0", "0.13582366745270047"),
}


@pytest.mark.parametrize("weighted", [False, True])
def test_ascent_saves_one_smooth_pass_per_accepted_step(passes, weighted):
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0)], mission=6.0,
                             home_half=0.85, min_separation=0.5)
    formula, weights = compile_mission(scenario)
    seed = rollout(scenario.depots, np.zeros_like(scenario.depots),
                   np.zeros((scenario.n_drones, scenario.n_samples, 3)), scenario.ts)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=60, rng_seed=0),
                      weights=weights if weighted else None)
    smooth, exact, gradients, iterations, restarts, steps, digest, robustness = (
        ASCENT_BEFORE_REUSE[weighted])
    history = ",".join(map(repr, result.objective_history)).encode()
    assert (result.iterations, result.restarts_used, len(result.objective_history)) == (
        iterations, restarts, steps)
    assert hashlib.sha256(history).hexdigest()[:16] == digest
    assert repr(result.report.exact) == robustness
    assert (passes["exact"], passes["gradient"]) == (exact, gradients)
    # every run starts with one gradient; each accepted step adds one more
    accepted = gradients - (1 + restarts)
    if not restarts:
        assert accepted == len(result.objective_history) - 1
    assert passes["smooth"] == smooth - accepted
