"""The ascent climbs the seed's task assignment; every verdict stays on the mission.

``optimize`` builds its objective from the mission cut by
``optimizer._assigned``: each task's disjunction over capable drones keeps
only the operand the seed satisfies best. These tests check that the cut
never claims more than the mission, that it follows the routed plan on
the bundled turbine, that a seed satisfying no disjunct leaves the ascent
as it was, that ties keep the first drone, and that the monitor's exact
check of an accepted step copies the shared atom rows and evaluates only
the rest.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import stl
from stlfleet.dynamics import Trace, rollout
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import _allowed_tasks, compile_mission
from stlfleet.optimizer import OptimizerConfig, _assigned, optimize
from stlfleet.robustness import Program, eval_exact, eval_smooth
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from test_atom_reuse import _assert_fresh_exact, atom_forwards  # noqa: F401  (a fixture)
from test_mission import make_scenario


@functools.lru_cache(maxsize=1)
def _turbine():
    """The bundled turbine, its mission, route plan and routed seed trace."""
    scenario = fixture_windturbine()
    plan = solve_assignment(build_graph(scenario))
    seed, _ = seed_with_schedule(plan, scenario)
    return scenario, compile_mission(scenario)[0], plan, seed


def _atom_names(formula):
    return {node.predicate.name for node in formula if node.kind == stl.ATOM}


def _hover(scenario, positions):
    positions = np.asarray(positions, float)
    return rollout(positions, np.zeros_like(positions),
                   np.zeros((len(positions), scenario.n_samples, 3)), scenario.ts)


def test_routed_seed_keeps_each_task_for_its_routed_drone():
    scenario, formula, plan, seed = _turbine()
    monitor = Program(formula, scenario.ts)
    assigned = _assigned(formula, monitor, seed)
    kept = _atom_names(assigned)
    targets, blades = _allowed_tasks(scenario, plan)
    for d in range(scenario.n_drones):
        for q in range(len(scenario.targets)):
            assert (f"in_target[{q},{d}]" in kept) == (q in targets[d])
        for q in range(len(scenario.blades)):
            assert (f"in_blade_box[{q},{d}]" in kept) == (q in blades[d])
            assert (f"blade_band[{q},{d}]" in kept) == (q in blades[d])
    # no other atom goes, and every node keeps its id
    assert all(name.startswith(("in_target", "in_blade_box", "blade_band"))
               for name in _atom_names(formula) - kept)
    assert {node.node_id for node in assigned} <= {node.node_id for node in formula}
    assert len(Program(assigned, scenario.ts).ops) < len(monitor.ops)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(seed=0, spread=0.0)
def test_assigned_exact_never_exceeds_the_mission(seed, spread):
    """On traces around the routed seed, cut from one trace and checked on
    another, the cut formula's exact robustness is at most the mission's."""
    scenario, formula, _, routed = _turbine()
    rng = np.random.default_rng(seed)

    def around():
        return Trace(routed.ts, routed.pos + rng.normal(scale=spread, size=routed.pos.shape),
                     routed.vel + rng.normal(scale=spread, size=routed.vel.shape), routed.acc)

    assigned = _assigned(formula, Program(formula, scenario.ts), around())
    trace = around()
    assert eval_exact(assigned, trace) <= eval_exact(formula, trace)


# Recorded before the ascent cut task disjunctions: iterations, restarts,
# history length, the sha256 of the history's reprs and the repr of the
# exact robustness of the returned trace.
NO_DISJUNCT_BEFORE_CUT = {
    False: (57, 0, 58, "fd94b093f5a87829", "0.4909431869218257"),
    True: (28, 1, 29, "e9bdc3814200e39d", "-0.11417633254729953"),
}


@pytest.mark.parametrize("weighted", [False, True])
def test_seed_satisfying_no_disjunct_keeps_the_ascent(weighted):
    # both depots hover 0.15 m outside the target box
    scenario = make_scenario(n_drones=2, targets=[(-2.25, -3.0, 1.0)], mission=6.0,
                             home_half=0.85, min_separation=0.5)
    formula, weights = compile_mission(scenario)
    seed = _hover(scenario, scenario.depots)
    monitor = Program(formula, scenario.ts)
    assert len(Program(_assigned(formula, monitor, seed), scenario.ts).ops) == len(monitor.ops)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=60, rng_seed=0),
                      weights=weights if weighted else None)
    iterations, restarts, steps, digest, robustness = NO_DISJUNCT_BEFORE_CUT[weighted]
    history = ",".join(map(repr, result.objective_history)).encode()
    assert (result.iterations, result.restarts_used, len(result.objective_history)) == (
        iterations, restarts, steps)
    assert hashlib.sha256(history).hexdigest()[:16] == digest
    assert repr(result.report.exact) == robustness


@pytest.mark.parametrize("offset, kept", [(0.0, 0), (0.1, 1)])
def test_tie_keeps_the_first_drone(offset, kept):
    # both drones hover at the target's centre, drone 0 moved ``offset`` m
    # towards a face: equal margins tie, a smaller one loses
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0)], mission=6.0)
    formula = compile_mission(scenario)[0]
    seed = _hover(scenario, [(-2.0 - offset, -3.0, 1.0), (-2.0, -3.0, 1.0)])
    assigned = _assigned(formula, Program(formula, scenario.ts), seed)
    dwells = {name for name in _atom_names(assigned) if name.startswith("in_target")}
    assert dwells == {f"in_target[0,{kept}]"}


def test_cut_follows_the_shape_not_the_label():
    # drone 0 hovers in the box, drone 1 away from it: a top-level task
    # choice, whatever its label, keeps drone 0; an Or under Always(Not(.))
    # is no task choice and stays whole
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0)], mission=6.0)
    seed = _hover(scenario, [(-2.0, -3.0, 1.0), (2.0, 3.0, 1.0)])
    box = scenario.targets[0].box

    def inside(name, d):
        return stl.atom(stl.Predicate.box_inside(name, d, box.lower, box.upper))

    task = stl.eventually(stl.Interval(0.0, 5.0), stl.lor(
        *(stl.always(stl.Interval(0.0, 1.0), inside(f"hold[{d}]", d)) for d in range(2)),
        label="anything"), label="task")
    banned = stl.always(stl.Interval(0.0, 6.0), stl.neg(stl.lor(
        inside("near[0]", 0), inside("near[1]", 1), label="anything_else")), label="ban")
    formula = stl.land(task, banned, label="spec")
    assigned = _assigned(formula, Program(formula, scenario.ts), seed)
    assert _atom_names(assigned) == {"hold[0]", "near[0]", "near[1]"}
    assert assigned.children[1] is banned
    assert [assigned.node_id, assigned.children[0].node_id] == ["spec", "task"]
    assert assigned.children[0].children == (task.children[0].children[0],)


def test_exact_check_of_an_accepted_step_evaluates_only_unlent_atoms(atom_forwards):
    scenario, formula, _, seed = _turbine()
    monitor = Program(formula, scenario.ts)
    objective = Program(_assigned(formula, monitor, seed), scenario.ts)
    monitor._borrow_atoms(objective)
    own = monitor._lender[3]
    # the unassigned drones' target boxes, in one group (one drone can
    # inspect the blade, so its clauses have no disjunction)
    unlent = _atom_names(formula) - _atom_names(objective.formula)
    assert [group.kind for group, _ in own] == [stl.BOX_INSIDE]
    assert len(own[0][1]) == len(unlent) == 2 * len(scenario.targets)
    rng = np.random.default_rng(3)
    trace = Trace(seed.ts, seed.pos + rng.normal(scale=0.05, size=seed.pos.shape),
                  seed.vel, seed.acc)
    eval_smooth(objective, trace, 0, scenario.sharpness)
    before = atom_forwards["ran"]
    # a bitwise-equal copy, as the optimizer rolls out the accepted trial again
    got = monitor._forward(trace.copy())
    assert atom_forwards["ran"] == before + len(own)
    _assert_fresh_exact(got, formula, trace)
    assert repr(eval_exact(monitor, trace.copy())) == repr(eval_exact(formula, trace))
