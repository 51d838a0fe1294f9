import copy

import numpy as np
import pytest

from stlfleet import stl
from stlfleet.errors import ArityError, IntervalError, NonPositiveWeight
from stlfleet.robustness import Program, eval_exact

from conftest import halfspace, random_formula, random_trace


def test_interval_validation():
    with pytest.raises(IntervalError):
        stl.Interval(-0.1, 1.0)
    with pytest.raises(IntervalError):
        stl.Interval(2.0, 1.0)
    with pytest.raises(IntervalError):
        stl.Interval(0.0, float("inf"))


def test_interval_grid_alignment_strict():
    ts = 0.05
    assert stl.Interval(0.0, 13.0).to_steps(ts) == (0, 260)
    # an aligned endpoint round-trips to within half a period (exactly, here)
    for value in (0.05, 1.0, 12.95):
        k = round(value / ts)
        assert abs(k * ts - value) <= ts / 2
    misaligned = stl.Interval(0.0, 0.07)
    with pytest.raises(IntervalError):
        misaligned.to_steps(ts)


def test_compose_rejects_empty_and_wrong_arity():
    p = stl.atom(halfspace("p"))
    with pytest.raises(ArityError):
        stl.compose(stl.AND, [])
    with pytest.raises(ArityError):
        stl.compose(stl.OR, [])
    with pytest.raises(ArityError):
        stl.compose(stl.NOT, [p, p])
    with pytest.raises(IntervalError):
        stl.compose(stl.ALWAYS, [p])  # missing interval
    with pytest.raises(IntervalError):
        stl.compose(stl.NOT, [p], interval=stl.Interval(0, 1))


def test_compose_always_mission_window():
    p = stl.atom(halfspace("p"))
    node = stl.compose(stl.ALWAYS, [p], interval=(0.0, 13.0))
    assert node.interval.to_steps(0.05) == (0, 260)


def test_double_negation_is_identity_on_traces(rng):
    pred = halfspace("p", offset=1.0)
    direct = stl.atom(pred)
    doubled = stl.compose(stl.NOT, [stl.compose(stl.NOT, [stl.atom(pred)])])
    for _ in range(20):
        trace = random_trace(rng, n_drones=1, length=10)
        for t in range(10):
            assert eval_exact(doubled, trace, t) == eval_exact(direct, trace, t)


def test_unlabeled_ids_depend_only_on_the_formula():
    def build():
        window = stl.always(stl.Interval(0.0, 1.0), stl.atom(halfspace("p")))
        return stl.land(window, stl.lor(stl.true(), stl.neg(stl.atom(halfspace("q")))),
                        stl.lor(stl.true(), stl.true()))

    first = [node.node_id for node in build()]
    stl.eventually(stl.Interval(0.0, 2.0), stl.true())  # other nodes built in between
    assert [node.node_id for node in build()] == first
    assert len(set(first)) == len(first) - 2  # the three ``true`` leaves share one id


def test_same_object_twice_is_rejected():
    p = stl.atom(halfspace("p"))
    with pytest.raises(ArityError):
        stl.land(p, p)


def lookahead(formula) -> int:
    """Samples past t that the compiled formula reads at 0.05 s."""
    return Program(formula, 0.05).ops[-1].steps


def test_horizon_examples():
    p = stl.atom(halfspace("p"))
    q = stl.atom(halfspace("q"))
    assert lookahead(p) == 0
    nested = stl.eventually(stl.Interval(0, 11.5), stl.always(stl.Interval(0, 1.5), p))
    assert lookahead(nested) == 260
    u = stl.until(stl.Interval(2, 5), p, stl.always(stl.Interval(0, 3), q))
    assert lookahead(u) == 160


def test_horizon_monotone_under_always_wrap(rng):
    for _ in range(30):
        f = random_formula(rng, budget=20, n_drones=2)
        steps = lookahead(f)
        for j in (1, 20, 50):
            wrapped = stl.always(stl.Interval(0.0, j * 0.05), f)
            assert lookahead(wrapped) == steps + j


def test_implies_equals_or_not_exact(rng):
    for _ in range(100):
        trace = random_trace(rng, n_drones=2, length=12)
        a = random_formula(rng, budget=4, n_drones=2, depth=1)
        b = random_formula(rng, budget=4, n_drones=2, depth=1)
        imp = stl.implies(a, b)
        lowered = stl.lor(stl.neg(copy.deepcopy(a)), copy.deepcopy(b))
        assert eval_exact(imp, trace, 0) == eval_exact(lowered, trace, 0)


def test_predicate_validation():
    with pytest.raises(ValueError):
        stl.Predicate.box_inside("bad", 0, (0, 0, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        stl.Predicate.min_separation("bad", 0, 0, 1.0)
    with pytest.raises(ValueError):
        stl.Predicate.segment_band("bad", 0, (0, 0, 0), (1, 0, 0), standoff=0.5, tolerance=0.6)
    from stlfleet.errors import DegenerateSegment
    with pytest.raises(DegenerateSegment):
        stl.Predicate.segment_band("bad", 0, (1, 1, 1), (1, 1, 1), standoff=1.0, tolerance=0.5)


def test_weightmap_rules():
    wm = stl.WeightMap({"a": [1.0, 3.0]})
    assert np.allclose(wm.get("a", 2), [1.0, 3.0])
    assert np.allclose(wm.get("missing", 3), [1.0, 1.0, 1.0])
    assert np.allclose(wm.get("b", 2), [1, 1])
    with pytest.raises(NonPositiveWeight):
        wm.set("c", [1.0, 0.0])
    with pytest.raises(NonPositiveWeight):
        wm.set("c", [-2.0])
    with pytest.raises(NonPositiveWeight):
        wm.get("a", 5)


def test_node_ids_unique_in_tree(rng):
    f = random_formula(rng, budget=10, n_drones=2, depth=3)
    ids = [n.node_id for n in f]
    assert len(ids) == len(set(ids))
