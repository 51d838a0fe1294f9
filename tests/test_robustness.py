import json
import math
from pathlib import Path

import numpy as np
import pytest

from stlfleet import stl
from stlfleet.errors import EmptyInput, TraceTooShort
from stlfleet.fixtures import fixture_windturbine
from stlfleet.mission import compile_mission
from stlfleet.robustness import (Program, eval_exact, eval_smooth, eval_weighted,
                                 eval_weighted_smooth, gradient_smooth,
                                 make_report, smooth_max, smooth_min)
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment, stitch_subtours

from conftest import (halfspace, oracle_eval, random_formula, random_trace,
                      scalar_trace, weight_arity)


# ---------------------------------------------------------------------------
# smooth min / max primitives


def test_smooth_min_singleton_exact():
    assert smooth_min([1.0], 10.0) == 1.0
    assert smooth_max([-2.5], 10.0) == -2.5


def test_smooth_min_equal_copies_closed_form():
    for beta in (2, 5, 17):
        for rho in (-3.0, 0.0, 1.7):
            assert smooth_min([rho] * beta, 10.0) == pytest.approx(
                rho - math.log(beta) / 10.0, abs=1e-12)


def test_smooth_min_max_derived_values():
    # high-precision evaluations of the closed forms
    assert smooth_min([0.0, 1.0], 10.0) == pytest.approx(-0.1 * math.log(1 + math.exp(-10)))
    assert smooth_min([0.0, 1.0], 10.0) == pytest.approx(-4.5398899216870535e-06)
    assert smooth_max([0.0, 1.0], 10.0) == pytest.approx(math.exp(10) / (1 + math.exp(10)))
    assert smooth_max([0.0, 1.0], 10.0) == pytest.approx(0.9999546021312976)


def test_smooth_bounds_random(rng):
    for _ in range(2000):
        beta = int(rng.integers(1, 21))
        values = rng.uniform(-10, 10, beta)
        lam = float(rng.choice([1.0, 10.0, 100.0]))
        lo, hi = values.min(), values.max()
        assert smooth_min(values, lam) <= lo + 1e-12
        assert lo - 1e-12 <= smooth_max(values, lam) <= hi + 1e-12


def test_smooth_no_overflow_at_contract_boundary():
    lam = 1.0
    values = [-700.0, 0.0, 700.0]
    assert math.isfinite(smooth_min(values, lam))
    assert math.isfinite(smooth_max(values, lam))


def test_smooth_empty_and_bad_sharpness():
    with pytest.raises(EmptyInput):
        smooth_min([], 10.0)
    with pytest.raises(EmptyInput):
        smooth_max([], 10.0)
    with pytest.raises(ValueError):
        smooth_min([1.0], 0.0)


# ---------------------------------------------------------------------------
# exact semantics


def test_eval_exact_always_eventually_examples():
    trace = scalar_trace([3.0, 1.0, 5.0])
    p = stl.atom(halfspace("p", offset=2.0))
    assert eval_exact(stl.always(stl.Interval(0, 0.1), p), trace) == -1.0
    assert eval_exact(stl.eventually(stl.Interval(0, 0.1), p), trace) == 3.0


def test_eval_exact_negation_flips_sign(rng):
    for _ in range(25):
        f = random_formula(rng, budget=6, n_drones=2, depth=2)
        trace = random_trace(rng, n_drones=2, length=20)
        assert eval_exact(stl.neg(f), trace, 0) == -eval_exact(
            stl.formula_from_dict(stl.formula_to_dict(f)), trace, 0)


def test_eval_exact_matches_oracle(rng):
    for _ in range(150):
        f = random_formula(rng, budget=10, n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=26)
        t = int(rng.integers(0, 3))
        assert eval_exact(f, trace, t) == pytest.approx(oracle_eval(f, trace, t), abs=1e-12)


def test_until_matches_double_loop_oracle(rng):
    p = stl.atom(halfspace("p", offset=0.5))
    q = stl.atom(halfspace("q", offset=-0.5, axis=1))
    for _ in range(200):
        lo = int(rng.integers(0, 4))
        hi = lo + int(rng.integers(0, 6))
        f = stl.until(stl.Interval(lo * 0.05, hi * 0.05),
                      stl.formula_from_dict(stl.formula_to_dict(p)),
                      stl.formula_from_dict(stl.formula_to_dict(q)))
        trace = random_trace(rng, n_drones=1, length=int(rng.integers(hi + 2, 30)))
        t = int(rng.integers(0, trace.n_samples - hi - 1))
        assert eval_exact(f, trace, t) == oracle_eval(f, trace, t)


def test_trace_too_short():
    trace = scalar_trace([1.0, 2.0])
    p = stl.atom(halfspace("p"))
    with pytest.raises(TraceTooShort):
        eval_exact(stl.always(stl.Interval(0, 0.3), p), trace)
    with pytest.raises(TraceTooShort):
        eval_exact(p, trace, t_index=5)


def test_next_is_one_step_successor():
    trace = scalar_trace([0.0, 7.0, -3.0])
    p = stl.atom(halfspace("p"))
    nxt = stl.next_step(stl.Interval(0, 0), p)
    assert eval_exact(nxt, trace, 0) == 7.0
    assert eval_exact(nxt, trace, 1) == -3.0


# ---------------------------------------------------------------------------
# smooth semantics


def test_single_atom_smooth_equals_exact(rng):
    f = stl.atom(halfspace("p", offset=1.0))
    for _ in range(10):
        trace = random_trace(rng, n_drones=1, length=8)
        for lam in (1.0, 10.0, 1000.0):
            assert eval_smooth(f, trace, 0, lam) == eval_exact(f, trace, 0)


def test_and_of_two_zeros_smooth_value():
    trace = scalar_trace([0.0, 0.0])
    a = stl.atom(halfspace("a", offset=0.0))
    b = stl.atom(halfspace("b", offset=0.0, axis=1))
    # drone sits at the origin so both margins are exactly 0
    f = stl.land(a, b)
    assert eval_smooth(f, trace, 0, 10.0) == pytest.approx(-math.log(2) / 10.0)


def test_smooth_gap_shrinks_with_sharpness(rng):
    for _ in range(60):
        f = random_formula(rng, budget=12, n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=40)
        exact = eval_exact(f, trace, 0)
        gaps = [abs(eval_smooth(f, trace, 0, lam) - exact)
                for lam in (1.0, 10.0, 100.0, 1000.0)]
        for wide, sharp in zip(gaps, gaps[1:]):
            assert sharp <= wide + 1e-12


def test_smooth_under_approximates_negation_free(rng):
    for _ in range(50):
        f = random_formula(rng, budget=10, n_drones=2, depth=3, allow_negation=False)
        trace = random_trace(rng, n_drones=2, length=30)
        assert eval_smooth(f, trace, 0, 10.0) <= eval_exact(f, trace, 0) + 1e-12


# ---------------------------------------------------------------------------
# weighted semantics


def two_margin_and(x, y, weights=None, label="w_and"):
    """And of two half-space atoms with margins exactly (x, y) at t=0."""
    trace = scalar_trace([0.0, 0.0])
    trace.pos[0, :, 0] = x
    trace.pos[0, :, 1] = y
    a = stl.atom(halfspace("a", offset=0.0))
    b = stl.atom(halfspace("b", offset=0.0, axis=1))
    f = stl.land(a, b, label=label)
    wm = stl.WeightMap({label: weights} if weights is not None else None)
    return f, trace, wm


def test_weighted_unit_weights_bitwise_identical(rng):
    empty = stl.WeightMap()
    for _ in range(60):
        f = random_formula(rng, budget=10, n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=30)
        assert eval_weighted(f, empty, trace, 0) == eval_exact(f, trace, 0)
        explicit = stl.WeightMap({n.node_id: np.ones(weight_arity(n))
                                  for n in f if weight_arity(n) > 0})
        assert eval_weighted(f, explicit, trace, 0) == eval_exact(f, trace, 0)


def test_weighted_and_examples():
    f, trace, wm = two_margin_and(2.0, 2.0, weights=[1.0, 3.0])
    assert eval_weighted(f, wm, trace, 0) == pytest.approx(2.0)
    f, trace, wm = two_margin_and(1.0, -1.0, weights=[5.0, 1.0])
    assert eval_weighted(f, wm, trace, 0) == pytest.approx(-1.0)


def test_weighted_smooth_transform_examples():
    # children (2, 2), weights (1, 3): shares (0.25, 0.75), factors (0.75, 0.25)
    f, trace, wm = two_margin_and(2.0, 2.0, weights=[1.0, 3.0])
    assert eval_weighted_smooth(f, wm, trace, 0, 10.0) == pytest.approx(0.5)
    # children (-2, 2): negative branch factor 0.25 gives -0.5
    f, trace, wm = two_margin_and(-2.0, 2.0, weights=[1.0, 3.0])
    assert eval_weighted_smooth(f, wm, trace, 0, 10.0) == pytest.approx(-0.5)
    # uniform weights on positive children halve the unweighted min
    f, trace, wm = two_margin_and(1.4, 0.8, weights=[1.0, 1.0])
    assert eval_weighted_smooth(f, wm, trace, 0, 10.0) == pytest.approx(0.4)


def conjunction_with_margins(values):
    """And over atoms whose margins at t=0 are exactly ``values``."""
    trace = scalar_trace([1.0, 1.0])
    atoms = [stl.atom(halfspace(f"m{i}", offset=1.0 - float(v)))
             for i, v in enumerate(values)]
    return stl.land(*atoms, label="conj"), trace


def test_weighted_smooth_uniform_preserves_sign_and_argmin(rng):
    """Uniform weights scale each sign class by one positive factor, so the
    combination keeps the sign and the argmin of the plain evaluation.

    This is the node-local reading: the recursive soft composition can
    flip borderline signs because the softmax average is not the max.
    """
    uniform = stl.WeightMap()
    for _ in range(1000):
        beta = int(rng.integers(2, 7))
        values = rng.uniform(-3, 3, beta)
        f, trace = conjunction_with_margins(values)
        got = eval_weighted_smooth(f, uniform, trace, 0, 10.0)  # hard combine
        share = 1.0 / beta
        factors = np.where(values >= 0, 1.0 - share, share)
        transformed = factors * values
        assert got == pytest.approx(transformed.min(), abs=1e-9)
        assert np.sign(got) == np.sign(values.min()) or values.min() == 0.0
        assert np.argmin(transformed) == np.argmin(values)


def test_weighted_smooth_uniform_sign_matches_plain_off_borderline(rng):
    uniform = stl.WeightMap()
    checked = 0
    for _ in range(300):
        depth = int(rng.integers(1, 4))
        f = random_formula(rng, budget=8, n_drones=2, depth=depth)
        trace = random_trace(rng, n_drones=2, length=25)
        plain = eval_smooth(f, trace, 0, 10.0)
        if abs(plain) < math.log(25) / 10.0:
            continue  # within the smoothing band, signs are not comparable
        weighted = eval_weighted_smooth(f, uniform, trace, 0, 10.0, soft_combine=True)
        assert np.sign(weighted) == np.sign(plain)
        checked += 1
    assert checked > 100


def test_weighted_temporal_per_sample_weights():
    trace = scalar_trace([1.0, 2.0, 3.0])
    p = stl.atom(halfspace("p", offset=0.0))
    clause = stl.always(stl.Interval(0.0, 0.1), p, label="win")
    wm = stl.WeightMap({"win": [1.0, 2.0, 0.5]})
    # weighted always: min over per-sample weight * margin
    assert eval_weighted(clause, wm, trace, 0) == pytest.approx(min(1.0, 4.0, 1.5))
    soft = stl.eventually(stl.Interval(0.0, 0.1), stl.atom(halfspace("q", offset=0.0)),
                          label="soft")
    wm2 = stl.WeightMap({"soft": [5.0, 1.0, 1.0]})
    assert eval_weighted(soft, wm2, trace, 0) == pytest.approx(max(5.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# gradients


def test_gradient_softmin_partial_closed_form():
    trace = scalar_trace([0.0, 0.0])
    x = stl.atom(halfspace("x", offset=0.0))
    one = stl.atom(stl.Predicate.box_inside("one", 0, (-1e6, -1e6 + 1.0, -1e6),
                                            (1e6, 1e6, 1e6)))
    # margins are (x, y + 1e6 - ... ) careful: use y margin exactly 1 via offset
    trace.pos[0, :, 1] = 1.0 - 1e6 + 1e6  # y = 1 gives margin y - 0 = 1 with axis offset 0
    one = stl.atom(halfspace("one", offset=0.0, axis=1))
    f = stl.land(x, one)
    value, dpos, _ = gradient_smooth(f, trace, sharpness=10.0)
    expected = 1.0 / (1.0 + math.exp(-10.0))
    assert dpos[0, 0, 0] == pytest.approx(expected)


def test_gradient_zero_for_uninvolved_drone(rng):
    f = random_formula(rng, budget=8, n_drones=1, depth=3)  # only drone 0
    trace = random_trace(rng, n_drones=3, length=30)
    _, dpos, dvel = gradient_smooth(f, trace, sharpness=10.0)
    assert np.all(dpos[1:] == 0.0)
    assert np.all(dvel[1:] == 0.0)


def finite_difference_gradient(f, trace, lam, h=1e-5):
    dpos = np.zeros_like(trace.pos)
    dvel = np.zeros_like(trace.vel)
    for arr, grad in ((trace.pos, dpos), (trace.vel, dvel)):
        flat = arr.reshape(-1)
        out = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = eval_smooth(f, trace, 0, lam)
            flat[i] = original - h
            down = eval_smooth(f, trace, 0, lam)
            flat[i] = original
            out[i] = (up - down) / (2 * h)
    return dpos, dvel


def test_gradient_matches_finite_differences(rng):
    for _ in range(8):
        f = random_formula(rng, budget=6, n_drones=2, depth=2)
        trace = random_trace(rng, n_drones=2, length=10)
        value, dpos, dvel = gradient_smooth(f, trace, sharpness=5.0)
        fd_pos, fd_vel = finite_difference_gradient(f, trace, 5.0)
        scale = max(1.0, np.abs(fd_pos).max(), np.abs(fd_vel).max())
        assert np.abs(dpos - fd_pos).max() / scale < 1e-4
        assert np.abs(dvel - fd_vel).max() / scale < 1e-4


def test_weighted_gradient_matches_finite_differences(rng):
    for _ in range(4):
        f = random_formula(rng, budget=6, n_drones=2, depth=2)
        weights = stl.WeightMap({n.node_id: rng.uniform(0.5, 3.0, max(1, len(n.children)))
                                 for n in f if n.kind in (stl.AND, stl.OR)})
        trace = random_trace(rng, n_drones=2, length=10)
        _, dpos, dvel = gradient_smooth(f, trace, sharpness=5.0, weights=weights)
        h = 1e-5
        flat = trace.pos.reshape(-1)
        idx = rng.integers(0, flat.size, 25)
        for i in idx:
            original = flat[i]
            flat[i] = original + h
            up = eval_weighted_smooth(f, weights, trace, 0, 5.0, soft_combine=True)
            flat[i] = original - h
            down = eval_weighted_smooth(f, weights, trace, 0, 5.0, soft_combine=True)
            flat[i] = original
            fd = (up - down) / (2 * h)
            assert dpos.reshape(-1)[i] == pytest.approx(fd, abs=max(1e-7, 1e-4 * abs(fd)))


# ---------------------------------------------------------------------------
# reports


def test_report_breakdown_and_soundness_bound(rng):
    for _ in range(20):
        f = random_formula(rng, budget=8, n_drones=2, depth=3)
        trace = random_trace(rng, n_drones=2, length=30)
        report = make_report(f, trace, sharpness=10.0)
        assert report.satisfied == (report.exact > 0)
        assert f.node_id in report.per_node
        for node in f:
            if node.node_id not in report.per_node:
                continue
            exact, smooth = report.per_node[node.node_id]
            if node.kind == stl.AND:
                beta = len(node.children)
            elif node.kind == stl.ALWAYS:
                lo, hi = node.interval.to_steps(trace.ts)
                beta = hi - lo + 1
            else:
                continue
            assert smooth <= exact + math.log(max(beta, 2)) / 10.0 + 1e-9
        parsed = report.to_dict()
        assert set(parsed["per_node"]) == set(report.per_node)


# ---------------------------------------------------------------------------
# infinite operands


@pytest.mark.filterwarnings("error")
def test_true_under_max_and_windows_is_infinite_without_warnings():
    trace = scalar_trace([0.3, -0.2, 0.5, 1.0, 0.1])
    x = stl.atom(halfspace("x"))
    window = stl.Interval(0, 0.1)
    for f in (stl.eventually(window, stl.true()), stl.always(window, stl.true()),
              stl.lor(stl.true(), x), stl.always(window, stl.lor(stl.true(), x))):
        assert eval_exact(f, trace) == math.inf
        assert eval_smooth(f, trace) == math.inf
        assert eval_weighted_smooth(f, stl.WeightMap(), trace, soft_combine=True) == math.inf
        value, dpos, dvel = gradient_smooth(f, trace)
        assert value == math.inf
        assert not dpos.any() and not dvel.any()  # an infinite result passes no gradient
    assert eval_smooth(stl.eventually(window, stl.neg(stl.true())), trace) == -math.inf
    # a true conjunct drops out, as in the exact semantics
    both = stl.land(stl.true(), x)
    assert eval_smooth(both, trace) == eval_exact(both, trace) == 0.3
    # a false disjunct passes no gradient and leaves the other one's intact
    value, dpos, dvel = gradient_smooth(stl.lor(stl.neg(stl.true()), x), trace)
    x_value, x_dpos, x_dvel = gradient_smooth(x, trace)
    assert value == x_value == 0.3
    assert np.array_equal(dpos, x_dpos) and np.array_equal(dvel, x_dvel)
    assert smooth_max([math.inf, 1.0], 10.0) == math.inf
    assert smooth_min([math.inf, math.inf], 10.0) == math.inf
    assert smooth_min([-math.inf, 1.0], 10.0) == -math.inf
    assert smooth_max([-math.inf, 1.0], 10.0) == 1.0


# ---------------------------------------------------------------------------
# compiled programs


def test_programs_reusing_labels_evaluate_independently(rng):
    """Labels repeat across formulas; each program keeps its own nodes."""
    trace = random_trace(rng, n_drones=2, length=30)

    def clause(drone, offset):
        body = stl.land(stl.atom(halfspace("p", drone, offset)),
                        stl.atom(halfspace("q", drone, -offset, axis=1)), label="body")
        return stl.always(stl.Interval(0.0, 0.2), body, label="clause")

    formulas = [clause(0, 0.5), clause(1, -1.0)]
    programs = [Program(f, trace.ts) for f in formulas]
    for f, program in zip(formulas, programs):
        exact = eval_exact(program, trace)
        assert exact == oracle_eval(f, trace, 0, shared_leaves={})
        assert eval_smooth(program, trace) == eval_smooth(f, trace)
        report = make_report(program, trace, 10.0)
        assert report.per_node["clause"][0] == exact
        assert report.per_node["body"][0] == oracle_eval(f.children[0], trace, 0,
                                                         shared_leaves={})
    assert eval_exact(programs[0], trace) != eval_exact(programs[1], trace)


def test_program_reused_on_two_traces_matches_fresh_evaluation(rng):
    for _ in range(10):
        f = random_formula(rng, budget=8, n_drones=2, depth=3)
        weights = stl.WeightMap({node.node_id: rng.uniform(0.5, 2.0, weight_arity(node))
                                 for node in f if weight_arity(node)})
        traces = [random_trace(rng, n_drones=2, length=30) for _ in range(2)]
        program = Program(f, traces[0].ts, weights)
        for trace in traces:
            assert eval_exact(program, trace) == eval_exact(f, trace)
            assert eval_exact(program, trace) == oracle_eval(f, trace, 0, shared_leaves={})
            assert eval_smooth(program, trace) == eval_smooth(f, trace)
            assert eval_weighted(program, weights, trace) == eval_weighted(f, weights, trace)
            assert (eval_weighted_smooth(program, weights, trace, soft_combine=True)
                    == eval_weighted_smooth(f, weights, trace, soft_combine=True))
            for w in (None, weights):
                value, dpos, dvel = gradient_smooth(program, trace, 10.0, weights=w)
                fresh_value, fresh_dpos, fresh_dvel = gradient_smooth(f, trace, 10.0, weights=w)
                assert value == fresh_value
                assert np.array_equal(dpos, fresh_dpos) and np.array_equal(dvel, fresh_dvel)


def test_turbine_report_per_node_unchanged():
    """Per-node values on the bundled turbine's seed trace, pinned bit for bit.

    The expected values were recorded with the recursive tree-walking
    evaluator that the compiled program replaced.
    """
    expected = json.loads((Path(__file__).parent / "data" / "turbine_seed_report.json")
                          .read_text())
    scenario = fixture_windturbine()
    graph = build_graph(scenario)
    seed, _ = seed_with_schedule(stitch_subtours(solve_assignment(graph), graph), scenario)
    formula, weights = compile_mission(scenario)
    report = make_report(formula, seed, scenario.sharpness, weights=weights)
    per_node = [[node.kind, *report.per_node[node.node_id]] for node in formula]
    assert per_node == expected["per_node_preorder"]
    for key in ("exact", "smooth", "weighted_exact", "weighted_smooth"):
        assert getattr(report, key) == expected[key]


def test_program_rejects_other_period_or_weights(rng):
    f = random_formula(rng, budget=4, n_drones=2, depth=2)
    trace = random_trace(rng, n_drones=2, length=20)
    program = Program(f, trace.ts, stl.WeightMap())
    with pytest.raises(ValueError):
        eval_exact(program, random_trace(rng, n_drones=2, length=20, ts=0.1))
    with pytest.raises(ValueError):
        eval_weighted(program, stl.WeightMap(), trace)
