"""Batched program passes against the node-by-node passes they replaced.

The reference below is the original per-instruction forward pass and
reverse sweep of ``robustness.Program``, with its row kernels: every
window and Boolean node reduces its own (n, m) operand matrix, and window
adjoints scatter with ``np.bincount``. The batched program must give the
same value for every node and the same gradient entry, bit for bit
(``np.array_equal``, which counts +0.0 and -0.0 as equal).
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import bundled_scenario_path, robustness, stl
from stlfleet.dynamics import Trace, rollout
from stlfleet.mission import compile_mission
from stlfleet.optimizer import _VELOCITY_MARGIN_SCALE, _assigned, _augment
from stlfleet.pipeline import load_scenario
from stlfleet.robustness import (_SCALE, _SHARE, Program, _pairwise_sum, _sequential_sum,
                                 gradient_smooth, make_report)
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from conftest import random_formula, random_predicate, random_trace, weight_arity

TS = 0.05


# ---------------------------------------------------------------------------
# Reference: the per-node passes


def ref_softmin(values, lam):
    shift = values.min(axis=-1, keepdims=True)
    w = np.exp(-lam * (values - shift))
    total = w.sum(axis=-1)
    edge = np.squeeze(shift, axis=-1)
    result = edge - np.log(total) / lam
    if np.isnan(result.sum()):
        result = np.where(np.isinf(edge), edge, result)
    return result, w, total


def ref_softmax(values, lam):
    shift = values.max(axis=-1, keepdims=True)
    w = np.exp(lam * (values - shift))
    terms = values * w
    total = w.sum(axis=-1)
    result = terms.sum(axis=-1) / total
    if np.isnan(result.sum()):
        terms[np.isneginf(values)] = 0.0
        edge = np.squeeze(shift, axis=-1)
        result = np.where(np.isinf(edge), edge, terms.sum(axis=-1) / total)
    return result, w, total


def ref_softmin_partials(values, lam, w, total, result):
    partials = w / total[..., None]
    if np.isnan(total.sum()):
        partials[np.isinf(result)] = 0.0
    return partials


def ref_softmax_partials(values, lam, w, total, result):
    q = w / total[..., None]
    terms = values * q
    mean = terms.sum(axis=-1, keepdims=True)
    if not np.isnan(mean.sum()):
        return q * (1.0 + lam * (values - mean))
    dead = np.isneginf(values)
    terms[dead] = 0.0
    partials = q * (1.0 + lam * (values - terms.sum(axis=-1, keepdims=True)))
    partials[dead] = 0.0
    partials[np.isinf(result)] = 0.0
    return partials


def ref_kernels(op_red):
    if op_red.is_min:
        return np.minimum, ref_softmin, ref_softmin_partials
    return np.maximum, ref_softmax, ref_softmax_partials


def ref_weighted(operands, op, weighting):
    if weighting == _SCALE:
        return operands * op.weights, None
    if weighting == _SHARE:
        factor = op.tilt * np.where(operands >= 0.0, 1.0, -1.0) + 0.5
        return factor * operands, factor
    return operands, None


def ref_reduce(operands, red, op, lam, weighting):
    if operands.shape[-1] == 1:
        return operands[..., 0].copy()
    operands, _ = ref_weighted(operands, op, weighting)
    hard, soft, _ = ref_kernels(red)
    if lam is None:
        return hard.reduce(operands, axis=-1)
    return soft(operands, lam)[0]


def ref_partials(operands, red, op, lam, weighting):
    if operands.shape[-1] == 1:
        return np.ones_like(operands)
    operands, factor = ref_weighted(operands, op, weighting)
    _, soft, partials_of = ref_kernels(red)
    result, w, total = soft(operands, lam)
    partials = partials_of(operands, lam, w, total, result)
    return partials if factor is None else partials * factor


def ref_windows(values, lo, width, count):
    step = values.strides[0]
    return np.ndarray((count, width), values.dtype, values, lo * step, (step, step))


def ref_operand_rows(op, values, out_len):
    rows = np.empty((len(op.args), out_len))
    for r, arg in enumerate(op.args):
        rows[r] = values[arg][:out_len]
    return rows


def ref_prefix_min(values, lam):
    if lam is None:
        return np.minimum.accumulate(values)
    return -np.logaddexp.accumulate(-lam * values) / lam


def ref_until_values(op, values, out_len, lam, weighting):
    hold, goal = (values[a] for a in op.args)
    lo, hi = op.lo, op.hi
    out = np.empty(out_len)
    for t in range(out_len):
        prefix = ref_prefix_min(hold[t:t + hi + 1], lam)[lo:]
        pair = np.stack([goal[t + lo:t + hi + 1], prefix], axis=1)
        candidates = ref_reduce(pair, robustness._MIN, op, lam, None)
        out[t] = ref_reduce(candidates[None, :], op.red, op, lam, weighting)[0]
    return out


def ref_until_backprop(op, values, adjoint, adjoints, lam, weighting):
    hold, goal = (values[a] for a in op.args)
    lo, hi = op.lo, op.hi
    hold_adj = np.zeros(len(hold))
    goal_adj = np.zeros(len(goal))
    mask = np.arange(hi + 1)[None, :] <= (lo + np.arange(hi - lo + 1))[:, None]
    for t in np.nonzero(adjoint)[0]:
        seg = hold[t:t + hi + 1]
        log_cum = np.logaddexp.accumulate(-lam * seg)
        prefix = (-log_cum / lam)[lo:]
        pair = np.stack([goal[t + lo:t + hi + 1], prefix], axis=1)
        pair_partials = ref_partials(pair, robustness._MIN, op, lam, None)
        candidates = ref_reduce(pair, robustness._MIN, op, lam, None)
        outer = ref_partials(candidates[None, :], op.red, op, lam, weighting)
        contrib = adjoint[t] * outer[0]
        goal_adj[t + lo:t + hi + 1] += contrib * pair_partials[:, 0]
        spread = contrib * pair_partials[:, 1]
        live = mask & np.isfinite(seg)[None, :] & np.isfinite(log_cum[lo:])[:, None]
        exponent = (-lam * seg)[None, :] - log_cum[lo:, None]
        hold_adj[t:t + hi + 1] += spread @ np.exp(np.where(live, exponent, -np.inf))
    adjoints[op.args[0]] = hold_adj
    adjoints[op.args[1]] = goal_adj


@np.errstate(invalid="ignore")
def ref_forward(program, trace, lam, weighting, atom_data=None):
    length = trace.n_samples
    values = [None] * len(program.ops)
    for group, indices in program.groups:
        rows, data = group.forward(trace, keep=atom_data is not None)
        for index, row in zip(indices, rows):
            values[index] = row
        if atom_data is not None:
            atom_data[group] = data
    for index, op in enumerate(program.ops):
        out_len = length - op.steps
        kind = op.kind
        if kind == stl.ATOM:
            continue
        if kind == stl.TRUE:
            value = np.full(out_len, np.inf)
        elif kind == stl.NOT:
            value = -values[op.args[0]]
        elif kind in (stl.AND, stl.OR):
            rows = ref_operand_rows(op, values, out_len)
            value = ref_reduce(rows.T, op.red, op, lam, weighting)
        elif kind in (stl.ALWAYS, stl.EVENTUALLY):
            windows = ref_windows(values[op.args[0]], op.lo, op.width, out_len)
            value = ref_reduce(windows, op.red, op, lam, weighting)
        elif kind == stl.NEXT:
            succ = op.lo + 1
            value = values[op.args[0]][succ:succ + out_len].copy()
        else:
            value = ref_until_values(op, values, out_len, lam, weighting)
        values[index] = value
    return values


@np.errstate(invalid="ignore")
def ref_gradient(program, trace, lam, weighting, t_index=0):
    atom_data = {}
    values = ref_forward(program, trace, lam, weighting, atom_data)
    value = float(values[-1][t_index])
    adjoints = [None] * len(program.ops)
    adjoints[-1] = np.zeros(len(values[-1]))
    adjoints[-1][t_index] = 1.0
    for index in range(len(program.ops) - 1, -1, -1):
        op = program.ops[index]
        if op.kind in (stl.ATOM, stl.TRUE):
            continue
        adjoint = adjoints[index]
        if op.kind == stl.NOT:
            adjoints[op.args[0]] = -adjoint
        elif op.kind in (stl.AND, stl.OR):
            out_len = len(adjoint)
            rows = ref_operand_rows(op, values, out_len)
            partials = ref_partials(rows.T, op.red, op, lam, weighting)
            for r, arg in enumerate(op.args):
                full = np.zeros(len(values[arg]))
                full[:out_len] = adjoint * partials[:, r]
                adjoints[arg] = full
        elif op.kind in (stl.ALWAYS, stl.EVENTUALLY):
            out_len = len(adjoint)
            windows = ref_windows(values[op.args[0]], op.lo, op.width, out_len)
            partials = ref_partials(windows, op.red, op, lam, weighting)
            idx = np.arange(out_len)[:, None] + op.lo + np.arange(op.width)[None, :]
            adjoints[op.args[0]] = np.bincount(
                idx.ravel(), weights=(adjoint[:, None] * partials).ravel(),
                minlength=len(values[op.args[0]]))
        elif op.kind == stl.NEXT:
            succ = op.lo + 1
            full = np.zeros(len(values[op.args[0]]))
            full[succ:succ + len(adjoint)] = adjoint
            adjoints[op.args[0]] = full
        else:
            ref_until_backprop(op, values, adjoint, adjoints, lam, weighting)
    entries = {}
    n_drones, length, _ = trace.pos.shape
    for group, indices in program.groups:
        adjoint = np.stack([adjoints[index] for index in indices])
        blocks = group.state_blocks(atom_data[group], adjoint)
        flat, amounts = block_entries(group, blocks, n_drones, length)
        entries.update(zip(indices, zip(flat, amounts)))
    grad = np.zeros(2 * n_drones * length * 3)
    if program.leaves:
        grad = np.bincount(np.concatenate([entries[i][0] for i in program.leaves]),
                           weights=np.concatenate([entries[i][1] for i in program.leaves]),
                           minlength=grad.size)
    grad = grad.reshape(2 * n_drones, length, 3)
    return value, grad[:n_drones], grad[n_drones:]


def block_entries(group, blocks, n_drones, length):
    """Per-atom (flat index, amount) entries, one row per atom, of an atom
    group's dense state blocks, its blocks in order."""
    flat = [((state * n_drones + drones)[:, None] * length + np.arange(length))[..., None] * 3
            + np.arange(3) for state, drones in group.blocks_of]
    return (np.concatenate([f.reshape(len(f), -1) for f in flat], axis=1),
            np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1))


# ---------------------------------------------------------------------------
# Generated formulas with same-shaped siblings


def sibling_formula(rng, n_drones, width, lo, siblings, with_true):
    """A random formula conjoined with sibling windows and Boolean nodes that
    share one shape, so the compiled program batches K > 1 nodes. The
    siblings sit inside outer windows, so their adjoints are nonzero at
    many samples and the order of the window scatter-adds shows."""
    interval = stl.Interval(lo * TS, (lo + width - 1) * TS)
    outer = stl.Interval(0.0, int(rng.integers(1, 8)) * TS)
    temporal = stl.always if rng.random() < 0.5 else stl.eventually
    combine = stl.land if rng.random() < 0.5 else stl.lor
    arity = int(rng.integers(2, 5))

    def leaf():
        node = stl.atom(random_predicate(rng, n_drones))
        if with_true and rng.random() < 0.25:
            return stl.true() if rng.random() < 0.5 else stl.neg(stl.true())
        return stl.neg(node) if rng.random() < 0.3 else node

    def nest(node):
        return stl.eventually(outer, stl.always(outer, node))

    windows = [nest(temporal(interval, leaf())) for _ in range(siblings)]
    booleans = [nest(combine(*[leaf() for _ in range(arity)])) for _ in range(siblings)]
    # windows over Boolean nodes batch at the next depth
    stacked = [temporal(interval, combine(*[leaf() for _ in range(arity)])) for _ in range(2)]
    base = random_formula(rng, 8, n_drones)
    return stl.land(base, *windows, *booleans, *stacked)


def random_weights(rng, formula):
    weights = stl.WeightMap()
    for node in formula:
        arity = weight_arity(node)
        if arity and rng.random() < 0.7:
            weights.set(node.node_id, rng.uniform(0.2, 3.0, arity))
    return weights


def assert_values_equal(program, got, want):
    assert len(got) == len(want)
    for index, w in enumerate(want):
        assert np.array_equal(program.node(got, index), w, equal_nan=True), f"instruction {index}"


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 24), lo=st.integers(0, 3),
       siblings=st.integers(2, 4), extra=st.integers(0, 60), with_true=st.booleans())
@example(seed=1, width=21, lo=0, siblings=3, extra=0, with_true=False)     # n < width
@example(seed=2, width=21, lo=0, siblings=3, extra=50, with_true=False)    # n >= width
@example(seed=3, width=9, lo=1, siblings=4, extra=30, with_true=True)
@example(seed=4, width=1, lo=2, siblings=2, extra=5, with_true=True)
def test_batched_passes_match_node_by_node(seed, width, lo, siblings, extra, with_true):
    check_batched_passes(seed, width, lo, siblings, extra, with_true)


def check_batched_passes(seed, width, lo, siblings, extra, with_true):
    rng = np.random.default_rng(seed)
    n_drones = int(rng.integers(1, 4))
    formula = sibling_formula(rng, n_drones, width, lo, siblings, with_true)
    weights = random_weights(rng, formula)
    program = Program(formula, TS, weights)
    # the sibling windows see n = extra + 1 outputs, below and above their width
    length = max(program.ops[-1].steps + 1, lo + width + extra)
    trace = random_trace(rng, n_drones=n_drones, length=length)
    lam = float(rng.choice([0.7, 4.0, 25.0]))

    for lam_pass, weighting in ((None, None), (lam, None), (None, _SCALE),
                                (lam, _SHARE), (None, _SHARE)):
        got = program._forward(trace, lam_pass, weighting)
        assert_values_equal(program, got, ref_forward(program, trace, lam_pass, weighting))

    t_index = int(rng.integers(0, length - program.ops[-1].steps))
    for weighting in (None, _SHARE):
        value, dpos, dvel = program._gradient(trace, lam, weighting, t_index)
        ref_value, ref_dpos, ref_dvel = ref_gradient(program, trace, lam, weighting, t_index)
        assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))
        assert np.array_equal(dpos, ref_dpos, equal_nan=True)
        assert np.array_equal(dvel, ref_dvel, equal_nan=True)

    report = make_report(program, trace, lam, weights=weights)
    exact = ref_forward(program, trace, None, None)
    smooth = ref_forward(program, trace, lam, None)
    for node_id, index in program.labels:
        assert report.per_node[node_id] == (float(exact[index][0]), float(smooth[index][0]))
    assert report.weighted_exact == float(ref_forward(program, trace, None, _SCALE)[-1][0])
    # the report's weighted smooth value combines hard over the transformed operands
    assert report.weighted_smooth == float(ref_forward(program, trace, None, _SHARE)[-1][0])


def test_siblings_batch_together(rng):
    program = Program(sibling_formula(rng, 2, 21, 0, 3, False), TS)
    most = {}
    for batch in program.batches:
        most[batch.kind] = max(most.get(batch.kind, 0), len(batch.indices))
    assert max(most.get(stl.ALWAYS, 0), most.get(stl.EVENTUALLY, 0)) >= 2
    assert max(most.get(stl.AND, 0), most.get(stl.OR, 0)) >= 2


# ---------------------------------------------------------------------------
# The summation orders the slab kernels reproduce


def as_slabs(rows):
    """(K, n, m) rows as the C-contiguous (m, K, n) slab terms a kernel sums."""
    return np.ascontiguousarray(rows.transpose(2, 0, 1))


@pytest.mark.parametrize("nodes", [1, 3, 8])
def test_pairwise_sum_matches_numpy_row_sum(nodes):
    rng = np.random.default_rng(7)
    for width in range(1, 301):
        rows = rng.standard_normal((nodes, 6, width)) * np.exp(
            rng.uniform(-30, 30, (nodes, 6, width)))
        rows[:, 1] = -0.0
        rows[:, 2, ::2] = 0.0
        rows[:, 3] = -rows[:, 3]
        got = _pairwise_sum(as_slabs(rows))
        want = rows.sum(axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), width


@pytest.mark.parametrize("nodes", [1, 3, 64])
def test_sequential_sum_matches_numpy_column_sum(nodes):
    rng = np.random.default_rng(8)
    for arity in range(2, 41):
        for n in (2, 3, 17, 241):
            rows = rng.standard_normal((nodes, n, arity)) * np.exp(
                rng.uniform(-30, 30, (nodes, n, arity)))
            rows[:, 0] = -0.0
            rows[:, 1, 0] = -0.0
            # each node's (n, m) operand matrix stored by columns
            want = np.stack([np.asfortranarray(node).sum(axis=-1) for node in rows])
            got = _sequential_sum(as_slabs(rows))
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (arity, n)


def same_bits(got, want):
    """Equal bit for bit, +0.0 and -0.0 apart; any NaN equals any NaN."""
    got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nodes=st.integers(1, 4), width=st.integers(2, 24),
       extra=st.integers(0, 40), lo=st.integers(0, 3), is_min=st.booleans(),
       weighted=st.booleans(), special=st.sampled_from([0.0, 0.05, 0.3]))
@example(seed=0, nodes=3, width=21, extra=220, lo=0, is_min=True, weighted=False, special=0.05)
@example(seed=1, nodes=2, width=9, extra=0, lo=1, is_min=False, weighted=True, special=0.3)
def test_slab_gradients_match_row_kernels(seed, nodes, width, extra, lo, is_min, weighted,
                                          special):
    # a window batch with n >= m runs as slabs: its forward pass tapes the
    # exponential weights, its reverse sweep turns them into partials in
    # place and scatters them in one reduction; the row kernels, node by
    # node with a bincount scatter, must give the same bits. Operands are
    # +-inf (as ``true`` gives) or +-0.0 with probability ``special``, and
    # adjoints are +-0.0 as often
    rng = np.random.default_rng(seed)
    temporal = stl.always if is_min else stl.eventually
    interval = stl.Interval(lo * TS, (lo + width - 1) * TS)
    windows = [temporal(interval, stl.atom(random_predicate(rng, 1))) for _ in range(nodes)]
    weights = (stl.WeightMap({w.node_id: rng.uniform(0.2, 3.0, width) for w in windows})
               if weighted else None)
    program = Program(stl.land(*windows), TS, weights)
    batch = next(batch for batch in program.batches if batch.window)
    n = width + extra
    lam = float(rng.choice([0.7, 4.0, 25.0]))
    weighting = _SHARE if weighted else None

    def sprinkle(row, choices):
        pick = rng.random(row.shape) < special
        row[pick] = rng.choice(choices, size=int(pick.sum()))
        return row

    # the pass's value and adjoint arrays; values(i) and adjoints(i) view
    # instruction i's row up to its own length
    value_array, adjoint_array = np.zeros((2, len(program.ops), n + batch.steps))
    values, adjoints = partial(program.node, value_array), partial(program.node, adjoint_array)
    for index, (arg,) in zip(batch.indices, batch.args):
        values(arg)[:] = sprinkle(rng.standard_normal(n + batch.hi) * 10.0 ** rng.integers(-3, 3),
                                  [np.inf, -np.inf, 0.0, -0.0])
        adjoints(index)[:] = sprinkle(rng.standard_normal(n), [0.0, -0.0])
    tape = {}
    with np.errstate(invalid="ignore"):
        batch.forward(value_array, lam, weighting, tape)
        assert isinstance(tape[batch][3], np.ndarray)  # the taped weights
        batch.backward(value_array, adjoint_array, lam, weighting, tape)

    soft, partials_of = ((ref_softmin, ref_softmin_partials) if is_min
                         else (ref_softmax, ref_softmax_partials))
    for index, (arg,) in zip(batch.indices, batch.args):
        rows = ref_windows(values(arg), lo, width, n)
        factor = None
        if weighted:
            factor = robustness._share_factor(rows, program.ops[index].tilt)
            rows = factor * rows
        with np.errstate(invalid="ignore"):
            result, w, total = soft(rows, lam)
            partials = partials_of(rows, lam, w, total, result)
        if factor is not None:
            partials = partials * factor
        # only the sign of a zero extreme may differ
        assert np.array_equal(values(index), result, equal_nan=True)
        contributions = partials * adjoints(index)[:, None]
        spots = np.arange(n)[:, None] + lo + np.arange(width)[None, :]
        want = np.bincount(spots.ravel(), weights=contributions.ravel(),
                           minlength=n + batch.hi)
        assert same_bits(adjoints(arg), want)


# ---------------------------------------------------------------------------
# The reverse paths of Boolean batches and of row batches


def assert_gradients_match(program, trace, lam, t_index=0):
    for weighting in (None, _SHARE):
        value, dpos, dvel = program._gradient(trace, lam, weighting, t_index)
        ref_value, ref_dpos, ref_dvel = ref_gradient(program, trace, lam, weighting, t_index)
        assert value == ref_value
        assert np.array_equal(dpos, ref_dpos) and np.array_equal(dvel, ref_dvel)


@pytest.mark.parametrize("seed", range(6))
def test_boolean_batch_with_operands_of_unequal_length(seed):
    # each Boolean node conjoins operands of L, L - 3 and L - 5 samples, so
    # their adjoints are views of unequal length into one shared buffer
    rng = np.random.default_rng(seed)
    kind, combine = (stl.AND, stl.land) if seed % 2 else (stl.OR, stl.lor)
    outer = stl.Interval(0.0, int(rng.integers(0, 4)) * TS)

    def leaf():
        return stl.atom(random_predicate(rng, 2))

    def node():
        return combine(leaf(), stl.always(stl.Interval(0.0, 3 * TS), leaf()),
                       stl.eventually(stl.Interval(TS, 5 * TS), leaf()))

    formula = stl.land(*[stl.eventually(outer, node()) for _ in range(3)])
    program = Program(formula, TS, random_weights(rng, formula))
    unequal = [batch for batch in program.batches if batch.kind == kind
               and len(batch.indices) > 1
               and len({program.ops[a].steps for a in batch.args[0]}) > 1]
    assert unequal
    steps = program.ops[-1].steps
    for length in (steps + 1, steps + 30):  # n < m and n >= m for the Boolean batch
        trace = random_trace(rng, n_drones=2, length=length)
        assert_gradients_match(program, trace, float(rng.choice([0.7, 4.0, 25.0])))


@pytest.mark.parametrize("seed", range(4))
def test_row_batches_under_weighted_smooth_pass(seed):
    # 20 windows of 21 samples over a trace of 23 give window batches with
    # n = 3 < 21 and a root of 20 operands with n = 3: every reducing batch
    # reduces rows and tapes its reduction with its share factor
    rng = np.random.default_rng(100 + seed)
    interval = stl.Interval(0.0, 20 * TS)
    windows = [(stl.always if rng.random() < 0.5 else stl.eventually)(
        interval, stl.atom(random_predicate(rng, 2))) for _ in range(20)]
    formula = stl.land(*windows)
    program = Program(formula, TS, random_weights(rng, formula))
    trace = random_trace(rng, n_drones=2, length=23)
    lam = float(rng.choice([0.7, 4.0, 25.0]))
    program._forward(trace, lam, _SHARE)
    reducing = [batch for batch in program.batches if batch.reduces]
    assert reducing and all(3 < batch.arity for batch in reducing)
    # taped terms laid out by rows: (K, n, m) for windows, (K, m, n) for Booleans
    assert all(program._kept[2][batch][3].transpose((1, 2, 0) if batch.window else (1, 0, 2))
               .flags.c_contiguous for batch in reducing)
    assert_gradients_match(program, trace, lam, t_index=int(rng.integers(0, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_boolean_batch_at_one_sample(seed):
    # 3 Boolean nodes of 11 operands each over windows that reach the last
    # sample, so n = 1: numpy sums each node's single row of 11 terms
    # pairwise, not one operand after another as it does where n >= 2
    rng = np.random.default_rng(200 + seed)
    kind, combine = (stl.AND, stl.land) if seed % 2 else (stl.OR, stl.lor)
    width = int(rng.integers(3, 10))
    interval = stl.Interval(0.0, width * TS)

    def window():
        temporal = stl.always if rng.random() < 0.5 else stl.eventually
        return temporal(interval, stl.atom(random_predicate(rng, 2)))

    formula = stl.land(*[combine(*[window() for _ in range(11)]) for _ in range(3)])
    program = Program(formula, TS, random_weights(rng, formula))
    trace = random_trace(rng, n_drones=2, length=width + 1)
    assert any(batch.kind == kind and (len(batch.indices), batch.arity) == (3, 11)
               and trace.n_samples - batch.steps == 1 for batch in program.batches)
    lam = float(rng.choice([0.7, 4.0, 25.0]))
    for lam_pass, weighting in ((None, None), (lam, None), (None, _SCALE), (lam, _SHARE)):
        assert_values_equal(program, program._forward(trace, lam_pass, weighting),
                            ref_forward(program, trace, lam_pass, weighting))
    assert_gradients_match(program, trace, lam)


# ---------------------------------------------------------------------------
# One value array per pass


@pytest.mark.parametrize("seed", range(4))
def test_pass_values_survive_later_passes(seed):
    # each pass writes a fresh array, so the values one pass returned stay
    # as they were after later exact, smooth, weighted and gradient passes
    rng = np.random.default_rng(300 + seed)
    formula = sibling_formula(rng, 2, 9, 1, 3, seed % 2 == 1)
    weights = random_weights(rng, formula)
    program = Program(formula, TS, weights)
    length = program.ops[-1].steps + 20
    trace, other = (random_trace(rng, n_drones=2, length=length) for _ in range(2))
    lam = 4.0
    passes = [[program.node(values, i) for i in range(len(program.ops))] for values in
              (program._forward(trace), program._forward(trace, lam),
               program._forward(trace, lam, _SHARE))]
    for values in passes:
        # each instruction's array has its own length
        assert [len(v) for v in values] == [length - op.steps for op in program.ops]
    kept = [[v.copy() for v in values] for values in passes]
    program._gradient(trace, lam)
    program._forward(other)
    program._forward(other, lam)
    program._gradient(other, lam, _SHARE)
    make_report(program, other, lam, weights=weights)
    for values, copies in zip(passes, kept):
        assert all(v.tobytes() == c.tobytes() for v, c in zip(values, copies))
    # a report's exact values survive its own smooth pass
    t_index = int(rng.integers(0, length - program.ops[-1].steps))
    report = make_report(program, trace, lam, t_index=t_index)
    for node_id, index in program.labels:
        if t_index < len(kept[0][index]):
            assert report.per_node[node_id] == (float(kept[0][index][t_index]),
                                                float(kept[1][index][t_index]))


BOX_KINDS = {stl.BOX_INSIDE: stl.Predicate.box_inside, stl.BOX_OUTSIDE: stl.Predicate.box_outside,
             stl.VELOCITY_BOX: stl.Predicate.velocity_box}


def ref_box_entries(group, trace, adjoint, n_drones):
    """Box gradient entries with the face of each sample picked by argmin over
    the (K, 6, L) face margins: the first face of least margin, NaN first."""
    state = trace.vel if group.kind == stl.VELOCITY_BOX else trace.pos
    coords = state[group.drones].transpose(0, 2, 1)
    margins = np.stack([coords[:, f // 2] - group.lo[:, f // 2] if f % 2 == 0
                        else group.hi[:, f // 2] - coords[:, f // 2] for f in range(6)], axis=1)
    active = np.argmin(margins, axis=1)
    rows = group.drones + (n_drones if group.kind == stl.VELOCITY_BOX else 0)
    length = active.shape[1]
    index = (rows[:, None] * length + np.arange(length)) * 3 + active // 2
    return index, group.face_sign[active] * (group.scale * adjoint)


def dense_box_blocks(index, amounts, n_drones):
    """The state rows and dense (K, L, 3) blocks of box entries: each
    amount on its face's axis, +0.0 on the others."""
    length = index.shape[1]
    rows, cell = np.divmod(index, 3 * length)
    assert (rows == rows[:, :1]).all()
    blocks = np.zeros((len(index), 3 * length))
    np.put_along_axis(blocks, cell, amounts, axis=1)
    return rows[:, 0], blocks.reshape(len(index), length, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(BOX_KINDS)),
       nan=st.booleans(), length=st.integers(2, 30))
@example(seed=0, kind=stl.BOX_INSIDE, nan=False, length=12)
@example(seed=1, kind=stl.BOX_OUTSIDE, nan=True, length=12)
def test_box_faces_with_ties_zeros_and_nan(seed, kind, nan, length):
    # box faces are picked by compares and selects, and by a second, NaN-aware
    # run where a margin is NaN; coordinates on a small dyadic grid tie faces
    # and hit the bounds exactly, as +0.0 or -0.0 margins
    rng = np.random.default_rng(seed)
    n_drones = 2
    preds = []
    for i in range(int(rng.integers(1, 5))):
        lo = rng.choice([-2.0, -1.0, -0.0, 0.0], 3)
        preds.append(BOX_KINDS[kind](f"b{i}", int(rng.integers(n_drones)), lo,
                                     lo + rng.choice([1.0, 2.0, 3.0], 3)))
    grid = [-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    pos, vel = (rng.choice(grid, (n_drones, length, 3)) for _ in range(2))
    if nan:
        state = vel if kind == stl.VELOCITY_BOX else pos
        state[preds[0].subject[0], int(rng.integers(length)), int(rng.integers(3))] = np.nan
    trace = Trace(TS, pos, vel, np.zeros((n_drones, length - 1, 3)))
    width = int(rng.integers(0, length))
    formula = stl.land(*[(stl.always if rng.random() < 0.5 else stl.eventually)(
        stl.Interval(0.0, width * TS), stl.atom(pred)) for pred in preds])
    program = Program(formula, TS)
    (group, indices), = program.groups
    adjoint = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], (len(indices), length))
    (got,) = group.state_blocks(group.forward(trace, keep=True)[1], adjoint)
    want = dense_box_blocks(*ref_box_entries(group, trace, adjoint, n_drones), n_drones)
    ((state, drones),) = group.blocks_of
    assert np.array_equal(state * n_drones + drones, want[0])
    assert np.array_equal(got.view(np.int64), want[1].view(np.int64))
    lam = float(rng.choice([0.7, 4.0, 25.0]))
    with np.errstate(invalid="ignore"):
        value, dpos, dvel = program._gradient(trace, lam)
        ref_value, ref_dpos, ref_dvel = ref_gradient(program, trace, lam, None)
    assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))
    assert np.array_equal(dpos, ref_dpos, equal_nan=True)
    assert np.array_equal(dvel, ref_dvel, equal_nan=True)


# ---------------------------------------------------------------------------
# The state gradient, bit for bit


def ref_atom_entries(pred, trace, adjoint, n_drones):
    """One atom's state gradient entries (flat index, amount), from its
    predicate alone: a box's face by argmin, a distance's unit vector by a
    masked divide that is zero where the distance is not positive."""
    length = trace.n_samples

    def block(row):
        return (row * length + np.arange(length))[:, None] * 3 + np.arange(3)

    if pred.kind in BOX_KINDS:
        index, amounts = ref_box_entries(robustness._Boxes([pred]), trace, adjoint[None], n_drones)
        return index[0], amounts[0]
    if pred.kind == stl.MIN_SEPARATION:
        offset = trace.pos[pred.subject[0]] - trace.pos[pred.subject[1]]
    else:
        start = np.array(pred.seg_start)
        offset = stl.segment_offsets(trace.pos[pred.subject][None], start[None],
                                     (np.array(pred.seg_end) - start)[None])[0]
    dist = np.linalg.norm(offset, axis=1)
    sign = 1.0
    if pred.kind == stl.SEGMENT_BAND:  # d margin / d dist of the binding band side
        inner, outer = pred.standoff - pred.tolerance, pred.standoff + pred.tolerance
        sign = np.where(dist - inner <= outer - dist, 1.0, -1.0)
    unit = np.divide(offset, dist[:, None], out=np.zeros_like(offset), where=dist[:, None] > 0)
    push = ((pred.scale * adjoint) * sign)[:, None] * unit
    pushes = [push, -push][:len(pred.subject)]
    return (np.concatenate([block(d).ravel() for d in pred.subject]),
            np.concatenate([p.ravel() for p in pushes]))


def kept_atom_adjoints(program):
    """The adjoint row each atom's gradient is formed from, as the program's
    sweep hands them to the atom groups."""
    kept = {}
    for group, indices in program.groups:
        def keep(aux, adjoint, state_blocks=group.state_blocks, indices=indices):
            kept.update(zip(indices, adjoint.copy()))
            return state_blocks(aux, adjoint)
        group.state_blocks = keep
    return kept


def assert_state_gradient_bits(program, trace, lam):
    """gradient_smooth's state gradient is a leaf-order bincount of the
    atoms' entries, bit for bit: zeros keep their sign, and a NaN stays NaN
    (IEEE 754 leaves open which NaN operand a sum passes on)."""
    adjoints = kept_atom_adjoints(program)
    with np.errstate(invalid="ignore"):
        _, dpos, dvel = gradient_smooth(program, trace, lam)
        n_drones, length, _ = trace.pos.shape
        flat, amounts = zip(*(ref_atom_entries(program._preds[i], trace, adjoints[i], n_drones)
                              for i in program.leaves))
    want = np.bincount(np.concatenate(flat), np.concatenate(amounts), 2 * n_drones * length * 3)
    want = want.reshape(2 * n_drones, length, 3)
    got = np.concatenate([dpos, dvel])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def assert_state_blocks_bits(program, trace, rng):
    """Each group's dense blocks hold its atoms' entries bit for bit, and
    +0.0 everywhere else, under adjoints with zeros of either sign."""
    n_drones, length, _ = trace.pos.shape

    def image(flat, amounts):
        state = np.zeros(2 * n_drones * length * 3)
        state[flat] = amounts
        return state.view(np.int64)

    with np.errstate(invalid="ignore"):
        for group, indices in program.groups:
            adjoint = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], (len(indices), length))
            blocks = group.state_blocks(group.forward(trace, keep=True)[1], adjoint)
            for k, (flat, amounts) in enumerate(zip(*block_entries(
                    group, blocks, n_drones, length))):
                want = ref_atom_entries(program._preds[indices[k]], trace, adjoint[k], n_drones)
                assert np.array_equal(image(flat, amounts), image(*want))


def test_state_gradient_bits_on_the_bundled_objective(rng):
    scenario = load_scenario(bundled_scenario_path("windturbine_mock"))
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    formula, _ = compile_mission(scenario)
    objective = Program(_augment(_assigned(formula, Program(formula, seed.ts), seed),
                                 seed.n_samples, seed.ts, scenario.limits,
                                 _VELOCITY_MARGIN_SCALE), seed.ts)
    assert {pred.kind for pred in objective._preds.values()} >= set(BOX_KINDS) - {
        stl.BOX_OUTSIDE}
    acc = seed.acc + rng.normal(scale=0.5, size=seed.acc.shape)
    for trace in (seed, rollout(seed.pos[:, 0], seed.vel[:, 0], acc, seed.ts)):
        assert_state_gradient_bits(objective, trace, scenario.sharpness)


def test_state_gradient_where_a_distance_underflows():
    # 1e-170 squared underflows: the distance is 0, so the unit vector is
    # zero, and no division warns
    pos = np.zeros((2, 5, 3))
    pos[1, :, 0] = 1e-170
    trace = Trace(TS, pos, np.zeros_like(pos), np.zeros((2, 4, 3)))
    near = stl.Predicate.min_separation("s", 0, 1, 0.5)
    band = stl.Predicate.segment_band("g", 1, [0.0, -1.0, 0.0], [0.0, 1.0, 0.0], 1.0, 0.5)
    program = Program(stl.always(stl.Interval(0.0, 2 * TS), stl.land(stl.atom(near),
                                                                      stl.atom(band))), TS)
    assert_state_gradient_bits(program, trace, 10.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_drones=st.integers(1, 3), grid=st.booleans(),
       coincide=st.booleans(), nan=st.booleans())
@example(seed=0, n_drones=2, grid=False, coincide=True, nan=False)
@example(seed=1, n_drones=3, grid=True, coincide=False, nan=True)
def test_state_gradient_bits_on_small_programs(seed, n_drones, grid, coincide, nan):
    # every atom kind; two drones that coincide (distance 0); coordinates on
    # a dyadic grid that tie faces and zero margins; one NaN coordinate,
    # which sends box faces through argmin
    rng = np.random.default_rng(seed)
    atoms = [random_predicate(rng, n_drones) for _ in range(int(rng.integers(2, 7)))]
    lo = rng.choice([-1.0, -0.0, 0.0], 3)
    atoms += [BOX_KINDS[kind](f"b{kind}", int(rng.integers(n_drones)), lo, lo + 1.0)
              for kind in sorted(BOX_KINDS)]
    if n_drones > 1:
        atoms.append(stl.Predicate.min_separation("sep", 0, 1, 0.5))
    formula = stl.land(random_formula(rng, 6, n_drones, depth=2), *[
        (stl.always if rng.random() < 0.5 else stl.eventually)(
            stl.Interval(0.0, int(rng.integers(0, 4)) * TS), stl.atom(pred)) for pred in atoms])
    program = Program(formula, TS)
    trace = random_trace(rng, n_drones=n_drones, length=program.ops[-1].steps + 1 + 6)
    if grid:
        trace.pos[:] = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], trace.pos.shape)
        trace.vel[:] = rng.choice([-1.0, -0.0, 0.0, 1.0], trace.vel.shape)
    if coincide and n_drones > 1:
        trace.pos[1, ::2] = trace.pos[0, ::2]
    if nan:
        state = trace.vel if rng.random() < 0.5 else trace.pos
        state[int(rng.integers(n_drones)), int(rng.integers(trace.n_samples)),
              int(rng.integers(3))] = np.nan
    assert_state_blocks_bits(program, trace, rng)
    assert_state_gradient_bits(program, trace, float(rng.choice([0.7, 4.0, 25.0])))


# ---------------------------------------------------------------------------
# One finiteness decision per pass


def check_pass_against_references(program, trace, lam, weighting, finite):
    """A taped pass decides ``finite`` once, and its values and gradient are
    bit for bit the node-by-node references on either path."""
    assert_values_equal(program, program._forward(trace, lam, weighting),
                        ref_forward(program, trace, lam, weighting))
    assert program._kept[3] is finite
    value, dpos, dvel = program._gradient(trace, lam, weighting)
    ref_value, ref_dpos, ref_dvel = ref_gradient(program, trace, lam, weighting)
    assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))
    assert np.array_equal(dpos, ref_dpos, equal_nan=True)
    assert np.array_equal(dvel, ref_dvel, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
@example(seed=5, weighted=False)
def test_finite_passes_skip_probes_and_match_references(seed, weighted):
    # random formulas never hold true; finite traces and a moderate sharpness
    # make every pass known finite unless the program has an Until
    rng = np.random.default_rng(seed)
    n_drones = int(rng.integers(1, 4))
    formula = random_formula(rng, 12, n_drones)
    weights = random_weights(rng, formula) if weighted else None
    program = Program(formula, TS, weights)
    trace = random_trace(rng, n_drones=n_drones, length=program.ops[-1].steps + 1 + 8)
    lam = float(rng.choice([0.7, 4.0, 25.0, 1e3]))
    finite = all(op.kind != stl.UNTIL for op in program.ops)
    check_pass_against_references(program, trace, lam, _SHARE if weighted else None, finite)


def _window_program(length, leaf=None):
    """eventually over a window of ``length`` samples of always over a
    conjunction, so a pass has reductions of every arity class."""
    box = stl.Predicate.box_inside("b", 0, [-5.0, -5.0, -5.0], [5.0, 5.0, 5.0])
    far = stl.Predicate.box_outside("o", 1, [4.0, 4.0, 4.0], [5.0, 5.0, 5.0])
    near = stl.Predicate.min_separation("s", 0, 1, 0.5)
    body = stl.land(stl.atom(box), stl.lor(stl.atom(far), leaf or stl.atom(near)))
    return Program(stl.eventually(stl.Interval(0.0, (length - 1) * TS),
                                  stl.always(stl.Interval(0.0, 2 * TS), body)), TS)


@pytest.mark.parametrize("case", ["true", "inf", "nan", "tiny-lambda"])
def test_passes_not_known_finite_take_the_checked_path(case, rng):
    length = 210
    program = _window_program(length, stl.true() if case == "true" else None)
    trace = random_trace(rng, n_drones=2, length=length + 2)
    if case in ("inf", "nan"):
        trace.pos[0, 17, 1] = np.inf if case == "inf" else np.nan
    lam = 1e-308 if case == "tiny-lambda" else 4.0
    # 1e-308 is below robustness.MIN_SHARPNESS, so only a program's own
    # passes take it: ln(m) / lam overflows to inf in the kernels
    with np.errstate(over="ignore", divide="ignore"):
        check_pass_against_references(program, trace, lam, None, False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(BOX_KINDS)),
       nan=st.booleans(), length=st.integers(2, 30))
@example(seed=2, kind=stl.BOX_OUTSIDE, nan=False, length=12)
def test_box_fold_matches_sequential_fold(seed, kind, nan, length):
    # the faces fold per axis, then over axes; on coordinates that tie faces
    # and hit bounds as +-0.0, with NaNs of either sign, every margin keeps
    # the bits of the fold p_x - lo_x, hi_x - p_x, p_y - lo_y, ... in order,
    # and a taping pass picks the face argmin picks, a NaN margin's included
    rng = np.random.default_rng(seed)
    preds = []
    for i in range(int(rng.integers(1, 5))):
        lo = rng.choice([-2.0, -1.0, -0.0, 0.0], 3)
        preds.append(BOX_KINDS[kind](f"b{i}", int(rng.integers(2)), lo,
                                     lo + rng.choice([1.0, 2.0, 3.0], 3)))
    grid = [-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    pos, vel = (rng.choice(grid, (2, length, 3)) for _ in range(2))
    if nan:
        for sign in (1.0, -1.0):
            state = vel if kind == stl.VELOCITY_BOX else pos
            state[preds[0].subject[0], int(rng.integers(length)),
                  int(rng.integers(3))] = np.copysign(np.nan, sign)
    trace = Trace(TS, pos, vel, np.zeros((2, length - 1, 3)))
    (group, _), = Program(stl.land(*[stl.atom(p) for p in preds]), TS).groups
    coords = (vel if kind == stl.VELOCITY_BOX else pos)[group.drones]
    value = None
    for face in range(6):
        axis = face // 2
        margin = (coords[:, :, axis] - group.lo[:, axis] if face % 2 == 0
                  else group.hi[:, axis] - coords[:, :, axis])
        if kind == stl.BOX_OUTSIDE:
            margin = -margin
        value = margin if value is None else (
            np.maximum if kind == stl.BOX_OUTSIDE else np.minimum)(value, margin)
    got, active = group.forward(trace, keep=True)
    assert np.array_equal((group.scale * value).view(np.int64), got.view(np.int64))
    faces = group._faces(trace)
    assert np.array_equal(active, np.stack([pair[axis] for axis in range(3) for pair in faces])
                          .argmin(axis=0))
    ones = np.ones(got.shape)
    (got,) = group.state_blocks(active, ones)
    rows, want = dense_box_blocks(*ref_box_entries(group, trace, ones, 2), 2)
    ((state, drones),) = group.blocks_of
    assert np.array_equal(state * 2 + drones, rows)
    assert np.array_equal(got, want)
