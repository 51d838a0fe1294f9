"""Batched program passes against the node-by-node passes they replaced.

The reference below is the original per-instruction forward pass and
reverse sweep of ``robustness.Program``, with its row kernels: every
window and Boolean node reduces its own (n, m) operand matrix, and window
adjoints scatter with ``np.bincount``. The batched program must give the
same value for every node and the same gradient entry, bit for bit
(``np.array_equal``, which counts +0.0 and -0.0 as equal).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import robustness, stl
from stlfleet.robustness import (_SCALE, _SHARE, Program, _pairwise_sum, _sequential_sum,
                                 _Slabs, make_report)

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
        candidates = ref_reduce(pair, op.pair, op, lam, None)
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
        pair_partials = ref_partials(pair, op.pair, op, lam, None)
        candidates = ref_reduce(pair, op.pair, op, lam, None)
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
    for group, indices in program.groups:
        adjoint = np.stack([adjoints[index] for index in indices])
        flat, amounts = group.entries(atom_data[group], adjoint, trace.n_drones)
        entries.update(zip(indices, zip(flat, amounts)))
    n_drones, length, _ = trace.pos.shape
    grad = np.zeros(2 * n_drones * length * 3)
    if program.leaves:
        grad = np.bincount(np.concatenate([entries[i][0] for i in program.leaves]),
                           weights=np.concatenate([entries[i][1] for i in program.leaves]),
                           minlength=grad.size)
    grad = grad.reshape(2 * n_drones, length, 3)
    return value, grad[:n_drones], grad[n_drones:]


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


def assert_values_equal(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w, equal_nan=True), f"instruction {index}"


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 24), lo=st.integers(0, 3),
       siblings=st.integers(2, 4), extra=st.integers(0, 60), with_true=st.booleans(),
       block_values=st.sampled_from([1, 100, robustness._BLOCK_VALUES]))
@example(seed=1, width=21, lo=0, siblings=3, extra=0, with_true=False,     # n < width
         block_values=robustness._BLOCK_VALUES)
@example(seed=2, width=21, lo=0, siblings=3, extra=50, with_true=False,    # n >= width
         block_values=robustness._BLOCK_VALUES)
@example(seed=3, width=9, lo=1, siblings=4, extra=30, with_true=True, block_values=1)
@example(seed=4, width=1, lo=2, siblings=2, extra=5, with_true=True, block_values=100)
def test_batched_passes_match_node_by_node(seed, width, lo, siblings, extra, with_true,
                                           block_values):
    # slab kernels stream blocks of max(1, block_values // (K * n)) slabs
    with mock.patch.object(robustness, "_BLOCK_VALUES", block_values):
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
        assert_values_equal(got, ref_forward(program, trace, lam_pass, weighting))

    t_index = int(rng.integers(0, length - program.ops[-1].steps))
    for weighted, weighting in ((False, None), (True, _SHARE)):
        value, dpos, dvel = program._gradient(trace, lam, weighted=weighted, t_index=t_index)
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


def streamed(rows, block):
    """The columns of ``rows`` as slabs, and the term function that reads
    them ``block`` slabs at a time."""
    slabs = _Slabs(np.ascontiguousarray(rows.T)[:, :, None], None, None, None)
    slabs.block = block

    def term(j0, j1, out):
        out[...] = slabs(j0, j1, out)
        return out
    return term, slabs


@pytest.mark.parametrize("block", [1, 3, 8])
def test_pairwise_sum_matches_numpy_row_sum(block):
    rng = np.random.default_rng(7)
    for width in range(1, 301):
        rows = rng.standard_normal((6, width)) * np.exp(rng.uniform(-30, 30, (6, width)))
        rows[1] = -0.0
        rows[2, ::2] = 0.0
        rows[3] = -rows[3]
        term, slabs = streamed(rows, block)
        got = _pairwise_sum(term, slabs, (len(rows), 1))[:, 0]
        want = rows.sum(axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), width


@pytest.mark.parametrize("block", [1, 3, 64])
def test_sequential_sum_matches_numpy_column_sum(block):
    rng = np.random.default_rng(8)
    for arity in range(2, 41):
        for n in (2, 3, 17, 241):
            rows = rng.standard_normal((n, arity)) * np.exp(rng.uniform(-30, 30, (n, arity)))
            rows[0] = -0.0
            rows[1, 0] = -0.0
            want = np.asfortranarray(rows).sum(axis=-1)  # one node's operand matrix
            term, slabs = streamed(rows, block)
            got = _sequential_sum(term, slabs, (n, 1))[:, 0]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (arity, n)


# ---------------------------------------------------------------------------
# The reverse paths of Boolean batches and of row batches


def assert_gradients_match(program, trace, lam, t_index=0):
    for weighted, weighting in ((False, None), (True, _SHARE)):
        value, dpos, dvel = program._gradient(trace, lam, weighted=weighted, t_index=t_index)
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
    assert all(program._kept[3][batch][1] is not None for batch in reducing)  # share factors
    assert_gradients_match(program, trace, lam, t_index=int(rng.integers(0, 3)))
