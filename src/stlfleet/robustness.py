"""Exact, smooth, weighted, and weighted-smooth robustness over traces.

The exact semantics follows the classic min/max recursion. The smooth
variant replaces min with a log-sum-exp lower bound and max with a
softmax convex combination, both controlled by a sharpness parameter:
larger sharpness means a tighter approximation. All exponential sums are
max-shifted so no overflow occurs for |sharpness * value| <= 700. The
only source of infinite values is ``true``; where the exact min/max of a
reduction is infinite, the smooth one returns that same infinity, and an
infinite operand or result passes no gradient.

A formula is compiled once per sampling period into a ``Program``: a
flat post-order list of instructions (the computation-graph view of STL
robustness, as in STLCG). Compilation resolves, once, each node's
access steps, window offsets and widths, the successor stride of Next,
and the weight and weight-share arrays of every node. Implication is
lowered to Or(Not(lhs), rhs), so one semantics covers it.

One forward pass first evaluates the atoms, all atoms of one predicate
kind as one batch, then every other node at every sample where it is
defined, so temporal windows are reductions over strided sliding views.
The same program serves the exact, smooth, weighted and weighted-smooth
semantics, the reverse sweep that yields gradients, and the per-node
report. A program holds no trace data between calls; the reverse sweep
reuses only the forward pass of the same call.

Every result is bit for bit that of a node-by-node recursive
evaluation: each reduction sees the same operand arrays in the same
memory layout, and every scatter-add (window adjoints, atom gradients)
adds in the order of a recursive left-to-right sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stl
from .dynamics import Trace
from .errors import EmptyInput, NonPositiveWeight, TraceTooShort

# weighting of one pass: operands times raw weights (exact weighted
# semantics) or the normalized-weight transform (weighted smooth)
_SCALE = "scale"
_SHARE = "share"


@np.errstate(invalid="ignore")  # see the smooth reductions below
def smooth_min(values, sharpness: float) -> float:
    """Log-sum-exp under-approximation of min; exact for singleton input."""
    values = np.asarray(values, float)
    if values.size == 0:
        raise EmptyInput("smooth_min of an empty set")
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    return float(_softmin(values, sharpness)[0])


@np.errstate(invalid="ignore")
def smooth_max(values, sharpness: float) -> float:
    """Softmax-weighted average: a convex combination, so min <= result <= max."""
    values = np.asarray(values, float)
    if values.size == 0:
        raise EmptyInput("smooth_max of an empty set")
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    return float(_softmax_avg(values, sharpness)[0])


# Smooth reductions act on the last axis. Each returns its result with the
# exponential weights and their sum, from which its partials are built.
# Callers run them with numpy's invalid-operation warnings off: an
# infinite operand makes inf - inf or 0 * inf, and the rows it turns into
# NaN are rebuilt afterwards, so finite input pays for one NaN check and
# keeps every bit.


def _softmin(values, lam):
    shift = values.min(axis=-1, keepdims=True)
    w = np.exp(-lam * (values - shift))
    total = w.sum(axis=-1)
    edge = np.squeeze(shift, axis=-1)
    result = edge - np.log(total) / lam
    if np.isnan(result.sum()):  # an infinite min
        result = np.where(np.isinf(edge), edge, result)
    return result, w, total


def _softmax_avg(values, lam):
    shift = values.max(axis=-1, keepdims=True)
    w = np.exp(lam * (values - shift))
    terms = values * w
    total = w.sum(axis=-1)
    result = terms.sum(axis=-1) / total
    if np.isnan(result.sum()):  # a -inf operand or an infinite max
        terms[np.isneginf(values)] = 0.0  # a -inf operand has weight exactly zero
        edge = np.squeeze(shift, axis=-1)
        result = np.where(np.isinf(edge), edge, terms.sum(axis=-1) / total)
    return result, w, total


# Partials take the reduction's result too: an infinite result passes no
# gradient to any operand, and neither does an infinite operand.


def _softmin_partials(values, lam, w, total, result):
    partials = w / total[..., None]  # a +inf operand of a finite min has w = 0
    if np.isnan(total.sum()):  # an infinite min
        partials[np.isinf(result)] = 0.0
    return partials


def _softmax_partials(values, lam, w, total, result):
    """d softmax_avg / d value_i = q_i * (1 + lam * (value_i - result))."""
    q = w / total[..., None]
    terms = values * q
    mean = terms.sum(axis=-1, keepdims=True)
    if not np.isnan(mean.sum()):
        return q * (1.0 + lam * (values - mean))
    # a -inf operand or an infinite max
    dead = np.isneginf(values)
    terms[dead] = 0.0
    partials = q * (1.0 + lam * (values - terms.sum(axis=-1, keepdims=True)))
    partials[dead] = 0.0
    partials[np.isinf(result)] = 0.0
    return partials


class _Reduction(NamedTuple):
    is_min: bool
    hard: np.ufunc
    soft: object
    partials: object


_MIN = _Reduction(True, np.minimum, _softmin, _softmin_partials)
_MAX = _Reduction(False, np.maximum, _softmax_avg, _softmax_partials)


def _sign_pos(values):
    # sign(0) is defined as +1 so the positive branch stays continuous from above
    return np.where(values >= 0.0, 1.0, -1.0)


def _windows(values, lo, width, count):
    """``count`` sliding windows of ``values``: row t is values[t+lo : t+lo+width].

    A strided view, not a copy; callers only read it.
    """
    step = values.strides[0]
    return np.ndarray((count, width), values.dtype, values, lo * step, (step, step))


# ---------------------------------------------------------------------------
# Atom margins and their gradients
#
# Atoms of one predicate kind are evaluated together, one row per atom.
# Their gradients come back as (flat index, value) entries into the
# stacked state gradient [d/d positions; d/d velocities] of shape
# (2 * drones, L, 3), one row of entries per atom.


def _blocks(rows, length):
    """Flat indices of whole (L, 3) blocks of the stacked state gradient, shape (K, 3L)."""
    return rows[:, None] * (3 * length) + np.arange(3 * length)


class _Boxes:
    """Box margins of one kind: inside positions, inside velocities or outside positions."""

    def __init__(self, preds):
        self.kind = preds[0].kind
        self.drones = np.array([p.subject[0] for p in preds])
        self.lo = np.array([p.lower for p in preds])[:, :, None]
        self.hi = np.array([p.upper for p in preds])[:, :, None]
        self.scale = np.array([p.scale for p in preds])[:, None]
        # d margin / d state per face: even faces are p - lo, odd ones hi - p
        self.face_sign = np.tile([1.0, -1.0], 3)
        if self.kind == stl.BOX_OUTSIDE:
            self.face_sign = -self.face_sign

    def forward(self, trace, keep=False):
        state = trace.vel if self.kind == stl.VELOCITY_BOX else trace.pos
        source = state[self.drones].transpose(0, 2, 1)
        # face rows per atom: p_x - lo_x, hi_x - p_x, p_y - lo_y, ...
        margins = np.empty((len(self.drones), 6, source.shape[2]))
        np.subtract(source, self.lo, out=margins[:, 0::2])
        np.subtract(self.hi, source, out=margins[:, 1::2])
        if self.kind == stl.BOX_OUTSIDE:
            np.negative(margins, out=margins)
            value = margins.max(axis=1)
        else:
            value = margins.min(axis=1)
        if not keep:
            return self.scale * value, None
        # the face that carries the gradient; ties break toward the lowest face
        active = (margins.argmax(axis=1) if self.kind == stl.BOX_OUTSIDE
                  else margins.argmin(axis=1))
        return self.scale * value, active

    def entries(self, active, adjoint, n_drones):
        length = active.shape[1]
        rows = self.drones + (n_drones if self.kind == stl.VELOCITY_BOX else 0)
        index = (rows[:, None] * length + np.arange(length)) * 3 + active // 2
        return index, self.face_sign[active] * (self.scale * adjoint)


class _Separations:
    """Pairwise distance minus threshold."""

    def __init__(self, preds):
        self.a = np.array([p.subject[0] for p in preds])
        self.b = np.array([p.subject[1] for p in preds])
        self.threshold = np.array([p.threshold for p in preds])[:, None]
        self.scale = np.array([p.scale for p in preds])[:, None]

    def forward(self, trace, keep=False):
        diff = trace.pos[self.a] - trace.pos[self.b]
        dist = np.linalg.norm(diff, axis=2)
        return self.scale * (dist - self.threshold), (diff, dist)

    def entries(self, aux, adjoint, n_drones):
        diff, dist = aux
        unit = np.divide(diff, dist[..., None], out=np.zeros_like(diff),
                         where=dist[..., None] > 0)
        push = ((self.scale * adjoint)[..., None] * unit).reshape(len(self.a), -1)
        length = diff.shape[1]
        index = np.concatenate([_blocks(self.a, length), _blocks(self.b, length)], axis=1)
        return index, np.concatenate([push, -push], axis=1)


class _Segments:
    """Distance to a segment kept inside a band [standoff - tol, standoff + tol]."""

    def __init__(self, preds):
        self.drones = np.array([p.subject[0] for p in preds])
        self.starts = [np.asarray(p.seg_start) for p in preds]
        self.spans = [np.asarray(p.seg_end) - a for p, a in zip(preds, self.starts)]
        self.inner = np.array([p.standoff - p.tolerance for p in preds])[:, None]
        self.outer = np.array([p.standoff + p.tolerance for p in preds])[:, None]
        self.scale = np.array([p.scale for p in preds])[:, None]

    def forward(self, trace, keep=False):
        offsets = []
        for d, a, u in zip(self.drones, self.starts, self.spans):
            p = trace.pos[d]
            s = np.clip(((p - a) @ u) / (u @ u), 0.0, 1.0)
            offsets.append(p - (a + s[:, None] * u))
        offset = np.stack(offsets)
        dist = np.linalg.norm(offset, axis=2)
        value = np.minimum(dist - self.inner, self.outer - dist)
        return self.scale * value, (offset, dist)

    def entries(self, aux, adjoint, n_drones):
        offset, dist = aux
        unit = np.divide(offset, dist[..., None], out=np.zeros_like(offset),
                         where=dist[..., None] > 0)
        # branch 0: dist - inner (d/d dist = +1); branch 1: outer - dist (-1)
        sign = np.where(dist - self.inner <= self.outer - dist, 1.0, -1.0)
        push = ((self.scale * adjoint) * sign)[..., None] * unit
        return _blocks(self.drones, offset.shape[1]), push.reshape(len(self.drones), -1)


_ATOM_GROUPS = {stl.BOX_INSIDE: _Boxes, stl.VELOCITY_BOX: _Boxes, stl.BOX_OUTSIDE: _Boxes,
                stl.MIN_SEPARATION: _Separations, stl.SEGMENT_BAND: _Segments}


def atom_values(pred: stl.Predicate, trace: Trace) -> np.ndarray:
    """Margin of one predicate at every sample, shape (L,)."""
    return _ATOM_GROUPS[pred.kind]([pred]).forward(trace)[0][0]


# ---------------------------------------------------------------------------
# Compiled program


class _Op:
    """One instruction: a node kind over earlier instructions' values."""

    __slots__ = ("kind", "args", "steps", "lo", "hi", "width", "red", "pair",
                 "weights", "tilt", "node_id")

    def __init__(self, kind, args=(), steps=0, node_id=None):
        self.kind = kind
        self.args = args            # indices of operand instructions
        self.steps = steps          # samples of lookahead past t
        self.node_id = node_id      # None for the Not that lowers an implication
        self.lo = self.hi = self.width = 0
        self.red = self.pair = None
        self.weights = self.tilt = None


class Program:
    """A formula compiled for one sampling period, optionally with weights.

    ``ops`` is the post-order instruction list; the last one is the root.
    Evaluate it with the module-level functions, which accept a program
    wherever they accept a formula; they are its only public interface.
    """

    def __init__(self, formula: stl.Formula, ts: float, weights: stl.WeightMap = None):
        if weights is not None:
            _check_weights(weights)
        self.formula = formula
        self.ts = ts
        self.weights = weights
        self.ops = []
        self.labels = []            # (node_id, op index) in pre-order, for reports
        self._atoms = {}            # predicate kind -> [(op index, predicate)]
        self._emit(formula)
        # atoms of one kind run as one group: (group, op indices)
        self.groups = [(_ATOM_GROUPS[kind]([pred for _, pred in members]),
                        [index for index, _ in members])
                       for kind, members in self._atoms.items()]
        self.leaves = [index for index, op in enumerate(self.ops) if op.kind == stl.ATOM]

    # -- compilation

    def _emit(self, node) -> int:
        slot = len(self.labels)
        self.labels.append(None)
        args = tuple(self._emit(child) for child in node.children)
        kind = node.kind
        if kind == stl.IMPLIES:
            lhs, rhs = args
            negated = _Op(stl.NOT, (lhs,), self.ops[lhs].steps)
            kind, args = stl.OR, (self._push(negated), rhs)
        op = _Op(kind, args, node_id=node.node_id)
        steps = max((self.ops[a].steps for a in args), default=0)
        if kind == stl.ATOM:
            self._atoms.setdefault(node.predicate.kind, []).append(
                (len(self.ops), node.predicate))
        elif kind in (stl.AND, stl.OR):
            op.red = _MIN if kind == stl.AND else _MAX
            self._attach_weights(op, node.node_id, len(args))
        elif kind in (stl.ALWAYS, stl.EVENTUALLY, stl.UNTIL, stl.NEXT):
            op.lo, op.hi = node.interval.to_steps(self.ts)
            op.width = op.hi - op.lo + 1
            if kind == stl.NEXT:
                steps += op.lo + 1  # Next evaluates at the sample after the window start
            else:
                steps += op.hi
                op.red = _MIN if kind == stl.ALWAYS else _MAX
                self._attach_weights(op, node.node_id, op.width)
            if kind == stl.UNTIL:
                op.pair = _MIN
        op.steps = steps
        index = self._push(op)
        self.labels[slot] = (node.node_id, index)
        return index

    def _push(self, op) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def _attach_weights(self, op, node_id, arity):
        if self.weights is None:
            return
        op.weights = self.weights.get(node_id, arity)
        share = op.weights / op.weights.sum()
        op.tilt = (0.5 - share) if op.red.is_min else (share - 0.5)

    # -- evaluation

    def _semantics(self, sharpness, weighted, soft_combine):
        """(lam, weighting) of a pass; lam None means hard min/max."""
        if sharpness is not None and sharpness <= 0:
            raise ValueError("smooth evaluation needs a positive sharpness")
        if not weighted:
            return sharpness, None
        if self.weights is None:
            raise NonPositiveWeight("weighted evaluation of a program compiled without weights")
        if sharpness is None:
            return None, _SCALE
        return (sharpness if soft_combine else None), _SHARE

    def _node_values(self, trace, sharpness=None, weighted=False, soft_combine=True):
        """Value arrays of every instruction; exact when ``sharpness`` is None."""
        lam, weighting = self._semantics(sharpness, weighted, soft_combine)
        return self._forward(trace, lam, weighting, None)

    def _evaluate(self, trace, t_index=0, sharpness=None, weighted=False,
                 soft_combine=True) -> float:
        """Robustness at ``t_index``: exact when ``sharpness`` is None, else smooth;
        ``weighted`` applies the compiled weights."""
        values = self._node_values(trace, sharpness, weighted, soft_combine)
        return self._value_at(values, t_index)

    def _value_at(self, values, t_index) -> float:
        root = values[-1]
        if t_index < 0 or t_index >= len(root):
            raise TraceTooShort(
                f"t_index {t_index} out of range: node {self.formula.node_id!r} is defined "
                f"on samples 0..{len(root) - 1} of this trace")
        return float(root[t_index])

    @np.errstate(invalid="ignore")  # see the smooth reductions
    def _forward(self, trace, lam, weighting, atom_data=None):
        """Every instruction's values; ``atom_data`` (a dict) collects each atom
        group's gradient data."""
        length = trace.n_samples
        root = self.ops[-1]
        if length - root.steps <= 0:
            raise TraceTooShort(
                f"trace of {length} samples cannot evaluate node "
                f"{self.formula.node_id!r}, which needs {root.steps + 1}")
        values = [None] * len(self.ops)
        for group, indices in self.groups:
            rows, data = group.forward(trace, keep=atom_data is not None)
            for index, row in zip(indices, rows):
                values[index] = row
            if atom_data is not None:
                atom_data[group] = data
        for index, op in enumerate(self.ops):
            out_len = length - op.steps
            kind = op.kind
            if kind == stl.ATOM:
                continue
            if kind == stl.TRUE:
                value = np.full(out_len, np.inf)
            elif kind == stl.NOT:
                value = -values[op.args[0]]
            elif kind in (stl.AND, stl.OR):
                rows = _operand_rows(op, values, out_len)
                value = _reduce(rows.T, op.red, op, lam, weighting)
            elif kind in (stl.ALWAYS, stl.EVENTUALLY):
                windows = _windows(values[op.args[0]], op.lo, op.width, out_len)
                value = _reduce(windows, op.red, op, lam, weighting)
            elif kind == stl.NEXT:
                succ = op.lo + 1
                value = values[op.args[0]][succ:succ + out_len].copy()
            else:
                value = _until_values(op, values, out_len, lam, weighting)
            values[index] = value
        return values

    @np.errstate(invalid="ignore")
    def _gradient(self, trace, sharpness, weighted=False, t_index=0):
        """(value, d/d positions, d/d velocities) of the smooth semantics at t_index.

        Weighted evaluation uses the soft combination so the value stays
        differentiable.
        """
        lam, weighting = self._semantics(sharpness, weighted, True)
        if lam is None:
            raise ValueError("gradients are defined for the smooth evaluation paths")
        atom_data = {}
        values = self._forward(trace, lam, weighting, atom_data)
        value = self._value_at(values, t_index)
        adjoints = [None] * len(self.ops)
        adjoints[-1] = np.zeros(len(values[-1]))
        adjoints[-1][t_index] = 1.0
        for index in range(len(self.ops) - 1, -1, -1):
            op = self.ops[index]
            if op.kind in (stl.ATOM, stl.TRUE):
                continue
            adjoint = adjoints[index]
            if op.kind == stl.NOT:
                adjoints[op.args[0]] = -adjoint
            elif op.kind in (stl.AND, stl.OR):
                out_len = len(adjoint)
                rows = _operand_rows(op, values, out_len)
                partials = _partials(rows.T, op.red, op, lam, weighting)
                for r, arg in enumerate(op.args):
                    full = np.zeros(len(values[arg]))
                    full[:out_len] = adjoint * partials[:, r]
                    adjoints[arg] = full
            elif op.kind in (stl.ALWAYS, stl.EVENTUALLY):
                out_len = len(adjoint)
                windows = _windows(values[op.args[0]], op.lo, op.width, out_len)
                partials = _partials(windows, op.red, op, lam, weighting)
                # bincount adds in flattened (t-major) order, as a sequential scatter-add
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
                _until_backprop(op, values, adjoint, adjoints, lam, weighting)
        entries = {}
        for group, indices in self.groups:
            adjoint = np.stack([adjoints[index] for index in indices])
            flat, amounts = group.entries(atom_data[group], adjoint, trace.n_drones)
            entries.update(zip(indices, zip(flat, amounts)))
        # one bincount adds every atom's entries in left-to-right leaf order,
        # the order of a recursive sweep, so the sums round the same way
        n_drones, length, _ = trace.pos.shape
        grad = np.zeros(2 * n_drones * length * 3)
        if self.leaves:
            grad = np.bincount(np.concatenate([entries[i][0] for i in self.leaves]),
                               weights=np.concatenate([entries[i][1] for i in self.leaves]),
                               minlength=grad.size)
        grad = grad.reshape(2 * n_drones, length, 3)
        return value, grad[:n_drones], grad[n_drones:]


def _operand_rows(op, values, out_len):
    rows = np.empty((len(op.args), out_len))
    for r, arg in enumerate(op.args):
        rows[r] = values[arg][:out_len]
    return rows


def _weighted(operands, op, weighting):
    """Operands after a weighted pass's weights, and the smooth transform's factor.

    The exact weighted semantics multiplies by the raw weights; the
    smooth one applies the normalized-weight transform, which scales each
    operand by a factor that depends on its sign and the share of its
    weight, keeping signs and, under uniform weights, arg-extrema
    unchanged.
    """
    if weighting == _SCALE:
        return operands * op.weights, None
    if weighting == _SHARE:
        factor = op.tilt * _sign_pos(operands) + 0.5
        return factor * operands, factor
    return operands, None


def _reduce(operands, red, op, lam, weighting):
    """Reduce the last axis of ``operands`` under one pass's semantics."""
    if operands.shape[-1] == 1:
        return operands[..., 0].copy()
    operands, _ = _weighted(operands, op, weighting)
    if lam is None:
        return red.hard.reduce(operands, axis=-1)
    return red.soft(operands, lam)[0]


def _partials(operands, red, op, lam, weighting):
    """Partials of the smooth reduction of ``operands`` with respect to each operand."""
    if operands.shape[-1] == 1:
        return np.ones_like(operands)
    operands, factor = _weighted(operands, op, weighting)
    result, w, total = red.soft(operands, lam)
    partials = red.partials(operands, lam, w, total, result)
    return partials if factor is None else partials * factor


def _prefix_min(values, lam):
    if lam is None:
        return np.minimum.accumulate(values)
    # running log-sum-exp keeps each prefix shifted by its own extreme
    return -np.logaddexp.accumulate(-lam * values) / lam


def _until_values(op, values, out_len, lam, weighting):
    hold, goal = (values[a] for a in op.args)
    lo, hi = op.lo, op.hi
    out = np.empty(out_len)
    for t in range(out_len):
        prefix = _prefix_min(hold[t:t + hi + 1], lam)[lo:]
        pair = np.stack([goal[t + lo:t + hi + 1], prefix], axis=1)
        candidates = _reduce(pair, op.pair, op, lam, None)
        out[t] = _reduce(candidates[None, :], op.red, op, lam, weighting)[0]
    return out


def _until_backprop(op, values, adjoint, adjoints, lam, weighting):
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
        pair_partials = _partials(pair, op.pair, op, lam, None)
        candidates = _reduce(pair, op.pair, op, lam, None)
        outer = _partials(candidates[None, :], op.red, op, lam, weighting)
        contrib = adjoint[t] * outer[0]
        goal_adj[t + lo:t + hi + 1] += contrib * pair_partials[:, 0]
        # prefix smooth-min partial wrt hold[u]: exp(-lam*hold[u] - log_cum_i),
        # and hold[u] feeds every prefix i with u <= lo + i; an infinite
        # hold value or prefix passes no gradient
        spread = contrib * pair_partials[:, 1]
        live = mask & np.isfinite(seg)[None, :] & np.isfinite(log_cum[lo:])[:, None]
        exponent = (-lam * seg)[None, :] - log_cum[lo:, None]
        hold_adj[t:t + hi + 1] += spread @ np.exp(np.where(live, exponent, -np.inf))
    adjoints[op.args[0]] = hold_adj
    adjoints[op.args[1]] = goal_adj


def _program(formula, trace, weights=None) -> Program:
    """``formula`` itself when it is a compiled program, else a fresh compile."""
    if not isinstance(formula, Program):
        return Program(formula, trace.ts, weights)
    if formula.ts != trace.ts or (weights is not None and weights is not formula.weights):
        raise ValueError("program was compiled for another sampling period or other weights")
    return formula


# ---------------------------------------------------------------------------
# Public entry points. Each accepts a Formula or a compiled Program.


def _check_sharpness(sharpness):
    if sharpness is None or sharpness <= 0:
        raise ValueError("smooth evaluation needs a positive sharpness")


def eval_exact(formula, trace, t_index: int = 0) -> float:
    """Exact robustness of ``formula`` on ``trace`` at sample ``t_index``."""
    return _program(formula, trace)._evaluate(trace, t_index)


def eval_smooth(formula, trace, t_index: int = 0, sharpness: float = 10.0) -> float:
    """Smooth robustness; converges to eval_exact as sharpness grows."""
    _check_sharpness(sharpness)
    return _program(formula, trace)._evaluate(trace, t_index, sharpness)


def eval_weighted(formula, weights, trace, t_index: int = 0) -> float:
    """Weighted robustness: min/max over weight * operand value.

    With all weights equal to one this is bitwise identical to
    eval_exact on the same evaluation order.
    """
    _check_weights(weights)
    return _program(formula, trace, weights)._evaluate(trace, t_index, weighted=True)


def eval_weighted_smooth(formula, weights, trace, t_index: int = 0,
                         sharpness: float = 10.0, soft_combine: bool = False) -> float:
    """Weighted smooth robustness via the normalized-weight transform.

    Each operand of a weighted node is scaled by a sign-dependent share
    factor before combination. ``soft_combine`` selects the smooth
    reduction (differentiable, used by the optimizer); the default hard
    reduction is used in reports.
    """
    _check_weights(weights)
    _check_sharpness(sharpness)
    return _program(formula, trace, weights)._evaluate(trace, t_index, sharpness,
                                                       weighted=True,
                                                       soft_combine=soft_combine)


def _check_weights(weights):
    if not isinstance(weights, stl.WeightMap):
        raise NonPositiveWeight("weights must be a WeightMap")


def gradient_smooth(formula, trace, sharpness: float = 10.0, weights=None,
                    t_index: int = 0):
    """Value and gradient of the smooth (or weighted-smooth) robustness.

    Returns (value, d/d positions, d/d velocities) with gradient arrays
    shaped like trace.pos and trace.vel. Weighted evaluation uses the
    soft combination so the objective stays differentiable.
    """
    _check_sharpness(sharpness)
    return _program(formula, trace, weights)._gradient(trace, sharpness,
                                                       weighted=weights is not None,
                                                       t_index=t_index)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class RobustnessReport:
    """Exact and smooth robustness with a per-node breakdown at t=0."""

    exact: float
    smooth: float
    per_node: dict
    satisfied: bool
    sharpness: float
    weighted_exact: float = None
    weighted_smooth: float = None

    def to_dict(self) -> dict:
        d = {
            "exact": self.exact,
            "smooth": self.smooth,
            "satisfied": self.satisfied,
            "sharpness": self.sharpness,
            "per_node": {k: {"exact": e, "smooth": s} for k, (e, s) in self.per_node.items()},
        }
        if self.weighted_exact is not None:
            d["weighted_exact"] = self.weighted_exact
            d["weighted_smooth"] = self.weighted_smooth
        return d

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def make_report(formula, trace, sharpness: float, weights=None,
                t_index: int = 0) -> RobustnessReport:
    """Evaluate every node exactly and smoothly and bundle the results."""
    _check_sharpness(sharpness)
    program = _program(formula, trace, weights)
    exact_values = program._node_values(trace)
    smooth_values = program._node_values(trace, sharpness)
    exact = program._value_at(exact_values, t_index)
    smooth = program._value_at(smooth_values, t_index)
    per_node = {}
    for node_id, index in program.labels:
        e, s = exact_values[index], smooth_values[index]
        if t_index < len(e):
            per_node[node_id] = (float(e[t_index]), float(s[t_index]))
    weighted_exact = weighted_smooth = None
    if weights is not None and len(weights):
        weighted_exact = program._evaluate(trace, t_index, weighted=True)
        weighted_smooth = program._evaluate(trace, t_index, sharpness, weighted=True,
                                            soft_combine=False)
    return RobustnessReport(exact=exact, smooth=smooth, per_node=per_node,
                            satisfied=exact > 0.0, sharpness=sharpness,
                            weighted_exact=weighted_exact,
                            weighted_smooth=weighted_smooth)
