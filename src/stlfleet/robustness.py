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
defined, in batches: nodes of one kind, window, lookahead and arity at
one depth above the atoms. A window or Boolean batch of K nodes with n
outputs over m operands each is one pass. Where n >= m it is
offset-major: slab j holds operand j of the K nodes at the n samples
(for windows the strided view operand[:, lo + j : lo + j + n]), and the
pass walks the slabs a block at a time with elementwise operations, so
no window matrix is built. Where n < m (windows over the whole trace) it
reduces (K, n, m) rows. The same program serves the exact, smooth,
weighted and weighted-smooth semantics, the reverse sweep that yields
gradients, and the per-node report.

Between calls a program keeps its last smooth (or weighted-smooth)
forward pass and nothing else: every instruction's values and the tape
the reverse sweep reads (a row batch keeps its whole reduction). The
pass is keyed by its semantics and by the shapes and bytes of the
trace's positions and velocities, and is lent out only while the kept
trace, from which box atoms find the face of each gradient again, still
holds those bits. A gradient of the same key runs only the reverse sweep,
which frees each tape entry once read, and drops the pass, so a line
search's accepted trial is not evaluated twice. Atom rows depend on nothing but the predicates and the trace, so
the exact monitor of a formula that the objective conjoins takes them
from the objective's kept pass over the same bits and evaluates no atom.

Every result is bit for bit that of a node-by-node recursive
evaluation: elementwise steps round as before, sums over a reduction's
operands add in numpy's order for one node's row, and scatter-adds
(window adjoints, atom gradients) add in the order of a recursive
left-to-right sweep. Only the sign of a zero extreme may differ.
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


def smooth_min(values, sharpness: float) -> float:
    """Log-sum-exp under-approximation of min; exact for singleton input."""
    return _smooth_one(values, sharpness, _softmin, "smooth_min")


def smooth_max(values, sharpness: float) -> float:
    """Softmax-weighted average: a convex combination, so min <= result <= max."""
    return _smooth_one(values, sharpness, _softmax_avg, "smooth_max")


@np.errstate(invalid="ignore")  # see the smooth reductions below
def _smooth_one(values, sharpness, kernel, name):
    values = np.asarray(values, float)
    if values.size == 0:
        raise EmptyInput(f"{name} of an empty set")
    if sharpness <= 0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    return float(kernel(values, sharpness)[0])


# Smooth reductions come in two layouts. Row kernels reduce the last axis
# of (..., m) rows and return the exponential weights and their sum, from
# which the partials are built. Slab kernels reduce m (K, n) operand slabs,
# read a block at a time through a ``_Slabs`` given the hard extreme
# ``edge``; they keep only the sum of the weights, and their partials
# rebuild a block's weights. ``add`` sums in the row layout's order, so
# both layouts give the same bits. Callers turn numpy's invalid-operation
# warnings off: the NaNs of inf - inf or 0 * inf are rebuilt afterwards,
# so finite input pays for one NaN check. An infinite result or operand
# passes no gradient.


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


# operand values a slab kernel handles per numpy call (at least one slab)
_BLOCK_VALUES = 1 << 14


def _spans(lo, hi, size):
    return [(j, min(j + size, hi)) for j in range(lo, hi, size)]


class _Slabs:
    """Slabs j0..j1 of an (m, K, n) operand array under one pass's weighting."""

    def __init__(self, operands, weights, tilt, weighting):
        self.operands, self.weights, self.tilt = operands, weights, tilt
        self.weighting = weighting
        self.m, k, n = operands.shape
        self.block = max(1, _BLOCK_VALUES // (k * n))

    def __call__(self, j0, j1, out):
        """The weighted slabs: a view when unweighted, else written into ``out``."""
        x = self.operands[j0:j1]
        if self.weighting is None:
            return x
        if self.weighting == _SCALE:
            return np.multiply(x, self.weights[j0:j1], out=out)
        return np.multiply(self.factor(j0, j1), x, out=out)

    def factor(self, j0, j1):
        return _share_factor(self.operands[j0:j1], self.tilt[j0:j1])

    def edge(self, red):
        """The hard min/max over all slabs."""
        if self.weighting is None:
            return red.hard.reduce(self.operands, axis=0)
        edge = None
        scratch = np.empty((min(self.block, self.m),) + self.operands.shape[1:])
        for j0, j1 in _spans(0, self.m, self.block):
            part = red.hard.reduce(self(j0, j1, scratch[:j1 - j0]), axis=0)
            edge = part if edge is None else red.hard(edge, part, out=edge)
        return edge


def _exp_term(slabs, lam, edge, total=None):
    """Terms j0..j1 = exp(lam * (slab j - edge)), divided by ``total`` when
    given, written into ``out``."""
    def term(j0, j1, out):
        np.subtract(slabs(j0, j1, out), edge, out=out)
        out *= lam
        np.exp(out, out=out)
        if total is not None:
            out /= total
        return out
    return term


def _slab_softmin(slabs, lam, edge, add):
    total = add(_exp_term(slabs, -lam, edge), slabs, edge.shape)
    result = edge - np.log(total) / lam
    if np.isnan(result.sum()):  # an infinite min
        result = np.where(np.isinf(edge), edge, result)
    return result, total


def _slab_softmax(slabs, lam, edge, add):
    weight = _exp_term(slabs, lam, edge)

    def pair(dead):  # term j: the weight and the weighted operand, stacked
        def term(j0, j1, out):
            weight(j0, j1, out[:, 0])
            values = slabs(j0, j1, out[:, 1])
            dead_at = np.isneginf(values) if dead else None
            np.multiply(values, out[:, 0], out=out[:, 1])
            if dead:  # a -inf operand has weight exactly zero
                out[:, 1][dead_at] = 0.0
            return out
        return term

    total, terms = add(pair(False), slabs, (2,) + edge.shape)
    result = terms / total
    if np.isnan(result.sum()):  # a -inf operand or an infinite max
        total, terms = add(pair(True), slabs, (2,) + edge.shape)
        result = np.where(np.isinf(edge), edge, terms / total)
    return result, total


def _slab_softmin_partials(slabs, lam, edge, total, result, add):
    share = _exp_term(slabs, -lam, edge, total)  # a +inf operand of a finite min has w = 0
    if not np.isnan(total.sum()):
        return share
    infinite = np.isinf(result)  # an infinite min

    def partial(j0, j1, out):
        share(j0, j1, out)[:, infinite] = 0.0
        return out
    return partial


def _slab_softmax_partials(slabs, lam, edge, total, result, add):
    """d softmax_avg / d value_i = q_i * (1 + lam * (value_i - result))."""
    share = _exp_term(slabs, lam, edge, total)

    def weighted(dead):
        def term(j0, j1, out):
            share(j0, j1, out)
            values = slabs(j0, j1, np.empty_like(out))
            out *= values
            if dead:
                out[np.isneginf(values)] = 0.0
            return out
        return term

    mean = add(weighted(False), slabs, edge.shape)
    dead = np.isnan(mean.sum())  # a -inf operand or an infinite max
    if dead:
        mean = add(weighted(True), slabs, edge.shape)
        infinite = np.isinf(result)

    def partial(j0, j1, out):
        values = slabs(j0, j1, np.empty_like(out))
        dead_at = np.isneginf(values) if dead else None
        step = np.subtract(values, mean)
        step *= lam
        step += 1.0
        share(j0, j1, out)
        out *= step
        if dead:
            out[dead_at] = 0.0
            out[:, infinite] = 0.0
        return out
    return partial


class _Reduction(NamedTuple):
    is_min: bool
    hard: np.ufunc
    soft: object
    partials: object
    slab_soft: object
    slab_partials: object


_MIN = _Reduction(True, np.minimum, _softmin, _softmin_partials,
                  _slab_softmin, _slab_softmin_partials)
_MAX = _Reduction(False, np.maximum, _softmax_avg, _softmax_partials,
                  _slab_softmax, _slab_softmax_partials)


# Sums of the m terms of a slab reduction, streamed a block at a time by
# ``term(j0, j1, out)``. numpy starts a sum from +0.0, which only turns a
# -0.0 total into +0.0. It sums one contiguous row pairwise: rows of
# fewer than 8 values in sequence, up to 128 values in 8 interleaved
# lanes, longer rows split in two near the middle at a multiple of 8. It
# sums the columns of an (n, m) matrix stored by columns one after
# another.
_PAIRWISE_LANES = 8
_PAIRWISE_BLOCK = 128


def _pairwise_sum(term, slabs, shape):
    """Bit for bit numpy's sum of one contiguous row of the terms."""
    return _pairwise(term, 0, slabs.m, shape, min(slabs.block, _PAIRWISE_LANES)) + 0.0


def _pairwise(term, lo, hi, shape, block):
    m = hi - lo
    if m > _PAIRWISE_BLOCK:
        half = m // 2
        half -= half % _PAIRWISE_LANES
        total = _pairwise(term, lo, lo + half, shape, block)
        total += _pairwise(term, lo + half, hi, shape, block)
        return total
    lanes = np.empty((min(m, _PAIRWISE_LANES),) + shape)
    for j0, j1 in _spans(lo, lo + len(lanes), block):
        term(j0, j1, lanes[j0 - lo:j1 - lo])
    total = lanes[0]
    if m < _PAIRWISE_LANES:
        for row in lanes[1:]:
            total += row
        return total
    scratch = np.empty((block,) + shape)
    stop = lo + m - m % _PAIRWISE_LANES
    for i in range(lo + _PAIRWISE_LANES, stop, _PAIRWISE_LANES):
        for j0, j1 in _spans(i, i + _PAIRWISE_LANES, block):
            lanes[j0 - i:j1 - i] += term(j0, j1, scratch[:j1 - j0])
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), summed into r0
    lanes[::2] += lanes[1::2]
    lanes[::4] += lanes[2::4]
    total += lanes[4]
    for j0, j1 in _spans(stop, hi, block):
        for row in term(j0, j1, scratch[:j1 - j0]):
            total += row
    return total


def _sequential_sum(term, slabs, shape):
    """Bit for bit numpy's sum over the columns of an (n, m) matrix stored
    by columns."""
    total = np.zeros(shape)
    scratch = np.empty((min(slabs.block, slabs.m),) + shape)
    for j0, j1 in _spans(0, slabs.m, slabs.block):
        for row in term(j0, j1, scratch[:j1 - j0]):
            total += row
    return total


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
        return self.scale * value, (trace if keep else None)

    def entries(self, trace, adjoint, n_drones):
        # the face that carries the gradient, found one face at a time with
        # no (K, 6, L) margins: the first face of least margin, NaN first, as
        # argmin (argmax over negated outside margins) picks it
        state = trace.vel if self.kind == stl.VELOCITY_BOX else trace.pos
        for face in range(6):
            axis = face // 2
            coord = state[self.drones, :, axis]
            margin = coord - self.lo[:, axis] if face % 2 == 0 else self.hi[:, axis] - coord
            if face == 0:
                least, active = margin, np.zeros(margin.shape, dtype=np.intp)
                continue
            wins = (margin < least) | (np.isnan(margin) & ~np.isnan(least))
            active[wins] = face
            np.minimum(least, margin, out=least)
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
        self.starts = np.array([p.seg_start for p in preds], float)
        self.spans = np.array([p.seg_end for p in preds], float) - self.starts
        self.lengths = np.array([u @ u for u in self.spans])[:, None]
        self.inner = np.array([p.standoff - p.tolerance for p in preds])[:, None]
        self.outer = np.array([p.standoff + p.tolerance for p in preds])[:, None]
        self.scale = np.array([p.scale for p in preds])[:, None]

    def forward(self, trace, keep=False):
        # projections as one (K, L, 3) @ (K, 3, 1) product
        p = trace.pos[self.drones]
        s = np.clip(np.matmul(p - self.starts[:, None], self.spans[..., None])[..., 0]
                    / self.lengths, 0.0, 1.0)
        offset = p - (self.starts[:, None] + s[..., None] * self.spans[:, None])
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
    ``batches`` partitions the other instructions into passes, each after
    those computing its operands. Evaluate it with the module-level
    functions, which accept a program wherever they accept a formula; they
    are its only public interface.
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
        self.batches = self._batch()
        self._kept = None           # (key, trace, values, tape) of the last smooth pass
        self._lender = None         # (program, [(op index, its op index)]) of atoms

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

    def _batch(self):
        """Group instructions of one kind, window, lookahead and arity at one
        depth above the atoms, so each group's operands are all computed by
        shallower groups; groups run in order of depth."""
        depth = []
        members = {}
        for index, op in enumerate(self.ops):
            depth.append(1 + max((depth[a] for a in op.args), default=-1))
            if op.kind != stl.ATOM:
                key = (depth[index], op.kind, op.lo, op.width, op.steps, len(op.args))
                members.setdefault(key, []).append(index)
        return [_Batch(self.ops, indices)
                for _, indices in sorted(members.items(), key=lambda item: item[0][0])]

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
        return self._forward(trace, lam, weighting)

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
    def _forward(self, trace, lam, weighting):
        """Every instruction's values; a smooth pass is kept with its tape."""
        self._kept = None
        length = trace.n_samples
        root = self.ops[-1]
        if length - root.steps <= 0:
            raise TraceTooShort(
                f"trace of {length} samples cannot evaluate node "
                f"{self.formula.node_id!r}, which needs {root.steps + 1}")
        values = [None] * len(self.ops)
        tape = None if lam is None else {}
        lender = self._lender
        lent = lender[0]._kept_over(trace) if lender and tape is None else None
        if lent:
            for index, theirs in lender[1]:
                values[index] = lent[2][theirs]
        else:
            for group, indices in self.groups:
                rows, data = group.forward(trace, keep=tape is not None)
                for index, row in zip(indices, rows):
                    values[index] = row
                if tape is not None:
                    tape[group] = data
        for batch in self.batches:
            batch.forward(values, length, lam, weighting, tape)
        if tape is not None:
            self._kept = (_pass_key(trace, lam, weighting), trace, values, tape)
        return values

    def _kept_over(self, trace, semantics=None):
        """The kept pass, if over the bits of ``trace`` (and of ``semantics``,
        when given) and its trace, read again by box atoms, still holds them."""
        kept = self._kept
        if kept is None:
            return None
        key = _pass_key(trace, *(semantics or kept[0][:2]))
        return kept if kept[0] == key and _pass_key(kept[1], *key[:2]) == key else None

    def _borrow_atoms(self, lender):
        """Take the atom rows of exact passes from ``lender``'s kept pass over
        the same bits, if each atom here is one of ``lender``'s predicates."""
        theirs = {id(pred): index for members in lender._atoms.values()
                  for index, pred in members}
        pairs = [(index, theirs.get(id(pred))) for members in self._atoms.values()
                 for index, pred in members]
        if all(j is not None for _, j in pairs):
            self._lender = (lender, pairs)

    @np.errstate(invalid="ignore")
    def _gradient(self, trace, sharpness, weighted=False, t_index=0):
        """(value, d/d positions, d/d velocities) of the smooth semantics at t_index."""
        lam, weighting = self._semantics(sharpness, weighted, True)
        if lam is None:
            raise ValueError("gradients are defined for the smooth evaluation paths")
        if not self._kept_over(trace, (lam, weighting)):
            self._forward(trace, lam, weighting)
        _, _, values, tape = self._kept
        self._kept = None
        value = self._value_at(values, t_index)
        adjoints = [None] * len(self.ops)
        adjoints[-1] = np.zeros(len(values[-1]))
        adjoints[-1][t_index] = 1.0
        # every instruction has one consumer, which sits in a deeper batch
        for batch in reversed(self.batches):
            batch.backward(values, adjoints, lam, weighting, tape)
        entries = {}
        for group, indices in self.groups:
            adjoint = np.stack([adjoints[index] for index in indices])
            flat, amounts = group.entries(tape.pop(group), adjoint, trace.n_drones)
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


def _pass_key(trace, lam, weighting):
    """What a smooth forward pass depends on, to the bit."""
    return (lam, weighting, trace.pos.shape, trace.vel.shape,
            trace.pos.tobytes(), trace.vel.tobytes())


class _Batch:
    """Instructions of one kind, window, lookahead and arity, run as one pass:
    a window or Boolean batch as slabs where n >= m, else as rows; Until,
    Next, Not and True node by node."""

    def __init__(self, ops, indices):
        self.ops = [ops[index] for index in indices]
        self.indices = indices
        op = self.ops[0]
        self.kind, self.red, self.steps = op.kind, op.red, op.steps
        self.lo, self.hi = op.lo, op.hi
        self.window = op.kind in (stl.ALWAYS, stl.EVENTUALLY)
        self.reduces = self.window or op.kind in (stl.AND, stl.OR)
        self.arity = op.width if self.window else len(op.args)
        # a window's operands are one contiguous row per output sample; a
        # Boolean node's are the columns of an (n, m) matrix stored by columns
        self.add = _pairwise_sum if self.window else _sequential_sum
        self.args = [o.args for o in self.ops]
        self.weights = self.tilt = None
        if op.weights is not None and self.reduces:  # (K, m)
            self.weights = np.stack([o.weights for o in self.ops])
            self.tilt = np.stack([o.tilt for o in self.ops])

    def _operands(self, values, n, slab):
        """The K nodes' operands as an (m, K, n) slab array or (K, n, m) rows,
        with the weights and tilts broadcasting against them."""
        k, m = len(self.indices), self.arity
        if self.window:
            stack = np.empty((k, n + self.hi))
            for row, (arg,) in zip(stack, self.args):
                row[:] = values[arg]
            row, step = stack.strides
            if slab:
                operands = np.ndarray((m, k, n), stack.dtype, stack, self.lo * step,
                                      (step, row, step))
            else:
                operands = np.ndarray((k, n, m), stack.dtype, stack, self.lo * step,
                                      (row, step, step))
        else:
            # rows keep each node's operands by columns, like the (n, m)
            # matrix of one node stored by columns
            stack = np.empty((m, k, n) if slab else (k, m, n))
            for node, args in enumerate(self.args):
                for r, arg in enumerate(args):
                    stack[(r, node) if slab else (node, r)] = values[arg][:n]
            operands = stack if slab else stack.transpose(0, 2, 1)
        if self.weights is None:
            return operands, None, None
        if slab:
            return operands, self.weights.T[:, :, None], self.tilt.T[:, :, None]
        return operands, self.weights[:, None, :], self.tilt[:, None, :]

    def forward(self, values, length, lam, weighting, tape):
        n = length - self.steps
        if not self.reduces:
            for index, op in zip(self.indices, self.ops):
                values[index] = _single_values(op, values, n, lam, weighting)
            return
        slab = n >= self.arity
        operands, weights, tilt = self._operands(values, n, slab)
        if not slab:  # rows, taped with their reduction
            result, taped = _reduce(operands, self.red, weights, tilt, lam, weighting)
        elif self.arity == 1:  # a single operand passes through unweighted
            result, taped = operands[0].copy(), None
        else:
            slabs = _Slabs(operands, weights, tilt, weighting)
            result = edge = slabs.edge(self.red)
            total = None
            if lam is not None:
                result, total = self.red.slab_soft(slabs, lam, edge, self.add)
            taped = (operands, weights, tilt, edge, total, result)
        for index, row in zip(self.indices, result):
            values[index] = row
        if tape is not None:
            tape[self] = taped

    def backward(self, values, adjoints, lam, weighting, tape):
        if not self.reduces:
            for index, op in zip(self.indices, self.ops):
                _single_backprop(op, values, adjoints[index], adjoints, lam, weighting)
            return
        adjoint = np.stack([adjoints[index] for index in self.indices])
        n = adjoint.shape[1]
        if n < self.arity:
            rows = _partials(self.red, lam, tape.pop(self), None)
            rows *= adjoint[..., None]
            blocks = [(rows.transpose(2, 0, 1), 0, self.arity)]
        else:
            blocks = self._slab_contributions(tape.pop(self), adjoint, lam, weighting)
        if not self.window:
            # one zeroed buffer; an operand's adjoint views its first len(operand)
            width = max(len(values[arg]) for args in self.args for arg in args)
            full = np.zeros((self.arity, len(self.indices), width))
            for part, j0, j1 in blocks:
                full[j0:j1, :, :n] = part
            for node, args in enumerate(self.args):
                for r, arg in enumerate(args):
                    adjoints[arg] = full[r, node, :len(values[arg])]
            return
        # each operand sample adds its contributions by ascending output
        # sample, as a sequential scatter-add in (sample, offset) order would
        full = np.zeros((len(self.indices), n + self.hi))
        lo = self.lo
        if n < self.arity:
            for t in range(n):
                full[:, lo + t:lo + t + self.arity] += rows[:, t]
        else:
            for part, j0, j1 in blocks:
                for j in range(j1 - 1, j0 - 1, -1):
                    full[:, lo + j:lo + j + n] += part[j - j0]
        for (arg,), row in zip(self.args, full):
            adjoints[arg] = row

    def _slab_contributions(self, taped, adjoint, lam, weighting):
        """Yield (adjoint * partials of slabs j0..j1, j0, j1), from the last
        slab down."""
        if self.arity == 1:
            yield adjoint[None], 0, 1  # adjoint * 1.0
            return
        operands, weights, tilt, edge, total, result = taped
        slabs = _Slabs(operands, weights, tilt, weighting)
        partial = self.red.slab_partials(slabs, lam, edge, total, result, self.add)
        scratch = np.empty((min(slabs.block, self.arity),) + adjoint.shape)
        for j0, j1 in reversed(_spans(0, self.arity, slabs.block)):
            out = partial(j0, j1, scratch[:j1 - j0])
            if weighting == _SHARE:
                out *= slabs.factor(j0, j1)
            out *= adjoint
            yield out, j0, j1


def _single_values(op, values, out_len, lam, weighting):
    """Values of one Until, Next, Not or True instruction."""
    if op.kind == stl.TRUE:
        return np.full(out_len, np.inf)
    if op.kind == stl.NOT:
        return -values[op.args[0]]
    if op.kind == stl.NEXT:
        succ = op.lo + 1
        return values[op.args[0]][succ:succ + out_len].copy()
    return _until_values(op, values, out_len, lam, weighting)


def _single_backprop(op, values, adjoint, adjoints, lam, weighting):
    if op.kind == stl.NOT:
        adjoints[op.args[0]] = -adjoint
    elif op.kind == stl.NEXT:
        succ = op.lo + 1
        full = np.zeros(len(values[op.args[0]]))
        full[succ:succ + len(adjoint)] = adjoint
        adjoints[op.args[0]] = full
    elif op.kind == stl.UNTIL:
        _until_backprop(op, values, adjoint, adjoints, lam, weighting)


def _share_factor(operands, tilt):
    # sign(0) is +1, so the positive branch stays continuous from above
    return tilt * np.where(operands >= 0.0, 1.0, -1.0) + 0.5


def _reduce(operands, red, weights, tilt, lam, weighting):
    """Reduce the last axis of ``operands``: the result and, for a smooth
    reduction of m >= 2 operands, its tape. A weighted pass scales operands
    by the raw weights (exact) or by a factor of their sign and weight share
    (smooth), which keeps signs and, under uniform weights, arg-extrema.
    """
    if operands.shape[-1] == 1:
        return operands[..., 0].copy(), None
    factor = None
    if weighting == _SCALE:
        operands = operands * weights
    elif weighting == _SHARE:
        factor = _share_factor(operands, tilt)
        operands = factor * operands
    if lam is None:
        return red.hard.reduce(operands, axis=-1), None
    result, w, total = red.soft(operands, lam)
    return result, (operands, factor, w, total, result)


def _partials(red, lam, taped, operands):
    """Partials of a smooth reduction with respect to each of its ``operands``."""
    if taped is None:
        return np.ones_like(operands)
    weighted, factor, w, total, result = taped
    partials = red.partials(weighted, lam, w, total, result)
    if factor is not None:
        partials *= factor
    return partials


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
        candidates = _reduce(pair, op.pair, None, None, lam, None)[0]
        out[t] = _reduce(candidates[None, :], op.red, op.weights, op.tilt, lam, weighting)[0][0]
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
        candidates, taped = _reduce(pair, op.pair, None, None, lam, None)
        pair_partials = _partials(op.pair, lam, taped, pair)
        row = candidates[None, :]
        taped = _reduce(row, op.red, op.weights, op.tilt, lam, weighting)[1]
        contrib = adjoint[t] * _partials(op.red, lam, taped, row)[0]
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
