"""Exact, smooth, weighted, and weighted-smooth robustness over traces.

The exact semantics follows the classic min/max recursion. The smooth
variant replaces min with a log-sum-exp lower bound and max with a
softmax convex combination, both controlled by a sharpness parameter:
larger sharpness means a tighter approximation. All exponential sums are
max-shifted so no overflow occurs for |sharpness * value| <= 700. Infinite
values come from ``true``, non-finite coordinates or overflow; where the
exact min/max of a reduction is infinite, the smooth one returns that same
infinity, and an infinite operand or result passes no gradient.

A formula is compiled once per sampling period into a ``Program``: a flat
post-order list of instructions (STLCG's computation-graph view of
robustness) with each node's access steps, window offsets and weights
resolved. Implication is lowered to Or(Not(lhs), rhs).

A pass writes one fresh (instructions, L) value array and a reverse sweep
one zeroed adjoint array; instruction i owns row ``row[i]`` up to its
L - steps samples. Each atom group and each batch owns consecutive rows.
A batch gathers its operands with one indexing, a view where their rows
are consecutive: for a window or Boolean batch of K nodes with m
operands each, an (m, K, n) array whose slab j holds operand j (for
windows the strided view operand[:, lo + j : lo + j + n]), reduced over
axis 0 by one kernel pair per smooth reduction. The sweep reads a
batch's adjoints as its rows and writes its operands' rows with one
assignment, for windows a sum over the slabs of a sheared buffer. Atom
groups give dense blocks of the state gradient, summed per state row.

A pass runs under one semantics (lam, weighting): lam None reduces by
hard min/max; weighting None, ``_SCALE`` or ``_SHARE`` takes operands
plain, times raw weights or share-transformed. A program keeps its last
smooth pass: its values, each reduction's tape (operands and exponential
terms, turned into partials in place) and each box atom's first face of
least margin (as argmin picks it where a margin is NaN), picked while the
forward pass folds the faces. No tape entry reads the trace, so the pass
is keyed by the semantics and the trace's bits alone: a gradient of that
key runs only the sweep, and an exact monitor copies the atom rows it
shares with the objective and evaluates only the rest. Reports keep none.

A smooth pass decides once, after its atom rows, whether it is known
finite: no ``true`` or Until, and 4m (M + D (ln m + 1) / lam) < 1e308
for M the largest |atom value| (NaN fails), m the largest arity and D
the number of reducing batches. Then no value, extreme, weight sum or
softmax mean is infinite or NaN: share factors lie in [0, 1], a softmin
lies at most (ln m + 1) / lam below its extreme, a softmax within its
operands' range, and rounding grows these bounds less than twofold while
D m < 1e15. A known-finite pass, and the sweep over its tape, skip the
probes, which change no bit of it: softmin (its partials) rewrites only
samples of infinite extreme (result); softmax (its partials) zeroes only
the products (and partials) of -inf operands, rewrites only samples of
infinite extreme (result), and else sums the same products in the same
order. Every other pass takes each probe.

Every result is bit for bit that of a node-by-node recursive
evaluation: elementwise steps round as before, sums over a reduction's
operands add in numpy's order for one node's row, and scatter-adds
(window adjoints, atom gradients) add from +0.0, which padding zeros
leave as is, in the order of a recursive left-to-right sweep. Only the
sign of a zero extreme, and which NaN a sum of NaNs keeps, may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stl
from .dynamics import Trace
from .errors import BadSharpness, EmptyInput, NonPositiveWeight, TraceTooShort

# weighting of one pass: operands times raw weights (exact weighted
# semantics) or the normalized-weight transform (weighted smooth)
_SCALE = "scale"
_SHARE = "share"


def smooth_min(values, sharpness: float) -> float:
    """Log-sum-exp under-approximation of min; exact for singleton input."""
    return _smooth_one(values, sharpness, _MIN, "smooth_min")


def smooth_max(values, sharpness: float) -> float:
    """Softmax-weighted average: a convex combination, so min <= result <= max."""
    return _smooth_one(values, sharpness, _MAX, "smooth_max")


@np.errstate(invalid="ignore")  # see the smooth reductions below
def _smooth_one(values, sharpness, red, name):
    values = np.asarray(values, float).ravel()
    if values.size == 0:
        raise EmptyInput(f"{name} of an empty set")
    _check_sharpness(sharpness)
    return float(_reduce(values, red, None, None, sharpness, None)[0])


# One kernel pair per smooth reduction. A kernel reduces axis 0 of (m, ...)
# operands given their hard extreme ``edge``: it writes the exponential
# weights into the caller's ``terms``, which the sweep turns into partials
# in place, and sums every product laid out like ``terms`` with the
# caller's ``add``, so the caller fixes the order of every sum. Callers turn
# invalid-operation warnings off: the NaNs of inf - inf or 0 * inf are
# rebuilt afterwards, unless the pass is known ``finite``. An infinite
# result or operand passes no gradient.


def _exp_terms(values, lam, edge, terms):
    np.subtract(values, edge, out=terms)
    terms *= lam
    return np.exp(terms, out=terms)


def _softmin(values, lam, edge, terms, add, finite):
    total = add(_exp_terms(values, -lam, edge, terms))
    result = edge - np.log(total) / lam
    if not finite and np.isnan(result.sum()):  # an infinite min
        result = np.where(np.isinf(edge), edge, result)
    return result, total


def _softmax(values, lam, edge, terms, add, finite):
    total = add(_exp_terms(values, lam, edge, terms))
    weighted = np.multiply(values, terms, out=np.empty_like(terms))
    result = add(weighted) / total
    if not finite and np.isnan(result.sum()):  # a -inf operand or an infinite max
        weighted[np.isneginf(values)] = 0.0  # a -inf operand has weight exactly zero
        result = np.where(np.isinf(edge), edge, add(weighted) / total)
    return result, total


def _softmin_partials(values, lam, terms, total, result, add, finite):
    terms /= total  # a +inf operand of a finite min has w = 0
    if not finite and np.isnan(total.sum()):  # an infinite min
        np.copyto(terms, 0.0, where=np.isinf(result))
    return terms


def _softmax_partials(values, lam, terms, total, result, add, finite):
    """d softmax / d value_i = q_i * (1 + lam * (value_i - result))."""
    terms /= total
    step = np.multiply(values, terms, out=np.empty_like(terms))
    mean = add(step)
    dead = not finite and np.isnan(mean.sum())  # a -inf operand or an infinite max
    if dead:
        dead_at = np.isneginf(values)
        step[dead_at] = 0.0
        mean = add(step)
    np.subtract(values, mean, out=step)
    step *= lam
    step += 1.0
    terms *= step
    if dead:
        terms[dead_at] = 0.0
        np.copyto(terms, 0.0, where=np.isinf(result))
    return terms


class _Reduction(NamedTuple):
    is_min: bool
    hard: np.ufunc
    soft: object
    partials: object


_MIN = _Reduction(True, np.minimum, _softmin, _softmin_partials)
_MAX = _Reduction(False, np.maximum, _softmax, _softmax_partials)


# Sums over the first axis of C-contiguous (m, K, n) terms, in the order
# numpy sums the same terms laid out by rows. numpy starts a sum from
# +0.0, which only turns a -0.0 total into +0.0. It sums one contiguous
# row pairwise: rows of fewer than 8 values in sequence, up to 128 values
# in 8 interleaved lanes, longer rows split in two near the middle at a
# multiple of 8. It sums the columns of an (n, m) matrix stored by columns
# one after another, as it sums over an array's first axis.
_PAIRWISE_LANES = 8
_PAIRWISE_BLOCK = 128


def _pairwise_sum(terms):
    """Bit for bit numpy's sum of one contiguous row of the terms."""
    return _pairwise(terms, 0, len(terms)) + 0.0


def _pairwise(terms, lo, hi):
    m = hi - lo
    if m > _PAIRWISE_BLOCK:
        half = m // 2
        half -= half % _PAIRWISE_LANES
        total = _pairwise(terms, lo, lo + half)
        total += _pairwise(terms, lo + half, hi)
        return total
    stop = hi - m % _PAIRWISE_LANES
    if m < _PAIRWISE_LANES:
        total, stop = terms[lo].copy(), lo + 1
    else:
        # lane r sums terms r, r + 8, ... in sequence; a lane's zero sign
        # shows only in a zero total, which the final +0.0 clears
        lanes = np.add.reduce(terms[lo:stop].reshape((-1, _PAIRWISE_LANES) + terms.shape[1:]),
                              axis=0)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), summed into r0
        lanes[::2] += lanes[1::2]
        lanes[::4] += lanes[2::4]
        total = lanes[0]
        total += lanes[4]
    for row in terms[stop:hi]:
        total += row
    return total


def _sequential_sum(terms):
    """Bit for bit numpy's sum over the columns of an (n, m) matrix stored
    by columns."""
    return np.add.reduce(terms, axis=0, initial=0.0)


# ---------------------------------------------------------------------------
# Atom margins and their gradients
#
# Atoms of one predicate kind are evaluated together, one row per atom.
# Their gradients are dense (K, L, 3) blocks of the state gradient
# [d/d positions, d/d velocities] of shape (2, drones, L, 3): a tuple of
# blocks per group, laid out as its ``blocks_of``, (0 for positions or 1
# for velocities, each atom's drone) per tuple entry.


def _norms(vectors):
    """np.linalg.norm over the last axis of (K, L, 3) vectors, bit for bit."""
    x, y, z = vectors.transpose(2, 0, 1)
    return np.sqrt(x * x + y * y + z * z)


def _units(vectors, norms):
    """vectors / norms, zero where a norm is not positive."""
    unit = vectors / norms[..., None]
    if not norms.min() > 0:  # a zero or NaN norm
        unit[~(norms > 0)] = 0.0
    return unit


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
        self.blocks_of = ((int(self.kind == stl.VELOCITY_BOX), self.drones),)

    def _faces(self, trace):
        """(3, K, L) face margins p - lo and hi - p, one axis per slab."""
        coords = (trace.vel if self.kind == stl.VELOCITY_BOX else trace.pos)[self.drones]
        coords = coords.transpose(2, 0, 1)
        return (np.subtract(coords, self.lo.transpose(1, 0, 2), order="C"),
                np.subtract(self.hi.transpose(1, 0, 2), coords, order="C"))

    def forward(self, trace, keep=False):
        # a min of the faces (max of negated ones) folded per axis, then over
        # axes (np.minimum and np.maximum are associative to the bit); a
        # taping pass picks each sample's first face of least margin by one
        # compare and one select per fold step, or as argmin where one is NaN
        low, high = self._faces(trace)
        fold, wins = np.minimum, np.less
        if self.kind == stl.BOX_OUTSIDE:
            fold, wins = np.maximum, np.greater
            np.negative(low, out=low)
            np.negative(high, out=high)
        if keep:  # the face of each axis's pair
            active = wins(high, low).view(np.int8)
            active[1] += 2
            active[2] += 4
        value = fold(low, high, out=low)
        for axis in (1, 2):
            if keep:
                np.copyto(active[0], active[axis], where=wins(value[axis], value[0]))
            fold(value[0], value[axis], out=value[0])
        if not keep:
            return self.scale * value[0], None
        active = active[0]
        if np.isnan(value[0].min()):  # as argmin picks: the first NaN face, else the first least
            faces = self._faces(trace)
            margins = (pair[axis] for axis in range(3) for pair in faces)
            least = next(margins)
            active = np.zeros(least.shape, np.int8)
            for face, margin in enumerate(margins, 1):
                wins = (margin < least) | (np.isnan(margin) & ~np.isnan(least))
                np.copyto(active, face, where=wins)
                np.minimum(least, margin, out=least)
        return self.scale * value[0], active

    def state_blocks(self, active, adjoint):
        amount = self.face_sign[active] * (self.scale * adjoint)
        blocks = np.zeros(amount.shape + (3,))
        blocks.reshape(-1)[np.arange(0, blocks.size, 3) + (active >> 1).ravel()] = amount.ravel()
        return (blocks,)


class _Separations:
    """Pairwise distance minus threshold."""

    def __init__(self, preds):
        self.a = np.array([p.subject[0] for p in preds])
        self.b = np.array([p.subject[1] for p in preds])
        self.blocks_of = ((0, self.a), (0, self.b))
        self.threshold = np.array([p.threshold for p in preds])[:, None]
        self.scale = np.array([p.scale for p in preds])[:, None]

    def forward(self, trace, keep=False):
        diff = trace.pos[self.a] - trace.pos[self.b]
        dist = _norms(diff)
        return self.scale * (dist - self.threshold), (diff, dist)

    def state_blocks(self, aux, adjoint):
        push = _units(*aux)
        push *= (self.scale * adjoint)[..., None]
        return push, -push


class _Segments:
    """Distance to a segment kept inside a band [standoff - tol, standoff + tol]."""

    def __init__(self, preds):
        self.drones = np.array([p.subject[0] for p in preds])
        self.blocks_of = ((0, self.drones),)
        self.starts = np.array([p.seg_start for p in preds], float)
        self.spans = np.array([p.seg_end for p in preds], float) - self.starts
        self.lengths = np.array([u @ u for u in self.spans])[:, None]
        self.inner = np.array([p.standoff - p.tolerance for p in preds])[:, None]
        self.outer = np.array([p.standoff + p.tolerance for p in preds])[:, None]
        self.scale = np.array([p.scale for p in preds])[:, None]

    def forward(self, trace, keep=False):
        # stl.segment_offsets, rounding the same, with the lengths kept
        points = trace.pos[self.drones]
        offset = points - self.starts[:, None]
        s = np.matmul(offset, self.spans[..., None])[..., 0]
        s /= self.lengths
        np.multiply(np.clip(s, 0.0, 1.0, out=s)[..., None], self.spans[:, None], out=offset)
        offset += self.starts[:, None]
        np.subtract(points, offset, out=offset)
        dist = _norms(offset)
        value = np.minimum(dist - self.inner, self.outer - dist)
        return self.scale * value, (offset, dist)

    def state_blocks(self, aux, adjoint):
        offset, dist = aux
        # branch 0: dist - inner (d/d dist = +1); branch 1: outer - dist (-1)
        sign = np.where(dist - self.inner <= self.outer - dist, 1.0, -1.0)
        push = _units(offset, dist)
        push *= ((self.scale * adjoint) * sign)[..., None]
        return (push,)


_ATOM_GROUPS = {stl.BOX_INSIDE: _Boxes, stl.VELOCITY_BOX: _Boxes, stl.BOX_OUTSIDE: _Boxes,
                stl.MIN_SEPARATION: _Separations, stl.SEGMENT_BAND: _Segments}


def atom_values(preds, trace: Trace) -> np.ndarray:
    """Margins of predicates of one kind at every sample, shape (K, L)."""
    return _ATOM_GROUPS[preds[0].kind](list(preds)).forward(trace)[0]


# ---------------------------------------------------------------------------
# Compiled program


class _Op:
    """One instruction: a node kind over earlier instructions' values."""

    __slots__ = ("kind", "args", "steps", "lo", "hi", "width", "red", "weights", "tilt")

    def __init__(self, kind, args=(), steps=0):
        self.kind = kind
        self.args = args            # indices of operand instructions
        self.steps = steps          # samples of lookahead past t
        self.lo = self.hi = self.width = 0
        self.red = None
        self.weights = self.tilt = None


class Program:
    """A formula compiled for one sampling period, optionally with weights.

    ``ops`` is the post-order instruction list; the last one is the root.
    ``batches`` partitions the other instructions into passes, each after
    those computing its operands. The module-level functions, which accept
    a program wherever they accept a formula, and ``node``, which reads one
    instruction's values from a pass, are its public interface.
    """

    def __init__(self, formula: stl.Formula, ts: float, weights: stl.WeightMap = None):
        if weights is not None:
            _check_weights(weights)
        self.formula = formula
        self.ts = ts
        self.weights = weights
        self.ops = []
        self.labels = []            # (node_id, op index) in pre-order, for reports
        self._preds = {}            # op index -> predicate, of each atom
        self._emit(formula)
        kinds = {}
        for index, pred in self._preds.items():
            kinds.setdefault(pred.kind, []).append(index)
        self.leaves = list(self._preds)
        # rows: atom groups, then batches, each consecutive
        layers = list(kinds.values()) + self._batch()
        self._order(layers)
        self.row = [0] * len(self.ops)
        for row, index in enumerate(i for indices in layers for i in indices):
            self.row[index] = row
        self.groups = [(_ATOM_GROUPS[kind]([self._preds[i] for i in indices]), indices)
                       for kind, indices in zip(kinds, layers)]
        self._group_rows = [slice(self.row[i[0]], self.row[i[0]] + len(i)) for _, i in self.groups]
        self.batches = [_Batch(self.ops, indices, self.row) for indices in layers[len(kinds):]]
        # the sweep stacks the atoms' state blocks by state row, then leaf order
        place = {index: rank for rank, index in enumerate(self.leaves)}
        keys = [(state, drone, place[i], part) for group, indices in self.groups
                for part, (state, drones) in enumerate(group.blocks_of)
                for drone, i in zip(drones, indices)]
        self._slot = np.argsort(sorted(range(len(keys)), key=keys.__getitem__))
        rows = sorted(key[:2] for key in keys)
        self._state_rows = [(row, rows.index(row), rows.index(row) + rows.count(row))
                            for row in dict.fromkeys(rows)]
        m = max([b.arity for b in self.batches if b.reduces] + [1])
        # (4m, D (ln m + 1)) of the finiteness rule; None with true or Until
        self._finite_rule = None if {stl.TRUE, stl.UNTIL} & {op.kind for op in self.ops} else (
            4 * m, sum(b.reduces for b in self.batches) * (float(np.log(m)) + 1))
        self._kept = None           # (key, values, tape, finite) of the last smooth pass
        self._lender = None         # (program, our rows, its rows, our own atom groups)

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
        op = _Op(kind, args)
        steps = max((self.ops[a].steps for a in args), default=0)
        if kind == stl.ATOM:
            self._preds[len(self.ops)] = node.predicate
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
        """Op indices of each kind, window, lookahead and arity at one depth,
        by depth, so each group's operands come from shallower groups."""
        depth = []
        members = {}
        for index, op in enumerate(self.ops):
            depth.append(1 + max((depth[a] for a in op.args), default=-1))
            if op.kind != stl.ATOM:
                key = (depth[index], op.kind, op.lo, op.width, op.steps, len(op.args))
                members.setdefault(key, []).append(index)
        return [indices for _, indices in sorted(members.items(), key=lambda item: item[0][0])]

    def _order(self, layers):
        """Sort each layer as deeper layers read it, operand j of every node
        before operand j + 1, so operands sit on consecutive rows."""
        reads = {}
        for layer in reversed(layers):
            layer.sort(key=lambda index: reads.get(index, 0))
            for j in range(len(self.ops[layer[0]].args)):
                for index in layer:
                    reads[self.ops[index].args[j]] = len(reads)

    # -- evaluation

    def node(self, values, i):
        """Instruction i's row of the pass ``values``, cut to its length."""
        return values[self.row[i], :values.shape[1] - self.ops[i].steps]

    def _evaluate(self, trace, t_index=0, lam=None, weighting=None) -> float:
        """Robustness at ``t_index`` of one pass under (lam, weighting)."""
        return self._value_at(self._forward(trace, lam, weighting), t_index)

    def _value_at(self, values, t_index) -> float:
        root = self.node(values, -1)
        if t_index < 0 or t_index >= len(root):
            raise TraceTooShort(
                f"t_index {t_index} out of range: node {self.formula.node_id!r} is defined "
                f"on samples 0..{len(root) - 1} of this trace")
        return float(root[t_index])

    @np.errstate(invalid="ignore")  # see the smooth reductions
    def _forward(self, trace, lam=None, weighting=None, keep=True):
        """The (rows, L) values of one pass under (lam, weighting), lam None
        meaning hard min/max; a smooth pass is kept with its tape, unless
        ``keep`` is off because no gradient follows it."""
        self._kept = None
        length = trace.n_samples
        root = self.ops[-1]
        if length - root.steps <= 0:
            raise TraceTooShort(
                f"trace of {length} samples cannot evaluate node "
                f"{self.formula.node_id!r}, which needs {root.steps + 1}")
        values = np.empty((len(self.ops), length))
        tape = {} if lam is not None and keep else None
        lender = self._lender
        lent = lender[0]._kept_over(trace) if lender and tape is None else None
        if lent:
            _, ours, theirs, own = lender
            values[ours] = lent[1][theirs]
            for group, rows in own:
                values[rows] = group.forward(trace)[0]
        else:
            for (group, _), rows in zip(self.groups, self._group_rows):
                values[rows], data = group.forward(trace, keep=tape is not None)
                if tape is not None:
                    tape[group] = data
        finite = False
        if lam is not None and self._finite_rule:
            atoms, (scale, reach) = values[:len(self.leaves)], self._finite_rule
            finite = scale * (float(max(atoms.max(), -atoms.min())) + reach / lam) < 1e308
        for batch in self.batches:
            batch.forward(values, lam, weighting, tape, finite)
        if tape is not None:
            self._kept = (_pass_key(trace, lam, weighting), values, tape, finite)
        return values

    def _kept_over(self, trace, semantics=None):
        """The kept pass, if over the bits of ``trace`` (and ``semantics``, if given)."""
        kept = self._kept
        if kept is None or kept[0] != _pass_key(trace, *(semantics or kept[0][:2])):
            return None
        return kept

    def _borrow_atoms(self, lender):
        """Take the atom rows of exact passes from ``lender``'s kept pass over
        the same bits, for each atom here that is one of ``lender``'s
        predicates; the other atoms are evaluated here, one group per kind."""
        theirs = {id(pred): lender.row[index] for index, pred in lender._preds.items()}
        lent, rest = {}, {}
        for _, indices in self.groups:
            for i in indices:
                row = theirs.get(id(self._preds[i]))
                if row is None:
                    rest.setdefault(self._preds[i].kind, []).append(i)
                else:
                    lent[self.row[i]] = row
        if not lent:
            return
        own = [(_ATOM_GROUPS[kind]([self._preds[i] for i in indices]),
                np.array([self.row[i] for i in indices])) for kind, indices in rest.items()]
        self._lender = (lender, np.array(list(lent)), np.array(list(lent.values())), own)

    @np.errstate(invalid="ignore", divide="ignore")  # x / 0 where a norm underflows
    def _gradient(self, trace, lam, weighting=None, t_index=0):
        """(value, d/d positions, d/d velocities) at t_index of the smooth
        pass under (lam, weighting)."""
        if lam is None:
            raise ValueError("gradients are defined for the smooth evaluation paths")
        if not self._kept_over(trace, (lam, weighting)):
            self._forward(trace, lam, weighting)
        _, values, tape, finite = self._kept
        self._kept = None
        value = self._value_at(values, t_index)
        adjoints = np.zeros(values.shape)
        adjoints[-1, t_index] = 1.0  # the root's row is the last
        # every instruction has one consumer, which sits in a deeper batch
        for batch in reversed(self.batches):
            batch.backward(values, adjoints, lam, weighting, tape, finite)
        stack, start = np.empty((len(self._slot), trace.n_samples, 3)), 0
        for (group, _), rows in zip(self.groups, self._group_rows):
            for blocks in group.state_blocks(tape.pop(group), adjoints[rows]):
                stack[self._slot[start:start + len(blocks)]] = blocks
                start += len(blocks)
        # each state row adds its blocks in leaf order from +0.0, as a
        # recursive sweep would, and their zeros add nothing
        grad = np.zeros((2,) + trace.pos.shape)
        for row, lo, hi in self._state_rows:
            np.add.reduce(stack[lo:hi], axis=0, out=grad[row], initial=0.0)
        return value, grad[0], grad[1]


def _pass_key(trace, lam, weighting):
    """What a smooth forward pass depends on, to the bit."""
    return (lam, weighting, trace.pos.shape, trace.vel.shape,
            trace.pos.tobytes(), trace.vel.tobytes())


class _Batch:
    """Instructions of one kind, window, lookahead and arity on consecutive
    rows: a window or Boolean batch is one reduction of (m, K, n) operands,
    Next, Not and True one copy; Until runs node by node."""

    def __init__(self, ops, indices, row):
        self.ops = [ops[index] for index in indices]
        self.indices = indices
        op = self.ops[0]
        self.kind, self.red, self.steps = op.kind, op.red, op.steps
        self.lo, self.hi = op.lo, op.hi
        self.window = op.kind in (stl.ALWAYS, stl.EVENTUALLY)
        self.reduces = self.window or op.kind in (stl.AND, stl.OR)
        self.arity = op.width if self.window else len(op.args)
        self.args = [o.args for o in self.ops]
        self.rows = slice(row[indices[0]], row[indices[0]] + len(indices))
        # the row of operand j of node k at [j][k]; flat, a slice if consecutive
        self.arg_rows = [[row[a[j]] for a in self.args] for j in range(len(op.args))]
        rows = sum(self.arg_rows, [])
        span = range(rows[0], rows[0] + len(rows)) if rows else range(0)
        self.operand_rows = slice(span.start, span.stop) if rows == list(span) else np.array(rows)
        self.weights = self.tilt = None
        if op.weights is not None and self.reduces:  # (K, m)
            self.weights = np.stack([o.weights for o in self.ops])
            self.tilt = np.stack([o.tilt for o in self.ops])

    def _operands(self, values, n):
        """The K nodes' operands as an (m, K, n) array, slab j holding operand
        j, with the weights and tilts broadcasting against it."""
        k, m, rows = len(self.indices), self.arity, self.operand_rows
        if self.window:
            stack, first = ((values, rows.start) if isinstance(rows, slice)
                            else (values[rows, :n + self.hi], 0))
            row, step = stack.strides
            operands = np.ndarray((m, k, n), stack.dtype, stack, first * row + self.lo * step,
                                  (step, row, step))
        else:
            operands = values[rows, :n].reshape(m, k, n)
        if self.weights is None:
            return operands, None, None
        return operands, self.weights.T[:, :, None], self.tilt.T[:, :, None]

    def _layout(self, n):
        """The (m, K, n) terms buffer of a smooth pass and the sum over it:
        where n >= m, C-contiguous slabs summed as numpy sums one node's
        operands (a window's as one row per output sample, a Boolean node's
        as the columns of an (n, m) matrix stored by columns); else laid out
        as those rows, which numpy sums itself."""
        k, m = len(self.indices), self.arity
        if n >= m:
            return np.empty((m, k, n)), (_pairwise_sum if self.window else _sequential_sum)
        if self.window:
            return np.empty((k, n, m)).transpose(2, 0, 1), np.add.reduce
        return np.empty((k, m, n)).transpose(1, 0, 2), np.add.reduce

    def forward(self, values, lam, weighting, tape, finite=False):
        n = values.shape[1] - self.steps
        own, args = values[self.rows, :n], self.operand_rows
        if self.kind == stl.TRUE:
            own[:] = np.inf
        elif self.kind == stl.NOT:
            own[:] = -values[args, :n]
        elif self.kind == stl.NEXT:
            own[:] = values[args, self.lo + 1:self.lo + 1 + n]
        elif self.kind == stl.UNTIL:
            for out, op, (hold, goal) in zip(own, self.ops, zip(*self.arg_rows)):
                _until_values(op, values[hold], values[goal], out, lam, weighting)
        else:
            operands, weights, tilt = self._operands(values, n)
            layout = () if lam is None else self._layout(n)
            own[:], taped = _reduce(operands, self.red, weights, tilt, lam, weighting, *layout,
                                    finite=finite)
            if tape is not None:  # taping the result as ``values`` holds it
                tape[self] = taped and taped[:-1] + (own,)

    def backward(self, values, adjoints, lam, weighting, tape, finite=False):
        n = values.shape[1] - self.steps
        adjoint, args = adjoints[self.rows, :n], self.operand_rows
        if self.kind == stl.NOT:
            adjoints[args, :n] = -adjoint
        elif self.kind == stl.NEXT:
            adjoints[args, self.lo + 1:self.lo + 1 + n] = adjoint
        elif self.kind == stl.UNTIL:
            for row, op, (hold, goal) in zip(adjoint, self.ops, zip(*self.arg_rows)):
                _until_backprop(op, values[hold], values[goal], row, adjoints[hold],
                                adjoints[goal], lam, weighting)
        elif self.reduces:
            taped = tape.pop(self)
            if taped is None:  # a single operand passes its adjoint through
                adjoints[args, self.lo:n + self.hi] = adjoint
                return
            part = _partials(self.red, lam, weighting, taped, finite)
            m = self.arity
            if self.window and n >= m:
                # slab m - 1 - j of a zeroed buffer takes operand j's products
                # shifted by j samples; summed over slabs from +0.0, each
                # operand sample adds its products by ascending output sample,
                # as a sequential scatter-add would, and the zeros add nothing
                full = np.zeros((m, len(self.indices), n + m - 1))
                slab, row, step = full.strides
                np.multiply(part, adjoint, out=np.ndarray(part.shape, full.dtype, full,
                                                          (m - 1) * slab, (step - slab, row, step)))
                adjoints[args, self.lo:n + self.hi] = np.add.reduce(full, axis=0, initial=0.0)
                return
            part *= adjoint
            if not self.window:
                adjoints[args, :n] = part.reshape(-1, n)
                return
            full = np.zeros((len(self.indices), n + m - 1))
            for t in range(n):
                full[:, t:t + m] += part[:, :, t].T
            adjoints[args, self.lo:n + self.hi] = full


def _share_factor(operands, tilt):
    # sign(0) is +1, so the positive branch stays continuous from above;
    # tilt times +-1.0 is +-tilt exactly
    factor = np.where(operands >= 0.0, tilt, -tilt)
    factor += 0.5
    return factor


def _weighted(operands, weights, tilt, weighting):
    """A pass's operands times the raw weights (exact) or the share factor
    (smooth), which keeps signs and, under uniform weights, arg-extrema."""
    if weighting == _SCALE:
        return operands * weights
    if weighting != _SHARE:
        return operands
    scale = _share_factor(operands, tilt)
    scale *= operands
    return scale


def _reduce(operands, red, weights, tilt, lam, weighting, terms=None, add=np.add.reduce,
            finite=False):
    """Reduce axis 0 of ``operands``: the result and, for a smooth reduction
    of m >= 2 operands, its tape. The smooth kernel writes its weights into
    ``terms``, laid out like the weighted operands unless given, and sums
    them with ``add``."""
    if len(operands) == 1:
        return operands[0], None
    weighted = _weighted(operands, weights, tilt, weighting)
    result = edge = red.hard.reduce(weighted, axis=0)
    if lam is None:
        return result, None
    terms = np.empty_like(weighted) if terms is None else terms
    result, total = red.soft(weighted, lam, edge, terms, add, finite)
    return result, (operands, tilt, add, terms, total, result)


def _partials(red, lam, weighting, taped, finite=False):
    """Partials of a smooth reduction with respect to each operand, in place
    of its taped weights."""
    operands, tilt, add, terms, total, result = taped
    # a gradient's pass is unweighted or under the share transform
    factor = None if weighting is None else _share_factor(operands, tilt)
    if factor is not None and not red.is_min:  # softmax partials read operands
        operands = factor * operands
    partials = red.partials(operands, lam, terms, total, result, add, finite)
    if factor is not None:
        partials *= factor
    return partials


def _prefix_min(values, lam):
    if lam is None:
        return np.minimum.accumulate(values)
    # running log-sum-exp keeps each prefix shifted by its own extreme
    return -np.logaddexp.accumulate(-lam * values) / lam


def _until_values(op, hold, goal, out, lam, weighting):
    lo, hi = op.lo, op.hi
    for t in range(len(out)):
        prefix = _prefix_min(hold[t:t + hi + 1], lam)[lo:]
        pair = np.stack([goal[t + lo:t + hi + 1], prefix], axis=1).T  # laid out by rows of two
        candidates = _reduce(pair, _MIN, None, None, lam, None)[0]
        out[t] = _reduce(candidates, op.red, op.weights, op.tilt, lam, weighting)[0]


def _until_backprop(op, hold, goal, adjoint, hold_adj, goal_adj, lam, weighting):
    lo, hi = op.lo, op.hi
    mask = np.arange(hi + 1)[None, :] <= (lo + np.arange(hi - lo + 1))[:, None]
    for t in np.nonzero(adjoint)[0]:
        seg = hold[t:t + hi + 1]
        log_cum = np.logaddexp.accumulate(-lam * seg)
        prefix = (-log_cum / lam)[lo:]
        pair = np.stack([goal[t + lo:t + hi + 1], prefix], axis=1).T
        candidates, taped = _reduce(pair, _MIN, None, None, lam, None)
        pair_partials = _partials(_MIN, lam, None, taped)
        taped = _reduce(candidates, op.red, op.weights, op.tilt, lam, weighting)[1]
        contrib = adjoint[t] * (1.0 if taped is None else _partials(op.red, lam, weighting, taped))
        goal_adj[t + lo:t + hi + 1] += contrib * pair_partials[0]
        # prefix smooth-min partial wrt hold[u]: exp(-lam*hold[u] - log_cum_i),
        # and hold[u] feeds every prefix i with u <= lo + i; an infinite
        # hold value or prefix passes no gradient
        spread = contrib * pair_partials[1]
        live = mask & np.isfinite(seg)[None, :] & np.isfinite(log_cum[lo:])[:, None]
        exponent = (-lam * seg)[None, :] - log_cum[lo:, None]
        hold_adj[t:t + hi + 1] += spread @ np.exp(np.where(live, exponent, -np.inf))


def _program(formula, trace, weights=None) -> Program:
    """``formula`` itself when it is a compiled program, else a fresh compile."""
    if not isinstance(formula, Program):
        return Program(formula, trace.ts, weights)
    if formula.ts != trace.ts or (weights is not None and weights is not formula.weights):
        raise ValueError("program was compiled for another sampling period or other weights")
    return formula


# ---------------------------------------------------------------------------
# Public entry points. Each accepts a Formula or a compiled Program.


MIN_SHARPNESS = 1e-300


def _check_sharpness(sharpness):
    """A sharpness must be finite and at least MIN_SHARPNESS, so a kernel's
    shift ln(m) / lam stays below 1e302 for any window (m < 2**63)."""
    if sharpness is None or not MIN_SHARPNESS <= sharpness < np.inf:  # NaN compares False
        raise BadSharpness(f"sharpness must be finite and >= {MIN_SHARPNESS:g}, got {sharpness}")


def eval_exact(formula, trace, t_index: int = 0) -> float:
    """Exact robustness of ``formula`` on ``trace`` at sample ``t_index``."""
    return _program(formula, trace)._evaluate(trace, t_index)


def eval_smooth(formula, trace, t_index: int = 0, sharpness: float = 10.0) -> float:
    """Smooth robustness; converges to eval_exact as sharpness grows."""
    _check_sharpness(sharpness)
    return _program(formula, trace)._evaluate(trace, t_index, sharpness)


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
    return _program(formula, trace, weights)._evaluate(
        trace, t_index, sharpness if soft_combine else None, _SHARE)


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
    return _program(formula, trace, weights)._gradient(
        trace, sharpness, None if weights is None else _SHARE, t_index)


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


def make_report(formula, trace, sharpness: float, weights=None,
                t_index: int = 0) -> RobustnessReport:
    """Evaluate every node exactly and smoothly and bundle the results."""
    _check_sharpness(sharpness)
    program = _program(formula, trace, weights)
    exact_values = program._forward(trace)
    smooth_values = program._forward(trace, sharpness, keep=False)  # no gradient follows
    exact = program._value_at(exact_values, t_index)
    smooth = program._value_at(smooth_values, t_index)
    per_node = {}
    for node_id, index in program.labels:
        e, s = program.node(exact_values, index), program.node(smooth_values, index)
        if t_index < len(e):
            per_node[node_id] = (float(e[t_index]), float(s[t_index]))
    weighted_exact = weighted_smooth = None
    if weights is not None and len(weights):
        weighted_exact = program._evaluate(trace, t_index, None, _SCALE)
        weighted_smooth = program._evaluate(trace, t_index, None, _SHARE)
    return RobustnessReport(exact=exact, smooth=smooth, per_node=per_node,
                            satisfied=exact > 0.0, sharpness=sharpness,
                            weighted_exact=weighted_exact,
                            weighted_smooth=weighted_smooth)
