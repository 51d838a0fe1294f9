"""Bounded STL/weighted-STL formula trees over multi-drone traces.

Formulas are immutable after construction and safe to share between
threads. Temporal intervals are given in seconds and converted to sample
indices on demand; conversion is strict (off-grid endpoints are rejected,
not shifted).
"""

from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, DegenerateSegment, IntervalError, NonPositiveWeight

# Node kinds. Implication is stored explicitly but lowered to
# Or(Not(lhs), rhs) before any evaluation, so only one semantics exists.
TRUE = "true"
ATOM = "atom"
NOT = "not"
AND = "and"
OR = "or"
ALWAYS = "always"
EVENTUALLY = "eventually"
NEXT = "next"
UNTIL = "until"
IMPLIES = "implies"

TEMPORAL_KINDS = (ALWAYS, EVENTUALLY, NEXT, UNTIL)
_ARITY = {TRUE: 0, ATOM: 0, NOT: 1, ALWAYS: 1, EVENTUALLY: 1, NEXT: 1,
          UNTIL: 2, IMPLIES: 2}

# an unlabeled node's id: "n" and 16 hex digits of a digest of the node
_AUTO_ID = re.compile(r"n[0-9a-f]{16}")

_GRID_RTOL = 1e-6


@dataclass(frozen=True)
class Interval:
    """Closed time interval [lo, hi] in seconds, both endpoints finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise IntervalError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise IntervalError(f"interval start must be >= 0, got {self.lo}")
        if self.hi < self.lo:
            raise IntervalError(f"interval reversed: [{self.lo}, {self.hi}]")

    def to_steps(self, ts: float) -> tuple[int, int]:
        """Convert to inclusive sample-index offsets on the grid with period ts.

        Raises IntervalError if an endpoint is off the grid.
        """
        return _seconds_to_steps(self.lo, ts), _seconds_to_steps(self.hi, ts)


def _seconds_to_steps(seconds: float, ts: float) -> int:
    if ts <= 0:
        raise IntervalError(f"sampling period must be positive, got {ts}")
    raw = seconds / ts
    k = int(round(raw))
    if abs(raw - k) > _GRID_RTOL * max(1.0, abs(raw)):
        raise IntervalError(
            f"time {seconds} s is not a multiple of the sampling period {ts} s "
            f"(off by {abs(raw - k) * ts:.3g} s)")
    return k


# Predicate kinds.
BOX_INSIDE = "box_inside"
BOX_OUTSIDE = "box_outside"
MIN_SEPARATION = "min_separation"
SEGMENT_BAND = "segment_band"
VELOCITY_BOX = "velocity_box"


def segment_offsets(points, starts, spans):
    """Offsets from points to their nearest points on segments.

    Segment k runs from starts[k] to starts[k] + spans[k], both (K, 3);
    its (K, L, 3) points project onto it with one batched product, clamped
    to the segment's ends.
    """
    lengths = np.array([u @ u for u in spans])[:, None]
    s = np.clip(np.matmul(points - starts[:, None], spans[..., None])[..., 0] / lengths,
                0.0, 1.0)
    return points - (starts[:, None] + s[..., None] * spans[:, None])


@dataclass(frozen=True)
class Predicate:
    """Atomic proposition with a real-valued margin over one fleet state.

    ``subject`` is a drone index, or an (i, j) pair for min_separation.
    Geometry fields are used per kind:
      box_inside / box_outside / velocity_box: lower, upper (per-axis)
      min_separation: threshold (meters)
      segment_band: seg_start, seg_end, standoff, tolerance
    """

    name: str
    kind: str
    subject: tuple
    lower: tuple = None
    upper: tuple = None
    threshold: float = None
    seg_start: tuple = None
    seg_end: tuple = None
    standoff: float = None
    tolerance: float = None
    scale: float = 1.0  # multiplies the margin; lets callers re-balance units

    def __post_init__(self):
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ValueError(f"{self.name}: margin scale must be finite and > 0")
        if self.kind in (BOX_INSIDE, BOX_OUTSIDE, VELOCITY_BOX):
            lo, hi = np.asarray(self.lower, float), np.asarray(self.upper, float)
            if lo.shape != (3,) or hi.shape != (3,):
                raise ValueError(f"{self.name}: box bounds must be 3-vectors")
            if not np.all(lo < hi):
                raise ValueError(f"{self.name}: box must satisfy lower < upper on every axis")
        elif self.kind == MIN_SEPARATION:
            if self.threshold is None or self.threshold <= 0:
                raise ValueError(f"{self.name}: separation threshold must be positive")
            if len(self.subject) != 2 or self.subject[0] == self.subject[1]:
                raise ValueError(f"{self.name}: min_separation needs two distinct drones")
        elif self.kind == SEGMENT_BAND:
            a = np.asarray(self.seg_start, float)
            b = np.asarray(self.seg_end, float)
            if np.linalg.norm(b - a) == 0.0:
                raise DegenerateSegment(f"{self.name}: segment endpoints coincide")
            if self.standoff - self.tolerance <= 0:
                raise ValueError(
                    f"{self.name}: band must satisfy 0 < standoff - tolerance "
                    f"(got {self.standoff} - {self.tolerance})")
        else:
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    # Factories ------------------------------------------------------------

    @staticmethod
    def box_inside(name, drone, lower, upper):
        return Predicate(name, BOX_INSIDE, (int(drone),),
                         lower=tuple(map(float, lower)), upper=tuple(map(float, upper)))

    @staticmethod
    def box_outside(name, drone, lower, upper):
        return Predicate(name, BOX_OUTSIDE, (int(drone),),
                         lower=tuple(map(float, lower)), upper=tuple(map(float, upper)))

    @staticmethod
    def min_separation(name, drone_a, drone_b, threshold):
        return Predicate(name, MIN_SEPARATION, (int(drone_a), int(drone_b)),
                         threshold=float(threshold))

    @staticmethod
    def segment_band(name, drone, seg_start, seg_end, standoff, tolerance):
        return Predicate(name, SEGMENT_BAND, (int(drone),),
                         seg_start=tuple(map(float, seg_start)),
                         seg_end=tuple(map(float, seg_end)),
                         standoff=float(standoff), tolerance=float(tolerance))

    @staticmethod
    def velocity_box(name, drone, lower, upper, scale=1.0):
        return Predicate(name, VELOCITY_BOX, (int(drone),),
                         lower=tuple(map(float, lower)), upper=tuple(map(float, upper)),
                         scale=float(scale))


@dataclass(frozen=True)
class Formula:
    """Immutable formula tree node.

    ``node_id`` is the key for weight attachment and per-node robustness
    reports. A label is unique in the tree (enforced at composition); an
    unlabeled node's id is a digest of the node, so equal unlabeled
    subtrees share their ids.
    """

    kind: str
    children: tuple = ()
    interval: Interval = None
    predicate: Predicate = None
    node_id: str = None
    all_ids: frozenset = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.node_id is None:
            object.__setattr__(self, "node_id", self._digest_id())
        ids = {self.node_id}
        for child in self.children:
            # equal unlabeled subtrees, such as two ``true`` leaves, share ids
            shared = [i for i in ids & child.all_ids if not _AUTO_ID.fullmatch(i)]
            if shared:
                raise ArityError(
                    f"duplicate node_id under {self.node_id!r}: "
                    f"{sorted(shared)} (formulas are trees, not DAGs)")
            ids |= child.all_ids
        object.__setattr__(self, "all_ids", frozenset(ids))

    def _digest_id(self) -> str:
        """An unlabeled node's id, from its kind, interval, predicate and
        children's ids alone, so a formula's ids do not depend on what else
        the process built before it."""
        span = None if self.interval is None else (float(self.interval.lo),
                                                   float(self.interval.hi))
        text = repr((self.kind, span, self.predicate,
                     [child.node_id for child in self.children])).encode()
        return f"n{zlib.crc32(text):08x}{zlib.adler32(text):08x}"

    def __iter__(self):
        yield self
        for child in self.children:
            yield from child


def compose(kind: str, children, interval=None, predicate=None, label=None) -> Formula:
    """Build a formula node, checking arity and interval presence."""
    children = tuple(children)
    if kind in (AND, OR):
        if not children:
            raise ArityError(f"{kind} needs at least one operand")
    elif kind in _ARITY:
        if len(children) != _ARITY[kind]:
            raise ArityError(f"{kind} takes {_ARITY[kind]} children, got {len(children)}")
    else:
        raise ArityError(f"unknown node kind {kind!r}")

    if kind in TEMPORAL_KINDS:
        if interval is None:
            raise IntervalError(f"{kind} requires an interval")
        if not isinstance(interval, Interval):
            interval = Interval(float(interval[0]), float(interval[1]))
    elif interval is not None:
        raise IntervalError(f"{kind} does not take an interval")

    if kind == ATOM and predicate is None:
        raise ArityError("atom requires a predicate")

    return Formula(kind, children, interval, predicate, node_id=label)


# Convenience constructors used throughout the package and tests.

def true(label=None):
    return compose(TRUE, [], label=label)


def atom(predicate, label=None):
    return compose(ATOM, [], predicate=predicate, label=label or predicate.name)


def neg(child, label=None):
    return compose(NOT, [child], label=label)


def land(*children, label=None):
    return compose(AND, children, label=label)


def lor(*children, label=None):
    return compose(OR, children, label=label)


def always(interval, child, label=None):
    return compose(ALWAYS, [child], interval=interval, label=label)


def eventually(interval, child, label=None):
    return compose(EVENTUALLY, [child], interval=interval, label=label)


def next_step(interval, child, label=None):
    return compose(NEXT, [child], interval=interval, label=label)


def until(interval, lhs, rhs, label=None):
    return compose(UNTIL, [lhs, rhs], interval=interval, label=label)


def implies(lhs, rhs, label=None):
    return compose(IMPLIES, [lhs, rhs], label=label)


class WeightMap:
    """Positive weights attached to formula nodes by node_id.

    A Boolean node's weights are per operand; a temporal node's weights
    are per sample of its window. Missing entries default to all-ones,
    which makes weighted evaluation coincide with the unweighted one.
    """

    def __init__(self, mapping=None):
        self._map = {}
        for node_id, weights in (mapping or {}).items():
            self.set(node_id, weights)

    def set(self, node_id: str, weights):
        arr = np.atleast_1d(np.asarray(weights, float))
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise NonPositiveWeight(f"weights for {node_id!r} must be finite and > 0: {arr}")
        self._map[node_id] = arr

    def get(self, node_id: str, arity: int) -> np.ndarray:
        arr = self._map.get(node_id)
        if arr is None:
            return np.ones(arity)
        if arr.size == 1 and arity != 1:
            return np.full(arity, arr[0])
        if arr.size != arity:
            raise NonPositiveWeight(
                f"weights for {node_id!r} have size {arr.size}, node arity is {arity}")
        return arr

    def __len__(self):
        return len(self._map)

