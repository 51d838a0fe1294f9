"""Layer spans for the traced run, recorded from outside the program.

Only names that one stlfleet module imports from another are wrapped, so
every call across a layer boundary is seen and nothing under ``src/``
changes. Wrappers exist only inside ``with LayerTrace(): ...``; leaving
the block puts the original objects back. A name that has gone missing
raises at once, so a refactor cannot silently drop a layer from the
trace.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, keep return values)
WRAPPED = (
    ("stlfleet.optimizer", "rollout", "dynamics.rollout", False),
    ("stlfleet.optimizer", "eval_exact", "robustness.exact", False),
    ("stlfleet.optimizer", "make_report", "robustness.report", False),
    ("stlfleet.optimizer", "pullback_gradient", "optimizer.pullback", False),
    ("stlfleet.replanner", "replan", "replanner.replan", False),
    ("stlfleet.replanner", "optimize", "replanner.optimize", True),
    ("stlfleet.replanner", "rollout", "dynamics.rollout_replan", False),
    ("stlfleet.replanner", "steer_to_state", "dynamics.steer", False),
    ("stlfleet.pipeline.PipelineOutput", "export", "pipeline.export", False),
)


class TraceError(RuntimeError):
    """The trace no longer matches the program; the run must stop."""


def _resolve(path: str):
    """Module or class object named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class LayerTrace:
    """In-memory spans: (name, start, end, parent index) per wrapped call."""

    def __init__(self):
        self.spans = []
        self.returns = []        # (span name, args, return value) where kept
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner_path, attr, span, keep in WRAPPED:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None)
            if original is None:
                self.__exit__(None, None, None)
                raise TraceError(f"traced name {owner_path}.{attr} no longer exists")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, keep))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, span, keep):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([span, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if keep:
                self.returns.append((span, args, value))
            return value
        return wrapper

    def totals(self) -> dict:
        """Per span name: (call count, total seconds)."""
        out = {}
        for name, start, end, _ in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start))
        return out

    def seconds(self, name) -> float:
        return self.totals().get(name, (0, 0.0))[1]
