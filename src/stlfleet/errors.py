"""Exception types shared across the package."""


class StlFleetError(Exception):
    """Base class for all package errors."""


class ArityError(StlFleetError):
    """Formula node built with the wrong number of children."""


class IntervalError(StlFleetError):
    """Bad temporal interval (negative, reversed, or off the sample grid)."""


class TraceTooShort(StlFleetError):
    """Trace does not cover the formula horizon from the requested start."""


class EmptyInput(StlFleetError):
    """Reduction over an empty value set."""


class BadSharpness(StlFleetError, ValueError):
    """Smooth min/max sharpness that is not a finite positive number."""


class NonPositiveWeight(StlFleetError):
    """Weight map contains a weight <= 0."""


class LengthMismatch(StlFleetError):
    """Per-drone sequences disagree in length."""


class DegenerateSegment(StlFleetError):
    """Segment endpoints coincide."""


class InfeasibleWindow(StlFleetError):
    """A task window does not fit inside the mission horizon."""


class NoCapableDrone(StlFleetError):
    """A target or blade side has no drone allowed to serve it."""


class Uncoverable(StlFleetError):
    """Routing problem has a task vertex no capable drone can reach."""


class HorizonOverflow(StlFleetError):
    """Seed route cannot fit the mission duration even at limit speeds.

    Carries the unscaled seed trace in ``.trace`` for diagnosis.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class SeedTooShort(StlFleetError):
    """Seed trace shorter than the formula horizon."""


class NonFiniteObjective(StlFleetError):
    """Optimization objective became NaN or infinite.

    Carries the offending acceleration iterate in ``.accelerations``.
    """

    def __init__(self, message, accelerations=None):
        super().__init__(message)
        self.accelerations = accelerations


class NoRemainingTasks(StlFleetError):
    """Replan requested but the mission is already over for this drone."""


class ParseError(StlFleetError):
    """Scenario file is structurally invalid; message carries the field path."""


class ValidationError(StlFleetError):
    """Scenario file parsed but violates an invariant; message carries the field path."""


class PipelineError(StlFleetError):
    """Pipeline stage failure wrapper; names the failing stage."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
