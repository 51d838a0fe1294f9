"""Multi-vehicle STL inspection planning toolkit."""

from importlib import resources as _resources

from . import stl
from .dynamics import DroneLimits, Trace, rollout, time_of_flight
from .mission import Scenario, assign_headings, band_robustness, compile_mission, dist_to_blade
from .optimizer import OptimizerConfig, PlanResult, optimize, pullback_gradient
from .pipeline import load_scenario, monitor_trace, run_pipeline, run_replay
from .replanner import detect_event, replan, simulate_with_disturbance
from .robustness import (RobustnessReport, eval_exact, eval_smooth, eval_weighted_smooth,
                         gradient_smooth, make_report, smooth_max, smooth_min)
from .warmstart import build_graph, solve_assignment, verify_plan


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package."""
    return _resources.files(__package__) / "scenarios" / f"{name}.json"


__all__ = [
    "stl", "DroneLimits", "Trace", "rollout", "time_of_flight", "Scenario",
    "assign_headings", "band_robustness", "compile_mission", "dist_to_blade",
    "OptimizerConfig", "PlanResult", "optimize", "pullback_gradient",
    "load_scenario", "monitor_trace", "run_pipeline", "run_replay",
    "detect_event", "replan", "simulate_with_disturbance", "RobustnessReport",
    "eval_exact", "eval_smooth", "eval_weighted_smooth", "gradient_smooth",
    "make_report", "smooth_max", "smooth_min", "build_graph", "solve_assignment",
    "verify_plan", "bundled_scenario_path",
]
