"""End-to-end orchestration: scenario file in, planning artifacts out.

Stage order: routing graph, exact assignment (one closed route per
drone), seed synthesis, mission compilation, smooth-robustness
optimization (weighted in attrition mode), heading annotation, export.
Every stage is timed and failures are re-raised tagged with the stage
name.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import Trace
from .errors import LengthMismatch, ParseError, PipelineError, TraceTooShort
from .mission import (Scenario, assign_headings, compile_mission,
                      headings_to_csv, safety_class_robustness,
                      scenario_from_json)
from .optimizer import (SATISFIED_NO_MARGIN, SATISFIED_WITH_MARGIN,
                        OptimizerConfig, PlanResult, optimize)
from .replanner import load_disturbances, simulate_with_disturbance
from .robustness import eval_exact, make_report
from .warmstart import build_graph, seed_with_schedule, solve_assignment

BASIC = "basic"
ATTRITION = "attrition"


def _input_file(path, what) -> Path:
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"{what} file not found: {path}")
    return path


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    return scenario_from_json(_input_file(path, "scenario").read_text())


@dataclass
class PipelineOutput:
    scenario: Scenario
    mode: str
    plan: object
    seed: Trace
    schedules: list
    formula: object
    weights: object
    result: PlanResult
    headings: np.ndarray
    safety_classes: dict
    timings: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.result.status in (SATISFIED_WITH_MARGIN, SATISFIED_NO_MARGIN)

    def export(self, out_dir) -> dict:
        """Write all artifacts; returns the path map.

        The optimized trace is re-imported and re-monitored before the
        report is written: the stored satisfaction flag must match a
        fresh exact evaluation of what a consumer will actually read.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "route_plan": out / "route_plan.json",
            "seed_trace": out / "seed_trace.csv",
            "trace": out / "trace.csv",
            "headings": out / "headings.csv",
            "report": out / "report.json",
            "objective_history": out / "objective_history.csv",
            "timings": out / "timings.json",
        }
        paths["route_plan"].write_text(self.plan.to_json())
        self.seed.to_csv(paths["seed_trace"])
        self.result.trace.to_csv(paths["trace"])
        paths["headings"].write_text(headings_to_csv(self.headings, self.scenario.ts))
        reloaded = Trace.from_csv(paths["trace"])
        # the program the plan was judged with, unless the CSV's 12-digit
        # times give the re-import another sampling period
        monitor = self.result.monitor
        fresh = eval_exact(monitor if monitor.ts == reloaded.ts else self.formula, reloaded, 0)
        if abs(fresh - self.result.report.exact) > 1e-9:
            raise PipelineError("export", f"re-imported robustness {fresh} deviates from "
                                          f"reported {self.result.report.exact}")
        if (fresh > 0) != self.result.report.satisfied:
            raise PipelineError("export", "satisfaction flag does not survive re-import")
        report = self.result.to_dict()
        report["mode"] = self.mode
        report["safety_classes"] = self.safety_classes
        report["reimported_exact"] = fresh
        paths["report"].write_text(json.dumps(report, indent=2))
        paths["objective_history"].write_text(self.result.history_csv())
        paths["timings"].write_text(json.dumps(self.timings, indent=2))
        return paths


class _StageClock:
    def __init__(self):
        self.timings = {}

    def run(self, stage, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(stage, exc) from exc
        self.timings[stage] = time.perf_counter() - start
        return value


def _warm_start(clock, scenario):
    """Graph, assignment and seed stages: (graph, plan, seed, schedules).

    The solver returns one closed route per drone, so no stitching stage
    runs; its timing stays in the record at 0.0 for readers that list it.
    """
    graph = clock.run("build_graph", build_graph, scenario)
    plan = clock.run("solve_assignment", solve_assignment, graph)
    clock.timings["stitch_subtours"] = 0.0
    seed, schedules = clock.run("seed_trajectories", seed_with_schedule, plan, scenario)
    return graph, plan, seed, schedules


def run_pipeline(scenario: Scenario, mode: str = BASIC,
                 config: OptimizerConfig = None) -> PipelineOutput:
    """Warm-start, optimize, annotate; see the module docstring."""
    if mode not in (BASIC, ATTRITION):
        raise ValueError(f"unknown mode {mode!r}")
    clock = _StageClock()
    _, plan, seed, schedules = _warm_start(clock, scenario)
    formula, weights = clock.run("compile_mission", compile_mission, scenario)
    result = clock.run("optimize", optimize, formula, seed, scenario, config,
                       weights=weights if mode == ATTRITION else None)
    headings = clock.run("assign_headings", assign_headings, result.trace, scenario, plan)
    safety = safety_class_robustness(scenario, result.trace)
    return PipelineOutput(scenario=scenario, mode=mode, plan=plan, seed=seed,
                          schedules=schedules, formula=formula, weights=weights,
                          result=result, headings=headings, safety_classes=safety,
                          timings=clock.timings)


def run_routes_only(scenario: Scenario):
    """Warm-start stages only: graph, assignment, seed."""
    clock = _StageClock()
    return (*_warm_start(clock, scenario), clock.timings)


def run_replay(scenario: Scenario, disturbances, mode: str = BASIC,
               config: OptimizerConfig = None):
    """Plan, then execute under a disturbance schedule with replanning."""
    output = run_pipeline(scenario, mode, config)
    start = time.perf_counter()
    try:
        state = simulate_with_disturbance(output.result.trace, output.schedules,
                                          disturbances, scenario, config)
    except Exception as exc:
        raise PipelineError("replay", exc) from exc
    output.timings["replay"] = time.perf_counter() - start
    return output, state


def monitor_trace(scenario: Scenario, trace_path) -> dict:
    """Re-evaluate the mission robustness of a stored trace."""
    path = _input_file(trace_path, "trace")
    try:
        trace = Trace.from_csv(path)
    except ValueError as exc:
        raise ParseError(f"trace file {path}: {exc}") from exc
    if trace.n_drones != scenario.n_drones:
        raise LengthMismatch(f"trace file {path} holds {trace.n_drones} drones, "
                             f"the scenario {scenario.n_drones}")
    if trace.n_samples < 2:  # no sampling period to compile the mission at
        raise TraceTooShort(f"trace file {path} holds {trace.n_samples} sample, "
                            f"the monitor needs at least 2")
    formula, weights = compile_mission(scenario)
    report = make_report(formula, trace, scenario.sharpness, weights=weights)
    classes = safety_class_robustness(scenario, trace)
    data = report.to_dict()
    data["safety_classes"] = classes
    return data


def load_disturbance_file(path, scenario: Scenario):
    return load_disturbances(_input_file(path, "disturbance").read_text(), scenario)
