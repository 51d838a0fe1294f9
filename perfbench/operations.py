"""The benchmark workloads: one operation each, its output checks and its
per-layer counters.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations drive stlfleet through its
public entry points only (``stlfleet.cli.main`` and the functions the
package exports). A failed check is recorded on the operation and never
raised past it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from layertrace import LayerTrace, TraceError

from stlfleet import (Trace, build_graph, compile_mission, eval_exact, eval_smooth,
                      eval_weighted_smooth, gradient_smooth, load_scenario,
                      run_pipeline, simulate_with_disturbance, verify_plan)
from stlfleet.cli import main as cli_main
from stlfleet.optimizer import OptimizerConfig
from stlfleet.replanner import load_disturbances
from stlfleet.warmstart import RoutePlan

# `stlfleet plan` and `stlfleet replay` defaults (the dataclass default
# max_iters differs from the CLI's)
CLI_DEFAULTS = OptimizerConfig(max_iters=600, rng_seed=0)
SEAM_TOL = 1e-9
MICRO_REPEATS = 9
ROUTE_SIZES = (9, 10, 11, 12)


def _cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _micro(fn, *args, **kwargs) -> float:
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Op:
    """Outcome of one operation: timings, quality, failures, counters."""

    def __init__(self, index):
        self.index = index
        self.seconds = {}        # end-to-end timings of this operation
        self.quality = None      # exact robustness, where the workload has one
        self.failures = []       # failed checks, as short reasons
        self.layers = {}         # per-layer values, traced operations only

    def check(self, ok, reason):
        if not ok:
            self.failures.append(reason)


class Workload:
    """Base class: ``setup`` once per repetition, then ``run(i, traced)``.

    Inputs are generated in blocks of ``block`` operations that together
    cover the workload's input strata once; a run ends on a block boundary.
    """

    name = ""
    command = ""                 # the timed command: plan, replan or routes
    block = 1
    layers = ()                  # layers an operation runs; other per-layer metrics are n/a

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed

    def setup(self):
        pass

    def run(self, index: int, traced: bool) -> Op:
        op = Op(index)
        out = self.work / f"op{index}-{int(traced)}"
        tracer = LayerTrace()
        try:
            if traced:
                with tracer:
                    detail = self._operate(op, out)
                self._layers(op, out, tracer, detail)
            else:
                self._operate(op, out)
        except TraceError:
            raise
        except Exception as exc:  # a raising operation is a failed operation
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return op

    def _operate(self, op, out):
        """Run and check one operation; returns what ``_layers`` needs."""
        raise NotImplementedError

    def _layers(self, op, out, tracer, detail):
        raise NotImplementedError

    def microbench(self) -> dict:
        return {}


def _optimizer_layers(tracer, optimize_s, optimize_calls, iterations, restarts):
    """Optimizer, dynamics and robustness spans of one traced operation.

    Every line-search trial, gradient, exact evaluation and final trace
    rolls the dynamics out once, so trials follow from the identity
    rollouts = trials + gradients + exact evaluations + optimize calls.
    Each ascent run starts with one gradient and takes one more per
    accepted step.
    """
    totals = tracer.totals()
    rollouts, rollout_s = totals.get("dynamics.rollout", (0, 0.0))
    exact, exact_s = totals.get("robustness.exact", (0, 0.0))
    gradients, pullback_s = totals.get("optimizer.pullback", (0, 0.0))
    _, report_s = totals.get("robustness.report", (0, 0.0))
    trials = rollouts - gradients - exact - optimize_calls
    accepted = gradients - (optimize_calls + restarts)
    if trials < 0 or accepted < 0 or accepted > trials:
        raise TraceError(
            f"optimizer counter identity failed: rollouts={rollouts} gradients={gradients} "
            f"exact={exact} optimize_calls={optimize_calls} restarts={restarts}")
    replan_rollouts, replan_rollout_s = totals.get("dynamics.rollout_replan", (0, 0.0))
    steers, steer_s = totals.get("dynamics.steer", (0, 0.0))
    return {
        "optimizer.optimize_s": optimize_s,
        "optimizer.self_s": optimize_s - rollout_s - exact_s - pullback_s - report_s,
        "optimizer.iterations": iterations,
        "optimizer.restarts": restarts,
        "optimizer.trials": trials,
        "optimizer.accepted": accepted,
        "optimizer.gradients": gradients,
        "optimizer.accept_ratio": accepted / trials if trials else 0.0,
        "optimizer.pullback_s": pullback_s,
        "dynamics.rollout_s": rollout_s + replan_rollout_s,
        "dynamics.rollouts": rollouts + replan_rollouts,
        "dynamics.steer_s": steer_s,
        "dynamics.steers": steers,
        "robustness.exact_s": exact_s,
        "robustness.exact_evals": exact,
        "robustness.report_s": report_s,
    }


def _warmstart_layers(timings, n_tasks, n_drones):
    return {
        "warmstart.build_graph_s": timings["build_graph"],
        "warmstart.solve_assignment_s": timings["solve_assignment"],
        "warmstart.stitch_subtours_s": timings["stitch_subtours"],
        "warmstart.seed_s": timings["seed_trajectories"],
        "warmstart.tasks": n_tasks,
        # computed, not measured: table sizes of the two dynamic programs
        "warmstart.heldkarp_ops": n_drones * 2 ** n_tasks * n_tasks ** 2,
        "warmstart.partition_ops": n_drones * 3 ** n_tasks,
    }


class PlanWorkload(Workload):
    """`plan` then `monitor` on a turbine with jittered target boxes."""

    command = "plan"
    layers = ("warmstart", "mission", "optimizer", "dynamics", "robustness", "pipeline")

    def __init__(self, root, work, seed, mode):
        super().__init__(root, work, seed)
        self.mode = mode
        self.name = f"plan-{mode}"
        self.base = None
        self.last = None         # (scenario path, trace) of the latest operation

    def setup(self):
        self.base = workloads.turbine_dict(self.root)

    def _operate(self, op, out):
        scenario = self.work / f"scenario{op.index}.json"
        scenario.write_text(json.dumps(workloads.jittered_turbine(self.base, self.seed,
                                                                  op.index)))
        start = time.perf_counter()
        plan_code, _ = _cli(["plan", "--scenario", str(scenario), "--mode", self.mode,
                             "--out", str(out), "--seed", str(self.seed)])
        op.seconds["plan"] = time.perf_counter() - start
        start = time.perf_counter()
        monitor_code, _ = _cli(["monitor", "--scenario", str(scenario),
                                           "--trace", str(out / "trace.csv")])
        op.seconds["monitor"] = time.perf_counter() - start

        report = json.loads((out / "report.json").read_text())
        op.quality = report["report"]["exact"]
        op.check(plan_code == monitor_code,
                 f"verdict: plan exit {plan_code} but monitor exit {monitor_code}")
        op.check(op.quality > 0, f"exact robustness {op.quality:.6g} <= 0")
        trace = Trace.from_csv(out / "trace.csv")
        limits = load_scenario(scenario).limits
        for d in range(trace.n_drones):
            op.check(np.all(np.abs(trace.acc[d]) <= np.asarray(limits[d].a_max)),
                     f"drone {d} acceleration outside its box")
        op.check(trace.is_consistent(1e-9), "trace is not dynamically consistent")
        self.last = (scenario, trace)
        return report

    def _layers(self, op, out, tracer, report):
        timings = json.loads((out / "timings.json").read_text())
        route_plan = json.loads((out / "route_plan.json").read_text())
        formula, _ = compile_mission(load_scenario(self.last[0]))
        op.layers.update(_warmstart_layers(timings, len(route_plan["tasks"]),
                                           len(route_plan["routes"])))
        op.layers.update({
            "mission.compile_s": timings["compile_mission"],
            "mission.headings_s": timings["assign_headings"],
            "mission.formula_nodes": sum(1 for _ in formula),
            "pipeline.export_s": tracer.seconds("pipeline.export"),
        })
        op.layers.update(_optimizer_layers(tracer, timings["optimize"], 1,
                                           report["iterations"], report["restarts_used"]))

    def microbench(self):
        scenario_path, trace = self.last
        scenario = load_scenario(scenario_path)
        formula, weights = compile_mission(scenario)
        lam = scenario.sharpness
        if self.mode == "attrition":
            smooth = _micro(eval_weighted_smooth, formula, weights, trace, 0, lam,
                            soft_combine=True)
            gradient = _micro(gradient_smooth, formula, trace, lam, weights=weights)
        else:
            smooth = _micro(eval_smooth, formula, trace, 0, lam)
            gradient = _micro(gradient_smooth, formula, trace, lam)
        return {"robustness.exact_call_s": _micro(eval_exact, formula, trace, 0),
                "robustness.smooth_call_s": smooth,
                "robustness.gradient_call_s": gradient}


class ReplanWorkload(Workload):
    """One disturbed execution of the committed turbine plan."""

    name = "replan"
    command = "replan"
    layers = ("optimizer", "dynamics", "robustness", "replanner")

    def setup(self):
        path = self.root / workloads.TURBINE
        self.scenario_dict = json.loads(path.read_text())
        self.scenario = load_scenario(path)
        self.plan = run_pipeline(self.scenario, "basic", CLI_DEFAULTS)
        self.committed = self.plan.result.trace.copy()
        self.window = None       # (formula, seed trace) of the latest replan

    def _operate(self, op, out):
        schedule = json.dumps(workloads.disturbance(self.scenario_dict, self.seed, op.index))
        disturbances = load_disturbances(schedule)
        start = time.perf_counter()
        state = simulate_with_disturbance(self.plan.result.trace, self.plan.schedules,
                                          disturbances, self.scenario, CLI_DEFAULTS)
        op.seconds["replan"] = time.perf_counter() - start

        op.quality = eval_exact(self.plan.formula, state.executed, 0)
        op.check(op.quality > 0, f"executed exact robustness {op.quality:.6g} <= 0")
        op.check(len(state.events) == 1, f"{len(state.events)} replan events, expected 1")
        if not state.events:
            return state.events
        event = state.events[0]
        moved, end = event.drone, event.window[1]
        for d in range(self.committed.n_drones):
            if d == moved:
                continue
            same = all(np.array_equal(getattr(t, f)[d], getattr(self.committed, f)[d])
                       for t in (state.executed, state.committed)
                       for f in ("pos", "vel", "acc"))
            op.check(same, f"unaffected drone {d} changed")
        seam = max(np.abs(state.committed.pos[moved, end] - self.committed.pos[moved, end]).max(),
                   np.abs(state.committed.vel[moved, end] - self.committed.vel[moved, end]).max())
        op.check(seam <= SEAM_TOL, f"splice seam deviates by {seam:.3g}")
        return state.events

    def _layers(self, op, out, tracer, events):
        calls = [(args, value) for name, args, value in tracer.returns
                 if name == "replanner.optimize"]
        results = [value for _, value in calls]
        if calls:
            self.window = calls[-1][0][:2]
        totals = tracer.totals()
        optimize_calls, optimize_s = totals.get("replanner.optimize", (0, 0.0))
        restarts = sum(r.restarts_used for r in results)
        iterations = sum(r.iterations for r in results)
        op.layers.update(_optimizer_layers(tracer, optimize_s, optimize_calls,
                                           iterations, restarts))
        op.layers.update({
            "replanner.replan_s": tracer.seconds("replanner.replan"),
            "replanner.optimize_s": optimize_s,
            "replanner.iterations": iterations,
            "replanner.events": len(events),
            "replanner.window_steps": sum(e.window[1] - e.window[0] for e in events),
            "replanner.skipped_tasks": sum(len(e.skipped) for e in events),
            "replanner.glide_home": sum(e.kind == "glide_home" for e in events),
        })

    def microbench(self):
        if self.window is None:
            return {}
        formula, trace = self.window
        lam = self.scenario.sharpness
        return {"robustness.exact_call_s": _micro(eval_exact, formula, trace, 0),
                "robustness.smooth_call_s": _micro(eval_smooth, formula, trace, 0, lam),
                "robustness.gradient_call_s": _micro(gradient_smooth, formula, trace, lam)}


class RoutesWorkload(Workload):
    """`routes` on synthetic instances; sizes cycle through ROUTE_SIZES."""

    name = "routes"
    command = "routes"
    block = len(ROUTE_SIZES)
    layers = ("warmstart",)

    def _operate(self, op, out):
        n_tasks = ROUTE_SIZES[op.index % len(ROUTE_SIZES)]
        scenario = self.work / f"routes{op.index}.json"
        scenario.write_text(json.dumps(workloads.routing_scenario(self.seed, op.index,
                                                                  n_tasks)))
        start = time.perf_counter()
        code, _ = _cli(["routes", "--scenario", str(scenario), "--out", str(out)])
        op.seconds["routes"] = time.perf_counter() - start
        op.check(code == 0, f"routes exit {code}")

        data = json.loads((out / "route_plan.json").read_text())
        graph = build_graph(load_scenario(scenario))
        plan = RoutePlan(tours=[r["cycles"] for r in data["routes"]],
                         objective=data["objective_seconds"])
        ok, violations = verify_plan(plan, graph)
        op.check(ok, f"verify_plan: {violations[:2]}")
        edges = sum(graph.weight(a, b, d)
                    for d, cycles in enumerate(plan.tours) for cycle in cycles
                    if len(cycle) > 1 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        op.check(abs(edges - plan.objective) <= 1e-9 * max(1.0, abs(plan.objective)),
                 f"objective {plan.objective} != summed edge weights {edges}")
        op.check(Trace.from_csv(out / "seed_trace.csv").is_consistent(1e-9),
                 "seed trace is not dynamically consistent")
        return graph

    def _layers(self, op, out, tracer, graph):
        timings = json.loads((out / "timings.json").read_text())
        op.layers.update(_warmstart_layers(timings, graph.n_tasks, graph.n_drones))


def make(name, root, work, seed) -> Workload:
    if name in ("plan-basic", "plan-attrition"):
        return PlanWorkload(root, work, seed, name.split("-", 1)[1])
    if name == "replan":
        return ReplanWorkload(root, work, seed)
    if name == "routes":
        return RoutesWorkload(root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("plan-basic", "plan-attrition", "replan", "routes")
