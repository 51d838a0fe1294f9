"""Command-line interface.

Subcommands: plan (full pipeline), monitor (re-evaluate a stored trace),
replay (simulate a disturbance schedule with replanning), routes
(warm-start only). Exit code 0 means the produced or checked plan
satisfies the mission; 1 means it does not; 2 flags usage or input
errors.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

from .errors import StlFleetError, ValidationError
from .mission import headings_to_csv, assign_headings
from .optimizer import OptimizerConfig
from .pipeline import (load_disturbance_file, load_scenario, monitor_trace,
                       run_pipeline, run_replay, run_routes_only)
from .robustness import eval_exact


def _add_common(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory")


def _add_planner_flags(parser):
    parser.add_argument("--mode", choices=["basic", "attrition"], default="basic")
    parser.add_argument("--lambda", dest="sharpness", type=float, default=None,
                        help="smooth min/max sharpness (default: scenario value)")
    parser.add_argument("--zeta", dest="margin", type=float, default=None,
                        help="demanded smooth-robustness margin (default: scenario value)")
    parser.add_argument("--max-iters", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0, help="random seed for restarts")


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(sharpness=args.sharpness, margin=args.margin,
                           max_iters=args.max_iters, rng_seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stlfleet",
                                     description="Multi-drone inspection planning "
                                                 "with STL robustness")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run the full planning pipeline")
    _add_common(plan)
    _add_planner_flags(plan)

    monitor = sub.add_parser("monitor", help="re-evaluate a stored trace")
    monitor.add_argument("--scenario", required=True)
    monitor.add_argument("--trace", required=True, help="trace CSV to evaluate")
    monitor.add_argument("--out", default=None, help="optional report path")

    replay = sub.add_parser("replay", help="execute the plan under disturbances")
    _add_common(replay)
    _add_planner_flags(replay)
    replay.add_argument("--disturbances", required=True, help="disturbance schedule JSON")

    routes = sub.add_parser("routes", help="warm-start only: routes and seed")
    _add_common(routes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except StlFleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# mallopt(3) parameters of glibc
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap():
    """Keep the memory of one planning pass for the next. A pass allocates
    and frees 2-3 MB; under glibc's dynamic thresholds the heap is trimmed
    once about 2 MB lie free at its top, and every page given back is
    faulted in again by the next pass. Blocks up to 4 MB come from the heap
    and up to 8 MB may stay free at its top. Without glibc, nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def _check_out(args):
    """Reject an ``--out`` that the command could not write, before any work:
    monitor writes one report file into an existing directory; the other
    commands create an artifact directory and its missing parents."""
    if args.out is None:
        return
    out = Path(args.out)
    if args.command == "monitor":
        if out.is_dir():
            raise ValidationError(f"--out {out} is a directory, not a report file")
        if not out.parent.is_dir():
            raise ValidationError(f"--out {out}: {out.parent} is not a directory")
        return
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValidationError(f"--out {out}: {existing} is a file, not a directory")


def _dispatch(args) -> int:
    _check_out(args)
    if args.command in ("plan", "replay"):
        _keep_heap()
    scenario = load_scenario(args.scenario)
    if args.command == "plan":
        output = run_pipeline(scenario, args.mode, _config(args))
        paths = output.export(args.out)
        print(f"status: {output.result.status}  exact: {output.result.report.exact:.4f}  "
              f"smooth objective: {output.result.smooth_objective:.4f}")
        print(f"artifacts in {Path(args.out).resolve()}: "
              + ", ".join(p.name for p in paths.values()))
        return 0 if output.succeeded else 1

    if args.command == "monitor":
        report = monitor_trace(scenario, args.trace)
        text = json.dumps(report, indent=2)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0 if report["satisfied"] else 1

    if args.command == "replay":
        disturbances = load_disturbance_file(args.disturbances, scenario)
        output, state = run_replay(scenario, disturbances, args.mode, _config(args))
        paths = output.export(args.out)
        out = Path(args.out)
        (out / "events.json").write_text(state.events_json())
        state.executed.to_csv(out / "executed_trace.csv")
        yaw = assign_headings(state.executed, scenario, output.plan)
        (out / "executed_headings.csv").write_text(headings_to_csv(yaw, scenario.ts))
        executed_exact = eval_exact(output.formula, state.executed, 0)
        print(f"plan status: {output.result.status}  events: {len(state.events)}  "
              f"executed exact: {executed_exact:.4f}")
        return 0 if (output.succeeded and executed_exact > 0) else 1

    if args.command == "routes":
        graph, plan, seed, schedules, timings = run_routes_only(scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "route_plan.json").write_text(plan.to_json())
        (out / "graph_edges.csv").write_text(graph.to_csv())
        seed.to_csv(out / "seed_trace.csv")
        (out / "timings.json").write_text(json.dumps(timings, indent=2))
        print(f"objective: {plan.objective:.3f} s over {graph.n_tasks} tasks; "
              f"artifacts in {out.resolve()}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
