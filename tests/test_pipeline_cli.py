import json
import math

import numpy as np
import pytest

from stlfleet import bundled_scenario_path
from stlfleet.cli import main
from stlfleet.dynamics import Trace, rollout
from stlfleet.errors import ParseError, PipelineError
from stlfleet.mission import scenario_from_dict
from stlfleet.optimizer import (ITERATION_CAP, SATISFIED_NO_MARGIN, SATISFIED_WITH_MARGIN,
                                VIOLATED, OptimizerConfig)
from stlfleet.pipeline import (load_scenario, monitor_trace, run_pipeline,
                               run_routes_only)
from stlfleet.robustness import Program, eval_exact
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from conftest import csv_text
from test_mission import make_scenario, scenario_dict
from test_replanner import PUSHES


@pytest.fixture(scope="module")
def small_output(tmp_path_factory):
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    output = run_pipeline(scenario, "basic", OptimizerConfig(max_iters=200, rng_seed=5))
    out_dir = tmp_path_factory.mktemp("pipeline")
    paths = output.export(out_dir)
    return scenario, output, paths


def test_pipeline_stages_and_export(small_output):
    scenario, output, paths = small_output
    assert output.succeeded
    assert set(output.timings) >= {"build_graph", "solve_assignment", "stitch_subtours",
                                   "seed_trajectories", "compile_mission", "optimize",
                                   "assign_headings"}
    for path in paths.values():
        assert path.exists()
    report = json.loads(paths["report"].read_text())
    assert report["report"]["satisfied"] is True
    assert "safety_classes" in report


def test_round_trip_robustness_identical(small_output):
    scenario, output, paths = small_output
    reloaded = Trace.from_csv(paths["trace"])
    fresh = eval_exact(output.formula, reloaded, 0)
    assert fresh == pytest.approx(output.result.report.exact, abs=1e-9)


def test_monitor_matches_export(small_output):
    scenario, output, paths = small_output
    report = monitor_trace(scenario, paths["trace"])
    assert report["satisfied"] is True
    assert report["exact"] == pytest.approx(output.result.report.exact, abs=1e-9)


@pytest.mark.parametrize("sample", [0.05, 1 / 30])
def test_export_rechecks_with_the_program_that_judged_the_plan(tmp_path, monkeypatch, sample):
    # 1/30 s does not survive the CSV's 12-digit times: the re-import has
    # another sampling period, and the mission is compiled for that one
    data = scenario_dict(targets=[(-2.0, -3.0, 1.0)], mission=4.0)
    data["timing"]["sample"] = sample
    output = run_pipeline(scenario_from_dict(data), "basic", OptimizerConfig(max_iters=5))
    compiled = []
    init = Program.__init__

    def counted(self, *args, **kwargs):
        compiled.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Program, "__init__", counted)
    paths = output.export(tmp_path)
    assert len(compiled) == (sample != 0.05)
    report = json.loads(paths["report"].read_text())
    assert report["reimported_exact"] == pytest.approx(output.result.report.exact, abs=1e-9)


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(bad)
    with pytest.raises(ParseError, match="not found"):
        load_scenario(tmp_path / "missing.json")
    data = scenario_dict()
    data["timing"]["inspect"] = 99.0
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(data))
    from stlfleet.errors import ValidationError
    with pytest.raises(ValidationError, match="timing.inspect"):
        load_scenario(bad2)


def _set(path, value):
    """Scenario edit that sets the dict entry at ``path`` (keys and indices)."""
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit, field, trace", [
    (_set(("timing", "sample"), 0.0), "timing.sample", None),
    (_set(("timing", "sample"), -0.05), "timing.sample", None),
    (_set(("timing", "mission"), math.nan), "timing.mission", None),
    (_set(("fleet", "limits", 0, "v_max"), [-1.0, 1.0, 1.0]), "fleet.limits[0]", None),
    (_set(("blades", 0, "blade_id"), "root"), "blades[0].blade_id", None),
    (_set(("fleet", "capability"), [{"targets": [99], "blades": "all"}]),
     "fleet.capability[0].targets", None),
    (_set(("timing", "sample"), 0.05), "trace file",
     "t,drone,px,py,pz,vx,vy,vz,ax,ay,az\r\n0,0,1,2,x,4,5,6,,,\r\n"),
    (_set(("timing", "mission"), "abc"), "timing.mission", None),
    (_set(("workspace", "lower", 0), "abc"), "workspace.lower[0]", None),
    (_set(("targets", 0, "yaw"), "abc"), "targets[0].yaw", None),
    (_set(("fleet", "depots", 0, 0), "abc"), "fleet.depots[0][0]", None),
    (_set(("weights", "workspace"), "abc"), "weights.workspace", None),
    (_set(("thresholds", "sharpness"), math.nan), "thresholds.sharpness", None),
    (_set(("thresholds", "sharpness"), -1.0), "thresholds.sharpness", None),
    (_set(("thresholds", "sharpness"), 1e-308), "thresholds.sharpness", None),
    (_set(("thresholds", "margin"), math.nan), "thresholds.margin", None),
    (_set(("thresholds", "min_separation"), -1.0), "thresholds.min_separation", None),
    (_set(("thresholds", "trigger_radius"), 0.0), "thresholds.trigger_radius", None),
    (_set(("timing", "sample"), 0.05), "trace CSV",
     "t,drone,px,py,pz,vx,vy,vz,ax,ay,az\r\n0,0,1,2,3,4,5,6,0,0,0\r\n"
     "0,0,1,2,3,4,5,6,0,0,0\r\n0.05,0,1,2,3,4,5,6,,,\r\n"),
    (_set(("timing", "sample"), 0.05), "trace CSV",
     "t,drone,px,py,pz,vx,vy,vz,ax,ay,az\r\n0,0,1,2,3,4,5,6,0,0,0\r\n"
     "0.05,0,1,2,3,4,5,6,0,0,0\r\n0.12,0,1,2,3,4,5,6,,,\r\n"),
    (_set(("fleet", "limits", 0, "v_max"), [math.nan, 1.0, 1.0]), "fleet.limits[0]: v_max",
     None),
    (_set(("fleet", "limits", 0, "a_max_relaxed"), math.inf), "fleet.limits[0]: a_max_relaxed",
     None),
    (_set(("obstacles",), 5), "obstacles", None),
    (_set(("targets",), [5]), "targets[0]", None),
    (_set(("fleet", "depots"), 5), "fleet.depots", None),
    (_set(("fleet", "capability"), [{"targets": 5, "blades": "all"}]),
     "fleet.capability[0].targets", None),
    (_set(("weights",), [1.0]), "weights", None),
    (_set(("workspace",), {"lower": [9.0, 9.0, 9.0], "upper": [8.0, 8.0, 8.0]}),
     "workspace: degenerate box", None),
    (_set(("obstacles",), [{"lower": [1.0, 1.0, 1.0], "upper": [math.nan, 2.0, 2.0]}]),
     "obstacles[0]: degenerate box", None),
    (_set(("targets",), [{"lower": [0.0, 0.0, 1.0], "upper": [1.0, 1.0, 2.0]}] * 2
          + [{"lower": [1.0, 1.0, 2.0], "upper": [0.0, 0.0, 1.0]}]),
     "targets[2]: degenerate box", None),
    (_set(("fleet", "home_boxes"), [{"lower": [-3.3, -3.3, 0.7], "upper": [-2.7, -2.7, 1.3]},
                                    {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}]),
     "fleet.home_boxes[1]: box bounds must be 3-vectors", None),
    (_set(("blades", 0, "rotor_shaft"), [3.0, 2.0, 0.8]),
     "blades[0]: blade segment endpoints coincide", None),
    (_set(("blades", 0, "leading_edge"), [3.0, 2.0]),
     "blades[0]: blade segment endpoints must be 3-vectors", None),
], ids=["zero-sample", "negative-sample", "nan-duration", "negative-v-max",
        "text-blade-id", "unknown-capability-target", "text-trace-cell",
        "text-duration", "text-workspace-bound", "text-yaw", "text-depot", "text-weight",
        "nan-sharpness", "negative-sharpness", "tiny-sharpness", "nan-margin", "negative-separation",
        "zero-trigger-radius", "repeated-trace-row", "off-grid-trace-time", "nan-v-max",
        "infinite-relaxed-a-max", "number-obstacles", "number-target", "number-depots",
        "number-capability", "list-weights", "reversed-workspace", "nan-obstacle-bound",
        "reversed-target", "two-vector-home-box", "degenerate-blade", "two-vector-blade"])
def test_cli_bad_input_exits_2_naming_the_field(tmp_path, capsys, edit, field, trace):
    data = scenario_dict(blade=True)
    edit(data)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    if trace is None:
        argv = ["routes", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]
    else:
        (tmp_path / "trace.csv").write_text(trace)
        argv = ["monitor", "--scenario", str(scenario_path),
                "--trace", str(tmp_path / "trace.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err, err


def test_cli_plan_rejects_nan_sharpness_before_planning(tmp_path, capsys):
    data = scenario_dict()
    data["thresholds"]["sharpness"] = math.nan
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    assert main(["plan", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: thresholds.sharpness"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--max-iters", "0"), ("--zeta", "nan"),
                                         ("--lambda", "nan"), ("--lambda", "inf"),
                                         ("--lambda", "-1"), ("--lambda", "1e-308"),
                                         ("--seed", "-1")])
def test_cli_plan_rejects_bad_planner_flags_before_planning(tmp_path, capsys, flag, value):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_dict()))
    argv = ["plan", "--scenario", str(scenario_path), "--out", str(tmp_path / "out"),
            f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}"), err
    assert not (tmp_path / "out").exists()


def test_uncoverable_error_is_stage_tagged(tmp_path):
    scenario = make_scenario(n_drones=1, capability=[{"targets": set(), "blades": None}])
    with pytest.raises(PipelineError) as err:
        run_routes_only(scenario)
    assert err.value.stage == "solve_assignment"


def test_cli_routes_and_plan(tmp_path, capsys):
    scenario = scenario_dict(targets=[(-2.0, -3.0, 1.0)], mission=13.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))

    code = main(["routes", "--scenario", str(scenario_path),
                 "--out", str(tmp_path / "routes")])
    assert code == 0
    assert (tmp_path / "routes" / "route_plan.json").exists()
    assert (tmp_path / "routes" / "graph_edges.csv").exists()

    code = main(["plan", "--scenario", str(scenario_path), "--mode", "basic",
                 "--max-iters", "200", "--seed", "5", "--out", str(tmp_path / "plan")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status:" in out

    code = main(["monitor", "--scenario", str(scenario_path),
                 "--trace", str(tmp_path / "plan" / "trace.csv")])
    assert code == 0


def test_cli_replay(tmp_path):
    # the two home hovers sit 1.5 m apart, so a tight separation threshold
    # would cap the smooth objective; this is an orchestration smoke test
    scenario = scenario_dict(n_drones=2, targets=[(-2.0, -3.0, 1.0), (-1.0, -1.8, 1.0)],
                             mission=13.0, home_offset=(0.0, -1.5, 0.0), home_half=0.85,
                             min_separation=0.4,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": {1}, "blades": None}])
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    disturbances = tmp_path / "disturbances.json"
    disturbances.write_text(json.dumps(
        [{"time": 5.0, "drone": 0, "offset": [0.0, 1.2, 0.0]}]))
    code = main(["replay", "--scenario", str(scenario_path),
                 "--disturbances", str(disturbances), "--max-iters", "300",
                 "--zeta", "0.05", "--out", str(tmp_path / "replay")])
    assert code == 0
    events = json.loads((tmp_path / "replay" / "events.json").read_text())
    assert len(events) == 1
    # how the replan ended: the mission's status and exact robustness on the spliced plan
    assert events[0]["status"] in (SATISFIED_WITH_MARGIN, SATISFIED_NO_MARGIN, VIOLATED,
                                   ITERATION_CAP)
    assert isinstance(events[0]["exact"], float) and math.isfinite(events[0]["exact"])
    assert (tmp_path / "replay" / "executed_trace.csv").exists()


def test_cli_bad_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["routes", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_missing_trace_exit_code(tmp_path, capsys):
    scenario = str(bundled_scenario_path("windturbine_mock"))
    missing = tmp_path / "missing.csv"
    assert main(["monitor", "--scenario", scenario, "--trace", str(missing)]) == 2
    assert "trace file not found" in capsys.readouterr().err


def test_cli_missing_disturbances_exit_code(tmp_path, capsys):
    scenario = str(bundled_scenario_path("windturbine_mock"))
    missing = tmp_path / "missing.json"
    assert main(["replay", "--scenario", scenario, "--disturbances", str(missing),
                 "--out", str(tmp_path / "replay")]) == 2
    assert "disturbance file not found" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()  # nothing was planned


def test_bundled_scenarios_load():
    for name in ("windturbine_mock", "two_drone_swap"):
        scenario = load_scenario(bundled_scenario_path(name))
        assert scenario.n_drones >= 2


def test_two_plans_in_one_process_write_the_same_bytes(tmp_path):
    # report.json keys unlabeled nodes by their ids, which depend on the
    # formula alone; and no kept pass or tape carries over between runs
    scenario = load_scenario(bundled_scenario_path("windturbine_mock"))
    written = []
    for run in ("first", "second"):
        paths = run_pipeline(scenario, "basic").export(tmp_path / run)
        del paths["timings"]
        written.append({name: path.read_bytes() for name, path in paths.items()})
    assert written[0] == written[1]


@pytest.mark.parametrize("mode", ["basic", "attrition"])
def test_cli_plan_exit_code_matches_monitor(tmp_path, mode):
    # the verdict of plan is the exact monitor's on the trace it writes; on
    # the bundled turbine the attrition ascent ends with a negative smooth
    # objective, yet its trace satisfies the mission
    scenario = str(bundled_scenario_path("windturbine_mock"))
    out = tmp_path / mode
    code = main(["plan", "--scenario", scenario, "--mode", mode, "--out", str(out)])
    monitored = main(["monitor", "--scenario", scenario, "--trace", str(out / "trace.csv")])
    report = json.loads((out / "report.json").read_text())
    assert code == monitored == 0
    assert report["status"] in (SATISFIED_WITH_MARGIN, SATISFIED_NO_MARGIN)
    assert report["report"]["exact"] > 0


def test_cli_replay_event_status_follows_exact(tmp_path):
    scenario = str(bundled_scenario_path("windturbine_mock"))
    disturbances = tmp_path / "disturbances.json"
    disturbances.write_text(json.dumps([
        {"time": 0.75, "drone": 1, "offset": [0.913, 1.165, 0.0]},
        {"time": 2.4, "drone": 0, "offset": [-1.343, -0.064, 0.0]}]))
    main(["replay", "--scenario", scenario, "--disturbances", str(disturbances),
          "--out", str(tmp_path / "replay")])
    events = json.loads((tmp_path / "replay" / "events.json").read_text())
    assert events
    for event in events:
        satisfied = event["status"] in (SATISFIED_WITH_MARGIN, SATISFIED_NO_MARGIN)
        assert satisfied == (event["exact"] > 0), event


# pushes in the last two samples (k = 260 and 259), too late for a replan:
# the drone flies them and no event fires
LATE_PUSHES = {"final": {"time": 13.0, "drone": 0, "offset": [1.5, 0, 0]},
               "penultimate": {"time": 12.95, "drone": 0, "offset": [1.5, 0, 0]}}


@pytest.mark.parametrize("push", ["op1", "op2", "op7", "blade", *LATE_PUSHES])
def test_cli_replay_exit_code_matches_monitor_of_the_executed_trace(tmp_path, push):
    scenario = str(bundled_scenario_path("windturbine_mock"))
    disturbances = tmp_path / "disturbances.json"
    disturbances.write_text(json.dumps([{**PUSHES, **LATE_PUSHES}[push]]))
    out = tmp_path / "replay"
    code = main(["replay", "--scenario", scenario, "--disturbances", str(disturbances),
                 "--out", str(out)])
    assert code == main(["monitor", "--scenario", scenario,
                         "--trace", str(out / "executed_trace.csv")])
    if push in LATE_PUSHES:
        assert json.loads((out / "events.json").read_text()) == []


def _no_work(monkeypatch):
    """Make every stage of the CLI fail loudly if it runs."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    for name in ("load_scenario", "run_pipeline", "run_replay", "run_routes_only",
                 "monitor_trace", "load_disturbance_file"):
        monkeypatch.setattr(f"stlfleet.cli.{name}", fail)


@pytest.mark.parametrize("command", ["plan", "replay", "routes"])
@pytest.mark.parametrize("below", [False, True])
def test_cli_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                       below):
    # an existing file, or a path below one, cannot hold the artifact directory
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if below else taken
    _no_work(monkeypatch)
    argv = [command, "--scenario", str(bundled_scenario_path("windturbine_mock")),
            "--out", str(out)]
    if command == "replay":
        argv += ["--disturbances", str(tmp_path / "pushes.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out"), err
    assert taken.read_text() == "keep"


class _Reached(Exception):
    pass


@pytest.mark.parametrize("command", ["plan", "replay", "routes"])
@pytest.mark.parametrize("out", [".", "", "/", "fresh/sub"])
def test_cli_out_naming_a_directory_or_a_new_path_starts_work(tmp_path, monkeypatch, command,
                                                              out):
    # the current directory, the root and a path below a missing directory
    # all take the artifacts, so the command goes on to load its scenario
    monkeypatch.chdir(tmp_path)
    def reached(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr("stlfleet.cli.load_scenario", reached)
    argv = [command, "--scenario", str(bundled_scenario_path("windturbine_mock")), "--out", out]
    if command == "replay":
        argv += ["--disturbances", str(tmp_path / "pushes.json")]
    with pytest.raises(_Reached):
        main(argv)


def test_cli_routes_writes_into_the_current_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["routes", "--scenario", str(bundled_scenario_path("windturbine_mock")),
                 "--out", "."]) == 0
    assert (tmp_path / "route_plan.json").is_file()


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_cli_monitor_out_naming_a_directory_exits_2_before_any_work(tmp_path, capsys,
                                                                    monkeypatch, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    _no_work(monkeypatch)
    argv = ["monitor", "--scenario", str(bundled_scenario_path("windturbine_mock")),
            "--trace", str(tmp_path / "trace.csv"), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out"), err


@pytest.mark.parametrize("text, field", [
    ("not json", "invalid disturbance JSON"),
    ('{"time": 5.0, "drone": 0, "offset": [1.2, 0.0, 0.0]}', "disturbances must be a list"),
    ('[5]', "disturbances[0] must be an object"),
    ('[{"time": 5.0, "drone": 0}]', "disturbances[0]: missing required key 'offset'"),
    ('[{"time": "5", "drone": 0, "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].time"),
    ('[{"time": NaN, "drone": 0, "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].time"),
    ('[{"time": 1e308, "drone": 0, "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].time"),
    ('[{"time": 5.0, "drone": 7, "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].drone"),
    ('[{"time": 5.0, "drone": -1, "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].drone"),
    ('[{"time": 5.0, "drone": "0", "offset": [1.2, 0.0, 0.0]}]', "disturbances[0].drone"),
    ('[{"time": 5.0, "drone": 0, "offset": [NaN, 0.0, 0.0]}]', "disturbances[0].offset[0]"),
    ('[{"time": 5.0, "drone": 0, "offset": [1.2, 0.0, Infinity]}]', "disturbances[0].offset[2]"),
    ('[{"time": 5.0, "drone": 0, "offset": [1.2, 0.0]}]', "disturbances[0].offset"),
    ('[{"time": 5.0, "drone": 0, "offset": [1.2, 0.0, 0.0]}, '
     '{"time": 6.0, "drone": 1, "offset": 1.2}]', "disturbances[1].offset"),
], ids=["invalid-json", "object", "number-entry", "missing-offset", "text-time", "nan-time",
        "time-past-mission", "drone-outside-fleet", "negative-drone", "text-drone",
        "nan-offset", "infinite-offset", "two-vector-offset", "number-offset"])
def test_cli_replay_bad_disturbances_exit_2_naming_the_path(tmp_path, capsys, text, field):
    pushes = tmp_path / "pushes.json"
    pushes.write_text(text)
    argv = ["replay", "--scenario", str(bundled_scenario_path("windturbine_mock")),
            "--disturbances", str(pushes), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert not (tmp_path / "out").exists()  # nothing was planned


@pytest.mark.parametrize("column, cell", [(2, "nan"), (2, "inf"), (5, "-inf"), (8, "nan")])
def test_cli_monitor_rejects_non_finite_trace_cells(tmp_path, capsys, column, cell):
    # a hovering turbine trace is a valid (violated) input; one bad cell makes it invalid
    trace = rollout(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 260, 3)), 0.05)
    header, *rows = csv_text(trace).splitlines(keepends=True)
    cells = rows[4].split(",")
    cells[column] = cell
    rows[4] = ",".join(cells)
    scenario = str(bundled_scenario_path("windturbine_mock"))
    for name, text in (("good.csv", csv_text(trace)), ("bad.csv", header + "".join(rows))):
        (tmp_path / name).write_text(text, newline="")
    assert main(["monitor", "--scenario", scenario, "--trace", str(tmp_path / "good.csv")]) == 1
    capsys.readouterr()
    assert main(["monitor", "--scenario", scenario, "--trace", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace CSV data row 5, column {header.split(',')[column]}: "), err


def test_cli_replay_logs_two_drones_pushed_at_once(tmp_path):
    # drones pushed at the same sample are replanned in ascending order, so
    # the event log's (time, drone) pairs still increase
    pushes = tmp_path / "pushes.json"
    pushes.write_text(json.dumps([{"time": 10, "drone": d, "offset": [0.0, 1.3, 0.0]}
                                  for d in (0, 1)]))
    argv = ["replay", "--scenario", str(bundled_scenario_path("windturbine_mock")),
            "--disturbances", str(pushes), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    events = json.loads((tmp_path / "out" / "events.json").read_text())
    assert [(e["time"], e["drone"], e["kind"]) for e in events] == [
        (10.0, 0, "glide_home"), (10.0, 1, "glide_home")]


@pytest.mark.parametrize("drones", [[0, 1], [0, 1, 2, 0]], ids=["fewer", "more"])
def test_cli_monitor_rejects_a_trace_of_another_fleet_size(tmp_path, capsys, drones):
    # the turbine's seed satisfies the mission; dropping drone 2, or adding
    # a copy of drone 0 that no clause would check, gives a 2- or 4-drone trace
    scenario_path = bundled_scenario_path("windturbine_mock")
    scenario = load_scenario(scenario_path)
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    Trace(seed.ts, seed.pos[drones], seed.vel[drones], seed.acc[drones]).to_csv(
        tmp_path / "trace.csv")
    argv = ["monitor", "--scenario", str(scenario_path), "--trace", str(tmp_path / "trace.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"holds {len(drones)} drones, the scenario 3" in err, err


@pytest.mark.parametrize("last", [True, False], ids=["last-sample", "first-sample-only"])
def test_cli_monitor_rejects_acceleration_at_the_last_sample(tmp_path, capsys, last):
    # the seed with 0,0,0 in its last row's ax, ay and az, or only the
    # seed's t = 0 rows, which carry its first accelerations
    scenario_path = bundled_scenario_path("windturbine_mock")
    scenario = load_scenario(scenario_path)
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    header, *rows = csv_text(seed).splitlines(keepends=True)
    if last:
        rows[-1] = rows[-1].replace(",,,\r\n", ",0,0,0\r\n")
        assert rows[-1].endswith(",0,0,0\r\n")
    else:
        rows = rows[:seed.n_drones]
    (tmp_path / "trace.csv").write_text(header + "".join(rows), newline="")
    argv = ["monitor", "--scenario", str(scenario_path), "--trace", str(tmp_path / "trace.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    row = len(rows) if last else 1
    assert err.startswith(f"error: trace CSV data row {row}, column ax: the last sample"), err


@pytest.mark.parametrize("samples, message", [
    (0, "trace CSV has no data rows"),
    (1, "holds 1 sample, the monitor needs at least 2"),
], ids=["header-only", "one-sample"])
def test_cli_monitor_rejects_a_trace_without_a_sampling_period(tmp_path, capsys, samples,
                                                              message):
    # the seed's first sample, or only the header that writing it starts with
    scenario_path = bundled_scenario_path("windturbine_mock")
    scenario = load_scenario(scenario_path)
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    first = Trace(seed.ts, seed.pos[:, :1], seed.vel[:, :1], seed.acc[:, :0])
    text = csv_text(first)
    (tmp_path / "trace.csv").write_text(text if samples else text.splitlines(True)[0],
                                        newline="")
    argv = ["monitor", "--scenario", str(scenario_path), "--trace", str(tmp_path / "trace.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
