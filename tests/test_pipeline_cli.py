import json
import math

import pytest

from stlfleet import bundled_scenario_path
from stlfleet.cli import main
from stlfleet.dynamics import Trace
from stlfleet.errors import ParseError, PipelineError
from stlfleet.mission import scenario_to_json
from stlfleet.optimizer import (ITERATION_CAP, SATISFIED_NO_MARGIN, SATISFIED_WITH_MARGIN,
                                VIOLATED, OptimizerConfig)
from stlfleet.pipeline import (load_scenario, monitor_trace, run_pipeline,
                               run_routes_only)
from stlfleet.robustness import eval_exact

from test_mission import make_scenario


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


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(bad)
    with pytest.raises(ParseError, match="not found"):
        load_scenario(tmp_path / "missing.json")
    scenario = make_scenario()
    data = json.loads(scenario_to_json(scenario))
    data["timing"]["inspect"] = 99.0
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(data))
    from stlfleet.errors import ValidationError
    with pytest.raises(ValidationError, match="timing.inspect"):
        load_scenario(bad2)


def test_uncoverable_error_is_stage_tagged(tmp_path):
    scenario = make_scenario(n_drones=1, capability=[{"targets": set(), "blades": None}])
    with pytest.raises(PipelineError) as err:
        run_routes_only(scenario)
    assert err.value.stage == "solve_assignment"


def test_cli_routes_and_plan(tmp_path, capsys):
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario_to_json(scenario))

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
    scenario = make_scenario(n_drones=2, targets=[(-2.0, -3.0, 1.0), (-1.0, -1.8, 1.0)],
                             mission=13.0, home_offset=(0.0, -1.5, 0.0), home_half=0.85,
                             min_separation=0.4,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": {1}, "blades": None}])
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario_to_json(scenario))
    disturbances = tmp_path / "disturbances.json"
    disturbances.write_text(json.dumps(
        [{"time": 5.0, "drone": 0, "offset": [0.0, 1.2, 0.0]}]))
    code = main(["replay", "--scenario", str(scenario_path),
                 "--disturbances", str(disturbances), "--max-iters", "300",
                 "--zeta", "0.05", "--out", str(tmp_path / "replay")])
    assert code == 0
    events = json.loads((tmp_path / "replay" / "events.json").read_text())
    assert len(events) == 1
    # how the replan ended: the window optimization's status and exact robustness
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
