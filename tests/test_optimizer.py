import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlfleet import stl
from stlfleet.dynamics import rollout
from stlfleet.errors import SeedTooShort
from stlfleet.mission import compile_mission
from stlfleet.fixtures import fixture_windturbine
from stlfleet.optimizer import (ITERATION_CAP, SATISFIED_NO_MARGIN, SATISFIED_WITH_MARGIN,
                                VIOLATED, OptimizerConfig, _Objective, optimize,
                                pullback_gradient)
from stlfleet.pipeline import run_pipeline
from stlfleet.replanner import simulate_with_disturbance
from stlfleet.robustness import Program, eval_exact, eval_smooth, gradient_smooth
from stlfleet.warmstart import build_graph, seed_with_schedule, solve_assignment

from test_mission import make_scenario
from test_replanner import PUSHES


def hover_seed(scenario):
    n = scenario.n_samples
    return rollout(scenario.depots, np.zeros_like(scenario.depots),
                   np.zeros((scenario.n_drones, n, 3)), scenario.ts)


def test_pullback_terminal_position_closed_form():
    n_samples, ts = 21, 0.05
    dpos = np.zeros((1, n_samples, 3))
    dvel = np.zeros((1, n_samples, 3))
    dpos[0, -1, 0] = 1.0  # objective depends only on the final position
    dacc = pullback_gradient(dpos, dvel, ts)
    n = n_samples - 1
    for k in range(n):
        assert dacc[0, k, 0] == pytest.approx((n - k - 0.5) * ts * ts)
    assert np.all(dacc[0, :, 1:] == 0.0)


def test_pullback_zero_block_for_uninvolved_drone():
    dpos = np.zeros((2, 10, 3))
    dvel = np.zeros((2, 10, 3))
    dpos[0, 5] = 1.0
    dvel[0, 3] = -2.0
    dacc = pullback_gradient(dpos, dvel, 0.05)
    assert np.any(dacc[0] != 0.0)
    assert np.all(dacc[1] == 0.0)


def test_full_chain_gradient_matches_finite_differences(rng):
    """Formula -> trace -> accelerations, against central differences."""
    scenario = make_scenario(mission=2.0)
    formula, _ = compile_mission(scenario)
    ts = scenario.ts
    acc = rng.normal(scale=0.4, size=(1, 40, 3))
    pos0 = scenario.depots
    vel0 = np.zeros_like(pos0)

    def objective(a):
        return eval_smooth(formula, rollout(pos0, vel0, a, ts), 0, 10.0)

    trace = rollout(pos0, vel0, acc, ts)
    _, dpos, dvel = gradient_smooth(formula, trace, sharpness=10.0)
    analytic = pullback_gradient(dpos, dvel, ts)
    h = 1e-6
    worst = 0.0
    for index in np.ndindex(acc.shape):
        base = acc[index]
        acc[index] = base + h
        up = objective(acc)
        acc[index] = base - h
        down = objective(acc)
        acc[index] = base
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(analytic[index] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_satisfying_seed_keeps_margin_and_monotone_history():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_with_schedule(plan, scenario)[0]
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=300, rng_seed=7, margin=0.05)
    result = optimize(formula, seed, scenario, config)
    assert result.status == SATISFIED_WITH_MARGIN
    assert result.smooth_objective >= 0.05
    history = np.asarray(result.objective_history)
    assert np.all(np.diff(history) >= 0)  # accepted iterates never get worse
    # soundness handoff: margin status implies exact satisfaction
    assert eval_exact(formula, result.trace, 0) > 0
    assert result.report.satisfied


def test_straight_line_seed_reaches_positive_exact():
    scenario = make_scenario(targets=[(-1.2, -3.0, 1.0)], mission=8.0,
                             home_offset=(0.0, -1.5, 0.0), home_half=0.85)
    formula, _ = compile_mission(scenario)
    seed = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)[0]
    config = OptimizerConfig(max_iters=120, rng_seed=3)
    result = optimize(formula, seed, scenario, config)
    assert eval_exact(formula, result.trace, 0) > 0


def test_optimizer_repairs_separation_conflict_seed():
    """Straight warm-start legs cross inside the separation radius; the
    ascent must bend them apart before the mission satisfies."""
    scenario = make_scenario(n_drones=2, targets=[(0.0, -1.0, 1.0), (-4.0, -1.0, 1.0)],
                             mission=13.0, home_offset=(0.0, -1.5, 0.0), home_half=0.85,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": {1}, "blades": None}])
    formula, _ = compile_mission(scenario)
    seed = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)[0]
    assert eval_exact(formula, seed, 0) < 0
    config = OptimizerConfig(max_iters=600, rng_seed=0)
    result = optimize(formula, seed, scenario, config)
    assert eval_exact(formula, result.trace, 0) > 0


def test_unreachable_target_is_violated():
    # target sits well beyond v_max * mission duration from the depot
    scenario = make_scenario(targets=[(-3.0 + 8.0 + 4.0, -3.0, 1.0)], mission=8.0,
                             ws_half=12.0)
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=60, rng_seed=5)
    result = optimize(formula, hover_seed(scenario), scenario, config)
    # velocity bounds are soft clauses, so the unreachability bound applies to
    # the mission conjoined with them: covering 11.4 m from rest in 8 s at
    # peak speed V costs min(8V - V^2/2 - 11.4, 1 - V) <= -0.5 for every V
    vel = stl.atom(stl.Predicate.velocity_box("vcheck", 0, (-1, -1, -1), (1, 1, 1)))
    hard = stl.land(formula, stl.always(stl.Interval(0.0, 8.0 - scenario.ts), vel))
    assert eval_exact(hard, result.trace, 0) <= -0.5 + 1e-9
    assert result.status in (VIOLATED, ITERATION_CAP)
    assert not result.report.satisfied


def test_feasibility_projection_and_consistency(rng):
    scenario = make_scenario(targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    config = OptimizerConfig(max_iters=40, rng_seed=11)
    seed = hover_seed(scenario)
    seed.acc += rng.normal(scale=3.0, size=seed.acc.shape)  # deliberately out of box
    seed = rollout(seed.pos[:, 0], seed.vel[:, 0], seed.acc, seed.ts)
    result = optimize(formula, seed, scenario, config)
    a_max = np.asarray(scenario.limits[0].a_max)
    assert np.all(np.abs(result.trace.acc) <= a_max + 1e-15)
    assert result.trace.is_consistent(1e-9)


def test_determinism_bitwise_histories():
    scenario = make_scenario(targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    runs = []
    for _ in range(2):
        config = OptimizerConfig(max_iters=60, rng_seed=42)
        result = optimize(formula, hover_seed(scenario), scenario, config)
        runs.append(result.objective_history)
    assert runs[0] == runs[1]


def test_window_freezes_other_drones_and_the_past():
    scenario = make_scenario(n_drones=2, targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    seed = hover_seed(scenario)
    k, end = 20, 100
    config = OptimizerConfig(max_iters=30, rng_seed=1)
    result = optimize(formula, seed, scenario, config, window=(0, k, end))
    for field in ("pos", "vel", "acc"):
        ours, theirs = getattr(result.trace, field), getattr(seed, field)
        assert np.array_equal(ours[1], theirs[1])
        assert np.array_equal(ours[0, :k], theirs[0, :k])
        assert np.array_equal(ours[0, end + 1:], theirs[0, end + 1:])
    assert np.abs(result.trace.pos[0, end] - seed.pos[0, end]).max() <= 1e-9
    assert np.abs(result.trace.vel[0, end] - seed.vel[0, end]).max() <= 1e-9


# Recorded with the window drone's relaxed limits passed in explicitly:
# status, iterations, the repr of the exact robustness and the sha256 of
# the returned trace's bytes. Under the nominal limits the same call ends
# iteration_cap at exact -0.1996.
RELAXED_WINDOW = ("satisfied_no_margin", 60, "0.22541450860915857", "1e8436459c21062a")


def test_window_flies_the_relaxed_limits():
    # drone 0 alone may inspect a target 1.6 m away and must be back on its
    # hover state 3.5 s later: the nominal 1 m/s^2 cannot, the relaxed 5 can
    scenario = make_scenario(n_drones=2, targets=[(-3.0, -1.6, 1.0)], mission=6.0,
                             capability=[{"targets": {0}, "blades": None},
                                         {"targets": set(), "blades": None}])
    formula, _ = compile_mission(scenario)
    k, end = 10, 80
    result = optimize(formula, hover_seed(scenario), scenario,
                      OptimizerConfig(max_iters=60, rng_seed=1), window=(0, k, end))
    trace = result.trace
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (trace.pos, trace.vel, trace.acc)))
    assert (result.status, result.iterations, repr(result.report.exact),
            digest.hexdigest()[:16]) == RELAXED_WINDOW
    nominal, relaxed = scenario.limits[0], scenario.limits[0].relaxed()
    assert np.abs(trace.acc[0, k:end]).max() > nominal.a_max[0]
    assert np.all(np.abs(trace.acc[0, k:end]) <= relaxed.a_max[0])
    assert np.abs(trace.vel[0, k:end]).max() > nominal.v_max[0]


@pytest.mark.parametrize("drone, k, end", [(1, 30, 90), (0, 0, 2), (1, 100, 119)])
def test_window_trace_of_random_accelerations(rng, drone, k, end):
    # every trial of a window keeps the seed outside the window and ends on
    # the seed's state at its end, inside the acceleration box
    scenario = make_scenario(n_drones=2, targets=[(-1.5, -3.0, 1.0)], mission=6.0)
    formula, _ = compile_mission(scenario)
    n = scenario.n_samples - 1
    seed = rollout(scenario.depots, np.zeros_like(scenario.depots),
                   rng.normal(scale=0.5, size=(2, n, 3)), scenario.ts)
    caps = np.asarray(scenario.limits[drone].a_max)[None, None, :]
    objective = _Objective(formula, seed, scenario.ts, scenario.sharpness, None, caps,
                           window=(drone, k, end))
    for scale in (0.1, 1.0, 10.0):
        acc = objective.project(rng.normal(scale=scale, size=(1, end - k, 3)))
        trace = objective.trace(acc)
        for field in ("pos", "vel", "acc"):
            ours, theirs = getattr(trace, field), getattr(seed, field)
            assert np.array_equal(ours[1 - drone], theirs[1 - drone])
            assert np.array_equal(ours[drone, :k], theirs[drone, :k])
            assert np.array_equal(ours[drone, end + 1:], theirs[drone, end + 1:])
        assert np.array_equal(trace.acc[drone, k:end], acc[0])
        assert np.abs(trace.pos[drone, end] - seed.pos[drone, end]).max() <= 1e-9
        assert np.abs(trace.vel[drone, end] - seed.vel[drone, end]).max() <= 1e-9
        assert np.all(np.abs(acc) <= np.maximum(caps, np.abs(seed.acc[drone, k:end])) + 1e-12)


def test_non_finite_objective_carries_iterate():
    from stlfleet.errors import NonFiniteObjective
    scenario = make_scenario(mission=6.0)
    formula, _ = compile_mission(scenario)
    seed = hover_seed(scenario)
    seed.pos[0, 0, 0] = np.nan  # poisoned initial state propagates through rollout
    with pytest.raises(NonFiniteObjective) as err:
        optimize(formula, seed, scenario, OptimizerConfig(max_iters=5))
    assert err.value.accelerations is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trial_is_a_rejected_step(monkeypatch, bad):
    import stlfleet.optimizer as optimizer_module
    scenario = make_scenario(mission=6.0)
    formula, _ = compile_mission(scenario)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(len(calls))
        value = eval_smooth(*args, **kwargs)
        return bad if len(calls) == 2 else value  # the second line-search trial

    monkeypatch.setattr(optimizer_module, "eval_smooth", poisoned)
    result = optimize(formula, hover_seed(scenario), scenario, OptimizerConfig(max_iters=5))
    assert len(calls) > 2
    assert np.all(np.isfinite(result.objective_history))
    assert np.all(np.diff(result.objective_history) > 0)
    assert result.iterations >= 1


def test_seed_too_short_raises():
    scenario = make_scenario(mission=8.0)
    formula, _ = compile_mission(scenario)
    short = rollout(scenario.depots, np.zeros_like(scenario.depots),
                    np.zeros((1, 10, 3)), scenario.ts)
    with pytest.raises(SeedTooShort):
        optimize(formula, short, scenario, OptimizerConfig(max_iters=5))


def test_velocity_bounds_hold_at_margin_status():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_with_schedule(plan, scenario)[0]
    formula, _ = compile_mission(scenario)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=120, rng_seed=2))
    if result.status == SATISFIED_WITH_MARGIN:
        v_max = np.asarray(scenario.limits[0].v_max)
        assert np.all(np.abs(result.trace.vel) <= v_max + 1e-9)


def test_plan_result_serialization():
    scenario = make_scenario(targets=[(-2.0, -3.0, 1.0)], mission=13.0)
    plan = solve_assignment(build_graph(scenario))
    seed = seed_with_schedule(plan, scenario)[0]
    formula, _ = compile_mission(scenario)
    result = optimize(formula, seed, scenario, OptimizerConfig(max_iters=10, rng_seed=2))
    parsed = result.to_dict()
    assert parsed["status"] == result.status
    assert "report" in parsed
    csv_text = result.history_csv()
    assert csv_text.startswith("iteration,objective")


def _pullback_loop(dpos, dvel, ts):
    """Reference pullback: the reverse recursion, one sample at a time."""
    n_drones, n_samples, _ = dpos.shape
    n = n_samples - 1
    dacc = np.zeros((n_drones, n, 3))
    adj_p = dpos[:, n].copy()
    adj_v = dvel[:, n].copy()
    for k in range(n - 1, -1, -1):
        dacc[:, k] = 0.5 * ts * ts * adj_p + ts * adj_v
        adj_v += ts * adj_p + dvel[:, k]
        adj_p += dpos[:, k]
    return dacc


@settings(max_examples=60, deadline=None)
@given(drones=st.integers(1, 4), n=st.integers(0, 300),
       ts=st.sampled_from([0.05, 0.1, 0.013]), seed=st.integers(0, 2**32 - 1))
@example(drones=1, n=0, ts=0.05, seed=0)
@example(drones=4, n=0, ts=0.05, seed=1)
@example(drones=1, n=1, ts=0.05, seed=2)
@example(drones=3, n=1, ts=0.1, seed=3)
def test_pullback_bitwise_equals_reverse_loop(drones, n, ts, seed):
    rng = np.random.default_rng(seed)
    dpos = rng.normal(size=(drones, n + 1, 3))
    dvel = rng.normal(size=(drones, n + 1, 3))
    dacc = pullback_gradient(dpos, dvel, ts)
    assert dacc.shape == (drones, n, 3)
    assert np.array_equal(dacc, _pullback_loop(dpos, dvel, ts))


# `stlfleet plan` defaults
CLI_DEFAULTS = OptimizerConfig(max_iters=600, rng_seed=0)


@pytest.fixture(scope="module")
def bundled():
    """The bundled turbine: scenario, mission, its weights and the routed seed."""
    scenario = fixture_windturbine()
    seed, _ = seed_with_schedule(solve_assignment(build_graph(scenario)), scenario)
    return (scenario, *compile_mission(scenario), seed)


@pytest.fixture(scope="module")
def committed(bundled):
    """The bundled turbine's basic plan, for replans."""
    return bundled[0], run_pipeline(bundled[0], "basic", CLI_DEFAULTS)


def _assert_best_by_key(result, formula, margin, iterates):
    """``result`` holds the iterate that is best by (at the margin, exact,
    smooth), each exact value from a fresh program: the first best of each
    run, and the retry's only for a better (exact, smooth)."""
    monitor = Program(formula, result.trace.ts)
    runs = []  # (best key, its trace, the run's smooth values)
    for i, (value, trace) in enumerate(iterates):
        if not i or value <= iterates[i - 1][0]:  # smooth values rise within a run
            runs.append([None, None, []])
        run = runs[-1]
        key = (value >= margin, eval_exact(monitor, trace, 0), value)
        if run[0] is None or key > run[0]:
            run[:2] = key, trace
        run[2].append(value)
    assert len(runs) == 1 + result.restarts_used
    best = runs[0]
    if len(runs) > 1 and runs[1][0][1:] > best[0][1:]:
        best = runs[1]
    (at_margin, exact, smooth), trace, history = best
    for field in ("pos", "vel", "acc"):
        assert getattr(result.trace, field).tobytes() == getattr(trace, field).tobytes()
    assert result.objective_history == history
    assert repr(result.report.exact) == repr(exact)
    assert result.smooth_objective == smooth
    if exact > 0:
        assert result.status == (SATISFIED_WITH_MARGIN if at_margin else SATISFIED_NO_MARGIN)
    else:
        assert result.status in (ITERATION_CAP, VIOLATED)


@pytest.mark.parametrize("mode, margin", [("basic", None), ("attrition", None),
                                          ("basic", 5.0), ("basic", -0.5)])
def test_plan_returns_the_best_iterate_by_key(bundled, iterates, mode, margin):
    # margin 5 is never reached, so every iterate above 0 is judged after
    # the run; below zero every iterate is at the margin
    scenario, formula, weights, seed = bundled
    config = OptimizerConfig(margin=margin, max_iters=600, rng_seed=0)
    result = optimize(formula, seed, scenario, config,
                      weights=weights if mode == "attrition" else None)
    _assert_best_by_key(result, formula, scenario.margin if margin is None else margin,
                        iterates)


def test_replan_window_returns_the_best_iterate_by_key(monkeypatch, committed, iterates):
    # drone 1's window after perfbench's push of seed 1, op 2 cannot be
    # repaired: a margin-0 ascent that runs twice, to its iteration cap
    import stlfleet.replanner as replanner
    scenario, plan = committed
    calls = []

    def recorded(formula, seed, scenario, config, **kwargs):
        result = optimize(formula, seed, scenario, config, **kwargs)
        calls.append((formula, config.margin, result))
        return result
    monkeypatch.setattr(replanner, "optimize", recorded)
    push = PUSHES["op2"]
    simulate_with_disturbance(plan.result.trace, plan.schedules,
                              [(push["time"], push["drone"], push["offset"])],
                              scenario, CLI_DEFAULTS)
    [(formula, margin, result)] = calls
    assert (margin, result.restarts_used, result.status) == (0.0, 1, ITERATION_CAP)
    _assert_best_by_key(result, formula, margin, iterates)


def test_bundled_plan_judges_one_iterate(monkeypatch, bundled):
    # the run reaches the margin from above 0, so only its last iterate is
    # judged: the returned one
    import stlfleet.optimizer as optimizer_module
    scenario, formula, _, seed = bundled
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eval_exact(*args, **kwargs)
    monkeypatch.setattr(optimizer_module, "eval_exact", counted)
    result = optimize(formula, seed, scenario, CLI_DEFAULTS)
    assert result.status == SATISFIED_WITH_MARGIN
    assert len(calls) == 1
