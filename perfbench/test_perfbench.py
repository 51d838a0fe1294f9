"""Self-checks of the benchmark: determinism, metric names, bare-directory exit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()
import operations  # noqa: E402

COUNTERS = ("optimizer.iterations", "optimizer.restarts", "dynamics.rollouts",
            "optimizer.trials", "optimizer.gradients", "replanner.events",
            "replanner.window_steps", "warmstart.heldkarp_ops", "warmstart.partition_ops")


def _traced_ops(name, seed, ops, work):
    work.mkdir()
    workload = operations.make(name, run.ROOT, work, seed)
    workload.setup()
    out = []
    for index in range(ops):
        op = workload.run(index, traced=True)
        counters = {k: v for k, v in op.layers.items() if k in COUNTERS}
        out.append((counters, op.quality, len(op.failures)))
    return out


@pytest.mark.parametrize("name, ops", [("plan-basic", 1), ("plan-attrition", 1),
                                       ("replan", 2), ("routes", 2)])
def test_same_seed_repeats_counters_and_robustness(name, ops, tmp_path):
    first = _traced_ops(name, 3, ops, tmp_path / "a")
    second = _traced_ops(name, 3, ops, tmp_path / "b")
    assert all(counters for counters, _, _ in first)
    assert first == second


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(operations.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(20)) == (9, 50.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "routes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_traced_name_fails_loudly_and_restores(monkeypatch):
    import stlfleet.optimizer
    import stlfleet.replanner
    from layertrace import LayerTrace, TraceError
    rollout = stlfleet.optimizer.rollout
    monkeypatch.delattr(stlfleet.replanner, "steer_to_state")
    with pytest.raises(TraceError):
        with LayerTrace():
            pass
    assert stlfleet.optimizer.rollout is rollout
