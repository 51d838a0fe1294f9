"""stlfleet benchmark: one seeded workload per run, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-basic --seed 1 --seconds 55 --trace 0

Workloads: plan-basic, plan-attrition, replan, routes (see operations.py
and workloads.py). With ``--trace 0`` the run times operations with no
tracing and prints the end-to-end metrics; with ``--trace 1`` each input
runs once untraced and once traced, and the run prints the per-layer
metrics and the tracing overhead. The full report (every metric, the
failed checks and the environment) is the ``REPORT`` line; the last line
is the summary JSON object that gates performance changes.

End-to-end metrics. ``plan_s``, ``replan_s`` and ``routes_s`` are the
median wall time of the workload's command (for routes, the median over
blocks of the mean time of one command per instance size). A shared
virtual machine (2 vCPUs, Xeon) was seen to slow by up to 1.8x for
minutes at a time, so the gated ``command_norm_s`` divides each block's
mean by the mean of the two ``host_probe()`` times taken just before and
just after the block, multiplies by the probe's time on a quiet host and
takes the median over blocks: seconds on a quiet host. ``setup_s``
(a fresh interpreter starting and importing the CLI, input generation and,
for replan, the committed plan; median of five set-ups) is scaled by the
median probe of the run and keeps its measured value as ``measured_s``.
The ``*_tail`` metrics, ``monitor_s``, ``fail_ratio`` and the robustness
medians are reported, not gated.

Operations run in one process with no extra threads: BLAS and OpenMP pools
are pinned to one thread before numpy is imported. Set-up starts one child
interpreter at a time to time the CLI import and waits for it to end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PROBE_REF_S = 0.020   # host_probe() on a quiet host (see baseline.json)

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {"setup_s": "s", "command_norm_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "warmstart.build_graph_s": "s", "warmstart.solve_assignment_s": "s",
    "warmstart.stitch_subtours_s": "s", "warmstart.seed_s": "s",
    "warmstart.tasks": "count", "warmstart.heldkarp_ops": "count",
    "warmstart.partition_ops": "count",
    "mission.compile_s": "s", "mission.headings_s": "s", "mission.formula_nodes": "count",
    "optimizer.optimize_s": "s", "optimizer.self_s": "s", "optimizer.iterations": "count",
    "optimizer.restarts": "count", "optimizer.trials": "count",
    "optimizer.accepted": "count", "optimizer.gradients": "count",
    "optimizer.accept_ratio": "ratio", "optimizer.pullback_s": "s",
    "dynamics.rollout_s": "s", "dynamics.rollouts": "count",
    "dynamics.steer_s": "s", "dynamics.steers": "count",
    "robustness.exact_s": "s", "robustness.exact_evals": "count",
    "robustness.report_s": "s", "robustness.exact_call_s": "s",
    "robustness.smooth_call_s": "s", "robustness.gradient_call_s": "s",
    "replanner.replan_s": "s", "replanner.optimize_s": "s",
    "replanner.iterations": "count", "replanner.events": "count",
    "replanner.window_steps": "count", "replanner.skipped_tasks": "count",
    "replanner.glide_home": "count",
    "pipeline.export_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _import_program():
    """Put the checkout's own ``src`` first on the path and import it."""
    if not (ROOT / "src" / "stlfleet" / "__init__.py").is_file():
        raise SystemExit(f"error: no stlfleet sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import stlfleet
    if Path(stlfleet.__file__).resolve().parent != ROOT / "src" / "stlfleet":
        raise SystemExit(f"error: imported stlfleet from {stlfleet.__file__}")


def environment() -> dict:
    import numpy
    git = ROOT / ".git"
    sha = "unknown (not a git checkout)"
    if (git / "HEAD").is_file():
        sha = (git / "HEAD").read_text().strip()
        if sha.startswith("ref: "):
            ref = sha[5:]
            packed = (git / "packed-refs").read_text() if (git / "packed-refs").is_file() else ""
            loose = git / ref
            sha = loose.read_text().strip() if loose.is_file() else next(
                (line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref)),
                sha)
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def host_probe() -> float:
    """Median seconds of three passes of a fixed mix of small numpy calls
    and a Python loop.

    It runs no stlfleet code, so it measures only how fast the shared host
    is at the moment. Its profile is like the planner's: many calls on
    arrays of a few hundred samples. The median of three keeps one
    preempted pass from scaling a whole block.
    """
    import numpy as np
    x = np.random.default_rng(0).normal(size=(3, 261, 3))
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for _ in range(500):
            y = np.cumsum(x, axis=1)
            total += float(np.maximum(y[:, 1:], y[:, :-1]).sum())
            total += float(np.exp(-np.abs(y)).mean())
        for i in range(100000):
            total += (i * 7) % 13
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


def import_seconds() -> float:
    """Seconds for a fresh interpreter to start and import the CLI.

    This is what every ``stlfleet`` command pays before it does any work.
    A fresh process each time gives repeatable samples, which one import
    in the benchmark's own process cannot.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stlfleet.cli"], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - start


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    no such percentile exists and the maximum is returned with 0 beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _metric(value, unit, **extra):
    return dict(value=value, unit=unit, **extra)


def end_to_end(workload, ops, setup_s, probes, block_probes) -> dict:
    """Every end-to-end metric of the workload; the gated ones come first.

    ``block_probes`` holds one ``host_probe()`` before each block and one
    after the last, so each block is scaled by the host speed around it.
    """
    command = workload.command
    times = [op.seconds[command] for op in ops if command in op.seconds]
    if not times:
        raise RuntimeError(f"no {command} operation completed")
    # median over blocks of the mean time per command within a block: each
    # block holds every input stratum once, so the mix does not depend on
    # how many operations fit in a run
    block = workload.block
    means = [statistics.fmean(times[i:i + block])
             for i in range(0, len(times) - block + 1, block)]
    command_s = statistics.median(means or times)
    # the host's speed drifts within a run, so each block is scaled by the
    # probes taken just before and just after it
    norm = [mean * 2 * PROBE_REF_S / (before + after)
            for mean, before, after in zip(means, block_probes, block_probes[1:])]
    value, pct, beyond = tail(times)
    scale = PROBE_REF_S / statistics.median(probes)
    failed = sum(1 for op in ops if op.failures)
    out = {
        "setup_s": _metric(setup_s * scale, "s", measured_s=setup_s,
                           host_probe_s=statistics.median(probes)),
        "command_norm_s": _metric(statistics.median(norm), "s", command=command),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB"),
        f"{command}_s": _metric(command_s, "s"),
        f"{command}_s_tail": _metric(value, "s", percentile=pct, beyond=beyond,
                                     samples=len(times)),
        "fail_ratio": _metric(failed / len(ops), "share", failed=failed, attempted=len(ops)),
    }
    if command == "plan":
        monitor = [op.seconds["monitor"] for op in ops if "monitor" in op.seconds]
        out["monitor_s"] = _metric(statistics.median(monitor), "s")
    quality = [op.quality for op in ops if op.quality is not None]
    if quality and command in ("plan", "replan"):
        name = "plan_robustness_m" if command == "plan" else "executed_robustness_m"
        out[name] = _metric(statistics.median(quality), "m")
    return out


def not_applicable(workload) -> list:
    """Per-layer metrics of layers the workload's operations never run."""
    return [name for name in PER_LAYER
            if name.split(".")[0] not in workload.layers + ("trace",)]


def per_layer(workload, pairs) -> dict:
    """Per-operation means of the traced operations' layer values.

    Metrics of layers the workload does not run are reported as 0 and
    listed under ``not_applicable`` in the report.
    """
    traced = [t for _, t in pairs if t.layers]
    skip = not_applicable(workload)
    values = {}
    for name in PER_LAYER:
        samples = [op.layers[name] for op in traced if name in op.layers]
        if samples and name not in skip:
            values[name] = statistics.fmean(samples)
    values.update(workload.microbench())
    command = workload.command
    plain = [u.seconds[command] for u, _ in pairs if command in u.seconds]
    timed = [t.seconds[command] for _, t in pairs if command in t.seconds]
    if plain and timed:
        values["trace.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    missing = [n for n in PER_LAYER if n not in values and n not in skip]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return {name: _metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


def run(workload_name, seed, seconds, trace):
    """Set up, run operations until the deadline, report."""
    import operations
    work_root = ROOT / ".bench_out"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=work_root))
    try:
        setups = []
        probes = []
        for _ in range(SETUP_REPEATS):
            probes.append(host_probe())
            imports_s = import_seconds()
            start = time.perf_counter()
            workload = operations.make(workload_name, ROOT, work, seed)
            workload.setup()
            setups.append(imports_s + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        deadline = time.perf_counter() + seconds
        block = workload.block
        results = []
        block_probes = []
        index = 0
        # untraced runs stop on a block boundary, so the block statistic sees
        # whole blocks; traced runs report means and need no alignment
        while (index % block and not trace) or time.perf_counter() < deadline:
            if index % block == 0 and not trace:
                block_probes.append(host_probe())
            if trace:
                # alternate which side runs first, so neither gets the warmer cache
                order = (False, True) if index % 2 == 0 else (True, False)
                done = {traced: workload.run(index, traced) for traced in order}
                results.append((done[False], done[True]))
            else:
                results.append(workload.run(index, False))
            index += 1
        block_probes.append(host_probe())

        if trace:
            flat = [op for pair in results for op in pair]
            metrics = per_layer(workload, results)
        else:
            flat = results
            metrics = end_to_end(workload, flat, setup_s, probes + block_probes, block_probes)
        failures = [f"op {op.index}: {reason}" for op in flat for reason in op.failures]
        report = {"workload": workload_name, "seed": seed, "seconds": seconds,
                  "trace": trace, "loop": "closed, 1 client", "operations": len(results),
                  "metrics": metrics, "failures": failures,
                  "samples": [op.seconds for op in flat],
                  "not_applicable": not_applicable(workload) if trace else [],
                  "environment": environment()}
        return report, flat
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan-basic", "plan-attrition", "replan", "routes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()

    report, ops = run(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in report["metrics"].items():
        extra = {k: v for k, v in metric.items() if k not in ("value", "unit")}
        print(f"{args.workload:15s} {name:30s} {metric['value']:.6g} {metric['unit']}"
              + (f"  {extra}" if extra else ""))
    for line in report["failures"]:
        print(f"{args.workload:15s} FAILED {line}")
    print("REPORT " + json.dumps(report))
    failed = sum(1 for op in ops if op.failures)
    gated = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": report["metrics"][name]["value"], "unit": unit}
                    for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
