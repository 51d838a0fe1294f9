"""Routing sweep: where the exact warm-start stops being interactive.

Not a gated workload (one 13-task solve takes several seconds). For each
task count it times ``solve_assignment`` on synthetic routing instances
and prints the computed table sizes of the two dynamic programs:
Held-Karp, drones * 2^n * n^2, and the partition program, drones * 3^n.

    python3 perfbench/sweep.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run  # pins BLAS threads and locates the checkout

SIZES = range(6, 14)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run._import_program()
    import workloads
    from stlfleet import build_graph, solve_assignment
    from stlfleet.mission import scenario_from_dict

    print(json.dumps({"environment": run.environment()}))
    for n in SIZES:
        graph = build_graph(scenario_from_dict(workloads.routing_scenario(args.seed, 0, n)))
        start = time.perf_counter()
        plan = solve_assignment(graph)
        seconds = time.perf_counter() - start
        drones = graph.n_drones
        print(json.dumps({"tasks": n, "solve_assignment_s": seconds,
                          "objective_s": plan.objective,
                          "heldkarp_ops": drones * 2 ** n * n ** 2,
                          "partition_ops": drones * 3 ** n}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
