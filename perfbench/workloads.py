"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and returns plain JSON-able
data, so the program under test only ever sees a scenario file or a
disturbance list. The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TURBINE = Path("src") / "stlfleet" / "scenarios" / "windturbine_mock.json"
TARGET_JITTER_M = 0.05
OFFSET_RANGE_M = (1.1, 1.5)   # always above the bundled 1.0 m trigger radius
TIME_STRATA = 8
CAPABILITY_LOSS = 0.3         # share of routing tasks drones 1 and 2 may not do


def turbine_dict(root: Path) -> dict:
    return json.loads((root / TURBINE).read_text())


def jittered_turbine(base: dict, seed: int, op: int) -> dict:
    """Bundled turbine with every target box shifted by up to +-5 cm per axis."""
    rng = np.random.default_rng([seed, op])
    data = json.loads(json.dumps(base))
    for target in data["targets"]:
        shift = rng.uniform(-TARGET_JITTER_M, TARGET_JITTER_M, 3)
        target["lower"] = [float(x) for x in np.add(target["lower"], shift)]
        target["upper"] = [float(x) for x in np.add(target["upper"], shift)]
    return data


def disturbance(scenario: dict, seed: int, op: int) -> list:
    """One horizontal push of 1.1-1.5 m on a uniform drone at a uniform time.

    Times are stratified: operation ``op`` draws its sample uniformly from
    stratum ``op % TIME_STRATA`` of the mission, so every block of
    TIME_STRATA operations covers early and late pushes alike (late pushes
    give short replan windows, early ones long windows). The last two
    samples are excluded, where a replan window would be shorter than
    steering allows.
    """
    rng = np.random.default_rng([seed, op])
    timing = scenario["timing"]
    n = int(round(timing["mission"] / timing["sample"]))
    edges = np.linspace(0, n - 1, TIME_STRATA + 1).astype(int)
    stratum = op % TIME_STRATA
    sample = int(rng.integers(edges[stratum], edges[stratum + 1]))
    drone = int(rng.integers(len(scenario["fleet"]["depots"])))
    radius = rng.uniform(*OFFSET_RANGE_M)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    offset = [float(radius * math.cos(angle)), float(radius * math.sin(angle)), 0.0]
    return [{"time": sample * timing["sample"], "drone": drone, "offset": offset}]


def _box(center, half):
    center = np.asarray(center, float)
    return {"lower": [float(x) for x in center - half],
            "upper": [float(x) for x in center + half]}


def routing_scenario(seed: int, op: int, n_tasks: int) -> dict:
    """Synthetic routing instance with exactly ``n_tasks`` graph tasks.

    Targets sit in a 20 x 20 x 8 m box; three drones get different limits;
    about half the instances add one two-sided blade, which merges into a
    single task. Drone 0 may do every task, and drones 1 and 2 each lose a
    random but fixed share of the tasks, so instances of one size differ
    little in how much of the partition program is feasible. The mission
    is long enough that the seed is never time-compressed.
    """
    rng = np.random.default_rng([seed, op, n_tasks])
    lower = np.array([-10.0, -10.0, 0.0])
    upper = np.array([10.0, 10.0, 8.0])
    blade = bool(rng.integers(2))
    n_targets = n_tasks - int(blade)
    centers = rng.uniform(lower + 1.0, upper - 1.0, size=(n_targets, 3))
    targets = [dict(_box(c, 0.4), yaw=0.0) for c in centers]

    depots = rng.uniform(lower + 1.0, upper - 1.0, size=(3, 3))
    limits = []
    for _ in range(3):
        v = float(rng.uniform(0.7, 1.5))
        a = float(rng.uniform(0.7, 1.5))
        limits.append({"v_max": [v] * 3, "a_max": [a] * 3,
                       "v_max_relaxed": [2 * v] * 3, "a_max_relaxed": [4 * a] * 3})
    # drones 1 and 2 never inspect the blade, so it counts as one lost task
    lost = round(CAPABILITY_LOSS * n_tasks) - int(blade)
    capability = [{"targets": "all", "blades": "all"}]
    for _ in range(2):
        dropped = set(int(q) for q in rng.choice(n_targets, size=lost, replace=False))
        allowed = [q for q in range(n_targets) if q not in dropped]
        capability.append({"targets": allowed, "blades": []})

    blades = []
    if blade:
        base = rng.uniform([-7.0, -7.0, 1.0], [7.0, 7.0, 3.0])
        top = base + np.array([0.0, 0.0, 4.0])
        for side in (-1.0, 1.0):
            box_center = (base + top) / 2 + np.array([side * 2.5, 0.0, 0.0])
            blades.append({"leading_edge": [float(x) for x in base],
                           "rotor_shaft": [float(x) for x in top],
                           "box": _box(box_center, np.array([1.0, 1.0, 2.2])),
                           "blade_id": 0})

    return {
        "workspace": {"lower": [float(x) for x in lower], "upper": [float(x) for x in upper]},
        "obstacles": [],
        "targets": targets,
        "blades": blades,
        "fleet": {"depots": [[float(x) for x in p] for p in depots],
                  "limits": limits,
                  "home_boxes": [_box(p, 0.5) for p in depots],
                  "capability": capability},
        # 400 s at 0.5 s samples: long enough for any 12-task route
        "timing": {"mission": 400.0, "inspect": 1.0, "blade": 1.5, "sample": 0.5},
        "thresholds": {"min_separation": 1.0, "blade_standoff": 2.5,
                       "standoff_tolerance": 1.0, "margin": 0.2,
                       "sharpness": 10.0, "trigger_radius": 1.0},
        "weights": {},
    }
