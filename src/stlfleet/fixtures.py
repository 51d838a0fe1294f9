"""Bundled desk-scale scenarios, read from the package's scenario files.

README.md ("Bundled scenarios") gives their geometry and the placement
rationale; the JSON files are the one definition of their numbers.
"""

from __future__ import annotations

from . import bundled_scenario_path
from .mission import Scenario
from .pipeline import load_scenario


def fixture_windturbine() -> Scenario:
    """Three drones, nine pylon targets, one two-sided blade, 13 s mission."""
    return load_scenario(bundled_scenario_path("windturbine_mock"))


def fixture_two_drone_swap() -> Scenario:
    """Two drones, two targets, an 8 s window."""
    return load_scenario(bundled_scenario_path("two_drone_swap"))
