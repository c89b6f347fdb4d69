"""Geometry and control of the five dimensional saucer configuration space.

The package models a rigid disc with position in R^3 and an oriented axis on
the upper hemisphere of S^2. Admissible motions pair the velocity of the
center with the axis through one of three maneuver laws; the modules cover
the chart calculus, the control kernels, invariant structures and their
symmetry algebras, the engine double fibration, and a reachability planner.
"""
from .chart import (AmbientConfig, OutsideChart, ambient_from_chart,
                    chart_from_ambient, contact_covector, contact_nondegeneracy)
from .fibration import LiftSingular, run_joystick
from .gl2 import NullClass, classify_direction, quartic_upsilon
from .kernels import BACKEND
from .maneuvers import (ChartEscapeWarning, ControlProgram, ManeuverMode,
                        Trajectory, constraint_residuals, integrate_trajectory,
                        maneuver_velocity)
from .planner import plan_path, replay
from .structure import (attacking_k_operator, landing_k_operator, levi_form,
                        solve_infinitesimal_stabilizer)
from .suites import run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "AmbientConfig", "OutsideChart", "ambient_from_chart", "chart_from_ambient",
    "contact_covector", "contact_nondegeneracy",
    "LiftSingular", "run_joystick",
    "NullClass", "classify_direction", "quartic_upsilon",
    "BACKEND",
    "ChartEscapeWarning", "ControlProgram", "ManeuverMode", "Trajectory",
    "constraint_residuals", "integrate_trajectory", "maneuver_velocity",
    "plan_path", "replay",
    "attacking_k_operator", "landing_k_operator", "levi_form",
    "solve_infinitesimal_stabilizer",
    "run_suite", "run_suites",
    "__version__",
]
