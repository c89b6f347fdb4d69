"""Geometry and control of the five dimensional saucer configuration space.

The package models a rigid disc with position in R^3 and an oriented axis on
the upper hemisphere of S^2. Admissible motions pair the velocity of the
center with the axis through one of three maneuver laws; the modules cover
the chart calculus, the control kernels, invariant structures and their
symmetry algebras, the engine double fibration, and a reachability planner.
The package imports none of them; import each where it is used, as in
`from saucer import planner`.
"""

__version__ = "0.1.0"
