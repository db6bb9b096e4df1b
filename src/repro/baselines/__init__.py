"""Baseline solvers the paper compares against (Tables I and II).

* :class:`ImplicitNewtonSolver` — implicit integration + Newton-Raphson on
  the full nonlinear block model; stand-in for SystemVision (VHDL-AMS) and
  for a conventionally-solved SystemC-A model.
* :class:`MNATransientSimulator` / :class:`SpiceLikeHarvesterSimulator` —
  a from-scratch SPICE-style engine (modified nodal analysis, backward
  Euler, Newton-Raphson) running the harvester's equivalent circuit;
  stand-in for OrCAD/PSPICE.
* :class:`ReferenceSolver` — scipy high-accuracy integration of the same
  model; stand-in for the experimental measurements of Figs. 8-9.

Callers select these by family name through the :mod:`repro.api` facade
— ``Study.scenario(...).solver("baseline").run()`` /
``.solver("reference")`` / ``.compare("proposed", "baseline")`` — whose
execution planner dispatches onto the scenario runners.
"""

from .implicit_solver import ImplicitNewtonSolver, ImplicitSolverSettings
from .mna import Circuit, MNATransientSimulator, TransientSettings
from .newton_raphson import NewtonResult, newton_solve
from .reference import ReferenceSolver, ReferenceSolverSettings
from .spice import SpiceLikeHarvesterSimulator, build_harvester_circuit

__all__ = [
    "ImplicitNewtonSolver",
    "ImplicitSolverSettings",
    "Circuit",
    "MNATransientSimulator",
    "TransientSettings",
    "NewtonResult",
    "newton_solve",
    "ReferenceSolver",
    "ReferenceSolverSettings",
    "SpiceLikeHarvesterSimulator",
    "build_harvester_circuit",
]
