"""Newton-Raphson solver for nonlinear algebraic systems.

Conventional analogue simulators solve a nonlinear algebraic system at
every time step with Newton-Raphson; the paper identifies exactly this
iteration (plus the implicit discretisation that makes it necessary) as
the reason for the multi-hour CPU times of Table I.  This module provides
the iteration used by the baseline solvers in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.errors import ConvergenceError
from ..core.linearise import finite_difference_jacobian

__all__ = ["NewtonResult", "newton_solve"]


@dataclass
class NewtonResult:
    """Outcome of a Newton-Raphson solve."""

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    n_function_evaluations: int
    n_jacobian_evaluations: int


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    initial_guess: np.ndarray,
    *,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tolerance: float = 1e-9,
    max_iterations: int = 50,
    raise_on_failure: bool = True,
) -> NewtonResult:
    """Solve ``residual(z) = 0`` by full-step Newton-Raphson.

    Parameters
    ----------
    residual:
        Vector residual function.
    initial_guess:
        Starting point (typically the previous time-step solution).
    jacobian:
        Jacobian callable; when omitted, a dense finite-difference
        Jacobian of ``residual`` is computed at every iteration, the
        expensive behaviour of a conventional simulator evaluating its
        device equations.  ``n_function_evaluations`` counts that matrix
        as ``2 * len(z)`` residual evaluations and a supplied Jacobian as
        none: a caller that passes a finite-difference Jacobian of its own
        (the implicit baseline's block-local one) adds its ``2 (n + m)``
        per ``n_jacobian_evaluations`` itself.
    tolerance:
        Convergence threshold on the max-norm of the residual.
    max_iterations:
        Iteration cap; exceeding it raises :class:`ConvergenceError`
        unless ``raise_on_failure`` is ``False``.  A NaN or infinite
        residual norm raises at once when ``raise_on_failure`` is set: a
        non-finite residual spreads through every later iterate, so the
        remaining iterations could not converge.
    """
    z = np.array(initial_guess, dtype=float, copy=True)
    n_f = 0
    n_j = 0
    f = np.asarray(residual(z), dtype=float)
    n_f += 1
    norm = float(np.max(np.abs(f))) if f.size else 0.0

    for iteration in range(1, max_iterations + 1):
        if norm <= tolerance:
            return NewtonResult(
                solution=z,
                iterations=iteration - 1,
                residual_norm=norm,
                converged=True,
                n_function_evaluations=n_f,
                n_jacobian_evaluations=n_j,
            )
        if raise_on_failure and not math.isfinite(norm):
            raise ConvergenceError(
                f"Newton-Raphson residual norm is {norm} after "
                f"{iteration - 1} iterations"
            )
        if jacobian is not None:
            jac = np.asarray(jacobian(z), dtype=float)
        else:
            jac = finite_difference_jacobian(residual, z)
            n_f += 2 * z.size
        n_j += 1
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            # regularise a singular iteration matrix and keep going
            jac_reg = jac + np.eye(jac.shape[0]) * 1e-12
            delta = np.linalg.lstsq(jac_reg, -f, rcond=None)[0]
        z = z + delta
        f = np.asarray(residual(z), dtype=float)
        n_f += 1
        norm = float(np.max(np.abs(f)))

    if norm <= tolerance:
        return NewtonResult(
            solution=z,
            iterations=max_iterations,
            residual_norm=norm,
            converged=True,
            n_function_evaluations=n_f,
            n_jacobian_evaluations=n_j,
        )
    if raise_on_failure:
        raise ConvergenceError(
            f"Newton-Raphson failed to converge after {max_iterations} iterations "
            f"(residual norm {norm:.3e} > {tolerance:.3e})"
        )
    return NewtonResult(
        solution=z,
        iterations=max_iterations,
        residual_norm=norm,
        converged=False,
        n_function_evaluations=n_f,
        n_jacobian_evaluations=n_j,
    )
