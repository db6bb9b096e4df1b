"""Implicit integration formulas used by the Newton-Raphson baselines.

Conventional analogue/mixed-signal simulators (SystemVision, PSPICE)
discretise the differential equations with an implicit formula (backward
Euler or trapezoidal) and solve the resulting nonlinear algebraic system
with Newton-Raphson at every time step — the expensive process the paper's
technique avoids.  These classes only describe the *formula*; the actual
Newton iteration lives in :mod:`repro.baselines.newton_raphson`.

For a formula written as ``x_{n+1} = x_n + h * (theta * f_{n+1} + (1-theta) * f_n)``:

* backward Euler: ``theta = 1``
* trapezoidal:    ``theta = 1/2``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ImplicitFormula", "BackwardEuler", "Trapezoidal"]


@dataclass(frozen=True)
class ImplicitFormula:
    """A theta-method implicit discretisation.

    The residual whose root Newton-Raphson must find at each step is

    ``R(x_{n+1}) = x_{n+1} - x_n - h*(theta*f(t_{n+1}, x_{n+1}) + (1-theta)*f(t_n, x_n))``
    """

    name: str
    theta: float
    order: int

    def residual(
        self,
        x_next: np.ndarray,
        f_next: np.ndarray,
        x_current: np.ndarray,
        f_current: np.ndarray,
        h: float,
    ) -> np.ndarray:
        """Evaluate the discretisation residual for a candidate ``x_{n+1}``."""
        return self.residual_given(
            x_next, f_next, x_current, self.explicit_part(f_current), h
        )

    def explicit_part(self, f_current: np.ndarray) -> np.ndarray:
        """``(1-theta) * f_n``: the residual's term fixed for the whole step."""
        return (1.0 - self.theta) * f_current

    def residual_given(
        self,
        x_next: np.ndarray,
        f_next: np.ndarray,
        x_current: np.ndarray,
        explicit_part: np.ndarray,
        h: float,
    ) -> np.ndarray:
        """:meth:`residual` with ``(1-theta) * f_n`` formed once by
        :meth:`explicit_part` (element-wise, so a slice of it is the term
        of the matching slice of ``f_n``); the same floats."""
        return x_next - x_current - h * (self.theta * f_next + explicit_part)


#: Backward (implicit) Euler: first order, L-stable, the SPICE default
#: for badly behaved circuits.
BackwardEuler = ImplicitFormula(name="backward_euler", theta=1.0, order=1)

#: Trapezoidal rule: second order, A-stable, the SPICE default method.
Trapezoidal = ImplicitFormula(name="trapezoidal", theta=0.5, order=2)
