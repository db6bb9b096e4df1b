"""Shockley diode model and its piecewise-linear companion table.

Section III-B of the paper linearises the Dickson-multiplier diodes as
``Id = G Vd + J`` where ``G`` and ``J`` are piecewise-linear functions of
the diode voltage stored in a lookup table, so that during the explicit
march the Jacobian entries are fetched from the table instead of being
recomputed from the exponential device equation.

A small series resistance and a finite reverse conductance are included:
both are physically present in a real diode and both bound the companion
conductance, which keeps the fastest electrical time constant (and hence
the explicit-integration step limit) at a level where the technique pays
off — precisely the "not strongly stiff" regime the paper targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..core.errors import ConfigurationError
from ..core.pwl import CompanionTable, PWLTable

__all__ = ["DiodeParameters", "ShockleyDiode", "build_diode_companion_table"]


@dataclass(frozen=True)
class DiodeParameters:
    """Shockley model parameters.

    Attributes
    ----------
    saturation_current_a:
        Reverse saturation current ``Is``.
    thermal_voltage_v:
        Thermal voltage ``Vt`` (~25.85 mV at room temperature), possibly
        scaled by the emission coefficient.
    series_resistance_ohm:
        Ohmic series resistance ``Rs``; bounds the forward conductance.
    reverse_conductance_s:
        Leakage conductance in reverse bias (keeps the companion model
        non-singular when every diode in a chain is off).
    """

    saturation_current_a: float = 1e-8
    thermal_voltage_v: float = 25.85e-3
    series_resistance_ohm: float = 50.0
    reverse_conductance_s: float = 1e-9

    def __post_init__(self) -> None:
        if self.saturation_current_a <= 0.0:
            raise ConfigurationError("saturation current must be positive")
        if self.thermal_voltage_v <= 0.0:
            raise ConfigurationError("thermal voltage must be positive")
        if self.series_resistance_ohm <= 0.0:
            raise ConfigurationError("series resistance must be positive")
        if self.reverse_conductance_s <= 0.0:
            raise ConfigurationError("reverse conductance must be positive")


class ShockleyDiode:
    """Exact (nonlinear) diode branch ``i = f(v)`` including series resistance.

    The branch voltage ``v`` is the total voltage across the junction plus
    the series resistance; the internal junction voltage is found with a
    few Newton iterations (the branch equation is scalar and very well
    behaved).  The exact model is used by the Newton-Raphson baselines and
    to build the companion lookup table for the fast solver.
    """

    def __init__(self, params: DiodeParameters = DiodeParameters()) -> None:
        self.params = params

    def _solve(self, v_branch: float) -> Tuple[float, float]:
        """Branch current and junction conductance at ``v_branch``.

        Solves ``v_branch = v_j + Rs * i(v_j)`` for the junction voltage
        with a few Newton iterations; each evaluates the junction
        exponential once, for both the current and the conductance.
        """
        p = self.params
        i_s = p.saturation_current_a
        v_t = p.thermal_voltage_v
        r_s = p.series_resistance_ohm
        g_r = p.reverse_conductance_s
        g_s = i_s / v_t
        v_j = min(v_branch, 0.8) if v_branch > 0 else v_branch
        for _ in range(60):
            # clamp the exponent to avoid overflow for voltages far beyond
            # the operating range of an energy harvester (a few volts at most)
            e = math.exp(min(v_j / v_t, 80.0))
            f = v_j + r_s * (i_s * (e - 1.0) + g_r * v_j) - v_branch
            df = 1.0 + r_s * (g_s * e + g_r)
            step = f / df
            v_j -= step
            if abs(step) < 1e-15:
                break
        e = math.exp(min(v_j / v_t, 80.0))
        return i_s * (e - 1.0) + g_r * v_j, g_s * e + g_r

    def current(self, v_branch: float) -> float:
        """Branch current for total branch voltage ``v_branch``."""
        return self._solve(v_branch)[0]

    def conductance(self, v_branch: float) -> float:
        """Small-signal conductance ``di/dv`` of the branch at ``v_branch``."""
        g_j = self._solve(v_branch)[1]
        # series combination of the junction conductance and 1/Rs
        return g_j / (1.0 + self.params.series_resistance_ohm * g_j)

    def companion(self, v_branch: float) -> Tuple[float, float]:
        """Exact companion pair ``(G, J)`` with ``i = G v + J`` tangent at ``v``."""
        i, g_j = self._solve(v_branch)
        g = g_j / (1.0 + self.params.series_resistance_ohm * g_j)
        return g, i - g * v_branch


def build_diode_companion_table(
    params: DiodeParameters = DiodeParameters(),
    v_min: float = -30.0,
    v_max: float = 10.0,
    n_points: int = 512,
) -> CompanionTable:
    """Tabulate the diode companion model ``(G(v), J(v))`` over ``[v_min, v_max]``.

    The breakpoints are spaced non-uniformly: densely around the forward
    knee (where ``G`` varies by orders of magnitude per tens of millivolts)
    and sparsely in deep reverse bias.  This mirrors the paper's remark that
    the granularity of the piecewise-linear models "can be arbitrarily fine
    since the size of the look-up tables does not affect the simulation
    speed".
    """
    if v_max <= v_min:
        raise ConfigurationError("v_max must exceed v_min")
    if n_points < 8:
        raise ConfigurationError("diode table needs at least 8 breakpoints")
    return _cached_companion_table(params, float(v_min), float(v_max), int(n_points))


@lru_cache(maxsize=32)
def _cached_companion_table(
    params: DiodeParameters, v_min: float, v_max: float, n_points: int
) -> CompanionTable:
    """Build (once per parameter set) the companion table.

    Table construction runs hundreds of Newton solves of the implicit
    branch equation, which at ~40 ms dominates the cost of assembling a
    harvester instance.  Design-exploration sweeps build one harvester per
    candidate with (usually) identical diode parameters, so the table is
    shared: :class:`DiodeParameters` is frozen and the table is only ever
    read, never mutated, making the cached instance safe to alias.
    """
    diode = ShockleyDiode(params)

    # Allocate two thirds of the points to the knee region [-0.2, min(v_max, 1.5)].
    knee_lo = max(v_min, -0.2)
    knee_hi = min(v_max, 1.5)
    n_knee = (2 * n_points) // 3
    n_rest = n_points - n_knee
    n_below = max(2, int(n_rest * (knee_lo - v_min) / max(v_max - v_min, 1e-12)))
    n_above = max(2, n_rest - n_below)

    breakpoints = []
    if knee_lo > v_min:
        breakpoints.extend(
            v_min + (knee_lo - v_min) * i / n_below for i in range(n_below)
        )
    breakpoints.extend(
        knee_lo + (knee_hi - knee_lo) * i / (n_knee - 1) for i in range(n_knee)
    )
    if v_max > knee_hi:
        breakpoints.extend(
            knee_hi + (v_max - knee_hi) * (i + 1) / n_above for i in range(n_above)
        )
    # deduplicate while preserving order, then sort for safety
    unique = sorted(set(round(b, 12) for b in breakpoints))

    g_values, j_values = zip(*(diode.companion(v) for v in unique))
    return CompanionTable(PWLTable(unique, g_values), PWLTable(unique, j_values))
