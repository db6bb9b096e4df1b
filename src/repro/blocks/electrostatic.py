"""Electrostatic microgenerator block (extension).

Second of the two "other microgenerator types" the paper's conclusion
mentions.  A gap-closing electrostatic harvester is a charged variable
capacitor: the vibrating proof mass changes the electrode gap, and with a
bias charge on the plates the capacitance change pumps energy into the
electrical domain.

Lumped model (charge-constrained operation with optional bias
replenishment):

.. math::

   m \\ddot z + c \\dot z + k z + \\frac{Q^2}{2 \\varepsilon_0 A} = F_a \\\\
   \\dot Q = -I_m + \\frac{V_b - V_{cap}}{R_r} \\qquad
   V_m = V_{cap} - R_s I_m \\qquad
   V_{cap} = \\frac{Q (g_0 - z)}{\\varepsilon_0 A}

State variables: ``z``, ``v``, ``Q``.  Terminal variables: ``Vm``, ``Im``,
with ``Im`` the current delivered *into* the attached load (the same
convention as the electromagnetic generator, so the blocks are
interchangeable on one power chain).  ``R_s`` is an optional series
resistance (0 by default).  ``V_b``/``R_r`` model the bias-voltage
replenishment path of a practical electret/charge-pump harvester: the
plate charge drained through the rectifier is restored from the bias
source while the plates are close (low voltage), so energy conversion is
sustained cycle after cycle instead of a one-shot discharge of the
initial charge.  ``R_r = 0`` (default) disables the path, recovering the
strict charge-constrained model.
The terminal-voltage relation is genuinely nonlinear (product of state
variables), so this block deliberately *omits* an analytic ``linearise``
and exercises the solver's finite-difference fallback — demonstrating that
a block author only needs to supply the model equations, exactly as the
paper claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..core.block import AnalogueBlock
from ..core.errors import ConfigurationError
from .vibration import batch_acceleration

__all__ = ["ElectrostaticParameters", "ElectrostaticMicrogenerator"]

_EPSILON_0 = 8.8541878128e-12


@dataclass(frozen=True)
class ElectrostaticParameters:
    """Lumped parameters of a gap-closing electrostatic harvester."""

    proof_mass_kg: float = 0.002
    parasitic_damping: float = 0.02
    spring_stiffness: float = 400.0
    plate_area_m2: float = 4e-4
    nominal_gap_m: float = 100e-6
    bias_charge_c: float = 2e-8
    #: lead/contact series resistance; the terminal relation becomes
    #: ``Vm = Vcap - Rs Im``.  0 keeps the ideal contract but is singular
    #: against loads that pin their own input voltage; electrostatic
    #: harvesters are high-impedance devices, so megaohm-scale values are
    #: physical and also keep the plate-charge time constant ``Rs C``
    #: within the explicit solver's non-stiff regime.
    series_resistance_ohm: float = 0.0
    #: bias source voltage of the charge-replenishment path (electret /
    #: charge pump); only active when ``recharge_resistance_ohm > 0``
    bias_voltage_v: float = 0.0
    #: resistance of the replenishment path; 0 disables it (strict
    #: charge-constrained operation, the plate charge is one-shot)
    recharge_resistance_ohm: float = 0.0

    def __post_init__(self) -> None:
        checks = (
            ("proof_mass_kg", self.proof_mass_kg),
            ("spring_stiffness", self.spring_stiffness),
            ("plate_area_m2", self.plate_area_m2),
            ("nominal_gap_m", self.nominal_gap_m),
        )
        for label, value in checks:
            if value <= 0.0:
                raise ConfigurationError(f"{label} must be positive, got {value}")
        if self.parasitic_damping < 0.0:
            raise ConfigurationError("parasitic damping must be non-negative")
        if self.bias_charge_c < 0.0:
            raise ConfigurationError("bias charge must be non-negative")
        if self.series_resistance_ohm < 0.0:
            raise ConfigurationError("series resistance must be non-negative")
        if self.bias_voltage_v < 0.0:
            raise ConfigurationError("bias voltage must be non-negative")
        if self.recharge_resistance_ohm < 0.0:
            raise ConfigurationError("recharge resistance must be non-negative")

    @property
    def untuned_frequency_hz(self) -> float:
        """Mechanical resonant frequency."""
        return math.sqrt(self.spring_stiffness / self.proof_mass_kg) / (2.0 * math.pi)

    @property
    def nominal_capacitance_f(self) -> float:
        """Capacitance at the rest position."""
        return _EPSILON_0 * self.plate_area_m2 / self.nominal_gap_m


class ElectrostaticMicrogenerator(AnalogueBlock):
    """Gap-closing electrostatic harvester (no analytic linearisation)."""

    def __init__(
        self,
        params: ElectrostaticParameters,
        acceleration: Callable[[float], float],
        name: str = "electrostatic",
    ) -> None:
        super().__init__(
            name,
            state_names=("z", "velocity", "charge"),
            terminal_names=("Vm", "Im"),
            terminal_kinds=("voltage", "current"),
            n_algebraic=1,
        )
        self.params = params
        self._acceleration = acceleration

    def _gap(self, z: float) -> float:
        # limit the travel so the plates never touch (mechanical stoppers)
        p = self.params
        return max(p.nominal_gap_m - z, 0.05 * p.nominal_gap_m)

    def _capacitor_voltage(self, z: float, q: float) -> float:
        return q * self._gap(z) / (_EPSILON_0 * self.params.plate_area_m2)

    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = self.params
        z, v, q = x
        _vm, im = y
        electrostatic_force = q * q / (2.0 * _EPSILON_0 * p.plate_area_m2)
        acceleration = (
            -p.spring_stiffness * z
            - p.parasitic_damping * v
            - electrostatic_force
            + p.proof_mass_kg * float(self._acceleration(t))
        ) / p.proof_mass_kg
        # Im delivered into the load drains the plates; the bias path (when
        # enabled) restores charge towards the bias voltage
        dq = -im
        if p.recharge_resistance_ohm > 0.0:
            dq += (
                p.bias_voltage_v - self._capacitor_voltage(z, q)
            ) / p.recharge_resistance_ohm
        return np.array([v, acceleration, dq])

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = self.params
        z, _v, q = x
        vm, im = y
        capacitor_voltage = self._capacitor_voltage(z, q)
        return np.array([vm - capacitor_voltage + p.series_resistance_ohm * im])

    def initial_state(self) -> np.ndarray:
        # pre-charged plates at rest
        return np.array([0.0, 0.0, self.params.bias_charge_c])

    # ------------------------------------------------------------------ #
    # batched (lane-parallel) evaluation
    # ------------------------------------------------------------------ #
    def evaluate_batch(
        self,
        lanes: Sequence[AnalogueBlock],
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised model equations for ``B`` lanes of harvesters.

        Mirrors :meth:`derivatives`/:meth:`algebraic_residual` element-wise
        (same expression order, ``np.maximum`` for the travel stopper), so
        the batched finite-difference linearisation built on top of it is
        bit-identical to each lane's scalar central-difference Jacobians.
        Only the base acceleration goes through the lanes' scalar sources.
        """
        mass = np.array([lane.params.proof_mass_kg for lane in lanes])
        stiffness = np.array([lane.params.spring_stiffness for lane in lanes])
        damping = np.array([lane.params.parasitic_damping for lane in lanes])
        area = np.array([lane.params.plate_area_m2 for lane in lanes])
        gap0 = np.array([lane.params.nominal_gap_m for lane in lanes])
        r_series = np.array([lane.params.series_resistance_ohm for lane in lanes])
        r_recharge = np.array([lane.params.recharge_resistance_ohm for lane in lanes])
        v_bias = np.array([lane.params.bias_voltage_v for lane in lanes])
        accel = batch_acceleration([lane._acceleration for lane in lanes], t)

        z, v, q = x[:, 0], x[:, 1], x[:, 2]
        vm, im = y[:, 0], y[:, 1]

        gap = np.maximum(gap0 - z, 0.05 * gap0)
        v_cap = q * gap / (_EPSILON_0 * area)

        electrostatic_force = q * q / (2.0 * _EPSILON_0 * area)
        acceleration = (
            -stiffness * z - damping * v - electrostatic_force + mass * accel
        ) / mass
        dq = -im
        recharge = r_recharge > 0.0
        if np.any(recharge):
            # np.where (not an unconditional add) so lanes without a
            # replenishment path keep the exact scalar value of ``-Im``
            term = (v_bias - v_cap) / np.where(recharge, r_recharge, 1.0)
            dq = np.where(recharge, dq + term, dq)
        dxdt = np.stack([v, acceleration, dq], axis=1)
        res_y = (vm - v_cap + r_series * im)[:, None]
        return dxdt, res_y
