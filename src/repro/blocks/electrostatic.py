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

from ..core.block import AnalogueBlock, BatchedLinearisation, PreparedBlockLineariser
from ..core.errors import ConfigurationError
from ..core.linearise import linearise_lanes_numerically
from .vibration import PreparedAcceleration, batch_acceleration

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
        accel = batch_acceleration([lane._acceleration for lane in lanes], t)
        return _LaneParameters(lanes).evaluate(accel, x, y)

    def batched_lineariser(
        self, lanes: Sequence[AnalogueBlock]
    ) -> PreparedBlockLineariser:
        """The batched central differences with the per-lane work bound once.

        The block has no analytic Jacobians, so a refresh is the
        finite-difference sweep of
        :func:`~repro.core.linearise.linearise_lanes_numerically`: one base
        evaluation and two per state and terminal.  The lanes' parameter
        stacks are built here once, and the base acceleration, the only
        time-dependent input, is evaluated once per refresh through one
        :class:`~repro.blocks.vibration.PreparedAcceleration` (libm ``sin``
        per lane) instead of once per evaluation.  Every evaluation is
        :meth:`evaluate_batch`'s arithmetic, so every lane stays bitwise
        its scalar central differences.  Nothing is declared constant.
        """
        parameters = _LaneParameters(lanes)
        acceleration = PreparedAcceleration([lane._acceleration for lane in lanes])

        def lineariser(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> BatchedLinearisation:
            accel = acceleration(t)

            def evaluate(xv: np.ndarray, yv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                return parameters.evaluate(accel, xv, yv)

            return linearise_lanes_numerically(lanes, t, x, y, evaluate=evaluate)

        return PreparedBlockLineariser(lineariser=lineariser)


class _LaneParameters:
    """The parameter stacks of ``B`` electrostatic lanes and their model
    equations, element-wise :meth:`ElectrostaticMicrogenerator.derivatives`
    and :meth:`~ElectrostaticMicrogenerator.algebraic_residual`."""

    def __init__(self, lanes: Sequence[ElectrostaticMicrogenerator]) -> None:
        params = [lane.params for lane in lanes]
        self.mass = np.array([p.proof_mass_kg for p in params])
        self.stiffness = np.array([p.spring_stiffness for p in params])
        self.damping = np.array([p.parasitic_damping for p in params])
        self.area = np.array([p.plate_area_m2 for p in params])
        self.gap0 = np.array([p.nominal_gap_m for p in params])
        self.r_series = np.array([p.series_resistance_ohm for p in params])
        self.v_bias = np.array([p.bias_voltage_v for p in params])
        r_recharge = np.array([p.recharge_resistance_ohm for p in params])
        self.recharge = r_recharge > 0.0
        self.any_recharge = bool(np.any(self.recharge))
        # 1.0 where the path is disabled: the divisor np.where picked
        self.r_recharge = np.where(self.recharge, r_recharge, 1.0)

    def evaluate(
        self, accel: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(dxdt, residual_y)`` of every lane at base acceleration ``accel``."""
        z, v, q = x[:, 0], x[:, 1], x[:, 2]
        vm, im = y[:, 0], y[:, 1]

        gap = np.maximum(self.gap0 - z, 0.05 * self.gap0)
        v_cap = q * gap / (_EPSILON_0 * self.area)

        electrostatic_force = q * q / (2.0 * _EPSILON_0 * self.area)
        acceleration = (
            -self.stiffness * z - self.damping * v - electrostatic_force + self.mass * accel
        ) / self.mass
        dq = -im
        if self.any_recharge:
            # np.where (not an unconditional add) so lanes without a
            # replenishment path keep the exact scalar value of ``-Im``
            term = (self.v_bias - v_cap) / self.r_recharge
            dq = np.where(self.recharge, dq + term, dq)
        dxdt = np.stack([v, acceleration, dq], axis=1)
        res_y = (vm - v_cap + self.r_series * im)[:, None]
        return dxdt, res_y
