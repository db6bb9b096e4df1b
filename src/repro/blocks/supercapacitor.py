"""Supercapacitor (three-branch Zubieta model) with equivalent load resistor.

Section III-C of the paper adopts the Zubieta-Bonert double-layer
capacitor model: three parallel RC branches — the *immediate* branch
(``Ri``, ``Ci``), the *delayed* branch (``Rd``, ``Cd``) and the
*long-term* branch (``Rl``, ``Cl``) — which together capture the charge
redistribution inside the supercapacitor over three time scales.  The
equivalent load resistor ``Req`` representing the microcontroller and
actuator consumption sits directly across the terminals (Fig. 6), and an
optional leakage resistance models the self-discharge the paper cites as a
source of simulation/measurement discrepancy.

State variables: the three internal capacitor voltages ``Vi``, ``Vd``,
``Vl``.  Terminal variables: the terminal voltage ``Vc`` and the current
``Ic`` delivered by the power-processing circuit.  The block's algebraic
constraint is the terminal KCL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    PreparedBlockLineariser,
)
from ..core.errors import ConfigurationError
from .load import LoadProfile, OperatingMode

__all__ = ["SupercapacitorParameters", "Supercapacitor"]


@dataclass(frozen=True)
class SupercapacitorParameters:
    """Three-branch Zubieta model parameters.

    The immediate-branch capacitance is ``Ci0 + Ci1`` as in Eq. (15) of the
    paper (the voltage-dependent part ``Ci1 * Vi`` is lumped into a constant
    around the operating voltage, exactly as the paper's state matrix does).
    """

    immediate_resistance_ohm: float = 2.5
    immediate_capacitance_f: float = 0.9
    delayed_resistance_ohm: float = 90.0
    delayed_capacitance_f: float = 0.18
    longterm_resistance_ohm: float = 900.0
    longterm_capacitance_f: float = 0.12
    leakage_resistance_ohm: Optional[float] = None

    def __post_init__(self) -> None:
        values = (
            ("immediate_resistance_ohm", self.immediate_resistance_ohm),
            ("immediate_capacitance_f", self.immediate_capacitance_f),
            ("delayed_resistance_ohm", self.delayed_resistance_ohm),
            ("delayed_capacitance_f", self.delayed_capacitance_f),
            ("longterm_resistance_ohm", self.longterm_resistance_ohm),
            ("longterm_capacitance_f", self.longterm_capacitance_f),
        )
        for label, value in values:
            if value <= 0.0:
                raise ConfigurationError(f"{label} must be positive, got {value}")
        if self.leakage_resistance_ohm is not None and self.leakage_resistance_ohm <= 0.0:
            raise ConfigurationError("leakage resistance must be positive when given")

    @property
    def total_capacitance_f(self) -> float:
        """Sum of the three branch capacitances (long-time-scale value)."""
        return (
            self.immediate_capacitance_f
            + self.delayed_capacitance_f
            + self.longterm_capacitance_f
        )


class Supercapacitor(AnalogueBlock):
    """Zubieta three-branch supercapacitor plus equivalent load (Fig. 6).

    Control inputs (written by the digital side):

    * ``"load_resistance"`` — equivalent load resistance ``Req`` in ohms
      (the microcontroller switches it between the Eq. 16 values).
    """

    def __init__(
        self,
        params: SupercapacitorParameters = SupercapacitorParameters(),
        load_profile: LoadProfile = LoadProfile(),
        initial_voltage_v: float = 0.0,
        name: str = "storage",
    ) -> None:
        super().__init__(
            name,
            state_names=("Vi", "Vd", "Vl"),
            terminal_names=("Vc", "Ic"),
            terminal_kinds=("voltage", "current"),
            n_algebraic=1,
        )
        if initial_voltage_v < 0.0:
            raise ConfigurationError("initial supercapacitor voltage must be >= 0")
        self.params = params
        self.load_profile = load_profile
        self.initial_voltage_v = float(initial_voltage_v)
        self._req = load_profile.resistance(OperatingMode.SLEEP)
        self._mode = OperatingMode.SLEEP

    # ------------------------------------------------------------------ #
    # load control
    # ------------------------------------------------------------------ #
    @property
    def load_resistance(self) -> float:
        """Present equivalent load resistance ``Req``."""
        return self._req

    @property
    def operating_mode(self) -> OperatingMode:
        """Operating mode implied by the last mode-style control write."""
        return self._mode

    def set_mode(self, mode: OperatingMode) -> None:
        """Switch ``Req`` to the value of ``mode`` (Eq. 16)."""
        self._mode = mode
        self._req = self.load_profile.resistance(mode)

    def apply_control(self, name: str, value: float) -> None:
        if name == "load_resistance":
            if value <= 0.0:
                raise ConfigurationError("load resistance must be positive")
            self._req = float(value)
            # keep the mode label roughly in sync for reporting purposes
            closest = min(
                OperatingMode,
                key=lambda mode: abs(self.load_profile.resistance(mode) - self._req),
            )
            self._mode = closest
            return
        super().apply_control(name, value)

    # ------------------------------------------------------------------ #
    # model equations (Eq. 15 plus terminal KCL)
    # ------------------------------------------------------------------ #
    def _branch_conductances(self) -> np.ndarray:
        p = self.params
        return np.array(
            [
                1.0 / p.immediate_resistance_ohm,
                1.0 / p.delayed_resistance_ohm,
                1.0 / p.longterm_resistance_ohm,
            ]
        )

    def _branch_capacitances(self) -> np.ndarray:
        p = self.params
        return np.array(
            [
                p.immediate_capacitance_f,
                p.delayed_capacitance_f,
                p.longterm_capacitance_f,
            ]
        )

    def _shunt_conductance(self) -> float:
        g = 1.0 / self._req
        if self.params.leakage_resistance_ohm is not None:
            g += 1.0 / self.params.leakage_resistance_ohm
        return g

    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vc = y[0]
        g = self._branch_conductances()
        c = self._branch_capacitances()
        return g * (vc - x) / c

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vc, ic = y
        g = self._branch_conductances()
        branch_current = float(np.sum(g * (vc - x)))
        shunt_current = self._shunt_conductance() * vc
        return np.array([ic - branch_current - shunt_current])

    def derivatives_at(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`derivatives` at ``P`` points, bitwise each point's call."""
        return self._branch_conductances() * (y[:, :1] - x) / self._branch_capacitances()

    def algebraic_residuals_at(
        self, t: float, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """:meth:`algebraic_residual` at ``P`` points, bitwise each point's
        call: each point's branch currents summed by ``np.sum`` over its row."""
        vc = y[:, 0]
        g = self._branch_conductances()
        branch_current = np.sum(g * (vc[:, None] - x), axis=1)
        shunt_current = self._shunt_conductance() * vc
        return (y[:, 1] - branch_current - shunt_current)[:, None]

    def linearise(self, t: float, x: np.ndarray, y: np.ndarray) -> BlockLinearisation:
        g = self._branch_conductances()
        c = self._branch_capacitances()
        jxx = np.diag(-g / c)
        jxy = np.zeros((3, 2))
        jxy[:, 0] = g / c
        ex = np.zeros(3)
        jyx = (g)[np.newaxis, :].copy()
        jyy = np.array([[-(float(np.sum(g)) + self._shunt_conductance()), 1.0]])
        ey = np.zeros(1)
        return BlockLinearisation(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)

    def batched_lineariser(self, lanes) -> PreparedBlockLineariser:
        """Fully static stacked Eq. (15) model for the batched refresh.

        The Zubieta model is linear; the stacked Jacobians are per-lane
        parameter expressions (including each lane's present equivalent
        load ``Req``, Eq. 16), element-wise identical to the scalar
        :meth:`linearise`.  ``Req`` only changes through a control write,
        after which the batched solver re-prepares its refresh, so between
        writes every field is lane-constant: the entire
        :class:`BatchedLinearisation` is computed once here and reused on
        every refresh.
        """
        b = len(lanes)
        g = np.stack([lane._branch_conductances() for lane in lanes])
        c = np.stack([lane._branch_capacitances() for lane in lanes])
        ratio = g / c
        jxx = np.zeros((b, 3, 3))
        jxx[:, np.arange(3), np.arange(3)] = -ratio
        jxy = np.zeros((b, 3, 2))
        jxy[:, :, 0] = ratio
        jyx = g[:, None, :].copy()
        jyy = np.zeros((b, 1, 2))
        jyy[:, 0, 0] = -(
            np.array([float(np.sum(lane_g)) for lane_g in g])
            + np.array([lane._shunt_conductance() for lane in lanes])
        )
        jyy[:, 0, 1] = 1.0
        static = BatchedLinearisation(
            jxx=jxx, jxy=jxy, ex=np.zeros((b, 3)), jyx=jyx, jyy=jyy, ey=np.zeros((b, 1))
        )
        return PreparedBlockLineariser(
            lineariser=lambda t, x, y: static,
            constant=("jxx", "jxy", "ex", "jyx", "jyy", "ey"),
        )

    def initial_state(self) -> np.ndarray:
        return np.full(3, self.initial_voltage_v)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def stored_energy_j(self, x: Sequence[float]) -> float:
        """Energy stored in the three internal capacitors (J)."""
        c = self._branch_capacitances()
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.sum(c * x * x))

    def stored_energies_j(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`stored_energy_j` of each row of ``xs`` (``(rows, 3)``)."""
        c = self._branch_capacitances()
        return 0.5 * np.sum(c * xs * xs, axis=1)

    def terminal_voltage(self, x: Sequence[float], ic: float = 0.0) -> float:
        """Terminal voltage implied by the internal state and input current.

        Solves the terminal KCL for ``Vc`` given ``Ic`` — useful for
        initial-condition computations and post-processing.
        """
        g = self._branch_conductances()
        x = np.asarray(x, dtype=float)
        total_g = float(np.sum(g)) + self._shunt_conductance()
        return float((ic + np.sum(g * x)) / total_g)
