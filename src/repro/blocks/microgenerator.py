"""Tunable electromagnetic microgenerator block (Section III-A, Eq. 8-13).

The microgenerator is a cantilevered spring-mass system with four magnets
forming the proof mass and a fixed coil.  Its dynamic model is

.. math::

   m \\ddot z + c_p \\dot z + k_s z + F_{em} + F_{t,z} = F_a

with the electromagnetic coupling ``V_{em} = \\Phi \\dot z`` and
``F_{em} = \\Phi i_L`` and the coil branch
``V_m = V_{em} - R_c i_L - L_c \\, di_L/dt``.

State variables: relative displacement ``z``, relative velocity ``v`` and
coil current ``iL``.  Terminal variables: output voltage ``Vm`` and output
current ``Im`` (with ``Im = iL`` as the block's algebraic constraint).

The magnetic tuning mechanism raises the effective stiffness according to
Eq. (12); the microcontroller drives it through the ``tuning_force``
control input.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..core.block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    PreparedBlockLineariser,
    add_keeping_first_nan,
)
from ..core.errors import ConfigurationError
from .tuning import MagneticTuningModel
from .vibration import PreparedAcceleration

__all__ = ["MicrogeneratorParameters", "ElectromagneticMicrogenerator"]


class MicrogeneratorParameters:
    """Physical parameters of the electromagnetic microgenerator.

    Parameters
    ----------
    proof_mass_kg:
        Proof mass ``m`` (magnets + cantilever tip).
    parasitic_damping:
        Parasitic (mechanical) damping factor ``c_p`` in N.s/m.
    spring_stiffness:
        Un-tuned effective spring stiffness ``k_s`` in N/m.
    flux_linkage:
        Electromagnetic coupling ``Phi = N B l`` in V.s/m (equivalently N/A).
    coil_resistance:
        Coil series resistance ``R_c`` in ohms.
    coil_inductance:
        Coil inductance ``L_c`` in henries.
    buckling_load_n:
        Cantilever buckling load ``F_b`` used in the tuning law (Eq. 12).
    tuning_force_z_fraction:
        Fraction of the axial tuning force that appears as the parasitic
        z-component ``F_{t,z}`` in the motion equation (small).
    """

    def __init__(
        self,
        proof_mass_kg: float,
        parasitic_damping: float,
        spring_stiffness: float,
        flux_linkage: float,
        coil_resistance: float,
        coil_inductance: float,
        buckling_load_n: float,
        tuning_force_z_fraction: float = 0.01,
    ) -> None:
        if proof_mass_kg <= 0.0:
            raise ConfigurationError("proof mass must be positive")
        if parasitic_damping < 0.0:
            raise ConfigurationError("parasitic damping must be non-negative")
        if spring_stiffness <= 0.0:
            raise ConfigurationError("spring stiffness must be positive")
        if flux_linkage <= 0.0:
            raise ConfigurationError("flux linkage must be positive")
        if coil_resistance <= 0.0:
            raise ConfigurationError("coil resistance must be positive")
        if coil_inductance <= 0.0:
            raise ConfigurationError("coil inductance must be positive")
        if buckling_load_n <= 0.0:
            raise ConfigurationError("buckling load must be positive")
        if not 0.0 <= tuning_force_z_fraction <= 1.0:
            raise ConfigurationError("tuning_force_z_fraction must be in [0, 1]")
        self.proof_mass_kg = proof_mass_kg
        self.parasitic_damping = parasitic_damping
        self.spring_stiffness = spring_stiffness
        self.flux_linkage = flux_linkage
        self.coil_resistance = coil_resistance
        self.coil_inductance = coil_inductance
        self.buckling_load_n = buckling_load_n
        self.tuning_force_z_fraction = tuning_force_z_fraction

    _FIELDS = (
        "proof_mass_kg",
        "parasitic_damping",
        "spring_stiffness",
        "flux_linkage",
        "coil_resistance",
        "coil_inductance",
        "buckling_load_n",
        "tuning_force_z_fraction",
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MicrogeneratorParameters):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._FIELDS
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._FIELDS))

    @property
    def untuned_frequency_hz(self) -> float:
        """Un-tuned resonant frequency ``f_r = sqrt(k_s/m) / 2 pi``."""
        return math.sqrt(self.spring_stiffness / self.proof_mass_kg) / (2.0 * math.pi)

    @property
    def quality_factor(self) -> float:
        """Mechanical quality factor ``Q = sqrt(k_s m) / c_p`` (open circuit)."""
        if self.parasitic_damping == 0.0:
            return float("inf")
        return (
            math.sqrt(self.spring_stiffness * self.proof_mass_kg)
            / self.parasitic_damping
        )

    @classmethod
    def from_frequency(
        cls,
        untuned_frequency_hz: float,
        proof_mass_kg: float,
        quality_factor: float,
        flux_linkage: float,
        coil_resistance: float,
        coil_inductance: float,
        buckling_load_n: float,
        tuning_force_z_fraction: float = 0.01,
    ) -> "MicrogeneratorParameters":
        """Build parameters from resonant frequency and Q rather than k_s, c_p."""
        if untuned_frequency_hz <= 0.0:
            raise ConfigurationError("resonant frequency must be positive")
        if quality_factor <= 0.0:
            raise ConfigurationError("quality factor must be positive")
        omega = 2.0 * math.pi * untuned_frequency_hz
        stiffness = proof_mass_kg * omega * omega
        damping = math.sqrt(stiffness * proof_mass_kg) / quality_factor
        return cls(
            proof_mass_kg=proof_mass_kg,
            parasitic_damping=damping,
            spring_stiffness=stiffness,
            flux_linkage=flux_linkage,
            coil_resistance=coil_resistance,
            coil_inductance=coil_inductance,
            buckling_load_n=buckling_load_n,
            tuning_force_z_fraction=tuning_force_z_fraction,
        )


class ElectromagneticMicrogenerator(AnalogueBlock):
    """The tunable electromagnetic microgenerator as an analogue block.

    Parameters
    ----------
    params:
        Physical parameters.
    acceleration:
        Callable ``a(t)`` giving the base acceleration in m/s^2 (usually a
        :class:`~repro.blocks.vibration.VibrationSource`).
    name:
        Block name used for trace labelling.

    Control inputs (written by the digital side):

    * ``"tuning_force"`` — axial magnetic tuning force ``F_t`` in newtons;
      raises the effective stiffness per Eq. (12) and adds the small
      z-component disturbance ``F_{t,z}``.
    """

    def __init__(
        self,
        params: MicrogeneratorParameters,
        acceleration: Callable[[float], float],
        name: str = "generator",
    ) -> None:
        super().__init__(
            name,
            state_names=("z", "velocity", "i_coil"),
            terminal_names=("Vm", "Im"),
            terminal_kinds=("voltage", "current"),
            n_algebraic=1,
        )
        self.params = params
        self._acceleration = acceleration
        self._tuning_force = 0.0
        #: ``(params, tuning force, jxx, jxy)`` of the last :meth:`_stamps`
        self._stamp_cache: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # tuning
    # ------------------------------------------------------------------ #
    @property
    def tuning_force(self) -> float:
        """Currently applied axial tuning force ``F_t`` (N)."""
        return self._tuning_force

    @property
    def effective_stiffness(self) -> float:
        """Tuned stiffness ``k_s (1 + F_t / F_b)`` implied by Eq. (12)."""
        return self.params.spring_stiffness * (
            1.0 + self._tuning_force / self.params.buckling_load_n
        )

    @property
    def resonant_frequency_hz(self) -> float:
        """Current (tuned) resonant frequency ``f_r'`` of Eq. (12)."""
        return math.sqrt(self.effective_stiffness / self.params.proof_mass_kg) / (
            2.0 * math.pi
        )

    def apply_control(self, name: str, value: float) -> None:
        if name == "tuning_force":
            if value < 0.0:
                raise ConfigurationError("tuning force must be non-negative")
            max_force = self.params.buckling_load_n * 10.0
            self._tuning_force = min(float(value), max_force)
            return
        super().apply_control(name, value)

    def make_tuning_model(
        self,
        force_constant: float,
        exponent: float = 4.0,
        min_gap_m: float = 0.5e-3,
        max_gap_m: float = 30e-3,
    ) -> MagneticTuningModel:
        """Convenience constructor for the matching magnetic tuning model."""
        return MagneticTuningModel(
            untuned_frequency_hz=self.params.untuned_frequency_hz,
            buckling_load_n=self.params.buckling_load_n,
            force_constant=force_constant,
            exponent=exponent,
            min_gap_m=min_gap_m,
            max_gap_m=max_gap_m,
        )

    # ------------------------------------------------------------------ #
    # model equations (Eq. 13)
    # ------------------------------------------------------------------ #
    def _stamps(self) -> Tuple[np.ndarray, np.ndarray]:
        """The constant Eq. (13) ``jxx`` and ``jxy``, read-only.

        Built once per ``(params, tuning force)`` and shared by every
        call until either changes: the parameters by identity (they are a
        hashable value, never mutated), the force by ``==`` (``0.0`` and
        ``-0.0`` give the same stiffness; a NaN force rebuilds each call).
        """
        p = self.params
        force = self._tuning_force
        cache = self._stamp_cache
        if cache is not None and cache[0] is p and cache[1] == force:
            return cache[2], cache[3]
        m = p.proof_mass_kg
        jxx = np.array(
            [
                [0.0, 1.0, 0.0],
                [-self.effective_stiffness / m, -p.parasitic_damping / m, -p.flux_linkage / m],
                [0.0, p.flux_linkage / p.coil_inductance, -p.coil_resistance / p.coil_inductance],
            ]
        )
        jxy = np.array(
            [
                [0.0, 0.0],
                [0.0, 0.0],
                [-1.0 / p.coil_inductance, 0.0],
            ]
        )
        jxx.flags.writeable = False
        jxy.flags.writeable = False
        self._stamp_cache = (p, force, jxx, jxy)
        return jxx, jxy

    def _matrices(self, t: float):
        jxx, jxy = self._stamps()
        p = self.params
        m = p.proof_mass_kg
        f_a = m * float(self._acceleration(t))
        f_tz = p.tuning_force_z_fraction * self._tuning_force
        ex = np.array([0.0, (f_a - f_tz) / m, 0.0])
        return jxx, jxy, ex

    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        jxx, jxy, ex = self._matrices(t)
        return jxx @ x + jxy @ y + ex

    def derivatives_at(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`derivatives` at ``P`` points: the same matrix-vector
        products, stacked, and the same sums, each keeping its first
        operand's NaN as the three-element additions of the scalar call
        do, so bitwise each point's call."""
        jxx, jxy, ex = self._matrices(t)
        products = add_keeping_first_nan(
            np.matmul(jxx, x[..., None])[..., 0], np.matmul(jxy, y[..., None])[..., 0]
        )
        return add_keeping_first_nan(products, ex)

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Im (terminal 1) equals the coil current iL (state 2)
        return np.array([y[1] - x[2]])

    def algebraic_residuals_at(
        self, t: float, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """:meth:`algebraic_residual` at ``P`` points, bitwise each point's call."""
        return (y[:, 1] - x[:, 2])[:, None]

    def linearise(self, t: float, x: np.ndarray, y: np.ndarray) -> BlockLinearisation:
        jxx, jxy, ex = self._matrices(t)
        jyx = np.array([[0.0, 0.0, -1.0]])
        jyy = np.array([[0.0, 1.0]])
        ey = np.zeros(1)
        return BlockLinearisation(jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey)

    def batched_lineariser(self, lanes: Sequence[AnalogueBlock]) -> PreparedBlockLineariser:
        """Stacked Eq. (13) Jacobians, hoisted out of the refresh loop.

        The model is state-affine, so the Jacobian entries are per-lane
        parameter expressions evaluated element-wise, bitwise the scalar
        :meth:`linearise`.  The tuning force only changes through a
        control write, after which the batched solver re-prepares its
        refresh, so between writes every Jacobian block is lane-constant;
        only the excitation row ``ex[:, 1]`` depends on ``t`` through the
        base acceleration, prepared here once per binding
        (:class:`~repro.blocks.vibration.PreparedAcceleration`: libm
        ``sin`` per lane) so it matches each lane's serial run exactly.
        """
        b = len(lanes)
        m = np.array([lane.params.proof_mass_kg for lane in lanes])
        stiffness = np.array([lane.effective_stiffness for lane in lanes])
        damping = np.array([lane.params.parasitic_damping for lane in lanes])
        flux = np.array([lane.params.flux_linkage for lane in lanes])
        l_coil = np.array([lane.params.coil_inductance for lane in lanes])
        r_coil = np.array([lane.params.coil_resistance for lane in lanes])
        f_tz = np.array(
            [lane.params.tuning_force_z_fraction * lane._tuning_force for lane in lanes]
        )
        acceleration = PreparedAcceleration([lane._acceleration for lane in lanes])

        jxx = np.zeros((b, 3, 3))
        jxx[:, 0, 1] = 1.0
        jxx[:, 1, 0] = -stiffness / m
        jxx[:, 1, 1] = -damping / m
        jxx[:, 1, 2] = -flux / m
        jxx[:, 2, 1] = flux / l_coil
        jxx[:, 2, 2] = -r_coil / l_coil
        jxy = np.zeros((b, 3, 2))
        jxy[:, 2, 0] = -1.0 / l_coil
        jyx = np.zeros((b, 1, 3))
        jyx[:, 0, 2] = -1.0
        jyy = np.zeros((b, 1, 2))
        jyy[:, 0, 1] = 1.0
        ey = np.zeros((b, 1))

        def lineariser(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> BatchedLinearisation:
            f_a = m * acceleration(t)
            ex = np.zeros((b, 3))
            ex[:, 1] = (f_a - f_tz) / m
            return BatchedLinearisation(
                jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey
            )

        return PreparedBlockLineariser(
            lineariser=lineariser,
            constant=("jxx", "jxy", "jyx", "jyy", "ey"),
        )

    # ------------------------------------------------------------------ #
    # derived quantities used by probes and the analysis layer
    # ------------------------------------------------------------------ #
    def electromagnetic_voltage(self, velocity: float) -> float:
        """Open-circuit EMF ``V_em = Phi * dz/dt`` (Eq. 9)."""
        return self.params.flux_linkage * velocity

    def electromagnetic_force(self, coil_current: float) -> float:
        """Reaction force ``F_em = Phi * iL`` (Eq. 11)."""
        return self.params.flux_linkage * coil_current

    def output_power(self, vm: float, im: float) -> float:
        """Instantaneous electrical power delivered at the terminals."""
        return vm * im
