"""Dickson voltage multiplier block (Section III-B, Eq. 14).

A Dickson charge pump rectifies and boosts the generator's AC output.  The
block follows the paper's formulation: the state variables are the voltages
across the capacitors; the diodes are represented by the piecewise-linear
companion model ``Id = G Vd + J`` whose ``(G, J)`` pairs are fetched from a
lookup table (:mod:`repro.blocks.diode`); the terminal variables are the AC
input pair ``(Vm, Im)`` and the DC output pair ``(Vc, Ic)``.

Topology (n stages, default 5):

* an **input filter capacitor** ``Cin`` sits across the AC input — present
  in practical rectifier front-ends and essential here because it keeps the
  model out of the strongly stiff regime the paper excludes (without it,
  the generator coil would face an open circuit whenever all diodes block,
  creating a nanosecond-scale mode no explicit method can follow);
* a diode chain ``D1 ... Dn`` runs from ground through internal nodes
  ``1 ... n-1`` to the output node ``n``;
* stage capacitor ``Ck`` hangs from node ``k``; the bottom plates of the
  odd-numbered pump capacitors are driven by the AC input node while the
  even-numbered ones are grounded — the single-phase pumping action that
  transfers charge stage by stage;
* the output capacitor ``Cn`` (typically much larger, a smoothing
  capacitor) feeds the storage element through ``(Vc, Ic)``.

State variables: the input-node voltage ``Vin`` plus the stage-capacitor
voltages ``V1 ... Vn``.  The block contributes two algebraic constraints:
``Vm = Vin`` and ``Vc = Vn``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    PreparedBlockLineariser,
)
from ..core.errors import ConfigurationError
from ..core.pwl import CompanionTable
from .diode import DiodeParameters, ShockleyDiode, build_diode_companion_table

__all__ = ["DicksonMultiplier"]


class DicksonMultiplier(AnalogueBlock):
    """n-stage Dickson voltage multiplier with table-linearised diodes.

    Parameters
    ----------
    n_stages:
        Number of capacitor stages (the paper uses 5).
    stage_capacitance_f:
        Capacitance of each stage capacitor, either a scalar applied to all
        stages or a sequence of per-stage values.
    output_capacitance_f:
        Output (smoothing) capacitor of the last stage; defaults to the
        stage value when omitted.
    input_capacitance_f:
        Input filter capacitor across the AC input.
    diode_params:
        Shockley parameters of the chain diodes.
    companion_table:
        Pre-built diode companion table; built automatically when omitted.
    use_exact_diode_in_derivatives:
        When ``True`` (default) the *nonlinear* ``derivatives`` /
        ``algebraic_residual`` methods evaluate the exact Shockley equation
        (what a conventional simulator does), while ``linearise`` always
        uses the lookup table (what the fast solver does).  Set to ``False``
        to make both paths table-based, which is useful for verifying the
        analytic Jacobians against finite differences.
    """

    def __init__(
        self,
        n_stages: int = 5,
        stage_capacitance_f=10e-6,
        output_capacitance_f: Optional[float] = 220e-6,
        input_capacitance_f: float = 0.1e-6,
        diode_params: DiodeParameters = DiodeParameters(),
        companion_table: Optional[CompanionTable] = None,
        name: str = "multiplier",
        use_exact_diode_in_derivatives: bool = True,
    ) -> None:
        if n_stages < 2:
            raise ConfigurationError("the multiplier needs at least 2 stages")
        if np.isscalar(stage_capacitance_f):
            capacitances = [float(stage_capacitance_f)] * n_stages
        else:
            capacitances = [float(c) for c in stage_capacitance_f]
        if len(capacitances) != n_stages:
            raise ConfigurationError(
                f"expected {n_stages} stage capacitances, got {len(capacitances)}"
            )
        if output_capacitance_f is not None:
            capacitances[-1] = float(output_capacitance_f)
        if any(c <= 0.0 for c in capacitances):
            raise ConfigurationError("stage capacitances must be positive")
        if input_capacitance_f <= 0.0:
            raise ConfigurationError("input capacitance must be positive")

        state_names = ("Vin",) + tuple(f"V{i + 1}" for i in range(n_stages))
        super().__init__(
            name,
            state_names=state_names,
            terminal_names=("Vm", "Im", "Vc", "Ic"),
            terminal_kinds=("voltage", "current", "voltage", "current"),
            n_algebraic=2,
        )
        self.n_stages = n_stages
        self.capacitances = np.asarray(capacitances)
        self.input_capacitance_f = float(input_capacitance_f)
        self.diode_params = diode_params
        self._diode = ShockleyDiode(diode_params)
        self.companion_table = companion_table or build_diode_companion_table(diode_params)
        self._use_exact = use_exact_diode_in_derivatives

        # pump pattern: odd stages (0-based even indices) driven by the
        # input node, output stage always grounded
        pump = [(i % 2 == 0) for i in range(n_stages)]
        pump[n_stages - 1] = False
        self._pump_flags = np.array(pump, dtype=float)
        self._pump_active = [bool(p) for p in pump]

        # constant structure reused on every linearisation call: the diode
        # voltage coefficient matrix and the algebraic rows depend only on
        # the topology, not on the operating point
        self._vd_coefficients = self._diode_voltage_coefficients()
        n_states = n_stages + 1
        self._jyx_template = np.zeros((2, n_states))
        self._jyx_template[0, 0] = -1.0
        self._jyx_template[1, n_stages] = -1.0
        self._jyy_template = np.zeros((2, 4))
        self._jyy_template[0, 0] = 1.0
        self._jyy_template[1, 2] = 1.0

    # ------------------------------------------------------------------ #
    # diode branch voltages
    # ------------------------------------------------------------------ #
    def _diode_voltage_coefficients(self) -> np.ndarray:
        """Coefficient matrix ``A`` such that ``vd = A @ x`` (x = [Vin, U]).

        Diode ``k`` (0-based) sees ``vd_k = A[k, :] . x``.
        """
        n = self.n_stages
        a = np.zeros((n, n + 1))
        s = self._pump_flags
        # D1: from ground to node 1 -> vd = -(U1 + s1 Vin)
        a[0, 0] = -s[0]
        a[0, 1] = -1.0
        for k in range(1, n):
            a[k, 0] = s[k - 1] - s[k]
            a[k, k] = 1.0
            a[k, k + 1] = -1.0
        return a

    def _diode_currents(self, vd: np.ndarray) -> np.ndarray:
        """Exact or table-based diode currents depending on configuration."""
        if self._use_exact:
            return np.array([self._diode.current(float(v)) for v in vd])
        return np.array([self.companion_table.branch_current(float(v)) for v in vd])

    # ------------------------------------------------------------------ #
    # nonlinear model (used by the NR baselines and the LLE monitor)
    # ------------------------------------------------------------------ #
    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        _vm, im, _vc, ic = y
        coefficients = self._vd_coefficients
        vd = coefficients @ x
        i_d = self._diode_currents(vd)
        n = self.n_stages
        dxdt = np.zeros(n + 1)
        # input node: Cin dVin/dt = Im - sum of pump-capacitor currents
        pump_current = 0.0
        for k in range(n):
            if self._pump_active[k]:
                downstream = i_d[k + 1] if k + 1 < n else ic
                pump_current += downstream - i_d[k]
        dxdt[0] = (im - pump_current) / self.input_capacitance_f
        for k in range(n - 1):
            dxdt[k + 1] = (i_d[k] - i_d[k + 1]) / self.capacitances[k]
        dxdt[n] = (i_d[n - 1] - ic) / self.capacitances[n - 1]
        return dxdt

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vm, _im, vc, _ic = y
        return np.array([vm - x[0], vc - x[-1]])

    # ------------------------------------------------------------------ #
    # table-based analytic linearisation (used by the fast solver)
    # ------------------------------------------------------------------ #
    def linearise(self, t: float, x: np.ndarray, y: np.ndarray) -> BlockLinearisation:
        n = self.n_stages
        coefficients = self._vd_coefficients
        vd = coefficients @ x
        g = np.empty(n)
        j = np.empty(n)
        evaluate = self.companion_table.evaluate
        for k in range(n):
            g[k], j[k] = evaluate(float(vd[k]))

        n_states = n + 1
        jxx = np.zeros((n_states, n_states))
        jxy = np.zeros((n_states, 4))  # columns: Vm, Im, Vc, Ic
        ex = np.zeros(n_states)

        # input node: Cin dVin/dt = Im - sum_pump (I_{k+1} - I_k)
        cin = self.input_capacitance_f
        jxy[0, 1] = 1.0 / cin
        for k in range(n):
            if not self._pump_active[k]:
                continue
            jxx[0, :] += g[k] * coefficients[k, :] / cin
            ex[0] += j[k] / cin
            if k + 1 < n:
                jxx[0, :] -= g[k + 1] * coefficients[k + 1, :] / cin
                ex[0] -= j[k + 1] / cin
            else:
                jxy[0, 3] -= 1.0 / cin

        # stage nodes: C_k dU_k/dt = I_k - I_{k+1} (I_n -> Ic at the end),
        # every row at once with linearise_batch's element-wise expressions
        caps = self.capacitances
        jxx[1:n, :] = (
            g[:-1, None] * coefficients[:-1, :] - g[1:, None] * coefficients[1:, :]
        ) / caps[:-1, None]
        ex[1:n] = (j[:-1] - j[1:]) / caps[:-1]
        cn = caps[-1]
        jxx[n, :] = g[n - 1] * coefficients[n - 1, :] / cn
        jxy[n, 3] = -1.0 / cn
        ex[n] = j[n - 1] / cn

        # algebraic part: Vm - Vin = 0 and Vc - Vn = 0 (constant structure)
        return BlockLinearisation(
            jxx=jxx,
            jxy=jxy,
            ex=ex,
            jyx=self._jyx_template.copy(),
            jyy=self._jyy_template.copy(),
            ey=np.zeros(2),
        )

    def linearise_batch(
        self,
        lanes: Sequence[AnalogueBlock],
        t: float,
        x: np.ndarray,
        y: np.ndarray,
    ) -> BatchedLinearisation:
        """Vectorised table-based linearisation for ``B`` multiplier lanes.

        Lanes share the topology (stage count and pump pattern, hence the
        diode voltage coefficient matrix) but may differ in capacitances
        and diode parameters.  When every lane aliases the same companion
        table — the common sweep case, the table cache hands identical
        :class:`DiodeParameters` the same instance — all ``B * n`` diode
        lookups go through one vectorised segment search; otherwise the
        lookups loop per lane.  Every arithmetic step mirrors the scalar
        :meth:`linearise` element-wise, so the stacked result is
        bit-identical to per-lane linearisations.
        """
        b = len(lanes)
        n = self.n_stages
        coefficients = self._vd_coefficients
        vd = np.matmul(coefficients, x[..., None])[..., 0]  # (B, n)

        table = self.companion_table
        if all(lane.companion_table is table for lane in lanes):
            g, j = table.evaluate_batch(vd)
        else:
            g = np.empty((b, n))
            j = np.empty((b, n))
            for i, lane in enumerate(lanes):
                evaluate = lane.companion_table.evaluate
                for k in range(n):
                    g[i, k], j[i, k] = evaluate(float(vd[i, k]))

        cin = np.array([lane.input_capacitance_f for lane in lanes])
        caps = np.stack([lane.capacitances for lane in lanes])

        n_states = n + 1
        jxx = np.zeros((b, n_states, n_states))
        jxy = np.zeros((b, n_states, 4))
        ex = np.zeros((b, n_states))

        # input node: Cin dVin/dt = Im - sum_pump (I_{k+1} - I_k); the
        # accumulation order over k matches the scalar loop exactly
        jxy[:, 0, 1] = 1.0 / cin
        for k in range(n):
            if not self._pump_active[k]:
                continue
            jxx[:, 0, :] += g[:, k, None] * coefficients[k, :] / cin[:, None]
            ex[:, 0] += j[:, k] / cin
            if k + 1 < n:
                jxx[:, 0, :] -= g[:, k + 1, None] * coefficients[k + 1, :] / cin[:, None]
                ex[:, 0] -= j[:, k + 1] / cin
            else:
                jxy[:, 0, 3] -= 1.0 / cin

        # stage nodes: C_k dU_k/dt = I_k - I_{k+1} (I_n -> Ic at the end)
        for k in range(n - 1):
            ck = caps[:, k, None]
            jxx[:, k + 1, :] = (
                g[:, k, None] * coefficients[k, :]
                - g[:, k + 1, None] * coefficients[k + 1, :]
            ) / ck
            ex[:, k + 1] = (j[:, k] - j[:, k + 1]) / caps[:, k]
        cn = caps[:, -1]
        jxx[:, n, :] = g[:, n - 1, None] * coefficients[n - 1, :] / cn[:, None]
        jxy[:, n, 3] = -1.0 / cn
        ex[:, n] = j[:, n - 1] / cn

        return BatchedLinearisation(
            jxx=jxx,
            jxy=jxy,
            ex=ex,
            jyx=np.broadcast_to(self._jyx_template, (b, 2, n_states)).copy(),
            jyy=np.broadcast_to(self._jyy_template, (b, 2, 4)).copy(),
            ey=np.zeros((b, 2)),
        )

    def batched_lineariser(
        self, lanes: Sequence[AnalogueBlock]
    ) -> PreparedBlockLineariser:
        """Fast lineariser with all operating-point-independent work hoisted.

        The capacitance stacks, the shared-companion-table check and the
        four structurally constant fields (``jxy``, ``jyx``, ``jyy``,
        ``ey``) are computed once; each refresh then performs only the
        diode-voltage projection, the table lookups and the ``jxx``/``ex``
        assembly, with the same expressions and accumulation order as
        :meth:`linearise_batch` so the values stay bit-identical.
        """
        b = len(lanes)
        n = self.n_stages
        coefficients = self._vd_coefficients
        pump_active = self._pump_active
        n_states = n + 1

        table = self.companion_table
        shared_table = all(lane.companion_table is table for lane in lanes)
        lane_tables = None if shared_table else [lane.companion_table for lane in lanes]

        cin = np.array([lane.input_capacitance_f for lane in lanes])
        caps = np.stack([lane.capacitances for lane in lanes])

        # structurally constant fields, assembled exactly as linearise_batch
        # does so the prepared path scatters the same floats
        jxy = np.zeros((b, n_states, 4))
        jxy[:, 0, 1] = 1.0 / cin
        for k in range(n):
            if pump_active[k] and k + 1 >= n:
                jxy[:, 0, 3] -= 1.0 / cin
        jxy[:, n, 3] = -1.0 / caps[:, -1]
        jyx = np.broadcast_to(self._jyx_template, (b, 2, n_states)).copy()
        jyy = np.broadcast_to(self._jyy_template, (b, 2, 4)).copy()
        ey = np.zeros((b, 2))

        def lineariser(t: float, x: np.ndarray, y: np.ndarray) -> BatchedLinearisation:
            vd = np.matmul(coefficients, x[..., None])[..., 0]  # (B, n)
            if lane_tables is None:
                g, j = table.evaluate_batch(vd)
            else:
                g = np.empty((b, n))
                j = np.empty((b, n))
                for i, lane_table in enumerate(lane_tables):
                    evaluate = lane_table.evaluate
                    for k in range(n):
                        g[i, k], j[i, k] = evaluate(float(vd[i, k]))

            jxx = np.zeros((b, n_states, n_states))
            ex = np.zeros((b, n_states))
            for k in range(n):
                if not pump_active[k]:
                    continue
                jxx[:, 0, :] += g[:, k, None] * coefficients[k, :] / cin[:, None]
                ex[:, 0] += j[:, k] / cin
                if k + 1 < n:
                    jxx[:, 0, :] -= g[:, k + 1, None] * coefficients[k + 1, :] / cin[:, None]
                    ex[:, 0] -= j[:, k + 1] / cin
            for k in range(n - 1):
                ck = caps[:, k, None]
                jxx[:, k + 1, :] = (
                    g[:, k, None] * coefficients[k, :]
                    - g[:, k + 1, None] * coefficients[k + 1, :]
                ) / ck
                ex[:, k + 1] = (j[:, k] - j[:, k + 1]) / caps[:, k]
            cn = caps[:, -1]
            jxx[:, n, :] = g[:, n - 1, None] * coefficients[n - 1, :] / cn[:, None]
            ex[:, n] = j[:, n - 1] / cn
            return BatchedLinearisation(
                jxx=jxx, jxy=jxy, ex=ex, jyx=jyx, jyy=jyy, ey=ey
            )

        return PreparedBlockLineariser(
            lineariser=lineariser,
            constant=("jxy", "jyx", "jyy", "ey"),
        )

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def output_voltage(self, x: np.ndarray) -> float:
        """DC output voltage (the last stage-capacitor voltage)."""
        return float(x[-1])

    def ideal_no_load_gain(self) -> float:
        """Idealised no-load boost factor relative to the input amplitude.

        Each pump stage can add up to one input amplitude minus a diode
        drop; with ``n`` stages the textbook limit is ``n`` times the
        amplitude.  Used only as a sanity bound in tests.
        """
        return float(self.n_stages)
