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

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.block import (
    AnalogueBlock,
    BatchedLinearisation,
    BlockLinearisation,
    PreparedBlockLineariser,
    add_keeping_first_nan,
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

    #: size at which the exact-diode memo is emptied
    _DIODE_MEMO_SIZE = 256

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
        #: exact branch currents by branch-voltage bit pattern (see
        #: :meth:`_diode_currents`); run state, in no spec or cache key
        self._diode_memo: Dict[int, float] = {}

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
        """Exact or table-based diode currents depending on configuration.

        The exact path bypasses a diode whose branch voltage is bitwise one
        the block has solved since its memo was last cleared (every chain
        diode shares one :class:`ShockleyDiode`), so a finite-difference
        column that moves two diodes solves two.  The key is the float's
        bit pattern: ``-0.0`` and ``0.0`` are different keys and a NaN is
        never stored.  A call empties the memo once it holds
        :attr:`_DIODE_MEMO_SIZE` voltages.
        """
        if not self._use_exact:
            return np.array([self.companion_table.branch_current(float(v)) for v in vd])
        vd = np.ascontiguousarray(vd, dtype=float)
        memo = self._diode_memo
        if len(memo) >= self._DIODE_MEMO_SIZE:
            memo.clear()
        solve = self._diode.current
        currents = []
        for v, key in zip(vd.tolist(), vd.view(np.int64).tolist()):
            i = memo.get(key)
            if i is None:
                i = solve(v)
                if v == v:
                    memo[key] = i
            currents.append(i)
        return np.array(currents)

    # ------------------------------------------------------------------ #
    # nonlinear model (used by the NR baselines and the reference solver)
    # ------------------------------------------------------------------ #
    def derivatives(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # the loops run on Python floats: the same IEEE-754 operations as
        # on NumPy scalars, without indexing an array per term
        _vm, im, _vc, ic = np.asarray(y, dtype=float).tolist()
        i_d = self._diode_currents(self._vd_coefficients @ x).tolist()
        caps = self.capacitances.tolist()
        n = self.n_stages
        # input node: Cin dVin/dt = Im - sum of pump-capacitor currents;
        # given two NaNs the sum keeps the term's, as NumPy scalars did (a
        # Python float addition keeps either, depending on the interpreter)
        pump_current = 0.0
        for k in range(n):
            if self._pump_active[k]:
                downstream = i_d[k + 1] if k + 1 < n else ic
                term = downstream - i_d[k]
                pump_current = term if term != term else pump_current + term
        dxdt = [(im - pump_current) / self.input_capacitance_f]
        dxdt += [(i_d[k] - i_d[k + 1]) / caps[k] for k in range(n - 1)]
        dxdt.append((i_d[n - 1] - ic) / caps[n - 1])
        return np.array(dxdt)

    def derivatives_at(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`derivatives` at ``P`` points, bitwise each point's call.

        ``vd`` is the stacked ``matmul`` of :meth:`batched_lineariser`; the
        ``P * n`` branch voltages go through one :meth:`_diode_currents`
        call, point by point, and the pump and stage sums keep the scalar
        order, element-wise across the points (the pump sum keeping each
        term's NaN, as the scalar loop does).
        """
        n = self.n_stages
        vd = np.matmul(self._vd_coefficients, x[..., None])[..., 0]
        i_d = self._diode_currents(vd.ravel()).reshape(vd.shape)
        im = y[:, 1]
        ic = y[:, 3]
        pump_current = np.zeros(len(x))
        for k in range(n):
            if self._pump_active[k]:
                downstream = i_d[:, k + 1] if k + 1 < n else ic
                pump_current = add_keeping_first_nan(downstream - i_d[:, k], pump_current)
        caps = self.capacitances
        dxdt = np.empty((len(x), n + 1))
        dxdt[:, 0] = (im - pump_current) / self.input_capacitance_f
        dxdt[:, 1:n] = (i_d[:, :-1] - i_d[:, 1:]) / caps[:-1]
        dxdt[:, n] = (i_d[:, n - 1] - ic) / caps[n - 1]
        return dxdt

    def algebraic_residual(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vm, _im, vc, _ic = y
        return np.array([vm - x[0], vc - x[-1]])

    def algebraic_residuals_at(
        self, t: float, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """:meth:`algebraic_residual` at ``P`` points, bitwise each point's call."""
        return np.stack([y[:, 0] - x[:, 0], y[:, 2] - x[:, -1]], axis=1)

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
        jxy = np.zeros((n_states, 4))  # columns: Vm, Im, Vc, Ic
        # one row P[k] = [g_k * C_k | j_k] per diode current k; the rows
        # of [jxx | ex] are built from them with array operations only
        p = np.empty((n, n_states + 1))
        p[:, :n_states] = g[:, None] * coefficients
        p[:, n_states] = j
        rows = np.empty((n_states, n_states + 1))

        # input node: Cin dVin/dt = Im - sum_pump (I_{k+1} - I_k)
        cin = self.input_capacitance_f
        jxy[0, 1] = 1.0 / cin
        # each term a subtraction, the added ones of P[k] / -cin (exact):
        # given two NaNs a subtraction keeps its first, an addition either
        row = np.zeros(n_states + 1)
        for k in range(n):
            if not self._pump_active[k]:
                continue
            row -= p[k] / -cin
            if k + 1 < n:
                row -= p[k + 1] / cin
            else:
                jxy[0, 3] -= 1.0 / cin
        rows[0] = row

        # stage nodes: C_k dU_k/dt = I_k - I_{k+1} (I_n -> Ic at the end)
        caps = self.capacitances
        rows[1:n] = (p[:-1] - p[1:]) / caps[:-1, None]
        cn = caps[-1]
        rows[n] = p[n - 1] / cn
        jxy[n, 3] = -1.0 / cn

        # algebraic part: Vm - Vin = 0 and Vc - Vn = 0 (constant structure)
        return BlockLinearisation(
            jxx=rows[:, :n_states],
            jxy=jxy,
            ex=rows[:, n_states],
            jyx=self._jyx_template.copy(),
            jyy=self._jyy_template.copy(),
            ey=np.zeros(2),
        )

    def batched_lineariser(
        self, lanes: Sequence[AnalogueBlock]
    ) -> PreparedBlockLineariser:
        """Stacked lineariser with all operating-point-independent work hoisted.

        Lanes share the topology (stage count and pump pattern, hence the
        diode voltage coefficient matrix ``C``) but may differ in
        capacitances and diode parameters.  The capacitance stacks, the
        signs of the input-node row and the four structurally constant
        fields (``jxy``, ``jyx``, ``jyy``, ``ey``) are bound once.

        A refresh projects the diode voltages and looks every one up.
        When all lanes alias one extrapolating companion table (the common
        sweep case) that is one :meth:`~repro.core.pwl.CompanionTable.lookup`
        of a segment table whose columns are ``G`` under each column of
        ``C`` and then ``J``, so ``P = lookup * [C | 1] = [g * C | j]``
        takes one product; otherwise each lane's table is evaluated (with
        its range checks).  ``P`` lives in a buffer whose extra last row
        stays zero.  The stage and output rows of ``[jxx | ex]`` are then
        ``(P[:-1] - P[1:]) / caps``, since ``P[n-1] - 0`` is ``P[n-1]``
        exactly, and the input-node row is ``np.subtract.reduce`` from
        ``initial=0.0`` over the pump rows of ``P`` divided by ``-cin``
        (an added row) or ``cin`` (a subtracted one): the scalar loop's
        ``0 - a0 / -cin - a1 / cin - ...`` in its order.  Every lane is
        therefore bitwise its scalar :meth:`linearise`, non-finite and
        signed-zero values included.

        Its output is valid only until the next call, as for any
        :class:`~repro.core.block.PreparedBlockLineariser`: ``P`` is one
        buffer every call reuses.  (``jxx``/``ex`` are views of a fresh
        array per call today, so a result held across a call still reads
        correctly; callers must not rely on it.)
        """
        b = len(lanes)
        n = self.n_stages
        coefficients = self._vd_coefficients
        n_states = n + 1

        table = self.companion_table
        shared_table = all(lane.companion_table is table for lane in lanes)
        # [C | 1]: the lookup's [g ... g, j] columns times it are P's
        product = np.hstack([coefficients, np.ones((n, 1))])
        if shared_table and table.extrapolates:
            segments = table.segment_table("g" * n_states + "j")

            def currents(vd: np.ndarray) -> np.ndarray:
                return table.lookup(vd, segments)

        else:
            lane_tables = [lane.companion_table for lane in lanes]

            def currents(vd: np.ndarray) -> np.ndarray:
                if shared_table:
                    g, j = table.evaluate_batch(vd)
                else:
                    g, j = (
                        np.stack(pair)
                        for pair in zip(*(tab.evaluate_batch(v) for tab, v in zip(lane_tables, vd)))
                    )
                columns = np.empty((b, n, n_states + 1))
                columns[..., :n_states] = g[..., None]
                columns[..., n_states] = j
                return columns

        cin = np.array([lane.input_capacitance_f for lane in lanes])
        caps = np.stack([lane.capacitances for lane in lanes])
        # input node: Cin dVin/dt = Im - sum_pump (I_{k+1} - I_k), as
        # linearise subtracts its terms: P[k] / -cin for an added row,
        # P[k] / cin for a subtracted one
        terms = []
        for k in range(n):
            if self._pump_active[k]:
                terms.append((k, -1.0))
                if k + 1 < n:
                    terms.append((k + 1, 1.0))
        pump_rows, signs = zip(*terms)
        # the alternating pump pattern takes the leading rows in order
        assert pump_rows == tuple(range(len(terms))), pump_rows
        signed_cin = cin[:, None, None] * np.array(signs)[:, None]
        caps_rows = caps[:, :, None]

        # structurally constant fields, the floats linearise assembles
        jxy = np.zeros((b, n_states, 4))
        jxy[:, 0, 1] = 1.0 / cin
        if self._pump_active[n - 1]:
            jxy[:, 0, 3] -= 1.0 / cin
        jxy[:, n, 3] = -1.0 / caps[:, -1]
        jyx = np.broadcast_to(self._jyx_template, (b, 2, n_states)).copy()
        jyy = np.broadcast_to(self._jyy_template, (b, 2, 4)).copy()
        ey = np.zeros((b, 2))

        # P with a zero row appended, reused by every refresh
        p = np.zeros((b, n + 1, n_states + 1))
        p_diodes = p[:, :n]
        p_pump = p[:, : len(terms)]

        def lineariser(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> BatchedLinearisation:
            vd = np.matmul(coefficients, x[..., None])[..., 0]  # (B, n)
            np.multiply(currents(vd), product, out=p_diodes)
            # rows of [jxx | ex]
            rows = np.empty((b, n_states, n_states + 1))
            np.subtract.reduce(p_pump / signed_cin, axis=1, initial=0.0, out=rows[:, 0])
            np.divide(p[:, :-1] - p[:, 1:], caps_rows, out=rows[:, 1:])
            return BatchedLinearisation(
                jxx=rows[..., :n_states],
                jxy=jxy,
                ex=rows[..., n_states],
                jyx=jyx,
                jyy=jyy,
                ey=ey,
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
