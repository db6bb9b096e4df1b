"""Modified Nodal Analysis (MNA) circuit engine — the SPICE-like baseline.

Table I of the paper includes an OrCAD/PSPICE simulation of the harvester's
equivalent-circuit model.  This module implements the algorithmic core of
such a simulator from scratch:

* an MNA formulation (node voltages plus branch currents of voltage
  sources and inductors as unknowns);
* companion models for the reactive elements under backward-Euler
  discretisation;
* Newton-Raphson iteration for the nonlinear devices (diodes) at every
  time step;
* a fixed fine time step, as a circuit simulator uses to resolve the
  vibration period.

Supported elements: resistors, capacitors, inductors, independent voltage
and current sources (constant or time-dependent), Shockley diodes, and the
linear controlled sources needed to express electromechanical coupling
(VCVS, VCCS, CCVS, CCCS).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.errors import ConfigurationError, ConvergenceError
from ..core.results import SimulationResult, SolverStats, TraceRecorder

__all__ = [
    "Circuit",
    "TransientSettings",
    "MNATransientSimulator",
    "NEWTON_TOLERANCE",
    "MAX_NEWTON_ITERATIONS",
]

SourceValue = Union[float, Callable[[float], float]]

_GROUND = "0"
_GMIN = 1e-12  # minimum conductance added across nonlinear junctions

# The Newton policy of every transient step.  These are not settings: the
# simulator reads them from this module when it runs.
#: max-norm change between Newton iterates below which a step has converged
NEWTON_TOLERANCE = 1e-9
#: Newton iteration cap per time step (and for the operating point)
MAX_NEWTON_ITERATIONS = 60


def _evaluate_source(value: SourceValue, t: float) -> float:
    if callable(value):
        return float(value(t))
    return float(value)


@dataclass
class _Resistor:
    name: str
    node_a: str
    node_b: str
    resistance: float


@dataclass
class _Capacitor:
    name: str
    node_a: str
    node_b: str
    capacitance: float
    initial_voltage: Optional[float] = 0.0


@dataclass
class _Inductor:
    name: str
    node_a: str
    node_b: str
    inductance: float
    initial_current: float = 0.0
    branch_index: int = -1


@dataclass
class _VoltageSource:
    name: str
    node_plus: str
    node_minus: str
    value: SourceValue
    branch_index: int = -1


@dataclass
class _CurrentSource:
    name: str
    node_plus: str
    node_minus: str
    value: SourceValue


@dataclass
class _Diode:
    name: str
    node_anode: str
    node_cathode: str
    saturation_current: float = 1e-8
    thermal_voltage: float = 25.85e-3
    series_resistance: float = 50.0


@dataclass
class _VCVS:
    name: str
    node_plus: str
    node_minus: str
    control_plus: str
    control_minus: str
    gain: float
    branch_index: int = -1


@dataclass
class _VCCS:
    name: str
    node_plus: str
    node_minus: str
    control_plus: str
    control_minus: str
    transconductance: float


@dataclass
class _CCVS:
    name: str
    node_plus: str
    node_minus: str
    control_branch: str  # name of a voltage source or inductor
    transresistance: float
    branch_index: int = -1


@dataclass
class _CCCS:
    name: str
    node_plus: str
    node_minus: str
    control_branch: str
    gain: float


class Circuit:
    """A netlist of circuit elements referenced by node name.

    Node ``"0"`` is ground.  Elements are added with the ``add_*`` methods;
    the circuit is then handed to :class:`MNATransientSimulator`.
    """

    def __init__(self, title: str = "circuit") -> None:
        self.title = title
        self.resistors: List[_Resistor] = []
        self.capacitors: List[_Capacitor] = []
        self.inductors: List[_Inductor] = []
        self.voltage_sources: List[_VoltageSource] = []
        self.current_sources: List[_CurrentSource] = []
        self.diodes: List[_Diode] = []
        self.vcvs: List[_VCVS] = []
        self.vccs: List[_VCCS] = []
        self.ccvs: List[_CCVS] = []
        self.cccs: List[_CCCS] = []
        self._names: set = set()

    # ------------------------------------------------------------------ #
    # element constructors
    # ------------------------------------------------------------------ #
    def _register(self, name: str) -> None:
        if not name:
            raise ConfigurationError("element name must be non-empty")
        if name in self._names:
            raise ConfigurationError(f"duplicate element name {name!r}")
        self._names.add(name)

    def add_resistor(self, name: str, node_a: str, node_b: str, resistance: float) -> None:
        """Add a resistor of ``resistance`` ohms between two nodes."""
        self._register(name)
        if resistance <= 0.0:
            raise ConfigurationError(f"resistor {name!r} must have positive resistance")
        self.resistors.append(_Resistor(name, node_a, node_b, resistance))

    def add_capacitor(
        self,
        name: str,
        node_a: str,
        node_b: str,
        capacitance: float,
        initial_voltage: Optional[float] = 0.0,
    ) -> None:
        """Add a capacitor (node_a positive); ``initial_voltage=None`` leaves
        its start voltage to the operating point the transient starts from."""
        self._register(name)
        if capacitance <= 0.0:
            raise ConfigurationError(f"capacitor {name!r} must have positive capacitance")
        self.capacitors.append(_Capacitor(name, node_a, node_b, capacitance, initial_voltage))

    def add_inductor(
        self, name: str, node_a: str, node_b: str, inductance: float, initial_current: float = 0.0
    ) -> None:
        """Add an inductor (current flows from node_a to node_b internally)."""
        self._register(name)
        if inductance <= 0.0:
            raise ConfigurationError(f"inductor {name!r} must have positive inductance")
        self.inductors.append(_Inductor(name, node_a, node_b, inductance, initial_current))

    def add_voltage_source(
        self, name: str, node_plus: str, node_minus: str, value: SourceValue
    ) -> None:
        """Add an independent voltage source (constant or callable of time)."""
        self._register(name)
        self.voltage_sources.append(_VoltageSource(name, node_plus, node_minus, value))

    def add_current_source(
        self, name: str, node_plus: str, node_minus: str, value: SourceValue
    ) -> None:
        """Add an independent current source flowing from plus to minus inside."""
        self._register(name)
        self.current_sources.append(_CurrentSource(name, node_plus, node_minus, value))

    def add_diode(
        self,
        name: str,
        node_anode: str,
        node_cathode: str,
        saturation_current: float = 1e-8,
        thermal_voltage: float = 25.85e-3,
        series_resistance: float = 50.0,
    ) -> None:
        """Add a Shockley diode with ohmic series resistance."""
        self._register(name)
        self.diodes.append(
            _Diode(name, node_anode, node_cathode, saturation_current, thermal_voltage, series_resistance)
        )

    def add_vcvs(
        self, name: str, node_plus: str, node_minus: str, control_plus: str, control_minus: str, gain: float
    ) -> None:
        """Add a voltage-controlled voltage source (E element)."""
        self._register(name)
        self.vcvs.append(_VCVS(name, node_plus, node_minus, control_plus, control_minus, gain))

    def add_vccs(
        self,
        name: str,
        node_plus: str,
        node_minus: str,
        control_plus: str,
        control_minus: str,
        transconductance: float,
    ) -> None:
        """Add a voltage-controlled current source (G element)."""
        self._register(name)
        self.vccs.append(
            _VCCS(name, node_plus, node_minus, control_plus, control_minus, transconductance)
        )

    def add_ccvs(
        self, name: str, node_plus: str, node_minus: str, control_branch: str, transresistance: float
    ) -> None:
        """Add a current-controlled voltage source (H element).

        ``control_branch`` names a voltage source or inductor whose branch
        current controls the output voltage.
        """
        self._register(name)
        self.ccvs.append(_CCVS(name, node_plus, node_minus, control_branch, transresistance))

    def add_cccs(
        self, name: str, node_plus: str, node_minus: str, control_branch: str, gain: float
    ) -> None:
        """Add a current-controlled current source (F element)."""
        self._register(name)
        self.cccs.append(_CCCS(name, node_plus, node_minus, control_branch, gain))

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def node_names(self) -> List[str]:
        """All non-ground node names, in first-appearance order."""
        seen: List[str] = []

        def visit(node: str) -> None:
            if node != _GROUND and node not in seen:
                seen.append(node)

        for r in self.resistors:
            visit(r.node_a), visit(r.node_b)
        for c in self.capacitors:
            visit(c.node_a), visit(c.node_b)
        for l in self.inductors:
            visit(l.node_a), visit(l.node_b)
        for v in self.voltage_sources:
            visit(v.node_plus), visit(v.node_minus)
        for i in self.current_sources:
            visit(i.node_plus), visit(i.node_minus)
        for d in self.diodes:
            visit(d.node_anode), visit(d.node_cathode)
        for e in self.vcvs:
            visit(e.node_plus), visit(e.node_minus), visit(e.control_plus), visit(e.control_minus)
        for g in self.vccs:
            visit(g.node_plus), visit(g.node_minus), visit(g.control_plus), visit(g.control_minus)
        for h in self.ccvs:
            visit(h.node_plus), visit(h.node_minus)
        for f in self.cccs:
            visit(f.node_plus), visit(f.node_minus)
        return seen

    def element_count(self) -> int:
        """Total number of elements in the netlist."""
        return (
            len(self.resistors)
            + len(self.capacitors)
            + len(self.inductors)
            + len(self.voltage_sources)
            + len(self.current_sources)
            + len(self.diodes)
            + len(self.vcvs)
            + len(self.vccs)
            + len(self.ccvs)
            + len(self.cccs)
        )


@dataclass
class TransientSettings:
    """Transient-analysis settings of the MNA simulator.

    The Newton policy is the module constants :data:`NEWTON_TOLERANCE`
    and :data:`MAX_NEWTON_ITERATIONS`.
    """

    step_size: float = 2e-4
    record_interval: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on invalid settings."""
        if self.step_size <= 0.0:
            raise ConfigurationError("step size must be positive")


class MNATransientSimulator:
    """Backward-Euler + Newton-Raphson transient analysis of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit, settings: Optional[TransientSettings] = None) -> None:
        self.circuit = circuit
        self.settings = settings or TransientSettings()
        self.settings.validate()

        self._node_index: Dict[str, int] = {
            name: idx for idx, name in enumerate(circuit.node_names())
        }
        n_nodes = len(self._node_index)

        # branch-current unknowns: voltage sources, inductors, VCVS, CCVS
        branch = n_nodes
        self._branch_names: Dict[str, int] = {}
        for source in circuit.voltage_sources:
            source.branch_index = branch
            self._branch_names[source.name] = branch
            branch += 1
        for inductor in circuit.inductors:
            inductor.branch_index = branch
            self._branch_names[inductor.name] = branch
            branch += 1
        for element in circuit.vcvs:
            element.branch_index = branch
            self._branch_names[element.name] = branch
            branch += 1
        for element in circuit.ccvs:
            element.branch_index = branch
            self._branch_names[element.name] = branch
            branch += 1
        self._n_unknowns = branch
        self._n_nodes = n_nodes

        for element in circuit.ccvs + circuit.cccs:
            if element.control_branch not in self._branch_names:
                raise ConfigurationError(
                    f"{element.name!r} controls on branch {element.control_branch!r} "
                    "which is not a voltage source or inductor"
                )

    # ------------------------------------------------------------------ #
    # index helpers
    # ------------------------------------------------------------------ #
    def _node(self, name: str) -> int:
        if name == _GROUND:
            return -1
        return self._node_index[name]

    def node_voltage(self, solution: np.ndarray, node: str) -> float:
        """Voltage of ``node`` in an MNA solution vector."""
        idx = self._node(node)
        return 0.0 if idx < 0 else float(solution[idx])

    def branch_current(self, solution: np.ndarray, element_name: str) -> float:
        """Branch current of a voltage source / inductor / E / H element."""
        return float(solution[self._branch_names[element_name]])

    @property
    def n_unknowns(self) -> int:
        """Size of the MNA unknown vector (node voltages + branch currents)."""
        return self._n_unknowns

    # ------------------------------------------------------------------ #
    # stamping
    # ------------------------------------------------------------------ #
    def _stamp_conductance(self, a: np.ndarray, node_a: int, node_b: int, g: float) -> None:
        if node_a >= 0:
            a[node_a, node_a] += g
        if node_b >= 0:
            a[node_b, node_b] += g
        if node_a >= 0 and node_b >= 0:
            a[node_a, node_b] -= g
            a[node_b, node_a] -= g

    def _stamp_current(self, b: np.ndarray, node_plus: int, node_minus: int, value: float) -> None:
        if node_plus >= 0:
            b[node_plus] -= value
        if node_minus >= 0:
            b[node_minus] += value

    def _build_system(
        self,
        t: float,
        h: float,
        guess: np.ndarray,
        previous: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the MNA matrix and right-hand side for one Newton iteration."""
        circuit = self.circuit
        a = np.zeros((self._n_unknowns, self._n_unknowns))
        b = np.zeros(self._n_unknowns)

        for r in circuit.resistors:
            self._stamp_conductance(a, self._node(r.node_a), self._node(r.node_b), 1.0 / r.resistance)

        # capacitors: backward-Euler companion (Norton equivalent)
        for c in circuit.capacitors:
            na, nb = self._node(c.node_a), self._node(c.node_b)
            geq = c.capacitance / h
            v_prev = self.node_voltage(previous, c.node_a) - self.node_voltage(previous, c.node_b)
            ieq = geq * v_prev
            self._stamp_conductance(a, na, nb, geq)
            # Norton current source pushes current into node_a
            if na >= 0:
                b[na] += ieq
            if nb >= 0:
                b[nb] -= ieq

        # inductors: branch-current formulation with BE companion
        for l in circuit.inductors:
            na, nb, k = self._node(l.node_a), self._node(l.node_b), l.branch_index
            if na >= 0:
                a[na, k] += 1.0
                a[k, na] += 1.0
            if nb >= 0:
                a[nb, k] -= 1.0
                a[k, nb] -= 1.0
            a[k, k] -= l.inductance / h
            b[k] -= (l.inductance / h) * previous[k]

        for v in circuit.voltage_sources:
            np_, nm, k = self._node(v.node_plus), self._node(v.node_minus), v.branch_index
            if np_ >= 0:
                a[np_, k] += 1.0
                a[k, np_] += 1.0
            if nm >= 0:
                a[nm, k] -= 1.0
                a[k, nm] -= 1.0
            b[k] += _evaluate_source(v.value, t)

        for i in circuit.current_sources:
            self._stamp_current(
                b, self._node(i.node_plus), self._node(i.node_minus), _evaluate_source(i.value, t)
            )

        # diodes: Newton companion linearised at the current guess
        for d in circuit.diodes:
            na, nc = self._node(d.node_anode), self._node(d.node_cathode)
            v_d = (guess[na] if na >= 0 else 0.0) - (guess[nc] if nc >= 0 else 0.0)
            g_eq, i_eq = self._diode_companion(d, v_d)
            self._stamp_conductance(a, na, nc, g_eq)
            if na >= 0:
                b[na] -= i_eq
            if nc >= 0:
                b[nc] += i_eq

        for e in circuit.vcvs:
            np_, nm, k = self._node(e.node_plus), self._node(e.node_minus), e.branch_index
            cp, cm = self._node(e.control_plus), self._node(e.control_minus)
            if np_ >= 0:
                a[np_, k] += 1.0
                a[k, np_] += 1.0
            if nm >= 0:
                a[nm, k] -= 1.0
                a[k, nm] -= 1.0
            if cp >= 0:
                a[k, cp] -= e.gain
            if cm >= 0:
                a[k, cm] += e.gain

        for g in circuit.vccs:
            np_, nm = self._node(g.node_plus), self._node(g.node_minus)
            cp, cm = self._node(g.control_plus), self._node(g.control_minus)
            for out_node, sign in ((np_, 1.0), (nm, -1.0)):
                if out_node < 0:
                    continue
                if cp >= 0:
                    a[out_node, cp] += sign * g.transconductance
                if cm >= 0:
                    a[out_node, cm] -= sign * g.transconductance

        for hsrc in circuit.ccvs:
            np_, nm, k = self._node(hsrc.node_plus), self._node(hsrc.node_minus), hsrc.branch_index
            ctrl = self._branch_names[hsrc.control_branch]
            if np_ >= 0:
                a[np_, k] += 1.0
                a[k, np_] += 1.0
            if nm >= 0:
                a[nm, k] -= 1.0
                a[k, nm] -= 1.0
            a[k, ctrl] -= hsrc.transresistance

        for f in circuit.cccs:
            np_, nm = self._node(f.node_plus), self._node(f.node_minus)
            ctrl = self._branch_names[f.control_branch]
            if np_ >= 0:
                a[np_, ctrl] += f.gain
            if nm >= 0:
                a[nm, ctrl] -= f.gain

        return a, b

    @staticmethod
    def _diode_companion(d: _Diode, v_d: float) -> Tuple[float, float]:
        """Companion conductance and current source of a diode at ``v_d``.

        The series resistance is handled by limiting the junction voltage
        (standard SPICE-style junction-voltage limiting keeps Newton from
        overflowing the exponential).
        """
        v_limit = d.thermal_voltage * math.log(1.0 + 1.0 / max(d.saturation_current, 1e-30))
        v_j = min(v_d, v_limit + 0.3)
        exponent = min(v_j / d.thermal_voltage, 80.0)
        i_j = d.saturation_current * (math.exp(exponent) - 1.0)
        g_j = d.saturation_current / d.thermal_voltage * math.exp(exponent) + _GMIN
        # series resistance folded into the companion conductance
        g_eq = g_j / (1.0 + d.series_resistance * g_j)
        i_at_point = i_j / (1.0 + d.series_resistance * g_j) if d.series_resistance else i_j
        i_eq = i_at_point - g_eq * v_d
        return g_eq, i_eq

    # ------------------------------------------------------------------ #
    # transient analysis
    # ------------------------------------------------------------------ #
    def _newton(self, system, guess: np.ndarray, t: float, stats: SolverStats) -> np.ndarray:
        """Newton-Raphson on ``system(guess) -> (a, b)`` from ``guess``."""
        for _ in range(MAX_NEWTON_ITERATIONS):
            a, b = system(guess)
            stats.n_jacobian_evaluations += 1
            try:
                new_guess = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"singular MNA matrix at t={t}: {exc}") from exc
            stats.n_linear_solves += 1
            stats.n_newton_iterations += 1
            change = float(np.max(np.abs(new_guess - guess))) if guess.size else 0.0
            guess = new_guess
            if change <= NEWTON_TOLERANCE:
                return guess
        raise ConvergenceError(f"MNA Newton iteration did not converge at t={t:.6g}")

    def _initial_solution(self, t: float, stats: SolverStats) -> np.ndarray:
        """The consistent operating point the transient starts from.

        Every capacitor with an initial voltage is held at it and every
        inductor at its initial current; the node voltages and the other
        branch currents are solved.  At ``h = inf`` the backward-Euler
        companions are the DC models (capacitor open, inductor short), so
        each held capacitor adds a voltage-source row and each inductor's
        branch row is replaced by its current.
        """
        n = self._n_unknowns
        held = [c for c in self.circuit.capacitors if c.initial_voltage is not None]
        size = n + len(held)

        def system(guess: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            a = np.zeros((size, size))
            b = np.zeros(size)
            a[:n, :n], b[:n] = self._build_system(t, math.inf, guess, guess)
            for inductor in self.circuit.inductors:
                k = inductor.branch_index
                a[k] = 0.0
                a[k, k], b[k] = 1.0, inductor.initial_current
            for row, c in enumerate(held, start=n):
                for node, sign in ((self._node(c.node_a), 1.0), (self._node(c.node_b), -1.0)):
                    if node >= 0:
                        a[node, row] = a[row, node] = sign
                b[row] = c.initial_voltage
            return a, b

        return self._newton(system, np.zeros(size), t, stats)[:n]

    def run(self, t_end: float, *, t_start: float = 0.0) -> SimulationResult:
        """Run a transient analysis from the operating point at ``t_start``
        and record every node voltage."""
        if t_end <= t_start:
            raise ConfigurationError("t_end must be greater than t_start")
        settings = self.settings
        recorder = TraceRecorder(record_interval=settings.record_interval)
        stats = SolverStats(solver_name="mna/backward_euler")

        t = t_start
        wall_start = time.perf_counter()
        solution = self._initial_solution(t, stats)
        self._record(recorder, t, solution)

        while t < t_end - 1e-15:
            h = min(settings.step_size, t_end - t)
            t_next = t + h
            previous = solution
            solution = self._newton(
                lambda guess: self._build_system(t_next, h, guess, previous),
                solution.copy(),
                t_next,
                stats,
            )
            t = t_next
            stats.register_step(h, accepted=True)
            self._record(recorder, t, solution)

        stats.cpu_time_s = time.perf_counter() - wall_start
        stats.final_time = t
        result = SimulationResult(traces=recorder.traces, stats=stats)
        result.metadata["n_unknowns"] = self._n_unknowns
        result.metadata["n_elements"] = self.circuit.element_count()
        return result

    def _record(self, recorder: TraceRecorder, t: float, solution: np.ndarray) -> None:
        if not recorder.should_record(t):
            return
        values: Dict[str, float] = {}
        for name, idx in self._node_index.items():
            values[f"v({name})"] = float(solution[idx])
        for name, idx in self._branch_names.items():
            values[f"i({name})"] = float(solution[idx])
        recorder.record(t, values)
