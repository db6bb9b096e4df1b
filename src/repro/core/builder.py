"""Compile a :class:`~repro.core.spec.SystemSpec` into a runnable system.

The :class:`SystemBuilder` is the generic replacement for hand-wiring a
topology in Python: it resolves every block spec through the
:class:`~repro.core.registry.BlockRegistry`, wires the declared port
connections into a :class:`~repro.core.netlist.Netlist`, assembles the
global state model (:class:`~repro.core.elimination.SystemAssembler`)
and attaches the declared digital controller through a
:class:`~repro.core.digital.DigitalEventKernel`.

The result is a :class:`BuiltSystem`, the one running surface
(``build_solver`` / ``build_baseline_solver`` / probes / controller) that
scenario runners, baselines and the sweep engine drive — the paper's own
system included (:func:`repro.harvester.system.paper_system`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .block import AnalogueBlock
from .digital import DigitalEventKernel, DigitalProcess
from .elimination import SystemAssembler
from .errors import ConfigurationError
from .netlist import Netlist
from .probes import (
    ModelProbe,
    PowerProbe,
    ProbeFn,
    SourceFrequencyProbe,
    StateProbe,
    TerminalProbe,
)
from .registry import BLOCK_REGISTRY, BlockRegistry
from .solver import LinearisedStateSpaceSolver, SolverSettings
from .spec import SystemSpec
from .stepper import StepControlSettings

__all__ = [
    "BuildContext",
    "BuiltSystem",
    "SystemBuilder",
    "solver_settings_for_frequency",
]


def solver_settings_for_frequency(
    excitation_frequency_hz: float,
    *,
    points_per_period: int = 40,
    record_interval: float = 1e-3,
) -> SolverSettings:
    """Solver settings whose step limit resolves the excitation waveform.

    The stability control of the solver bounds the step from the system's
    eigenvalues, but accuracy additionally requires sampling the sinusoidal
    excitation finely enough; this caps the step at
    ``1 / (points_per_period * f)`` — the "fine simulation time-step of
    less than a millisecond" the paper describes for vibration harvesters.
    """
    if excitation_frequency_hz <= 0.0:
        raise ConfigurationError("excitation frequency must be positive")
    if points_per_period < 4:
        raise ConfigurationError("points_per_period must be at least 4")
    h_max = 1.0 / (points_per_period * excitation_frequency_hz)
    step_control = StepControlSettings(
        h_initial=h_max / 8.0,
        h_min=h_max / 1e6,
        h_max=h_max,
    )
    return SolverSettings(step_control=step_control, record_interval=record_interval)


@dataclass
class BuildContext:
    """Shared objects the registry factories may need while building.

    ``acceleration``/``frequency`` are filled by the builder from the
    excitation source before any block factory runs.
    """

    acceleration: Optional[Callable[[float], float]] = None
    frequency: Optional[Callable[[float], float]] = None


class BuiltSystem:
    """A compiled system: blocks + netlist + assembler + controller.

    ``component_probes`` maps trace names to probes on component handles
    that no spec probe kind names (the paper system's stored energy and
    actuator gap); every solver records them after the spec's probes.
    """

    def __init__(
        self,
        spec: SystemSpec,
        source,
        blocks: Dict[str, AnalogueBlock],
        netlist: Netlist,
        assembler: SystemAssembler,
        controller: Optional[DigitalProcess],
    ) -> None:
        self.spec = spec
        self.source = source
        self.blocks = blocks
        self.netlist = netlist
        self.assembler = assembler
        self.controller = controller
        self.component_probes: Dict[str, ProbeFn] = {}

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    @property
    def n_states(self) -> int:
        """Size of the assembled global state vector."""
        return self.assembler.n_states

    def initial_state(self) -> np.ndarray:
        """Initial global state vector."""
        return self.assembler.initial_state()

    def block(self, name: str) -> AnalogueBlock:
        """Look up a built block by its spec name."""
        try:
            return self.blocks[name]
        except KeyError:
            raise ConfigurationError(
                f"built system {self.spec.name!r} has no block {name!r}; "
                f"blocks are {sorted(self.blocks)}"
            ) from None

    # ------------------------------------------------------------------ #
    # solver construction
    # ------------------------------------------------------------------ #
    def default_solver_settings(self) -> SolverSettings:
        """Settings derived from the spec's excitation and solver hints.

        Reads only ``self.spec``, so
        :class:`~repro.harvester.topologies.SpecScenario` shares it as its
        ``solver_settings``.
        """
        return solver_settings_for_frequency(
            self.spec.excitation.max_frequency_hz(),
            points_per_period=self.spec.solver.points_per_period,
            record_interval=self.spec.solver.record_interval,
        )

    def build_solver(
        self, integrator=None, settings: Optional[SolverSettings] = None
    ) -> LinearisedStateSpaceSolver:
        """Build the proposed (fast) linearised state-space solver."""
        if settings is None:
            settings = self.default_solver_settings()
        solver = LinearisedStateSpaceSolver(
            assembler=self.assembler,
            integrator=integrator,
            settings=settings,
            digital_kernel=self._build_kernel(),
        )
        self._wire(solver)
        return solver

    def build_baseline_solver(self, **kwargs):
        """Build the Newton-Raphson implicit baseline on the same model."""
        # imported lazily to keep the baselines package optional at import time
        from ..baselines.implicit_solver import ImplicitNewtonSolver

        solver = ImplicitNewtonSolver(
            assembler=self.assembler, digital_kernel=self._build_kernel(), **kwargs
        )
        self._wire(solver)
        return solver

    def _build_kernel(self) -> Optional[DigitalEventKernel]:
        if self.controller is None:
            return None
        kernel = DigitalEventKernel()
        kernel.add_process(self.controller)
        return kernel

    # ------------------------------------------------------------------ #
    # declarative probe / interface wiring
    # ------------------------------------------------------------------ #
    def _wire(self, solver) -> None:
        """Wire the spec-declared probes and digital interface."""
        assembler = self.assembler
        for probe in self.spec.probes:
            if probe.kind == "terminal":
                idx = assembler.net_index(probe.block, probe.targets[0])
                solver.add_probe(probe.name, TerminalProbe(idx))
            elif probe.kind == "power":
                iv = assembler.net_index(probe.block, probe.targets[0])
                ii = assembler.net_index(probe.block, probe.targets[1])
                solver.add_probe(probe.name, PowerProbe(iv, ii))
            elif probe.kind == "state":
                # 'state'/'attr' probes are recording instructions, not
                # constraints: a target that does not exist on the built
                # topology (e.g. after a topology-axis block swap) is
                # skipped rather than failing the whole build
                block = self.block(probe.block)
                if probe.targets[0] not in block.state_names:
                    continue
                idx = assembler.state_index(probe.block, probe.targets[0])
                solver.add_probe(probe.name, StateProbe(idx))
            elif probe.kind == "attr":
                block = self.block(probe.block)
                if not hasattr(block, probe.targets[0]):
                    continue
                solver.add_probe(probe.name, ModelProbe(block, probe.targets[0]))
            elif probe.kind == "source_frequency":
                solver.add_probe(probe.name, SourceFrequencyProbe(self.source))
        for name, probe in self.component_probes.items():
            solver.add_probe(name, probe)

        interface = getattr(solver, "interface", None)
        if interface is None:
            return
        for ip in self.spec.interface_probes:
            if ip.kind == "state":
                interface.register_probe(
                    ip.name,
                    lambda _b=ip.block, _s=ip.target: solver.state_value(_b, _s),
                )
            elif ip.kind == "attr":
                block = self.block(ip.block)
                interface.register_probe(
                    ip.name,
                    lambda _blk=block, _a=ip.target: float(getattr(_blk, _a)),
                )
            elif ip.kind == "source_frequency":
                interface.register_probe(
                    ip.name,
                    lambda: float(self.source.frequency(solver.current_time)),
                )
        for ic in self.spec.interface_controls:
            block = self.block(ic.block)
            interface.register_control(
                ic.name,
                lambda value, _b=block, _c=ic.control: _b.apply_control(_c, value),
            )


class SystemBuilder:
    """Compiles a validated :class:`SystemSpec` into a :class:`BuiltSystem`."""

    def __init__(
        self, spec: SystemSpec, registry: Optional[BlockRegistry] = None
    ) -> None:
        self.registry = registry or BLOCK_REGISTRY
        self.spec = spec.validate(self.registry)

    def build(self, *, vibration_source=None) -> BuiltSystem:
        """Instantiate blocks, wire the netlist, assemble, attach controller.

        ``vibration_source`` overrides the spec's excitation (any object
        with ``acceleration(t)`` and ``frequency(t)``).
        """
        spec = self.spec
        registry = self.registry

        source = vibration_source
        if source is None:
            exc = spec.excitation
            source = registry.create(
                exc.source_key,
                "source",
                {
                    "frequency_hz": exc.frequency_hz,
                    "amplitude_ms2": exc.amplitude_ms2,
                    "steps": [s.to_dict() for s in exc.steps],
                },
                None,
                expect_role="source",
            )

        context = BuildContext(
            acceleration=source.acceleration, frequency=source.frequency
        )

        blocks: Dict[str, AnalogueBlock] = {}
        netlist = Netlist()
        for bspec in spec.blocks:
            block = registry.create(
                bspec.key, bspec.name, bspec.params, context, expect_role="analogue"
            )
            if not isinstance(block, AnalogueBlock):
                raise ConfigurationError(
                    f"factory for block key {bspec.key!r} returned "
                    f"{type(block).__name__}, expected an AnalogueBlock"
                )
            declared = registry.get(bspec.key).terminal_names()
            if declared and tuple(declared) != tuple(block.terminal_names):
                raise ConfigurationError(
                    f"block {bspec.name!r} (key {bspec.key!r}): registered "
                    f"terminals {list(declared)} do not match the built "
                    f"block's terminals {list(block.terminal_names)}"
                )
            blocks[bspec.name] = block
            netlist.add_block(block)

        for conn in spec.connections:
            netlist.connect_port(
                blocks[conn.a],
                blocks[conn.b],
                voltage=conn.voltage,
                current=conn.current,
                net_prefix=conn.net_prefix,
            )

        assembler = SystemAssembler(netlist)

        controller: Optional[DigitalProcess] = None
        if spec.controller is not None:
            controller = registry.create(
                spec.controller.key,
                spec.controller.name,
                spec.controller.params,
                context,
                expect_role="controller",
            )

        return BuiltSystem(
            spec=spec,
            source=source,
            blocks=blocks,
            netlist=netlist,
            assembler=assembler,
            controller=controller,
        )
