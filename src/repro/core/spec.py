"""Declarative system description: blocks, wiring, probes, excitation.

A :class:`SystemSpec` is a plain-data description of a complete
mixed-technology harvester system: which registered blocks to instantiate
(with parameter overrides), how their terminal ports are wired, which
quantities to record, how the system is excited, whether a digital
controller is attached and how the solver step limit should be derived.
It is the input of :class:`~repro.core.builder.SystemBuilder` and the unit
of exchange for topology-aware sweeps: "add a topology" means "write a
spec", not "hand-wire 300 lines of Python".

Specs serialise losslessly to plain dicts (:meth:`SystemSpec.to_dict` /
:meth:`SystemSpec.from_dict`) and therefore to JSON; :mod:`repro.io.specio`
adds file I/O (JSON read/write, TOML read).  Validation happens against
the :class:`~repro.core.registry.BlockRegistry` and produces errors that
name the offending block, parameter or terminal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, ConnectionError_
from .registry import BLOCK_REGISTRY, BlockRegistry

__all__ = [
    "BlockSpec",
    "ConnectionSpec",
    "ProbeSpec",
    "InterfaceProbeSpec",
    "InterfaceControlSpec",
    "ControllerSpec",
    "ExcitationSpec",
    "FrequencyStepSpec",
    "SolverHints",
    "SystemSpec",
]

#: probe kinds understood by the builder's generic probe wiring
_PROBE_KINDS = ("terminal", "power", "state", "attr", "source_frequency")
#: digital-interface probe kinds (what the controller can observe)
_INTERFACE_PROBE_KINDS = ("state", "attr", "source_frequency")


@dataclass(frozen=True)
class BlockSpec:
    """One analogue block: registry key, instance name, parameter overrides."""

    key: str
    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"key": self.key, "name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BlockSpec":
        return cls(
            key=str(data["key"]),
            name=str(data["name"]),
            params=dict(data.get("params", {})),
        )

    def with_params(self, overrides: Mapping[str, object]) -> "BlockSpec":
        """Copy with ``overrides`` merged over the existing parameters."""
        merged = dict(self.params)
        merged.update(overrides)
        return replace(self, params=merged)


@dataclass(frozen=True)
class ConnectionSpec:
    """A two-terminal port tie between blocks ``a`` and ``b``.

    ``voltage`` and ``current`` are ``(terminal_of_a, terminal_of_b)``
    pairs, exactly as in :meth:`repro.core.netlist.Netlist.connect_port`.
    """

    a: str
    b: str
    voltage: Tuple[str, str]
    current: Tuple[str, str]
    net_prefix: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "a": self.a,
            "b": self.b,
            "voltage": list(self.voltage),
            "current": list(self.current),
            "net_prefix": self.net_prefix,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConnectionSpec":
        return cls(
            a=str(data["a"]),
            b=str(data["b"]),
            voltage=tuple(data["voltage"]),
            current=tuple(data["current"]),
            net_prefix=data.get("net_prefix"),
        )


@dataclass(frozen=True)
class ProbeSpec:
    """One recorded trace, wired generically by the builder.

    Kinds:

    * ``terminal`` — value of the shared net seen by ``block.targets[0]``;
    * ``power`` — product of two terminals ``(voltage, current)``;
    * ``state`` — a block state variable ``targets[0]``;
    * ``attr`` — a float attribute of the block object (e.g. the tuned
      ``resonant_frequency_hz``);
    * ``source_frequency`` — the excitation source's instantaneous
      frequency (``block`` is ignored).
    """

    name: str
    kind: str
    block: str = ""
    targets: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "block": self.block,
            "targets": list(self.targets),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProbeSpec":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            block=str(data.get("block", "")),
            targets=tuple(data.get("targets", ())),
        )


@dataclass(frozen=True)
class InterfaceProbeSpec:
    """A digital-interface probe the controller can read (Fig. 7 left side)."""

    name: str
    kind: str  # 'state' | 'attr' | 'source_frequency'
    block: str = ""
    target: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "block": self.block,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "InterfaceProbeSpec":
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            block=str(data.get("block", "")),
            target=str(data.get("target", "")),
        )


@dataclass(frozen=True)
class InterfaceControlSpec:
    """A digital-interface control: writes ``block.apply_control(control, v)``."""

    name: str
    block: str
    control: str

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "block": self.block, "control": self.control}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "InterfaceControlSpec":
        return cls(
            name=str(data["name"]),
            block=str(data["block"]),
            control=str(data["control"]),
        )


@dataclass(frozen=True)
class ControllerSpec:
    """The attached digital controller: registry key + parameters."""

    key: str
    name: str = "mcu"
    params: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"key": self.key, "name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ControllerSpec":
        return cls(
            key=str(data["key"]),
            name=str(data.get("name", "mcu")),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FrequencyStepSpec:
    """A scheduled ambient-frequency (and optionally amplitude) change."""

    time: float
    frequency_hz: float
    amplitude_ms2: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "frequency_hz": self.frequency_hz,
            "amplitude_ms2": self.amplitude_ms2,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FrequencyStepSpec":
        return cls(
            time=float(data["time"]),
            frequency_hz=float(data["frequency_hz"]),
            amplitude_ms2=(
                None
                if data.get("amplitude_ms2") is None
                else float(data["amplitude_ms2"])
            ),
        )


@dataclass(frozen=True)
class ExcitationSpec:
    """Ambient vibration: a single tone plus scheduled frequency steps."""

    frequency_hz: float = 70.0
    amplitude_ms2: float = 0.59
    steps: Tuple[FrequencyStepSpec, ...] = ()
    #: registry key of the source factory (role ``source``)
    source_key: str = "vibration_source"

    def max_frequency_hz(self) -> float:
        """Highest frequency the excitation ever reaches."""
        return max([self.frequency_hz] + [s.frequency_hz for s in self.steps])

    def to_dict(self) -> Dict[str, object]:
        return {
            "frequency_hz": self.frequency_hz,
            "amplitude_ms2": self.amplitude_ms2,
            "steps": [s.to_dict() for s in self.steps],
            "source_key": self.source_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExcitationSpec":
        return cls(
            frequency_hz=float(data.get("frequency_hz", 70.0)),
            amplitude_ms2=float(data.get("amplitude_ms2", 0.59)),
            steps=tuple(
                FrequencyStepSpec.from_dict(s) for s in data.get("steps", ())
            ),
            source_key=str(data.get("source_key", "vibration_source")),
        )


@dataclass(frozen=True)
class SolverHints:
    """How the builder derives default solver settings for this system.

    ``points_per_period`` caps the step at ``1 / (ppp * f_max)`` exactly as
    :func:`repro.harvester.system.default_solver_settings` does for the
    paper system; ``record_interval`` spaces the recorded samples.
    """

    points_per_period: int = 40
    record_interval: float = 1e-3

    def to_dict(self) -> Dict[str, object]:
        return {
            "points_per_period": self.points_per_period,
            "record_interval": self.record_interval,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverHints":
        return cls(
            points_per_period=int(data.get("points_per_period", 40)),
            record_interval=float(data.get("record_interval", 1e-3)),
        )


_SPEC_FIELDS = (
    "name",
    "description",
    "blocks",
    "connections",
    "probes",
    "interface_probes",
    "interface_controls",
    "controller",
    "excitation",
    "solver",
    "metadata",
)


@dataclass(frozen=True)
class SystemSpec:
    """Complete declarative description of one simulatable system."""

    name: str
    blocks: Tuple[BlockSpec, ...]
    connections: Tuple[ConnectionSpec, ...] = ()
    probes: Tuple[ProbeSpec, ...] = ()
    interface_probes: Tuple[InterfaceProbeSpec, ...] = ()
    interface_controls: Tuple[InterfaceControlSpec, ...] = ()
    controller: Optional[ControllerSpec] = None
    excitation: ExcitationSpec = field(default_factory=ExcitationSpec)
    solver: SolverHints = field(default_factory=SolverHints)
    description: str = ""
    metadata: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # accessors / functional updates
    # ------------------------------------------------------------------ #
    def block(self, name: str) -> BlockSpec:
        """The block spec named ``name``."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise ConfigurationError(
            f"spec {self.name!r} has no block named {name!r}; "
            f"blocks are {[b.name for b in self.blocks]}"
        )

    def with_block(self, block: BlockSpec) -> "SystemSpec":
        """Copy with the same-named block replaced by ``block``."""
        self.block(block.name)  # raises if absent, naming the block
        return replace(
            self,
            blocks=tuple(block if b.name == block.name else b for b in self.blocks),
        )

    def with_block_params(
        self, name: str, overrides: Mapping[str, object]
    ) -> "SystemSpec":
        """Copy with parameter overrides merged into block ``name``."""
        return self.with_block(self.block(name).with_params(overrides))

    def with_excitation(
        self,
        frequency_hz: Optional[float] = None,
        amplitude_ms2: Optional[float] = None,
        steps: Optional[Sequence[FrequencyStepSpec]] = None,
    ) -> "SystemSpec":
        """Copy with a modified ambient excitation."""
        exc = self.excitation
        return replace(
            self,
            excitation=replace(
                exc,
                frequency_hz=(
                    exc.frequency_hz if frequency_hz is None else float(frequency_hz)
                ),
                amplitude_ms2=(
                    exc.amplitude_ms2 if amplitude_ms2 is None else float(amplitude_ms2)
                ),
                steps=exc.steps if steps is None else tuple(steps),
            ),
        )

    def with_controller(self, controller: Optional[ControllerSpec]) -> "SystemSpec":
        """Copy with the controller replaced (or removed with ``None``)."""
        return replace(self, controller=controller)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, registry: Optional[BlockRegistry] = None) -> "SystemSpec":
        """Check the spec against the registry; returns ``self`` on success.

        Every failure raises :class:`~repro.core.errors.ConfigurationError`
        (or :class:`~repro.core.errors.ConnectionError_` for wiring
        problems) with a message naming the offending block, parameter or
        terminal.
        """
        registry = registry or BLOCK_REGISTRY
        if not self.blocks:
            raise ConfigurationError(f"spec {self.name!r} declares no blocks")

        seen: Dict[str, str] = {}
        for b in self.blocks:
            if b.name in seen:
                raise ConfigurationError(
                    f"spec {self.name!r}: duplicate block name {b.name!r} "
                    f"(keys {seen[b.name]!r} and {b.key!r})"
                )
            seen[b.name] = b.key
            entry = registry.get(b.key)  # unknown keys raise, listing options
            if entry.role != "analogue":
                raise ConfigurationError(
                    f"spec {self.name!r}: block {b.name!r} uses key {b.key!r} "
                    f"of role {entry.role!r}; only 'analogue' blocks may "
                    "appear in the blocks list"
                )
            registry.validate_params(b.key, b.params, owner=f"block {b.name!r}")

        by_name = {b.name: b for b in self.blocks}

        def check_terminal(block_name: str, terminal: str, where: str) -> None:
            if block_name not in by_name:
                raise ConnectionError_(
                    f"spec {self.name!r}: {where} references unknown block "
                    f"{block_name!r}; blocks are {sorted(by_name)}"
                )
            entry = registry.get(by_name[block_name].key)
            if entry.terminals and terminal not in entry.terminal_names():
                raise ConnectionError_(
                    f"spec {self.name!r}: {where} references dangling "
                    f"terminal {block_name}.{terminal}; block key "
                    f"{by_name[block_name].key!r} has terminals "
                    f"{list(entry.terminal_names())}"
                )

        for c in self.connections:
            where = f"connection {c.a}--{c.b}"
            check_terminal(c.a, c.voltage[0], where)
            check_terminal(c.b, c.voltage[1], where)
            check_terminal(c.a, c.current[0], where)
            check_terminal(c.b, c.current[1], where)

        for p in self.probes:
            if p.kind not in _PROBE_KINDS:
                raise ConfigurationError(
                    f"spec {self.name!r}: probe {p.name!r} has unknown kind "
                    f"{p.kind!r}; valid kinds are {list(_PROBE_KINDS)}"
                )
            if p.kind == "terminal":
                if len(p.targets) != 1:
                    raise ConfigurationError(
                        f"spec {self.name!r}: probe {p.name!r} (terminal) "
                        "needs exactly one target terminal"
                    )
                check_terminal(p.block, p.targets[0], f"probe {p.name!r}")
            elif p.kind == "power":
                if len(p.targets) != 2:
                    raise ConfigurationError(
                        f"spec {self.name!r}: probe {p.name!r} (power) needs "
                        "exactly two target terminals (voltage, current)"
                    )
                for t in p.targets:
                    check_terminal(p.block, t, f"probe {p.name!r}")
            elif p.kind in ("state", "attr"):
                if p.block not in by_name:
                    raise ConfigurationError(
                        f"spec {self.name!r}: probe {p.name!r} references "
                        f"unknown block {p.block!r}"
                    )
                if len(p.targets) != 1:
                    raise ConfigurationError(
                        f"spec {self.name!r}: probe {p.name!r} ({p.kind}) "
                        "needs exactly one target"
                    )

        for ip in self.interface_probes:
            if ip.kind not in _INTERFACE_PROBE_KINDS:
                raise ConfigurationError(
                    f"spec {self.name!r}: interface probe {ip.name!r} has "
                    f"unknown kind {ip.kind!r}; valid kinds are "
                    f"{list(_INTERFACE_PROBE_KINDS)}"
                )
            if ip.kind in ("state", "attr") and ip.block not in by_name:
                raise ConfigurationError(
                    f"spec {self.name!r}: interface probe {ip.name!r} "
                    f"references unknown block {ip.block!r}"
                )

        for ic in self.interface_controls:
            if ic.block not in by_name:
                raise ConfigurationError(
                    f"spec {self.name!r}: interface control {ic.name!r} "
                    f"references unknown block {ic.block!r}"
                )

        if self.controller is not None:
            registry.get(self.controller.key, expect_role="controller")
            registry.validate_params(
                self.controller.key,
                self.controller.params,
                owner=f"controller {self.controller.name!r}",
            )
        registry.get(self.excitation.source_key, expect_role="source")
        if self.solver.points_per_period < 4:
            raise ConfigurationError(
                f"spec {self.name!r}: points_per_period must be at least 4"
            )
        return self

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def topology_hash(self, registry: Optional[BlockRegistry] = None) -> str:
        """Stable hash of the structural topology (not the parameter values).

        Two specs share a hash exactly when they assemble to the same
        :class:`~repro.core.elimination.AssemblyStructure`: same block
        keys/names/order, same wiring, same *structural* parameters (e.g.
        multiplier stage count) and same controller attachment.  Sweeps
        group batched lanes and key checkpoints on this value.
        """
        registry = registry or BLOCK_REGISTRY
        payload = {
            "blocks": [
                [b.key, b.name, list(registry.structural_params(b.key, b.params))]
                for b in self.blocks
            ],
            "connections": [c.to_dict() for c in self.connections],
            "controller": None if self.controller is None else self.controller.key,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON/TOML compatible, lossless round-trip)."""
        return {
            "name": self.name,
            "description": self.description,
            "blocks": [b.to_dict() for b in self.blocks],
            "connections": [c.to_dict() for c in self.connections],
            "probes": [p.to_dict() for p in self.probes],
            "interface_probes": [ip.to_dict() for ip in self.interface_probes],
            "interface_controls": [ic.to_dict() for ic in self.interface_controls],
            "controller": None if self.controller is None else self.controller.to_dict(),
            "excitation": self.excitation.to_dict(),
            "solver": self.solver.to_dict(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SystemSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"system spec dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(_SPEC_FIELDS)}"
            )
        if "name" not in data or "blocks" not in data:
            raise ConfigurationError(
                "system spec dict needs at least 'name' and 'blocks'"
            )
        controller = data.get("controller")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            blocks=tuple(BlockSpec.from_dict(b) for b in data["blocks"]),
            connections=tuple(
                ConnectionSpec.from_dict(c) for c in data.get("connections", ())
            ),
            probes=tuple(ProbeSpec.from_dict(p) for p in data.get("probes", ())),
            interface_probes=tuple(
                InterfaceProbeSpec.from_dict(p)
                for p in data.get("interface_probes", ())
            ),
            interface_controls=tuple(
                InterfaceControlSpec.from_dict(c)
                for c in data.get("interface_controls", ())
            ),
            controller=(
                None if controller is None else ControllerSpec.from_dict(controller)
            ),
            excitation=ExcitationSpec.from_dict(data.get("excitation", {})),
            solver=SolverHints.from_dict(data.get("solver", {})),
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))
