"""Block registry: string-keyed catalogue of instantiable component blocks.

The paper closes by noting that the linearised state-space technique "is a
generic approach which can be applied to other types of microgenerators
...  All that is required are the model equations of each component
block".  The registry is the code-level expression of that claim: every
component block (and digital controller, and vibration source) registers
under a string key together with a *typed parameter schema*, so that a
system can be described purely by data — block keys plus parameter values
— and validated before anything is instantiated.

The registry is consumed by :mod:`repro.core.spec` (validation of a
:class:`~repro.core.spec.SystemSpec`) and :mod:`repro.core.builder`
(compilation of a spec into a runnable system).  The stock component
library registers itself in :mod:`repro.blocks.library`; it is imported
lazily through :meth:`BlockRegistry.ensure_default_library` so that the
core package never imports the blocks package at module level.

Three roles exist:

``analogue``
    Factory returns an :class:`~repro.core.block.AnalogueBlock`; entries
    additionally declare their terminal names/kinds so wiring can be
    checked at the spec level, before any block is built.
``controller``
    Factory returns a :class:`~repro.core.digital.DigitalProcess`.
``source``
    Factory returns an excitation object exposing ``acceleration(t)`` and
    ``frequency(t)``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "ParameterField",
    "RegistryEntry",
    "BlockRegistry",
    "BLOCK_REGISTRY",
    "register_block",
]

#: sentinel for "no default — the parameter must be supplied by the spec"
_REQUIRED = object()

#: python types accepted for each schema type name
_TYPE_CHECKS = {
    "float": (float, int),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
    "list": (list, tuple),
}

#: terminal kinds an analogue entry may declare
_TERMINAL_KINDS = ("voltage", "current")


@dataclass(frozen=True)
class ParameterField:
    """One typed parameter of a registered block.

    ``structural=True`` marks parameters that change the *shape* of the
    assembled system (state counts, terminal wiring) rather than mere
    coefficient values — e.g. the Dickson multiplier's stage count.  The
    topology hash of a :class:`~repro.core.spec.SystemSpec` covers exactly
    the structural parameters, so sweeps reuse one
    :class:`~repro.core.elimination.AssemblyStructure` across candidates
    that differ only in non-structural values.
    """

    name: str
    type: str = "float"
    default: object = _REQUIRED
    structural: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in _TYPE_CHECKS:
            raise ConfigurationError(
                f"parameter {self.name!r}: unknown schema type {self.type!r}; "
                f"valid types are {sorted(_TYPE_CHECKS)}"
            )

    @property
    def required(self) -> bool:
        """Whether the spec must supply a value (no default declared)."""
        return self.default is _REQUIRED

    def coerce(self, value: object, *, owner: str) -> object:
        """Validate/convert ``value``; errors name the owning block."""
        expected = _TYPE_CHECKS[self.type]
        if self.type != "bool" and isinstance(value, bool):
            raise ConfigurationError(
                f"{owner}: parameter {self.name!r} expects {self.type}, got bool"
            )
        if not isinstance(value, expected):
            raise ConfigurationError(
                f"{owner}: parameter {self.name!r} expects {self.type}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.type == "float":
            return float(value)
        if self.type == "list":
            return list(value)
        return value


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: key, factory, schema and port contract."""

    key: str
    factory: Callable
    role: str = "analogue"
    params: Tuple[ParameterField, ...] = ()
    #: (terminal name, kind) pairs — declared statically so a spec can be
    #: wire-checked without instantiating anything (analogue role only)
    terminals: Tuple[Tuple[str, str], ...] = ()
    description: str = ""

    def field(self, name: str) -> Optional[ParameterField]:
        """Schema field ``name``, or ``None`` when not declared."""
        for f in self.params:
            if f.name == name:
                return f
        return None

    def terminal_names(self) -> Tuple[str, ...]:
        """Declared terminal names in order."""
        return tuple(name for name, _kind in self.terminals)

    def terminal_kind(self, name: str) -> Optional[str]:
        """Declared kind of terminal ``name`` (``None`` when unknown)."""
        for tname, kind in self.terminals:
            if tname == name:
                return kind
        return None


class BlockRegistry:
    """String-keyed registry of component factories with typed schemas."""

    #: module that registers the stock component library on import
    DEFAULT_LIBRARY = "repro.blocks.library"

    def __init__(self) -> None:
        self._entries: Dict[str, RegistryEntry] = {}
        self._library_loaded = False

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        key: str,
        factory: Callable,
        *,
        role: str = "analogue",
        params: Sequence[ParameterField] = (),
        terminals: Sequence[Tuple[str, str]] = (),
        description: str = "",
    ) -> RegistryEntry:
        """Register ``factory`` under ``key``; duplicate keys are rejected."""
        if not key:
            raise ConfigurationError("registry key must be non-empty")
        if key in self._entries:
            raise ConfigurationError(f"registry key {key!r} is already registered")
        if role not in ("analogue", "controller", "source"):
            raise ConfigurationError(
                f"registry key {key!r}: unknown role {role!r}; "
                "valid roles are 'analogue', 'controller', 'source'"
            )
        names = [f.name for f in params]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"registry key {key!r}: duplicate parameter names in schema"
            )
        terminals = tuple((str(n), str(k)) for n, k in terminals)
        if role == "analogue" and not terminals:
            raise ConfigurationError(
                f"registry key {key!r}: an analogue entry must declare its "
                "terminals so specs can be wire-checked before building"
            )
        for tname, kind in terminals:
            if kind not in _TERMINAL_KINDS:
                raise ConfigurationError(
                    f"registry key {key!r}: terminal {tname!r} has kind "
                    f"{kind!r}; valid kinds are {_TERMINAL_KINDS}"
                )
        entry = RegistryEntry(
            key=key,
            factory=factory,
            role=role,
            params=tuple(params),
            terminals=terminals,
            description=description,
        )
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def ensure_default_library(self) -> None:
        """Import the stock component library (idempotent, lazy)."""
        if not self._library_loaded:
            self._library_loaded = True
            importlib.import_module(self.DEFAULT_LIBRARY)

    def __contains__(self, key: str) -> bool:
        self.ensure_default_library()
        return key in self._entries

    def keys(self, role: Optional[str] = None) -> List[str]:
        """Registered keys (optionally filtered by role), sorted."""
        self.ensure_default_library()
        return sorted(
            key
            for key, entry in self._entries.items()
            if role is None or entry.role == role
        )

    def get(self, key: str, *, expect_role: Optional[str] = None) -> RegistryEntry:
        """Entry for ``key``; unknown keys list the registered alternatives."""
        self.ensure_default_library()
        try:
            entry = self._entries[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown block key {key!r}; registered keys are "
                f"{self.keys()}"
            ) from None
        if expect_role is not None and entry.role != expect_role:
            raise ConfigurationError(
                f"block key {key!r} has role {entry.role!r}, "
                f"expected {expect_role!r}"
            )
        return entry

    # ------------------------------------------------------------------ #
    # parameter validation / instantiation
    # ------------------------------------------------------------------ #
    def validate_params(
        self, key: str, params: Mapping[str, object], *, owner: Optional[str] = None
    ) -> Dict[str, object]:
        """Coerce ``params`` against the schema of ``key``.

        Returns a fully-populated dict (defaults applied).  Unknown
        parameter names, missing required parameters and type mismatches
        raise :class:`~repro.core.errors.ConfigurationError` naming the
        offending block and parameter.
        """
        entry = self.get(key)
        label = owner or f"block {key!r}"
        known = {f.name for f in entry.params}
        for name in params:
            if name not in known:
                raise ConfigurationError(
                    f"{label}: unknown parameter {name!r} for block key "
                    f"{key!r}; valid parameters are {sorted(known)}"
                )
        resolved: Dict[str, object] = {}
        for f in entry.params:
            if f.name in params:
                resolved[f.name] = f.coerce(params[f.name], owner=label)
            elif f.required:
                raise ConfigurationError(
                    f"{label}: required parameter {f.name!r} of block key "
                    f"{key!r} is missing"
                )
            else:
                resolved[f.name] = f.default
        return resolved

    def structural_params(
        self, key: str, params: Mapping[str, object]
    ) -> Tuple[Tuple[str, object], ...]:
        """The (name, value) pairs of structural parameters, resolved."""
        entry = self.get(key)
        resolved = self.validate_params(key, params)
        return tuple(
            (f.name, resolved[f.name]) for f in entry.params if f.structural
        )

    def create(
        self,
        key: str,
        name: str,
        params: Mapping[str, object],
        context: object = None,
        *,
        expect_role: Optional[str] = None,
    ) -> object:
        """Instantiate the component registered under ``key``."""
        entry = self.get(key, expect_role=expect_role)
        resolved = self.validate_params(key, params, owner=f"block {name!r}")
        return entry.factory(name, resolved, context)


#: the process-wide default registry used by specs and builders
BLOCK_REGISTRY = BlockRegistry()


def register_block(
    key: str,
    *,
    role: str = "analogue",
    params: Sequence[ParameterField] = (),
    terminals: Sequence[Tuple[str, str]] = (),
    description: str = "",
    registry: Optional[BlockRegistry] = None,
):
    """Decorator form of :meth:`BlockRegistry.register` for factories."""

    def decorate(factory: Callable) -> Callable:
        (registry or BLOCK_REGISTRY).register(
            key,
            factory,
            role=role,
            params=params,
            terminals=terminals,
            description=description,
        )
        return factory

    return decorate
