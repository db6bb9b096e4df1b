"""Canonical plain-data serialisation of registered parameter classes.

The declarative experiment layer (:mod:`repro.api.experiment`) needs every
object that can influence a simulation result — harvester configurations,
solver settings, block parameters — to round-trip losslessly through plain
dicts (and therefore JSON and TOML).  Most of those objects are small
frozen dataclasses; this module provides one shared codec for them instead
of a hand-written ``to_dict``/``from_dict`` pair per class:

* :func:`register_serialisable` — declare a class encodable.  Dataclasses
  contribute their fields automatically; plain classes (e.g.
  :class:`~repro.blocks.microgenerator.MicrogeneratorParameters`) pass an
  explicit attribute tuple matching their constructor signature.
* :func:`encode_value` — recursively encode scalars, sequences, mappings
  and registered instances.  Registered instances become
  ``{"$type": <registered name>, <field>: <encoded value>, ...}``;
  ``None`` becomes ``{"$none": true}`` so that formats without a null
  (TOML) still round-trip optional fields exactly.
* :func:`decode_value` — the exact inverse; unknown ``$type`` tags and
  unregistered object types raise
  :class:`~repro.core.errors.ConfigurationError` naming the offender.

The encoding is deliberately canonical: encoding the same value twice
yields equal dicts, and ``json.dumps(..., sort_keys=True)`` over the
result is the hashing form used by experiment content hashes and cache
keys.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple, Type

from .errors import ConfigurationError

__all__ = [
    "register_serialisable",
    "encode_value",
    "decode_value",
    "registered_classes",
]

#: registered name -> (class, attribute names used by the codec)
_REGISTRY: Dict[str, Tuple[type, Tuple[str, ...]]] = {}
#: class -> registered name (for encode-side lookups)
_BY_CLASS: Dict[type, str] = {}

_NONE_TAG = "$none"
_TYPE_TAG = "$type"

_SCALARS = (bool, int, float, str)


def register_serialisable(
    cls: Type, *, name: Optional[str] = None, fields: Optional[Sequence[str]] = None
) -> Type:
    """Register ``cls`` with the codec; returns ``cls`` (decorator-friendly).

    ``fields`` defaults to the dataclass fields of ``cls``; non-dataclass
    classes must pass the attribute names explicitly (they double as the
    constructor keyword arguments used on decode).
    """
    key = name or cls.__name__
    if fields is None:
        if not dataclasses.is_dataclass(cls):
            raise ConfigurationError(
                f"cannot register {cls.__name__!r}: not a dataclass — pass "
                "an explicit fields=(...) tuple matching its constructor"
            )
        fields = tuple(f.name for f in dataclasses.fields(cls))
    existing = _REGISTRY.get(key)
    if existing is not None and existing[0] is not cls:
        raise ConfigurationError(
            f"serialisable name {key!r} already registered for "
            f"{existing[0].__name__}"
        )
    _REGISTRY[key] = (cls, tuple(fields))
    _BY_CLASS[cls] = key
    return cls


def registered_classes() -> Dict[str, type]:
    """Registered name -> class mapping (read-only snapshot)."""
    return {name: entry[0] for name, entry in _REGISTRY.items()}


def encode_value(value: object) -> object:
    """Encode ``value`` into plain JSON/TOML-compatible data.

    ``None`` encodes as ``{"$none": true}`` (TOML has no null); registered
    instances as tagged dicts; tuples as lists.  Unregistered object types
    raise :class:`ConfigurationError` naming the type — a declarative
    experiment must not silently drop state it cannot represent.
    """
    if value is None:
        return {_NONE_TAG: True}
    if isinstance(value, _SCALARS):
        return value
    key = _BY_CLASS.get(type(value))
    if key is not None:
        _, fields = _REGISTRY[key]
        encoded: Dict[str, object] = {_TYPE_TAG: key}
        for field in fields:
            encoded[field] = encode_value(getattr(value, field))
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, Mapping):
        out: Dict[str, object] = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"cannot serialise mapping key {k!r}: only string keys "
                    "round-trip through JSON/TOML"
                )
            out[k] = encode_value(v)
        return out
    raise ConfigurationError(
        f"cannot serialise value of type {type(value).__name__!r} "
        f"({value!r}); register the class with "
        "repro.core.serialise.register_serialisable or use a plain value"
    )


def decode_value(data: object) -> object:
    """Inverse of :func:`encode_value` (unknown ``$type`` tags rejected)."""
    if isinstance(data, _SCALARS) or data is None:
        return data
    if isinstance(data, list):
        return [decode_value(item) for item in data]
    if isinstance(data, Mapping):
        if data.get(_NONE_TAG) is True and len(data) == 1:
            return None
        tag = data.get(_TYPE_TAG)
        if tag is None:
            return {str(k): decode_value(v) for k, v in data.items()}
        entry = _REGISTRY.get(str(tag))
        if entry is None:
            raise ConfigurationError(
                f"unknown serialised type {tag!r}; registered types are "
                f"{sorted(_REGISTRY)}"
            )
        cls, fields = entry
        unknown = set(data) - {_TYPE_TAG} - set(fields)
        if unknown:
            raise ConfigurationError(
                f"serialised {tag!r} has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(fields)}"
            )
        kwargs = {
            field: decode_value(data[field]) for field in fields if field in data
        }
        return cls(**kwargs)
    raise ConfigurationError(
        f"cannot decode serialised value of type {type(data).__name__!r}"
    )


# ---------------------------------------------------------------------- #
# core solver settings and the baselines' implicit formulas are registered
# here (the harvester configuration classes register themselves in
# repro.harvester.config, the excitation schedule in
# repro.harvester.scenarios, the baseline solvers' settings in their own
# modules)
# ---------------------------------------------------------------------- #
from .integrators import ImplicitFormula  # noqa: E402
from .solver import SolverSettings  # noqa: E402  (registration, not cycle)
from .stepper import StepControlSettings  # noqa: E402

register_serialisable(StepControlSettings)
register_serialisable(SolverSettings)
register_serialisable(ImplicitFormula)
