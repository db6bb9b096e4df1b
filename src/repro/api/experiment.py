"""Declarative experiments: a whole study as serialisable data.

PR 2 made *topologies* data (:class:`~repro.core.spec.SystemSpec`); this
module does the same for *experiments*.  An :class:`ExperimentSpec`
captures everything a :class:`~repro.api.study.Study` would run — the
scenario (config- or spec-backed), the validated
:class:`~repro.api.options.RunOptions`, the solver selection or
comparison, and the sweep grid — as plain data with a lossless
``to_dict``/``from_dict`` round-trip, JSON/TOML file I/O
(:func:`repro.io.specio.save_experiment` /
:func:`~repro.io.specio.load_experiment`) and a stable
:meth:`~ExperimentSpec.content_hash`.

The fluent and declarative forms are interconvertible::

    spec = Study.scenario(charging_scenario(0.2)).sweep(
        excitation_frequency_hz=[66.0, 70.0, 74.0]
    ).to_spec()
    spec.save("exploration.json")
    # ... later, or from the `repro` CLI ...
    result = Study.from_spec(load_experiment("exploration.json")).run()

``content_hash()`` hashes the *resolved* canonical form — the scenario's
full serialised state plus the result-affecting execution fingerprint
(:func:`repro.api.options.execution_fingerprint`) — so a factory-form TOML
(``scenario = {factory = "charging", duration_s = 0.2}``) and its inline
equivalent hash identically, while knobs that cannot change results
(worker counts, progress callbacks, cache mode itself) never invalidate
the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.serialise import decode_value, encode_value
from ..core.spec import BlockSpec
from ..harvester.scenarios import (
    Scenario,
    charging_scenario,
    scenario_1,
    scenario_2,
)
from ..harvester.topologies import (
    SpecScenario,
    electrostatic_scenario,
    piezoelectric_scenario,
)
from .options import RunOptions

__all__ = [
    "ExperimentSpec",
    "SweepAxis",
    "SweepSpec",
    "SCENARIO_FACTORIES",
    "metric_key_for",
    "scenario_from_dict",
    "scenario_to_dict",
]

#: named scenario factories resolvable from experiment files
#: (``scenario = {factory = "charging", duration_s = 0.2}``)
SCENARIO_FACTORIES: Dict[str, Callable] = {
    "scenario_1": scenario_1,
    "scenario_2": scenario_2,
    "charging": charging_scenario,
    "piezoelectric_charging": piezoelectric_scenario,
    "electrostatic_charging": electrostatic_scenario,
}

_BLOCK_SPEC_TAG = "$block_spec"

_EXPERIMENT_FIELDS = (
    "name",
    "description",
    "scenario",
    "options",
    "solver",
    "solver_kwargs",
    "compare",
    "sweep",
    "explore",
)

#: keys of the ``[explore]`` experiment section (folded into RunOptions)
_EXPLORE_FIELDS = ("strategy", "budget", "seed")


def _metrics() -> Dict[str, Tuple[Callable, str]]:
    """Named metric registry (lazy import: analysis pulls in the engine)."""
    from ..analysis.sweep import average_power_metric, harvested_energy_metric

    return {
        "harvested_energy": (harvested_energy_metric, "harvested_energy_J"),
        "average_power": (average_power_metric, "average_power_W"),
    }


def metric_key_for(metric: Callable) -> Optional[str]:
    """The registry key of a known metric callable (``None`` for custom)."""
    for key, (fn, _) in _metrics().items():
        if metric is fn:
            return key
    return None


def scenario_to_dict(scenario) -> Dict[str, object]:
    """Canonical dict of any scenario the facade accepts.

    Requires the scenario to provide ``to_dict`` (both
    :class:`~repro.harvester.scenarios.Scenario` and
    :class:`~repro.harvester.topologies.SpecScenario` do); duck-typed
    scenario objects without one cannot become declarative experiments or
    cache keys, and are rejected by name.
    """
    to_dict = getattr(scenario, "to_dict", None)
    if not callable(to_dict):
        raise ConfigurationError(
            f"scenario {getattr(scenario, 'name', scenario)!r} "
            f"({type(scenario).__name__}) has no to_dict(); declarative "
            "experiments and result caching need a serialisable scenario "
            "(Scenario or SpecScenario)"
        )
    return to_dict()


def scenario_from_dict(data: Mapping[str, object]):
    """Resolve the ``scenario`` section of an experiment dict.

    Two forms are accepted: a factory reference
    (``{"factory": "charging", "duration_s": 0.2}`` — keyword arguments
    reach the factory) and the inline canonical form produced by
    ``Scenario.to_dict`` / ``SpecScenario.to_dict`` (dispatched on the
    ``type`` tag).
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"experiment scenario must be a table/dict, got {type(data).__name__}"
        )
    if "factory" in data:
        name = str(data["factory"])
        factory = SCENARIO_FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown scenario factory {name!r}; available factories "
                f"are {sorted(SCENARIO_FACTORIES)}"
            )
        kwargs = {key: value for key, value in data.items() if key != "factory"}
        try:
            return factory(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"scenario factory {name!r} rejected arguments "
                f"{sorted(kwargs)}: {exc}"
            ) from None
    kind = data.get("type")
    if kind == "scenario":
        return Scenario.from_dict(data)
    if kind == "spec_scenario":
        return SpecScenario.from_dict(data)
    raise ConfigurationError(
        f"experiment scenario has unknown type {kind!r}; use a "
        "{'factory': ...} reference or an inline 'scenario' / "
        "'spec_scenario' table"
    )


def _fold_explore_section(explore_data, options_data) -> Dict[str, object]:
    """Merge an ``[explore]`` experiment section into the options dict.

    The section is sugar over ``RunOptions(explore=, budget=, seed=)``;
    naming a knob in both places is rejected rather than silently
    resolved, mirroring every other duplication check in this module.
    """
    if not isinstance(explore_data, Mapping):
        raise ConfigurationError(
            f"experiment explore must be a table/dict, got "
            f"{type(explore_data).__name__}"
        )
    unknown = set(explore_data) - set(_EXPLORE_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"explore dict has unknown fields {sorted(unknown)}; valid "
            f"fields are {list(_EXPLORE_FIELDS)}"
        )
    if "strategy" not in explore_data:
        raise ConfigurationError(
            "explore dict needs a 'strategy' naming the exploration "
            "strategy (see repro.explore.EXPLORE_STRATEGIES)"
        )
    if not isinstance(options_data, Mapping):
        raise ConfigurationError(
            f"experiment options must be a table/dict, got "
            f"{type(options_data).__name__}"
        )
    merged = dict(options_data)
    for section_key, option_key in (
        ("strategy", "explore"),
        ("budget", "budget"),
        ("seed", "seed"),
    ):
        if section_key not in explore_data:
            continue
        if option_key in merged:
            raise ConfigurationError(
                f"experiment names {option_key!r} in both [options] and "
                f"[explore]; keep the exploration knobs in [explore] only"
            )
        value = explore_data[section_key]
        merged[option_key] = (
            str(value) if section_key == "strategy" else int(value)
        )
    return merged


@dataclass(frozen=True)
class SweepAxis:
    """One sweep-grid axis: parameter name plus the values to try.

    Values are usually numbers; :class:`~repro.core.spec.BlockSpec` values
    make the axis a *topology axis* (the whole block is swapped per
    candidate) and serialise as tagged ``{"$block_spec": {...}}`` tables.
    """

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(
                f"sweep axis {self.name!r} has no values to sweep"
            )

    def to_list(self) -> List[object]:
        """The values in serialised form."""
        return [
            {_BLOCK_SPEC_TAG: value.to_dict()}
            if isinstance(value, BlockSpec)
            else encode_value(value)
            for value in self.values
        ]

    @classmethod
    def from_list(cls, name: str, values) -> "SweepAxis":
        """Rebuild an axis from its serialised values."""
        if not isinstance(values, (list, tuple)):
            raise ConfigurationError(
                f"sweep axis {name!r} must map to a list of values, got "
                f"{type(values).__name__}"
            )
        decoded = []
        for value in values:
            if isinstance(value, Mapping) and _BLOCK_SPEC_TAG in value:
                extra = set(value) - {_BLOCK_SPEC_TAG}
                if extra:
                    raise ConfigurationError(
                        f"sweep axis {name!r}: a $block_spec value cannot "
                        f"carry extra fields {sorted(extra)}"
                    )
                decoded.append(BlockSpec.from_dict(value[_BLOCK_SPEC_TAG]))
            else:
                decoded.append(decode_value(value))
        return cls(name=name, values=tuple(decoded))


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep definition: ordered axes plus a named metric."""

    axes: Tuple[SweepAxis, ...]
    metric: str = "harvested_energy"
    metric_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("a sweep needs at least one axis")
        seen = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ConfigurationError(
                    f"duplicate sweep axis {axis.name!r}"
                )
            seen.add(axis.name)
        metrics = _metrics()
        if self.metric not in metrics:
            raise ConfigurationError(
                f"unknown sweep metric {self.metric!r}; named metrics are "
                f"{sorted(metrics)}"
            )

    def resolved_metric(self) -> Tuple[Callable, str]:
        """The metric callable and effective metric name."""
        fn, default_name = _metrics()[self.metric]
        return fn, self.metric_name or default_name

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "axes": {axis.name: axis.to_list() for axis in self.axes},
            "metric": self.metric,
        }
        if self.metric_name is not None:
            data["metric_name"] = self.metric_name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        valid = ("axes", "metric", "metric_name")
        unknown = set(data) - set(valid)
        if unknown:
            raise ConfigurationError(
                f"sweep dict has unknown fields {sorted(unknown)}; valid "
                f"fields are {list(valid)}"
            )
        axes = data.get("axes")
        if not isinstance(axes, Mapping) or not axes:
            raise ConfigurationError(
                "sweep dict needs a non-empty 'axes' table mapping "
                "parameter names to value lists"
            )
        return cls(
            axes=tuple(
                SweepAxis.from_list(str(name), values)
                for name, values in axes.items()
            ),
            metric=str(data.get("metric", "harvested_energy")),
            metric_name=(
                None
                if data.get("metric_name") is None
                else str(data["metric_name"])
            ),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A whole experiment as data: scenario + options + dispatch.

    The declarative counterpart of a fluent :class:`Study` — build one
    with :meth:`Study.to_spec`, :meth:`from_dict` or
    :func:`repro.io.specio.load_experiment`, and run it with
    :meth:`to_study` (or the ``repro`` command line).
    """

    scenario: object
    options: RunOptions = field(default_factory=RunOptions)
    solver: str = "proposed"
    solver_kwargs: Mapping[str, object] = field(default_factory=dict)
    compare: Tuple[str, ...] = ()
    sweep: Optional[SweepSpec] = None
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.scenario is None or not hasattr(self.scenario, "build_harvester"):
            raise ConfigurationError(
                "ExperimentSpec needs a scenario object (Scenario or "
                "SpecScenario); see repro.api.experiment.scenario_from_dict"
            )
        from .planner import SOLVERS

        if self.solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown solver {self.solver!r}; choose from {SOLVERS}"
            )
        for solver in self.compare:
            if solver not in SOLVERS:
                raise ConfigurationError(
                    f"unknown solver {solver!r} in compare; choose from {SOLVERS}"
                )
        if self.sweep is not None and self.compare:
            raise ConfigurationError(
                "incoherent experiment: sweep with compare — a sweep always "
                "runs the proposed solver; drop one of the two"
            )
        if self.options.explore is not None and self.sweep is None:
            raise ConfigurationError(
                f"incoherent experiment: explore={self.options.explore!r} "
                "without a sweep — exploration strategies generate sweep "
                "candidates; add a [sweep] section or drop [explore]"
            )

    # ------------------------------------------------------------------ #
    # interconversion with the fluent form
    # ------------------------------------------------------------------ #
    def to_study(self):
        """The equivalent fluent :class:`~repro.api.study.Study`."""
        from .study import Study

        return Study.from_spec(self)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (lossless JSON/TOML round-trip).

        The scenario is always emitted in its inline canonical form (the
        factory shorthand is an *input* convenience; see
        :func:`scenario_from_dict`).  Empty/default sections are omitted.
        """
        data: Dict[str, object] = {}
        if self.name:
            data["name"] = self.name
        if self.description:
            data["description"] = self.description
        data["scenario"] = scenario_to_dict(self.scenario)
        options = self.options.to_dict()
        # the exploration knobs live on RunOptions but serialise as their
        # own [explore] section — the strategy is experiment design, not
        # an execution detail, and deserves first-class visibility in the
        # file format
        explore: Dict[str, object] = {}
        if options.pop("explore", None) is not None:
            explore["strategy"] = self.options.explore
            if options.pop("budget", None) is not None:
                explore["budget"] = self.options.budget
            if options.pop("seed", None) is not None:
                explore["seed"] = self.options.seed
        if options:
            data["options"] = options
        if explore:
            data["explore"] = explore
        if self.solver != "proposed":
            data["solver"] = self.solver
        if self.solver_kwargs:
            data["solver_kwargs"] = encode_value(dict(self.solver_kwargs))
        if self.compare:
            data["compare"] = list(self.compare)
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        """Rebuild an experiment from :meth:`to_dict` output.

        Unknown fields are rejected by name, in the same style as
        :meth:`repro.core.spec.SystemSpec.from_dict`.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"experiment must be a table/dict, got {type(data).__name__}"
            )
        unknown = set(data) - set(_EXPERIMENT_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"experiment dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(_EXPERIMENT_FIELDS)}"
            )
        if "scenario" not in data:
            raise ConfigurationError(
                "experiment dict needs at least a 'scenario' section"
            )
        options_data = data.get("options", {})
        explore_data = data.get("explore")
        if explore_data is not None:
            options_data = _fold_explore_section(explore_data, options_data)
        solver_kwargs = data.get("solver_kwargs", {})
        if not isinstance(solver_kwargs, Mapping):
            raise ConfigurationError(
                "experiment solver_kwargs must be a table/dict, got "
                f"{type(solver_kwargs).__name__}"
            )
        if solver_kwargs:
            # the baseline solvers' settings register with the codec when
            # their modules load, which no run has done yet for a file
            from .. import baselines  # noqa: F401

        sweep_data = data.get("sweep")
        return cls(
            scenario=scenario_from_dict(data["scenario"]),
            options=RunOptions.from_dict(options_data),
            solver=str(data.get("solver", "proposed")),
            solver_kwargs={
                str(key): decode_value(value)
                for key, value in solver_kwargs.items()
            },
            compare=tuple(str(s) for s in data.get("compare", ())),
            sweep=None if sweep_data is None else SweepSpec.from_dict(sweep_data),
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse an experiment from its JSON form."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write this experiment to a ``.json`` or ``.toml`` file."""
        from ..io.specio import save_experiment

        return save_experiment(self, path)

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read an experiment from a ``.json`` or ``.toml`` file."""
        from ..io.specio import load_experiment

        return load_experiment(path)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def resolved_payload(self) -> Dict[str, object]:
        """The canonical payload :meth:`content_hash` digests.

        Covers exactly what determines the *results*: the fully resolved
        scenario, the execution fingerprint
        (:meth:`RunOptions.fingerprint` — integrator, settings,
        relinearisation profile, seed), the solver dispatch and the
        sweep definition.  Deliberately excluded: scheduling and
        bookkeeping knobs (worker count, lane width, checkpoint path,
        cache mode, experiment name/description) that cannot change a
        score or a waveform.
        """
        payload: Dict[str, object] = {
            "scenario": scenario_to_dict(self.scenario),
            "execution": self.options.fingerprint(),
            "solver": self.solver,
            "solver_kwargs": encode_value(dict(self.solver_kwargs)),
            "compare": list(self.compare),
            "sweep": None,
        }
        if self.sweep is not None:
            _, metric_name = self.sweep.resolved_metric()
            payload["sweep"] = {
                "axes": [
                    [axis.name, axis.to_list()] for axis in self.sweep.axes
                ],
                "metric": self.sweep.metric,
                "metric_name": metric_name,
            }
        if self.options.explore is not None:
            # the strategy (and its budget) determines *which* candidates
            # run, so two explorations of the same grid with different
            # strategies are different experiments (the seed is already in
            # the execution fingerprint above)
            payload["explore"] = {
                "strategy": self.options.explore,
                "budget": self.options.budget,
                "seed": self.options.seed,
            }
        return payload

    def content_hash(self) -> str:
        """Stable hex digest of :meth:`resolved_payload`.

        Equal hashes mean "this experiment produces the same results":
        the factory and inline scenario forms, and fluent and declarative
        studies, all hash identically.  Cache keys salt this with the code
        version (:func:`repro.cache.code_version_salt`).
        """
        return hashlib.sha256(
            json.dumps(self.resolved_payload(), sort_keys=True).encode()
        ).hexdigest()

    def describe(self) -> str:
        """One-line human-readable description."""
        label = self.name or getattr(self.scenario, "name", "<scenario>")
        if self.sweep is not None:
            axes = " x ".join(
                f"{axis.name}[{len(axis.values)}]" for axis in self.sweep.axes
            )
            if self.options.explore is not None:
                return (
                    f"experiment {label!r}: {self.options.explore!r} "
                    f"exploration over {axes}"
                )
            return f"experiment {label!r}: sweep over {axes}"
        if self.compare:
            return f"experiment {label!r}: compare {', '.join(self.compare)}"
        return f"experiment {label!r}: single run on the {self.solver} solver"

    def with_options(self, **changes) -> "ExperimentSpec":
        """Copy with some :class:`RunOptions` fields changed."""
        return replace(self, options=self.options.replace(**changes))
