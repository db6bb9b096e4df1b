"""Parameter sweeps and design exploration.

The paper's stated motivation for fast simulation is "development of an
automated design approach by which the best topology and optimal
parameters of energy harvester are obtained iteratively using multiple
simulations".  This module provides that iterative loop: sweep one or more
harvester parameters, simulate each candidate with the fast solver and
rank the candidates by harvested energy or output power.

A :class:`ParameterSweep` is the sweep *description*: the base scenario,
the grid axes and the metric.  ``Study.sweep(...)`` builds one, and
:class:`~repro.analysis.engine.SweepEngine` executes it with the knobs of
one :class:`~repro.api.options.RunOptions` — worker processes with
deterministic, serial-identical scores, checkpoint/resume through
:mod:`repro.io.csvio`, best-so-far progress reporting
(:func:`repro.io.report.format_sweep_progress`) and the
amortised-relinearisation solver profile.  See :mod:`repro.analysis.engine`.

Sweeps are **topology-aware**: the base scenario may be a spec-backed
:class:`~repro.harvester.topologies.SpecScenario`, in which case grid axes
address the :class:`~repro.core.spec.SystemSpec` — dotted names
(``"multiplier.stage_capacitance_f"``) override block parameters,
``excitation_frequency_hz``/``excitation_amplitude_ms2`` move the ambient
tone, and an axis whose *values* are :class:`~repro.core.spec.BlockSpec`
objects swaps whole blocks, i.e. sweeps the *topology* itself (use
:func:`repro.harvester.topologies.generator_variants` for ready-made
generator alternatives).  The sweep engine forms one lane block per
distinct topology, keyed by the spec's structural hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.results import SimulationResult
from ..core.spec import BlockSpec, SystemSpec
from ..harvester.config import HarvesterConfig
from ..harvester.scenarios import Scenario
from ..io.report import format_sweep_value
from .power import average_power, energy

__all__ = [
    "SweepPoint",
    "SweepResult",
    "ParameterSweep",
    "format_sweep_value",
    "sweep_excitation_frequency",
]

#: a metric maps a finished simulation to a scalar score (higher is better)
MetricFn = Callable[[SimulationResult], float]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated candidate of a sweep.

    Parameter values are usually floats, but topology axes carry
    :class:`~repro.core.spec.BlockSpec` values (displayed by their key).
    """

    parameters: Mapping[str, object]
    score: float
    metadata: Mapping[str, object] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All evaluated candidates, sortable by score.

    ``engine_info`` is filled by the sweep engine with run bookkeeping
    (worker count, resumed/evaluated candidate counts, solver profile).
    """

    metric_name: str
    points: List[SweepPoint] = field(default_factory=list)
    engine_info: Optional[object] = None

    def best(self) -> SweepPoint:
        """Candidate with the highest score."""
        if not self.points:
            raise ConfigurationError("the sweep produced no points")
        return max(self.points, key=lambda point: point.score)

    def sorted_points(self) -> List[SweepPoint]:
        """Candidates sorted from best to worst."""
        return sorted(self.points, key=lambda point: point.score, reverse=True)

    def format(self) -> str:
        """Plain-text ranking table."""
        lines = [f"sweep ranked by {self.metric_name} (best first)"]
        for point in self.sorted_points():
            params = ", ".join(
                f"{k}={format_sweep_value(v)}" for k, v in point.parameters.items()
            )
            lines.append(f"  {point.score:.6g}  <-  {params}")
        return "\n".join(lines)


def harvested_energy_metric(result: SimulationResult) -> float:
    """Total energy delivered by the microgenerator over the run (J)."""
    return energy(result["generator_power"])


def average_power_metric(result: SimulationResult) -> float:
    """Average microgenerator output power over the run (W)."""
    return average_power(result["generator_power"])


class ParameterSweep:
    """Grid sweep over scenario-configuration (or spec) modifications.

    Parameters
    ----------
    scenario:
        Base scenario; each candidate gets a modified copy.  Accepts the
        paper's config-backed :class:`~repro.harvester.scenarios.Scenario`
        and spec-backed
        :class:`~repro.harvester.topologies.SpecScenario` instances.
    parameters:
        Mapping from parameter name to the values to try.  Modification is
        performed by ``apply`` below.
    apply:
        Callable returning the modified description for one axis value:
        ``(config, name, value) -> config`` for config-backed scenarios,
        ``(spec, name, value) -> spec`` for spec-backed ones.  The default
        handles the common parameters (excitation frequency/amplitude,
        initial storage voltage for configs; excitation, dotted
        ``block.param`` paths and whole-:class:`BlockSpec` swaps for
        specs).
    metric:
        Scoring function (defaults to harvested energy).
    """

    def __init__(
        self,
        scenario: Scenario,
        parameters: Mapping[str, Sequence[object]],
        *,
        apply: Optional[Callable] = None,
        metric: MetricFn = harvested_energy_metric,
        metric_name: str = "harvested_energy_J",
    ) -> None:
        if not parameters:
            raise ConfigurationError("at least one swept parameter is required")
        self.scenario = scenario
        self.parameters = {name: list(values) for name, values in parameters.items()}
        for name, values in self.parameters.items():
            if not values:
                raise ConfigurationError(f"parameter {name!r} has no values to sweep")
        self.spec_backed = isinstance(
            getattr(scenario, "spec", None), SystemSpec
        ) and hasattr(scenario, "with_spec")
        if apply is not None:
            self.apply = apply
        else:
            self.apply = _default_spec_apply if self.spec_backed else _default_apply
        self.metric = metric
        self.metric_name = metric_name

    def candidates(self) -> Iterable[Dict[str, object]]:
        """Iterate over the full parameter grid.

        Delegates to :func:`repro.explore.grid_candidates` — the one
        canonical grid enumeration, shared with every exploration
        strategy so checkpoints and strategies agree on candidate order.
        """
        from ..explore import grid_candidates

        return grid_candidates(self.parameters)

    def candidate_scenario(self, candidate: Mapping[str, object]):
        """The scenario evaluating one grid point.

        Applies every axis value through ``apply`` to the base scenario's
        config (config-backed) or spec (spec-backed) and returns a fresh
        scenario copy.  For spec-backed sweeps, :class:`BlockSpec`-valued
        axes (topology swaps) are applied *first* regardless of grid
        order: swapping a block replaces all of its parameters, so a
        swap applied after a dotted ``block.param`` override would
        silently discard the override.
        """
        if self.spec_backed:
            spec = self.scenario.spec
            items = sorted(
                candidate.items(),
                key=lambda kv: 0 if isinstance(kv[1], BlockSpec) else 1,
            )
            for name, value in items:
                spec = self.apply(spec, name, value)
            return self.scenario.with_spec(spec)
        config = self.scenario.config
        for name, value in candidate.items():
            config = self.apply(config, name, value)
        return replace(self.scenario, config=config)


def _default_apply(config: HarvesterConfig, name: str, value: float) -> HarvesterConfig:
    """Apply the handful of parameters the examples sweep by default."""
    if name == "excitation_frequency_hz":
        return config.with_excitation(value)
    if name == "excitation_amplitude_ms2":
        return config.with_excitation(config.excitation.frequency_hz, value)
    if name == "initial_storage_voltage_v":
        return config.with_initial_storage_voltage(value)
    if name == "initial_tuned_frequency_hz":
        return config.with_initial_tuning(value)
    if name == "multiplier_capacitance_f":
        return replace(config, multiplier_capacitance_f=value)
    raise ConfigurationError(
        f"unknown sweep parameter {name!r}; provide a custom apply callable"
    )


def _default_spec_apply(spec: SystemSpec, name: str, value: object) -> SystemSpec:
    """Default axis semantics for spec-backed sweeps.

    * a :class:`BlockSpec` value replaces the same-named block — the axis
      sweeps the *topology* (the axis name is only a label; the block's own
      ``name`` decides what it replaces);
    * ``excitation_frequency_hz`` / ``excitation_amplitude_ms2`` move the
      ambient tone;
    * a dotted ``block.param`` name overrides one block parameter.
    """
    if isinstance(value, BlockSpec):
        return spec.with_block(value)
    if name == "excitation_frequency_hz":
        return spec.with_excitation(frequency_hz=float(value))
    if name == "excitation_amplitude_ms2":
        return spec.with_excitation(amplitude_ms2=float(value))
    if "." in name:
        block_name, param = name.split(".", 1)
        return spec.with_block_params(block_name, {param: value})
    raise ConfigurationError(
        f"unknown spec sweep parameter {name!r}; use a dotted "
        "'block.param' path, an excitation axis, BlockSpec values, or a "
        "custom apply callable"
    )


def sweep_excitation_frequency(
    scenario: Scenario,
    frequencies_hz: Sequence[float],
    *,
    metric: MetricFn = average_power_metric,
    metric_name: str = "average_power_W",
    **run_kwargs,
) -> SweepResult:
    """Convenience sweep of the ambient frequency (a power-vs-frequency curve).

    With the generator tuned to a fixed frequency this reproduces the
    classic resonance-peak behaviour that motivates tunable harvesters: the
    output power collapses as the ambient frequency moves away from the
    resonant frequency.

    Keyword arguments (``n_workers=``, ``checkpoint_path=``, ``progress=``,
    ``relinearise_interval=``, ``settings=``, ``integrator=``) become
    :class:`~repro.api.options.RunOptions` fields; execution routes
    through the :mod:`repro.api` planner (no deprecation warning — this
    convenience is maintained).
    """
    from ..api.options import RunOptions
    from ..api.planner import execute_sweep

    sweep = ParameterSweep(
        scenario,
        {"excitation_frequency_hz": list(frequencies_hz)},
        metric=metric,
        metric_name=metric_name,
    )
    return execute_sweep(sweep, RunOptions(**run_kwargs)).result
