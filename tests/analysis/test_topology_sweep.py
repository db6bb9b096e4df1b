"""Topology-aware sweep tests: spec axes, BlockSpec swaps, engine reuse."""

import numpy as np
import pytest

from repro import RunOptions, Study
from repro.analysis.sweep import average_power_metric, format_sweep_value
from repro.core.errors import ConfigurationError
from repro.core.spec import BlockSpec
from repro.harvester.scenarios import charging_scenario
from repro.harvester.topologies import generator_variants, piezoelectric_scenario

DUR = 0.03  # simulated seconds per candidate — keeps the suite fast


def _spec_sweep(grid, duration_s=DUR):
    scenario = piezoelectric_scenario(
        duration_s=duration_s, excitation_frequency_hz=70.0
    )
    return Study.scenario(scenario).sweep(
        grid, metric=average_power_metric, metric_name="average_power_W"
    )


class TestSpecAxes:
    def test_excitation_axis(self):
        result = _spec_sweep({"excitation_frequency_hz": [60.0, 70.0]}).run()
        assert len(result.points) == 2
        assert all(np.isfinite(p.score) for p in result.points)
        # on-resonance beats off-resonance
        assert result.best().parameters["excitation_frequency_hz"] == 70.0

    def test_dotted_block_param_axis(self):
        result = _spec_sweep(
            {"generator.series_resistance_ohm": [4.7e3, 15e3]}
        ).run()
        assert len(result.points) == 2
        scores = [p.score for p in result.points]
        assert scores[0] != scores[1]

    def test_unknown_spec_axis_rejected(self):
        sweep = _spec_sweep({"flux_capacitance": [1.0]})
        with pytest.raises(ConfigurationError, match="flux_capacitance"):
            sweep.run()

    def test_dotted_axis_with_unknown_block_rejected(self):
        sweep = _spec_sweep({"rectifier.series_resistance_ohm": [1.0]})
        with pytest.raises(ConfigurationError, match="rectifier"):
            sweep.run()


class TestTopologyAxis:
    def test_generator_axis_sweeps_three_topologies(self):
        variants = generator_variants(70.0)
        sweep = _spec_sweep({"generator": list(variants.values())})
        result = sweep.run()
        assert len(result.points) == 3
        assert all(np.isfinite(p.score) and p.score > 0 for p in result.points)
        keys = [p.parameters["generator"].key for p in result.points]
        assert keys == [
            "electromagnetic_generator",
            "piezoelectric_generator",
            "electrostatic_generator",
        ]
        # the ranking table renders BlockSpec values by key
        assert "piezoelectric_generator" in result.format()

    def test_parallel_matches_serial(self):
        variants = generator_variants(70.0)
        sweep = _spec_sweep({"generator": list(variants.values())})
        serial = sweep.run()
        parallel = sweep.options(n_workers=2).run()
        assert [p.score for p in serial.points] == [p.score for p in parallel.points]
        assert serial.best().parameters["generator"].key == (
            parallel.best().parameters["generator"].key
        )

    def test_reused_assembly_scores_equal_fresh_single_runs(self):
        # the engine always reuses one assembly structure per topology;
        # every candidate must still score exactly what a fresh,
        # structure-free single run of that candidate scores
        variants = generator_variants(70.0)
        sweep = _spec_sweep(
            {"generator": [variants["electromagnetic"], variants["piezoelectric"]]}
        )
        grid = sweep.plan().sweep
        fresh = [
            average_power_metric(
                Study.scenario(grid.candidate_scenario(candidate)).run().result
            )
            for candidate in grid.candidates()
        ]
        assert [p.score for p in sweep.run().points] == fresh

    def test_topology_key_distinguishes_specs(self):
        variants = generator_variants(70.0)
        sweep = _spec_sweep({"generator": list(variants.values())}).plan().sweep
        keys = {
            sweep.candidate_scenario(c).topology_key() for c in sweep.candidates()
        }
        assert len(keys) == 3  # one assembly-cache entry per topology

    def test_legacy_scenario_topology_key_still_works(self):
        scenario = charging_scenario(duration_s=DUR)
        key = scenario.topology_key()
        assert key[1] == scenario.config.multiplier_stages

    def test_cache_resume_with_topology_axis(self, tmp_path):
        variants = generator_variants(70.0)
        grid = {"generator": [variants["electromagnetic"], variants["piezoelectric"]]}
        cache = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
        first = _spec_sweep(grid).options(cache).run()
        resumed = _spec_sweep(grid).options(cache).run()
        assert resumed.engine_info.n_cache_hits == 2
        assert resumed.engine_info.n_evaluated == 0
        assert [p.score for p in first.points] == [p.score for p in resumed.points]

    def test_interrupted_topology_sweep_resumes_through_the_cache(self, tmp_path):
        # lanes block per topology: the first progress report comes after
        # one topology's block has written its two entries
        class Interrupted(Exception):
            pass

        def interrupt(done, total, best):
            raise Interrupted

        variants = generator_variants(70.0)
        grid = {
            "generator": [variants["electromagnetic"], variants["piezoelectric"]],
            "excitation_frequency_hz": [66.0, 70.0],
        }
        cache = dict(cache="readwrite", cache_dir=str(tmp_path))
        uninterrupted = _spec_sweep(grid).run()
        with pytest.raises(Interrupted):
            _spec_sweep(grid).options(RunOptions(progress=interrupt, **cache)).run()
        resumed = _spec_sweep(grid).options(RunOptions(**cache)).run()
        assert resumed.engine_info.n_cache_hits == 2
        assert resumed.engine_info.n_evaluated == 2
        assert [p.score for p in resumed.points] == [
            p.score for p in uninterrupted.points
        ]


class TestAxisOrdering:
    def test_dotted_override_survives_topology_swap_in_any_grid_order(self):
        """BlockSpec swaps apply first, so dotted overrides are not discarded."""
        variants = generator_variants(70.0)
        sweep = _spec_sweep(
            {
                # dotted axis listed BEFORE the topology axis on purpose
                "generator.series_resistance_ohm": [1e3, 9e3],
                "generator": [variants["piezoelectric"]],
            }
        )
        grid = sweep.plan().sweep
        scenarios = [grid.candidate_scenario(c) for c in grid.candidates()]
        resistances = [
            s.spec.block("generator").params["series_resistance_ohm"]
            for s in scenarios
        ]
        assert resistances == [1e3, 9e3]


class TestFormatting:
    def test_format_sweep_value(self):
        assert format_sweep_value(0.5) == "0.5"
        block = BlockSpec("piezoelectric_generator", "generator", {})
        assert format_sweep_value(block) == "piezoelectric_generator"
        assert format_sweep_value("text") == "text"

    def test_progress_formatter_handles_topology_axis_values(self):
        from repro.io.report import format_sweep_progress

        block = BlockSpec("piezoelectric_generator", "generator", {})
        line = format_sweep_progress(
            1, 3, 1.0e-6, {"generator": block, "excitation_amplitude_ms2": 0.59}
        )
        assert "generator=piezoelectric_generator" in line

    def test_engine_progress_callback_with_topology_axis(self):
        """End to end: the documented progress pipeline on a topology sweep."""
        from repro.io.report import format_sweep_progress

        variants = generator_variants(70.0)
        lines = []
        sweep = _spec_sweep(
            {"generator": [variants["electromagnetic"], variants["piezoelectric"]]}
        )
        sweep.options(
            progress=lambda done, total, best: lines.append(
                format_sweep_progress(done, total, best.score, best.parameters)
            )
        ).run()
        assert len(lines) == 2
        assert "generator=" in lines[-1]
