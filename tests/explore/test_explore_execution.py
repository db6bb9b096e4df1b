"""Exploration strategies driven end-to-end through the facade.

The headline contracts of the exploration refactor:

* ``explore="grid"`` is byte-identical to the dense sweep it replaced,
  at every lane width and worker count;
* grid extension serves every previously swept point from the result
  cache (``n_cache_hits == len(subset grid)``);
* seeded sampling is deterministic across worker counts and across
  fresh interpreter processes;
* halving recovers the dense-grid winner at a fraction of the work, and
  its final score is a true full-horizon score;
* checkpoints compose: grid exploration resumes legacy dense-sweep
  checkpoints (and vice versa), mismatched strategies refuse.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import RunOptions, Study, charging_scenario
from repro.api import ExplorationResult
from repro.core.errors import ConfigurationError
from repro.explore import grid_candidates

AXES = {"excitation_frequency_hz": [66.0, 68.0, 70.0, 74.0]}
HALVING_AXES = {
    "excitation_frequency_hz": [62.0, 66.0, 70.0, 74.0],
    "excitation_amplitude_ms2": [0.3, 0.59],
}
SAMPLE_AXES = {
    "excitation_frequency_hz": [62.0, 64.0, 66.0, 68.0, 70.0, 72.0, 74.0, 76.0],
}


def study(options, axes=AXES):
    return (
        Study.scenario(charging_scenario(duration_s=0.05))
        .options(options)
        .sweep(axes)
    )


def ranking(result):
    return [(dict(p.parameters), p.score) for p in result.points]


# ---------------------------------------------------------------------- #
# the equivalence contract: explore="grid" == the legacy dense sweep
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "label,options_factory",
    [
        ("scalar_path", lambda **kw: RunOptions(lane_width=1, **kw)),
        ("workers", lambda **kw: RunOptions(n_workers=2, **kw)),
        ("lanes", lambda **kw: RunOptions(lane_width=2, **kw)),
    ],
)
def test_grid_explore_is_byte_identical_to_the_dense_sweep(
    label, options_factory
):
    dense = study(options_factory()).run()
    grid = study(options_factory(explore="grid")).run()
    assert isinstance(grid, ExplorationResult)
    assert grid.strategy == "grid"
    assert ranking(grid) == ranking(dense)
    assert dict(grid.best().parameters) == dict(dense.best().parameters)
    assert grid.best().score == dense.best().score
    assert grid.work_fraction == 1.0
    assert len(grid.rounds) == 1


def test_grid_explore_plan_is_inspectable():
    plan = study(RunOptions(explore="grid")).plan()
    assert plan.kind == "explore"
    assert "grid" in plan.describe()
    assert "full-horizon" in plan.describe()


# ---------------------------------------------------------------------- #
# halving: same winner, less work
# ---------------------------------------------------------------------- #
def test_halving_recovers_the_dense_grid_winner_for_less_work():
    dense = study(RunOptions(), HALVING_AXES).run()
    halved = study(RunOptions(explore="halving"), HALVING_AXES).run()
    assert halved.strategy == "halving"
    assert dict(halved.best().parameters) == dict(dense.best().parameters)
    # the last round re-scores survivors at full horizon, so the winning
    # score is the dense sweep's exact float
    assert halved.best().score == dense.best().score
    assert halved.work_fraction < 1.0
    assert len(halved.rounds) >= 2
    assert halved.rounds[0].horizon < 1.0
    assert halved.rounds[-1].horizon == 1.0
    # survivors are reported best-first
    assert dict(halved.best().parameters) == halved.survivors[0]
    # only full-horizon points enter the final ranking
    assert all("horizon" not in p.metadata for p in halved.points)


def test_halving_composes_with_workers_and_cache(tmp_path):
    options = RunOptions(
        explore="halving",
        n_workers=2,
        cache="readwrite",
        cache_dir=str(tmp_path),
    )
    cold = study(options, HALVING_AXES).run()
    assert cold.run.n_cache_hits == 0
    warm = study(options, HALVING_AXES).run()
    assert warm.run.n_simulations == 0
    assert warm.run.n_cache_hits == cold.run.n_simulations
    assert ranking(warm) == ranking(cold)
    assert warm.work_fraction == 0.0  # cache hits cost no simulation work


def test_halving_full_horizon_entries_are_cache_compatible_with_dense(
    tmp_path,
):
    # a dense sweep warms the cache; the halving run's *final* round then
    # hits it (short-horizon rounds key on the scaled scenario and miss)
    options = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
    study(options, HALVING_AXES).run()
    halved = study(options.replace(explore="halving"), HALVING_AXES).run()
    assert halved.rounds[-1].n_cache_hits == len(halved.rounds[-1].points)


# ---------------------------------------------------------------------- #
# grid extension: old points come from the cache
# ---------------------------------------------------------------------- #
def test_grid_extension_serves_the_subset_grid_from_cache(tmp_path):
    subset = {"excitation_frequency_hz": [66.0, 70.0]}
    superset = AXES

    def options(**kw):
        return RunOptions(cache="readwrite", cache_dir=str(tmp_path), **kw)

    first = study(options(), subset).run()
    extended = study(options(explore="extend"), superset).run()

    assert extended.strategy == "extend"
    assert extended.run.n_cache_hits == len(list(grid_candidates(subset)))
    assert extended.run.n_simulations == len(list(grid_candidates(superset))) - len(
        list(grid_candidates(subset))
    )
    # inherited points carry the exact cached scores
    by_freq = {
        point.parameters["excitation_frequency_hz"]: point.score
        for point in extended.points
    }
    for point in first.points:
        freq = point.parameters["excitation_frequency_hz"]
        assert by_freq[freq] == point.score


def test_grid_extension_requires_a_cache():
    with pytest.raises(ConfigurationError, match="cache"):
        RunOptions(explore="extend").validate()


# ---------------------------------------------------------------------- #
# seeded sampling: determinism across workers and processes
# ---------------------------------------------------------------------- #
def test_seeded_sampling_is_deterministic_across_worker_counts():
    serial = study(
        RunOptions(explore="random", budget=3, seed=11), SAMPLE_AXES
    ).run()
    parallel = study(
        RunOptions(explore="random", budget=3, seed=11, n_workers=2), SAMPLE_AXES
    ).run()
    assert len(serial.points) == 3
    assert ranking(serial) == ranking(parallel)


def test_seeded_sampler_proposals_survive_a_fresh_interpreter():
    # the PYTHONHASHSEED-independence contract: a brand-new process with
    # the same seed proposes the identical candidate list
    code = (
        "import json\n"
        "from repro.explore import RandomStrategy, LatinHypercubeStrategy\n"
        "axes = {'excitation_frequency_hz': "
        "[62.0, 64.0, 66.0, 68.0, 70.0, 72.0, 74.0, 76.0]}\n"
        "out = {}\n"
        "for cls in (RandomStrategy, LatinHypercubeStrategy):\n"
        "    s = cls(axes, budget=3, seed=11)\n"
        "    out[s.name] = [dict(p.parameters) for p in s.propose(0)]\n"
        "print(json.dumps(out))\n"
    )
    # the child imports the same ``repro`` as this process, whether it
    # comes from an install or from pytest's ``pythonpath`` setting
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    python_path = os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    env = dict(os.environ, PYTHONHASHSEED="271828", PYTHONPATH=python_path)
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    import json

    from repro.explore import LatinHypercubeStrategy, RandomStrategy

    expected = {}
    for cls in (RandomStrategy, LatinHypercubeStrategy):
        strategy = cls(SAMPLE_AXES, budget=3, seed=11)
        expected[strategy.name] = [
            dict(p.parameters) for p in strategy.propose(0)
        ]
    assert json.loads(fresh.stdout) == expected


def test_seed_is_part_of_the_execution_fingerprint():
    base = RunOptions(explore="random", budget=3, seed=1)
    other = RunOptions(explore="random", budget=3, seed=2)
    assert base.fingerprint()["seed"] == 1
    assert base.fingerprint() != other.fingerprint()
    # a dense sweep records the absence of a seed explicitly
    assert RunOptions().fingerprint()["seed"] is None


# ---------------------------------------------------------------------- #
# checkpoints compose with exploration
# ---------------------------------------------------------------------- #
def test_halving_checkpoint_resumes_without_resimulating(tmp_path):
    options = RunOptions(
        explore="halving", checkpoint_path=str(tmp_path / "halving.csv")
    )
    first = study(options, HALVING_AXES).run()
    rerun = study(options, HALVING_AXES).run()
    assert rerun.run.n_simulations == 0
    assert rerun.run.n_resumed == first.run.n_simulations
    assert ranking(rerun) == ranking(first)


def test_grid_explore_resumes_a_legacy_dense_checkpoint(tmp_path):
    path = str(tmp_path / "sweep.csv")
    dense = study(RunOptions(checkpoint_path=path)).run()
    resumed = study(RunOptions(explore="grid", checkpoint_path=path)).run()
    assert resumed.run.n_resumed == len(dense.points)
    assert resumed.run.n_simulations == 0
    assert ranking(resumed) == ranking(dense)
    # and the other direction: a grid-explore checkpoint feeds a dense sweep
    fresh = str(tmp_path / "grid.csv")
    study(RunOptions(explore="grid", checkpoint_path=fresh)).run()
    legacy = study(RunOptions(checkpoint_path=fresh)).run()
    assert legacy.engine_info.n_resumed == len(dense.points)


def test_checkpoint_refuses_a_different_strategy(tmp_path):
    path = str(tmp_path / "halving.csv")
    study(RunOptions(explore="halving", checkpoint_path=path), HALVING_AXES).run()
    with pytest.raises(ConfigurationError):
        study(
            RunOptions(explore="random", budget=3, seed=1, checkpoint_path=path),
            HALVING_AXES,
        ).run()


# ---------------------------------------------------------------------- #
# options / spec plumbing
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(budget=3), "without"),
        (dict(seed=1), "without"),
        (dict(explore="annealing"), "unknown exploration strategy"),
        (dict(explore="grid", budget=3), "no budget"),
        (dict(explore="extend", seed=1, cache="readwrite"), "no seed"),
        (dict(explore="random", seed=1), "needs a budget"),
        (dict(explore="latin", budget=3), "needs a seed"),
        (dict(explore="random", budget=0, seed=1), "at least 1"),
        (dict(explore="halving", seed=1), "seed without budget"),
        (dict(explore="extend"), "cache"),
    ],
)
def test_incoherent_explore_options_are_rejected_pairwise(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        RunOptions(**kwargs).validate()


def test_explore_knobs_are_rejected_on_single_runs_and_comparisons():
    options = RunOptions(explore="halving")
    with pytest.raises(ConfigurationError, match="explore"):
        Study.scenario(charging_scenario(duration_s=0.05)).options(options).run()
    with pytest.raises(ConfigurationError, match="explore"):
        (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(options)
            .compare("proposed", "reference")
            .run()
        )


def test_experiment_spec_explore_section_roundtrips(tmp_path):
    from repro.api import ExperimentSpec

    toml_text = (
        'name = "roundtrip"\n'
        "[scenario]\n"
        'factory = "charging"\n'
        "duration_s = 0.05\n"
        "[sweep]\n"
        'metric = "harvested_energy"\n'
        "[sweep.axes]\n"
        "excitation_frequency_hz = [66.0, 70.0]\n"
        "[explore]\n"
        'strategy = "random"\n'
        "budget = 2\n"
        "seed = 11\n"
    )
    path = tmp_path / "explore.toml"
    path.write_text(toml_text)
    loaded = ExperimentSpec.load(str(path))
    assert loaded.options.explore == "random"
    assert loaded.options.budget == 2
    assert loaded.options.seed == 11
    assert "random" in loaded.describe()

    # dict round-trip preserves the content hash and the [explore] shape
    data = loaded.to_dict()
    assert data["explore"] == {"strategy": "random", "budget": 2, "seed": 11}
    for knob in ("explore", "budget", "seed"):
        assert knob not in data.get("options", {})
    again = ExperimentSpec.from_dict(data)
    assert again.content_hash() == loaded.content_hash()

    # the strategy configuration is part of the experiment identity
    reseeded = loaded.with_options(seed=12)
    assert reseeded.content_hash() != loaded.content_hash()
    dense = loaded.with_options(explore=None, budget=None, seed=None)
    assert dense.content_hash() != loaded.content_hash()


# ---------------------------------------------------------------------- #
# satellite: comparison legs fan out across workers
# ---------------------------------------------------------------------- #
def test_compare_fans_legs_across_workers_with_identical_results():
    scenario = charging_scenario(duration_s=0.02)
    serial = Study.scenario(scenario).compare("proposed", "reference").run()
    parallel = (
        Study.scenario(scenario)
        .options(RunOptions(n_workers=2))
        .compare("proposed", "reference")
        .run()
    )
    assert serial.solvers() == parallel.solvers()
    for name in serial.solvers():
        for trace in serial[name].trace_names():
            assert np.array_equal(
                serial[name][trace].values, parallel[name][trace].values
            )


def test_parallel_compare_serves_legs_from_the_cache(tmp_path):
    options = RunOptions(
        n_workers=2, cache="readwrite", cache_dir=str(tmp_path)
    )
    studies = (
        Study.scenario(charging_scenario(duration_s=0.02))
        .options(options)
        .compare("proposed", "reference")
    )
    cold = studies.run()
    assert cold["proposed"].metadata["cache"] == "miss"
    warm = studies.run()
    assert warm["proposed"].metadata["cache"] == "hit"
    assert warm["reference"].metadata["cache"] == "hit"
