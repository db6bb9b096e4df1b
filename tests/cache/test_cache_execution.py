"""Cache-aware execution: planner single runs and engine sweeps.

The headline contract: enabling the cache never changes results — a
cache-off run, a cold ``readwrite`` run and a warm all-hits rerun produce
byte-identical scores and traces, at every lane width and worker count
(scalar-path blocks of one, lanes, worker processes).  Corruption degrades to a recomputing
miss with a warning; ``read`` mode never writes; a code-version salt
bump invalidates everything.
"""

import warnings

import numpy as np
import pytest

import repro.cache.store as cache_store
from repro import RunOptions, Study, charging_scenario
from repro.baselines import ImplicitSolverSettings, ReferenceSolverSettings
from repro.cache import ResultStore
from repro.core.integrators import Trapezoidal


def single_study(tmp_path, mode="readwrite", **overrides):
    options = RunOptions(cache=mode, cache_dir=str(tmp_path), **overrides)
    return Study.scenario(charging_scenario(duration_s=0.05)).options(options)


SWEEP_AXES = {"excitation_frequency_hz": [66.0, 68.0, 70.0, 74.0]}


def sweep_study(options):
    return Study.scenario(charging_scenario(duration_s=0.05)).options(options).sweep(
        SWEEP_AXES
    )


# ---------------------------------------------------------------------- #
# single runs (planner path)
# ---------------------------------------------------------------------- #
def test_single_run_miss_then_hit_is_byte_identical(tmp_path):
    cold = single_study(tmp_path).run()
    assert cold.metadata["cache"] == "miss"
    warm = single_study(tmp_path).run()
    assert warm.metadata["cache"] == "hit"

    plain = Study.scenario(charging_scenario(duration_s=0.05)).run()
    assert "cache" not in plain.metadata  # cache off: no stamping
    for name in plain.trace_names():
        assert np.array_equal(warm[name].times, plain[name].times)
        assert np.array_equal(warm[name].values, plain[name].values)
    assert warm.stats.n_accepted_steps == plain.stats.n_accepted_steps


def test_single_run_read_mode_never_writes(tmp_path):
    first = single_study(tmp_path, mode="read").run()
    assert first.metadata["cache"] == "miss"
    second = single_study(tmp_path, mode="read").run()
    assert second.metadata["cache"] == "miss"
    assert ResultStore(tmp_path).stats()["n_entries"] == 0


def test_single_run_store_traces_off(tmp_path):
    single_study(tmp_path, store_traces=False).run()
    warm = single_study(tmp_path, store_traces=False).run()
    assert warm.metadata["cache"] == "hit"
    assert warm.trace_names() == []
    with pytest.raises(KeyError):
        warm["storage_voltage"]


def test_corrupt_entry_degrades_to_recomputed_miss(tmp_path):
    single_study(tmp_path).run()
    store = ResultStore(tmp_path)
    (key, _), = list(store.entries())
    (store._entry_dir(key) / "entry.json").write_text("{broken")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rerun = single_study(tmp_path).run()
    assert rerun.metadata["cache"] == "miss"
    assert any("corrupt" in str(w.message) for w in caught)
    # readwrite mode replaced the broken entry with a good one
    assert single_study(tmp_path).run().metadata["cache"] == "hit"


def test_truncated_traces_blob_degrades_to_recomputed_miss(tmp_path):
    first = single_study(tmp_path).run()
    store = ResultStore(tmp_path)
    (key, _), = list(store.entries())
    blob = store._entry_dir(key) / "traces.npz"
    blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])

    with pytest.warns(UserWarning, match="unreadable traces.npz"):
        rerun = single_study(tmp_path).run()
    assert rerun.metadata["cache"] == "miss"
    assert rerun.trace_names() == first.trace_names()
    for name in first.trace_names():
        assert np.array_equal(rerun[name].times, first[name].times)
        assert np.array_equal(rerun[name].values, first[name].values)


def test_salt_bump_invalidates_single_run_entries(tmp_path, monkeypatch):
    single_study(tmp_path).run()
    monkeypatch.setattr(
        cache_store, "code_version_salt", lambda: "repro-99.0+schema1"
    )
    assert single_study(tmp_path).run().metadata["cache"] == "miss"


def test_compare_legs_cache_individually(tmp_path):
    study = single_study(tmp_path).compare("proposed", "reference")
    cold = study.run()
    assert cold["proposed"].metadata["cache"] == "miss"
    warm = study.run()
    assert warm["proposed"].metadata["cache"] == "hit"
    assert warm["reference"].metadata["cache"] == "hit"
    assert np.array_equal(
        warm["proposed"]["storage_voltage"].values,
        cold["proposed"]["storage_voltage"].values,
    )


def assert_runs_byte_identical(a, b):
    assert a.trace_names() == b.trace_names()
    for name in a.trace_names():
        assert a[name].times.tobytes() == b[name].times.tobytes()
        assert a[name].values.tobytes() == b[name].values.tobytes()


@pytest.mark.parametrize(
    "solver, solver_kwargs",
    [
        (
            "baseline",
            {
                "formula": Trapezoidal,
                "settings": ImplicitSolverSettings(
                    step_size=2e-4, record_interval=1e-3
                ),
            },
        ),
        ("reference", {"settings": ReferenceSolverSettings(rtol=1e-7, atol=1e-9)}),
    ],
    ids=["table1_nr_leg", "reference"],
)
def test_baseline_leg_with_settings_misses_then_hits(tmp_path, solver, solver_kwargs):
    def study(options):
        return (
            Study.scenario(charging_scenario(duration_s=0.02))
            .solver(solver, **solver_kwargs)
            .options(options)
        )

    options = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
    cold = study(options).run()
    assert cold.metadata["cache"] == "miss"
    warm = study(options).run()
    assert warm.metadata["cache"] == "hit"

    plain = study(RunOptions()).run()
    assert_runs_byte_identical(warm, plain)
    assert_runs_byte_identical(cold, plain)
    assert warm.stats.n_newton_iterations == plain.stats.n_newton_iterations
    assert warm.stats.n_function_evaluations == plain.stats.n_function_evaluations


# ---------------------------------------------------------------------- #
# sweeps (engine path, scalar path, worker processes and lanes)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "label,options_factory",
    [
        (
            "scalar_path",
            lambda d: RunOptions(lane_width=1, cache="readwrite", cache_dir=d),
        ),
        (
            "workers",
            lambda d: RunOptions(n_workers=2, cache="readwrite", cache_dir=d),
        ),
        (
            "lanes",
            lambda d: RunOptions(lane_width=2, cache="readwrite", cache_dir=d),
        ),
    ],
)
def test_sweep_cache_is_byte_identical_at_every_lane_width(
    tmp_path, label, options_factory
):
    cache_dir = str(tmp_path / label)
    baseline_options = options_factory(cache_dir).replace(
        cache="off", cache_dir=None
    )
    baseline = sweep_study(baseline_options).run()

    cold = sweep_study(options_factory(cache_dir)).run()
    assert cold.engine_info.n_cache_hits == 0
    warm = sweep_study(options_factory(cache_dir)).run()
    assert warm.engine_info.n_cache_hits == len(warm.points)
    assert warm.engine_info.n_evaluated == 0

    baseline_scores = [point.score for point in baseline.points]
    assert [point.score for point in cold.points] == baseline_scores
    assert [point.score for point in warm.points] == baseline_scores


def test_sweep_cache_read_mode_never_writes(tmp_path):
    options = RunOptions(cache="read", cache_dir=str(tmp_path))
    result = sweep_study(options).run()
    assert result.engine_info.n_cache_hits == 0
    assert ResultStore(tmp_path).stats()["n_entries"] == 0


def test_sweep_workers_write_the_entries(tmp_path):
    options = RunOptions(n_workers=2, cache="readwrite", cache_dir=str(tmp_path))
    sweep_study(options).run()
    stats = ResultStore(tmp_path).stats()
    assert stats["n_points"] == len(SWEEP_AXES["excitation_frequency_hz"])


def test_scalar_path_cold_cache_serves_a_lane_sweep(tmp_path):
    # every batched lane is bitwise its scalar run, so every lane width
    # shares one cache: a store filled by scalar-path candidates serves
    # every point of a lane sweep
    cache_dir = str(tmp_path)
    scalar = sweep_study(
        RunOptions(lane_width=1, cache="readwrite", cache_dir=cache_dir)
    ).run()
    lanes = sweep_study(
        RunOptions(lane_width=2, cache="readwrite", cache_dir=cache_dir)
    ).run()
    assert lanes.engine_info.n_cache_hits == len(lanes.points)
    assert lanes.engine_info.n_evaluated == 0
    assert [p.score for p in lanes.points] == [p.score for p in scalar.points]


def test_sweep_cache_keys_on_the_one_execution_fingerprint():
    """One canonical options fingerprint feeds every cache key."""
    from repro.api.options import execution_fingerprint

    options = RunOptions.batched(relinearise_interval=3)
    assert options.fingerprint() == execution_fingerprint(relinearise_interval=3)


def test_exact_profile_spellings_share_one_fingerprint():
    assert RunOptions().fingerprint() == RunOptions(relinearise_interval=1).fingerprint()
    assert RunOptions.fast(1).fingerprint() == RunOptions().fingerprint()
    assert RunOptions.fast(2).fingerprint() != RunOptions().fingerprint()


@pytest.mark.parametrize(
    "first, second",
    [({}, {"relinearise_interval": 1}), ({"relinearise_interval": 1}, {})],
    ids=["default_then_1", "1_then_default"],
)
def test_exact_profile_spellings_share_cache_entries(tmp_path, first, second):
    cache = {"cache": "readwrite", "cache_dir": str(tmp_path)}
    cold = sweep_study(RunOptions(**first, **cache)).run()
    assert cold.engine_info.n_cache_hits == 0
    warm = sweep_study(RunOptions(**second, **cache)).run()
    assert warm.engine_info.n_cache_hits == len(warm.points)
    assert warm.engine_info.n_evaluated == 0
    assert [p.score for p in warm.points] == [p.score for p in cold.points]


#: the point keys a process sweep writes; the batched backend shares them
PROCESS_POINT_KEYS = [
    "51d500e96f1390535c04c54b5b2b03e052edbeeb4964c0504fd6ef9941d538b4",
    "9f35d56bbebd997f2f00c8afac050bcac20a4abd5620655881d9c31378b98158",
    "be048cb203682d4a7e1e9b3714a5040893b4bb218bd6a1e80b866bac8420d94e",
    "fbba4a0e59b4a8c2c20c2045ae623174aee015d37347c7d826e4646762604ac4",
]


@pytest.mark.parametrize(
    "options_factory, expected",
    [
        (
            lambda d: RunOptions(cache="readwrite", cache_dir=d),
            PROCESS_POINT_KEYS,
        ),
        (
            lambda d: RunOptions.batched(
                lane_width=2, cache="readwrite", cache_dir=d
            ),
            PROCESS_POINT_KEYS,
        ),
    ],
    ids=["process", "batched"],
)
def test_sweep_point_cache_keys_are_pinned(
    tmp_path, monkeypatch, options_factory, expected
):
    """Existing sweep caches keep hitting: the point keys on disk are stable.

    The keys above were recorded before the store lost its pluggable
    byte backends; a change here orphans every cached sweep point.  The
    batched backend writes exactly the process keys (one shared cache).
    """
    monkeypatch.setattr(
        cache_store, "code_version_salt", lambda: "repro-pinned+schema2"
    )
    sweep_study(options_factory(str(tmp_path))).run()
    written = sorted(
        entry.name
        for entry in tmp_path.glob("*/*")
        if (entry / "entry.json").is_file()
    )
    assert written == expected


def test_sweep_cache_rejects_custom_metrics_by_name(tmp_path):
    # a custom callable has no canonical identity to key entries on; a
    # free-form label collision would serve one metric's scores as
    # another's, so the engine refuses loudly instead
    from repro.core.errors import ConfigurationError

    def my_metric(result):
        return 1.0

    study = (
        Study.scenario(charging_scenario(duration_s=0.05))
        .options(RunOptions(cache="readwrite", cache_dir=str(tmp_path)))
        .sweep(SWEEP_AXES, metric=my_metric)
    )
    with pytest.raises(ConfigurationError, match="my_metric") as refused:
        study.run()
    assert "neither cached nor resumed" in str(refused.value)


def test_unwritable_cache_degrades_to_uncached_run(tmp_path):
    # cache_dir nested under a regular file: every store write raises
    # OSError even when running as root — the finished simulation must
    # survive with a warning, not crash
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    bad_dir = str(blocker / "cache")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(RunOptions(cache="readwrite", cache_dir=bad_dir))
            .run()
        )
        sweep = sweep_study(
            RunOptions(cache="readwrite", cache_dir=bad_dir)
        ).run()
    assert run.metadata["cache"] == "miss"
    assert len(sweep.points) == len(SWEEP_AXES["excitation_frequency_hz"])
    assert sum("unwritable" in str(w.message) for w in caught) >= 2


def test_salt_bump_invalidates_sweep_entries(tmp_path, monkeypatch):
    options = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
    sweep_study(options).run()
    monkeypatch.setattr(
        cache_store, "code_version_salt", lambda: "repro-99.0+schema1"
    )
    rerun = sweep_study(options).run()
    assert rerun.engine_info.n_cache_hits == 0
