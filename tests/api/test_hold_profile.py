"""The held-model profile (``relinearise_interval``) reaches a single run
and a sweep candidate through one rule, so both score alike."""

from dataclasses import replace

import pytest

from repro import LinearisedStateSpaceSolver, RunOptions, SolverSettings, Study
from repro.analysis.sweep import harvested_energy_metric
from repro.core.errors import ConfigurationError, StabilityError
from repro.harvester import charging_scenario, scenario_solver_settings

AXES = {"excitation_frequency_hz": [70.0]}


def _base():
    return charging_scenario(duration_s=0.05)


def _candidate():
    """The one scenario the one-candidate sweep evaluates."""
    return Study.scenario(_base()).sweep(AXES).plan().sweep.candidate_scenario(
        {"excitation_frequency_hz": 70.0}
    )


def _held_settings():
    return replace(scenario_solver_settings(_candidate()), relinearise_interval=4)


PROFILES = {
    "default": lambda: RunOptions(),
    "fast": lambda: RunOptions.fast(),
    "settings_carried": lambda: RunOptions(settings=_held_settings()),
    "settings_and_fast": lambda: RunOptions.fast(
        settings=scenario_solver_settings(_candidate())
    ),
}


def _single_score(options):
    run = Study.scenario(_candidate()).options(options).run()
    return harvested_energy_metric(run.result), run.metadata


def _sweep_point(options):
    return Study.scenario(_base()).sweep(AXES).options(options).run()


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_single_run_scores_its_sweep_point(profile):
    score, _ = _single_score(PROFILES[profile]())
    (point,) = _sweep_point(PROFILES[profile]()).points
    assert point.score.hex() == score.hex()


def test_held_runs_that_trip_the_guard_rerun_exact(monkeypatch):
    exact, metadata = _single_score(RunOptions())
    assert "exact_rerun" not in metadata
    original = LinearisedStateSpaceSolver.run

    def held_runs_diverge(self, *args, **kwargs):
        if self.settings.relinearise_interval > 1:
            raise StabilityError("held model diverged")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LinearisedStateSpaceSolver, "run", held_runs_diverge)

    score, metadata = _single_score(RunOptions.fast())
    assert metadata["exact_rerun"] is True
    assert score.hex() == exact.hex()

    swept = _sweep_point(RunOptions.fast())
    assert swept.engine_info.n_exact_reruns == 1
    assert swept.points[0].score.hex() == exact.hex()


def test_exact_runs_that_trip_the_guard_still_raise(monkeypatch):
    # only the first run diverges, so a second (re-)run would succeed
    original = LinearisedStateSpaceSolver.run
    calls = []

    def first_run_diverges(self, *args, **kwargs):
        calls.append(self.settings.relinearise_interval)
        if len(calls) == 1:
            raise StabilityError("diverged")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LinearisedStateSpaceSolver, "run", first_run_diverges)
    with pytest.raises(StabilityError):
        _single_score(RunOptions())
    assert calls == [1]


def test_a_hold_budget_given_twice_must_agree():
    held = SolverSettings(relinearise_interval=4)
    with pytest.raises(ConfigurationError, match="relinearise_interval=1.*=4"):
        RunOptions(settings=held, relinearise_interval=1)
    # the same budget twice, or settings at the exact profile, are coherent
    RunOptions(settings=held, relinearise_interval=4)
    RunOptions.fast(settings=SolverSettings())
