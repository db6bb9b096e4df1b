"""The benchmark's three workloads, their seeded inputs and correctness gates.

Every workload is a closed loop: one caller runs one operation at a time
through the public ``Study`` entry points and waits for it before starting
the next.  An iteration is one unit of that loop:

* ``scalar_charging`` — one proposed-solver run of a charging scenario (leg
  ``proposed``) and one trapezoidal Newton-Raphson run of the same scenario
  on a shorter window (leg ``nr``);
* ``batched_grid`` — one sweep of a 64-candidate frequency grid on the
  batched lane backend (leg ``batched``), then two of its candidates alone
  on the scalar path (leg ``scalar``);
* ``tuning_cache`` — one sweep of the scenario-1 tuning grid into a fresh
  result store on two workers (leg ``cold``), then ``WARM_PASSES`` reruns
  that only read the store (leg ``warm``).

Each workload reports three figures (see ``README.md``):
``host_s_per_sim_s`` of its simulating leg, ``compare_host_s_per_sim_s`` of
the leg it is compared with, and ``rel_err``, a deterministic accuracy
figure.  A timing is the median of its leg's per-operation samples, each
scaled by how fast the host ran a fixed calibration loop just before the
iteration (:func:`calibration_seconds`): other tenants of a shared host
slow this one down by up to 1.7x, for seconds to minutes, and the scaling
takes most of that out of the figures.  Every operation and every
correctness check counts as one attempt; an exception or a failed check
counts as one failure.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import ResultStore, RunOptions, Study, charging_scenario, scenario_1
from repro.analysis.sweep import harvested_energy_metric
from repro.baselines.implicit_solver import ImplicitSolverSettings
from repro.core.integrators import Trapezoidal

#: floor for accuracy figures, so that an exact match reads as float64
#: machine epsilon instead of 0
EPS = float(np.finfo(float).eps)


def _charging(duration_s: float, frequency_hz: float, amplitude_ms2: float):
    scenario = charging_scenario(duration_s=duration_s, frequency_hz=frequency_hz)
    return replace(
        scenario, config=scenario.config.with_excitation(frequency_hz, amplitude_ms2)
    )


def _stratified(rng, n: int, low: float, high: float) -> List[float]:
    """One uniform draw in each of ``n`` equal bins of ``[low, high]``."""
    edges = np.linspace(low, high, n + 1)
    draws = edges[:-1] + rng.random(n) * (edges[1] - edges[0])
    return [round(float(value), 6) for value in draws]


#: timings are scaled to a host that runs the calibration loop in this
#: time, about what it takes on the 2-vCPU 2.1 GHz Xeon VM the benchmark
#: was tuned on; the constant only sets the scale of the figures
CALIBRATION_REFERENCE_S = 4e-3

_CAL_A = 8.0 * np.eye(8) + np.arange(64.0).reshape(8, 8) / 64.0
_CAL_B = np.arange(24.0).reshape(8, 3) / 24.0
_CAL_RHS = np.linspace(0.0, 1.0, 8)


class _CalibrationTerm:
    def __init__(self, weight: float) -> None:
        self.weight = weight

    def apply(self, x: float) -> float:
        return self.weight * x + 1.0


def calibration_seconds() -> float:
    """Median time of five runs of a fixed loop shaped like a solver step.

    Small dense solves, products and scatters, dict look-ups and method
    calls: the mix of the simulator's per-step work, so that contention
    from other tenants slows it about as much as it slows the program.  It
    uses no simulator code, so no change to the program moves it.
    """
    terms = [_CalibrationTerm(float(i)) for i in range(8)]
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for _ in range(400):
            x = np.linalg.solve(_CAL_A, _CAL_RHS)
            y = _CAL_A @ _CAL_B
            z = np.zeros((8, 8))
            z[2:5, 1:4] = y[2:5, :]
            values = {"x": float(x[0]), "y": float(y[0, 0])}
            for term in terms:
                total += term.apply(values["x"])
            total += float(np.linalg.norm(z))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _max_rel_dev(values, reference) -> float:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


class Workload:
    """Operation and check bookkeeping shared by the three workloads."""

    name = ""
    #: leg whose host time per simulated second is ``host_s_per_sim_s``
    main_leg = ""
    #: leg whose host time per simulated second is ``compare_host_s_per_sim_s``
    compare_leg = ""
    #: scenario factory the set-up probe builds for this workload
    setup_factory = "charging_scenario"

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: reference over measured calibration time, set before each iteration
        self.speed_scale = 1.0
        self.calibrations: List[float] = []
        #: the samples before scaling, per leg (reported, not bounded)
        self.unscaled: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.samples: Dict[str, List[float]] = {}
        self.engine_infos = []
        self.rel_err: Optional[float] = None
        #: human-readable figures printed above the result line
        self.report: Dict[str, object] = {}

    # -- bookkeeping ------------------------------------------------------
    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[{self.name}] check failed: {message}", file=sys.stderr)
        return ok

    def timed(self, leg: str, fn: Callable, sim_seconds: float):
        """One operation: run ``fn`` as leg ``leg`` and keep its host s/sim s.

        Returns ``fn``'s result, or ``None`` when it raised (the exception
        is reported and counted as a failed operation).
        """
        self.attempted += 1
        try:
            with self.tracer.span("leg." + leg):
                start = time.perf_counter()
                result = fn()
                wall = time.perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.samples.setdefault(leg, []).append(
            wall * self.speed_scale / sim_seconds
        )
        self.unscaled.setdefault(leg, []).append(wall / sim_seconds)
        return result

    def calibrate(self) -> None:
        """Measure the host's current speed; later samples are scaled by it."""
        seconds = calibration_seconds()
        self.calibrations.append(seconds)
        self.speed_scale = CALIBRATION_REFERENCE_S / seconds

    def take_samples(self) -> Dict[str, List[float]]:
        samples, self.samples = self.samples, {}
        return samples

    def end_to_end(self) -> Dict[str, float]:
        self.report["calibration_s_median"] = statistics.median(self.calibrations)
        for leg in (self.main_leg, self.compare_leg):
            self.report[f"unscaled_{leg}_s_per_sim_s"] = statistics.median(
                self.unscaled[leg]
            )
        return {
            "host_s_per_sim_s": statistics.median(self.samples[self.main_leg]),
            "compare_host_s_per_sim_s": statistics.median(
                self.samples[self.compare_leg]
            ),
            "rel_err": max(self.rel_err, EPS),
        }

    # -- the loop ---------------------------------------------------------
    def warm_up(self) -> None:
        raise NotImplementedError

    def iterate(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError


class ScalarCharging(Workload):
    """The paper's Table I workload on the scalar per-step path."""

    name = "scalar_charging"
    main_leg = "proposed"
    compare_leg = "nr"

    DURATION_S = 0.2
    NR_DURATION_S = 0.02
    N_SCENARIOS = 4
    #: window and tolerance of the final storage-voltage accuracy check
    ACCURACY_WINDOW_S = 0.1
    FINAL_V_TOLERANCE = 0.05

    def __init__(self, seed: int, tracer, scratch) -> None:
        super().__init__(tracer)
        rng = np.random.default_rng(seed)
        frequencies = rng.uniform(69.5, 70.5, self.N_SCENARIOS)
        amplitudes = rng.uniform(0.55, 0.63, self.N_SCENARIOS)
        self.scenarios = [
            _charging(self.DURATION_S, round(float(f), 6), round(float(a), 6))
            for f, a in zip(frequencies, amplitudes)
        ]
        self.finals: Dict[int, float] = {}

    @staticmethod
    def _nr(scenario):
        return (
            Study.scenario(scenario)
            .solver(
                "baseline",
                formula=Trapezoidal,
                settings=ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3),
            )
            .run()
            .result
        )

    def warm_up(self) -> None:
        scenario = self.scenarios[0]
        Study.scenario(scenario.scaled(0.02)).run()
        self._nr(scenario.scaled(0.002))

    def iterate(self, index: int) -> None:
        k = index % len(self.scenarios)
        scenario = self.scenarios[k]
        result = self.timed(
            "proposed", lambda: Study.scenario(scenario).run().result, self.DURATION_S
        )
        if result is not None:
            final = float(result["storage_voltage"].final())
            expected = self.finals.setdefault(k, final)
            self.check(
                np.isfinite(final) and final > 0.0 and final == expected,
                f"scenario {k}: final storage voltage {final!r} "
                f"(first run gave {expected!r})",
            )
        window = scenario.scaled(self.NR_DURATION_S)
        nr = self.timed("nr", lambda: self._nr(window), self.NR_DURATION_S)
        if nr is not None:
            self.check(
                nr.stats.n_newton_iterations > 0,
                "the Newton-Raphson leg reported no Newton iterations",
            )

    def finish(self) -> None:
        # accuracy on the canonical Table I scenario (70 Hz, nominal
        # amplitude), so that the figure compares across seeds
        scenario = charging_scenario(duration_s=self.ACCURACY_WINDOW_S)
        proposed = Study.scenario(scenario).run().result
        reference = Study.scenario(scenario).solver("reference").run().result
        v = float(proposed["storage_voltage"].final())
        v_ref = float(reference["storage_voltage"].final())
        self.rel_err = abs(v - v_ref) / abs(v_ref)
        self.check(
            self.rel_err <= self.FINAL_V_TOLERANCE,
            f"final_v_rel_err {self.rel_err:.3g} exceeds {self.FINAL_V_TOLERANCE}",
        )
        self.report["final_v_rel_err"] = self.rel_err


class BatchedGrid(Workload):
    """A same-topology frequency grid marched as lanes of the batched core."""

    name = "batched_grid"
    main_leg = "batched"
    compare_leg = "scalar"

    N_CANDIDATES = 64
    BAND_HZ = (66.0, 80.0)
    DURATION_S = 0.2
    RELINEARISE_INTERVAL = 4
    #: the batched backend's documented shared-step score tolerance
    SCORE_TOLERANCE = 0.10
    N_CANONICAL = 16
    #: scalar-path candidates run after each sweep (the comparison leg)
    SCALAR_PER_ITERATION = 2

    def __init__(self, seed: int, tracer, scratch) -> None:
        super().__init__(tracer)
        rng = np.random.default_rng(seed)
        frequencies = _stratified(rng, self.N_CANDIDATES, *self.BAND_HZ)
        amplitude = round(float(rng.uniform(0.5, 0.7)), 6)
        self.axes = {
            "excitation_frequency_hz": frequencies,
            "excitation_amplitude_ms2": [amplitude],
        }
        self.base = charging_scenario(duration_s=self.DURATION_S)
        self.candidates = [
            replace(self.base, config=self.base.config.with_excitation(f, amplitude))
            for f in frequencies
        ]
        self.scores: Optional[List[float]] = None
        #: candidate index -> score on the scalar path
        self.reference: Dict[int, float] = {}

    def _sweep(self, axes, options):
        return Study.scenario(self.base).options(options).sweep(axes).run()

    def _batched(self, axes):
        return self._sweep(
            axes,
            RunOptions.batched(
                compiled="auto", relinearise_interval=self.RELINEARISE_INTERVAL
            ),
        )

    def _scalar(self, axes):
        return self._sweep(
            axes, RunOptions(relinearise_interval=self.RELINEARISE_INTERVAL)
        )

    def _run_scalar(self, k: int) -> None:
        """Candidate ``k`` alone on the scalar path, with the same profile."""
        options = RunOptions(relinearise_interval=self.RELINEARISE_INTERVAL)
        study = Study.scenario(self.candidates[k]).options(options)
        result = self.timed("scalar", lambda: study.run().result, self.DURATION_S)
        if result is not None:
            score = harvested_energy_metric(result)
            expected = self.reference.setdefault(k, score)
            self.check(score == expected, f"candidate {k}: scalar score changed")

    def warm_up(self) -> None:
        self._batched(self.axes)

    def iterate(self, index: int) -> None:
        sim_seconds = self.N_CANDIDATES * self.DURATION_S
        result = self.timed("batched", lambda: self._batched(self.axes), sim_seconds)
        if result is not None:
            info = result.engine_info
            self.engine_infos.append(info)
            scores = [point.score for point in result.points]
            if self.scores is None:
                self.scores = scores
            self.check(
                info.n_batched_candidates == info.n_candidates == self.N_CANDIDATES
                and info.n_exact_reruns == 0,
                f"{info.n_batched_candidates}/{info.n_candidates} candidates "
                f"batched, {info.n_exact_reruns} lanes retired",
            )
            self.check(scores == self.scores, "batched scores changed between sweeps")
        # the comparison leg: the grid's candidates one at a time on the
        # scalar path, interleaved with the sweeps so that its samples span
        # the whole run like the sweep's do
        for k in range(self.SCALAR_PER_ITERATION):
            self._run_scalar(
                (self.SCALAR_PER_ITERATION * index + k) % self.N_CANDIDATES
            )

    def finish(self) -> None:
        # every lane's batched score against its scalar score
        for k in range(self.N_CANDIDATES):
            if k not in self.reference:
                self._run_scalar(k)
        if self.scores is not None and len(self.reference) == self.N_CANDIDATES:
            reference = [self.reference[k] for k in range(self.N_CANDIDATES)]
            dev = _max_rel_dev(self.scores, reference)
            self.report["max_rel_score_dev_seeded"] = dev
            self.check(
                dev <= self.SCORE_TOLERANCE,
                f"batched scores deviate {dev:.3g} from scalar (seeded grid)",
            )
        # rel_err: the same comparison on a fixed grid, so that it compares
        # across seeds (the seeded maximum moves with the draw)
        canonical = {
            "excitation_frequency_hz": [
                float(f) for f in np.linspace(*self.BAND_HZ, self.N_CANONICAL)
            ]
        }
        batched = [p.score for p in self._batched(canonical).points]
        scalar = [p.score for p in self._scalar(canonical).points]
        self.rel_err = _max_rel_dev(batched, scalar)
        self.check(
            self.rel_err <= self.SCORE_TOLERANCE,
            f"batched scores deviate {self.rel_err:.3g} from scalar (fixed grid)",
        )
        self.report["max_rel_score_dev"] = self.rel_err


class TuningCache(Workload):
    """The scenario-1 tuning grid, cold into a fresh store and then warm."""

    name = "tuning_cache"
    main_leg = "cold"
    compare_leg = "warm"
    setup_factory = "scenario_1"

    N_TUNED = 8
    N_AMPLITUDES = 2
    DURATION_S = 0.25
    SHIFT_TIME_S = 0.2
    N_WORKERS = 2
    WARM_PASSES = 20

    def __init__(self, seed: int, tracer, scratch) -> None:
        super().__init__(tracer)
        rng = np.random.default_rng(seed)
        self.axes = {
            "initial_tuned_frequency_hz": _stratified(rng, self.N_TUNED, 67.0, 72.0),
            "excitation_amplitude_ms2": _stratified(rng, self.N_AMPLITUDES, 0.4, 0.6),
        }
        self.n_candidates = self.N_TUNED * self.N_AMPLITUDES
        self.base = scenario_1(
            duration_s=self.DURATION_S, shift_time_s=self.SHIFT_TIME_S
        )
        self.scratch = scratch
        self.scores: Optional[List[float]] = None
        self.store_bytes: List[int] = []
        self.rel_err = 0.0

    def _study(self, store_dir: str):
        return (
            Study.scenario(self.base)
            .options(
                RunOptions.batched(
                    compiled="auto",
                    n_workers=self.N_WORKERS,
                    cache="readwrite",
                    cache_dir=store_dir,
                )
            )
            .sweep(self.axes)
        )

    def warm_up(self) -> None:
        # a short inline sweep loads every module and table cache in this
        # process, which the forked sweep workers then inherit
        axes = {name: values[:1] for name, values in self.axes.items()}
        Study.scenario(self.base.scaled(0.02)).sweep(axes).run()

    def iterate(self, index: int) -> None:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            self._iterate(self._study(store_dir), store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _iterate(self, study, store_dir: str) -> None:
        per_pass = self.n_candidates * self.DURATION_S
        cold = self.timed("cold", study.run, per_pass)
        if cold is None:
            return
        info = cold.engine_info
        self.engine_infos.append(info)
        scores = [point.score for point in cold.points]
        if self.scores is None:
            self.scores = scores
        self.check(
            info.n_cache_hits == 0 and info.n_evaluated == self.n_candidates,
            f"cold pass: {info.n_cache_hits} hits, {info.n_evaluated} evaluated",
        )
        self.check(scores == self.scores, "cold scores changed between iterations")
        self.store_bytes.append(int(ResultStore(store_dir).stats()["total_bytes"]))
        # the cold pass takes seconds: measure the host's speed again for
        # the warm passes that follow it
        self.calibrate()
        for _ in range(self.WARM_PASSES):
            warm = self.timed("warm", study.run, per_pass)
            if warm is None:
                continue
            warm_scores = [point.score for point in warm.points]
            self.rel_err = max(self.rel_err, _max_rel_dev(warm_scores, scores))
            self.check(
                warm.engine_info.n_cache_hits == self.n_candidates
                and warm_scores == scores,
                f"warm pass: {warm.engine_info.n_cache_hits}/{self.n_candidates} "
                "hits, scores bitwise equal to cold: "
                f"{warm_scores == scores}",
            )

    def finish(self) -> None:
        self.report["warm_max_rel_dev"] = self.rel_err


WORKLOADS = {
    cls.name: cls for cls in (ScalarCharging, BatchedGrid, TuningCache)
}
