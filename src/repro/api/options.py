"""Consolidated execution options for the :mod:`repro.api` facade.

:class:`RunOptions` is the one typed place every execution knob lives:
the planner reads it for single runs and comparisons, and the
:class:`~repro.analysis.engine.SweepEngine` is built from it for sweeps
and explorations.  Every knob is validated eagerly at construction
(incoherent combinations raise
:class:`~repro.core.errors.ConfigurationError` naming the offending pair
instead of being silently ignored), and the common configurations ship
as named profiles — :meth:`RunOptions.exact`, :meth:`RunOptions.fast` and
:meth:`RunOptions.batched`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.errors import ConfigurationError
from ..core.integrators import ExplicitIntegrator, make_integrator
from ..core.kernels import COMPILED_MODES, resolve_compiled
from ..core.serialise import decode_value, encode_value
from ..core.solver import SolverSettings

__all__ = [
    "RunOptions",
    "CACHE_MODES",
    "COMPILED_MODES",
    "FINGERPRINT_EXEMPT",
    "execution_fingerprint",
]

#: result-cache modes: ``"off"`` never touches the store, ``"read"`` serves
#: hits but never writes, ``"readwrite"`` serves hits and records misses
CACHE_MODES = ("off", "read", "readwrite")

#: sweep progress callback: ``progress(done, total, best_point)``
ProgressFn = Callable[[int, int, object], None]


def execution_fingerprint(
    *,
    integrator: Optional[ExplicitIntegrator] = None,
    settings: Optional[SolverSettings] = None,
    relinearise_interval: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Canonical fingerprint of everything that can change a *result*.

    This is the **one** options fingerprint in the codebase: the sweep
    engine's checkpoint config-hash and the result cache's keys are both
    derived from it, so a checkpoint resume and a cache hit agree on what
    "the same execution" means.  Deliberately excluded: knobs that change
    *how fast* or *where* candidates run but not their scores
    (``n_workers``, ``lane_width``, checkpointing, progress, cache
    mode) — every batched lane is bitwise its scalar run, so lane
    packing never moves a key.  ``seed`` *is* included: a seeded
    exploration samples a different candidate set per seed, so its
    results must never collide with another seed's in the cache.
    """
    if integrator is None:
        integrator_form = None
    else:
        integrator_form = {
            "name": str(integrator.name),
            "order": getattr(integrator, "order", None),
        }
    return {
        "integrator": integrator_form,
        "settings": None if settings is None else encode_value(settings),
        # 1 and None are the same exact profile, so they share one key
        "relinearise_interval": (
            None
            if relinearise_interval is None or int(relinearise_interval) == 1
            else int(relinearise_interval)
        ),
        # constants: the values of the retired backend choice and
        # march-kernel mode, so every existing cache key and checkpoint
        # digest stays unchanged
        "backend": "process",
        "seed": None if seed is None else int(seed),
        "compiled": "off",
    }


#: RunOptions fields deliberately excluded from the execution fingerprint,
#: each with the one-line reason it can never change a per-candidate
#: result.  Every field is either passed to :func:`execution_fingerprint`
#: by :meth:`RunOptions.fingerprint` or listed here — an unfingerprinted
#: result-changing knob silently serves stale cache entries, so any new
#: field must pick a side explicitly.  Every reason is also an executable
#: claim: ``tests/api/test_fingerprint_exemptions.py`` checks the split
#: and sweeps each listed knob at two values, asserting bitwise-equal
#: scores.
FINGERPRINT_EXEMPT = {
    "lane_width": "lane packing changes batching granularity only; lanes "
    "are independent runs, so a score never depends on its lane-mates "
    "(a lane block of one is the scalar run itself)",
    "n_workers": "worker count only changes scheduling; sweeps score "
    "identically at any count",
    "checkpoint_path": "where a checkpoint is written never affects what is "
    "computed; the checkpoint's own config hash derives from the fingerprint",
    "progress": "a reporting callback observes the run and cannot feed back "
    "into any result",
    "cache": "the cache mode decides whether results are stored or served, "
    "never what a computed result contains",
    "cache_dir": "storage location of the result cache; contents are keyed "
    "by the fingerprint itself",
    "store_traces": "trace retention only controls how much of an already "
    "computed result is kept in memory",
    "explore": "the exploration strategy picks which candidates run, not "
    "what any single candidate scores; per-candidate cache keys stay valid "
    "across strategies (seeded subsets are covered by 'seed')",
    "budget": "candidate budget sizes the explored set; like 'explore' it "
    "selects work rather than changing any candidate's result",
}


@dataclass(frozen=True)
class RunOptions:
    """Every execution knob of the simulator, in one validated place.

    Attributes
    ----------
    integrator:
        Explicit integration formula for the proposed solver (default:
        third-order Adams-Bashforth, the lowest-order AB formula whose
        stability region covers part of the imaginary axis).
    settings:
        :class:`~repro.core.solver.SolverSettings` override.  ``None``
        derives per-scenario defaults (step limit resolving the highest
        excitation frequency the scenario reaches).
    relinearise_interval:
        Amortised-relinearisation solver profile: hold each assembled
        Jacobian/elimination for up to this many explicit steps.  ``None``
        (or 1) is the exact, byte-identical profile; larger values are
        2-3x faster per run with the documented 10 % relative score
        tolerance.  A held run (single run or sweep candidate) that
        trips the stability guard re-runs exact, recorded as
        ``metadata["exact_rerun"]``.  Given together with ``settings``,
        their own ``relinearise_interval`` must be 1 or this same value.
        ``None`` and 1 share one fingerprint, so one cache key and one
        checkpoint digest.
    lane_width:
        Maximum lanes per sweep lane block.  A sweep marches
        same-topology candidates (digital events included) as lanes of
        stacked arrays (:class:`~repro.core.batch.BatchedSolver`), each
        lane bitwise its scalar run; ``1`` evaluates every candidate alone
        on the scalar path.  ``None`` splits each topology evenly over
        the workers, at most 64 lanes per block.
    n_workers:
        Worker processes for sweep execution (or comparison legs).  ``1``
        evaluates inline; ``None`` uses ``os.cpu_count()``.
    checkpoint_path:
        Sweep checkpoint/resume CSV (:mod:`repro.io.csvio`).
    progress:
        Sweep progress callback ``progress(done, total, best_point)``.
    cache:
        Result-cache mode (:mod:`repro.cache`): ``"off"`` (default) never
        touches the store; ``"read"`` serves single runs and per-candidate
        sweep points from the content-addressed store but never writes;
        ``"readwrite"`` additionally records misses.  Cache keys cover the
        experiment content hash plus a code-version salt, so results never
        survive a version bump.  Lane packing is not part of a key: a
        sweep at any ``lane_width`` is served every other width's entries.
    cache_dir:
        Root directory of the result store.  ``None`` uses the
        ``REPRO_CACHE_DIR`` environment variable, falling back to
        ``~/.cache/repro``.  Setting it with ``cache="off"`` raises.
    store_traces:
        Whether cached single-run entries include the full waveform traces
        (on by default; scores/stats are always stored).  A run served
        from a traces-free entry has summary statistics but no traces.
    explore:
        Exploration strategy for sweep candidate generation
        (:mod:`repro.explore`): ``None`` (default) and ``"grid"`` run the
        dense cartesian grid (byte-identical); ``"random"`` / ``"latin"``
        sample a seeded ``budget``-point subset; ``"halving"`` eliminates
        weak candidates on short-horizon scores; ``"extend"`` re-runs a
        superset grid with previously swept points served from the cache
        (requires ``cache != "off"``).
    budget:
        Candidate budget for sampling strategies (number of grid points
        to draw), or the optional initial-pool size for ``"halving"``.
        Only valid together with ``explore``.
    seed:
        Seed for the sampled candidate subset.  Required by
        ``"random"``/``"latin"`` (and by ``"halving"`` with a sub-grid
        ``budget``); folded into the execution fingerprint so cache
        entries and checkpoints never mix candidates across seeds.
    """

    integrator: Optional[ExplicitIntegrator] = None
    settings: Optional[SolverSettings] = None
    relinearise_interval: Optional[int] = None
    lane_width: Optional[int] = None
    n_workers: Optional[int] = 1
    checkpoint_path: Optional[str] = None
    progress: Optional[ProgressFn] = None
    cache: str = "off"
    cache_dir: Optional[str] = None
    store_traces: bool = True
    explore: Optional[str] = None
    budget: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # profiles
    # ------------------------------------------------------------------ #
    @classmethod
    def exact(cls, **overrides) -> "RunOptions":
        """The paper-exact profile: relinearise every step (the default).

        Results are byte-identical for any worker count.
        """
        return cls(**overrides)

    @classmethod
    def fast(cls, relinearise_interval: int = 4, **overrides) -> "RunOptions":
        """Amortised-relinearisation profile (documented 10 % tolerance).

        Holds each assembled Jacobian/elimination over up to
        ``relinearise_interval`` explicit steps — 2-3x faster per run;
        single runs and sweep candidates that trip the stability guard
        transparently re-run exact.
        """
        return cls(relinearise_interval=relinearise_interval, **overrides)

    @classmethod
    def batched(
        cls, lane_width: Optional[int] = None, compiled: str = "off", **overrides
    ) -> "RunOptions":
        """Lane-parallel sweep profile: ``RunOptions(lane_width=...)``.

        Every sweep marches same-topology candidates as lanes of stacked
        ``(B, n, n)`` arrays, each lane on its own clock, with its own
        digital events, and bitwise its scalar run; this constructor only
        names the lane width.  ``compiled`` names a march-kernel mode
        (:data:`COMPILED_MODES`); it is validated and dropped, since every
        mode runs the one NumPy kernel.
        """
        resolve_compiled(compiled)
        return cls(lane_width=lane_width, **overrides)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject out-of-range values and incoherent option pairs."""
        if self.lane_width is not None and self.lane_width < 1:
            raise ConfigurationError("lane_width must be at least 1")
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        if self.relinearise_interval is not None:
            if self.relinearise_interval < 1:
                raise ConfigurationError("relinearise_interval must be at least 1")
            held = getattr(self.settings, "relinearise_interval", 1)
            if held not in (1, self.relinearise_interval):
                raise ConfigurationError(
                    f"incoherent options: relinearise_interval="
                    f"{self.relinearise_interval} with settings carrying "
                    f"relinearise_interval={held} — give the hold budget "
                    "in one place"
                )
        if self.progress is not None and not callable(self.progress):
            raise ConfigurationError("progress must be callable")
        if self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.cache!r}; choose from {CACHE_MODES}"
            )
        if self.cache_dir is not None and self.cache == "off":
            raise ConfigurationError(
                f"incoherent options: cache_dir={self.cache_dir!r} with "
                "cache='off' — the store is never consulted; drop cache_dir "
                "or select cache='read'/'readwrite'"
            )
        self._validate_explore()

    def _validate_explore(self) -> None:
        """Pairwise coherence of the exploration knobs (eager, like the rest)."""
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError(f"budget must be at least 1, got {self.budget}")
        if self.explore is None:
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is not None:
                    raise ConfigurationError(
                        f"incoherent options: {knob}={value!r} without "
                        "explore= — the knob configures an exploration "
                        "strategy; pick one (e.g. explore='random') or "
                        "drop it"
                    )
            return
        from ..explore import EXPLORE_STRATEGIES

        if self.explore not in EXPLORE_STRATEGIES:
            raise ConfigurationError(
                f"unknown exploration strategy {self.explore!r}; choose "
                f"from {sorted(EXPLORE_STRATEGIES)}"
            )
        if self.explore in ("grid", "extend"):
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is not None:
                    raise ConfigurationError(
                        f"incoherent options: {knob}={value!r} with "
                        f"explore={self.explore!r} — the dense enumeration "
                        f"takes no {knob}; drop it or pick a "
                        "sampling/halving strategy"
                    )
        if self.explore in ("random", "latin"):
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is None:
                    raise ConfigurationError(
                        f"explore={self.explore!r} needs a {knob} — sampled "
                        "candidate subsets must be sized and reproducible; "
                        f"pass RunOptions({knob}=...)"
                    )
        if self.explore == "halving" and self.seed is not None and self.budget is None:
            raise ConfigurationError(
                "incoherent options: seed without budget for "
                "explore='halving' — halving over the full grid is "
                "deterministic; drop seed or pass budget < grid size"
            )
        if self.explore == "extend" and self.cache == "off":
            raise ConfigurationError(
                "incoherent options: explore='extend' with cache='off' — "
                "grid extension serves previously swept points from the "
                "result cache; select cache='read' or 'readwrite'"
            )

    def validate_for_single_run(self) -> None:
        """Additional coherence checks for single-run dispatch.

        Sweep-only knobs on a single run are rejected loudly (naming the
        offending pair) rather than silently ignored.
        """
        for knob, value in (
            ("checkpoint_path", self.checkpoint_path),
            ("progress", self.progress),
            ("lane_width", self.lane_width),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with a single "
                    "run — this knob only applies to sweeps; drop it or "
                    "add .sweep(...) to the study"
                )
        if self.n_workers not in (None, 1):
            raise ConfigurationError(
                f"incoherent options: n_workers={self.n_workers} with a "
                "single run — worker processes only apply to sweeps"
            )
        self._reject_explore_knobs("a single run")

    def validate_for_compare(self) -> None:
        """Additional coherence checks for comparison dispatch.

        A comparison is a set of single-run legs, so the sweep-only knobs
        are rejected exactly as for one run — except ``n_workers``, which
        fans the legs out across worker processes.
        """
        for knob, value in (
            ("checkpoint_path", self.checkpoint_path),
            ("progress", self.progress),
            ("lane_width", self.lane_width),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with a "
                    "comparison — this knob only applies to sweeps; drop "
                    "it or add .sweep(...) to the study"
                )
        self._reject_explore_knobs("a comparison")

    def _reject_explore_knobs(self, context: str) -> None:
        for knob, value in (
            ("explore", self.explore),
            ("budget", self.budget),
            ("seed", self.seed),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with {context} — "
                    "exploration strategies generate sweep candidates; drop "
                    "it or add .sweep(...) to the study"
                )

    # ------------------------------------------------------------------ #
    # canonical serialisation (the declarative-experiment form)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (lossless JSON/TOML round-trip).

        Fields equal to their defaults are omitted, so the serialised form
        stays as small as what the user actually configured.  The one
        process-local knob that cannot be data — a ``progress`` callback —
        raises when set.
        """
        if self.progress is not None:
            raise ConfigurationError(
                "cannot serialise RunOptions: progress is a process-local "
                "object with no declarative form; drop it from options "
                "destined for an ExperimentSpec"
            )
        data: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            if field.name == "progress":
                continue
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if field.name == "integrator":
                value = {
                    "name": str(value.name),
                    "order": getattr(value, "order", None),
                }
                if value["order"] is None:
                    del value["order"]
            elif field.name == "settings":
                value = encode_value(value)
            data[field.name] = value
        return data

    @classmethod
    def from_dict(cls, data) -> "RunOptions":
        """Rebuild options from :meth:`to_dict` output (unknown keys rejected)."""
        valid = tuple(
            field.name
            for field in dataclasses.fields(cls)
            if field.name != "progress"
        )
        unknown = set(data) - set(valid)
        if unknown:
            raise ConfigurationError(
                f"options dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(valid)}"
            )
        kwargs: Dict[str, object] = dict(data)
        integrator = kwargs.get("integrator")
        if integrator is not None:
            if not isinstance(integrator, dict) or "name" not in integrator:
                raise ConfigurationError(
                    f"options dict integrator must be a "
                    f"{{'name': ..., 'order': ...}} table, got {integrator!r}"
                )
            extra = set(integrator) - {"name", "order"}
            if extra:
                raise ConfigurationError(
                    f"options dict integrator has unknown fields "
                    f"{sorted(extra)}; valid fields are ['name', 'order']"
                )
            order = integrator.get("order")
            factory_kwargs = {}
            if order is not None and str(integrator["name"]).strip().lower() in (
                "adams_bashforth",
                "ab",
            ):
                factory_kwargs["order"] = int(order)
            try:
                built = make_integrator(str(integrator["name"]), **factory_kwargs)
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(str(exc)) from None
            if order is not None and getattr(built, "order", None) != int(order):
                # make_integrator ignores kwargs for fixed-order formulas;
                # dropping a meaningful-looking value silently would
                # misreport what runs
                raise ConfigurationError(
                    f"integrator {integrator['name']!r} has fixed order "
                    f"{getattr(built, 'order', None)}; it cannot take "
                    f"order={order}"
                )
            kwargs["integrator"] = built
        settings = kwargs.get("settings")
        if settings is not None:
            settings = decode_value(settings)
            if not isinstance(settings, SolverSettings):
                raise ConfigurationError(
                    "options dict settings must decode to SolverSettings, "
                    f"got {type(settings).__name__}"
                )
            kwargs["settings"] = settings
        return cls(**kwargs)

    def fingerprint(self) -> Dict[str, object]:
        """This options object's :func:`execution_fingerprint`."""
        return execution_fingerprint(
            integrator=self.integrator,
            settings=self.settings,
            relinearise_interval=self.relinearise_interval,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def replace(self, **changes) -> "RunOptions":
        """Copy with some fields changed (validated again)."""
        return dataclasses.replace(self, **changes)
