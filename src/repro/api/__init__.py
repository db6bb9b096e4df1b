"""Public API facade: ``Study`` / ``RunOptions`` and typed results.

This package is the canonical entry layer of the simulator — every
caller (examples, benchmarks, future service endpoints) routes through
it, and new scenario families land here instead of growing another
free-function entry point:

* :class:`RunOptions` — every execution knob (integrator, solver
  settings, relinearisation profile, lane width, workers, checkpointing,
  progress, cache, exploration) in one validated dataclass, with named
  profiles ``exact()`` / ``fast()`` / ``batched()``;
* :class:`Study` — the fluent driver:
  ``Study.scenario(...).options(...).sweep(...).run()`` dispatches single
  runs, multi-solver comparisons and sweeps through one execution
  planner (:mod:`repro.api.planner`);
* :class:`RunHandle` / :class:`StudyResult` / :class:`ExplorationResult`
  / :class:`ComparisonResult` — typed result wrappers with uniform
  ``summary()`` / ``format()`` / ``export_csv()``;
* :class:`ExperimentSpec` — the declarative form: a whole experiment
  (scenario + options + solver dispatch + sweep grid) as serialisable
  data with JSON/TOML round-trip, a stable ``content_hash()`` feeding
  the result cache (:mod:`repro.cache`), and
  :meth:`Study.to_spec` / :meth:`Study.from_spec` interconversion.

This is the only way in: :class:`Study` is the one entry point for
runs, comparisons and sweeps, and the sweep engine is built from one
validated :class:`RunOptions`.
"""

from .options import CACHE_MODES, RunOptions, execution_fingerprint
from .planner import SOLVERS, ExecutionPlan
from .results import ComparisonResult, ExplorationResult, RunHandle, StudyResult
from .study import Study
from .experiment import ExperimentSpec, SweepAxis, SweepSpec

__all__ = [
    "Study",
    "RunOptions",
    "RunHandle",
    "StudyResult",
    "ExplorationResult",
    "ComparisonResult",
    "ExecutionPlan",
    "ExperimentSpec",
    "SweepAxis",
    "SweepSpec",
    "SOLVERS",
    "CACHE_MODES",
    "execution_fingerprint",
]
