"""Content-addressed result cache for declarative experiments.

Keys are ``hash(ExperimentSpec content + code-version salt)`` — see
:class:`ResultStore` for the storage contract and
:mod:`repro.api.planner` / :class:`repro.analysis.engine.SweepEngine` for
the cache-aware execution paths (``RunOptions.cache="read"/"readwrite"``).
"""

from .store import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    ResultStore,
    code_version_salt,
    default_cache_dir,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "ResultStore",
    "code_version_salt",
    "default_cache_dir",
]
