"""Static contract checker for the repro codebase (``repro check``).

Four rule families guard the contracts the test suite cannot see
drifting (DESIGN.md §8):

* ``fingerprint`` — every :class:`~repro.api.options.RunOptions` field is
  consumed by the execution fingerprint or explicitly exempted with a
  justification;
* ``block-protocol`` — batched block APIs match the protocol signatures,
  prepared-lineariser ``constant`` declarations are honest, serialised
  forms round-trip and registry entries declare their terminals;
* ``kernel-purity`` — njit-compiled kernels stay free of object-mode
  hazards, nondeterminism and closures over non-numeric state;
* ``facade`` — every public module declares a literal ``__all__`` whose
  names all resolve.

Programmatic entry point::

    from repro.lint import run_check
    report = run_check([Path("src/repro")])
    report.ok  # True when no error findings survive the pragma pass
"""

from __future__ import annotations

from .base import ERROR, SEVERITIES, WARNING, Finding, LintRule, Pragma, Project, SourceFile
from .facade import FacadeRule
from .fingerprint import FingerprintCoverageRule
from .protocol import BlockProtocolRule
from .purity import KernelPurityRule
from .runner import JSON_SCHEMA, RULE_FAMILIES, RULES, Report, run_check

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "Pragma",
    "Project",
    "SourceFile",
    "LintRule",
    "FacadeRule",
    "FingerprintCoverageRule",
    "BlockProtocolRule",
    "KernelPurityRule",
    "JSON_SCHEMA",
    "RULES",
    "RULE_FAMILIES",
    "Report",
    "run_check",
]
