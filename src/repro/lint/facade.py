"""Rule family ``facade`` — the public surface is machine-checkable.

The api-surface tests and this checker introspect each module's explicit
export list, so the list itself must stay honest:

* ``facade.all-missing`` — every public module defines ``__all__``
  (empty is fine for effect-only modules);
* ``facade.all-format`` — ``__all__`` is a literal list/tuple of
  strings (a computed export list defeats static checking);
* ``facade.all-unresolved`` — every name listed in ``__all__`` is
  actually bound at module level.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .base import (
    Finding,
    LintRule,
    Project,
    SourceFile,
    module_bindings,
    string_elements,
)

__all__ = ["FacadeRule"]


class FacadeRule(LintRule):
    """``__all__`` consistency of every module."""

    family = "facade"
    description = "every public module declares a literal, resolvable __all__"

    def run(self, project: Project) -> Iterator[Finding]:
        for sf in project.files:
            if sf.tree is None:
                continue
            yield from self._check_all(sf)

    # ------------------------------------------------------------------ #
    # __all__ consistency
    # ------------------------------------------------------------------ #
    def _find_all_assignments(
        self, sf: SourceFile
    ) -> List[Tuple[ast.stmt, Optional[ast.expr]]]:
        """Module-level statements assigning ``__all__`` (with their value)."""
        out: List[Tuple[ast.stmt, Optional[ast.expr]]] = []
        for node in sf.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                out.append((node, node.value))
            elif (
                isinstance(node, (ast.AnnAssign, ast.AugAssign))
                and isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
            ):
                out.append((node, getattr(node, "value", None)))
        return out

    def _check_all(self, sf: SourceFile) -> Iterator[Finding]:
        assignments = self._find_all_assignments(sf)
        if not assignments:
            if not sf.is_private_module():
                yield self.finding(
                    "all-missing",
                    sf,
                    1,
                    f"public module {sf.rel} defines no __all__ — the "
                    "export list is the machine-checkable public surface; "
                    "declare it (empty is fine for effect-only modules)",
                )
            return
        bindings = module_bindings(sf.tree)
        if "*" in bindings:
            return  # star-imports defeat static resolution; leave to runtime
        for stmt, value in assignments:
            if value is None:
                continue
            names = string_elements(value)
            if names is None:
                yield self.finding(
                    "all-format",
                    sf,
                    stmt.lineno,
                    "__all__ must be a literal list/tuple of strings — a "
                    "computed export list cannot be statically checked",
                )
                continue
            for name, line in names:
                if name not in bindings:
                    yield self.finding(
                        "all-unresolved",
                        sf,
                        line,
                        f"__all__ lists {name!r}, but the module never binds "
                        "that name — importing it would fail and the "
                        "documented surface lies",
                    )
