"""Pragma suppression fixture (tests/lint fixture, never imported)."""

__all__ = ["make", "phantom"]  # repro-lint: disable=facade.all-unresolved -- fixture exercises inline suppression


def make(spec):
    return spec
