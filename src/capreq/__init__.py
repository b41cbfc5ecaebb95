"""Scenario-based capital-requirement engine over finite one-period markets.

Computes the minimal cost of an eligible-asset portfolio that moves a
financial position into an acceptance set, and mechanically checks the
structural properties of that functional (translation invariance,
level-set geometry, finiteness and degeneracy) on concrete instances.
Every exception class of the package derives from ``CapreqError``.
"""

__version__ = "0.1.0"


class CapreqError(Exception):
    """A domain failure or solver refusal; ``exit_code`` is the CLI's exit status for it."""
    exit_code = 1


class UsageError(CapreqError, ValueError):
    """Malformed input or arguments: a parse error or a value outside its range."""
    exit_code = 2
