"""Exception types shared across the package, the budget variables' reader and the index check.

Everything raised deliberately by this package derives from :class:`PflabError`,
so callers can catch one type at the boundary. The CLI maps subclasses onto
exit codes (see ``pflab.cli``).
"""

from __future__ import annotations

import os


class PflabError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(PflabError):
    """A game specification is malformed (bad sizes, duplicates, bad enums)."""


class SpecFileError(SpecError):
    """A spec file failed to parse or validate."""


class AdmissibleEmpty(PflabError):
    """No admissible collection exists for the given specification."""


class ProtocolViolation(PflabError):
    """A strategy broke the game protocol (illegal label, set, or order)."""


class RealizabilityViolation(PflabError):
    """A finished game violates the realizability mode it declared."""


class EmptyConsistentSet(PflabError):
    """A version space became empty, so the strategy cannot continue."""


class BudgetExceeded(PflabError):
    """A configured work budget was exhausted before the computation finished."""

    def __init__(self, message: str, spent: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


def env_budget(name: str, default: int) -> int:
    """Work budget read from environment variable ``name``, else ``default``.

    Raises :class:`SpecError` naming the variable when its value is not a
    nonnegative integer.
    """
    text = os.environ.get(name)
    if text is None:
        return default
    if not text.strip().isdecimal():
        raise SpecError(f"{name} must be a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past Python's int conversion digit limit
        raise SpecError(f"{name} has too many digits ({len(text.strip())})") from None


def require_index(value, n: int, what: str) -> None:
    """Raise :class:`SpecError` unless ``value`` is a plain int in ``range(n)``; a ``bool`` is not one."""
    if type(value) is not int or not 0 <= value < n:
        raise SpecError(f"{what} {value!r} outside range({n})")


class GridTooLarge(BudgetExceeded):
    """The measure grid for the requested resolution exceeds the grid budget."""


class TreeSpecMismatch(PflabError):
    """A shattering tree does not match the specification it is replayed on."""


class PoolExhausted(PflabError):
    """The collision adversary ran out of usable instances or window labels."""


class LabelPoolExhausted(PflabError):
    """An adversary could not find a label satisfying its reveal rule."""
