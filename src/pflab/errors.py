"""Exception types shared across the package, the budget variables' reader and the input checks.

Everything raised deliberately by this package derives from :class:`PflabError`,
so callers can catch one type at the boundary. The CLI maps subclasses onto
exit codes (see ``pflab.cli``).

Every value pflab prints is an int or a ``Fraction``, so every size, depth,
index, mask or threshold taken from outside is refused unless it is exact.
Three checks hold that rule: :func:`plain_int` (with :func:`plain_ints`,
its bulk form), :func:`label_mask` and :func:`exact_number`. Each returns
the value it checked and raises the exception class its caller names, with
the caller's own message; :func:`is_decimal` is the one rule for reading an
int from text, and :func:`is_rational` for reading a rational.
"""

from __future__ import annotations

import os
from fractions import Fraction


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

    Raises :class:`SpecError` naming the variable unless its value, with
    surrounding whitespace stripped, is ASCII digits (:func:`is_decimal`).
    """
    text = os.environ.get(name)
    if text is None:
        return default
    if not is_decimal(text.strip()):
        raise SpecError(f"{name} must be a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past Python's int conversion digit limit
        raise SpecError(f"{name} has too many digits ({len(text.strip())})") from None


def is_decimal(text: str, signed: bool = False) -> bool:
    """Is ``text`` ASCII digits only, after one leading ``-`` when ``signed``?

    ``int`` reads more than this (``"1_0"``, ``" 1 "``, ``"+1"`` and
    non-ASCII digits), and none of those is taken as an int.
    """
    if signed and text[:1] == "-":
        text = text[1:]
    return text.isascii() and text.isdigit()


def is_rational(text: str) -> bool:
    """Is ``text`` ASCII digits after an optional ``-``, then optionally ``/`` or ``.`` and digits?

    ``Fraction`` reads more than this (``"1_0"``, ``" 1/2 "``, ``".5"``,
    ``"1e-3"`` and non-ASCII digits), and none of those is taken as a
    rational. ``"1/0"`` passes: the rule is about spelling, not value.
    """
    for sep in "/.":
        head, found, tail = text.partition(sep)
        if found:
            return is_decimal(head, signed=True) and is_decimal(tail)
    return is_decimal(text, signed=True)


def _refusal(error: type, message: str, value, lo=None, hi=None) -> Exception:
    """``error`` with ``message`` filled in: the fields ``value``, ``type``, ``lo`` and ``hi``."""
    return error(message.format(value=value, type=type(value).__name__, lo=lo, hi=hi))


def plain_int(value, lo, hi, error: type, message: str, type_message: str | None = None) -> int:
    """``value`` if it is a plain int with ``lo <= value < hi``, else ``error``.

    A plain int's type is ``int`` itself, so a ``bool``, any other int
    subclass, a float and a digit string are refused. A bound of ``None``
    is open. ``message`` is a template with the fields ``value``, ``type``
    (the name of ``value``'s type), ``lo`` and ``hi``; a value that is not a
    plain int gets ``type_message`` instead when one is given.
    """
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value < hi):
        return value
    if type_message is not None and type(value) is not int:
        message = type_message
    raise _refusal(error, message, value, lo, hi)


def plain_ints(values, lo, hi, error: type, message: str) -> tuple:
    """``values`` as a tuple whose every entry passes :func:`plain_int`, else ``error``.

    The bulk form: when every entry passes, one scan of their types and one
    ``min`` and ``max`` decide it. ``values`` that is not iterable is
    refused too, with ``message`` filled in with ``values`` itself.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise _refusal(error, message, values, lo, hi) from None
    if values and not (
        set(map(type, values)) <= {int}
        and (lo is None or lo <= min(values)) and (hi is None or max(values) < hi)
    ):
        for v in values:
            plain_int(v, lo, hi, error, message)
    return values


def nonnegative(value, what: str) -> int:
    """``value`` if it is a plain int ``>= 0``: a depth, horizon, cap, round count or budget.

    Else :class:`SpecError`, "``what`` must be nonnegative, got -1" for a
    negative int and "``what`` must be a plain int, got ..." otherwise.
    """
    negative, not_int = " must be nonnegative, got {value}", " must be a plain int, got {value!r}"
    return plain_int(value, 0, None, SpecError, what + negative, what + not_int)


def label_mask(value, error: type, message: str) -> int:
    """``value`` if it is a label mask, a plain int ``>= 0`` whose bit ``y`` is label ``y``.

    Else ``error``, with ``message`` filled in as :func:`plain_int` fills it.
    """
    if type(value) is int and value >= 0:
        return value
    raise _refusal(error, message, value)


def exact_number(value, lo, hi, error: type, message: str, type_message: str | None = None):
    """``value`` if it is a ``Fraction`` or a plain int with ``lo <= value <= hi``, else ``error``.

    A float is a rounded binary value and a ``bool`` is no number, so
    neither is exact. Bounds and messages are as in :func:`plain_int`, but
    the range is closed.
    """
    exact = type(value) is int or isinstance(value, Fraction)
    if exact and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    if type_message is not None and not exact:
        message = type_message
    raise _refusal(error, message, value, lo, hi)


class GridTooLarge(BudgetExceeded):
    """The measure grid for the requested resolution exceeds the grid budget."""


class TreeSpecMismatch(PflabError):
    """A shattering tree does not match the specification it is replayed on."""


class PoolExhausted(PflabError):
    """The collision adversary ran out of usable instances or window labels."""


class LabelPoolExhausted(PflabError):
    """An adversary could not find a label satisfying its reveal rule."""
