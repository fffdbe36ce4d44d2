"""Error types shared across the library and mapped to CLI exit codes, the
one reader of integer inputs, and the one writer of integers that refuses
past the int-string limit."""

import operator


class TorsionLabError(Exception):
    """Base class for all library errors."""


class InputError(TorsionLabError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class UnsupportedRingError(TorsionLabError):
    """An exact computation is not available for this ring/ideal shape (exit code 3)."""


class WorkBudgetError(TorsionLabError):
    """A computation used up its fixed work budget without an answer (exit code 3)."""


class ContradictionError(TorsionLabError):
    """A verified mathematical statement failed on a concrete instance (exit code 1).

    Raising this means either the implementation is wrong or the statement's
    hypotheses were violated; it is never swallowed silently.
    """


def integer(value, what: str) -> int:
    """value as an int; a float or a numeric string is refused, where int()
    would truncate or parse it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def decimal(n: int) -> str:
    """str(n); an integer past the interpreter's int-string limit is refused
    with InputError, where str() raises ValueError."""
    try:
        return str(n)
    except ValueError as exc:
        raise InputError(f"the result holds an integer that cannot be written: {exc}") from None
