"""Error types shared across the library and mapped to CLI exit codes."""


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
