"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: GraphError, PreconditionError and
NoCutsetFound -> 2, BudgetExhausted -> 3, InternalInvariantError -> 1.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed graph input: bad ids, self-loops, parallel edges, parse errors."""


class PreconditionError(ValueError):
    """A named precondition of an operation does not hold for the given input."""


class NoCutsetFound(PreconditionError):
    """The search is exhausted without a qualifying cutset.

    This is a reported outcome, not a bug: it signals that the input is
    below the order threshold for which the construction is guaranteed.
    """


class BudgetExhausted(RuntimeError):
    """An oracle stopped because its size or time budget ran out."""


class InternalInvariantError(RuntimeError):
    """A runtime invariant of an algorithm failed. Signals an implementation bug."""


def ensure(condition: bool, message: str) -> None:
    """Raise InternalInvariantError unless condition holds.

    Used for assertions that are part of an algorithm's contract and must
    survive interpreter optimization flags, unlike bare assert statements.
    """
    if not condition:
        raise InternalInvariantError(message)


def require_int(value: object, what: str) -> None:
    """Raise PreconditionError unless value is an int that is not a bool,
    the same rule vertex ids follow. A float or bool would compare without
    complaint and lead to wrong bounds or bare errors further on."""
    if type(value) is not int:
        raise PreconditionError(f"{what} must be an int, got {value!r}")
