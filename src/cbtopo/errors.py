"""Exception types shared across the toolkit, and the resilience rule."""
from __future__ import annotations


class CbtopoError(Exception):
    """Base class for all toolkit errors."""


class EmptyInput(CbtopoError):
    """An operation that needs at least one element received none."""


class MalformedSimplex(CbtopoError):
    """A simplex was built from an empty vertex list or with repeated vertices."""


class UnknownVertex(CbtopoError):
    """A vertex set refers to vertices that are not part of the complex."""


class DimensionOutOfRange(CbtopoError):
    """A dimension argument falls outside the valid range for the complex."""


class NotColored(CbtopoError):
    """The operation requires a task with the opposite coloring convention."""


class InvalidTask(CbtopoError):
    """Task components violate a structural invariant (totality, coloring, images)."""


class BadResilience(CbtopoError):
    """The resilience parameter falls outside the admissible range."""


def _require_int(value: object, least: int, what: str) -> None:
    """Raise ValueError unless ``value`` is an ``int``, never a ``bool``,
    of at least ``least``, 0 or 1; ``what`` names it in the message."""
    if type(value) is not int or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} int, got {value!r}")


def check_resilience(n: int, t: int, *, allow_zero: bool) -> None:
    """Require ints n and t, n+1 >= 2 chains and a crash bound t with 2t < n+1.

    A majority of chains must survive, matching the quorum a commit
    decision needs.  The obstruction needs at least one crash (0 < t); the
    simulator also runs crash-free (``allow_zero``, 0 <= t).
    """
    if type(n) is not int or type(t) is not int:
        raise BadResilience(f"n and t must be ints, got n={n!r} and t={t!r}")
    if n < 1:
        raise BadResilience(f"need at least two chains, got n={n}")
    if t < (0 if allow_zero else 1) or 2 * t >= n + 1:
        window = "0 <= t" if allow_zero else "0 < t"
        raise BadResilience(f"resilience must satisfy {window} < (n+1)/2 with n={n}, got t={t}")


class InvalidSchedule(CbtopoError):
    """A simulator schedule references an event that cannot occur."""


class MalformedTrace(CbtopoError):
    """A trace file does not hold the records ``trace_to_jsonl`` writes."""


class ResourceBound(CbtopoError):
    """A bounded search exceeded its configured node budget."""

    def __init__(self, message: str, explored: int = 0) -> None:
        super().__init__(message)
        self.explored = explored
