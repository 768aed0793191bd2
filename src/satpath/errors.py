"""Exception types shared across the package.

Public functions check each integer, index, seed, real, config, explorer
and generator argument where it enters, and a malformed one raises
GameInputError naming the argument: an integer, index or seed that is a
bool, a float or a string; a real that is a bool, a string, nan or inf; a
value outside the argument's range; or an object of the wrong type.  None
of these is coerced into a different valid value.

The CLI maps these onto exit codes: invalid input -> 2, incomplete
solver or candidate search -> 3, a broken internal invariant of path
construction -> 4.  Exit code 1 is reserved for a failed ``verify``.
"""

from __future__ import annotations


class GameInputError(ValueError):
    """Malformed or out-of-contract input: bad types, shapes, ranges, or values."""


class GameFormatError(GameInputError):
    """A game document failed to parse; ``key`` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class SolverIncompleteError(RuntimeError):
    """Support enumeration exhausted without a verified equilibrium.

    This signals numerical degeneracy, not nonexistence.  ``best_candidate``
    holds the profile with the smallest maximum deviation gap seen, and
    ``best_gap`` that gap (``inf`` when no support produced any candidate).
    """

    def __init__(self, message: str, best_candidate=None, best_gap: float = float("inf")):
        super().__init__(message)
        self.best_candidate = best_candidate
        self.best_gap = best_gap


class WorseSearchIncompleteError(RuntimeError):
    """The Worse search found no candidate without certifying the Worse set
    empty, and the subgame jump that followed failed equilibrium
    verification, so the search missed a member.  ``partial_path`` holds the
    steps built so far, ending at the profile searched."""

    def __init__(self, message: str, partial_path=None):
        super().__init__(message)
        self.partial_path = partial_path


class PathInvariantError(RuntimeError):
    """Path construction broke one of its own invariants: a Worse step did
    not grow the unsatisfied set, or the finished path failed its own
    re-certification.  This is a defect in the constructor, not bad input."""
