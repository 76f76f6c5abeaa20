"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Scheduling failures are split into *infeasibility*
(no schedule can exist: positive cycle, over-budget task, conflicting
locks) and *heuristic failure* (the bounded-search scheduler gave up;
a schedule might still exist), mirroring the paper's distinction between
provably-complete timing scheduling and heuristic power scheduling.
"""

from __future__ import annotations

__all__ = [
    "BudgetExhausted",
    "GraphError",
    "InfeasibleError",
    "PositiveCycleError",
    "ReproError",
    "SchedulingFailure",
    "SerializationError",
    "ValidationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Malformed constraint graph (unknown vertex, duplicate task, ...)."""


class PositiveCycleError(ReproError):
    """The constraint graph contains a positive cycle.

    A positive cycle in the (min/max separation) constraint graph means
    the timing constraints are mutually contradictory; no time-valid
    schedule exists.  The offending cycle, when known, is stored in
    :attr:`cycle` as a list of vertex names.
    """

    def __init__(self, message: str = "positive cycle in constraint graph",
                 cycle: "list[str] | None" = None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class InfeasibleError(ReproError):
    """No valid schedule can exist for the given constraints."""


class SchedulingFailure(ReproError):
    """The (heuristic) scheduler failed to find a schedule.

    Unlike :class:`InfeasibleError` this does not prove that no schedule
    exists: the max-power scheduler is a bounded heuristic search
    (Section 5.2 of the paper) and "may not find a valid schedule even
    though one exists".
    """


class BudgetExhausted(SchedulingFailure):
    """A search gave up at its backtrack budget (proved nothing)."""


class ValidationError(ReproError):
    """A schedule violates a constraint it was asserted to satisfy."""


class SerializationError(ReproError):
    """Problem/schedule (de)serialization failed."""
