"""Per-problem preparation: the budget-independent half of a solve.

A sweep re-solves one constraint graph under many ``(P_max, P_min)``
budgets, yet two searches in every solve read only the graph and the
options:

* the timing scheduler's serialization (paper Fig. 3) — the Fig. 2
  schedule, and the graph the max-power stage starts its repair from;
* the bounded search for a fully-serial JPL schedule, the max-power
  stage's fallback candidate.

:func:`prepare` runs both once and returns a :class:`PreparedProblem`.
``MaxPowerScheduler.solve`` and ``PowerAwareScheduler.solve`` /
``solve_pipeline`` accept one, so only the budget-dependent steps run
per point — for the fallback, the serial schedule's
``is_power_valid(P_max)`` check.  Without one they call :func:`prepare`
inline, once per solve.

Within one batch, the engine prepares a problem once for all the jobs
that solve it, keyed by content hash (``repro.engine.jobs.
prepare_batch``).  Problems carrying DVFS ladders are never handed a
prepared problem: their pipeline runs on a graph materialized from a
configuration chosen under ``P_max``.

The spike repair reads ``P_max`` and the total baseline but never
``P_min``, so a batch whose jobs share a ``P_max`` also runs it once:
the outcome of each max-power restart (:class:`RepairOutcome`) is kept
in :attr:`PreparedProblem.repairs`, keyed by ``(P_max, total
baseline)``, and the max-power stage replays it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..errors import BudgetExhausted, SchedulingFailure
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .serial import SerialScheduler
from .timing import TimingScheduler

__all__ = ["PreparedProblem", "RepairOutcome", "prepare", "prepared_for",
           "SERIAL_FALLBACK_BACKTRACKS"]

#: Backtrack budget of the serial fallback search.  The search is
#: opportunistic: a serialization-hostile instance (max windows that
#: forbid a full serial order) should fail fast, not burn the caller's
#: time.  Read only by :func:`prepare`, so the max-power stage and the
#: schedule store's certification always agree on the serial outcome.
SERIAL_FALLBACK_BACKTRACKS = 200


@dataclass(frozen=True)
class RepairOutcome:
    """One max-power restart's spike repair, as a batch shares it.

    ``schedule`` is the repaired schedule on its own journal-free graph
    copy, or None when the repair failed with ``failure`` (the
    :class:`SchedulingFailure` message) after it ``exhausted`` its
    ``"budget"`` (gave up) or its ``"tree"`` (every branch dead-ended).
    ``stats`` holds the :class:`SchedulerStats` counters the repair
    bumped.
    """

    variant: int
    schedule: "Schedule | None"
    failure: "str | None"
    exhausted: "str | None"
    stats: SchedulerStats

    def compact(self) -> "RepairOutcome":
        """A copy whose schedule sits on a journal-free graph copy."""
        return dataclasses.replace(self, schedule=_rebased(self.schedule))


@dataclass(frozen=True)
class PreparedProblem:
    """What :func:`prepare` learned about one problem, for any budget.

    ``graph`` and ``schedule`` are the timing-serialized graph and its
    ASAP (Fig. 2) schedule, or None when the timing search failed with
    ``timing_failure``.  ``serial`` is the fallback search's outcome:
    ``"found"`` (with ``serial_schedule`` and its ``serial_profile``),
    ``"none"`` (proved), ``"budget_exhausted"`` (gave up), or
    ``"skipped"`` (fallback off, or no time-valid schedule at all).

    ``repairs`` maps ``(P_max, total baseline)`` to the outcome of
    every max-power restart under that budget, in variant order; it is
    filled only by a batch whose jobs share the budget
    (:meth:`with_repairs`).

    The graphs are shared by every solve handed this object and must be
    treated as read-only; the schedulers only ever copy them.
    """

    graph: "ConstraintGraph | None"
    schedule: "Schedule | None"
    timing_stats: SchedulerStats
    timing_failure: "SchedulingFailure | None" = None
    serial: str = "skipped"
    serial_schedule: "Schedule | None" = None
    serial_profile: "PowerProfile | None" = None
    repairs: "Mapping[tuple[float, float], tuple[RepairOutcome, ...]]" = \
        field(default_factory=dict, compare=False, repr=False)

    def timing_graph(self) -> ConstraintGraph:
        """The timing-serialized graph; re-raises the timing failure."""
        if self.timing_failure is not None:
            failure = self.timing_failure
            raise type(failure)(*failure.args)
        return self.graph

    def timing_result(self, problem: SchedulingProblem) -> ScheduleResult:
        """The Fig. 2 stage result, evaluated under ``problem``'s
        budgets — what ``TimingScheduler().solve(problem)`` returns."""
        graph = self.timing_graph()
        stats = SchedulerStats()
        stats.merge(self.timing_stats)
        result = make_result(problem, self.schedule, stats=stats,
                             stage="timing")
        result.extra["graph"] = graph
        return result

    def serial_candidate(self, p_max: float) -> "Schedule | None":
        """The serial schedule when it fits ``p_max``."""
        if self.serial_profile is None \
                or not self.serial_profile.is_power_valid(p_max):
            return None
        return self.serial_schedule

    def compact(self) -> "PreparedProblem":
        """A copy on fresh graph copies, free of the searches' journals
        and longest-path state caches — the form a batch keeps."""
        schedule = _rebased(self.schedule)
        return dataclasses.replace(
            self, graph=None if schedule is None else schedule.graph,
            schedule=schedule,
            serial_schedule=_rebased(self.serial_schedule))

    def repairs_for(self, p_max: float, baseline: float) \
            -> "tuple[RepairOutcome, ...] | None":
        """The shared restart outcomes under ``(p_max, baseline)``."""
        return self.repairs.get((p_max, baseline))

    def with_repairs(self, p_max: float, baseline: float,
                     outcomes: "tuple[RepairOutcome, ...]") \
            -> "PreparedProblem":
        """A copy whose table holds only the ``(p_max, baseline)`` row,
        so a job pickled to a worker carries just its own outcomes."""
        return dataclasses.replace(
            self, repairs={(p_max, baseline): tuple(outcomes)})

    def record_reuse(self) -> None:
        """Record a ``sched.prepare`` span (``reused=True``) for one
        more solve served by this object."""
        with OBS.span("sched.prepare", reused=True,
                      backtracks=self.timing_stats.timing_backtracks,
                      serial=self.serial):
            _count_serial(self.serial)


def prepared_for(problem: SchedulingProblem, options: SchedulerOptions,
                 prepared: "PreparedProblem | None") -> PreparedProblem:
    """``prepared`` marked reused on the trace, or a fresh
    :func:`prepare` of the problem when it is None."""
    if prepared is None:
        return prepare(problem, options)
    prepared.record_reuse()
    return prepared


def _rebased(schedule: "Schedule | None") -> "Schedule | None":
    if schedule is None:
        return None
    return Schedule(schedule.graph.copy(), schedule.as_dict())


def prepare(problem: SchedulingProblem,
            options: "SchedulerOptions | None" = None) -> PreparedProblem:
    """Run the budget-independent searches of one solve.

    Reads neither ``P_max`` nor ``P_min``.  A timing failure (no
    time-valid schedule, or the timing search's budget ran out) is
    recorded, not raised: every solve handed the result re-raises it.
    The serial search runs only when ``options.serial_fallback`` is on
    and a time-valid schedule exists, with
    :data:`SERIAL_FALLBACK_BACKTRACKS` as its budget.
    """
    options = options or SchedulerOptions()
    with OBS.span("sched.prepare", reused=False) as span:
        prepared = _search(problem, options)
        span.set(backtracks=prepared.timing_stats.timing_backtracks,
                 serial=prepared.serial)
        _count_serial(prepared.serial)
    return prepared


def _count_serial(serial: str) -> None:
    """Count a solve whose serial fallback gave up on its budget as
    ``sched.serial.budget_exhausted`` (one per ``sched.prepare`` span
    that records ``serial="budget_exhausted"``)."""
    if serial == "budget_exhausted" and OBS.enabled:
        OBS.metrics.counter("sched.serial.budget_exhausted").inc()


def _search(problem: SchedulingProblem,
            options: SchedulerOptions) -> PreparedProblem:
    timing = TimingScheduler(options)
    graph = problem.fresh_graph()
    try:
        schedule = timing.schedule_graph(graph)
    except SchedulingFailure as exc:
        return PreparedProblem(graph=None, schedule=None,
                               timing_stats=timing.stats,
                               timing_failure=exc.with_traceback(None))
    serial, serial_schedule, serial_profile = "skipped", None, None
    if options.serial_fallback:
        searcher = SerialScheduler(dataclasses.replace(
            options, max_backtracks=SERIAL_FALLBACK_BACKTRACKS))
        with OBS.span("sched.serial.search") as span:
            try:
                serial_schedule = searcher.solve(problem).schedule
                serial = "found"
                serial_profile = PowerProfile.from_schedule(
                    serial_schedule, baseline=problem.total_baseline)
            except BudgetExhausted:
                serial = "budget_exhausted"
            except SchedulingFailure:
                serial = "none"
            span.set(backtracks=searcher.stats.timing_backtracks,
                     outcome=serial)
    return PreparedProblem(graph=graph, schedule=schedule,
                           timing_stats=timing.stats, serial=serial,
                           serial_schedule=serial_schedule,
                           serial_profile=serial_profile)
