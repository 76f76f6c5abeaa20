"""Max-power scheduler — the paper's Fig. 4 algorithm.

Takes a time-valid schedule and eliminates every *power spike*
(interval where the profile exceeds the hard budget ``P_max``) by
delaying simultaneously-active tasks, guided by slack-based heuristics:

1. at the earliest spike time ``t``, order the active tasks by slack
   ``Delta_sigma`` and delay the largest-slack task first;
2. bound each delay distance by the task's slack (when positive) and by
   its execution time;
3. when only zero-slack tasks remain, a delay cascades through the
   graph (``reschedule`` in the paper): successors shift right via the
   longest-path recomputation, and the remaining simultaneous tasks are
   locked at their current start times so the repair stays local;
4. on a dead end, backtrack and delay a different task first.

Delays and locks are materialized as graph edges (release-time edges
tagged ``"delay"``/``"lock"``), so the resulting schedule is always the
plain ASAP solution of the decorated graph — time-validity is inherited
from the constraint propagation rather than re-proved per move.

Two quality extensions beyond the pseudo-code (both measurable via
:class:`~repro.scheduling.base.SchedulerOptions` and the ablation
bench):

* **compaction** — a left-shift pass that relaxes scheduler-added delay
  edges after the spikes are gone, reclaiming idle time the greedy
  repair strands at the front of the schedule;
* **multi-start** — the repair is restarted a few times with perturbed
  tie-breaking (the paper's ordering is slack-based but ties are
  unspecified), and the best schedule by (finish time, energy cost)
  wins.

Like the paper's algorithm this remains a *heuristic, bounded* search:
it does not enumerate all partial orders, so in rare cases it can fail
even though a valid schedule exists (the optimal-gap benchmark
quantifies this).  It raises :class:`SchedulingFailure` in that case,
as :class:`BudgetExhausted` when it gave up at ``max_spike_attempts``.
Backtracking revisits edge sets, so one restart keeps a dead-end memo:
a state whose subtree failed within budget is charged its recorded
cost on a later visit instead of being searched again, which leaves
every answer and counter as the plain search gives them.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import contextmanager

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..core.slack import slack
from ..core.task import ANCHOR_NAME
from ..errors import BudgetExhausted, SchedulingFailure
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .preparation import PreparedProblem, RepairOutcome, prepare
from .timing import asap_schedule

__all__ = ["MaxPowerScheduler", "max_power_schedule", "shared_repairs"]


class MaxPowerScheduler:
    """Slack-heuristic spike elimination (paper Fig. 4)."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()
        self._salt: "dict[str, float]" = {}
        self._rng = random.Random(self.options.seed)
        self._replayed = 0

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem,
              prepared: "PreparedProblem | None" = None) -> ScheduleResult:
        """Produce a *valid* (time- and power-valid) schedule.

        Starts from the timing serialization of ``prepared`` (prepared
        here when None), then removes spikes; with ``max_power_restarts
        > 1`` the repair is retried under perturbed tie-breaking and the
        best (finish time, energy cost) schedule is kept.  When
        ``prepared`` holds the restart outcomes under this ``P_max``
        (a batch's shared repairs), they are replayed instead of
        repaired again; only the choice among them, which reads
        ``P_min``, runs here.  The result has ``stage="max_power"`` and
        the decorated graph in ``extra["graph"]``.
        """
        reasons = problem.feasible_power_check()
        if reasons:
            raise SchedulingFailure(
                "problem is power-infeasible: " + "; ".join(reasons))
        if prepared is None:
            prepared = prepare(problem, self.options)
        base_graph = prepared.timing_graph()
        self.stats = SchedulerStats()
        self.stats.merge(prepared.timing_stats)
        shared = prepared.repairs_for(problem.p_max, problem.total_baseline)
        if shared is None:
            outcomes = self._repair_all(problem, base_graph)
        else:
            outcomes = self._replay(shared)

        best: "tuple[tuple[float, float], Schedule] | None" = None
        failures: "list[str]" = []

        def consider(schedule: Schedule) -> None:
            nonlocal best
            profile = PowerProfile.from_schedule(
                schedule, baseline=problem.total_baseline)
            key = (float(schedule.makespan),
                   profile.energy_above(problem.p_min))
            if best is None or key < best[0]:
                best = (key, schedule)

        for outcome in outcomes:
            if outcome.schedule is None:
                failures.append(outcome.failure)
            else:
                consider(outcome.schedule)

        if self.options.serial_fallback:
            # The serial JPL schedule competes when power-valid: under
            # tight budgets (the rover's worst case) it beats the repair.
            serial = prepared.serial_candidate(problem.p_max)
            if serial is not None:
                consider(serial)

        if best is None:
            raise SchedulingFailure(
                f"max-power scheduler could not eliminate all spikes of "
                f"{problem.name!r} under P_max = {problem.p_max:g} W "
                f"({len(failures)} attempt(s); first failure: "
                f"{failures[0] if failures else 'n/a'})")
        _, schedule = best
        result = make_result(problem, schedule, stats=self.stats,
                             stage="max_power")
        result.extra["graph"] = schedule.graph
        return result

    def _repair_all(self, problem: SchedulingProblem,
                   base_graph: ConstraintGraph) -> "list[RepairOutcome]":
        """Run every restart's spike repair on a copy of ``base_graph``
        under ``problem``'s ``P_max``; never reads ``P_min``.

        Each outcome carries the counters its repair bumped, which are
        also added to :attr:`stats`.
        """
        outcomes = []
        for variant in range(max(1, self.options.max_power_restarts)):
            run_stats, self.stats = self.stats, SchedulerStats()
            with OBS.span("sched.maxp.restart",
                          variant=variant) as restart_span:
                schedule = failure = exhausted = None
                try:
                    schedule = self.eliminate_spikes(
                        base_graph.copy(), problem.p_max,
                        problem.total_baseline, variant=variant)
                except BudgetExhausted as exc:
                    failure, exhausted = str(exc), "budget"
                except SchedulingFailure as exc:
                    failure, exhausted = str(exc), "tree"
                delta, self.stats = self.stats, run_stats
                outcome = RepairOutcome(variant, schedule, failure,
                                        exhausted, delta)
                _mark_restart(restart_span, outcome)
                if self._replayed:
                    restart_span.set(dead_end_replays=self._replayed)
            run_stats.merge(delta)
            outcomes.append(outcome)
        return outcomes

    def _replay(self, outcomes: "tuple[RepairOutcome, ...]") \
            -> "tuple[RepairOutcome, ...]":
        """Take a batch's shared restart outcomes in place of running
        the repair: their spans (``reused=True``) and counters."""
        for outcome in outcomes:
            with OBS.span("sched.maxp.restart", variant=outcome.variant,
                          reused=True) as restart_span:
                _mark_restart(restart_span, outcome)
            self.stats.merge(outcome.stats)
        if OBS.enabled:
            OBS.metrics.counter("sched.maxp.repairs_reused") \
                .inc(len(outcomes))
        return outcomes

    # ------------------------------------------------------------------

    def eliminate_spikes(self, graph: ConstraintGraph, p_max: float,
                         baseline: float, variant: int = 0) -> Schedule:
        """Remove every spike from the ASAP schedule of ``graph``.

        The graph must already contain serialization edges (i.e. be the
        output of the timing scheduler).  On success the graph has been
        decorated with the delay/lock edges that realize the valid
        schedule.  ``variant > 0`` perturbs heuristic tie-breaking
        (multi-start).

        Raises :class:`BudgetExhausted` when the repair gave up at the
        attempt budget, and a plain :class:`SchedulingFailure` when
        every branch dead-ended first.
        """
        budget = self.options.max_spike_attempts
        self._attempts = budget
        self._rng = random.Random((self.options.seed, variant).__hash__())
        if variant == 0:
            self._salt = {}
        else:
            self._salt = {name: self._rng.random()
                          for name in graph.task_names()}
        # Dead-end memo for this episode; the shuffled ablation order
        # draws from the RNG, so a revisited state searches differently.
        self._dead_ends = {} if self.options.slack_ordering else None
        self._episode = graph.checkpoint()
        self._replayed = 0
        with _recursion_headroom():
            schedule = self._repair(graph, p_max, baseline)
        if OBS.enabled and self._replayed:
            OBS.metrics.counter("sched.maxp.dead_end_replays") \
                .inc(self._replayed)
        if schedule is None:
            what = (f"max-power scheduler could not eliminate all spikes "
                    f"of {graph.name!r} under P_max = {p_max:g} W")
            if self._attempts <= 0:
                if OBS.enabled:
                    OBS.metrics.counter("sched.maxp.budget_exhausted").inc()
                raise BudgetExhausted(
                    f"{what} (gave up at the attempt budget {budget})")
            raise SchedulingFailure(
                f"{what} (every branch dead-ended after "
                f"{budget - self._attempts} of {budget} attempts)")
        if self.options.compaction:
            schedule = self.compact(graph, p_max, baseline)
        return schedule

    def _repair(self, graph: ConstraintGraph, p_max: float,
                baseline: float) -> "Schedule | None":
        """Recursive spike repair; None signals a failed branch."""
        schedule = asap_schedule(graph, probe=True)
        if schedule is None:
            return None
        profile = PowerProfile.from_schedule(schedule, baseline=baseline)
        spike = profile.first_spike(p_max)
        if spike is None:
            return schedule
        if self._attempts <= 0:
            return None
        memo = self._dead_ends
        if memo is not None:
            # Graph operations depend on the edge set and the journaled
            # pairs alone, so a state that dead-ended within budget
            # before dead-ends again the same way: replay its cost.
            key = graph.journal_signature(self._episode)
            cost = memo.get(key)
            if cost is not None and cost[0] <= self._attempts:
                spent, removed, delays = cost
                self._attempts -= spent
                self._replayed += spent
                self.stats.spike_attempts += spent
                self.stats.spikes_removed += removed
                self.stats.delays_applied += delays
                return None
            before = (self._attempts, self.stats.spikes_removed,
                      self.stats.delays_applied)

        t = spike.start
        candidates = self._ordered_active(schedule, t)
        # Branch on which task is delayed *first*; the greedy inner loop
        # handles the rest.  The first branch is the pure paper
        # heuristic (largest slack first).
        for lead in range(len(candidates)):
            if self._attempts <= 0:
                return None
            self._attempts -= 1
            self.stats.spike_attempts += 1
            token = graph.checkpoint()
            cleared = self._clear_time(graph, t, p_max, baseline,
                                       prefer=candidates[lead])
            if cleared:
                self.stats.spikes_removed += 1
                solved = self._repair(graph, p_max, baseline)
                if solved is not None:
                    return solved
            graph.rollback(token)
        if memo is not None and 0 < self._attempts < before[0]:
            # Explored to the end without touching the budget.
            memo[key] = (before[0] - self._attempts,
                         self.stats.spikes_removed - before[1],
                         self.stats.delays_applied - before[2])
        return None

    # ------------------------------------------------------------------

    def _ordered_active(self, schedule: Schedule, t: int) -> "list[str]":
        """Active tasks at ``t`` in heuristic delay order.

        Paper heuristic: largest slack first (ties broken by smaller
        power, then by name — or by the multi-start salt).  With
        ``slack_ordering`` off (ablation), a seeded random order is
        used instead.
        """
        names = [task.name for task in schedule.active_tasks(t)]
        if not self.options.slack_ordering:
            self._rng.shuffle(names)
            return names
        names.sort(key=lambda n: (-slack(schedule, n),
                                  schedule.graph.task(n).power,
                                  self._salt.get(n, 0.0), n))
        return names

    def _clear_time(self, graph: ConstraintGraph, t: int, p_max: float,
                    baseline: float, prefer: "str | None" = None) -> bool:
        """Delay tasks until the profile at slot ``t`` is within budget.

        Victims whose delay would contradict the constraints (positive
        cycle — e.g. a locked task) are skipped rather than failing the
        branch; the branch dead-ends only when no delayable active task
        remains.
        """
        guard = 4 * len(graph) + 8
        blocked: "set[str]" = set()
        zero_slack_delayed = False
        schedule = None
        while guard > 0:
            guard -= 1
            schedule = asap_schedule(graph, probe=True)
            if schedule is None:  # pragma: no cover - defensive
                return False
            power = baseline + schedule.power_at(t)
            if power <= p_max + PowerProfile.POWER_TOL:
                if zero_slack_delayed:
                    self._lock_remaining(graph, schedule, t)
                return True
            order = [n for n in self._ordered_active(schedule, t)
                     if n not in blocked]
            if not order:
                # Every active task is blocked — typically because an
                # earlier zero-slack repair locked it.  Paper Fig. 4:
                # when the recursion fails, "these locks will be undone
                # ... the algorithm will choose one task from them to
                # make further delay".  Unlock one and retry.
                if not self._unlock_one(graph, schedule, t, blocked):
                    return False
                continue
            victim = prefer if prefer in order else order[0]
            prefer = None
            # Land just past where the power composition next changes.
            target = PowerProfile.from_schedule(
                schedule, baseline=baseline).segment_end(t)
            had_zero_slack = slack(schedule, victim) == 0
            token = graph.checkpoint()
            if not self._delay_past(graph, schedule, victim, t, target):
                blocked.add(victim)
                continue
            if asap_schedule(graph, probe=True) is None:
                graph.rollback(token)
                blocked.add(victim)
                continue
            self.stats.delays_applied += 1
            if had_zero_slack:
                zero_slack_delayed = True
        return False

    def _delay_past(self, graph: ConstraintGraph, schedule: Schedule,
                    name: str, t: int, target: int) -> bool:
        """Add a delay edge pushing ``name`` toward ``target`` (the end
        of the spiking profile segment, always > ``t``).

        The delay distance follows the paper's bounds: at most the
        task's slack when it has any, and at most its execution time
        (``delay_bound_by_duration``).  A partial delay (bounds shorter
        than needed) is allowed — the caller loops until the slot
        clears or the branch dead-ends.
        """
        task = graph.task(name)
        current = schedule.start(name)
        needed = max(target - current, t - current + 1)
        room = slack(schedule, name)
        if room > 0:
            distance = min(needed, room)
        else:
            distance = needed             # cascading reschedule
        if self.options.delay_bound_by_duration and task.duration > 0:
            distance = min(distance, max(task.duration, 1))
        if distance <= 0:
            return False
        return graph.add_edge(ANCHOR_NAME, name, current + distance,
                              tag="delay")

    def _unlock_one(self, graph: ConstraintGraph, schedule: Schedule,
                    t: int, blocked: "set[str]") -> bool:
        """Remove the start-time lock of one task active at ``t``.

        Only scheduler-added ``"lock"`` max edges are lifted — user
        deadlines are never touched.  ``weaken_edge`` (not plain
        removal) matters here: a lock that landed on a task already
        carrying a *tighter user start deadline* overwrote it in the
        edge store, and removing the pair outright would silently drop
        the user's deadline with the lock.  Weakening restores it.
        Returns True when a lock was lifted (the task becomes a delay
        candidate again).
        """
        for name in self._ordered_active(schedule, t):
            if graph.edge_tag(name, ANCHOR_NAME) == "lock":
                graph.weaken_edge(name, ANCHOR_NAME)
                blocked.discard(name)
                return True
        return False

    def _lock_remaining(self, graph: ConstraintGraph, schedule: Schedule,
                        t: int) -> None:
        """Lock the start times of the tasks still active at ``t``.

        After a cascading (zero-slack) delay the paper pins the
        remaining simultaneous tasks so later repairs do not silently
        shift them; the locks are release-time+deadline edge pairs and
        roll back with the branch on failure.
        """
        for task in schedule.active_tasks(t):
            graph.lock_start(task.name, schedule.start(task.name))

    # ------------------------------------------------------------------
    # compaction (left shift of scheduler-added delays)
    # ------------------------------------------------------------------

    #: Edge tags the compaction pass is allowed to relax.
    _RELAXABLE_TAGS = frozenset({"delay", "gapfill", "lock"})

    def compact(self, graph: ConstraintGraph, p_max: float,
                baseline: float) -> Schedule:
        """Left-shift compaction of scheduler-added delays.

        Visits tasks in start-time order and, for each anchor release
        edge the spike repair added, tries to relax it: first full
        removal, then (if that reopens a spike) the earliest
        power-valid start among the profile's segment boundaries.
        Every accepted relaxation keeps the schedule valid and never
        increases the finish time, so the loop converges.
        """
        while True:
            schedule = asap_schedule(graph)
            if not self._compact_round(graph, schedule, p_max, baseline):
                return schedule

    def _compact_round(self, graph: ConstraintGraph, schedule: Schedule,
                       p_max: float, baseline: float) -> bool:
        """One pass over all tasks; True if anything moved."""
        makespan = schedule.makespan
        order = sorted(schedule, key=lambda n: (schedule.start(n), n))
        moved = False
        for name in order:
            tag = graph.edge_tag(ANCHOR_NAME, name)
            if tag not in self._RELAXABLE_TAGS:
                continue
            if self._relax_release(graph, name, p_max, baseline,
                                   makespan):
                moved = True
        return moved

    def _relax_release(self, graph: ConstraintGraph, name: str,
                       p_max: float, baseline: float,
                       makespan: int) -> bool:
        """Try to move one task earlier by weakening its release edge."""
        release = graph.separation(ANCHOR_NAME, name)
        tag = graph.edge_tag(ANCHOR_NAME, name)
        token = graph.checkpoint()
        # Weaken, don't remove: the delay edge may have overwritten a
        # user release on the same (anchor, task) pair — restore it so
        # compaction never shifts a task before its user release.
        graph.weaken_edge(ANCHOR_NAME, name)
        trial = asap_schedule(graph, probe=True)
        if trial is None:              # pragma: no cover - defensive
            graph.rollback(token)
            return False
        earliest = trial.start(name)
        if earliest >= release:
            graph.rollback(token)
            return False
        profile = PowerProfile.from_schedule(trial, baseline=baseline)
        if trial.makespan <= makespan and profile.is_power_valid(p_max):
            return True
        # Full removal reopens a spike: try intermediate starts at the
        # profile's change points, earliest first.
        boundaries = sorted({t0 for t0, _, _ in profile.segments
                             if earliest < t0 < release})
        for start in boundaries:
            graph.rollback(token)
            graph.weaken_edge(ANCHOR_NAME, name)
            graph.add_edge(ANCHOR_NAME, name, start, tag=tag)
            trial = asap_schedule(graph, probe=True)
            if trial is None:           # pragma: no cover - defensive
                continue
            trial_profile = PowerProfile.from_schedule(
                trial, baseline=baseline)
            if trial.makespan <= makespan \
                    and trial_profile.is_power_valid(p_max):
                return True
        graph.rollback(token)
        return False


def _mark_restart(span, outcome: RepairOutcome) -> None:
    if outcome.schedule is None:
        span.set(failed=True, exhausted=outcome.exhausted)
    else:
        span.set(makespan=outcome.schedule.makespan)


#: Recursion limit a spike repair needs: one level per spike, beyond
#: CPython's default for deep schedules.
REPAIR_RECURSION_LIMIT = 50_000

_headroom_lock = threading.Lock()
#: Repairs running now, and the limit to restore when the last ends.
_headroom_users = 0
_headroom_saved = 0


@contextmanager
def _recursion_headroom():
    """Raise the process-wide recursion limit for one repair.

    The limit is shared by every thread (the solve server repairs in
    worker threads), so it is raised when the first concurrent repair
    enters and restored only when the last one leaves; a repair that
    saved and restored it alone could drop the limit under another
    thread's deep recursion.
    """
    global _headroom_users, _headroom_saved
    with _headroom_lock:
        if _headroom_users == 0:
            _headroom_saved = sys.getrecursionlimit()
            sys.setrecursionlimit(
                max(_headroom_saved, REPAIR_RECURSION_LIMIT))
        _headroom_users += 1
    try:
        yield
    finally:
        with _headroom_lock:
            _headroom_users -= 1
            if _headroom_users == 0:
                sys.setrecursionlimit(_headroom_saved)


def shared_repairs(problem: SchedulingProblem, prepared: PreparedProblem,
                   options: "SchedulerOptions | None" = None) \
        -> "tuple[RepairOutcome, ...] | None":
    """Every restart's repair under ``problem``'s ``P_max``, in the
    journal-free form a batch keeps in
    :attr:`PreparedProblem.repairs`; None when a solve of ``problem``
    never reaches the repair (timing failure, or a task above
    ``P_max``)."""
    if prepared.timing_failure is not None \
            or problem.feasible_power_check():
        return None
    outcomes = MaxPowerScheduler(options)._repair_all(
        problem, prepared.graph)
    return tuple(outcome.compact() for outcome in outcomes)


def max_power_schedule(problem: SchedulingProblem,
                       options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: timing + spike elimination in one call."""
    return MaxPowerScheduler(options).solve(problem)
