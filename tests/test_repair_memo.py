"""Dead-end memo of the max-power spike repair (paper Fig. 4).

Within one repair episode the search state is the graph's edge set, so
a state whose subtree dead-ended within budget dead-ends again the same
way, and ``MaxPowerScheduler._repair`` replays its recorded cost instead
of searching it again.  These tests pin the memoized repair to a
memo-free copy of the search as it was before the memo: the same
schedules, the same failure kind and text, and the same
``spike_attempts`` / ``spikes_removed`` / ``delays_applied`` on

* every restart of the rover worst case at 19 W and 25 W;
* random problems at tight ``P_max`` with attempt budgets of 1-300, so
  that a recorded dead end is also met with too little budget left;
* the shuffled ablation order (``slack_ordering=False``), which the
  memo leaves alone.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import ConstraintGraph
from repro.core.profile import PowerProfile
from repro.core.slack import slack
from repro.errors import BudgetExhausted, SchedulingFailure
from repro.mission import MarsRover, SolarCase
from repro.obs import capture
from repro.scheduling import MaxPowerScheduler, SchedulerOptions, prepare
from repro.scheduling.timing import asap_schedule
from repro.workloads import RandomWorkloadConfig, random_problem


class ReferenceScheduler(MaxPowerScheduler):
    """The repair without the memo: ``_repair`` and ``_clear_time`` as
    they were before it, so every revisited state is searched again."""

    def _repair(self, graph, p_max, baseline):
        schedule = asap_schedule(graph, probe=True)
        if schedule is None:
            return None
        profile = PowerProfile.from_schedule(schedule, baseline=baseline)
        spike = profile.first_spike(p_max)
        if spike is None:
            return schedule
        if self._attempts <= 0:
            return None

        t = spike.start
        candidates = self._ordered_active(schedule, t)
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
        return None

    def _clear_time(self, graph, t, p_max, baseline, prefer=None):
        guard = 4 * len(graph) + 8
        blocked = set()
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
                if not self._unlock_one(graph, schedule, t, blocked):
                    return False
                continue
            victim = prefer if prefer in order else order[0]
            prefer = None
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


class ShortBudgetProbe(MaxPowerScheduler):
    """Counts visits to a memoized dead end with less budget left than
    its recorded cost (the memo must search those again)."""

    short_visits = 0

    def _repair(self, graph, p_max, baseline):
        memo = self._dead_ends
        if memo:
            cost = memo.get(graph.journal_signature(self._episode))
            if cost is not None and cost[0] > self._attempts:
                self.short_visits += 1
        return super()._repair(graph, p_max, baseline)


COUNTERS = ("spike_attempts", "spikes_removed", "delays_applied")


def restarts(scheduler_class, problem, options):
    """Every restart's repair: (starts or failure kind and text, the
    three search counters), in variant order."""
    scheduler = scheduler_class(options)
    outcomes = scheduler._repair_all(problem, prepare(problem, options).graph)
    return scheduler, [
        (outcome.schedule.as_dict() if outcome.schedule else None,
         outcome.exhausted, outcome.failure,
         tuple(getattr(outcome.stats, name) for name in COUNTERS))
        for outcome in outcomes]


def rover_worst(p_max):
    problem = MarsRover.standard().problem(SolarCase.WORST)
    return replace(problem, p_max=p_max)


@pytest.mark.parametrize("p_max", [19.0, 25.0])
@pytest.mark.parametrize("ordering", [True, False],
                         ids=["slack-order", "shuffled"])
def test_rover_worst_matches_the_memo_free_search(p_max, ordering):
    problem = rover_worst(p_max)
    options = SchedulerOptions(slack_ordering=ordering)
    _, expected = restarts(ReferenceScheduler, problem, options)
    _, got = restarts(MaxPowerScheduler, problem, options)
    assert got == expected
    reference = ReferenceScheduler(options).solve(problem)
    memoized = MaxPowerScheduler(options).solve(problem)
    assert memoized.schedule.as_dict() == reference.schedule.as_dict()
    assert [getattr(memoized.stats, name) for name in COUNTERS] \
        == [getattr(reference.stats, name) for name in COUNTERS]


def test_rover_worst_at_19w_gives_up_at_the_budget_both_restarts():
    problem = rover_worst(19.0)
    options = SchedulerOptions()
    _, got = restarts(MaxPowerScheduler, problem, options)
    assert [exhausted for _, exhausted, _, _ in got] \
        == ["budget"] * options.max_power_restarts
    assert all("gave up at the attempt budget 2000" in failure
               for _, _, failure, _ in got)
    assert sum(counters[0] for *_, counters in got) == 4000
    # Both restarts fail: the serial fallback answers the solve.
    result = MaxPowerScheduler(options).solve(problem)
    serial = prepare(problem, options).serial_candidate(problem.p_max)
    assert result.schedule.as_dict() == serial.as_dict()
    assert (result.stats.spike_attempts, result.stats.spikes_removed,
            result.stats.delays_applied) == (4000, 1066, 3218)


def test_exhausted_kinds_raise_distinct_errors():
    problem = rover_worst(19.0)
    graph = prepare(problem).graph
    with pytest.raises(BudgetExhausted, match="gave up at the attempt "
                                              "budget 50"):
        MaxPowerScheduler(SchedulerOptions(max_spike_attempts=50)) \
            .eliminate_spikes(graph.copy(), 19.0, problem.total_baseline)
    # Two overlapping tasks pinned at time 0 by user windows: no
    # branch can move either, so the search runs out of branches.
    pinned = ConstraintGraph("pinned")
    for name in ("a", "b"):
        pinned.new_task(name, duration=4, power=5.0)
        pinned.add_release(name, 0)
        pinned.add_start_deadline(name, 0)
    with pytest.raises(SchedulingFailure, match="every branch "
                                                "dead-ended") as info:
        MaxPowerScheduler().eliminate_spikes(pinned, 8.0, 0.0)
    assert not isinstance(info.value, BudgetExhausted)


def test_restart_spans_and_counters_show_the_memo():
    problem = rover_worst(19.0)
    options = SchedulerOptions()
    with capture() as cap:
        MaxPowerScheduler(options).solve(problem)
    spans = []

    def walk(span):
        if span.name == "sched.maxp.restart":
            spans.append(span.attrs)
        for child in span.children:
            walk(child)

    for root in cap.spans:
        walk(root)
    assert [attrs["exhausted"] for attrs in spans] == ["budget", "budget"]
    assert all(attrs["failed"] is True for attrs in spans)
    replayed = sum(attrs.get("dead_end_replays", 0) for attrs in spans)
    counters = cap.metrics_data["counters"]
    assert replayed > 0
    assert counters["sched.maxp.dead_end_replays"] == replayed
    assert counters["sched.maxp.budget_exhausted"] == 2


def test_the_shuffled_order_keeps_no_memo():
    problem = rover_worst(19.0)
    with capture() as cap:
        MaxPowerScheduler(SchedulerOptions(slack_ordering=False)) \
            ._repair_all(problem, prepare(problem).graph)
    assert "sched.maxp.dead_end_replays" not in \
        cap.metrics_data["counters"]


def test_a_short_budget_searches_a_recorded_dead_end_again():
    """At a budget where some revisit finds less budget left than the
    dead end once cost, the memo searches it and still matches."""
    problem = rover_worst(19.0)
    options = SchedulerOptions(max_spike_attempts=120)
    probe, got = restarts(ShortBudgetProbe, problem, options)
    assert probe.short_visits > 0
    _, expected = restarts(ReferenceScheduler, problem, options)
    assert got == expected


@st.composite
def tight_problems(draw):
    # Large and tight enough that about a fifth of the examples revisit
    # a dead end, and half of those with less budget than it cost.
    config = RandomWorkloadConfig(
        tasks=draw(st.integers(10, 16)), resources=draw(st.integers(2, 4)),
        layers=draw(st.integers(2, 4)),
        tightness=draw(st.sampled_from([0.3, 0.4])))
    return random_problem(draw(st.integers(0, 10_000)), config)


@given(tight_problems(), st.integers(1, 300), st.booleans(),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_tight_problems_match_the_memo_free_search(
        problem, attempts, ordering, seed):
    if problem.feasible_power_check():
        return
    options = SchedulerOptions(max_spike_attempts=attempts,
                               slack_ordering=ordering, seed=seed)
    if prepare(problem, options).timing_failure is not None:
        return
    _, expected = restarts(ReferenceScheduler, problem, options)
    _, got = restarts(MaxPowerScheduler, problem, options)
    assert got == expected
