"""Unit tests for the min-power scheduler (paper Fig. 6)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (ConstraintGraph, MaxPowerScheduler, MinPowerScheduler,
                   SchedulerOptions, SchedulingProblem,
                   check_power_valid, min_power_schedule)
from repro.core import ANCHOR_NAME, PowerProfile
from repro.core.slack import slack
from repro.errors import SchedulingFailure
from repro.examples_data import fig1_options, fig1_problem
from repro.scheduling import prepare
from repro.scheduling.min_power import _RHO_EPS, _utilization
from repro.scheduling.timing import asap_schedule
from repro.workloads import RandomWorkloadConfig, random_problem


def gap_problem() -> SchedulingProblem:
    """A movable task can fill the gap behind a fixed chain.

    Chain x(6W) -> y(6W) occupies [0,10) on resource A; task m (6 W,
    slack-rich) idles the interval [10, 20) unless delayed; with
    P_min = 6 the min-power scheduler should slide m right to keep the
    profile at the free level longer.
    """
    g = ConstraintGraph("gap")
    g.new_task("x", duration=5, power=6.0, resource="A")
    g.new_task("y", duration=5, power=6.0, resource="A")
    g.add_precedence("x", "y")
    g.new_task("m", duration=5, power=6.0, resource="B")
    g.new_task("end", duration=5, power=6.0, resource="A")
    g.add_precedence("y", "end", gap=5)  # hole in [10, 15)
    return SchedulingProblem(g, p_max=20.0, p_min=6.0)


class TestGapFilling:
    def test_gap_filled_and_cost_reduced(self):
        problem = gap_problem()
        base = MaxPowerScheduler().solve(problem)
        improved = MinPowerScheduler().improve(problem, base)
        assert improved.utilization >= base.utilization
        assert improved.energy_cost <= base.energy_cost + 1e-9
        # m should have been moved into the [10, 15) hole
        assert improved.schedule.start("m") == 10

    def test_finish_time_never_increases(self):
        problem = gap_problem()
        base = MaxPowerScheduler().solve(problem)
        improved = MinPowerScheduler().improve(problem, base)
        assert improved.finish_time <= base.finish_time

    def test_result_stays_valid(self):
        problem = gap_problem()
        result = min_power_schedule(problem)
        assert check_power_valid(result.schedule, problem.p_max).ok

    def test_no_op_when_p_min_zero(self):
        problem = gap_problem().with_power_constraints(p_max=20.0,
                                                       p_min=0.0)
        base = MaxPowerScheduler().solve(problem)
        improved = MinPowerScheduler().improve(problem, base)
        assert improved.schedule == base.schedule

    def test_no_op_at_full_utilization(self):
        g = ConstraintGraph()
        g.new_task("a", duration=5, power=6.0, resource="A")
        problem = SchedulingProblem(g, p_max=10.0, p_min=6.0)
        result = min_power_schedule(problem)
        assert result.utilization == pytest.approx(1.0)

    def test_stage_label(self):
        result = min_power_schedule(gap_problem())
        assert result.stage == "min_power"


class TestHeuristicConfigurations:
    def test_single_scan_not_better_than_multi(self):
        problem = gap_problem()
        single = min_power_schedule(
            problem, SchedulerOptions(min_power_scans=1,
                                      scan_orders=("forward",),
                                      slot_heuristics=("start_at_gap",)))
        multi = min_power_schedule(
            problem, SchedulerOptions(min_power_scans=9))
        assert multi.utilization >= single.utilization - 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = min_power_schedule(gap_problem(), SchedulerOptions(seed=11))
        b = min_power_schedule(gap_problem(), SchedulerOptions(seed=11))
        assert a.schedule == b.schedule

    def test_random_slot_heuristic_valid(self):
        options = SchedulerOptions(slot_heuristics=("random",), seed=3)
        result = min_power_schedule(gap_problem(), options)
        problem = gap_problem()
        assert check_power_valid(result.schedule, problem.p_max).ok

    def test_reverse_scan_order_valid(self):
        options = SchedulerOptions(scan_orders=("reverse",))
        result = min_power_schedule(gap_problem(), options)
        assert result.metrics.spikes == 0


class TestPaperExample:
    def test_fig7_reaches_full_utilization(self):
        result = min_power_schedule(fig1_problem(), fig1_options())
        assert result.utilization == pytest.approx(1.0)
        assert result.profile.floor() == pytest.approx(14.0)
        assert result.metrics.peak_power <= 16.0 + 1e-9


# ----------------------------------------------------------------------
# trials built without longest paths
# ----------------------------------------------------------------------

class ReferenceMinPower(MinPowerScheduler):
    """Gap filling as it was before trials skipped the longest paths:
    every trial adds its release edge, re-solves the ASAP schedule and
    rolls back when rejected; candidates are re-scanned per gap."""

    def _fill_one_gap(self, graph, schedule, profile, t, p_max, p_min,
                      baseline, config, rng, rho_now):
        if profile.value(t) >= p_min - PowerProfile.POWER_TOL:
            return None
        makespan = schedule.makespan
        for name in self._gap_candidates(schedule, t):
            window = self._slot_window(graph, schedule, name, t)
            if window is None:
                continue
            new_start = self._choose_slot(graph, window, name, t,
                                          profile, config, rng)
            token = graph.checkpoint()
            if not graph.add_edge(ANCHOR_NAME, name, new_start,
                                  tag="gapfill"):
                graph.rollback(token)
                continue
            accepted = None
            trial = asap_schedule(graph, probe=True)
            if trial is not None and trial.makespan <= makespan:
                trial_profile = PowerProfile.from_schedule(
                    trial, baseline=baseline, horizon=makespan)
                if trial_profile.is_power_valid(p_max):
                    rho_new = _utilization(trial_profile, p_min)
                    if rho_new > rho_now + _RHO_EPS:
                        accepted = (trial, trial_profile, rho_new)
            if accepted is not None:
                self.stats.gap_fill_moves += 1
                return accepted
            self.stats.gap_fill_rejected += 1
            graph.rollback(token)
        return None

    def _gap_candidates(self, schedule, t):
        graph = schedule.graph
        out = []
        for name, start in schedule.items():
            task = graph.task(name)
            if task.duration == 0 or task.power == 0 or start > t:
                continue
            if schedule.is_active(name, t):
                continue
            if slack(schedule, name) >= t - start - task.duration + 1:
                out.append((start, name))
        out.sort(key=lambda pair: (-pair[0], pair[1]))
        return [name for _, name in out]


def random_instance(seed, tasks, level=1.0):
    problem = random_problem(
        seed, RandomWorkloadConfig(tasks=tasks, resources=3, layers=3))
    return problem.with_power_constraints(
        problem.p_max, min(problem.p_max, problem.p_min * level))


def max_power_base(seed, tasks, level):
    problem = random_instance(seed, tasks, level)
    options = SchedulerOptions(max_power_restarts=1, max_spike_attempts=200)
    try:
        return problem, MaxPowerScheduler(options).solve(problem)
    except SchedulingFailure:
        return problem, None


class TestTrialWithoutLongestPaths:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), tasks=st.sampled_from((8, 16)),
           picks=st.lists(st.tuples(st.integers(0, 10_000),
                                    st.integers(1, 10_000)),
                          min_size=1, max_size=6))
    def test_within_slack_delay_is_the_asap_schedule(self, seed, tasks,
                                                     picks):
        graph = prepare(random_instance(seed, tasks)).graph
        schedule = asap_schedule(graph)
        names = sorted(schedule)
        for pick, amount in picks:
            name = names[pick % len(names)]
            room = min(slack(schedule, name), 10_000)
            if room == 0:
                continue
            new_start = schedule.start(name) + 1 + amount % room
            moved = schedule.with_start(name, new_start)
            assert graph.add_edge(ANCHOR_NAME, name, new_start,
                                  tag="gapfill")
            schedule = asap_schedule(graph)
            assert schedule.as_dict() == moved.as_dict()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), tasks=st.sampled_from((8, 16)),
           level=st.sampled_from((0.5, 1.0, 1.4)),
           slots=st.sampled_from((("start_at_gap",), ("finish_at_gap_end",),
                                  ("random",), ("start_at_gap", "random"))))
    def test_same_moves_and_counters_as_the_reference(self, seed, tasks,
                                                      level, slots):
        problem, base = max_power_base(seed, tasks, level)
        if base is None:
            return
        options = SchedulerOptions(slot_heuristics=slots, seed=seed)
        fast = MinPowerScheduler(options)
        reference = ReferenceMinPower(options)
        got = fast.improve(problem, base)
        want = reference.improve(problem, base)
        assert got.schedule.as_dict() == want.schedule.as_dict()
        assert got.utilization == want.utilization
        for counter in ("gap_fill_moves", "gap_fill_rejected", "scans"):
            assert getattr(fast.stats, counter) \
                == getattr(reference.stats, counter), counter
        # The accepted moves are the graph's only new edges.
        winner = got.extra["graph"]
        assert asap_schedule(winner).as_dict() == got.schedule.as_dict()
