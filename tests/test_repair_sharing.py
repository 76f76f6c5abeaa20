"""Shared spike repairs: the max-power repair once per ``P_max`` in a batch.

The spike repair (paper Fig. 4) reads ``P_max`` and the total baseline
but never ``P_min``, so ``prepare_batch`` runs every restart once per
budget that two or more of a batch's jobs share and the max-power stage
replays the outcomes.  These tests check that

* a sweep through ``BatchRunner`` answers exactly like a fresh
  ``PowerAwareScheduler().solve`` of every point, with every non-``lp_*``
  counter equal (grid28 8x8, Fig. 1 6x6, the rover worst case at 19 W);
* the repair runs once per distinct ``P_max`` and restart;
* a budget where every restart fails gives the same infeasible point
  and failure text;
* DVFS, timing-failure, store-served and ``share=False`` jobs get no
  table, and the batch never mutates the graphs it shares;
* the recursion headroom a repair raises survives a concurrent repair.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import ConstraintGraph, PowerProfile, SchedulingProblem
from repro.analysis.sweep import SweepPoint
from repro.core.dvfs import attach_ladder
from repro.engine import BatchRunner, RunnerConfig, ScheduleStore, SolveJob
from repro.engine.jobs import prepare_batch, run_job
from repro.errors import SchedulingFailure
from repro.examples_data import fig1_problem
from repro.mission import MarsRover, SolarCase
from repro.obs import capture
from repro.scheduling import (MaxPowerScheduler, PowerAwareScheduler,
                              SchedulerOptions, prepare)
from repro.scheduling import max_power as max_power_module
from repro.scheduling.max_power import REPAIR_RECURSION_LIMIT, \
    shared_repairs
from repro.workloads import RandomWorkloadConfig, random_problem


def grid(problem, side, budgets, levels):
    """The centres of a side x side grid over multiples of the nominal
    budgets, ``P_min`` clamped to ``P_max``."""
    (b_lo, b_hi), (l_lo, l_hi) = budgets, levels
    points = []
    for i in range(side):
        budget = round(problem.p_max
                       * (b_lo + (b_hi - b_lo) * (i + 0.5) / side), 3)
        for j in range(side):
            level = problem.p_min * (l_lo + (l_hi - l_lo) * (j + 0.5) / side)
            points.append((budget, round(min(level, budget), 3)))
    return points


def grid28_8x8():
    problem = random_problem(
        11, RandomWorkloadConfig(tasks=28, resources=4, layers=5))
    return problem, grid(problem, 8, (0.6, 1.75), (0.3, 1.0))


def fig1_6x6():
    problem = fig1_problem()
    return problem, grid(problem, 6, (0.8, 1.5), (0.2, 1.0))


def rover_worst_19w():
    problem = MarsRover.standard().problem(SolarCase.WORST)
    return problem, [(19.0, level) for level in (4.5, 9.0, 13.5)]


WORKLOADS = {"grid28-8x8": grid28_8x8, "fig1-6x6": fig1_6x6,
             "rover-worst-19W": rover_worst_19w}


def plain_counters(stats):
    """Every counter the shared repair must keep (the longest-path
    counters drop: the work they count no longer runs)."""
    counters = stats.as_dict()["counters"] if hasattr(stats, "as_dict") \
        else stats.get("counters", {})
    return {name: value for name, value in counters.items()
            if not name.startswith("lp_")}


def fresh(problem):
    try:
        result = PowerAwareScheduler().solve(problem)
    except SchedulingFailure:
        return SweepPoint(p_max=problem.p_max, p_min=problem.p_min,
                          feasible=False), {}
    return SweepPoint(p_max=problem.p_max, p_min=problem.p_min,
                      feasible=True, finish_time=result.finish_time,
                      energy_cost=result.energy_cost,
                      utilization=result.utilization,
                      peak_power=result.metrics.peak_power), \
        plain_counters(result.stats)


@pytest.fixture
def count_repairs(monkeypatch):
    """``(graph name, P_max, variant)`` of every spike repair run."""
    calls = []
    real = MaxPowerScheduler.eliminate_spikes

    def counting(self, graph, p_max, baseline, variant=0):
        calls.append((graph.name, p_max, variant))
        return real(self, graph, p_max, baseline, variant=variant)

    monkeypatch.setattr(MaxPowerScheduler, "eliminate_spikes", counting)
    return calls


def jobs_for(problem, points, options=None):
    return [SolveJob(problem=problem.with_power_constraints(*point),
                     options=options) for point in points]


def entries_for(jobs):
    return [(position, job.key(), job) for position, job in enumerate(jobs)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batch_matches_fresh_solves(workload, count_repairs):
    problem, points = WORKLOADS[workload]()
    jobs = jobs_for(problem, points)
    results = BatchRunner(RunnerConfig(use_cache=False)).run(jobs)
    restarts = SchedulerOptions().max_power_restarts
    budgets = {p_max for p_max, _ in points}
    assert len(budgets) < len(points)
    assert sorted(count_repairs) == sorted(
        (problem.graph.name, p_max, variant)
        for p_max in budgets for variant in range(restarts))
    for job, result in zip(jobs, results):
        point, counters = fresh(job.problem)
        assert result.value == point, job.problem.p_max
        assert plain_counters(result.stats) == counters


def test_every_restart_failing_gives_the_same_failure():
    options = SchedulerOptions(serial_fallback=False, max_spike_attempts=100)
    problem = MarsRover.standard().problem(SolarCase.WORST)
    jobs = jobs_for(problem, [(19.0, 4.5), (19.0, 9.0)], options)
    entries = prepare_batch(entries_for(jobs))
    for _position, _key, job in entries:
        [row] = job.prepared.repairs.values()
        assert all(outcome.schedule is None for outcome in row)
        with pytest.raises(SchedulingFailure) as fresh_info:
            MaxPowerScheduler(options).solve(job.problem)
        with pytest.raises(SchedulingFailure) as shared_info:
            MaxPowerScheduler(options).solve(job.problem, job.prepared)
        assert str(shared_info.value) == str(fresh_info.value)
    values = BatchRunner(RunnerConfig(use_cache=False)).run_values(jobs)
    assert [value.feasible for value in values] == [False, False]


def test_each_job_carries_only_its_own_row():
    problem, points = fig1_6x6()
    entries = prepare_batch(entries_for(jobs_for(problem, points)))
    budgets = {}
    for _position, _key, job in entries:
        key = (job.problem.p_max, job.problem.total_baseline)
        assert list(job.prepared.repairs) == [key]
        budgets.setdefault(key, set()).add(id(job.prepared))
    # One narrowed object per budget, shared by that budget's jobs.
    assert len(budgets) == 6
    assert all(len(objects) == 1 for objects in budgets.values())


def test_budgets_solved_once_get_no_table():
    problem = fig1_problem()
    entries = prepare_batch(entries_for(jobs_for(
        problem, [(16, 4), (20, 4), (20, 6), (24, 4)])))
    rows = [dict(job.prepared.repairs) for _p, _k, job in entries]
    assert [len(row) for row in rows] == [0, 1, 1, 0]
    assert entries[0][2].prepared is entries[3][2].prepared


def test_no_table_without_sharing_or_a_repair(count_repairs):
    fig1 = fig1_problem()
    points = [(20, 4), (20, 6)]
    # Backends that re-encode jobs prepare (and repair) for themselves.
    assert all(job.prepared is None for _p, _k, job in prepare_batch(
        entries_for(jobs_for(fig1, points)), share=False))
    # DVFS jobs are never prepared.
    laddered = attach_ladder(fig1, (1.0, 0.5))
    assert all(job.prepared is None for _p, _k, job in prepare_batch(
        entries_for(jobs_for(laddered, points))))
    # A task above P_max fails the power screen before any repair.
    tight = prepare_batch(entries_for(jobs_for(fig1, [(5, 1), (5, 2)])))
    assert all(not job.prepared.repairs for _p, _k, job in tight)
    # No time-valid schedule: the timing failure is re-raised instead.
    graph = ConstraintGraph("clash")
    graph.new_task("a", duration=10, power=1.0, resource="R")
    graph.new_task("b", duration=10, power=1.0, resource="R")
    graph.add_separation_window("a", "b", 0, 5)
    clash = SchedulingProblem(graph, p_max=10.0)
    failed = prepare_batch(entries_for(jobs_for(clash, [(10, 1), (10, 2)])))
    assert all(job.prepared.timing_failure is not None
               and not job.prepared.repairs for _p, _k, job in failed)
    assert shared_repairs(clash, prepare(clash)) is None
    assert count_repairs == []


class CountingStore(ScheduleStore):
    """A store that counts the probes a caller makes through it."""

    probes = 0

    def probe(self, base_key, p_max, p_min):
        self.probes += 1
        return super().probe(base_key, p_max, p_min)


def test_store_served_jobs_do_not_count_towards_sharing(count_repairs):
    problem = fig1_problem()
    timing = prepare(problem).schedule
    peak = PowerProfile.from_schedule(
        timing, baseline=problem.baseline).peak()
    # Inside the certified rectangle: P_max above the timing peak.
    served = [(peak + 1, 0), (peak + 1, 0.5)]
    store = CountingStore()
    entries = prepare_batch(entries_for(jobs_for(problem, served)), store)
    assert all(not job.prepared.repairs for _p, _k, job in entries)
    assert count_repairs == []
    # The classification goes round the store's own (counting) probe.
    assert store.probes == 0
    assert store.counters()["range_hits"] == store.counters()["misses"] \
        == 0
    # Outside the rectangle the same two jobs share their repairs.
    entries = prepare_batch(entries_for(jobs_for(
        problem, [(peak - 1, 0), (peak - 1, 0.5)])), store)
    assert all(job.prepared.repairs for _p, _k, job in entries)


def test_shared_graphs_are_never_mutated():
    problem, points = fig1_6x6()
    entries = prepare_batch(entries_for(jobs_for(problem, points)))
    graphs = {}
    for _p, _k, job in entries:
        prepared = job.prepared
        graphs[id(prepared.graph)] = prepared.graph
        for row in prepared.repairs.values():
            for outcome in row:
                if outcome.schedule is not None:
                    graphs[id(outcome.schedule.graph)] = \
                        outcome.schedule.graph
    versions = {key: graph._version for key, graph in graphs.items()}
    sizes = {key: len(list(graph.edges())) for key, graph in graphs.items()}
    for position, key, job in entries:
        assert run_job(job, position, key).ok
    assert {key: graph._version for key, graph in graphs.items()} \
        == versions
    assert {key: len(list(graph.edges()))
            for key, graph in graphs.items()} == sizes


def test_replayed_restarts_are_traced_and_counted():
    problem, points = fig1_6x6()
    runner = BatchRunner(RunnerConfig(use_cache=False, instrument=True))
    runner.run(jobs_for(problem, points))
    restarts = []

    def walk(doc):
        if doc["name"] == "sched.maxp.restart":
            restarts.append(doc["attrs"])
        for child in doc.get("children", []):
            walk(child)

    for span in runner.last_trace.spans:
        walk(span)
    variants = SchedulerOptions().max_power_restarts
    assert len(restarts) == len(points) * variants
    assert all(attrs["reused"] is True for attrs in restarts)
    assert sorted({attrs["variant"] for attrs in restarts}) \
        == list(range(variants))
    assert runner.last_trace.metrics["sched.maxp.repairs_reused"][
        "value"] == len(points) * variants
    # A solve that repairs for itself records no reuse.
    with capture() as cap:
        PowerAwareScheduler().solve(problem)
    assert "sched.maxp.repairs_reused" not in cap.metrics_data["counters"]


def test_concurrent_repairs_keep_their_recursion_headroom(monkeypatch):
    """Thread A enters a repair, thread B enters, A leaves: B must still
    run under the raised limit, and the limit returns once B leaves."""
    events = {name: threading.Event()
              for name in ("a_in", "b_in", "a_go", "b_go")}
    seen = {}

    def fake_repair(self, graph, p_max, baseline):
        who = threading.current_thread().name
        events[f"{who}_in"].set()
        events[f"{who}_go"].wait(timeout=30)
        seen[who] = sys.getrecursionlimit()
        return None

    monkeypatch.setattr(MaxPowerScheduler, "_repair", fake_repair)
    graph = fig1_problem().fresh_graph()

    def repair():
        with pytest.raises(SchedulingFailure):
            MaxPowerScheduler().eliminate_spikes(graph.copy(), 10.0, 0.0)

    before = sys.getrecursionlimit()
    assert before < REPAIR_RECURSION_LIMIT
    thread_a = threading.Thread(target=repair, name="a")
    thread_b = threading.Thread(target=repair, name="b")
    thread_a.start()
    assert events["a_in"].wait(timeout=30)
    thread_b.start()
    assert events["b_in"].wait(timeout=30)
    events["a_go"].set()
    thread_a.join(timeout=30)
    assert not thread_a.is_alive()
    assert sys.getrecursionlimit() >= REPAIR_RECURSION_LIMIT
    events["b_go"].set()
    thread_b.join(timeout=30)
    assert not thread_b.is_alive()
    assert seen == {"a": REPAIR_RECURSION_LIMIT, "b": REPAIR_RECURSION_LIMIT}
    assert sys.getrecursionlimit() == before
    assert max_power_module._headroom_users == 0


def test_overlapping_repairs_under_fast_thread_switching(monkeypatch):
    """More threads than cores enter and leave repairs with a short
    switch interval: every repair runs under the raised limit, and the
    limit is restored once all have left."""
    seen = []
    lock = threading.Lock()

    def fake_repair(self, graph, p_max, baseline):
        for _ in range(200):
            with lock:
                seen.append(sys.getrecursionlimit())
        return None

    monkeypatch.setattr(MaxPowerScheduler, "_repair", fake_repair)
    graph = fig1_problem().fresh_graph()

    def repairs():
        for _ in range(20):
            with pytest.raises(SchedulingFailure):
                MaxPowerScheduler().eliminate_spikes(graph.copy(), 10.0,
                                                     0.0)

    before = sys.getrecursionlimit()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=repairs) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 20 * 200
    assert min(seen) == REPAIR_RECURSION_LIMIT
    assert sys.getrecursionlimit() == before
    assert max_power_module._headroom_users == 0
