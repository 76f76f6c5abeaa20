"""Per-problem preparation: the budget-independent half of a solve.

``prepare`` runs the timing serialization and the bounded serial
search once per problem; the batch engine shares the result across the
sweep points of one batch.  These tests check that

* a sweep through ``BatchRunner`` answers exactly like a fresh
  ``PowerAwareScheduler().solve`` of every point (Fig. 1, a grid28
  sub-grid, the rover worst case at 19 W), and a pipeline handed a
  prepared problem reproduces a fresh pipeline down to the start times
  and its Fig. 2 stage;
* preparation runs once per distinct problem per batch, again in a new
  batch, and never for a DVFS problem;
* the serial search says "gave up" when it only ran out of budget.
"""

from __future__ import annotations

import pytest

from repro import ConstraintGraph, SchedulingProblem
from repro.core.dvfs import attach_ladder
from repro.engine import BatchRunner, RunnerConfig, ScheduleStore, SolveJob
from repro.engine.jobs import prepare_batch
from repro.errors import BudgetExhausted, SchedulingFailure
from repro.examples_data import fig1_problem
from repro.mission import MarsRover, SolarCase
from repro.obs import OBS
from repro.scheduling import (PowerAwareScheduler, SchedulerOptions,
                              SerialScheduler, TimingScheduler, prepare)
from repro.scheduling import preparation as prepare_module
from repro.scheduling.preparation import SERIAL_FALLBACK_BACKTRACKS
from repro.workloads import RandomWorkloadConfig, random_problem


def fig1_points():
    """Fig. 1 over an 8x8 grid of budgets and free-power levels."""
    problem = fig1_problem()
    return problem, [(p_max, p_min)
                     for p_max in (14, 16, 17, 18, 20, 22, 24, 28)
                     for p_min in (0, 2, 4, 6, 8, 10, 12, 14)]


def grid28_points():
    """The 28-task benchmark instance over a 4x4 sub-grid."""
    problem = random_problem(
        11, RandomWorkloadConfig(tasks=28, resources=4, layers=5))
    return problem, [(problem.p_max * budget,
                      min(problem.p_min * level, problem.p_max * budget))
                     for budget in (0.67, 0.96, 1.25, 1.68)
                     for level in (0.34, 0.56, 0.78, 0.96)]


def rover_worst_points():
    problem = MarsRover.standard().problem(SolarCase.WORST)
    return problem, [(19.0, problem.p_min)]


WORKLOADS = {"fig1-8x8": fig1_points, "grid28-4x4": grid28_points,
             "rover-worst-19W": rover_worst_points}


def answer(result):
    return (result.schedule.as_dict(), result.finish_time,
            result.energy_cost, result.metrics.peak_power)


def fresh_point(problem):
    try:
        result = PowerAwareScheduler().solve(problem)
    except SchedulingFailure:
        return (False, None, None, None)
    return (True, result.finish_time, result.energy_cost,
            result.metrics.peak_power)


@pytest.fixture
def count_prepares(monkeypatch):
    """Count every preparation, whoever computes it."""
    calls = []
    real = prepare_module._search

    def counting(problem, options):
        calls.append(problem.name)
        return real(problem, options)

    monkeypatch.setattr(prepare_module, "_search", counting)
    return calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batch_sweep_matches_fresh_solves(workload, count_prepares):
    problem, points = WORKLOADS[workload]()
    jobs = [SolveJob(problem=problem.with_power_constraints(*point))
            for point in points]
    results = BatchRunner(RunnerConfig(use_cache=False)).run(jobs)
    assert len(count_prepares) == 1
    for job, result in zip(jobs, results):
        value = result.value
        got = (value.feasible, value.finish_time, value.energy_cost,
               value.peak_power)
        assert got == fresh_point(job.problem), job.problem.p_max


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_prepared_pipeline_matches_fresh_pipeline(workload):
    problem, points = WORKLOADS[workload]()
    prepared = prepare(problem).compact()
    for point in points:
        point_problem = problem.with_power_constraints(*point)
        try:
            fresh = PowerAwareScheduler().solve_pipeline(point_problem)
        except SchedulingFailure:
            with pytest.raises(SchedulingFailure):
                PowerAwareScheduler().solve_pipeline(point_problem,
                                                     prepared)
            continue
        shared = PowerAwareScheduler().solve_pipeline(point_problem,
                                                      prepared)
        assert answer(shared.final) == answer(fresh.final)
        timing = TimingScheduler().solve(point_problem)
        assert shared.timing.stage == timing.stage == "timing"
        assert answer(shared.timing) == answer(timing)
        assert shared.timing.metrics == timing.metrics


def test_rover_worst_case_is_the_serial_schedule_both_ways():
    problem = MarsRover.standard().problem(SolarCase.WORST) \
        .with_power_constraints(19.0, 9.0)
    direct = PowerAwareScheduler().solve(problem)
    [served] = BatchRunner().run_values([SolveJob(problem=problem)])
    assert direct.finish_time == served.finish_time == 75
    assert direct.energy_cost == served.energy_cost
    assert prepare(problem).serial == "found"


def test_prepare_once_per_problem_across_interleaved_points(
        count_prepares):
    fig1 = fig1_problem()
    rover = MarsRover.standard().problem(SolarCase.TYPICAL)
    jobs = []
    for step in range(4):
        jobs.append(SolveJob(problem=fig1.with_power_constraints(
            16 + 2 * step, 6)))
        jobs.append(SolveJob(problem=rover.with_power_constraints(
            rover.p_max + step, rover.p_min)))
    runner = BatchRunner(RunnerConfig(use_cache=False))
    runner.run(jobs)
    assert sorted(count_prepares) == sorted([fig1.name, rover.name])
    runner.run(jobs)  # a new batch prepares again
    assert len(count_prepares) == 4


def test_store_priming_shares_the_batch_preparation(count_prepares):
    problem, points = fig1_points()
    jobs = [SolveJob(problem=problem.with_power_constraints(*point))
            for point in points[:12]]
    store = ScheduleStore()
    runner = BatchRunner(RunnerConfig(use_cache=False), store=store)
    results = runner.run(jobs)
    assert count_prepares == [problem.name]
    assert store.primes == 1
    for job, result in zip(jobs, results):
        value = result.value
        assert (value.feasible, value.finish_time, value.energy_cost,
                value.peak_power) == fresh_point(job.problem)


def test_content_hash_not_identity_keys_the_batch(count_prepares):
    """Two graphs with the same name but different tasks never share a
    preparation, and equal content does."""
    base = fig1_problem()
    grown = base.graph.copy()
    grown.new_task("late", duration=3, power=1.0, resource="extra")
    bigger = SchedulingProblem(graph=grown, p_max=base.p_max,
                               p_min=base.p_min, name=base.name)
    twin = SchedulingProblem(graph=base.graph.copy(), p_max=base.p_max,
                             p_min=base.p_min, name=base.name)
    jobs = [SolveJob(problem=p.with_power_constraints(18, 6))
            for p in (base, bigger, twin)]
    results = BatchRunner(RunnerConfig(use_cache=False)).run(jobs)
    assert len(count_prepares) == 2
    assert results[1].value.finish_time \
        == fresh_point(jobs[1].problem)[1]


def test_dvfs_jobs_never_receive_a_prepared_problem(monkeypatch):
    seen = []
    real = PowerAwareScheduler.solve

    def spy(self, problem, prepared=None):
        seen.append((problem.has_operating_points, prepared is not None))
        return real(self, problem, prepared)

    monkeypatch.setattr(PowerAwareScheduler, "solve", spy)
    plain = fig1_problem()
    laddered = attach_ladder(plain, (1.0, 0.5))
    jobs = [SolveJob(problem=problem.with_power_constraints(p_max, 6))
            for p_max in (18, 20) for problem in (plain, laddered)]
    BatchRunner(RunnerConfig(use_cache=False)).run(jobs)
    assert seen == [(False, True), (True, False)] * 2
    with pytest.raises(ValueError, match="DVFS"):
        PowerAwareScheduler().solve(laddered, prepare(plain))


class TestSerialBudget:
    def test_fig1_serial_search_gives_up_rather_than_disproves(self):
        problem = fig1_problem()
        options = SchedulerOptions(max_backtracks=SERIAL_FALLBACK_BACKTRACKS)
        with pytest.raises(BudgetExhausted,
                           match="gave up .* after 200 backtracks"):
            SerialScheduler(options).solve(problem)
        assert prepare(problem).serial == "budget_exhausted"

    def test_proved_none_keeps_its_wording(self):
        graph = ConstraintGraph()
        graph.new_task("u", duration=10, power=1.0, resource="A")
        graph.new_task("v", duration=10, power=1.0, resource="B")
        graph.add_separation_window("u", "v", 0, 5)  # must overlap
        problem = SchedulingProblem(graph, p_max=10.0)
        with pytest.raises(SchedulingFailure,
                           match="no fully-serial schedule exists") as info:
            SerialScheduler().solve(problem)
        assert not isinstance(info.value, BudgetExhausted)
        assert prepare(problem).serial == "none"

    def test_serial_search_skipped_without_fallback(self):
        options = SchedulerOptions(serial_fallback=False)
        assert prepare(fig1_problem(), options).serial == "skipped"


def test_budget_exhausted_is_counted_per_solve():
    # Fig. 1 exhausts the 200-backtrack serial budget.
    from repro.obs import capture
    with capture() as cap:
        PowerAwareScheduler().solve_pipeline(fig1_problem())
    assert cap.metrics_data["counters"][
        "sched.serial.budget_exhausted"] == 1
    problem, points = fig1_points()
    runner = BatchRunner(RunnerConfig(use_cache=False, instrument=True))
    runner.run([SolveJob(problem=problem.with_power_constraints(*point))
                for point in points[:3]])
    assert runner.last_trace.metrics[
        "sched.serial.budget_exhausted"]["value"] == 3
    with capture() as cap:
        PowerAwareScheduler(SchedulerOptions(serial_fallback=False)) \
            .solve_pipeline(fig1_problem())
    assert "sched.serial.budget_exhausted" not in cap.metrics_data[
        "counters"]
    assert not OBS.enabled


def test_timing_failure_is_recorded_and_reraised():
    graph = ConstraintGraph()
    graph.new_task("a", duration=10, power=1.0, resource="R")
    graph.new_task("b", duration=10, power=1.0, resource="R")
    graph.add_separation_window("a", "b", 0, 5)  # same resource, overlap
    problem = SchedulingProblem(graph, p_max=10.0)
    prepared = prepare(problem)
    assert prepared.timing_failure is not None
    assert prepared.serial == "skipped"
    for _ in range(2):
        with pytest.raises(SchedulingFailure, match="no time-valid"):
            PowerAwareScheduler().solve(problem, prepared)


def prepare_spans(runner):
    found = []

    def walk(doc):
        if doc["name"] == "sched.prepare":
            found.append(doc["attrs"])
        for child in doc.get("children", []):
            walk(child)

    for span in runner.last_trace.spans:
        walk(span)
    return found


def test_prepare_span_marks_reuse():
    problem, points = fig1_points()
    runner = BatchRunner(RunnerConfig(use_cache=False, instrument=True))
    runner.run([SolveJob(problem=problem.with_power_constraints(*point))
                for point in points[:3]])
    # Prepared once before dispatch; every solve reuses it.
    spans = prepare_spans(runner)
    assert [attrs["reused"] for attrs in spans] == [True] * 3
    assert {attrs["serial"] for attrs in spans} == {"budget_exhausted"}
    # Pool workers receive the parent's preparation with their jobs.
    pooled = BatchRunner(RunnerConfig(use_cache=False, instrument=True,
                                      workers=2))
    pooled.run([SolveJob(problem=problem.with_power_constraints(*point))
                for point in points[:3]])
    assert [a["reused"] for a in prepare_spans(pooled)] == [True] * 3
    # A problem solved once prepares inline, inside its own solve.
    runner.run([SolveJob(problem=problem)])
    [inline] = prepare_spans(runner)
    assert inline["reused"] is False
    assert inline["serial"] == "budget_exhausted"
    assert inline["backtracks"] == spans[0]["backtracks"]
    assert not OBS.enabled


def test_batch_groups_by_content_not_by_power_budget():
    problem = fig1_problem()
    entries = [(position, job.key(), job) for position, job in enumerate(
        SolveJob(problem=problem.with_power_constraints(p_max, 4))
        for p_max in (16, 20, 24))]
    prepared = [job.prepared for _p, _k, job in prepare_batch(entries)]
    assert prepared[0] is not None
    assert all(each is prepared[0] for each in prepared)
    single = [(0, "k", SolveJob(problem=problem))]
    [(_p, _k, alone)] = prepare_batch(single)
    assert alone.prepared is None
    # Backends that re-encode jobs prepare in their own workers.
    assert all(job.prepared is None
               for _p, _k, job in prepare_batch(entries, share=False))
    [(_p, _k, primed)] = prepare_batch(single, ScheduleStore())
    assert primed.prepared is not None
    assert primed == single[0][2]  # not part of the job's identity
