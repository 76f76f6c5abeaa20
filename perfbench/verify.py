"""Answer verification, run outside every timed region.

A sampled point is re-solved with ``PowerAwareScheduler.solve``; the
fresh schedule must pass ``check_time_valid`` and ``check_power_valid``
and its ``(feasible, finish, Ec, peak)`` must equal what the runner or
the server returned.
"""

from __future__ import annotations

import random
import sys

from repro.core.validation import check_power_valid, check_time_valid
from repro.errors import SchedulingFailure
from repro.scheduling.power_aware import PowerAwareScheduler


def answer_key(answer) -> tuple:
    """``(feasible, finish, Ec, peak)`` of a sweep point or a served
    point document."""
    if isinstance(answer, dict):
        get = answer.get
        return (get("feasible"), get("finish_time"), get("energy_cost"),
                get("peak_power"))
    return (answer.feasible, answer.finish_time, answer.energy_cost,
            answer.peak_power)


def fresh_key(problem) -> tuple:
    """Solve ``problem`` from scratch and check the schedule; returns
    its answer key, or raises AssertionError on an invalid schedule."""
    try:
        result = PowerAwareScheduler().solve(problem)
    except SchedulingFailure:
        return (False, None, None, None)
    schedule = result.schedule
    if not check_time_valid(schedule).ok:
        raise AssertionError(f"{problem.name}: schedule not time-valid")
    if not check_power_valid(schedule, problem.p_max,
                             baseline=problem.total_baseline).ok:
        raise AssertionError(f"{problem.name}: schedule not power-valid")
    return (True, result.finish_time, result.energy_cost,
            result.metrics.peak_power)


def check_one(problem, answer) -> bool:
    """True when ``answer`` matches a verified fresh solve."""
    try:
        expected = fresh_key(problem)
    except AssertionError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return False
    if answer is None or answer_key(answer) != expected:
        got = None if answer is None else answer_key(answer)
        print(f"verify: {problem.name} at ({problem.p_max:g}, "
              f"{problem.p_min:g}) returned {got}, fresh solve gives "
              f"{expected}", file=sys.stderr)
        return False
    return True


def verify_points(problem, points, answers, rng: random.Random,
                  sample: int) -> int:
    """Verify a seeded sample of a sweep; returns the failure count."""
    chosen = rng.sample(range(len(points)), min(sample, len(points)))
    failed = 0
    for index in chosen:
        p_max, p_min = points[index]
        failed += not check_one(
            problem.with_power_constraints(p_max, p_min), answers[index])
    return failed
