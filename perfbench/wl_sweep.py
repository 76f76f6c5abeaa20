"""sweep-grid28: one problem swept over a fixed grid, in a seeded
order, through the default ``BatchRunner`` (serial, cache on, store
off), the path of ``repro-schedule sweep``. Closed loop: the same sweep
repeated, each time on a fresh runner and a fresh copy of the
instance."""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import replace

from repro.core import kernel as core_kernel
from repro.engine import BatchRunner, RunnerConfig, SolveJob

from layers import numpy_share
from outcome import Outcome, Unit, quality, repetitions, timings
from pace import Pace
from verify import answer_key, verify_points

#: Verified points per run (seeded sample of the grid).
VERIFY_SAMPLE = 6
#: Nominal seconds of one sweep (2-core x86 virtual machine) and the
#: fewest sweeps a run makes.
SWEEP_SECONDS = 4.5
MIN_SWEEPS = 2
#: Points of the untimed warm-up sweep.
WARM_UP_POINTS = 4


def warm_up(inp) -> None:
    one_sweep(replace(inp, points=inp.points[:WARM_UP_POINTS]))


def one_sweep(inp, recording=nullcontext, pace=None):
    """Run one sweep; returns (results, per-result intervals, seconds,
    runner). Building the jobs is not timed or recorded. With a
    ``pace``, it ticks after each result, outside the intervals."""
    problem = inp.problem()
    jobs = [SolveJob(problem=problem.with_power_constraints(p_max, p_min))
            for p_max, p_min in inp.points]
    core_kernel.clear_warm_pool()
    runner = BatchRunner(RunnerConfig())
    starts: "list[float]" = []
    stamps: "list[float]" = []
    clock = time.perf_counter

    def on_result(_result) -> None:
        stamps.append(clock())
        if pace is not None:
            pace.tick()
        starts.append(clock())

    with recording():
        starts.append(clock())
        results = runner.run(jobs, on_result=on_result)
        elapsed = clock() - starts[0]
    intervals = [b - a for a, b in zip(starts, stamps)]
    return results, intervals, elapsed, runner


def _answers(results):
    return [r.value if r.ok else None for r in results]


def measure(name: str, inp, seed: int, seconds: float) -> Outcome:
    """Repeat the sweep; a point's time is the interval from the result
    before it, the median over the sweeps."""
    repeats: "list[list[float]]" = []
    failed = 0
    reference = None
    pace = Pace()
    for _ in range(repetitions(seconds, SWEEP_SECONDS, MIN_SWEEPS)):
        results, gaps, _elapsed, _runner = one_sweep(inp, pace=pace)
        answers = _answers(results)
        if reference is None:
            reference = answers
        # Every sweep solves the same points: answers must repeat.
        failed += sum(1 for a, b in zip(answers, reference)
                      if a is None or a != b)
        repeats.append(gaps)
    failed += verify_points(
        inp.problem(), inp.points, reference,
        random.Random(f"verify:{name}:{seed}"), VERIFY_SAMPLE)
    out = Outcome(attempted=len(repeats) * len(inp.points), failed=failed)
    timings(out, repeats, "points", pace)
    quality(out, [a for a in reference if a is not None and a.feasible],
            len(reference))
    out.traffic.update(traffic(inp))
    return out


def traffic(inp) -> "dict[str, float]":
    """Every point is distinct and shares the one problem."""
    vertices = len(inp.problem().graph) + 1
    return {"traffic.points_per_problem": float(len(inp.points)),
            "traffic.repeat_share": 0.0,
            "traffic.store_share": 0.0,
            "traffic.numpy_share": numpy_share([vertices])}


def traced_unit(inp, probe) -> Unit:
    """One sweep: the fixed unit of work a traced run repeats."""
    results, _gaps, elapsed, runner = one_sweep(
        inp, probe.recording if probe is not None else nullcontext)
    stats = runner.cache.stats()
    lookups = stats["hits"] + stats["misses"]
    answers = _answers(results)
    return Unit(
        wall_s=elapsed,
        attempted=len(answers),
        failed=sum(1 for a in answers if a is None),
        answers=[None if a is None else answer_key(a) for a in answers],
        extra={"engine.cache.hit_ratio": (
            stats["hits"] / lookups if lookups else 0.0, "ratio"),
            "engine.store.hit_ratio": (0.0, "ratio")},
        traffic=traffic(inp))
