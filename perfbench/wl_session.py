"""session-rover: the 50-arrival rover stream applied to a
``MissionSession`` through ``MissionSession.apply``. Closed loop: the
same stream repeated, each time on a fresh session with the warm pool
cleared, as a new mission would start."""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from dataclasses import replace

from repro.core import kernel as core_kernel
from repro.online import MissionSession, SessionConfig
from repro.scheduling import SchedulerOptions
from repro.scheduling.min_power import MinPowerScheduler

from layers import numpy_share
from outcome import Outcome, Unit, quality, repetitions, timings
from pace import Pace

#: Nominal seconds of one stream (2-core x86 virtual machine) and the
#: fewest streams a run makes.
STREAM_SECONDS = 3.7
MIN_STREAMS = 2
#: Commands of the untimed warm-up stream.
WARM_UP_COMMANDS = 20


def open_session(problem, name: str) -> MissionSession:
    return MissionSession(SessionConfig(
        p_max=problem.p_max, p_min=problem.p_min,
        baseline=problem.baseline, options=SchedulerOptions(),
        name=name))


def warm_up(inp) -> None:
    one_stream(replace(inp, commands=inp.commands[:WARM_UP_COMMANDS]))


def one_stream(inp, recording=nullcontext, pace=None):
    """Apply every command; returns (session, arrival latencies,
    seconds, answers, task counts). Answers are the plan after each
    admitted arrival, or None for a rejected one. With a ``pace``, it
    ticks after each arrival, outside its ``apply``."""
    core_kernel.clear_warm_pool()
    session = open_session(inp.problem, "bench")
    clock = time.perf_counter
    latencies, answers, sizes = [], [], []
    with recording():
        t_start = clock()
        for command in inp.commands:
            admitted_before = len(session.admitted)
            t0 = clock()
            session.apply(command)
            dt = clock() - t0
            if command["event"] == "arrival":
                latencies.append(dt)
                admitted = len(session.admitted) > admitted_before
                answers.append(session.result if admitted else None)
                sizes.append(len(session.admitted) + 1)
                if pace is not None:
                    pace.tick()
        elapsed = clock() - t_start
    return session, latencies, elapsed, answers, sizes


def _fingerprint(session, answers):
    return ([None if a is None else (a.finish_time, a.energy_cost)
             for a in answers], session.schedule.as_dict())


def verify(inp, session) -> int:
    """Power-check the committed plan, then the quiescence identity:
    the same arrivals with no clock advances must quiesce to exactly
    the offline solve of the accumulated problem."""
    failed = 0
    report = session.committed_report()
    if not report.ok:
        print(f"verify: committed plan invalid: {report.violations[:3]}",
              file=sys.stderr)
        failed += 1
    core_kernel.clear_warm_pool()
    probe = open_session(inp.problem, "quiescence-probe")
    for arrival in inp.arrivals:
        probe.apply(arrival)
    online = probe.quiesce()
    offline = MinPowerScheduler(SchedulerOptions()).solve(probe.problem())
    if (online is None
            or online.schedule.as_dict() != offline.schedule.as_dict()
            or online.energy_cost != offline.energy_cost
            or online.metrics.peak_power != offline.metrics.peak_power):
        print("verify: quiesced session differs from the offline solve",
              file=sys.stderr)
        failed += 1
    return failed


def measure(name: str, inp, seed: int, seconds: float) -> Outcome:
    """Repeat the stream; an arrival's time is its ``apply``, the
    median over the streams."""
    repeats: "list[list[float]]" = []
    failed = 0
    reference = None
    first = None
    pace = Pace()
    for _ in range(repetitions(seconds, STREAM_SECONDS, MIN_STREAMS)):
        session, lats, _elapsed, answers, sizes = one_stream(
            inp, pace=pace)
        fingerprint = _fingerprint(session, answers)
        if reference is None:
            reference, first = fingerprint, (session, answers, sizes)
        elif fingerprint != reference:
            failed += len(answers)  # a stream did not repeat itself
        repeats.append(lats)
    session, answers, sizes = first
    failed += verify(inp, session)
    out = Outcome(attempted=len(repeats) * len(answers), failed=failed)
    timings(out, repeats, "arrivals", pace)
    quality(out, [a for a in answers if a is not None], len(answers))
    out.traffic.update(traffic(sizes))
    return out


def traffic(sizes) -> "dict[str, float]":
    """Each arrival re-solves a different (growing) problem."""
    return {"traffic.points_per_problem": 1.0,
            "traffic.repeat_share": 0.0,
            "traffic.store_share": 0.0,
            "traffic.numpy_share": numpy_share(sizes)}


def traced_unit(inp, probe) -> Unit:
    """One stream: the fixed unit of work a traced run repeats."""
    session, _lats, elapsed, answers, sizes = one_stream(
        inp, probe.recording if probe is not None else nullcontext)
    return Unit(
        wall_s=elapsed,
        attempted=len(answers), failed=0,
        answers=_fingerprint(session, answers),
        extra={"online.solves": (session.solves, "count"),
               "online.rejected": (len(session.rejected), "count")},
        traffic=traffic(sizes))
