"""serve-mixed: ``POST /v1/solve`` traffic against a ``SolveServer`` on
its own event-loop thread, schedule store on. Closed loop over one
connection: each request is sent when the previous one is answered.
Every pass sends the whole seeded request sequence to a fresh server,
so each pass does the same work in the same order.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.obs import new_trace_id, reset_trace_context, set_trace_context
from repro.serving import ServingClient, SolveServer
from repro.serving.client import ServingError

from layers import FAILURE_CLASSES, numpy_share
from live_server import CLIENT_TIMEOUT_S, LiveServer, server_config
from outcome import Outcome, Unit, quality, repetitions, timings
from pace import Pace
from stats import BEYOND, median
from verify import answer_key, check_one

#: Distinct requests re-solved and checked per run.
VERIFY_SAMPLE = 6
#: Nominal seconds of one pass (2-core x86 virtual machine) and the
#: fewest passes a run makes.
PASS_SECONDS = 4.0
MIN_PASSES = 3


@dataclass
class Sent:
    started: float = 0.0
    done: float = 0.0
    status: int = 0
    point: "dict | None" = None
    trace_id: str = ""


@dataclass
class Pass:
    sent: "list[Sent]" = field(default_factory=list)
    #: The (stopped) server that answered the pass.
    server: "SolveServer | None" = None

    @property
    def latencies_s(self) -> "list[float]":
        return [s.done - s.started for s in self.sent]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.sent if s.status != 200)

    @property
    def busy_s(self) -> float:
        """First send to last answer."""
        return self.sent[-1].done - self.sent[0].started


def _send(client: ServingClient, inp, index: int) -> Sent:
    record = Sent(trace_id=new_trace_id())
    label, problem, p_max, p_min = inp.distinct[inp.sequence[index]]
    token = set_trace_context((record.trace_id, None))
    record.started = time.perf_counter()
    try:
        doc = client.solve(problem, p_max=p_max, p_min=p_min)
        record.status = 200
        record.point = doc["points"][0]
    except ServingError as exc:
        record.status = exc.http_status
    except OSError:
        record.status = 0
    finally:
        reset_trace_context(token)
        record.done = time.perf_counter()
    return record


def warm_up(inp) -> None:
    """Answer a few cheap requests on a throwaway server."""
    with LiveServer(server_config()) as live:
        client = ServingClient(live.url, timeout=CLIENT_TIMEOUT_S)
        for label, problem, p_max, p_min in inp.distinct:
            if label == "fig1":
                client.solve(problem, p_max=p_max, p_min=p_min)


def run_pass(inp, recording=nullcontext, pace=None) -> Pass:
    """Send the request sequence to a fresh server over one connection,
    each request when the previous one is answered. With a ``pace``,
    it ticks after each answer, before the next send."""
    served = Pass()
    with recording(), LiveServer(server_config()) as live:
        served.server = live.server
        client = ServingClient(live.url, timeout=CLIENT_TIMEOUT_S)
        for index in range(len(inp.sequence)):
            served.sent.append(_send(client, inp, index))
            if pace is not None:
                pace.tick()
    return served


def _status_class(status: int) -> str:
    if status == 429:
        return "http429"
    if status == 504:
        return "http504"
    if 400 <= status < 500:
        return "http4xx"
    if status >= 500:
        return "http5xx"
    return "error"


def _consistent(inp, passes) -> int:
    """Every answer to one distinct request must be identical, within
    a pass and across passes; returns the number of answers that differ."""
    first: "dict[int, tuple]" = {}
    differ = 0
    for served in passes:
        for index, record in enumerate(served.sent):
            if record.point is not None:
                answer = answer_key(record.point)
                differ += first.setdefault(inp.sequence[index],
                                           answer) != answer
    return differ


def verify(inp, passes, seed: int) -> int:
    failed = _consistent(inp, passes)
    answers = _answers_by_request(inp, passes)
    rng = random.Random(f"verify:serve:{seed}")
    keys = sorted(answers)
    for key in rng.sample(keys, min(VERIFY_SAMPLE, len(keys))):
        label, problem, p_max, p_min = inp.distinct[key]
        failed += not check_one(
            problem.with_power_constraints(p_max, p_min), answers[key])
    return failed


def traffic(inp, passes) -> "dict[str, float]":
    problems = {id(problem) for _l, problem, _a, _b in inp.distinct}
    answered = [r.point for served in passes for r in served.sent
                if r.point is not None]
    reused = sum(1 for p in answered if p.get("reused"))
    sizes = [len(inp.distinct[key][1].graph) + 1 for key in inp.sequence]
    return {"traffic.points_per_problem": len(inp.distinct) / len(problems),
            "traffic.repeat_share": inp.repeat_share,
            "traffic.store_share": reused / len(answered)
            if answered else 0.0,
            "traffic.numpy_share": numpy_share(sizes)}


def measure(name: str, inp, seed: int, seconds: float) -> Outcome:
    """Repeat the pass; a request's time is its round trip, the median
    over the passes."""
    pace = Pace()
    passes = [run_pass(inp, pace=pace) for _ in range(
        repetitions(seconds, PASS_SECONDS, MIN_PASSES))]
    attempted = sum(len(served.sent) for served in passes)
    failed = (sum(served.failed for served in passes)
              + verify(inp, passes, seed))
    out = Outcome(attempted=attempted, failed=failed)
    timings(out, [served.latencies_s for served in passes], "requests",
            pace)
    _quality(out, inp, passes)
    return out


def _quality(out: Outcome, inp, passes) -> None:
    answers = _answers_by_request(inp, passes)
    feasible = [SimpleNamespace(**p) for p in answers.values()
                if p["feasible"]]
    quality(out, feasible, len(inp.distinct))
    out.traffic.update(traffic(inp, passes))


def _answers_by_request(inp, passes) -> "dict[int, dict]":
    """The first answer to each distinct request."""
    answers: "dict[int, dict]" = {}
    for served in passes:
        for index, record in enumerate(served.sent):
            if record.point is not None:
                answers.setdefault(inp.sequence[index], record.point)
    return answers


def traced_unit(inp, probe) -> Unit:
    """One pass: the fixed unit of work a traced run repeats."""
    served = run_pass(inp, probe.recording if probe is not None
                    else nullcontext)
    extra = {"serving.requests": (len(served.sent), "count"),
             "serving.failed": (served.failed, "count")}
    for cls in FAILURE_CLASSES:
        extra[f"serving.failed.{cls}"] = (sum(
            1 for r in served.sent
            if r.status != 200 and _status_class(r.status) == cls),
            "count")
    handled = probe.handled if probe is not None else {}
    wire = [1e3 * (r.done - r.started - handled[r.trace_id])
            for r in served.sent if r.trace_id in handled]
    extra["serving.wire_ms.p50"] = (
        median(wire) if len(wire) >= 2 * BEYOND else 0.0, "ms")
    cache = served.server.runner.cache.stats()
    lookups = cache["hits"] + cache["misses"]
    extra["engine.cache.hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0, "ratio")
    store = served.server.runner.store.counters()
    probes = store["range_hits"] + store["misses"]
    extra["engine.store.hit_ratio"] = (
        store["range_hits"] / probes if probes else 0.0, "ratio")
    answers = _answers_by_request(inp, [served])
    return Unit(
        wall_s=served.busy_s, attempted=len(served.sent),
        failed=served.failed,
        answers={key: answer_key(point)
                 for key, point in answers.items()},
        extra=extra, traffic=traffic(inp, [served]))
