"""Which program functions each layer's spans wrap, and the per-layer
metrics computed from them.

Layer names follow the program's packages: ``serving``, ``io``,
``engine``, ``scheduling`` (``sched.*``), ``core`` and ``online``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.core import kernel as core_kernel
from repro.core.longest_path import lp_counter_snapshot, lp_counters_delta
from repro.core.profile import PowerProfile
from repro.engine import BatchRunner, ScheduleStore
from repro.io.requests import SolvedPoint
from repro.online import MissionSession
from repro.scheduling.max_power import MaxPowerScheduler
from repro.scheduling.min_power import MinPowerScheduler
from repro.scheduling.power_aware import PowerAwareScheduler
from repro.scheduling.serial import SerialScheduler
from repro.scheduling.timing import TimingScheduler
from repro.serving import SolveServer
from repro.serving.batching import Batcher

from stats import BEYOND, mean, median, tail
from tracing import Tracer

LP_COUNTERS = ("full_runs", "incremental_runs", "cache_hits",
               "state_restores", "warm_hits", "kernel_runs",
               "probe_prunes")

#: Span names whose self time is summed into the wall-time account.
SELF_SPANS = {
    "io.codec": "io.codec_ms",
    "engine.run": "engine.run.self_ms",
    "engine.store": "engine.store.self_ms",
    "sched.pipeline": "sched.pipeline.self_ms",
    "sched.timing.solve": None,
    "sched.timing.graph": None,
    "sched.maxp": "sched.maxp.self_ms",
    "sched.maxp.repair": "sched.maxp.repair_self_ms",
    "sched.maxp.compact": "sched.maxp.compact_self_ms",
    "sched.serial": "sched.serial.self_ms",
    "sched.minp": "sched.minp.self_ms",
    "core.lp": "core.lp.self_ms",
    "core.profile": "core.profile.self_ms",
    "core.asap": "core.asap.self_ms",
    "core.slack": "core.slack.self_ms",
    "online.apply": "online.apply.self_ms",
}

#: Failure classes of served requests, by HTTP status.
FAILURE_CLASSES = ("http429", "http504", "http4xx", "http5xx", "error")

#: Metrics only some workloads measure; the others report 0.
WORKLOAD_METRICS = {
    "serving.requests": "count",
    "serving.failed": "count",
    **{f"serving.failed.{cls}": "count" for cls in FAILURE_CLASSES},
    "serving.wire_ms.p50": "ms",
    "engine.cache.hit_ratio": "ratio",
    "engine.store.hit_ratio": "ratio",
    "online.solves": "count",
    "online.rejected": "count",
}


class LayerProbe:
    """Wrap every layer's functions and gather what the spans and the
    program's own counters say about one traced pass."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._lock = threading.Lock()
        self._submitted: "dict[int, float]" = {}
        self.queue_waits: "list[float]" = []
        self.server_runs = 0
        self.server_jobs = 0
        self.jobs = 0
        self.unique_solved = 0
        self.handled: "dict[str, float]" = {}
        self._maxp = threading.local()
        self.maxp_solves = 0
        self.maxp_repair_failed = 0
        self.lp_delta: "dict[str, int]" = {}

    # -- hooks -----------------------------------------------------------

    def _on_submit(self, args, _kwargs) -> None:
        submission = args[1]
        now = time.perf_counter()
        with self._lock:
            for job in submission.jobs:
                self._submitted[id(job)] = now

    def _on_run_start(self, args, kwargs) -> None:
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        now = time.perf_counter()
        with self._lock:
            waits = [now - self._submitted.pop(id(job))
                     for job in jobs if id(job) in self._submitted]
            if waits:
                self.queue_waits.extend(waits)
                self.server_runs += 1
                self.server_jobs += len(jobs)

    def _on_run_end(self, args, _kwargs, _result, raised) -> None:
        trace = args[0].last_trace
        if raised or trace is None:
            return
        with self._lock:
            self.jobs += trace.run["jobs"]
            self.unique_solved += trace.run["unique_solved"]

    def _on_observe(self, args, _kwargs) -> None:
        request, elapsed_s = args[1], args[3]
        with self._lock:
            self.handled[request.trace_id] = elapsed_s

    def _on_maxp_start(self, _args, _kwargs) -> None:
        stack = self._maxp.__dict__.setdefault("stack", [])
        stack.append([0, 0])  # repair attempts, successes

    def _on_maxp_end(self, _args, _kwargs, _result, _raised) -> None:
        attempts, successes = self._maxp.stack.pop()
        if attempts:
            with self._lock:
                self.maxp_solves += 1
                self.maxp_repair_failed += successes == 0

    def _on_repair_end(self, _args, _kwargs, _result, raised) -> None:
        stack = self._maxp.__dict__.get("stack")
        if stack:
            stack[-1][0] += 1
            stack[-1][1] += not raised

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        t = self.tracer
        for attr in ("solve_request_to_dict", "solve_request_from_dict",
                     "response_envelope", "error_envelope"):
            t.function("repro.io.requests", attr, "io.codec")
        for attr in ("problem_to_dict", "problem_from_dict"):
            t.function("repro.io.json_io", attr, "io.codec")
        t.method(SolvedPoint, "to_dict", "io.codec")
        t.method(SolvedPoint, "from_sweep_point", "io.codec")
        t.tap(Batcher, "submit", self._on_submit)
        t.tap(SolveServer, "_observe_request", self._on_observe)
        t.method(BatchRunner, "run", "engine.run",
                 before=self._on_run_start, after=self._on_run_end)
        for attr in ("ensure_primed", "probe", "record_result"):
            t.method(ScheduleStore, attr, "engine.store")
        t.method(PowerAwareScheduler, "solve_pipeline", "sched.pipeline")
        t.method(TimingScheduler, "solve", "sched.timing.solve")
        t.method(TimingScheduler, "schedule_graph", "sched.timing.graph")
        t.method(MaxPowerScheduler, "solve", "sched.maxp",
                 before=self._on_maxp_start, after=self._on_maxp_end)
        t.method(MaxPowerScheduler, "eliminate_spikes",
                 "sched.maxp.repair", after=self._on_repair_end)
        t.method(MaxPowerScheduler, "compact", "sched.maxp.compact")
        t.method(SerialScheduler, "solve", "sched.serial")
        t.method(MinPowerScheduler, "improve", "sched.minp")
        t.function("repro.core.longest_path", "longest_paths", "core.lp")
        t.method(PowerProfile, "from_schedule", "core.profile")
        t.function("repro.scheduling.timing", "asap_schedule",
                   "core.asap")
        t.function("repro.core.slack", "slack", "core.slack")
        t.method(MissionSession, "apply", "online.apply")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    @contextmanager
    def recording(self):
        """Record spans and longest-path counters inside the block."""
        before = lp_counter_snapshot()
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False
            for key, value in lp_counters_delta(before).items():
                self.lp_delta[key] = self.lp_delta.get(key, 0) + value

    # -- metrics ---------------------------------------------------------

    def metrics(self, wall_s: float,
                extra: "dict[str, tuple[float, str]]") \
            -> "dict[str, tuple[float, str]]":
        """Every per-layer metric; ``extra`` supplies the ones the
        workload measures itself (serving, cache, store, online)."""
        spans = self.tracer.totals()

        def calls(name):
            return spans[name].calls if name in spans else 0

        def self_ms(*names):
            return 1e3 * sum(spans[n].self_s for n in names if n in spans)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out: "dict[str, tuple[float, str]]" = {}
        for name, metric in SELF_SPANS.items():
            if metric is not None:
                out[metric] = (self_ms(name), "ms")
        out["sched.timing.self_ms"] = (
            self_ms("sched.timing.solve", "sched.timing.graph"), "ms")
        attributed = self_ms(*SELF_SPANS)
        out["wall_ms"] = (1e3 * wall_s, "ms")
        out["unattributed_ms"] = (1e3 * wall_s - attributed, "ms")

        out["io.codec.calls"] = (calls("io.codec"), "count")
        out["engine.run.calls"] = (calls("engine.run"), "count")
        out["engine.dedup_ratio"] = (
            ratio(self.unique_solved, self.jobs), "ratio")
        out["sched.timing.calls"] = (calls("sched.timing.graph"), "count")
        repair = spans.get("sched.maxp.repair")
        out["sched.maxp.repair.calls"] = (calls("sched.maxp.repair"),
                                          "count")
        out["sched.maxp.repair_failed_ratio"] = (
            ratio(repair.raised, repair.calls) if repair else 0.0,
            "ratio")
        serial = spans.get("sched.serial")
        out["sched.serial.calls"] = (calls("sched.serial"), "count")
        out["sched.serial.found_ratio"] = (
            ratio(serial.calls - serial.raised, serial.calls)
            if serial else 0.0, "ratio")
        out["sched.minp.calls"] = (calls("sched.minp"), "count")
        for name in ("core.lp", "core.profile", "core.asap",
                     "core.slack", "online.apply"):
            out[f"{name}.calls"] = (calls(name), "count")
        for key in LP_COUNTERS:
            out[f"core.lp.{key}"] = (self.lp_delta.get(key, 0), "count")
        out["traffic.repair_failed_share"] = (
            ratio(self.maxp_repair_failed, self.maxp_solves), "ratio")

        waits = [1e3 * w for w in self.queue_waits]
        enough = len(waits) >= 2 * BEYOND
        out["serving.queue_wait_ms.p50"] = (
            median(waits) if enough else 0.0, "ms")
        out["serving.queue_wait_ms.tail"] = (
            tail(waits)[1] if enough else 0.0, "ms")
        out["serving.batches"] = (self.server_runs, "count")
        out["serving.batch_jobs"] = (
            ratio(self.server_jobs, self.server_runs), "jobs")
        for key, unit in WORKLOAD_METRICS.items():
            out[key] = extra.get(key, (0, unit))
        return out


def numpy_share(vertex_counts: "list[int]") -> float:
    """Share of solves whose graph reaches the numpy ``auto`` floor."""
    floor = core_kernel.AUTO_MIN_VERTICES
    return mean(1.0 if n >= floor else 0.0 for n in vertex_counts)
