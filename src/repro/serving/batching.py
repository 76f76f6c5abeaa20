"""Micro-batching: coalesce solve requests into engine batches.

The serving front-end never hands a request to the engine one point at
a time.  Accepted submissions queue up; a single dispatch loop pulls up
to ``max_batch`` solve jobs off the queue head — waiting at most
``max_wait_ms`` for stragglers to coalesce when the queue holds fewer —
and executes them as *one* :meth:`BatchRunner.arun` batch.  That is
what makes the shared :class:`~repro.engine.cache.ResultCache` and
:class:`~repro.engine.schedule_store.ScheduleStore` effective across
clients: identical points dedup inside the batch, repeat points hit the
cache, and covered points are served from a stored schedule's validity
rectangle without running the pipeline (paper Section 5.3).

One batch is in flight at a time (the runner's cache and store are not
guarded for concurrent runs); large sweeps simply span several
consecutive batches.  Per-point results stream back through the
runner's ``on_result`` hook and fan out to each submission's NDJSON
event feed as they land.

Backpressure and lifecycle are explicit:

* a bounded queue — admission fails with ``queue_full`` (HTTP 429)
  when the undispatched-job count would exceed ``queue_limit``;
* per-request deadlines — a submission whose deadline passes before
  its jobs are dispatched resolves as ``deadline_exceeded`` (504)
  without consuming solver time;
* cancellation — a cancelled submission resolves immediately; results
  of already-running jobs are discarded on arrival;
* graceful drain — :meth:`Batcher.drain` stops admission
  (``shutting_down``, 503) but runs every already-accepted job to
  completion before the loop exits, so accepted work is never lost.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

from ..engine import BatchRunner, SolveJob
from ..io.requests import (RequestError, SolvedPoint, SolveRequest,
                           response_envelope)
from ..obs import (absorb_cache_stats, absorb_store_stats,
                   reset_trace_context, set_trace_context)
from ..scheduling.base import SchedulerOptions

__all__ = ["BatchingConfig", "Submission", "Batcher"]

#: Submission status values as they appear on the wire.
STATUSES = ("queued", "running", "done", "cancelled", "error")

#: Counters of the engine's run trace the server adds to its /metrics:
#: serial searches and spike repairs that gave up, repairs a batch
#: shared, and repair attempts answered from the dead-end memo.
RUN_COUNTERS = ("sched.serial.budget_exhausted",
                "sched.maxp.budget_exhausted",
                "sched.maxp.repairs_reused",
                "sched.maxp.dead_end_replays")


@dataclass
class BatchingConfig:
    """Tunable knobs of the micro-batching loop.

    Attributes
    ----------
    max_batch:
        Most solve jobs dispatched as one engine batch.
    max_wait_ms:
        How long a non-full batch waits for more requests to coalesce
        before dispatching what it has.  ``0`` dispatches immediately
        (lowest latency, least batching).
    queue_limit:
        Bound on undispatched queued jobs; admission beyond it is
        rejected with ``queue_full`` (HTTP 429).
    """

    max_batch: int = 16
    max_wait_ms: float = 10.0
    queue_limit: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")


class Submission:
    """One accepted request moving through the serving pipeline."""

    def __init__(self, job_id: str, request: SolveRequest,
                 loop: asyncio.AbstractEventLoop):
        self.id = job_id
        self.request = request
        options = None
        if request.seed is not None:
            options = SchedulerOptions(seed=request.seed)
        self.jobs = [
            SolveJob(
                problem=request.problem.with_power_constraints(
                    p_max, p_min),
                kind="sweep_point", options=options)
            for p_max, p_min in request.points]
        self.results: "list[SolvedPoint | None]" = \
            [None] * len(self.jobs)
        self.status = "queued"
        self.error: "RequestError | None" = None
        self._loop = loop
        self._t0 = time.perf_counter()
        self.accepted_unix = time.time()
        self.deadline: "float | None" = None
        if request.deadline_ms is not None:
            self.deadline = loop.time() + request.deadline_ms / 1000.0
        self.dispatched = 0
        self.completed = 0
        #: Distributed-trace identity of the HTTP request that created
        #: this submission (set by the server at admission): the trace
        #: id, the *client's* span id from the traceparent header, and
        #: the server-side request span id engine spans hang beneath.
        self.trace_id: "str | None" = None
        self.parent_span_id: "str | None" = None
        self.request_span_id: "str | None" = None
        #: ``engine.run`` span documents attributed to this submission
        #: — one per batch that dispatched any of its jobs, each
        #: holding only this submission's ``engine.job`` children
        #: (see :meth:`Batcher._attribute_spans`).
        self.spans: "list[dict]" = []
        self.events: "list[dict]" = []
        self.done = asyncio.Event()
        self._new_event = asyncio.Event()
        self.add_event("accepted", points=len(self.jobs))

    # -- event feed ----------------------------------------------------

    def elapsed_ms(self) -> int:
        return int(round(1000 * (time.perf_counter() - self._t0)))

    def add_event(self, name: str, **fields) -> None:
        """Append one NDJSON event and wake every streamer."""
        self.events.append({"event": name, "at_ms": self.elapsed_ms(),
                            **fields})
        self._new_event.set()
        self._new_event = asyncio.Event()

    async def wait_events(self, cursor: int) -> int:
        """Block until there are events beyond ``cursor``."""
        while cursor >= len(self.events) and not self.done.is_set():
            waiter = self._new_event
            done_waiter = asyncio.ensure_future(self.done.wait())
            event_waiter = asyncio.ensure_future(waiter.wait())
            try:
                await asyncio.wait({done_waiter, event_waiter},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                done_waiter.cancel()
                event_waiter.cancel()
        return len(self.events)

    # -- lifecycle -----------------------------------------------------

    def expired(self) -> bool:
        return (self.deadline is not None
                and self._loop.time() >= self.deadline)

    def finish(self, status: str,
               error: "RequestError | None" = None) -> None:
        if self.status in ("done", "cancelled", "error"):
            return
        self.status = status
        self.error = error
        fields = {"status": status}
        if error is not None:
            fields["error"] = error.to_dict()
        self.add_event("done", **fields)
        self.done.set()

    def cancel(self) -> bool:
        """Request cancellation; True if the job was still live."""
        if self.status in ("done", "cancelled", "error"):
            return False
        self.finish("cancelled")
        return True

    def expire(self) -> None:
        self.finish("error", RequestError(
            "deadline_exceeded",
            f"deadline of {self.request.deadline_ms} ms passed "
            f"after {self.elapsed_ms()} ms"))

    def record_result(self, index: int, job_result) -> None:
        """Fold one engine :class:`JobResult` back into the
        submission (called on the event loop)."""
        self.completed += 1
        if self.status in ("cancelled", "error"):
            return  # discarded: the client already got its answer
        value = job_result.value
        reuse = (job_result.stats or {}).get("reuse") or {}
        if job_result.ok and value is not None:
            point = SolvedPoint.from_sweep_point(
                value, cached=job_result.cached,
                reused=bool(reuse.get("hit")))
        else:
            # Engine-level failure (worker death, timeout after
            # retries): degrade to an infeasible point, like sweep.
            p_max, p_min = self.request.points[index]
            point = SolvedPoint(p_max=p_max, p_min=p_min,
                                feasible=False)
            self.add_event("job-failed", index=index,
                           error=job_result.error or "unknown")
        self.results[index] = point
        self.add_event("point", index=index, point=point.to_dict())
        if self.completed == len(self.jobs):
            self.finish("done")

    # -- wire form -----------------------------------------------------

    def to_response(self) -> "dict":
        """The ``repro-solve-response`` document for this submission."""
        if self.status == "error" and self.error is not None:
            doc = response_envelope("error", job=self.id,
                                    error=self.error.to_dict())
        else:
            doc = response_envelope(self.status, job=self.id)
        doc["points_total"] = len(self.jobs)
        doc["points_done"] = sum(
            1 for result in self.results if result is not None)
        if self.status == "done":
            doc["points"] = [result.to_dict()
                             for result in self.results]
            doc["cached"] = sum(1 for r in self.results if r.cached)
            doc["reused"] = sum(1 for r in self.results if r.reused)
        doc["elapsed_ms"] = self.elapsed_ms()
        return doc


class Batcher:
    """The dispatch loop between submissions and the engine."""

    def __init__(self, runner: BatchRunner,
                 config: "BatchingConfig | None" = None,
                 registry=None):
        self.runner = runner
        self.config = config or BatchingConfig()
        self.registry = registry
        self.draining = False
        self.batches = 0
        self._queue: "deque[Submission]" = deque()
        self._queued_jobs = 0
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task: "asyncio.Task | None" = None
        self._stopping = False

    # -- admission -----------------------------------------------------

    @property
    def queued_jobs(self) -> int:
        """Undispatched jobs currently awaiting a batch."""
        return self._queued_jobs

    def submit(self, submission: Submission) -> None:
        """Admit a submission, or raise the documented rejection."""
        if self.draining:
            raise RequestError(
                "shutting_down",
                "server is draining and no longer accepts jobs")
        if self._queued_jobs + len(submission.jobs) \
                > self.config.queue_limit:
            raise RequestError(
                "queue_full",
                f"queue holds {self._queued_jobs} jobs; admitting "
                f"{len(submission.jobs)} more would exceed the "
                f"limit of {self.config.queue_limit}")
        self._queue.append(submission)
        self._queued_jobs += len(submission.jobs)
        self._idle.clear()
        if self.registry is not None:
            self.registry.gauge("serving.queue.depth") \
                .set(self._queued_jobs)
        self._wakeup.set()

    # -- loop ----------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop() \
                .create_task(self._run())

    async def drain(self) -> None:
        """Stop admission, run every accepted job, stop the loop."""
        self.draining = True
        self._wakeup.set()
        await self._idle.wait()
        self._stopping = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def _run(self) -> None:
        cfg = self.config
        while True:
            if not self._queue:
                self._idle.set()
                if self._stopping:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            self._idle.clear()
            if (self._queued_jobs < cfg.max_batch
                    and cfg.max_wait_ms > 0 and not self.draining):
                # Micro-batch window: let concurrent clients coalesce
                # into one engine batch before dispatching.
                wait_started = asyncio.get_running_loop().time()
                while (self._queued_jobs < cfg.max_batch
                       and not self.draining):
                    remaining = cfg.max_wait_ms / 1000.0 \
                        - (asyncio.get_running_loop().time()
                           - wait_started)
                    if remaining <= 0:
                        break
                    self._wakeup.clear()
                    try:
                        await asyncio.wait_for(self._wakeup.wait(),
                                               remaining)
                    except asyncio.TimeoutError:
                        break
            batch = self._take_batch()
            if batch:
                await self._dispatch(batch)

    def _take_batch(self) \
            -> "list[tuple[Submission, int, SolveJob]]":
        """Pop up to ``max_batch`` jobs from the queue head.

        Cancelled and deadline-expired submissions are resolved here,
        costing no solver time; a large submission may contribute only
        part of its jobs and stay queued for the next batch.
        """
        entries: "list[tuple[Submission, int, SolveJob]]" = []
        while self._queue and len(entries) < self.config.max_batch:
            submission = self._queue[0]
            if submission.status == "cancelled":
                self._queued_jobs -= (len(submission.jobs)
                                      - submission.dispatched)
                self._queue.popleft()
                continue
            if submission.expired():
                self._queued_jobs -= (len(submission.jobs)
                                      - submission.dispatched)
                self._queue.popleft()
                submission.expire()
                if self.registry is not None:
                    self.registry.counter("serving.jobs.expired") \
                        .inc()
                continue
            if submission.status == "queued":
                submission.status = "running"
            take = min(self.config.max_batch - len(entries),
                       len(submission.jobs) - submission.dispatched)
            for offset in range(take):
                index = submission.dispatched + offset
                entries.append((submission, index,
                                submission.jobs[index]))
            submission.dispatched += take
            self._queued_jobs -= take
            if submission.dispatched == len(submission.jobs):
                self._queue.popleft()
        if self.registry is not None:
            self.registry.gauge("serving.queue.depth") \
                .set(self._queued_jobs)
        return entries

    async def _dispatch(self, entries) -> None:
        """Run one engine batch; stream results back per submission."""
        loop = asyncio.get_running_loop()
        self.batches += 1
        batch_number = self.batches
        jobs = [job for _submission, _index, job in entries]
        submissions = list(
            {id(s): s for s, _i, _j in entries}.values())
        for submission in submissions:
            share = sum(1 for s, _i, _j in entries
                        if s is submission)
            submission.add_event("dispatched", batch=batch_number,
                                 size=len(jobs), share=share)

        def on_result(job_result, _entries=entries) -> None:
            submission, index, _job = _entries[job_result.position]
            loop.call_soon_threadsafe(submission.record_result,
                                      index, job_result)

        cache_before = self.runner.cache.stats() \
            if self.runner.cache is not None else None
        store_before = self.runner.store.counters() \
            if self.runner.store is not None else None
        # A batch holding exactly one submission runs under that
        # request's distributed trace: the ambient context makes the
        # runner (and any remote/shard backend beneath it) stitch its
        # spans under the request's trace id instead of minting one.
        # Mixed batches get a runner-minted trace; span attribution
        # below still hands each submission its own engine.job spans.
        owner = submissions[0] \
            if len(submissions) == 1 and submissions[0].trace_id \
            else None
        token = set_trace_context(
            (owner.trace_id, owner.request_span_id)) \
            if owner is not None else None
        t0 = time.perf_counter()
        try:
            results = await self.runner.arun(jobs,
                                             on_result=on_result)
        finally:
            if token is not None:
                reset_trace_context(token)
        elapsed_s = time.perf_counter() - t0
        del results  # per-job delivery already happened via on_result
        self._attribute_spans(entries, batch_number)
        if getattr(self.runner.store, "remote", False):
            # Service-backed store: push this batch's journal to the
            # shared store before the counter absorb below, so the
            # pushed/sync_errors tallies land in the same snapshot.
            await asyncio.to_thread(self.runner.store.sync)
        if self.registry is not None:
            self.registry.counter("serving.batches").inc()
            self.registry.histogram("serving.batch.jobs") \
                .observe(len(jobs))
            self.registry.histogram("serving.batch.seconds") \
                .observe(elapsed_s)
            if cache_before is not None \
                    and self.runner.cache is not None:
                absorb_cache_stats(self.registry, cache_before,
                                   self.runner.cache.stats())
            if store_before is not None \
                    and self.runner.store is not None:
                absorb_store_stats(self.registry, store_before,
                                   self.runner.store.counters())
            trace = self.runner.last_trace
            for name in RUN_COUNTERS:
                counted = trace.metrics.get(name) if trace else None
                if counted is not None:
                    self.registry.counter(name).inc(counted["value"])

    def _attribute_spans(self, entries, batch_number: int) -> None:
        """Slice the batch's engine span tree per submission.

        The runner's ``engine.run`` root carries one ``engine.job``
        child per *solved* batch position (cache/reuse hits have no
        span), and batch positions are exactly the entry order this
        dispatch submitted.  Each submission gets a copy of the run
        span holding only its own job children, tagged with the batch
        number — the flight recorder's ``/v1/debug/trace/{id}``
        endpoint hangs these under the request span.
        """
        trace = self.runner.last_trace
        if trace is None or not trace.spans:
            return
        root = trace.spans[0]
        by_position: "dict[int, dict]" = {}
        for child in root.get("children") or []:
            position = (child.get("attrs") or {}).get("position")
            if position is not None:
                by_position[position] = child
        children: "dict[int, list]" = {}
        for position, (submission, _index, _job) \
                in enumerate(entries):
            child = by_position.get(position)
            if child is not None:
                children.setdefault(id(submission), []).append(child)
        attrs = dict(root.get("attrs") or {})
        attrs["batch"] = batch_number
        for submission in {id(s): s for s, _i, _j in entries}.values():
            submission.spans.append({
                "name": root.get("name", "engine.run"),
                "start": root.get("start", 0.0),
                "duration": root.get("duration", 0.0),
                "attrs": dict(attrs),
                "children": children.get(id(submission), []),
            })
