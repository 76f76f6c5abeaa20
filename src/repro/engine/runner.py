"""The batch runner: parallel execution of independent solve jobs.

Execution model
---------------
``BatchRunner.run`` takes an ordered list of :class:`SolveJob` and
returns one :class:`JobResult` per job, in order.  Internally it

1. **keys** every job with its canonical problem hash,
2. **dedups**: jobs sharing a key are solved once (first occurrence is
   the *primary*; the rest are served from the in-run memo), and a
   persistent :class:`ResultCache` — when attached — short-circuits
   points already solved by earlier runs,
3. **dispatches** the unique jobs either serially in-process
   (``workers <= 1``) or across a ``ProcessPoolExecutor`` in chunks of
   ``chunksize`` jobs, with a per-job timeout budget and a capped
   number of chunk retries, and
4. **degrades gracefully**: if worker processes cannot be created (no
   ``fork``/``spawn`` support, sandboxing, resource limits) the batch
   silently falls back to the serial loop — same results, one process.

Determinism: job seeds are fixed inputs (see
:meth:`SolveJob.reseeded` / ``RunnerConfig.reseed_base``), dedup serves
byte-identical payloads, and result order is the submission order — so
a parallel run is indistinguishable from a serial run of the same jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..core.kernel import KERNEL_MODES
from ..obs import (LOG, OBS, MetricsRegistry, Span, absorb_cache_stats,
                   absorb_scheduler_stats, absorb_store_stats,
                   current_trace_context, new_span_id, new_trace_id,
                   reset_trace_context, set_trace_context)
from .backends.base import SNAPSHOT_MODES, ExecutionBackend
from .backends.local import LocalBackend
from .cache import ResultCache
from .jobs import JobResult, SolveJob, prepare_batch
from .schedule_store import REUSE_POLICIES, ScheduleStore
from .trace import JobTrace, RunTrace

__all__ = ["RunnerConfig", "BatchRunner"]


@dataclass
class RunnerConfig:
    """Tunable knobs of a :class:`BatchRunner`.

    Attributes
    ----------
    workers:
        Worker processes; ``0`` or ``1`` selects the in-process serial
        loop (the default — parallelism is opt-in).
    chunksize:
        Jobs per dispatched chunk.  Larger chunks amortize IPC for
        very cheap jobs; 1 (default) gives the finest timeout/retry
        granularity.
    timeout_s:
        Per-job wall-clock budget; a chunk's budget is
        ``timeout_s * len(chunk)``.  ``None`` (default) waits forever.
    retries:
        Capped retry budget, applied both in-worker (re-running a job
        whose kind function raised) and at chunk level (re-submitting a
        chunk that timed out or whose worker died).
    cache_max_entries:
        Size bound of the attached result cache (``None`` = unbounded).
    use_cache:
        Attach a persistent :class:`ResultCache` to the runner.  In-run
        dedup of identical jobs happens regardless; the cache extends
        that memo across successive ``run`` calls.
    reseed_base:
        When set, every job is reseeded with
        ``derive_seed(reseed_base, position)`` before keying — one
        deterministic seed per batch position (Monte Carlo batches).
    reuse_schedules:
        Attach a validity-range :class:`ScheduleStore`: jobs whose
        power environment falls inside a stored schedule's validity
        rectangle are served without running the pipeline (paper
        Section 5.3).  Orthogonal to the exact-key ``use_cache`` memo —
        the cache serves *identical* jobs, the store serves the same
        workload under *different* ``(P_max, P_min)``.
    reuse_policy:
        ``"identical"`` (default) serves only certified entries that
        provably reproduce a fresh solve bit-for-bit;``"valid"`` serves
        any covering entry (power-valid, full utilization — the paper's
        Fig. 7 semantics) even when a fresh solve might beat it.
    lp_log_factor:
        When set, overrides the constraint graph's add-log trim bound
        multiplier (:data:`repro.core.graph.ADD_LOG_FACTOR`) for every
        job of the batch — serial, pooled, and sharded workers alike.
        Larger factors keep stale longest-path caches on the
        incremental fast path longer on big synthetic workloads (watch
        the ``lp_cache_log_evictions`` counter to see whether the
        window is the bottleneck); ``None`` (default) keeps the
        process-wide setting.
    core_kernel:
        Solver-core selection for every job of the batch (serial,
        pooled, and sharded workers alike): ``"auto"`` (default) uses
        the numpy fast path when numpy is importable, ``"numpy"``
        forces it, ``"oracle"`` forces the pure-Python reference
        implementation.  The fast path is certified bit-identical to
        the oracle (see ``repro.core.kernel``), so this is a speed
        knob, never a results knob.
    warm_start:
        Warm-started re-solves (default True): longest-path fixpoints
        are memoized across checkpoints/rollbacks and carried across
        graph copies and neighbouring sweep points, so a re-solve of a
        shared edge set starts from the solved distances instead of
        cold.  Exact — an identical edge set has an identical unique
        fixpoint — and surfaced in the ``lp_state_restores`` /
        ``lp_warm_hits`` counters.  Disable to measure cold-solve cost.
    trace_path:
        When set, every run writes its JSON :class:`RunTrace` here.
    instrument:
        Record the run through :mod:`repro.obs`: hierarchical spans
        (the run, each job, the pipeline stages and longest-path
        recomputes inside each solve — worker-process spans shipped
        back and re-parented under their job span) plus the metrics
        registry snapshot, both embedded in the ``repro-trace`` v2
        document.  Off by default; a run with the process-wide
        :data:`repro.obs.OBS` recorder already enabled is instrumented
        regardless, and its span tree is additionally attached to that
        session.
    """

    workers: int = 0
    chunksize: int = 1
    timeout_s: "float | None" = None
    retries: int = 1
    cache_max_entries: "int | None" = 4096
    use_cache: bool = True
    reseed_base: "int | None" = None
    reuse_schedules: bool = False
    reuse_policy: str = "identical"
    lp_log_factor: "int | None" = None
    core_kernel: str = "auto"
    warm_start: bool = True
    trace_path: "str | None" = None
    instrument: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.lp_log_factor is not None and self.lp_log_factor < 1:
            raise ValueError(
                f"lp_log_factor must be >= 1 or None, "
                f"got {self.lp_log_factor}")
        if self.core_kernel not in KERNEL_MODES:
            raise ValueError(
                f"core_kernel must be one of {KERNEL_MODES}, "
                f"got {self.core_kernel!r}")
        if self.chunksize < 1:
            raise ValueError(
                f"chunksize must be >= 1, got {self.chunksize}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive or None, got {self.timeout_s}")
        if self.reuse_policy not in REUSE_POLICIES:
            raise ValueError(
                f"reuse_policy must be one of {REUSE_POLICIES}, "
                f"got {self.reuse_policy!r}")


class BatchRunner:
    """Execute independent solve jobs, in parallel when asked to.

    ``backend`` selects *where* the deduplicated jobs run (see
    :mod:`repro.engine.backends`): the default
    :class:`~repro.engine.backends.LocalBackend` reproduces the
    original serial/process-pool behaviour; sharded and remote backends
    plug into the same seam without changing keying, dedup, caching,
    store settlement, or trace assembly.
    """

    def __init__(self, config: "RunnerConfig | None" = None,
                 cache: "ResultCache | None" = None,
                 store: "ScheduleStore | None" = None,
                 backend: "ExecutionBackend | None" = None):
        self.config = config or RunnerConfig()
        self.backend: ExecutionBackend = backend or LocalBackend()
        if cache is not None:
            self.cache: "ResultCache | None" = cache
        elif self.config.use_cache:
            self.cache = ResultCache(self.config.cache_max_entries)
        else:
            self.cache = None
        if store is not None:
            self.store: "ScheduleStore | None" = store
        elif self.config.reuse_schedules:
            self.store = ScheduleStore(policy=self.config.reuse_policy)
        else:
            self.store = None
        #: Trace of the most recent :meth:`run` (also written to
        #: ``config.trace_path`` when that is set).
        self.last_trace: "RunTrace | None" = None
        #: Execution mode of the most recent run:
        #: ``"serial"`` | ``"process"`` | ``"serial-fallback"``.
        self.last_mode: "str | None" = None
        #: Explicit distributed trace context
        #: ``(trace_id, parent_span_id)`` for the next run; when unset
        #: the ambient context (:func:`repro.obs.current_trace_context`)
        #: is used, and failing that a fresh trace id is minted — every
        #: run belongs to exactly one distributed trace.
        self.trace_context: "tuple[str, str | None] | None" = None

    # ------------------------------------------------------------------

    def run(self, jobs: "Iterable[SolveJob]",
            on_result: "Callable[[JobResult], None] | None" = None) \
            -> "list[JobResult]":
        """Execute ``jobs``; results come back in submission order.

        ``on_result`` is the streaming hook the serving front-end
        builds on: it is invoked once per job, in *completion* order
        (cache hits first, then solved primaries as they land, then
        dedup copies), from whatever thread is executing ``run`` —
        callbacks must be cheap and must not raise.  The returned list
        is still the authoritative, submission-ordered result.
        """
        t_start = time.perf_counter()
        instrument = self.config.instrument or OBS.enabled
        cache_before = self.cache.stats() if self.cache is not None \
            else None
        store_before = self.store.counters() \
            if self.store is not None else None
        ordered = list(jobs)
        if self.config.reseed_base is not None:
            ordered = [job.reseeded(self.config.reseed_base, position)
                       for position, job in enumerate(ordered)]
        keyed = [(position, job.key(), job)
                 for position, job in enumerate(ordered)]

        results: "dict[int, JobResult]" = {}
        cache_hits = 0
        dedup_hits = 0
        # primaries: first job per distinct key that must be solved
        primaries: "dict[str, tuple[int, SolveJob]]" = {}
        duplicates: "list[tuple[int, str]]" = []
        for position, key, job in keyed:
            if self.cache is not None:
                # peek(): classification must not disturb accounting —
                # a job that ends up range-served by the schedule store
                # was never a cache miss, and duplicate occurrences of
                # one uncached key are one miss, not many.
                hit, value = self.cache.peek(key)
                if hit:
                    self.cache.lookup(key)  # record hit, refresh LRU
                    cache_hits += 1
                    results[position] = JobResult(
                        position=position, key=key, value=value,
                        cached=True)
                    if on_result is not None:
                        on_result(results[position])
                    continue
            if key in primaries:
                duplicates.append((position, key))
                dedup_hits += 1
                continue
            primaries[key] = (position, job)

        entries = prepare_batch(
            [(position, key, job)
             for key, (position, job) in primaries.items()], self.store,
            share=isinstance(self.backend, LocalBackend))
        context = self.trace_context or current_trace_context()
        trace_id, parent_span_id = context if context is not None \
            else (new_trace_id(), None)
        run_span_id = new_span_id()
        run_wall0 = time.time()
        # Backends read the ambient context on this thread and carry it
        # across their process/machine boundary (wire header, manifest).
        token = set_trace_context((trace_id, run_span_id))
        try:
            mode = self._execute(entries, results, instrument,
                                 on_result=on_result)
        finally:
            reset_trace_context(token)

        range_hits = self._settle_reuse(entries, results, mode,
                                        trace_id=trace_id)

        for position, key in duplicates:
            primary = results[primaries[key][0]]
            results[position] = JobResult(
                position=position, key=key, value=primary.value,
                ok=primary.ok, error=primary.error, cached=True)
            if on_result is not None:
                on_result(results[position])
        if self.cache is not None:
            for key, (position, _job) in primaries.items():
                primary = results[position]
                if primary.ok:
                    reuse = (primary.stats or {}).get("reuse") or {}
                    if not reuse.get("hit"):
                        # The solve is committed: record the miss the
                        # classification peek deferred.
                        self.cache.lookup(key)
                    self.cache.put(key, primary.value)

        final = [results[position] for position in range(len(ordered))]
        elapsed_s = time.perf_counter() - t_start
        spans: "list[dict]" = []
        metrics: "dict[str, dict]" = {}
        if instrument:
            spans, metrics = self._assemble_obs(
                final, entries, mode, run_wall0, elapsed_s,
                cache_hits=cache_hits + dedup_hits,
                cache_before=cache_before, store_before=store_before,
                trace_id=trace_id, span_id=run_span_id,
                parent_span_id=parent_span_id)
        self.last_mode = mode
        self.last_trace = self._build_trace(
            final, mode, unique_solved=len(entries),
            cache_hits=cache_hits + dedup_hits,
            range_hits=range_hits,
            elapsed_s=elapsed_s, spans=spans, metrics=metrics,
            trace_id=trace_id, span_id=run_span_id,
            parent_span_id=parent_span_id)
        if self.config.trace_path:
            self.last_trace.write(self.config.trace_path)
        return final

    def _settle_reuse(self, entries, results: "dict[int, JobResult]",
                      mode: str, trace_id: "str | None" = None) -> int:
        """Post-execution schedule-store bookkeeping.

        Credits the parent store's hit/miss counters from the per-job
        reuse markers (:meth:`ScheduleStore.probe` is side-effect-free,
        so serial and parallel runs account identically here), and —
        when the jobs ran in worker processes against snapshots — merges
        the shipped new entries back into the parent store.  Returns the
        number of range-served jobs for the run trace.
        """
        if self.store is None:
            return 0
        range_hits = 0
        for position, _key, _job in entries:
            result = results.get(position)
            if result is None:
                continue
            reuse = (result.stats or {}).get("reuse")
            if not reuse:
                continue
            if reuse.get("hit"):
                range_hits += 1
                self.store.range_hits += 1
            else:
                self.store.misses += 1
            if mode in SNAPSHOT_MODES and reuse.get("new_entries"):
                # Serial runs insert into the live store directly; only
                # snapshot-running modes (pool workers, shard
                # subprocesses, remote servers) need their deltas
                # folded back.
                self.store.merge_delta(reuse["new_entries"])
                if LOG.enabled:
                    LOG.emit("store.merge", trace_id=trace_id,
                             position=position, mode=mode,
                             entries=len(reuse["new_entries"]))
        return range_hits

    def run_values(self, jobs: "Iterable[SolveJob]") -> "list[Any]":
        """Like :meth:`run` but returns just the payloads (``None`` for
        jobs that ultimately failed)."""
        return [result.value for result in self.run(jobs)]

    async def arun(self, jobs: "Iterable[SolveJob]",
                   on_result: "Callable[[JobResult], None] | None"
                   = None) -> "list[JobResult]":
        """Async submission hook: :meth:`run` off the event loop.

        The batch executes in a worker thread (``asyncio.to_thread``),
        so an asyncio server stays responsive while solves run; one
        runner must only ever execute one batch at a time (the cache
        and store are not guarded for concurrent ``run`` calls), which
        the serving layer's micro-batching loop guarantees by design.
        ``on_result`` fires on the worker thread — marshal back onto
        the loop with ``call_soon_threadsafe`` before touching asyncio
        state.
        """
        import asyncio
        return await asyncio.to_thread(self.run, jobs,
                                       on_result=on_result)

    # ------------------------------------------------------------------

    def _execute(self, entries: "Sequence[tuple[int, str, SolveJob]]",
                 results: "dict[int, JobResult]",
                 instrument: bool = False,
                 on_result=None) -> str:
        """Solve the unique jobs; fills ``results`` keyed by position.

        Delegates to the configured :class:`ExecutionBackend` — the
        seam between batch policy (this class) and dispatch mechanism
        (serial/pool/shards/remote).
        """
        if not entries:
            return self.backend.empty_mode(self.config)
        return self.backend.run(entries, results, config=self.config,
                                store=self.store, instrument=instrument,
                                on_result=on_result)

    # ------------------------------------------------------------------
    # observability assembly
    # ------------------------------------------------------------------

    def _assemble_obs(self, final: "list[JobResult]", entries,
                      mode: str, run_wall0: float, elapsed_s: float,
                      cache_hits: int, cache_before,
                      store_before=None, trace_id: "str | None" = None,
                      span_id: "str | None" = None,
                      parent_span_id: "str | None" = None) \
            -> "tuple[list[dict], dict[str, dict]]":
        """Build the run's span tree and metric snapshot.

        Every solved job shipped its own span subtree (recorded inside
        :func:`repro.engine.jobs.run_job`'s capture, times relative to
        the job start) plus its metric increments.  Here each subtree
        is re-based onto the run timeline via the shared wall clock and
        re-parented under a per-job ``engine.job`` span beneath the
        single ``engine.run`` root — so serial and parallel runs yield
        the same tree shape and identical metric totals, parallel runs
        merely overlap their job spans in time.
        """
        registry = MetricsRegistry()
        run_span = Span("engine.run", 0.0, elapsed_s, attrs={
            "jobs": len(final), "mode": mode,
            "workers": self.config.workers})
        if trace_id is not None:
            run_span.attrs["trace_id"] = trace_id
        if span_id is not None:
            run_span.attrs["span_id"] = span_id
        if parent_span_id is not None:
            run_span.attrs["parent_span_id"] = parent_span_id
        solved_by_position = {position: True
                              for position, _key, _job in entries}
        for result in final:
            absorb_scheduler_stats(registry, result.stats or {})
            if result.position not in solved_by_position:
                continue
            obs_payload = (result.stats or {}).pop("obs", None)
            start = 0.0
            if obs_payload is not None:
                start = max(0.0, obs_payload["wall0"] - run_wall0)
            job_span = Span(
                "engine.job", start, start + result.elapsed_s,
                attrs={"position": result.position,
                       "key": result.key[:12],
                       "ok": result.ok,
                       "attempts": result.attempts})
            if not result.ok and result.error:
                job_span.attrs["error"] = result.error
            if obs_payload is not None:
                for span_doc in obs_payload.get("spans", []):
                    job_span.children.append(
                        Span.from_dict(span_doc).shift(start))
                registry.merge_data(obs_payload.get("metrics", {}))
            run_span.children.append(job_span)
            registry.histogram("engine.job.seconds") \
                .observe(result.elapsed_s)
            if not result.ok:
                registry.counter("engine.jobs.failed").inc()
        run_span.end = max(
            [elapsed_s] + [child.end for child in run_span.children
                           if child.end is not None])
        registry.counter("engine.run.jobs").inc(len(final))
        registry.counter("engine.run.unique_solved").inc(
            len(run_span.children))
        registry.counter("engine.run.cache_hits").inc(cache_hits)
        if self.cache is not None and cache_before is not None:
            absorb_cache_stats(registry, cache_before,
                               self.cache.stats())
        if self.store is not None and store_before is not None:
            absorb_store_stats(registry, store_before,
                               self.store.counters())
        spans_doc = [run_span.to_dict()]
        if OBS.enabled:
            # A surrounding obs session (e.g. a mission simulation
            # driving batch solves) sees this run in its own stream,
            # shifted onto the session timeline.
            OBS.attach(run_span.shift(
                max(0.0, OBS.now() - (run_span.end or 0.0))))
        return spans_doc, registry.snapshot()

    # ------------------------------------------------------------------

    def _build_trace(self, final: "list[JobResult]", mode: str,
                     unique_solved: int, cache_hits: int,
                     elapsed_s: float,
                     range_hits: int = 0,
                     spans: "list[dict] | None" = None,
                     metrics: "dict[str, dict] | None" = None,
                     trace_id: "str | None" = None,
                     span_id: "str | None" = None,
                     parent_span_id: "str | None" = None) \
            -> RunTrace:
        cfg = self.config
        reuse_doc = None
        if self.store is not None:
            reuse_doc = {"policy": self.store.policy,
                         "range_hits": range_hits,
                         "solved": unique_solved - range_hits,
                         **self.store.counters()}
        run_doc = {
            "jobs": len(final),
            "unique_solved": unique_solved,
            "workers": cfg.workers,
            "mode": mode,
            "chunksize": cfg.chunksize,
            "timeout_s": cfg.timeout_s,
            "retries": cfg.retries,
            "instrumented": bool(spans),
            "elapsed_s": round(elapsed_s, 6),
        }
        if trace_id is not None:
            run_doc["trace_id"] = trace_id
        if span_id is not None:
            run_doc["span_id"] = span_id
        if parent_span_id is not None:
            run_doc["parent_span_id"] = parent_span_id
        trace = RunTrace(
            run=run_doc,
            cache={"hits": cache_hits, "misses": unique_solved,
                   **({"evictions": self.cache.evictions,
                       "entries": len(self.cache)}
                      if self.cache is not None else {})},
            spans=list(spans or []),
            metrics=dict(metrics or {}),
            reuse=reuse_doc)
        for result in final:
            stats = result.stats or {}
            reuse = stats.get("reuse") or {}
            trace.add_job(JobTrace(
                position=result.position,
                key=result.key,
                cached=result.cached,
                ok=result.ok,
                attempts=result.attempts,
                elapsed_s=result.elapsed_s,
                error=result.error,
                stage_seconds=dict(stats.get("stage_seconds", {})),
                counters=dict(stats.get("counters", {})),
                reused=bool(reuse.get("hit"))))
        return trace
