"""Client side of the shared schedule-store service.

Two layers:

* :class:`StoreClient` — a thin blocking wrapper over the
  ``repro-store-request``/``repro-store-response`` v1 protocol
  (one ``http.client`` connection per call, like
  :class:`~repro.serving.client.ServingClient`).
* :class:`RemoteScheduleStore` — a drop-in
  :class:`~repro.engine.schedule_store.ScheduleStore` subclass that a
  ``serve --store-url`` instance attaches to its engine.  Local state
  acts as a read-through cache: probes try the local bucket first,
  then ask the service and absorb any hit; priming asks the service
  before paying for a timing solve; locally-journaled inserts are
  pushed back with :meth:`RemoteScheduleStore.sync` after every batch.

Failure posture: the shared store is an *accelerator*, never a
correctness dependency — every remote error degrades to local-only
behaviour (counted in ``sync_errors``), and a failed push re-journals
its delta so the next sync retries it.  Results are bit-identical with
or without the service (DESIGN.md 5e).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..engine.schedule_store import (CERTIFIED_STAGE, ScheduleStore,
                                     StoredSchedule)
from ..errors import SerializationError
from ..io.requests import store_request_to_dict
from .client import ServingClient, ServingError

__all__ = ["StoreClient", "RemoteScheduleStore"]


class StoreClient:
    """Talk to a :class:`~repro.serving.store_service.StoreService`."""

    def __init__(self, base_url: str = "http://127.0.0.1:8090",
                 timeout: float = 30.0):
        #: The underlying transport; reused for connection handling,
        #: traceparent propagation, and error-envelope decoding.
        self.transport = ServingClient(base_url, timeout=timeout)

    def get_range(self, base_key: str,
                  p_max: "float | None" = None,
                  p_min: "float | None" = None) -> "dict[str, Any]":
        """``POST /v1/store/get-range``; omit both powers for a prime
        probe.  Returns the response document (``hit`` boolean plus,
        on a hit, the ``{name, entry}`` payload)."""
        body = store_request_to_dict("get-range", base_key=base_key,
                                     p_max=p_max, p_min=p_min)
        return self.transport.checked("POST", "/v1/store/get-range",
                                      body)

    def put_delta(self, delta: "list[Mapping[str, Any]]") \
            -> "dict[str, Any]":
        """``POST /v1/store/put-delta``: merge a drained journal."""
        body = store_request_to_dict("put-delta", delta=delta)
        return self.transport.checked("POST", "/v1/store/put-delta",
                                      body)

    def snapshot(self) -> "dict[str, Any]":
        """``GET /v1/store/snapshot``: the full store document."""
        return self.transport.checked("GET", "/v1/store/snapshot")

    def healthz(self) -> "dict[str, Any]":
        return self.transport.checked("GET", "/healthz")

    def metrics_text(self) -> str:
        return self.transport.checked("GET", "/metrics")


class RemoteScheduleStore(ScheduleStore):
    """A ScheduleStore backed by a shared store service.

    The local superclass state is a cache of what this instance has
    seen (its own inserts plus absorbed remote hits); the service
    holds the union across instances.  Three overrides carry the whole
    protocol:

    * :meth:`probe` — local-first, then remote ``get-range``; a remote
      hit is absorbed locally (without re-journaling, so it is never
      echoed back) and served.
    * :meth:`ensure_primed` — ask the service for the certified
      timing-stage entry before paying for the priming solve; on a
      remote miss, prime locally and push immediately so sibling
      instances skip the solve.
    * :meth:`sync` — drain the local journal into ``put-delta``; on
      failure the delta is re-journaled for the next sync.

    Every remote failure (connection refused, 5xx, bad document)
    increments ``sync_errors`` and falls back to purely local
    behaviour, so a dead store service costs hit rate, not
    correctness.
    """

    #: Marks this store as service-backed; the serving batcher checks
    #: this to schedule a :meth:`sync` after each engine batch.
    remote = True

    def __init__(self, store_url: str, policy: str = "identical",
                 timeout: float = 30.0):
        super().__init__(policy=policy)
        self.client = StoreClient(store_url, timeout=timeout)
        self.store_url = store_url
        # Remote-protocol tallies; ``counters()`` extends the base
        # dict with them and ``absorb_store_stats`` folds them into a
        # server's /metrics under ``store.*``.
        self.remote_hits = 0
        self.remote_misses = 0
        self.pushed = 0
        self.pulled = 0
        self.sync_errors = 0

    # -- remote plumbing -----------------------------------------------

    def _absorb(self, base_key: str, name: str,
                entry: StoredSchedule) -> None:
        """Cache a remote entry locally without re-journaling it (the
        service already holds it; echoing it back would only cost a
        dedupe)."""
        if self.insert(base_key, entry, problem_name=name):
            self._journal.pop()
            self.inserted -= 1
        else:
            self.deduped -= 1
        if entry.stage == CERTIFIED_STAGE:
            self._primed.add(base_key)

    def _remote_lookup(self, base_key: str,
                       p_max: "float | None" = None,
                       p_min: "float | None" = None) \
            -> "StoredSchedule | None":
        """One guarded ``get-range`` round trip; absorbs any hit."""
        try:
            doc = self.client.get_range(base_key, p_max=p_max,
                                        p_min=p_min)
        except (ServingError, OSError):
            self.sync_errors += 1
            return None
        if not isinstance(doc, Mapping) or not doc.get("hit"):
            self.remote_misses += 1
            return None
        try:
            entry = StoredSchedule.from_dict(doc["entry"])
        except (SerializationError, KeyError, TypeError):
            self.sync_errors += 1
            return None
        self.remote_hits += 1
        self._absorb(base_key, str(doc.get("name", "")), entry)
        return entry

    # -- ScheduleStore overrides ---------------------------------------

    def probe(self, base_key: str, p_max: float, p_min: float) \
            -> "StoredSchedule | None":
        local = super().probe(base_key, p_max, p_min)
        if local is not None:
            return local
        remote = self._remote_lookup(base_key, p_max=p_max,
                                     p_min=p_min)
        if remote is None:
            return None
        # Re-probe through the policy filter: the service answered
        # under *its* policy, which should match ours, but the local
        # probe is the single source of eligibility truth.
        return super().probe(base_key, p_max, p_min)

    def ensure_primed(self, problem, options=None,
                      kind: str = "sweep_point", prepared=None) -> str:
        base_key = self.base_key(problem, options, kind=kind)
        if base_key in self._primed:
            return base_key
        if self._remote_lookup(base_key) is not None:
            # Absorbed the certified entry; _absorb marked us primed.
            self.primes += 1
            return base_key
        result = super().ensure_primed(problem, options, kind, prepared)
        # Push the fresh timing entry right away (not just at the next
        # batch sync) so sibling instances skip the priming solve.
        self.sync()
        return result

    def counters(self) -> "dict[str, int]":
        doc = super().counters()
        doc.update(remote_hits=self.remote_hits,
                   remote_misses=self.remote_misses,
                   pushed=self.pushed, pulled=self.pulled,
                   sync_errors=self.sync_errors)
        return doc

    # -- synchronisation -----------------------------------------------

    def sync(self) -> int:
        """Push locally-journaled inserts to the service.

        Returns the number of records pushed.  On failure the delta is
        re-journaled so the next sync retries it (the merge dedupes,
        so double-push is harmless).
        """
        delta = self.drain_journal()
        if not delta:
            return 0
        try:
            self.client.put_delta(delta)
        except (ServingError, OSError):
            self.sync_errors += 1
            for record in delta:
                self._journal.append(
                    (record["base_key"], record["name"],
                     StoredSchedule.from_dict(record["entry"])))
            return 0
        self.pushed += len(delta)
        return len(delta)

    def pull(self) -> int:
        """Warm the local cache from a full service snapshot.

        Called once at server startup; returns entries absorbed (0 on
        any failure — warming is best-effort).
        """
        try:
            doc = self.client.snapshot()
            remote = ScheduleStore.from_dict(doc["store"],
                                             policy=self.policy)
        except (ServingError, OSError, SerializationError, KeyError,
                TypeError):
            self.sync_errors += 1
            return 0
        absorbed = 0
        for base_key, bucket in remote.problems.items():
            for entry in bucket.entries:
                before = len(self)
                self._absorb(base_key, bucket.name, entry)
                absorbed += len(self) - before
        self.pulled += absorbed
        return absorbed
