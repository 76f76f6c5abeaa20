"""Constraint graph ``G(V, E)`` with min/max timing separations.

This is the input formulation of the paper (Section 4.1), which extends
the time-driven scheduling model of Chou & Borriello.  Vertices are
:class:`~repro.core.task.Task` objects; a weighted directed edge
``(u, v, w)`` asserts the *start-to-start* separation

    ``sigma(v) - sigma(u) >= w``.

* A **min separation** "v at least w after u" is a forward edge
  ``(u, v, +w)``.
* A **max separation** "v at most w after u" is a backward edge
  ``(v, u, -w)`` (rewriting ``sigma(v) <= sigma(u) + w``).

Min/max separations subsume release times, deadlines, and precedence
(end-to-start) dependencies; convenience methods express all of these.
A virtual **anchor** vertex starting at time 0 closes the system: every
task implicitly satisfies ``sigma(v) >= sigma(anchor) = 0``.

The graph supports *checkpoint/rollback* so the backtracking schedulers
of Section 5 can speculatively add serialization, delay, and lock edges
and undo them cheaply when a branch fails.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Iterable, Iterator, Mapping

from ..errors import GraphError
from .resource import Resource, ResourcePool
from .task import ANCHOR_NAME, Task

__all__ = ["Edge", "ConstraintGraph", "ADD_LOG_FACTOR",
           "add_log_factor", "set_add_log_factor"]

#: Sentinel for "no constraint" when querying separations.
_NO_EDGE = object()

#: Default trim bound multiplier for the incremental-longest-path add
#: log: ``add_edge`` trims ``_add_log`` once it exceeds
#: ``factor * (tasks + 8)`` entries.  Larger factors keep more history
#: (stale longest-path caches stay on the incremental fast path longer)
#: at the cost of memory; trimming can only cost speed, never
#: correctness.  Override per run with :func:`set_add_log_factor` or the
#: ``lp_log_factor`` field of ``repro.engine.RunnerConfig``.
ADD_LOG_FACTOR = 4

_add_log_factor = ADD_LOG_FACTOR

# Per-process counter for graph identities.  Combined with the pid it
# forms a warm-pool key that cannot collide across processes — an
# unpickled graph regenerates its uid (see ``__setstate__``), so two
# workers can never serve each other stale fixpoints.
_uid_counter = itertools.count()


def add_log_factor() -> int:
    """The process-wide add-log trim bound multiplier currently in force."""
    return _add_log_factor


def set_add_log_factor(factor: "int | None") -> int:
    """Set the add-log trim bound multiplier; returns the previous value.

    ``None`` restores the default (:data:`ADD_LOG_FACTOR`).  The factor
    must be a positive integer.  Per-process state: worker processes
    each set their own copy (see ``repro.engine.jobs.run_job``).
    """
    global _add_log_factor
    if factor is None:
        factor = ADD_LOG_FACTOR
    if not isinstance(factor, int) or isinstance(factor, bool) \
            or factor < 1:
        raise GraphError(
            f"add-log factor must be a positive integer, got {factor!r}")
    previous = _add_log_factor
    _add_log_factor = factor
    return previous


@dataclass(frozen=True)
class Edge:
    """A start-to-start separation ``sigma(dst) - sigma(src) >= weight``.

    ``tag`` records why the edge exists ("user", "serialize", "delay",
    "lock", ...) which makes scheduler traces and Gantt annotations much
    easier to read, and lets rollback-free callers strip a category of
    derived edges.
    """

    src: str
    dst: str
    weight: int
    tag: str = "user"

    @property
    def is_forward(self) -> bool:
        """True for non-negative weights (min separations / precedences)."""
        return self.weight >= 0


class ConstraintGraph:
    """Mutable constraint graph with checkpoint/rollback.

    Between a pair ``(u, v)`` only the *tightest* separation matters, so
    the graph stores at most one edge per ordered pair, keeping the
    maximum weight seen.  All mutations are journaled; ``checkpoint()``
    returns a token and ``rollback(token)`` restores the exact prior
    edge set.  Tasks are append-only (the schedulers never remove
    vertices).
    """

    def __init__(self, name: str = "problem"):
        self.name = name
        self._tasks: "dict[str, Task]" = {}
        # non-anchor tasks in insertion order, rebuilt lazily after
        # add_task / set_duration (see task_tuple)
        self._task_tuple: "tuple[Task, ...] | None" = None
        self._resources = ResourcePool()
        # (src, dst) -> (weight, tag)
        self._edges: "dict[tuple[str, str], tuple[int, str]]" = {}
        # adjacency caches (maintained incrementally)
        self._out: "dict[str, set[str]]" = {}
        self._in: "dict[str, set[str]]" = {}
        # journal of (key, previous_value_or_None) for rollback
        self._journal: "list[tuple[tuple[str, str], tuple[int, str] | None]]" = []
        # edge-set version + cached flat triples (hot path for the
        # longest-path solver, which runs once per scheduler move)
        self._version = 0
        self._triples_cache: "tuple[int, list[tuple[str, str, int]]] | None" = None
        # incremental longest-path support: the version of the last
        # non-monotone mutation (removal/rollback — anything that can
        # *decrease* a distance), and a log of recent edge additions so
        # the solver can propagate just the delta.  The solver owns the
        # attached cache (see repro.core.longest_path).
        self._last_non_add_version = 0
        self._add_log: "list[tuple[int, str, str, int]]" = []
        self._lp_cache = None
        # struct-of-arrays view cache (repro.core.arrays) — version-keyed
        self._arrays_cache = None
        # warm-start support (repro.core.longest_path): memoized
        # fixpoints keyed by journal length so rollback lands on an
        # already-solved state, plus the identity of the graph this one
        # was copied from (and our version right after the copy) so
        # sibling copies share fixpoints through the kernel warm pool.
        self._state_cache: "dict[int, tuple[int, dict, dict]]" = {}
        self._uid = (os.getpid(), next(_uid_counter))
        self._warm_src: "tuple[tuple[int, int], int] | None" = None
        self._warm_at_version = 0
        self.add_task(Task.anchor())

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Add a task vertex.  Duplicate names are an error."""
        if task.name in self._tasks:
            raise GraphError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        self._task_tuple = None
        # add_task leaves _version alone (the edge set is unchanged), so
        # the version-keyed arrays view must be dropped here or it would
        # keep serving the old vertex set.
        self._arrays_cache = None
        self._out.setdefault(task.name, set())
        self._in.setdefault(task.name, set())
        if task.resource is not None:
            self._resources.ensure(task.resource)
        return task

    def new_task(self, name: str, duration: int, power: float = 0.0,
                 resource: "str | None" = None,
                 meta: "Mapping[str, Any] | None" = None,
                 operating_points: "tuple | None" = None) -> Task:
        """Create and add a task in one call; returns the task."""
        return self.add_task(Task(name=name, duration=duration, power=power,
                                  resource=resource, meta=dict(meta or {}),
                                  operating_points=tuple(
                                      operating_points or ())))

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise GraphError(f"unknown task {name!r}") from None

    def set_duration(self, name: str, duration: int) -> Task:
        """Replace a task's duration in place (working copies only).

        Mid-mission replanning represents a still-running overrunning
        task by its *realized* duration so the schedulers' resource
        exclusion and power profile see the stretched reality, not the
        nominal plan.  Durations feed the solvers but not the edge set,
        so longest-path distances stay valid; power/energy and array
        caches are version-keyed, so the bump below invalidates them.
        Not journaled — use on throwaway copies, not on a graph a later
        ``rollback`` must restore.
        """
        task = self.task(name)
        if task.is_anchor:
            raise GraphError("cannot set the anchor's duration")
        if not isinstance(duration, int) or isinstance(duration, bool) \
                or duration <= 0:
            raise GraphError(
                f"duration must be a positive integer, got {duration!r}")
        if duration == task.duration:
            return task
        replaced = _dc_replace(task, duration=duration)
        self._tasks[name] = replaced
        self._task_tuple = None
        self._version += 1
        self._arrays_cache = None
        self._triples_cache = None
        return replaced

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    @property
    def anchor(self) -> Task:
        """The virtual time-0 source vertex."""
        return self._tasks[ANCHOR_NAME]

    def task_tuple(self) -> "tuple[Task, ...]":
        """The non-anchor tasks in insertion order, as a shared tuple.

        Cached until the next ``add_task`` or ``set_duration``, so the
        per-move schedule builders iterate it without allocating.
        """
        tasks = self._task_tuple
        if tasks is None:
            tasks = self._task_tuple = tuple(
                t for t in self._tasks.values() if not t.is_anchor)
        return tasks

    def tasks(self, include_anchor: bool = False) -> "list[Task]":
        """All task vertices, in insertion order."""
        if include_anchor:
            return list(self._tasks.values())
        return list(self.task_tuple())

    def task_names(self, include_anchor: bool = False) -> "list[str]":
        """All vertex names, in insertion order."""
        if include_anchor:
            return list(self._tasks)
        return [t.name for t in self.task_tuple()]

    def __len__(self) -> int:
        """Number of real (non-anchor) tasks."""
        return len(self._tasks) - 1

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    @property
    def resources(self) -> ResourcePool:
        """The resource pool (auto-populated from task mappings)."""
        return self._resources

    def declare_resource(self, resource: Resource) -> Resource:
        """Pre-register a resource (e.g. to set idle power or row order)."""
        if resource.name in self._resources:
            raise GraphError(f"duplicate resource {resource.name!r}")
        return self._resources.add(resource)

    def tasks_on(self, resource: str) -> "list[Task]":
        """Tasks mapped to the named resource, in insertion order."""
        return [t for t in self.tasks() if t.resource == resource]

    def resource_conflicts(self) -> "Iterator[tuple[Task, Task]]":
        """Yield unordered pairs of distinct tasks sharing a resource."""
        by_res: "dict[str, list[Task]]" = {}
        for t in self.tasks():
            if t.resource is not None:
                by_res.setdefault(t.resource, []).append(t)
        for group in by_res.values():
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    yield u, v

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def add_edge(self, src: str, dst: str, weight: int,
                 tag: str = "user") -> bool:
        """Assert ``sigma(dst) - sigma(src) >= weight``.

        Keeps only the tightest (maximum-weight) constraint per ordered
        pair.  Returns True if the edge set actually changed (a looser
        constraint than an existing one is a no-op).  Self-edges with
        positive weight are immediately contradictory and rejected.
        """
        if src not in self._tasks:
            raise GraphError(f"unknown task {src!r}")
        if dst not in self._tasks:
            raise GraphError(f"unknown task {dst!r}")
        if not isinstance(weight, int):
            raise GraphError(
                f"edge {src!r}->{dst!r}: weight must be an integer, "
                f"got {weight!r}")
        if src == dst:
            if weight > 0:
                raise GraphError(
                    f"self-separation sigma({src}) - sigma({src}) >= "
                    f"{weight} is unsatisfiable")
            return False  # trivially true
        key = (src, dst)
        prev = self._edges.get(key)
        if prev is not None and prev[0] >= weight:
            return False
        self._journal.append((key, prev))
        self._edges[key] = (weight, tag)
        self._out[src].add(dst)
        self._in[dst].add(src)
        self._version += 1
        self._add_log.append((self._version, src, dst, weight))
        if len(self._add_log) > _add_log_factor * (len(self._tasks) + 8):
            # Bounded log: drop the older half.  The longest-path solver
            # only takes its incremental fast path when the log covers
            # *every* version since its cache (it checks
            # ``len(adds) == _version - cache_version``); trimming makes
            # that check fail for caches older than the retained window,
            # forcing a full recompute.  This keeps memory flat and can
            # only cost speed, never correctness — see
            # repro.core.longest_path.longest_paths for the invariants.
            del self._add_log[:len(self._add_log) // 2]
        return True

    def separation(self, src: str, dst: str) -> "int | None":
        """The asserted minimum of ``sigma(dst) - sigma(src)``, if any."""
        entry = self._edges.get((src, dst))
        return entry[0] if entry is not None else None

    def edge_tag(self, src: str, dst: str) -> "str | None":
        """The tag of the stored ``src -> dst`` edge, if any."""
        entry = self._edges.get((src, dst))
        return entry[1] if entry is not None else None

    def remove_edge(self, src: str, dst: str) -> bool:
        """Remove the stored ``src -> dst`` edge (journaled).

        Returns False when no such edge exists.  Used by the compaction
        pass to relax scheduler-added delay edges; rollback restores
        removed edges like any other journaled mutation.
        """
        key = (src, dst)
        prev = self._edges.get(key)
        if prev is None:
            return False
        self._journal.append((key, prev))
        del self._edges[key]
        self._out[src].discard(dst)
        self._in[dst].discard(src)
        self._version += 1
        self._last_non_add_version = self._version
        return True

    def weaken_edge(self, src: str, dst: str) -> bool:
        """Undo every journaled tightening of ``src -> dst`` (journaled).

        Because the graph keeps only the tightest separation per ordered
        pair, a scheduler edge (``delay``/``lock``/...) that lands on a
        pair already carrying a *user* constraint silently **overwrites**
        it — and the compaction/unlock passes used to ``remove_edge`` the
        pair outright, dropping the user's release or deadline with it.
        This restores the value the pair had *before the first journaled
        mutation* instead: the user constraint survives, while an edge
        the scheduler created from nothing (oldest journaled prior is
        ``None``) is removed exactly as before.  Falls back to plain
        removal when the journal holds no history for the pair.

        Returns True if the edge set changed.
        """
        key = (src, dst)
        current = self._edges.get(key)
        if current is None:
            return False
        original = _NO_EDGE
        for entry_key, prev in self._journal:
            if entry_key == key:
                original = prev
                break
        if original is _NO_EDGE or original is None:
            # No journaled history (pair predates this episode's journal)
            # or the pair genuinely had no edge before: drop it.
            return self.remove_edge(src, dst)
        if original == current:
            return False
        self._journal.append((key, current))
        self._edges[key] = original
        self._version += 1
        self._last_non_add_version = self._version
        return True

    def edges(self) -> "list[Edge]":
        """All edges as :class:`Edge` records."""
        return [Edge(src=k[0], dst=k[1], weight=v[0], tag=v[1])
                for k, v in self._edges.items()]

    def edge_triples(self) -> "list[tuple[str, str, int]]":
        """All edges as bare ``(src, dst, weight)`` triples.

        The longest-path solver iterates the edge set once per
        relaxation pass on every scheduler move; this accessor avoids
        allocating :class:`Edge` records and is cached until the edge
        set next changes.
        """
        cache = self._triples_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        triples = [(k[0], k[1], v[0]) for k, v in self._edges.items()]
        self._triples_cache = (self._version, triples)
        return triples

    def out_edges(self, name: str) -> "list[Edge]":
        """Edges leaving ``name`` (constraints that delaying it tightens)."""
        return [Edge(src=name, dst=d, weight=self._edges[(name, d)][0],
                     tag=self._edges[(name, d)][1])
                for d in self._out.get(name, ())
                if (name, d) in self._edges]

    def in_edges(self, name: str) -> "list[Edge]":
        """Edges entering ``name``."""
        return [Edge(src=s, dst=name, weight=self._edges[(s, name)][0],
                     tag=self._edges[(s, name)][1])
                for s in self._in.get(name, ())
                if (s, name) in self._edges]

    def successors(self, name: str) -> "list[str]":
        """Targets of *forward* (weight >= 0) edges out of ``name``.

        Forward edges define the topological order the timing scheduler
        traverses; backward (negative) edges are max separations and do
        not create ordering obligations.
        """
        return sorted(d for d in self._out.get(name, ())
                      if (name, d) in self._edges
                      and self._edges[(name, d)][0] >= 0)

    def edge_count(self) -> int:
        """Number of stored (tightest) edges."""
        return len(self._edges)

    # ------------------------------------------------------------------
    # convenience constraint builders (paper Section 4.1 vocabulary)
    # ------------------------------------------------------------------

    def add_min_separation(self, src: str, dst: str, sep: int,
                           tag: str = "user") -> bool:
        """``dst`` starts at least ``sep`` after ``src`` starts."""
        if sep < 0:
            raise GraphError(f"min separation must be >= 0, got {sep}")
        return self.add_edge(src, dst, sep, tag=tag)

    def add_max_separation(self, src: str, dst: str, sep: int,
                           tag: str = "user") -> bool:
        """``dst`` starts at most ``sep`` after ``src`` starts."""
        if sep < 0:
            raise GraphError(f"max separation must be >= 0, got {sep}")
        return self.add_edge(dst, src, -sep, tag=tag)

    def add_separation_window(self, src: str, dst: str,
                              min_sep: int, max_sep: int,
                              tag: str = "user") -> None:
        """``sigma(dst) - sigma(src)`` constrained to ``[min_sep, max_sep]``.

        This is the paper's native constraint form, e.g. "heating at
        least 5 s, at most 50 s before steering".
        """
        if min_sep > max_sep:
            raise GraphError(
                f"empty window [{min_sep}, {max_sep}] for {src!r}->{dst!r}")
        self.add_min_separation(src, dst, min_sep, tag=tag)
        self.add_max_separation(src, dst, max_sep, tag=tag)

    def add_precedence(self, src: str, dst: str, gap: int = 0,
                       tag: str = "user") -> bool:
        """End-to-start precedence: ``dst`` starts >= ``gap`` after ``src``
        *finishes* (i.e. start-to-start ``d(src) + gap``)."""
        return self.add_min_separation(
            src, dst, self.task(src).duration + gap, tag=tag)

    def add_release(self, name: str, time: int, tag: str = "user") -> bool:
        """``name`` may not start before absolute time ``time``."""
        return self.add_min_separation(ANCHOR_NAME, name, time, tag=tag)

    def add_start_deadline(self, name: str, time: int,
                           tag: str = "user") -> bool:
        """``name`` must start no later than absolute time ``time``."""
        return self.add_max_separation(ANCHOR_NAME, name, time, tag=tag)

    def add_finish_deadline(self, name: str, time: int,
                            tag: str = "user") -> bool:
        """``name`` must finish no later than absolute time ``time``."""
        deadline = time - self.task(name).duration
        if deadline < 0:
            raise GraphError(
                f"finish deadline {time} is shorter than duration of "
                f"{name!r}")
        return self.add_start_deadline(name, deadline, tag=tag)

    def lock_start(self, name: str, time: int, tag: str = "lock") -> None:
        """Pin ``sigma(name)`` to exactly ``time`` (min + max edges).

        The max-power scheduler locks the start times of zero-slack tasks
        before recursing (Section 5.2); rollback removes the locks.

        The default ``"lock"`` tag marks a *scheduler-owned* pin: the
        max-power stage may lift it during spike repair and left-shift
        it during compaction.  Callers freezing executed history
        (:mod:`repro.execution.replan`, :mod:`repro.online`) must pass
        a different tag — conventionally ``"frozen"`` — so neither
        pass can move a task that has already run.
        """
        self.add_min_separation(ANCHOR_NAME, name, time, tag=tag)
        self.add_max_separation(ANCHOR_NAME, name, time, tag=tag)

    def serialize_after(self, first: str, second: str,
                        gap: int = 0, tag: str = "serialize") -> bool:
        """Force ``second`` to start after ``first`` completes.

        Used by the timing scheduler to resolve resource conflicts.
        """
        return self.add_precedence(first, second, gap=gap, tag=tag)

    # ------------------------------------------------------------------
    # checkpoint / rollback
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Return a token capturing the current edge set."""
        return len(self._journal)

    def journal_signature(self, token: int) -> "frozenset":
        """The current value of every pair journaled since ``token``.

        Between a ``checkpoint()`` and rollbacks no deeper than it, every
        pair outside this set still holds its value at ``token``, so two
        such states with equal signatures have equal edge sets and the
        same journaled pairs — and ``weaken_edge``, the one mutation that
        reads the journal, treats them alike.  The backtracking schedulers
        key search states on it.  A pair's value is ``(weight, tag)``, or
        None when the pair was removed.
        """
        edges = self._edges
        return frozenset({key: edges.get(key)
                          for key, _ in self._journal[token:]}.items())

    def rollback(self, token: int) -> None:
        """Undo every edge mutation made after ``checkpoint()``."""
        if token < 0 or token > len(self._journal):
            raise GraphError(f"invalid rollback token {token}")
        while len(self._journal) > token:
            key, prev = self._journal.pop()
            if prev is None:
                if key in self._edges:
                    del self._edges[key]
                self._out[key[0]].discard(key[1])
                self._in[key[1]].discard(key[0])
            else:
                self._edges[key] = prev
                self._out[key[0]].add(key[1])
                self._in[key[1]].add(key[0])
            self._version += 1
            self._last_non_add_version = self._version
        if self._state_cache:
            # The edge set is a pure function of the journal prefix, so
            # memoized fixpoints at or below the restored token are still
            # exact; anything above describes an edge set that no longer
            # exists and must go.
            for key in [k for k in self._state_cache if k > token]:
                del self._state_cache[key]

    # ------------------------------------------------------------------
    # copying / composition
    # ------------------------------------------------------------------

    def copy(self, name: "str | None" = None) -> "ConstraintGraph":
        """Deep-enough copy: fresh edge store and journal, shared tasks
        (tasks are frozen dataclasses so sharing is safe)."""
        clone = ConstraintGraph(name=name or self.name)
        for task in self.task_tuple():
            clone.add_task(task)
        for res in self._resources:
            if res.name not in clone._resources:
                clone._resources.add(res)
            else:
                # replace the auto-created default with the real record
                clone._resources._by_name[res.name] = res
        # Write the edge store directly, in source order, leaving the
        # state an add_edge replay would: one version bump and one
        # add-log entry per edge, trimmed by the same rule, and the
        # adjacency sets filled in the same order.  No journal.
        edges, out, inn, log = clone._edges, clone._out, clone._in, \
            clone._add_log
        bound = _add_log_factor * (len(clone._tasks) + 8)
        version = 0
        for key, entry in self._edges.items():
            src, dst = key
            edges[key] = entry
            out[src].add(dst)
            inn[dst].add(src)
            version += 1
            log.append((version, src, dst, entry[0]))
            if len(log) > bound:
                del log[:len(log) // 2]
        clone._version = version
        from . import kernel as _kernel
        if _kernel.warm_enabled():
            # Warm-origin tag: the clone remembers which graph (and
            # version) it reproduces, so as long as it stays unmutated
            # its first longest-path solve can come from the warm pool
            # — the cross-sweep-point re-solve seeding of the ISSUE.
            clone._warm_src = (self._uid, self._version)
            clone._warm_at_version = clone._version
            cache = self._lp_cache
            if cache is not None and cache[0] == self._version \
                    and len(cache[1]) == len(self._tasks):
                # Identical edge set => identical unique fixpoint, so
                # the solved distances carry over directly.  The dicts
                # are shared, never mutated in place (the incremental
                # path copies first).
                clone._lp_cache = (clone._version, cache[1], cache[2])
        return clone

    def merge(self, other: "ConstraintGraph", prefix: str = "") -> None:
        """Import all tasks and edges of ``other`` (names optionally
        prefixed), e.g. to concatenate unrolled iterations."""
        mapping = {ANCHOR_NAME: ANCHOR_NAME}
        for task in other.tasks():
            new_name = prefix + task.name
            mapping[task.name] = new_name
            self.add_task(task.renamed(new_name))
        for edge in other.edges():
            self.add_edge(mapping[edge.src], mapping[edge.dst],
                          edge.weight, tag=edge.tag)

    def strip_tags(self, tags: Iterable[str]) -> int:
        """Remove every edge whose tag is in ``tags``; returns count.

        Useful to re-solve a problem from its user constraints after a
        scheduler has decorated the graph with derived edges.  Not
        journaled (it rewrites history), so only call between scheduling
        runs, never inside one.
        """
        doomed = [k for k, v in self._edges.items() if v[1] in set(tags)]
        for key in doomed:
            del self._edges[key]
            self._out[key[0]].discard(key[1])
            self._in[key[1]].discard(key[0])
        self._journal.clear()
        self._version += 1
        self._last_non_add_version = self._version
        self._state_cache.clear()
        return len(doomed)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Lean pickles: caches are rebuildable, memos are per-process.

        The arrays cache holds numpy arrays and the state cache can hold
        hundreds of solved fixpoints — both are derived data the
        receiving process can recreate.  The warm-origin tag is dropped
        because the warm pool is per-process memory: a probe in another
        process could never hit.  The plain ``_lp_cache`` dicts *are*
        shipped — they give the receiving worker a warm first solve.
        """
        state = self.__dict__.copy()
        state["_arrays_cache"] = None
        state["_task_tuple"] = None
        state["_state_cache"] = {}
        state["_warm_src"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._task_tuple = None
        # Fresh identity in the receiving process: two unpickled copies
        # of the same parent could otherwise mutate apart while sharing
        # a uid, poisoning the warm pool with colliding keys.
        self._uid = (os.getpid(), next(_uid_counter))

    def __repr__(self) -> str:
        return (f"ConstraintGraph({self.name!r}, tasks={len(self)}, "
                f"edges={self.edge_count()})")
