"""Schedules: start-time assignments and derived queries.

A schedule ``sigma`` assigns an integer start time ``sigma(v)`` to every
task of a constraint graph (paper Section 4.1).  The class is a thin,
immutable-by-convention wrapper around the ``{task name: start}`` map
with the derived quantities the algorithms need:

* finish time ``tau_sigma`` (when all tasks complete),
* the set of tasks *active* at a time t,
* per-resource timelines (the rows of the time view of the power-aware
  Gantt chart),
* functional updates (``with_start``/``delayed``) used by the power
  schedulers to explore neighbouring schedules.

The derived quantities (task spans, finish time, active sets, slack and
power profiles) are computed lazily and memoized per schedule.  The
memo belongs to one graph version: every edge mutation, rollback and
duration change bumps ``graph._version`` and the next read starts a
fresh memo.  ``add_task`` does not bump the version, which is sound
because everything is derived from the schedule's own start map, never
from the graph's task set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import ValidationError
from .graph import ConstraintGraph
from .task import Task

__all__ = ["Schedule"]


class _Derived:
    """What a schedule has derived at one graph version."""

    __slots__ = ("version", "spans", "makespan", "active", "slack",
                 "profiles")

    def __init__(self, version: int):
        self.version = version
        #: ``(start, end, task)`` per scheduled task, start-map order.
        self.spans: "list[tuple[int, int, Task]] | None" = None
        self.makespan: "int | None" = None
        #: slot -> tasks active during ``[t, t+1)``
        self.active: "dict[int, tuple[Task, ...]]" = {}
        #: task name -> slack (filled by :func:`repro.core.slack.slack`)
        self.slack: "dict[str, int]" = {}
        #: ``(baseline type, baseline incl. idle power, horizon)`` ->
        #: profile (filled by ``PowerProfile.from_schedule``)
        self.profiles: "dict[tuple, object]" = {}


class Schedule:
    """An assignment of start times to the tasks of a graph."""

    def __init__(self, graph: ConstraintGraph,
                 starts: "Mapping[str, int]"):
        tasks = graph.task_tuple()
        missing = [task.name for task in tasks if task.name not in starts]
        if missing:
            raise ValidationError(
                f"schedule is missing start times for {missing}")
        for name, start in starts.items():
            if name not in graph._tasks and not name.startswith("__"):
                raise ValidationError(
                    f"schedule mentions unknown task {name!r}")
            if not isinstance(start, int) or start < 0:
                raise ValidationError(
                    f"start of {name!r} must be a non-negative integer, "
                    f"got {start!r}")
        self._graph = graph
        self._starts = {task.name: int(starts[task.name])
                        for task in tasks}
        self._memo: "_Derived | None" = None

    def _derived(self) -> _Derived:
        """The memo of derived data for the graph's current version."""
        memo = self._memo
        version = self._graph._version
        if memo is None or memo.version != version:
            memo = self._memo = _Derived(version)
        return memo

    def _spans(self) -> "list[tuple[int, int, Task]]":
        """``(start, end, task)`` of every scheduled task (memoized)."""
        memo = self._derived()
        spans = memo.spans
        if spans is None:
            tasks = self._graph._tasks
            spans = memo.spans = []
            for name, start in self._starts.items():
                task = tasks[name]
                spans.append((start, start + task.duration, task))
        return spans

    def __getstate__(self):
        """Pickles carry the start map only; the memo is rebuilt."""
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ConstraintGraph:
        """The constraint graph this schedule belongs to."""
        return self._graph

    def start(self, name: str) -> int:
        """``sigma(v)`` — the assigned start time."""
        return self._starts[name]

    def finish(self, name: str) -> int:
        """``sigma(v) + d(v)`` — the completion time of the task."""
        return self._starts[name] + self._graph.task(name).duration

    def __contains__(self, name: str) -> bool:
        return name in self._starts

    def __iter__(self) -> "Iterator[str]":
        return iter(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def items(self) -> "Iterator[tuple[str, int]]":
        """Iterate over ``(task name, start time)`` pairs."""
        return iter(self._starts.items())

    def as_dict(self) -> "dict[str, int]":
        """A fresh ``{task: start}`` dictionary."""
        return dict(self._starts)

    @property
    def makespan(self) -> int:
        """Finish time ``tau_sigma``: when the last task completes."""
        memo = self._derived()
        if memo.makespan is None:
            memo.makespan = max((end for _, end, _ in self._spans()),
                                default=0)
        return memo.makespan

    # Alias matching the paper's tau_sigma vocabulary.
    finish_time = makespan

    # ------------------------------------------------------------------
    # activity queries
    # ------------------------------------------------------------------

    def is_active(self, name: str, t: int) -> bool:
        """True if the task is executing during time slot ``[t, t+1)``.

        Zero-duration tasks are never active (they are milestones and
        draw no power).
        """
        task = self._graph.task(name)
        if task.duration == 0:
            return False
        start = self._starts[name]
        return start <= t < start + task.duration

    def _active(self, t: int) -> "tuple[Task, ...]":
        active = self._derived().active
        tasks = active.get(t)
        if tasks is None:
            # start <= t < end excludes zero-duration tasks, as in
            # is_active.
            tasks = active[t] = tuple(
                task for start, end, task in self._spans()
                if start <= t < end)
        return tasks

    def active_tasks(self, t: int) -> "list[Task]":
        """All tasks executing during slot ``[t, t+1)``, insertion order."""
        return list(self._active(t))

    def power_at(self, t: int) -> float:
        """Instantaneous task power at slot ``t`` (baseline excluded)."""
        return sum(task.power for task in self._active(t))

    def resource_timeline(self, resource: str) -> "list[tuple[int, Task]]":
        """``(start, task)`` pairs on a resource, sorted by start time."""
        pairs = [(self._starts[t.name], t)
                 for t in self._graph.tasks_on(resource)]
        pairs.sort(key=lambda p: (p[0], p[1].name))
        return pairs

    def overlapping_on_resource(self, resource: str) \
            -> "list[tuple[Task, Task]]":
        """Pairs of tasks that illegally overlap on a shared resource."""
        timeline = self.resource_timeline(resource)
        clashes = []
        for i, (start_u, u) in enumerate(timeline):
            end_u = start_u + u.duration
            for start_v, v in timeline[i + 1:]:
                if start_v >= end_u:
                    break
                if u.duration > 0 and v.duration > 0:
                    clashes.append((u, v))
        return clashes

    # ------------------------------------------------------------------
    # functional updates
    # ------------------------------------------------------------------

    def with_start(self, name: str, start: int) -> "Schedule":
        """A copy with one task moved to an absolute start time."""
        if name not in self._starts:
            raise ValidationError(f"unknown task {name!r}")
        starts = dict(self._starts)
        starts[name] = start
        return Schedule(self._graph, starts)

    def delayed(self, name: str, delta: int) -> "Schedule":
        """A copy with one task delayed by ``delta >= 0`` time units."""
        if delta < 0:
            raise ValidationError(
                f"delay must be non-negative, got {delta}")
        return self.with_start(name, self._starts[name] + delta)

    def shifted(self, delta: int) -> "Schedule":
        """A copy with *every* task shifted right by ``delta`` units.

        Used when concatenating per-iteration schedules in the mission
        simulator.
        """
        if delta < 0:
            raise ValidationError(f"shift must be non-negative, got {delta}")
        return Schedule(self._graph,
                        {name: s + delta for name, s in self._starts.items()})

    # ------------------------------------------------------------------
    # comparisons / display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._starts == other._starts

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._starts.items())))

    def differences(self, other: "Schedule") \
            -> "list[tuple[str, int, int]]":
        """Tasks whose start differs: ``(name, self_start, other_start)``."""
        diffs = []
        for name, start in self._starts.items():
            if name in other and other.start(name) != start:
                diffs.append((name, start, other.start(name)))
        return diffs

    def __repr__(self) -> str:
        body = ", ".join(f"{n}@{s}" for n, s in sorted(self._starts.items()))
        return f"Schedule(tau={self.makespan}, {body})"

    @staticmethod
    def from_pairs(graph: ConstraintGraph,
                   pairs: "Iterable[tuple[str, int]]") -> "Schedule":
        """Build from an iterable of ``(name, start)`` pairs."""
        return Schedule(graph, dict(pairs))
