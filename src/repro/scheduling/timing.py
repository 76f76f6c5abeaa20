"""Timing scheduler — the paper's Fig. 3 algorithm.

Finds a *time-valid* schedule for a constraint graph with min/max
separations and shared resources, or proves none exists.

The algorithm topologically traverses the graph from the virtual anchor.
When a candidate vertex ``c`` is visited it is fixed at its
longest-path distance from the anchor (its earliest feasible start), and
every not-yet-traversed task sharing ``c``'s resource is *serialized
after* ``c`` by adding an edge ``c -> u`` of weight ``d(c)``.  If the
added edges create a positive cycle — the serialization order
contradicts a max separation — the algorithm backtracks and tries a
different topological order.  Because all topological orders are
enumerated (up to an optional backtrack budget), the scheduler is
complete: it finds a time-valid schedule whenever one exists.

Two implementation notes relative to the pseudo-code:

* Serialization edges always run from a visited vertex to an unvisited
  one, so the longest-path distance of an already-visited vertex never
  changes; computing all start times once at the end is equivalent to
  recording ``L(c)`` per step.
* The traversal frontier is the standard "ready set" of unvisited
  vertices whose forward-edge predecessors are all visited.  Forward
  (non-negative) edges define precedence; backward (negative) max
  separations only constrain distances, not visit order.
"""

from __future__ import annotations

from ..core.graph import ConstraintGraph
from ..core.longest_path import longest_paths
from ..core.problem import SchedulingProblem
from ..core.schedule import Schedule
from ..core.task import ANCHOR_NAME
from ..errors import BudgetExhausted, SchedulingFailure
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result

__all__ = ["TimingScheduler", "timing_schedule", "asap_schedule"]


def asap_schedule(graph: ConstraintGraph, *,
                  probe: bool = False) -> "Schedule | None":
    """The ASAP schedule implied by the graph's current edge set.

    Ignores resource conflicts — valid only after serialization edges
    are in place.  Raises :class:`PositiveCycleError` if the constraints
    contradict — unless ``probe`` is True, in which case an infeasible
    edge set yields None instead (for scheduler search loops that only
    need the boolean; see :func:`repro.core.longest_path.longest_paths`).
    """
    result = longest_paths(graph, probe=probe)
    if result is None:
        return None
    distance = result.distance
    return Schedule(graph, {task.name: distance[task.name]
                            for task in graph.task_tuple()})


class TimingScheduler:
    """Backtracking topological serialization (paper Fig. 3)."""

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Find a time-valid schedule for the problem.

        Returns a :class:`ScheduleResult` with ``stage="timing"``.  The
        result's graph copy carries the serialization edges that make
        the schedule reproducible by a plain longest-path pass.

        Raises
        ------
        SchedulingFailure
            If no time-valid schedule exists (all topological orders
            tried), or the backtrack budget is exhausted.
        """
        graph = problem.fresh_graph()
        schedule = self.schedule_graph(graph)
        result = make_result(problem, schedule, stats=self.stats,
                             stage="timing")
        result.extra["graph"] = graph
        return result

    def schedule_graph(self, graph: ConstraintGraph) -> Schedule:
        """Serialize *in place* and return the time-valid schedule.

        The graph is decorated with ``tag="serialize"`` edges.  Callers
        that need the original graph should pass a copy.
        """
        self.stats = SchedulerStats()
        self._budget = self.options.max_backtracks
        visited: "list[str]" = []
        with OBS.span("sched.timing.search") as search_span:
            placed = self._visit_all(graph, visited)
            search_span.set(backtracks=self.stats.timing_backtracks,
                            serializations=self.stats.serializations,
                            placed=placed)
        if not placed:
            if self._budget <= 0:
                raise BudgetExhausted(
                    f"timing scheduler gave up on {graph.name!r} after "
                    f"{self.options.max_backtracks} backtracks")
            raise SchedulingFailure(
                "no time-valid schedule exists for "
                f"{graph.name!r} (exhausted every topological order)")
        self.stats.longest_path_runs += 1
        return asap_schedule(graph)

    # ------------------------------------------------------------------

    def _visit_all(self, graph: ConstraintGraph,
                   visited: "list[str]") -> bool:
        """Depth-first enumeration of topological orders with
        serialization; True when every vertex has been placed."""
        names = graph.task_names()
        if len(visited) == len(names):
            return True
        ready = self._ready_set(graph, set(visited))
        if not ready:
            # Remaining vertices form a forward-edge cycle: with integer
            # non-negative weights, any forward cycle that is not all
            # zero-weight is a positive cycle; an all-zero cycle still
            # admits simultaneous starts, which longest path handles,
            # so break ties by visiting the lexicographically first
            # remaining vertex.
            remaining = [n for n in names if n not in set(visited)]
            ready = [min(remaining)]
        for candidate in ready:
            if self._budget <= 0:
                return False
            self._budget -= 1
            token = graph.checkpoint()
            if self._place(graph, candidate, set(visited)):
                visited.append(candidate)
                if self._visit_all(graph, visited):
                    return True
                visited.pop()
            self.stats.timing_backtracks += 1
            graph.rollback(token)
        return False

    def _ready_set(self, graph: ConstraintGraph,
                   visited: "set[str]") -> "list[str]":
        """Unvisited vertices whose forward predecessors are visited.

        Sorted by (earliest start, name) so the first-explored order is
        the natural ASAP order — in the common spike-free case the
        scheduler then succeeds with zero backtracks.
        """
        self.stats.longest_path_runs += 1
        dist = longest_paths(graph).distance
        ready = []
        for name in graph.task_names():
            if name in visited:
                continue
            preds_ok = True
            for edge in graph.in_edges(name):
                if edge.weight >= 0 and edge.src != ANCHOR_NAME \
                        and edge.src not in visited:
                    preds_ok = False
                    break
            if preds_ok:
                ready.append(name)
        ready.sort(key=lambda n: (dist[n], n))
        return ready

    def _place(self, graph: ConstraintGraph, candidate: str,
               visited: "set[str]") -> bool:
        """Serialize unvisited same-resource tasks after ``candidate``;
        False if that immediately creates a positive cycle."""
        resource = graph.task(candidate).resource
        if resource is not None:
            duration = graph.task(candidate).duration
            for other in graph.tasks_on(resource):
                if other.name == candidate or other.name in visited:
                    continue
                graph.add_edge(candidate, other.name, duration,
                               tag="serialize")
                self.stats.serializations += 1
        self.stats.longest_path_runs += 1
        return longest_paths(graph, probe=True) is not None


def timing_schedule(problem: SchedulingProblem,
                    options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: run the timing scheduler on a problem."""
    return TimingScheduler(options).solve(problem)
