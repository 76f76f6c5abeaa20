"""Slack analysis (paper Section 4.1 / technical report [5]).

Given a time-valid schedule ``sigma``, the slack ``Delta_sigma(v)`` of a
task is the largest delay that can be applied to ``v`` *alone* (all
other start times held fixed) such that the schedule stays time-valid.

Delaying ``v`` by ``delta`` only tightens the constraints on ``v``'s
*outgoing* edges: an edge ``(v, w, c)`` asserts
``sigma(w) - sigma(v) >= c``, so we need
``delta <= sigma(w) - sigma(v) - c``.  Constraints entering ``v``
(``sigma(v) >= sigma(u) + c``) can only become slacker.  Hence

    ``Delta_sigma(v) = min over outgoing (v, w, c) of
    (sigma(w) - sigma(v) - c)``

exactly as the paper states ("computed from sigma and vertex v's
outgoing edges").  Max separations *on* ``v`` appear as outgoing
negative edges and are therefore naturally included; resource
serialization edges added by the timing scheduler keep same-resource
tasks from colliding when one slides within its slack.

The slack-based heuristics of the max-power scheduler order simultaneous
tasks by this quantity.
"""

from __future__ import annotations

from ..errors import ValidationError
from .schedule import Schedule

__all__ = ["slack", "slack_table", "UNBOUNDED_SLACK", "movable_window"]

#: Effectively-infinite slack for tasks with no outgoing constraints.
#: Kept finite so arithmetic (min, comparisons, delay caps) stays exact.
UNBOUNDED_SLACK = 10 ** 9


def slack(schedule: Schedule, name: str) -> int:
    """``Delta_sigma(v)``: the single-task delay budget of ``name``.

    Raises :class:`ValidationError` if the schedule already violates one
    of the task's outgoing constraints (slack would be negative, which
    only happens for time-invalid schedules).

    Memoized on the schedule for the graph's current version: the
    schedulers read the slack of the same active tasks several times
    per move.
    """
    memo = schedule._derived().slack
    cached = memo.get(name)
    if cached is not None:
        return cached
    graph = schedule.graph
    best = UNBOUNDED_SLACK
    starts = schedule._starts
    sigma_v = starts[name]
    # Hot path: read the edge store directly instead of materializing
    # Edge records per call.
    edges = graph._edges
    anchor = graph.anchor.name
    for dst in graph._out.get(name, ()):
        entry = edges.get((name, dst))
        if entry is None:
            continue
        weight = entry[0]
        if dst == anchor:
            # outgoing edge to the anchor encodes a start deadline:
            # sigma(anchor) - sigma(v) >= weight  =>  sigma(v) <= -weight
            room = 0 - sigma_v - weight
        elif dst in starts:
            room = starts[dst] - sigma_v - weight
        else:
            continue
        if room < 0:
            raise ValidationError(
                f"schedule is not time-valid at edge "
                f"{name!r} -> {dst!r} (weight {weight}); "
                f"slack would be {room}")
        best = min(best, room)
    memo[name] = best
    return best


def slack_table(schedule: Schedule) -> "dict[str, int]":
    """Slack of every task under the schedule."""
    return {name: slack(schedule, name) for name in schedule}


def movable_window(schedule: Schedule, name: str) -> "tuple[int, int]":
    """The closed interval of start times task ``name`` may take with
    every other task fixed.

    The upper end is ``sigma(v) + Delta_sigma(v)``.  The lower end comes
    from the incoming edges (``sigma(v) >= sigma(u) + c``), floored at 0.
    Useful for interactive what-if exploration (the Gantt-chart
    "drag a bin" model of Section 4.3) and for the exhaustive scheduler.
    """
    graph = schedule.graph
    lo = 0
    for edge in graph.in_edges(name):
        if edge.src == graph.anchor.name:
            lo = max(lo, edge.weight)
        elif edge.src in schedule:
            lo = max(lo, schedule.start(edge.src) + edge.weight)
    hi = schedule.start(name) + slack(schedule, name)
    if lo > hi:
        raise ValidationError(
            f"task {name!r} has an empty feasible window [{lo}, {hi}] — "
            "the schedule is not time-valid")
    return lo, hi
