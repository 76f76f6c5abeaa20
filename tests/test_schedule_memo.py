"""Differential suite for the per-schedule memo and the direct graph copy.

A :class:`~repro.core.schedule.Schedule` memoizes what it derives
(spans, finish time, active sets, slack, power profiles) per graph
version.  These tests drive random graphs through every kind of graph
mutation while holding a schedule whose memo is warm, and require its
answers to equal both a fresh :class:`Schedule` and the reference
implementations kept below (the profile sweep and slack scan as they
were before memoization).  ``ConstraintGraph.copy`` writes the edge
store directly; it must leave the exact state of an ``add_edge``
replay, which is kept below as the reference copy.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ANCHOR_NAME, ConstraintGraph, PowerProfile, Schedule
from repro.core.arrays import HAVE_NUMPY
from repro.core.graph import set_add_log_factor
from repro.core.kernel import set_kernel, warm_enabled
from repro.core.longest_path import longest_paths
from repro.core.resource import Resource
from repro.core.slack import UNBOUNDED_SLACK, slack
from repro.errors import ValidationError
from repro.scheduling.timing import asap_schedule

POWERS = (0.0, 0.5, 1.25, 2.0, 3.3)
RESOURCES = (None, "A", "B")


# ----------------------------------------------------------------------
# reference implementations (the code before memoization)
# ----------------------------------------------------------------------

def reference_profile(schedule: Schedule, baseline: float = 0.0,
                      horizon: "int | None" = None) -> PowerProfile:
    """``PowerProfile.from_schedule`` as an event sweep, unmemoized."""
    baseline = baseline + schedule.graph.resources.total_idle_power
    tau = reference_makespan(schedule)
    horizon = tau if horizon is None else horizon
    if horizon < tau:
        raise ValidationError(
            f"horizon {horizon} is before the schedule finish {tau}")
    if horizon == 0:
        return PowerProfile([], baseline=baseline)
    points = {0, horizon}
    events: "list[tuple[int, float]]" = []
    for name, start in schedule.items():
        task = schedule.graph.task(name)
        if task.duration == 0 or task.power == 0:
            continue
        end = start + task.duration
        points.add(start)
        points.add(min(end, horizon))
        events.append((start, task.power))
        events.append((end, -task.power))
    breaks = sorted(p for p in points if 0 <= p <= horizon)
    deltas: "dict[int, float]" = {}
    for t, dp in events:
        deltas[t] = deltas.get(t, 0.0) + dp
    segments: "list[tuple[int, int, float]]" = []
    level = baseline
    pending = sorted(deltas)
    idx = 0
    for b0, b1 in zip(breaks, breaks[1:]):
        while idx < len(pending) and pending[idx] <= b0:
            level += deltas[pending[idx]]
            idx += 1
        segments.append((b0, b1, max(level, 0.0)))
    return PowerProfile(segments, baseline=baseline)


def reference_makespan(schedule: Schedule) -> int:
    graph = schedule.graph
    return max((start + graph.task(name).duration
                for name, start in schedule.items()), default=0)


def reference_active(schedule: Schedule, t: int) -> "list[str]":
    graph = schedule.graph
    return [name for name, start in schedule.items()
            if graph.task(name).duration > 0
            and start <= t < start + graph.task(name).duration]


def reference_slack(schedule: Schedule, name: str) -> int:
    graph = schedule.graph
    best = UNBOUNDED_SLACK
    sigma_v = schedule.start(name)
    for edge in graph.out_edges(name):
        if edge.dst == ANCHOR_NAME:
            room = 0 - sigma_v - edge.weight
        elif edge.dst in schedule:
            room = schedule.start(edge.dst) - sigma_v - edge.weight
        else:
            continue
        if room < 0:
            raise ValidationError("not time-valid")
        best = min(best, room)
    return best


def replay_copy(graph: ConstraintGraph) -> ConstraintGraph:
    """``ConstraintGraph.copy`` as an ``add_edge`` replay."""
    from repro.core import kernel as _kernel
    clone = ConstraintGraph(name=graph.name)
    for task in graph.tasks():
        clone.add_task(task)
    for res in graph._resources:
        if res.name not in clone._resources:
            clone._resources.add(res)
        else:
            clone._resources._by_name[res.name] = res
    for (src, dst), (weight, tag) in graph._edges.items():
        clone.add_edge(src, dst, weight, tag=tag)
    clone._journal.clear()
    if _kernel.warm_enabled():
        clone._warm_src = (graph._uid, graph._version)
        clone._warm_at_version = clone._version
        cache = graph._lp_cache
        if cache is not None and cache[0] == graph._version \
                and len(cache[1]) == len(graph._tasks):
            clone._lp_cache = (clone._version, cache[1], cache[2])
    return clone


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def outcome(fn):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return ("ok", fn())
    except ValidationError as exc:
        return ("raised", type(exc))


def answers(schedule: Schedule, horizon_pad: int = 3) -> dict:
    """Every memoized quantity of ``schedule``, read through its API."""
    makespan = schedule.makespan
    slots = range(-1, makespan + 2)
    profiles = {}
    for baseline in (0.0, 0.75):
        for horizon in (None, makespan + horizon_pad):
            profile = PowerProfile.from_schedule(schedule, baseline,
                                                 horizon)
            profiles[baseline, horizon] = (profile.segments,
                                           profile.baseline)
    return {
        "makespan": makespan,
        "active": [[task.name for task in schedule.active_tasks(t)]
                   for t in slots],
        "power": [schedule.power_at(t) for t in slots],
        "slack": {name: outcome(lambda name=name: slack(schedule, name))
                  for name in schedule},
        "profiles": profiles,
    }


def reference_answers(schedule: Schedule, horizon_pad: int = 3) -> dict:
    makespan = reference_makespan(schedule)
    slots = range(-1, makespan + 2)
    graph = schedule.graph
    profiles = {}
    for baseline in (0.0, 0.75):
        for horizon in (None, makespan + horizon_pad):
            profile = reference_profile(schedule, baseline, horizon)
            profiles[baseline, horizon] = (profile.segments,
                                           profile.baseline)
    return {
        "makespan": makespan,
        "active": [reference_active(schedule, t) for t in slots],
        "power": [sum(graph.task(name).power
                      for name in reference_active(schedule, t))
                  for t in slots],
        "slack": {name: outcome(
            lambda name=name: reference_slack(schedule, name))
            for name in schedule},
        "profiles": profiles,
    }


@st.composite
def graphs(draw, max_tasks: int = 7):
    graph = ConstraintGraph("memo")
    count = draw(st.integers(2, max_tasks))
    for i in range(count):
        graph.new_task(f"t{i}", duration=draw(st.integers(0, 5)),
                       power=draw(st.sampled_from(POWERS)),
                       resource=draw(st.sampled_from(RESOURCES)))
    # Forward edges between ordered pairs only: the start is feasible.
    for _ in range(draw(st.integers(0, 2 * count))):
        i = draw(st.integers(0, count - 2))
        j = draw(st.integers(i + 1, count - 1))
        graph.add_edge(f"t{i}", f"t{j}", draw(st.integers(0, 6)))
    return graph


OPS = ("add_edge", "checkpoint", "rollback", "weaken_edge", "lock_start",
       "set_duration", "add_task", "declare_resource", "refresh")


def apply_op(data, graph: ConstraintGraph, op: str, tokens: list,
             counter: "list[int]") -> None:
    names = graph.task_names()
    if op == "add_edge":
        src, dst = data.draw(st.lists(
            st.sampled_from(names + [ANCHOR_NAME]), min_size=2,
            max_size=2, unique=True))
        graph.add_edge(src, dst, data.draw(st.integers(-4, 6)),
                       tag=data.draw(st.sampled_from(["user", "delay"])))
    elif op == "checkpoint":
        tokens.append(graph.checkpoint())
    elif op == "rollback":
        if tokens:
            graph.rollback(tokens.pop())
    elif op == "weaken_edge":
        pairs = sorted(graph._edges)
        if pairs:
            graph.weaken_edge(*data.draw(st.sampled_from(pairs)))
    elif op == "lock_start":
        graph.lock_start(data.draw(st.sampled_from(names)),
                         data.draw(st.integers(0, 12)))
    elif op == "set_duration":
        graph.set_duration(data.draw(st.sampled_from(names)),
                           data.draw(st.integers(1, 6)))
    elif op == "add_task":
        counter[0] += 1
        graph.new_task(f"n{counter[0]}", duration=data.draw(
            st.integers(0, 4)), power=data.draw(st.sampled_from(POWERS)),
            resource=data.draw(st.sampled_from(RESOURCES)))
    elif op == "declare_resource":
        counter[0] += 1
        graph.declare_resource(Resource(
            f"R{counter[0]}", idle_power=data.draw(
                st.sampled_from([0.0, 0.25, 1.5]))))


# ----------------------------------------------------------------------
# the memo
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_memoized_answers_track_every_mutation(data):
    graph = data.draw(graphs())
    held = asap_schedule(graph)
    tokens: list = []
    counter = [0]
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1,
                                 max_size=14)):
        # Read everything first, so the memo is warm when the graph
        # changes under it.
        answers(held)
        if op == "refresh":
            held = asap_schedule(graph, probe=True) or held
        else:
            apply_op(data, graph, op, tokens, counter)
        got = answers(held)
        assert got == reference_answers(held)
        if set(graph.task_names()) == set(held.as_dict()):
            # A fresh schedule on the same start map starts with an
            # empty memo.
            assert got == answers(Schedule(graph, held.as_dict()))


def test_profile_memo_is_shared_until_the_graph_changes():
    graph = ConstraintGraph()
    graph.new_task("a", duration=3, power=2.0)
    graph.new_task("b", duration=2, power=1.0)
    graph.add_precedence("a", "b")
    schedule = asap_schedule(graph)
    first = PowerProfile.from_schedule(schedule, baseline=1.0)
    assert PowerProfile.from_schedule(schedule, baseline=1.0) is first
    # The horizon is keyed once resolved: the finish time is the default.
    assert PowerProfile.from_schedule(schedule, baseline=1.0,
                                      horizon=5) is first
    assert PowerProfile.from_schedule(schedule, baseline=1.0,
                                      horizon=8) is not first
    assert PowerProfile.from_schedule(schedule, baseline=2.0) is not first
    assert slack(schedule, "a") == 0
    graph.weaken_edge("a", "b")
    assert PowerProfile.from_schedule(schedule, baseline=1.0) is not first
    assert slack(schedule, "a") == UNBOUNDED_SLACK


def test_int_and_float_baselines_keep_their_own_profiles():
    graph = ConstraintGraph()
    graph.new_task("a", duration=3, power=2.0)
    graph.add_release("a", 2)
    schedule = asap_schedule(graph)
    # Before the first start the level is the bare baseline, so its
    # type shows in the first segment.
    as_int = PowerProfile.from_schedule(schedule, 0)
    as_float = PowerProfile.from_schedule(schedule, 0.0)
    assert type(as_int.segments[0][2]) is int
    assert type(as_float.segments[0][2]) is float
    assert as_int.segments == reference_profile(schedule, 0).segments


def test_pickled_schedule_carries_no_memo():
    graph = ConstraintGraph()
    graph.new_task("a", duration=3, power=2.0)
    schedule = asap_schedule(graph)
    PowerProfile.from_schedule(schedule)
    slack(schedule, "a")
    assert schedule._memo is not None
    assert "_memo" not in schedule.__getstate__()
    restored = pickle.loads(pickle.dumps(schedule))
    assert restored._memo is None
    assert restored == schedule
    assert restored.makespan == 3


# ----------------------------------------------------------------------
# the direct copy
# ----------------------------------------------------------------------

def assert_same_copy(graph: ConstraintGraph) -> None:
    direct, replayed = graph.copy(), replay_copy(graph)
    assert list(direct._edges.items()) == list(replayed._edges.items())
    assert direct._version == replayed._version
    assert direct._add_log == replayed._add_log
    assert direct._journal == replayed._journal == []
    assert direct._last_non_add_version == replayed._last_non_add_version
    for attr in ("_out", "_in"):
        assert {k: list(v) for k, v in getattr(direct, attr).items()} \
            == {k: list(v) for k, v in getattr(replayed, attr).items()}
    assert direct._lp_cache == replayed._lp_cache
    assert direct._warm_src == replayed._warm_src
    assert direct._warm_at_version == replayed._warm_at_version
    assert direct.task_names() == replayed.task_names()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_copy_matches_add_edge_replay(data):
    graph = data.draw(graphs(max_tasks=12))
    tokens: list = []
    counter = [0]
    for op in data.draw(st.lists(st.sampled_from(OPS[:-1]), max_size=10)):
        apply_op(data, graph, op, tokens, counter)
    if data.draw(st.booleans()):
        longest_paths(graph, probe=True)
    previous = set_add_log_factor(data.draw(st.sampled_from([1, 4])))
    try:
        assert_same_copy(graph)
    finally:
        set_add_log_factor(previous)


def test_copy_trims_the_add_log_like_the_replay():
    graph = ConstraintGraph()
    for i in range(12):
        graph.new_task(f"t{i}", duration=1)
    for i in range(12):
        for j in range(i + 1, 12):
            graph.add_edge(f"t{i}", f"t{j}", 1)
    longest_paths(graph)
    assert warm_enabled()
    assert_same_copy(graph)
    previous = set_add_log_factor(1)
    try:
        assert_same_copy(graph)
        assert len(graph.copy()._add_log) < graph.edge_count()
    finally:
        set_add_log_factor(previous)


# ----------------------------------------------------------------------
# the cached task tuple and the arrays view after add_task
# ----------------------------------------------------------------------

def test_task_tuple_tracks_add_task_and_set_duration():
    graph = ConstraintGraph()
    graph.new_task("a", duration=2)
    first = graph.task_tuple()
    assert graph.task_tuple() is first
    assert graph.tasks() == list(first) and graph.tasks() is not first
    graph.new_task("b", duration=1)
    assert [t.name for t in graph.task_tuple()] == ["a", "b"]
    graph.set_duration("a", 5)
    assert graph.task_tuple()[0].duration == 5
    assert graph.task_names(include_anchor=True) == [ANCHOR_NAME, "a", "b"]


@pytest.mark.parametrize("mode", [
    "oracle",
    pytest.param("auto", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
    pytest.param("numpy", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
])
def test_longest_paths_see_a_task_added_after_a_solve(mode):
    previous = set_kernel(mode)
    try:
        graph = ConstraintGraph()
        for i in range(60):
            graph.new_task(f"t{i}", duration=2)
            if i:
                graph.add_precedence(f"t{i - 1}", f"t{i}")
        assert len(longest_paths(graph).distance) == 61
        graph.new_task("late", duration=1)
        result = longest_paths(graph)
        assert len(result.distance) == 62
        assert result.distance["late"] == 0
        assert asap_schedule(graph).start("late") == 0
    finally:
        set_kernel(previous)


# ----------------------------------------------------------------------
# segment lookup
# ----------------------------------------------------------------------

def linear_segment_end(profile: PowerProfile, t: int) -> int:
    for t0, t1, _ in profile.segments:
        if t0 <= t < t1:
            return t1
    return t + 1


@given(lengths=st.lists(st.integers(1, 4), max_size=8),
       levels=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=8,
                       max_size=8))
def test_segment_end_matches_a_linear_scan(lengths, levels):
    segments, t = [], 0
    for length, level in zip(lengths, levels):
        segments.append((t, t + length, level))
        t += length
    profile = PowerProfile(segments)
    for slot in range(-2, t + 3):
        assert profile.segment_end(slot) == \
            linear_segment_end(profile, slot)
