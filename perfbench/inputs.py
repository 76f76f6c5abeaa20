"""Seeded input generation for the benchmark workloads.

Every workload is a fixed instance family plus a seed. The seed draws
the sweep order, the request order with small budget offsets, and the
arrival order; the instances and the sweep grid are fixed, so two seeds
load the program with about the same amount of work in a different
arrangement. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.examples_data import fig1_problem
from repro.mission import MarsRover
from repro.mission.rover import SolarCase
from repro.online import arrivals_from_problem
from repro.workloads import RandomWorkloadConfig, random_problem

#: The repository's 28-task grid instance (also used by the kernel and
#: serving benches).
GRID28_SEED = 11
GRID28_CONFIG = RandomWorkloadConfig(tasks=28, resources=4, layers=5)
GRID28_SIDE = 8
#: Budgets span these multiples of the nominal P_max; floors span these
#: multiples of the nominal P_min (clamped to the budget).
GRID28_BUDGETS = (0.6, 1.75)
GRID28_LEVELS = (0.3, 1.0)

#: Served requests besides Fig. 1 and the rover cases: four 16-task
#: instances at five budgets each (instance seed, multiple of the
#: nominal P_max, multiple of the nominal P_min), two points inside the
#: timing schedule's validity rectangle, where the store serves them,
#: and the rover typical case unrolled twice at nine budgets (watts over
#: the nominal P_max). Most of these cost tens of milliseconds, so the
#: latency tail lies among many similar solves.
SERVE16_CONFIG = RandomWorkloadConfig(tasks=16, resources=4, layers=4)
SERVE16_POINTS = tuple(
    (instance, budget, 1.0) for instance in (0, 1, 3, 4)
    for budget in (1.0, 1.05, 1.1, 1.15, 1.2)) + ((1, 1.5, 0.4),
                                                  (3, 1.5, 0.4))
UNROLLED_STEPS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
#: Rover worst case: the nominal 19 W, where max-power repair fails and
#: the serial fallback answers, and a budget where repair succeeds.
ROVER_WORST_BUDGETS = (19.0, 25.0)
#: Each budget but the rover worst case's 19 W moves by up to this
#: share, drawn from the seed.
SERVE_JITTER = 0.005
#: (first sends, requests) per group of the request sequence: every
#: request beyond a distinct one's first send is an exact repeat.
SERVE_GROUP = (2, 3)
#: The rover worst case at 19 W is the one multi-second solve. It is
#: sent once, with exactly this many requests after it, so it comes at
#: the same place in every seed's sequence.
SERVE_STALL_FOLLOWERS = 5

SESSION_ARRIVALS = 50
SESSION_ITERATIONS = 5
SESSION_ADVANCE_EVERY = 10
SESSION_ADVANCE_STEP = 20
#: Chance that two adjacent independent arrivals trade places.
SESSION_SWAP_P = 0.1


@dataclass
class SweepInput:
    """One problem and the grid of (P_max, P_min) points to sweep."""

    instance_seed: int
    config: RandomWorkloadConfig
    points: "list[tuple[float, float]]"

    def problem(self):
        """A fresh copy of the instance (no caches carried over)."""
        return random_problem(self.instance_seed, self.config)

    def digest(self) -> str:
        return _digest({"instance": self.instance_seed,
                        "tasks": self.config.tasks,
                        "points": self.points})


@dataclass
class ServeInput:
    """Distinct served requests and the seeded request sequence."""

    #: (label, problem, p_max, p_min) per distinct request.
    distinct: "list[tuple[str, object, float, float]]"
    #: Indices into ``distinct``, in send order.
    sequence: "list[int]"

    @property
    def repeat_share(self) -> float:
        return 1.0 - len(set(self.sequence)) / len(self.sequence)

    def digest(self) -> str:
        return _digest({"distinct": [(label, pmax, pmin) for
                                     label, _p, pmax, pmin
                                     in self.distinct],
                        "sequence": self.sequence})


@dataclass
class SessionInput:
    """The rover mission problem and its command stream."""

    problem: object
    commands: "list[dict]"

    @property
    def arrivals(self) -> "list[dict]":
        return [c for c in self.commands if c["event"] == "arrival"]

    def digest(self) -> str:
        return _digest(self.commands)


def _digest(doc) -> str:
    raw = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _grid(p_max: float, p_min: float, side: int,
          budgets: "tuple[float, float]",
          levels: "tuple[float, float]") -> "list[tuple[float, float]]":
    """The centre of each cell of a side x side grid: distinct points.

    The points are fixed rather than drawn: a solve's cost jumps where a
    budget crosses a repair or feasibility threshold, so points drawn
    per seed would change the work from seed to seed."""
    (b_lo, b_hi), (l_lo, l_hi) = budgets, levels
    points = []
    for i in range(side):
        for j in range(side):
            budget = p_max * (b_lo + (b_hi - b_lo) * (i + 0.5) / side)
            level = p_min * (l_lo + (l_hi - l_lo) * (j + 0.5) / side)
            budget = round(budget, 3)
            points.append((budget, round(min(level, budget), 3)))
    return points


def sweep_grid28(seed: int) -> SweepInput:
    """The fixed grid in a seeded sweep order."""
    base = random_problem(GRID28_SEED, GRID28_CONFIG)
    points = _grid(base.p_max, base.p_min, GRID28_SIDE, GRID28_BUDGETS,
                   GRID28_LEVELS)
    random.Random(f"grid28:{seed}").shuffle(points)
    return SweepInput(GRID28_SEED, GRID28_CONFIG, points)


def _serve_distinct() -> "list[tuple[str, object, float, float]]":
    fig1 = fig1_problem()
    distinct = [("fig1", fig1, fig1.p_max, fig1.p_min)]
    rover = MarsRover.standard()
    for case in (SolarCase.BEST, SolarCase.TYPICAL):
        problem = rover.problem(case)
        distinct.append((f"rover-{case.value}", problem, problem.p_max,
                         problem.p_min))
    worst = rover.problem(SolarCase.WORST)
    for budget in ROVER_WORST_BUDGETS:
        distinct.append(("rover-worst", worst, budget, worst.p_min))
    unrolled = rover.problem(SolarCase.TYPICAL,
                             graph=rover.unrolled_graph(
                                 SolarCase.TYPICAL, iterations=2))
    for step in UNROLLED_STEPS:
        distinct.append(("rover-typical-x2", unrolled,
                         unrolled.p_max + step, unrolled.p_min))
    instances = {}
    for instance, budget, level in SERVE16_POINTS:
        if instance not in instances:
            instances[instance] = random_problem(instance, SERVE16_CONFIG)
        problem = instances[instance]
        distinct.append((f"random16-{instance}", problem,
                         round(problem.p_max * budget, 2),
                         round(problem.p_min * level, 2)))
    return distinct


def serve_mixed(seed: int) -> ServeInput:
    """The distinct requests with seeded budget jitter, sent in groups
    of ``SERVE_GROUP[1]`` requests, each holding
    ``SERVE_GROUP[0]`` first sends of distinct requests at seeded places
    and seeded exact repeats of requests already sent, so fresh solves
    are spread evenly whatever the seed. The rover-worst stall is the
    first send that leaves ``SERVE_STALL_FOLLOWERS`` requests after
    it."""
    distinct = _serve_distinct()
    stall = next(i for i, (label, _p, p_max, _n) in enumerate(distinct)
                 if label == "rover-worst"
                 and p_max == ROVER_WORST_BUDGETS[0])
    rng = random.Random(f"serve:{seed}")
    distinct = [
        (label, problem, p_max if index == stall else round(
            p_max * (1 + SERVE_JITTER * (2 * rng.random() - 1)), 3), p_min)
        for index, (label, problem, p_max, p_min) in enumerate(distinct)]
    firsts, size = SERVE_GROUP
    groups = len(distinct) // firsts
    total = groups * size
    stall_at = total - 1 - SERVE_STALL_FOLLOWERS
    is_first = []
    for group in range(groups):
        slots = set(rng.sample(range(size), firsts)) if group \
            else set(range(firsts))
        if group == stall_at // size and stall_at % size not in slots:
            slots.remove(max(slots))
            slots.add(stall_at % size)
        is_first.extend(offset in slots for offset in range(size))
    fresh = [i for i in range(len(distinct)) if i != stall]
    rng.shuffle(fresh)
    sent: "list[int]" = []
    sequence: "list[int]" = []
    for position, first in enumerate(is_first):
        if first:
            sent.append(stall if position == stall_at else fresh.pop())
            sequence.append(sent[-1])
        else:
            sequence.append(rng.choice(sent))
    return ServeInput(distinct, sequence)


def _arrival_order(problem, rng: random.Random) -> "list[str]":
    """Insertion order with adjacent independent tasks swapped at
    random (tasks joined by an edge keep their order)."""
    graph = problem.graph
    linked = set()
    for edge in graph.edges():
        linked.add((edge.src, edge.dst))
        linked.add((edge.dst, edge.src))
    order = list(graph.task_names())
    index = 0
    while index < len(order) - 1:
        pair = (order[index], order[index + 1])
        if pair not in linked and rng.random() < SESSION_SWAP_P:
            order[index], order[index + 1] = pair[1], pair[0]
            index += 2
        else:
            index += 1
    return order


def session_rover(seed: int) -> SessionInput:
    rover = MarsRover.standard()
    problem = rover.problem(
        SolarCase.TYPICAL,
        graph=rover.unrolled_graph(SolarCase.TYPICAL,
                                   iterations=SESSION_ITERATIONS))
    rng = random.Random(f"session:{seed}")
    order = _arrival_order(problem, rng)
    arrivals = arrivals_from_problem(problem, order=order,
                                     quiesce=False)[:SESSION_ARRIVALS]
    commands = []
    for index, arrival in enumerate(arrivals):
        commands.append(arrival)
        if index % SESSION_ADVANCE_EVERY == SESSION_ADVANCE_EVERY - 1:
            commands.append({
                "event": "advance",
                "to": (index // SESSION_ADVANCE_EVERY + 1)
                * SESSION_ADVANCE_STEP})
    return SessionInput(problem, commands)
