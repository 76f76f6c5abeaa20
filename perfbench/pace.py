"""The host's pace, measured beside the program.

On a shared virtual machine the speed a run gets drifts by up to 2x,
in stretches from a fraction of a second to minutes: the same code, run
with seed after seed, spread 30% from run to run although each run did
the same work. Repeating the work within a run removes short
interference, but not a slow stretch that outlasts the run.

A ``Pace`` times a fixed pure-Python reference routine (no ``repro``
code) once after every timed operation, never inside a timed interval.
``at_nominal`` divides each operation's time by the median reference
time of the ticks around it and multiplies by ``NOMINAL_MS``: the time
the operation would have taken at the nominal pace. A slow stretch
slows the program and the reference alike and cancels; a change to the
program moves only the program's side. The figures as measured and the
pace are printed on the human-readable lines.
"""

from __future__ import annotations

import random
import statistics
import time

#: Median time of one ``reference`` call on a 2-core x86 virtual
#: machine (CPython 3.11): the pace the timings are expressed at.
NOMINAL_MS = 2.0
#: An operation is set against the median of the ticks up to this many
#: places before and after its own.
WINDOW = 4


def _dag(n: int = 96, fan: int = 3, seed: int = 0):
    rng = random.Random(seed)
    succ = {v: sorted(rng.sample(range(v + 1, n), min(fan, n - v - 1)))
            for v in range(n)}
    weight = {v: 1.0 + rng.random() for v in range(n)}
    return succ, weight


_SUCC, _WEIGHT = _dag()


def reference() -> float:
    """A fixed mix of what the program's interpreter does: dict and
    list traffic, tuple sorting, float arithmetic and small calls,
    as longest paths over a 96-vertex DAG under 24 weightings."""
    total = 0.0
    for step in range(24):
        scale = 1.0 + step / 16
        dist = dict.fromkeys(_SUCC, 0.0)
        for v in sorted(_SUCC):
            here = dist[v] + _WEIGHT[v] * scale
            for w in _SUCC[v]:
                if here > dist[w]:
                    dist[w] = here
        ranked = sorted(((d, v) for v, d in dist.items()), reverse=True)
        total += sum(d for d, _v in ranked[:8]) / len(ranked)
    return total


class Pace:
    """Reference times of one run, one tick per timed operation."""

    def __init__(self) -> None:
        self.ticks_ms: "list[float]" = []

    def tick(self) -> None:
        """Time the reference routine once; call right after each
        timed operation, in the order the operations ran."""
        t0 = time.perf_counter()
        reference()
        self.ticks_ms.append(1e3 * (time.perf_counter() - t0))

    def median_ms(self) -> float:
        return statistics.median(self.ticks_ms)

    def scale(self, start: int, stop: int) -> float:
        """Multiply a time measured beside ticks ``start:stop`` by this
        to get it at the nominal pace."""
        return NOMINAL_MS / statistics.median(self.ticks_ms[start:stop])

    def at_nominal(self, times: "list[float]") -> "list[float]":
        """The operations' times at the nominal pace. ``times`` are in
        the order they ran, operation ``j`` followed by tick ``j``."""
        if len(times) != len(self.ticks_ms):
            raise ValueError(f"{len(times)} operations but "
                             f"{len(self.ticks_ms)} ticks")
        return [x * self.scale(max(0, j - WINDOW), j + WINDOW + 1)
                for j, x in enumerate(times)]
