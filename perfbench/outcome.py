"""What one benchmark run reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from pace import NOMINAL_MS
from stats import mean, median, middle, tail


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: name -> (value, unit, note); the note names the percentile and
    #: the sample count behind a value.
    metrics: "dict[str, tuple[float, str, str]]" = field(
        default_factory=dict)
    #: Traffic properties later claims must cite: name -> value.
    traffic: "dict[str, float]" = field(default_factory=dict)
    #: Extra human-readable lines printed before the result.
    notes: "list[str]" = field(default_factory=list)

    def add(self, name: str, value: float, unit: str,
            note: str = "") -> None:
        self.metrics[name] = (value, unit, note)


def timings(out: Outcome, repeats_s: "list[list[float]]", what: str,
            pace) -> None:
    """The timings of a run that repeated one unit of work: each
    operation's time at the nominal pace (``pace.Pace.at_nominal``),
    then its median over the repeats (``stats.middle``); the latencies
    are over those times and ``ops_per_s`` is the operations over their
    sum."""
    n, k = len(repeats_s[0]), len(repeats_s)
    flat = pace.at_nominal([x for repeat in repeats_s for x in repeat])
    typical = middle([flat[i * n:(i + 1) * n] for i in range(k)])
    ms = [1e3 * x for x in typical]
    tail_name, tail_ms = tail(ms)
    at = f"each the median of {k}, at nominal pace"
    out.add("ops_per_s", n / sum(typical), "1/s", f"{n} {what}, {at}")
    out.add("lat_p50_ms", median(ms), "ms", f"p50, n={n}, {at}")
    out.add("lat_tail_ms", tail_ms, "ms", f"{tail_name}, n={n}, {at}")
    measured = [1e3 * x for x in middle(repeats_s)]
    out.notes.append(
        f"pace: reference {pace.median_ms():.4f} ms, median of "
        f"{len(pace.ticks_ms)} ticks (nominal {NOMINAL_MS} ms); as "
        f"measured: ops_per_s {1e3 * n / sum(measured):.4g}, lat_p50_ms "
        f"{median(measured):.4g}, lat_tail_ms {tail(measured)[1]:.4g}")


def quality(out: Outcome, feasible: list, total: int) -> None:
    """The paper's headline numbers over the feasible answers."""
    out.add("feasible_share", len(feasible) / total, "ratio",
            f"{len(feasible)}/{total}")
    out.add("finish_mean", mean(a.finish_time for a in feasible),
            "time_units", f"n={len(feasible)}")
    out.add("energy_cost_mean_J", mean(a.energy_cost for a in feasible),
            "J", f"n={len(feasible)}")


def repetitions(seconds: float, unit_seconds: float, least: int) -> int:
    """Units of work a run measures: ``seconds`` worth at the nominal
    ``unit_seconds`` per unit, at least ``least``. The count depends on
    the arguments only, never on how fast this machine is, so every run
    pools the same number of samples."""
    return max(least, round(seconds / unit_seconds))


@dataclass
class Unit:
    """One fixed unit of work, as a traced run measures it."""

    #: Wall time of the unit: the account self times are taken from,
    #: and the time compared between the traced and untraced passes.
    wall_s: float
    attempted: int
    failed: int
    #: Anything comparable: tracing must not change it.
    answers: object
    #: Per-layer metrics the workload measures itself: name -> (v, unit).
    extra: "dict[str, tuple[float, str]]"
    traffic: "dict[str, float]"
