"""Min-power scheduler — the paper's Fig. 6 algorithm.

Takes a *valid* schedule (time-valid and under ``P_max``) and improves
its **min-power utilization** ``rho_sigma(P_min)`` by filling *power
gaps*: intervals where the profile drops below the free-power level
``P_min`` and renewable energy is being wasted.  A gap at time ``t`` is
filled by delaying some earlier-started task — within its slack, so no
other task moves — until it is active at ``t``.  A move is kept only if
the new schedule is still valid, finishes no later (the paper: each
improving scan delivers "the same performance with a reduced energy
cost"), and strictly improves utilization.

Since the total task energy is invariant under start-time moves,
maximizing utilization at a fixed finish time is exactly minimizing the
paper's energy cost ``Ec_sigma(P_min)``.

Finding the cost-optimal task order is exponential, so the paper scans
the schedule repeatedly under different heuristics; we reproduce the
three published knobs and take the best result across configurations:

* **scan order** over gap times: ``forward``, ``reverse``, ``random``;
* **slot choice** for the delayed task: start at the gap, right-align
  to the gap end, or a random feasible slot;
* **multiple scans**: keep re-scanning until a scan makes no move
  (new gaps/fillers appear after earlier moves).

The min-power constraint is soft: leftover gaps are tolerated.
"""

from __future__ import annotations

import itertools
import random

from ..core.graph import ConstraintGraph
from ..core.problem import SchedulingProblem
from ..core.profile import PowerProfile
from ..core.schedule import Schedule
from ..core.slack import slack
from ..core.task import ANCHOR_NAME
from ..obs import OBS
from .base import ScheduleResult, SchedulerOptions, SchedulerStats, \
    make_result
from .max_power import MaxPowerScheduler
from .timing import asap_schedule

__all__ = ["MinPowerScheduler", "min_power_schedule", "GapFillConfig"]

#: Utilization must improve by more than this for a move to be kept.
_RHO_EPS = 1e-12


class GapFillConfig:
    """One heuristic configuration: (scan order, slot choice, seed)."""

    def __init__(self, scan_order: str, slot: str, seed: int):
        self.scan_order = scan_order
        self.slot = slot
        self.seed = seed

    def __repr__(self) -> str:
        return f"GapFillConfig({self.scan_order}, {self.slot})"


class MinPowerScheduler:
    """Multi-scan gap filling (paper Fig. 6)."""

    #: Upper bound on improving scans per configuration; each improving
    #: scan strictly raises utilization so this is a safety net, not a
    #: quality knob.
    MAX_SCANS_PER_CONFIG = 32

    def __init__(self, options: "SchedulerOptions | None" = None):
        self.options = options or SchedulerOptions()
        self.stats = SchedulerStats()
        #: ``(schedule, graph version, candidate rows)`` of the last
        #: schedule gap candidates were listed for
        #: (:meth:`_gap_candidates`).
        self._listed: "tuple[Schedule, int, list] | None" = None

    # ------------------------------------------------------------------

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        """Full pipeline: timing -> max power -> min power.

        Returns the best schedule across heuristic configurations with
        ``stage="min_power"``.
        """
        base = MaxPowerScheduler(self.options).solve(problem)
        self.stats = SchedulerStats()
        self.stats.merge(base.stats)
        return self.improve(problem, base)

    def improve(self, problem: SchedulingProblem,
                base: ScheduleResult) -> ScheduleResult:
        """Gap-fill an existing valid result (``base``).

        ``base.extra["graph"]`` must hold the decorated graph whose ASAP
        schedule is ``base.schedule`` (as produced by
        :class:`MaxPowerScheduler`).
        """
        base_graph: ConstraintGraph = base.extra["graph"]
        p_max, p_min = problem.p_max, problem.p_min
        baseline = problem.total_baseline

        best_schedule = base.schedule
        best_graph = base_graph
        best_rho = base.metrics.utilization
        best_config = None
        needs_work = p_min > 0 and best_rho < 1.0 - _RHO_EPS
        if needs_work:
            for config in self._configs():
                graph = base_graph.copy()
                with OBS.span("sched.minp.scan",
                              order=config.scan_order,
                              slot=config.slot) as scan_span:
                    schedule, rho = self._fill_gaps(graph, p_max, p_min,
                                                    baseline, config)
                    scan_span.set(rho=round(rho, 6))
                if rho > best_rho + _RHO_EPS:
                    best_schedule, best_graph, best_rho = \
                        schedule, graph, rho
                    best_config = config
                if best_rho >= 1.0 - _RHO_EPS:
                    break
        result = make_result(problem, best_schedule, stats=self.stats,
                             stage="min_power")
        result.extra["graph"] = best_graph
        result.extra["config"] = best_config
        return result

    # ------------------------------------------------------------------

    def _configs(self) -> "list[GapFillConfig]":
        """The heuristic configurations to try, paper default first."""
        combos = list(itertools.product(self.options.scan_orders,
                                        self.options.slot_heuristics))
        # Put the deterministic forward/start pairing first when present.
        combos.sort(key=lambda c: (c != ("forward", "start_at_gap"),))
        combos = combos[:max(1, self.options.min_power_scans)]
        return [GapFillConfig(order, slot, self.options.seed + i)
                for i, (order, slot) in enumerate(combos)]

    def _fill_gaps(self, graph: ConstraintGraph, p_max: float,
                   p_min: float, baseline: float,
                   config: GapFillConfig) -> "tuple[Schedule, float]":
        """Run repeated gap-filling scans under one configuration.

        Mutates ``graph`` (delay edges tagged ``"gapfill"``); returns
        the final schedule and its utilization.
        """
        rng = random.Random(config.seed)
        schedule = asap_schedule(graph)
        profile = PowerProfile.from_schedule(schedule, baseline=baseline)
        rho = _utilization(profile, p_min)
        for _ in range(self.MAX_SCANS_PER_CONFIG):
            self.stats.scans += 1
            moved = False
            gap_times = [gap.start for gap in profile.gaps(p_min)]
            if config.scan_order == "reverse":
                gap_times.reverse()
            elif config.scan_order == "random":
                rng.shuffle(gap_times)
            for t in gap_times:
                outcome = self._fill_one_gap(graph, schedule, profile,
                                             t, p_max, p_min, baseline,
                                             config, rng, rho)
                if outcome is not None:
                    schedule, profile, rho = outcome
                    moved = True
                    if rho >= 1.0 - _RHO_EPS:
                        return schedule, rho
            if not moved:
                break
        return schedule, rho

    def _fill_one_gap(self, graph, schedule, profile, t, p_max, p_min,
                      baseline, config, rng, rho_now):
        """Try to move one earlier task into the gap at time ``t``.

        Returns ``(schedule, profile, rho)`` on an accepted move, else
        None.  The gap may have moved or closed since the scan list was
        built; we re-read the profile and skip stale entries.

        ``schedule`` is the ASAP schedule of ``graph``.  The new start
        always lies within the task's slack, where no other task moves,
        so the trial is exactly the ASAP schedule of the graph plus the
        move's release edge; the edge is added only once the move is
        accepted, and a rejected trial leaves the graph untouched.
        """
        if profile.value(t) >= p_min - PowerProfile.POWER_TOL:
            return None
        makespan = schedule.makespan
        for name in self._gap_candidates(schedule, t):
            window = self._slot_window(graph, schedule, name, t)
            if window is None:
                continue
            new_start = self._choose_slot(graph, window, name, t,
                                          profile, config, rng)
            trial = schedule.with_start(name, new_start)
            if trial.makespan <= makespan:
                trial_profile = PowerProfile.from_schedule(
                    trial, baseline=baseline, horizon=makespan)
                if trial_profile.is_power_valid(p_max):
                    rho_new = _utilization(trial_profile, p_min)
                    if rho_new > rho_now + _RHO_EPS:
                        graph.add_edge(ANCHOR_NAME, name, new_start,
                                       tag="gapfill")
                        self.stats.gap_fill_moves += 1
                        return trial, trial_profile, rho_new
            self.stats.gap_fill_rejected += 1
        return None

    def _gap_candidates(self, schedule: Schedule, t: int) -> "list[str]":
        """Tasks that start before ``t`` and could be active at ``t``
        after a within-slack delay; nearest (latest-starting) first.

        A task with power is a candidate exactly when it ends by ``t``
        and its slack reaches it: ``end <= t <= end - 1 + slack``.  The
        ordered ``(start, name, end, end - 1 + slack)`` list is built
        once per schedule and graph version.
        """
        listed = self._listed
        version = schedule.graph._version
        if listed is None or listed[0] is not schedule \
                or listed[1] != version:
            reach = []
            tasks = schedule.graph._tasks
            for name, start in schedule.items():
                task = tasks[name]
                if task.duration == 0 or task.power == 0:
                    continue
                end = start + task.duration
                reach.append((start, name, end,
                              end - 1 + slack(schedule, name)))
            reach.sort(key=lambda row: (-row[0], row[1]))
            listed = self._listed = (schedule, version, reach)
        return [name for _start, name, end, last in listed[2]
                if end <= t <= last]

    def _slot_window(self, graph: ConstraintGraph, schedule: Schedule,
                     name: str, t: int) -> "tuple[int, int] | None":
        """Feasible new-start interval making ``name`` active at ``t``.

        ``[lo, hi]`` with ``lo > sigma(name)`` (a real delay), bounded
        by the task's slack so nothing else moves.
        """
        task = graph.task(name)
        start = schedule.start(name)
        lo = max(start + 1, t - task.duration + 1)
        hi = min(t, start + slack(schedule, name))
        if lo > hi:
            return None
        return lo, hi

    def _choose_slot(self, graph, window, name, t, profile, config, rng) \
            -> int:
        """Pick the new start inside ``window`` per the slot heuristic."""
        lo, hi = window
        if config.slot == "start_at_gap":
            choice = t
        elif config.slot == "finish_at_gap_end":
            # Right-align the task to the end of the gap containing t.
            gap_end = profile.segment_end(t)
            choice = gap_end - graph.task(name).duration
        else:
            choice = rng.randint(lo, hi)
        return min(max(choice, lo), hi)


def _utilization(profile: PowerProfile, p_min: float) -> float:
    if p_min <= 0 or profile.horizon == 0:
        return 1.0
    return profile.energy_capped(p_min) / (p_min * profile.horizon)


def min_power_schedule(problem: SchedulingProblem,
                       options: "SchedulerOptions | None" = None) \
        -> ScheduleResult:
    """Convenience wrapper: the full three-stage pipeline."""
    return MinPowerScheduler(options).solve(problem)
