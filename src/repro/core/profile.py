"""Power profiles: the piecewise-constant function ``P_sigma(t)``.

Section 4.2 of the paper defines the *power profile* of a schedule as
the instantaneous total power drawn during execution.  On the integer
time grid the profile is piecewise constant with breakpoints only at
task starts and finishes, so we represent it as a sorted list of
half-open segments ``(t0, t1, power)`` covering ``[0, horizon)``.

The profile answers every power question the schedulers and metrics
need:

* **power spikes** — maximal intervals where ``P(t) > P_max`` (hard
  violations the max-power scheduler must remove),
* **power gaps** — maximal intervals where ``P(t) < P_min`` (soft
  violations the min-power scheduler tries to fill),
* energy integrals split at an arbitrary level (free vs costly energy).

A constant ``baseline`` models always-on consumers (the rover's CPU in
Table 2, resource idle power) without making them schedulable tasks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ValidationError
from . import kernel as _kernel
from .schedule import Schedule

__all__ = ["Interval", "PowerProfile"]


@dataclass(frozen=True)
class Interval:
    """A half-open time interval ``[start, end)`` with an annotation.

    ``extremum`` records the worst profile value inside the interval:
    the peak power for a spike, the lowest power for a gap.
    """

    start: int
    end: int
    extremum: float

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"[{self.start}, {self.end}) @ {self.extremum:g}W"


class PowerProfile:
    """Piecewise-constant instantaneous power of a schedule."""

    def __init__(self, segments: "Iterable[tuple[int, int, float]]",
                 baseline: float = 0.0):
        """Build directly from ``(t0, t1, power)`` segments.

        Most callers use :meth:`from_schedule` instead.  Segments must
        be non-overlapping, sorted, and contiguous from 0; ``baseline``
        is *already included* in the stored powers (it is remembered
        only for reporting).
        """
        self._segments: "list[tuple[int, int, float]]" = []
        prev_end = 0
        for t0, t1, power in segments:
            if t0 != prev_end:
                raise ValidationError(
                    f"profile segments must be contiguous from 0; gap or "
                    f"overlap at t={t0} (expected {prev_end})")
            if t1 <= t0:
                raise ValidationError(
                    f"empty or negative segment [{t0}, {t1})")
            if power < 0:
                raise ValidationError(
                    f"negative power {power} in segment [{t0}, {t1})")
            # Merge equal-power neighbours for compactness.  "Equal"
            # uses the same POWER_TOL as every validity check: summing
            # task powers in a different order (permuted inputs, the
            # vectorized kernel) can jitter a level by an ulp, and an
            # exact == here would then split one plateau into two
            # segments — changing segment counts across backends while
            # every power query still agreed.  The merged segment keeps
            # the first-seen power, so a long plateau cannot drift.
            if self._segments and \
                    abs(self._segments[-1][2] - power) <= self.POWER_TOL:
                last = self._segments.pop()
                self._segments.append((last[0], t1, last[2]))
            else:
                self._segments.append((t0, t1, power))
            prev_end = t1
        self.baseline = baseline
        self._starts = [seg[0] for seg in self._segments]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_schedule(schedule: Schedule, baseline: float = 0.0,
                      horizon: "int | None" = None) -> "PowerProfile":
        """The profile of a schedule plus a constant baseline.

        ``horizon`` extends (or exactly covers) the profile domain; by
        default it is the schedule's finish time ``tau_sigma``.  Resource
        idle power declared on the graph is added to the baseline.

        The profile is memoized on the schedule (per graph version) by
        its baseline and horizon, so repeated reads share one object;
        profiles are immutable.
        """
        baseline = baseline + schedule.graph.resources.total_idle_power
        tau = schedule.makespan
        horizon = tau if horizon is None else horizon
        if horizon < tau:
            raise ValidationError(
                f"horizon {horizon} is before the schedule finish {tau}")
        # The baseline's type is part of the key: an int baseline
        # leaves an idle segment's power an int, a float one a float.
        key = (type(baseline), baseline, horizon)
        memo = schedule._derived().profiles
        profile = memo.get(key)
        if profile is None:
            profile = memo[key] = PowerProfile._sweep(
                schedule._spans(), baseline, horizon)
        return profile

    @staticmethod
    def _sweep(spans: "list[tuple[int, int, Any]]", baseline: float,
               horizon: int) -> "PowerProfile":
        """One pass over ``(start, end, task)`` spans into a per-time
        power delta map, then one pass over the sorted breakpoints.

        Deltas are summed per time in span order, start before end
        within a span, and the running level adds them in time order,
        so every segment power is bit-identical to summing the events
        one by one.  Equal-power neighbours merge as in ``__init__``.
        """
        if horizon == 0:
            return PowerProfile._trusted([], baseline)
        deltas: "dict[int, float]" = {}
        for start, end, task in spans:
            power = task.power
            if start == end or power == 0:
                continue
            deltas[start] = deltas.get(start, 0.0) + power
            deltas[end] = deltas.get(end, 0.0) - power
        breaks = sorted(deltas.keys() | {0, horizon})
        tol = PowerProfile.POWER_TOL
        segments: "list[tuple[int, int, float]]" = []
        level = baseline
        for b0, b1 in zip(breaks, breaks[1:]):
            delta = deltas.get(b0)
            if delta is not None:
                level += delta
            power = max(level, 0.0)
            if segments and abs(segments[-1][2] - power) <= tol:
                segments[-1] = (segments[-1][0], b1, segments[-1][2])
            else:
                segments.append((b0, b1, power))
        return PowerProfile._trusted(segments, baseline)

    @classmethod
    def _trusted(cls, segments: "list[tuple[int, int, float]]",
                 baseline: float) -> "PowerProfile":
        """A profile over segments already contiguous, valid and merged."""
        profile = cls.__new__(cls)
        profile._segments = segments
        profile.baseline = baseline
        profile._starts = [seg[0] for seg in segments]
        return profile

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def segments(self) -> "list[tuple[int, int, float]]":
        """The merged ``(t0, t1, power)`` segments, sorted."""
        return list(self._segments)

    @property
    def horizon(self) -> int:
        """End of the profile domain."""
        return self._segments[-1][1] if self._segments else 0

    def segment_end(self, t: int) -> int:
        """End of the segment containing slot ``t`` — where the power
        composition next changes; ``t + 1`` outside the domain."""
        if not self._segments or t < 0 or t >= self.horizon:
            return t + 1
        return self._segments[bisect_right(self._starts, t) - 1][1]

    def value(self, t: int) -> float:
        """``P(t)`` for ``0 <= t < horizon`` (0 outside)."""
        if not self._segments or t < 0 or t >= self.horizon:
            return 0.0
        idx = bisect_right(self._starts, t) - 1
        return self._segments[idx][2]

    def peak(self) -> float:
        """The maximum instantaneous power."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_peak(self)
        return max((seg[2] for seg in self._segments), default=0.0)

    def floor(self) -> float:
        """The minimum instantaneous power over the domain."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_floor(self)
        return min((seg[2] for seg in self._segments), default=0.0)

    # ------------------------------------------------------------------
    # spikes and gaps (Section 4.2)
    # ------------------------------------------------------------------

    #: Absolute tolerance for power comparisons.  Summing float task
    #: powers can overshoot a budget by an ulp; a schedule is only
    #: treated as violating a constraint when it misses by more than
    #: this (the paper's instances are specified to 0.1 W).
    POWER_TOL = 1e-9

    def spikes(self, p_max: float, tol: float = POWER_TOL) \
            -> "list[Interval]":
        """Maximal intervals where ``P(t) > P_max`` (hard violations)."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return [Interval(t0, t1, ext) for t0, t1, ext
                    in _kernel.np_spike_runs(self, p_max, tol)]
        return self._level_intervals(lambda p: p > p_max + tol, max)

    def gaps(self, p_min: float, tol: float = POWER_TOL) \
            -> "list[Interval]":
        """Maximal intervals where ``P(t) < P_min`` (soft violations)."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return [Interval(t0, t1, ext) for t0, t1, ext
                    in _kernel.np_gap_runs(self, p_min, tol)]
        return self._level_intervals(lambda p: p < p_min - tol, min)

    def first_spike(self, p_max: float, tol: float = POWER_TOL) \
            -> "Interval | None":
        """The earliest spike, or None if the profile is power-valid."""
        for t0, t1, power in self._segments:
            if power > p_max + tol:
                return self._extend_interval(
                    t0, lambda p: p > p_max + tol, max)
        return None

    def first_gap(self, p_min: float, tol: float = POWER_TOL) \
            -> "Interval | None":
        """The earliest gap, or None if there are no gaps."""
        for t0, t1, power in self._segments:
            if power < p_min - tol:
                return self._extend_interval(
                    t0, lambda p: p < p_min - tol, min)
        return None

    def is_power_valid(self, p_max: float, tol: float = POWER_TOL) -> bool:
        """True when the profile never exceeds the max power constraint."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_is_power_valid(self, p_max, tol)
        return all(seg[2] <= p_max + tol for seg in self._segments)

    def _level_intervals(self, predicate, extremum_fn) -> "list[Interval]":
        out: "list[Interval]" = []
        cur_start = None
        cur_ext: "float | None" = None
        for t0, t1, power in self._segments:
            if predicate(power):
                if cur_start is None:
                    cur_start, cur_ext = t0, power
                else:
                    cur_ext = extremum_fn(cur_ext, power)
                cur_end = t1
            elif cur_start is not None:
                out.append(Interval(cur_start, cur_end, cur_ext))
                cur_start, cur_ext = None, None
        if cur_start is not None:
            out.append(Interval(cur_start, cur_end, cur_ext))
        return out

    def _extend_interval(self, start: int, predicate, extremum_fn) \
            -> Interval:
        # Jump straight to the segment containing ``start`` instead of
        # scanning from t=0 — first_spike/first_gap call this inside the
        # scheduler inner loop, and late violations made it O(S) per
        # call.  ``bisect_right - 1`` lands on the covering segment (or
        # -1 before the domain, clamped); the ``t1 <= start`` guard is
        # kept for the boundary where ``start`` equals that segment's
        # end.
        ext = None
        end = start
        first = max(bisect_right(self._starts, start) - 1, 0)
        for i in range(first, len(self._segments)):
            t0, t1, power = self._segments[i]
            if t1 <= start:
                continue
            if predicate(power):
                ext = power if ext is None else extremum_fn(ext, power)
                end = t1
            elif end > start:
                break
        return Interval(start, end, ext if ext is not None else 0.0)

    # ------------------------------------------------------------------
    # energy integrals
    # ------------------------------------------------------------------

    def energy(self) -> float:
        """Total energy ``integral P(t) dt`` in joules."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_energy(self)
        return sum((t1 - t0) * p for t0, t1, p in self._segments)

    def energy_above(self, level: float) -> float:
        """``integral max(0, P(t) - level) dt`` — energy drawn *above*
        a supply level (the paper's energy cost when ``level = P_min``)."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_energy_above(self, level)
        return sum((t1 - t0) * (p - level)
                   for t0, t1, p in self._segments if p > level)

    def energy_capped(self, level: float) -> float:
        """``integral min(P(t), level) dt`` — energy absorbed from a
        source capped at ``level`` (free-solar usage when
        ``level = P_min``)."""
        if _kernel.use_numpy(len(self._segments), _kernel.AUTO_MIN_SEGMENTS):
            return _kernel.np_energy_capped(self, level)
        return sum((t1 - t0) * min(p, level) for t0, t1, p in self._segments)

    # ------------------------------------------------------------------
    # arithmetic / composition
    # ------------------------------------------------------------------

    def restricted(self, t0: int, t1: int) -> "PowerProfile":
        """The profile over ``[t0, t1)``, re-zeroed to start at 0."""
        if not 0 <= t0 < t1 <= self.horizon:
            raise ValidationError(
                f"restriction [{t0}, {t1}) outside domain "
                f"[0, {self.horizon})")
        segs = []
        for s0, s1, p in self._segments:
            lo, hi = max(s0, t0), min(s1, t1)
            if lo < hi:
                segs.append((lo - t0, hi - t0, p))
        return PowerProfile(segs, baseline=self.baseline)

    @staticmethod
    def concatenate(profiles: "list[PowerProfile]",
                    baseline: "float | None" = None) -> "PowerProfile":
        """Join profiles back to back (mission-level power curve).

        The joined profile's reported ``baseline`` is the first
        profile's (all parts of one mission share the same always-on
        load); concatenating profiles with *different* baselines is
        ambiguous — no single constant describes the result — so it is
        rejected unless an explicit ``baseline`` override says which
        value the joined curve should report.  (The segment powers
        themselves already include each part's baseline and are joined
        verbatim either way.)
        """
        explicit = baseline is not None
        segs: "list[tuple[int, int, float]]" = []
        offset = 0
        for prof in profiles:
            if baseline is None:
                baseline = prof.baseline
            elif not explicit and prof.baseline != baseline:
                raise ValidationError(
                    f"cannot concatenate profiles with mixed baselines "
                    f"({baseline:g} W vs {prof.baseline:g} W); pass an "
                    f"explicit baseline= to pick the reported value")
            for t0, t1, p in prof.segments:
                segs.append((t0 + offset, t1 + offset, p))
            offset += prof.horizon
        return PowerProfile(segs,
                            baseline=baseline if baseline is not None
                            else 0.0)

    def sampled(self, step: int = 1) -> "list[float]":
        """Sample ``P(t)`` every ``step`` units (for plotting/tests)."""
        if step <= 0:
            raise ValidationError(f"step must be positive, got {step}")
        return [self.value(t) for t in range(0, self.horizon, step)]

    def __repr__(self) -> str:
        return (f"PowerProfile(horizon={self.horizon}, "
                f"peak={self.peak():g}W, segments={len(self._segments)})")
