"""Solve jobs: the unit of work the batch runner dispatches.

A :class:`SolveJob` is a picklable description of one independent solve
— a problem, a full options configuration (seed included), and a *kind*
naming the worker function that turns the problem into a small result
payload.  Kinds are registered in a module-level registry so the
callable itself never has to cross a process boundary; worker processes
resolve the name locally (inherited via fork, re-imported via spawn).

Built-in kinds
--------------
``"sweep_point"``
    Run the full power-aware pipeline and return a
    :class:`~repro.analysis.sweep.SweepPoint` (infeasible problems give
    a ``feasible=False`` point rather than an error).

Schedule reuse: kind functions may accept an optional second parameter
— a :class:`~repro.engine.schedule_store.ScheduleStore` — and consult
it before solving.  A job served from the store marks
``stats["reuse"]["hit"] = True`` and skips the pipeline entirely; a job
that solved records its final schedule into the store and ships any new
entries back through ``stats["reuse"]["new_entries"]`` so the parent
process can merge them (:func:`run_job` drains the store journal after
each job).  Single-parameter kind functions remain valid: the registry
inspects the signature at registration and never passes them a store.

Determinism: a job's randomness flows entirely from ``options.seed``.
:func:`derive_seed` produces stable per-job seeds from a base seed and
a job index — the same arithmetic on every platform and process, so
serial and parallel executions of the same batch are identical.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.graph import set_add_log_factor
from ..core.kernel import set_kernel, set_warm
from ..core.problem import SchedulingProblem
from ..scheduling.base import SchedulerOptions
from ..scheduling.max_power import shared_repairs
from ..scheduling.preparation import PreparedProblem, prepare
from .hashing import problem_base_key, problem_key
from .schedule_store import ScheduleStore

__all__ = ["SolveJob", "JobResult", "derive_seed", "register_kind",
           "prepare_batch", "run_job", "run_chunk", "solve_problems"]


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, well-spread per-job seed (no Python ``hash()``)."""
    mixed = (base_seed * 1_000_003 + index * 7919 + 12345) & 0x7FFFFFFF
    return mixed


@dataclass(frozen=True)
class SolveJob:
    """One independent solve: problem + options + worker kind."""

    problem: SchedulingProblem
    kind: str = "sweep_point"
    options: "SchedulerOptions | None" = None
    tags: "Mapping[str, Any]" = field(default_factory=dict)
    prepared: "PreparedProblem | None" = field(
        default=None, compare=False, repr=False)

    def key(self) -> str:
        """Canonical cache key for this job's complete input."""
        return problem_key(self.problem, self.options, kind=self.kind)

    def reseeded(self, base_seed: int, index: int) -> "SolveJob":
        """A copy whose options carry :func:`derive_seed` of ``index``."""
        opts = self.options or SchedulerOptions()
        return SolveJob(problem=self.problem, kind=self.kind,
                        options=replace(opts,
                                        seed=derive_seed(base_seed,
                                                         index)),
                        tags=dict(self.tags))


@dataclass
class JobResult:
    """Outcome of one job: payload plus execution bookkeeping."""

    position: int
    key: str
    value: Any = None
    ok: bool = True
    error: "str | None" = None
    attempts: int = 0
    elapsed_s: float = 0.0
    cached: bool = False
    stats: "dict[str, Any]" = field(default_factory=dict)


# ----------------------------------------------------------------------
# worker-kind registry
# ----------------------------------------------------------------------

_KINDS: "dict[str, Callable[..., tuple[Any, dict]]]" = {}

#: Kind names whose function accepts the optional store parameter.
_STORE_AWARE: "set[str]" = set()


def register_kind(name: str,
                  fn: "Callable[..., tuple[Any, dict]]") -> None:
    """Register a worker function ``job -> (value, stats_dict)``.

    Must be called at import time of a real module so that spawned
    worker processes see the registration too; with the default ``fork``
    start method the parent's registry is inherited directly.

    A function taking a second parameter is treated as store-aware and
    called as ``fn(job, store)`` (``store`` may be None); one-parameter
    functions keep the original ``fn(job)`` contract.
    """
    _KINDS[name] = fn
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        params = {}
    if len(params) >= 2:
        _STORE_AWARE.add(name)
    else:
        _STORE_AWARE.discard(name)


def _solve_sweep_point(job: SolveJob, store=None) -> "tuple[Any, dict]":
    from ..analysis.sweep import SweepPoint
    from ..errors import SchedulingFailure
    from ..scheduling.power_aware import PowerAwareScheduler

    problem = job.problem
    options = job.options or SchedulerOptions()
    # DVFS problems are store-exempt (DESIGN.md 5f): the freq_select
    # front-end reads P_max, so neither serving from nor recording into
    # the validity-rectangle store is sound for them.
    use_store = store is not None and not problem.has_operating_points
    if use_store:
        base_key = store.ensure_primed(problem, options, kind=job.kind,
                                       prepared=job.prepared)
        entry = store.probe(base_key, problem.p_max, problem.p_min)
        if entry is not None:
            return _serve_stored_point(problem, entry)
    try:
        result = PowerAwareScheduler(options).solve(problem, job.prepared)
    except SchedulingFailure:
        stats = {"reuse": {"hit": False}} if store is not None else {}
        return (SweepPoint(p_max=problem.p_max, p_min=problem.p_min,
                           feasible=False), stats)
    stats = result.stats.as_dict()
    if use_store:
        store.record_result(base_key, problem, result)
    if store is not None:
        stats["reuse"] = {"hit": False}
    point = SweepPoint(
        p_max=problem.p_max, p_min=problem.p_min, feasible=True,
        finish_time=result.finish_time,
        energy_cost=result.energy_cost,
        utilization=result.utilization,
        peak_power=result.metrics.peak_power)
    return point, stats


def _serve_stored_point(problem: SchedulingProblem, entry) \
        -> "tuple[Any, dict]":
    """Materialize a stored schedule as this environment's SweepPoint.

    The stored start times are rebuilt against the job's own graph and
    re-evaluated under the job's ``(p_max, p_min)`` — metrics are
    *computed*, never copied, so a served point carries exactly the
    numbers a fresh solve of the same schedule would report.
    """
    from ..analysis.sweep import SweepPoint
    from ..core.metrics import evaluate

    schedule = entry.rebuild(problem)
    metrics = evaluate(schedule, problem.p_max, problem.p_min,
                       baseline=problem.baseline)
    point = SweepPoint(
        p_max=problem.p_max, p_min=problem.p_min, feasible=True,
        finish_time=metrics.finish_time,
        energy_cost=metrics.energy_cost,
        utilization=metrics.utilization,
        peak_power=metrics.peak_power)
    stats = {"reuse": {"hit": True, "label": entry.label,
                       "stage": entry.stage,
                       "peak": entry.peak, "floor": entry.floor}}
    return point, stats


register_kind("sweep_point", _solve_sweep_point)


def prepare_batch(entries: "Sequence[tuple[int, str, SolveJob]]",
                  store=None, share: bool = True) \
        -> "list[tuple[int, str, SolveJob]]":
    """Share one preparation, and the spike repairs, among the batch
    jobs that need them.

    ``sweep_point`` jobs are grouped by content hash
    (``problem_base_key``); a group of two or more (when ``share``: the
    backend hands workers the job objects), or one ``store`` has yet to
    prime, is prepared once into each job's ``prepared``; then ``store``
    is primed.  DVFS jobs, whose graph depends on ``P_max``, never are.
    When ``share``, the max-power restarts under each ``(P_max, total
    baseline)`` that two or more of a group's jobs will repair also run
    once here; those jobs get the preparation narrowed to that row
    (:meth:`~repro.scheduling.preparation.PreparedProblem.with_repairs`).
    """
    groups: "dict[str, list[int]]" = {}
    for index, (_position, _key, job) in enumerate(entries):
        if job.kind == "sweep_point" \
                and not job.problem.has_operating_points:
            groups.setdefault(problem_base_key(
                job.problem, job.options, kind=job.kind), []).append(index)
    out = list(entries)
    for base, members in groups.items():
        if (share and len(members) > 1) \
                or (store is not None and not store.is_primed(base)):
            first = out[members[0]][2]
            shared = prepare(first.problem, first.options).compact()
            for index in members:
                position, key, job = out[index]
                out[index] = (position, key, replace(job, prepared=shared))
    if store is not None:
        # Prime here, in the parent: worker snapshots then carry it.
        for _position, _key, job in out:
            store.ensure_primed(job.problem, job.options, kind=job.kind,
                                prepared=job.prepared)
    if share:
        for base, members in groups.items():
            _share_repairs(out, base, members, store)
    return out


def _share_repairs(out: "list[tuple[int, str, SolveJob]]", base: str,
                   members: "list[int]", store) -> None:
    """Run the repairs of one prepared group once per shared budget.

    A job the store will serve never repairs, so it does not count
    towards sharing; the probe is the local, counter-free one, so
    classifying jobs here moves no store hit count.
    """
    budgets: "dict[tuple[float, float], list[int]]" = {}
    for index in members:
        job = out[index][2]
        if job.prepared is None:
            return
        problem = job.problem
        if store is not None and ScheduleStore.probe(
                store, base, problem.p_max, problem.p_min) is not None:
            continue
        budgets.setdefault((problem.p_max, problem.total_baseline),
                           []).append(index)
    for (p_max, baseline), indices in budgets.items():
        if len(indices) < 2:
            continue
        first = out[indices[0]][2]
        outcomes = shared_repairs(first.problem, first.prepared,
                                  first.options)
        if outcomes is None:
            continue
        narrowed = first.prepared.with_repairs(p_max, baseline, outcomes)
        for index in indices:
            position, key, job = out[index]
            out[index] = (position, key, replace(job, prepared=narrowed))


# ----------------------------------------------------------------------
# execution (runs in workers and in the serial fallback alike)
# ----------------------------------------------------------------------

def run_job(job: SolveJob, position: int = 0, key: "str | None" = None,
            retries: int = 0, instrument: bool = False,
            store=None, lp_log_factor: "int | None" = None,
            core_kernel: "str | None" = None,
            warm_start: "bool | None" = None) -> JobResult:
    """Execute one job with capped in-place retry.

    Scheduler-level infeasibility is a *result* (the kind functions
    encode it in their payload); only unexpected exceptions trigger a
    retry, and after ``retries + 1`` attempts the error is reported in
    the :class:`JobResult` rather than raised, so one bad point never
    sinks a batch.

    With ``instrument=True`` the job runs inside an isolated
    :func:`repro.obs.capture` session: every span the solve records
    (pipeline stages, longest-path recomputes) plus any metrics land in
    ``result.stats["obs"]`` — span times relative to the job start,
    anchored by a ``wall0`` wall-clock timestamp — so the parent
    process (serial caller and pool worker alike) can re-parent the
    tree under its own job span and merge the metric increments.

    ``store`` (a :class:`~repro.engine.schedule_store.ScheduleStore`)
    is forwarded to store-aware kinds; entries the job inserted are
    drained from the store journal into
    ``result.stats["reuse"]["new_entries"]`` so pool workers ship them
    back to the parent (the serial path shares the live store, where the
    drained delta is simply redundant with what is already in it).

    ``lp_log_factor`` overrides the constraint graph's add-log trim
    bound multiplier (:data:`repro.core.graph.ADD_LOG_FACTOR`) for the
    duration of the job — the ``RunnerConfig.lp_log_factor``
    passthrough.  The previous factor is restored on exit.

    ``core_kernel`` and ``warm_start`` are the solver-core passthroughs
    of ``RunnerConfig.core_kernel`` / ``RunnerConfig.warm_start``
    (see :mod:`repro.core.kernel`): applied for the duration of the
    job, previous per-process settings restored on exit.  ``None``
    leaves the process-wide setting untouched.
    """
    fn = _KINDS.get(job.kind)
    key = key if key is not None else job.key()
    if fn is None:
        return JobResult(position=position, key=key, ok=False,
                         error=f"unknown job kind {job.kind!r}")
    use_store = store is not None and job.kind in _STORE_AWARE
    last_error = ""
    capture_ctx = None
    # (setter, previous value) of each knob applied for this job.
    restore = [(setter, setter(value)) for setter, value in (
        (set_add_log_factor, lp_log_factor), (set_kernel, core_kernel),
        (set_warm, warm_start)) if value is not None]
    if instrument:
        from ..obs import capture
        capture_ctx = capture()
        capture_ctx.__enter__()
    t0 = time.perf_counter()
    result: "JobResult | None" = None
    try:
        for attempt in range(1, max(1, retries + 1) + 1):
            try:
                value, stats = fn(job, store) if use_store else fn(job)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            result = JobResult(position=position, key=key, value=value,
                               ok=True, attempts=attempt,
                               elapsed_s=time.perf_counter() - t0,
                               stats=stats)
            break
        if result is None:
            result = JobResult(position=position, key=key, ok=False,
                               error=last_error,
                               attempts=max(1, retries + 1),
                               elapsed_s=time.perf_counter() - t0)
    finally:
        if capture_ctx is not None:
            capture_ctx.__exit__(None, None, None)
        for setter, previous in restore:
            setter(previous)
    if capture_ctx is not None:
        result.stats = dict(result.stats)
        result.stats["obs"] = {
            "wall0": capture_ctx.wall0,
            "spans": [span.to_dict() for span in capture_ctx.spans],
            "metrics": capture_ctx.metrics_data,
        }
    # A service-backed store keeps its journal: the serving batcher
    # pushes it wholesale after the batch (RemoteScheduleStore.sync);
    # draining it into per-job stats here would strand every solved
    # entry on this instance — only snapshot modes need the delta
    # shipped through the result.
    if use_store and not getattr(store, "remote", False):
        new_entries = store.drain_journal()
        if new_entries:
            result.stats = dict(result.stats)
            reuse = dict(result.stats.get("reuse") or {})
            reuse["new_entries"] = new_entries
            result.stats["reuse"] = reuse
    return result


def run_chunk(jobs: "list[tuple[int, str, SolveJob]]",
              retries: int = 0,
              instrument: bool = False,
              store=None,
              lp_log_factor: "int | None" = None,
              core_kernel: "str | None" = None,
              warm_start: "bool | None" = None) -> "list[JobResult]":
    """Worker entry point: execute a chunk of keyed jobs in order.

    ``store`` is the worker's private snapshot of the parent's schedule
    store: jobs in the chunk build on each other's entries locally, and
    each job's freshly-inserted entries travel back to the parent in its
    result's ``stats["reuse"]["new_entries"]``.  ``lp_log_factor``,
    ``core_kernel``, and ``warm_start`` are the per-job solver knob
    passthroughs (see :func:`run_job`) — applied here per job so worker
    processes honour them too.
    """
    return [run_job(job, position=position, key=key, retries=retries,
                    instrument=instrument, store=store,
                    lp_log_factor=lp_log_factor, core_kernel=core_kernel,
                    warm_start=warm_start)
            for position, key, job in jobs]


def solve_problems(problems: "Iterable[SchedulingProblem]",
                   options: "SchedulerOptions | None" = None,
                   runner=None) -> "list[Any]":
    """Batch-solve a workload set into sweep points.

    Convenience front-end for workload batches (e.g.
    :func:`repro.workloads.random_problems` output): one
    ``"sweep_point"`` job per problem through ``runner`` (a
    :class:`~repro.engine.runner.BatchRunner`; a serial one is created
    when omitted).
    """
    from .runner import BatchRunner
    jobs = [SolveJob(problem=problem, options=options)
            for problem in problems]
    runner = runner or BatchRunner()
    return runner.run_values(jobs)
