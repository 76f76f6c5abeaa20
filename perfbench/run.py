"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs one fixed unit of
the workload untraced and then traced, and reports the per-layer
metrics of the traced unit and the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when any answer
fails verification.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("sweep-grid28", "serve-mixed", "session-rover")
#: Cold start-ups timed per run; the median is reported.
SETUP_REPEATS = 7
#: Pace ticks after each start-up (``pace.Pace``).
SETUP_TICKS = 30
SETUP_TIMEOUT_S = 120.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _modules(workload: str):
    import inputs
    if workload == "sweep-grid28":
        import wl_sweep as module
        make = inputs.sweep_grid28
    elif workload == "serve-mixed":
        import wl_serve as module
        make = inputs.serve_mixed
    else:
        import wl_session as module
        make = inputs.session_rover
    return module, make


def measure_setup(workload: str, pace) -> "list[float]":
    """Seconds from process start to ``ready``, per cold start-up, as
    measured; the ``pace`` ticks ``SETUP_TICKS`` times after each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.stdin.close()
                code = child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"setup probe for {workload} failed (exit {code})")
        times.append(elapsed)
        for _ in range(SETUP_TICKS):
            pace.tick()
    return times


def end_to_end(args, module, inp):
    from pace import Pace
    from stats import rss_peak_mb
    pace = Pace()
    setups = measure_setup(args.workload, pace)
    out = module.measure(args.workload, inp, args.seed, args.seconds)
    # Each start-up at the pace of the ticks that follow it.
    paced = [t * pace.scale(i * SETUP_TICKS, (i + 1) * SETUP_TICKS)
             for i, t in enumerate(setups)]
    out.add("setup_s", statistics.median(paced), "s",
            f"median of {len(setups)} cold start-ups, at nominal pace")
    out.notes.append(
        f"setup pace: reference {pace.median_ms():.4f} ms, median of "
        f"{len(pace.ticks_ms)} ticks; as measured: setup_s "
        f"{statistics.median(setups):.4g}")
    out.add("rss_peak_mb", rss_peak_mb(), "MB", "peak RSS of the run")
    return out


def traced(args, module, inp):
    """Untraced then traced pass over one fixed unit of work."""
    from layers import LayerProbe
    from outcome import Outcome
    base = module.traced_unit(inp, None)
    probe = LayerProbe()
    probe.install()
    try:
        unit = module.traced_unit(inp, probe)
    finally:
        probe.uninstall()
    out = Outcome(attempted=unit.attempted, failed=unit.failed)
    if unit.answers != base.answers:
        print("tracing changed the answers", file=sys.stderr)
        out.failed += unit.attempted
    layer = probe.metrics(unit.wall_s, unit.extra)
    layer.update({name: (value, "ratio")
                  for name, value in unit.traffic.items()})
    layer["trace.overhead_ratio"] = (unit.wall_s / base.wall_s, "ratio")
    for name, (value, unit_name) in layer.items():
        out.add(name, value, unit_name)
    out.notes.append(
        f"tracing overhead: traced {unit.wall_s:.3f} s against "
        f"untraced {base.wall_s:.3f} s of wall time")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no program under {SRC} or no {SPEC.name}: run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    module, make = _modules(args.workload)
    inp = make(args.seed)
    module.warm_up(inp)
    out = (traced if args.trace else end_to_end)(args, module, inp)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"inputs {inp.digest()}  trace {args.trace}")
    for line in out.notes:
        print(f"  {line}")
    for name, value in sorted(out.traffic.items()):
        print(f"  traffic {name} = {value:.4g}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in out.metrics:
            raise RuntimeError(f"metric {name} was not measured")
        value, unit, note = out.metrics[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {name} measured in {unit}, "
                               f"declared in {entry['unit']}")
        print(f"  {name} = {value:.6g} {unit}"
              + (f"  [{note}]" if note else ""))
        metrics[name] = {"value": value, "unit": unit}
    extra = set(out.metrics) - {entry["name"] for entry in declared}
    if extra:
        raise RuntimeError(f"metrics not in {SPEC.name}: {sorted(extra)}")
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
