"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, per workload:

* the same seed gives identical inputs and a different seed changes
  them;
* two untraced runs with the same seed give identical
  ``feasible_share``, ``finish_mean`` and ``energy_cost_mean_J``;
* two traced runs with the same seed give identical ``core.lp.*``
  counts;
* every metric a run prints, on the human-readable lines and in the
  JSON result, is declared in ``BENCHMARK.json``;

and once, that the command exits non-zero without printing a result in
a directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits non-zero on the first failed check. Takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_selftest"
QUALITY = ("feasible_share", "finish_mean", "energy_cost_mean_J")
WORKLOADS = ("sweep-grid28", "session-rover", "serve-mixed")
SEED = 7
METRIC_LINE = re.compile(r"^  (\S+) = \S+ (\S+)")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        sys.exit(1)


def result_of(workload: str, seed: int, trace: int, spec) -> dict:
    code, out, err = run(workload, seed, trace)
    check(code == 0, f"{workload} trace {trace} seed {seed} exits 0"
          + (f": {err.strip()[-300:]}" if code else ""))
    lines = out.splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(2)
    check(printed == declared,
          f"{workload} trace {trace}: printed metrics and units are "
          f"exactly the declared ones")
    check(set(result["metrics"]) == set(declared),
          f"{workload} trace {trace}: result metrics are exactly the "
          f"declared ones")
    check(result["correct"] and result["failed"] == 0,
          f"{workload} trace {trace}: every answer verified")
    return result["metrics"]


def check_inputs(workload: str, seed: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run as bench
    _module, make = bench._modules(workload)
    check(make(seed).digest() == make(seed).digest(),
          f"{workload}: the same seed gives identical inputs")
    check(make(seed).digest() != make(seed + 1).digest(),
          f"{workload}: another seed changes the inputs")


def check_bare_directory() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _err = run("sweep-grid28", 1, 0, cwd=SCRATCH)
        check(code != 0 and '"correct"' not in out,
              "without the program the command fails and prints no "
              "result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    for workload in WORKLOADS:
        check_inputs(workload, SEED)
        first = result_of(workload, SEED, 0, spec)
        second = result_of(workload, SEED, 0, spec)
        for name in QUALITY:
            check(first[name]["value"] == second[name]["value"],
                  f"{workload}: {name} repeats exactly "
                  f"({first[name]['value']})")
        traced = [result_of(workload, SEED, 1, spec) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t.items()
                   if k.startswith("core.lp.") and v["unit"] == "count"}
                  for t in traced]
        check(counts[0] == counts[1],
              f"{workload}: core.lp counts repeat exactly ({counts[0]})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
