"""Bring one workload's system up from a cold interpreter, then wait.

Run as ``python3 perfbench/setup_probe.py <workload>`` with the
program's ``src`` on ``PYTHONPATH``. Prints ``ready`` once the system
accepts its first input (runner built, server answering ``/healthz``,
or session open), then shuts down when its standard input closes. The
parent times the interval from process start to ``ready``.
"""

import sys


def main(workload: str) -> int:
    if workload == "sweep-grid28":
        from repro.engine import BatchRunner, RunnerConfig
        BatchRunner(RunnerConfig())
        print("ready", flush=True)
        sys.stdin.read()
        return 0
    if workload == "session-rover":
        from repro.online import MissionSession, SessionConfig
        from repro.scheduling import SchedulerOptions
        MissionSession(SessionConfig(p_max=22.0, p_min=12.0,
                                     options=SchedulerOptions()))
        print("ready", flush=True)
        sys.stdin.read()
        return 0
    if workload == "serve-mixed":
        from repro.serving import ServingClient
        from live_server import LiveServer, server_config
        with LiveServer(server_config()) as live:
            ServingClient(live.url).healthz()
            print("ready", flush=True)
            sys.stdin.read()
        return 0
    print(f"unknown workload {workload!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
