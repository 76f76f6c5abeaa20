"""A ``SolveServer`` on its own event-loop thread, as the serving
benchmarks run it: the store is on, everything else is the default."""

from __future__ import annotations

import asyncio
import threading

from repro.serving import ServingConfig, SolveServer

#: Bound on any wait for the server or a client.
CLIENT_TIMEOUT_S = 60.0


def server_config() -> ServingConfig:
    return ServingConfig(port=0, reuse_schedules=True)


class LiveServer:
    """A ``SolveServer`` serving from a background event-loop thread."""

    def __init__(self, config: ServingConfig):
        self.config = config
        self.server: "SolveServer | None" = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._error: "BaseException | None" = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # reported by __enter__/__exit__
            self._error = exc
            self._ready.set()
        finally:
            loop.close()

    async def _main(self) -> None:
        self.server = SolveServer(self.config)
        await self.server.start()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def __enter__(self) -> "LiveServer":
        self._thread.start()
        if not self._ready.wait(30) or self._error is not None:
            raise RuntimeError(f"server did not start: {self._error}")
        self.url = f"http://127.0.0.1:{self.server.port}"
        return self

    def __exit__(self, *_exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(CLIENT_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")
