"""Per-layer spans recorded from outside the program.

The benchmark wraps public functions of the program's modules and keeps
one span stack per thread. A span's self time is its duration minus
the time of the wrapped spans it directly contains. The program binds
many functions by bare name (``from ..core.slack import slack``), so a
function is replaced in its defining module and in every ``repro``
module that holds the same object; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class SpanStats:
    """Calls, self seconds and calls that raised, for one span name."""

    __slots__ = ("calls", "self_s", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    """Install wrappers, collect per-thread span statistics, undo."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set; otherwise they call
        #: straight through.
        self.active = False
        self._local = threading.local()
        self._tables: "list[dict[str, SpanStats]]" = []
        self._tables_lock = threading.Lock()
        self._undo: "list[tuple[object, str, object]]" = []

    # -- recording -----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return local

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as span ``name``. ``before(args, kwargs)``
        and ``after(args, kwargs, result, raised)`` run outside the
        span; ``after`` runs whether or not ``fn`` raised."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            raised = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = state.table.get(name)
                if stats is None:
                    stats = state.table[name] = SpanStats()
                stats.calls += 1
                stats.self_s += elapsed - children
                stats.raised += raised
                if after is not None:
                    after(args, kwargs, result, raised)
            return result

        return traced

    def tap(self, owner, attr: str, callback) -> None:
        """Call ``callback(args, kwargs)`` before ``owner.attr`` runs,
        without recording a span."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def tapped(*args, **kwargs):
            if self.active:
                callback(args, kwargs)
            return original(*args, **kwargs)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, tapped)

    def function(self, module_name: str, attr: str, name: str,
                 **hooks) -> None:
        """Replace every ``repro`` binding of ``module.attr``."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if module.__dict__.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, traced)

    def method(self, cls, attr: str, name: str, **hooks) -> None:
        """Replace ``cls.attr`` (plain, class or static method)."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            traced = type(original)(
                self.wrap(name, original.__func__, **hooks))
        else:
            traced = self.wrap(name, original, **hooks)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def totals(self) -> "dict[str, SpanStats]":
        merged: "dict[str, SpanStats]" = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in list(table.items()):
                out = merged.setdefault(name, SpanStats())
                out.calls += stats.calls
                out.self_s += stats.self_s
                out.raised += stats.raised
        return merged
