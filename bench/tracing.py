"""Per-layer call counts and self times, recorded from outside the library.

`Tracer.install` wraps every public function listed in `__all__` of the
`rieszdrop` layer modules and rebinds every module-global name that points
at it.  Rebinding matters: `thresholds` and `splitting` import `gamma` and
`v0_const` by name, so patching `specfun.gamma` alone would miss most calls.

Counts and self times are kept per (function, caller) in per-thread dicts
and merged once, when the repetition ends, so that a ledger run's ~2M
wrapped calls cost two clock reads each and nothing is written mid-run.
A function's self time is its wall time minus the time of wrapped calls it
made in the same thread.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time

LAYERS = ("specfun", "splitting", "thresholds", "verify", "cli")
ROOT = "<bench>"
THREAD_ROOT = "<thread>"


class _PerThread(threading.local):
    def __init__(self, registry: list) -> None:
        self.stack: list[list] = []
        # (function, caller) -> [calls, self_s, fails]
        self.stats: dict[tuple[str, str], list] = {}
        self.root = ROOT if threading.current_thread() is threading.main_thread() else THREAD_ROOT
        registry.append(self.stats)


class Tracer:
    def __init__(self) -> None:
        self._registry: list[dict] = []
        self._local = _PerThread(self._registry)
        self._rebound: list[tuple[object, str, object]] = []
        self.threads_started = 0

    def _wrap(self, key: str, fn):
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.stack
            caller = stack[-1][0] if stack else local.root
            frame = [key, 0.0]
            stack.append(frame)
            failed = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = local.stats.get((key, caller))
                if rec is None:
                    rec = local.stats[(key, caller)] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                rec[2] += failed

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rieszdrop"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"rieszdrop.{layer}")
            if mod is None:
                continue
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._rebound.append((mod, name, value))
                    setattr(mod, name, wrapper)

        original_start = threading.Thread.start

        def start(thread, *args, **kwargs):
            self.threads_started += 1
            return original_start(thread, *args, **kwargs)

        self._rebound.append((threading.Thread, "start", original_start))
        threading.Thread.start = start

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._rebound):
            setattr(owner, name, value)
        self._rebound.clear()

    def report(self) -> dict:
        merged: dict[tuple[str, str], list] = {}
        for stats in self._registry:
            for key, (calls, self_s, fails) in stats.items():
                rec = merged.setdefault(key, [0, 0.0, 0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += fails
        return {
            "calls": [[fn, caller, *rec] for (fn, caller), rec in sorted(merged.items())],
            "threads_started": self.threads_started,
        }
