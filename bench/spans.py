"""Span tracing of qsym's public functions, installed from outside the library.

``Tracer.install`` wraps each target function and rebinds every name in the
loaded ``qsym`` modules that refers to the same function object, so calls
between layers nest (``tv_bounds -> check_qs -> empirical_modulus``).  A
span records its busy time; its self time is the busy time minus the time
its child spans cover.  Counters derive work counts from the arguments and
the returned report.  With ``memory=True`` each span also records its peak
traced allocation above the level at entry; run that pass apart from the
timed one, because ``tracemalloc`` slows Python-heavy code several-fold.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict


def _span_stat():
    return {"calls": 0, "busy": 0.0, "self": 0.0, "peak": 0, "counts": defaultdict(float)}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats = defaultdict(_span_stat)
        self.top_busy = 0.0  # time covered by outermost spans since the last reset
        self._stack = []
        self._rebound = []

    def install(self, targets):
        """Wrap ``(module, function, counter)`` targets; counter may be None."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qsym" or name.startswith("qsym."))]
        for modname, fname, counter in targets:
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(f"{modname.split('.')[-1]}.{fname}", orig, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def _wrap(self, name, fn, counter):
        stack = self._stack
        stat = self.stats[name]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [time.perf_counter(), 0.0, 0, 0]  # start, child time, base, peak
            if self.memory:
                cur, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1][3] = max(stack[-1][3], peak)
                tracemalloc.reset_peak()
                frame[2] = frame[3] = cur
            stack.append(frame)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                stat["calls"] += 1
                stat["busy"] += dur
                stat["self"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_busy += dur
                if self.memory:
                    _, peak = tracemalloc.get_traced_memory()
                    frame[3] = max(frame[3], peak)
                    stat["peak"] = max(stat["peak"], frame[3] - frame[2])
                    if stack:
                        stack[-1][3] = max(stack[-1][3], frame[3])
                    tracemalloc.reset_peak()
                if counter is not None and returned:
                    for key, value in counter(args, kwargs, result, dur).items():
                        stat["counts"][key] += value

        return span
