"""Span recording for the traced benchmark runs.

Spans are aggregated in memory, per thread, as they close: calls, total
and self time per metric name (self time excludes the span's nested
children on the same thread), plus the raw intervals of root spans so
the benchmark can tell how much of an end-to-end window no span covers.
:meth:`Recorder.dump` writes everything out once, at exit.
"""

from __future__ import annotations

import array
import functools
import json
import threading
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # one [child seconds] per open span
        self.active: dict[str, int] = {}  # metric -> open depth on this thread
        self.totals: dict[str, list[float]] = {}  # metric -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.roots = array.array("d")  # start, end of each root span


class Recorder:
    """Per-thread span aggregates, merged on :meth:`dump`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float) -> None:
        counters = self.state().counters
        counters[name] = counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.state().samples.setdefault(name, []).append(value)

    def wrap(self, fn, name, counts=None):
        """A wrapper recording one span per call of *fn*.

        *name* is a metric name or an ``(args, kwargs) -> name`` function;
        *counts* optionally maps ``(args, kwargs, result)`` to
        ``(counter, amount)`` pairs recorded after a successful call.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder.state()
            metric = name if isinstance(name, str) else name(args, kwargs)
            depth = state.active.get(metric, 0)
            state.active[metric] = depth + 1
            frame = [0.0]
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.stack.pop()
                duration = end - start
                if state.stack:
                    state.stack[-1][0] += duration
                else:
                    state.roots.append(start)
                    state.roots.append(end)
                state.active[metric] = depth
                totals = state.totals.setdefault(metric, [0, 0.0, 0.0])
                totals[2] += duration - frame[0]
                if depth == 0:  # a re-entered metric counts its outer call once
                    totals[0] += 1
                    totals[1] += duration
            if counts is not None:
                for counter, amount in counts(args, kwargs, result):
                    recorder.count(counter, amount)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        """Write the merged aggregates to *path* (JSON) and the root
        intervals to ``path + ".roots"`` (native doubles)."""
        totals: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        roots = array.array("d")
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for metric, (calls, total, own) in state.totals.items():
                merged = totals.setdefault(metric, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for counter, amount in state.counters.items():
                counters[counter] = counters.get(counter, 0.0) + amount
            for metric, values in state.samples.items():
                samples.setdefault(metric, []).extend(values)
            roots.extend(state.roots)
        document = {
            "spans": {
                metric: {"calls": calls, "total_s": total, "self_s": own}
                for metric, (calls, total, own) in totals.items()
            },
            "counters": counters,
            "samples": samples,
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
        with open(path + ".roots", "wb") as handle:
            roots.tofile(handle)
