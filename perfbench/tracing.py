"""Call tracing from outside the program: spans and counts around public calls.

The benchmark never edits ``src/``.  Instead it replaces public functions
and methods with wrappers at the names their callers look up, so each
call into a layer is timed where it crosses the layer boundary:

* a **span** records calls, total time and self time (the span minus
  the time covered by spans opened inside it), per thread, so handler
  threads of the gateway keep separate stacks;
* a **count** records calls only (no clock read);
* a **timed lock** records how long each acquisition waited.

Spans nest through a per-thread stack.  A span that opened no child is
a leaf; leaf time under a root span is what ``trace.leaf_coverage``
compares to the root's total.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List

__all__ = ["Tracer", "TimedLock"]

_clock = time.perf_counter


class Tracer:
    """Per-thread span, count and lock-wait accumulators, merged on read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[dict] = []
        self._register = threading.Lock()

    def _bag(self) -> dict:
        bag = getattr(self._local, "bag", None)
        if bag is None:
            # spans: name -> [calls, total, self]; leaf: time in spans
            # that opened no child and ran inside another span.
            bag = {"stack": [], "spans": {}, "counts": {}, "waits": {}, "leaf": 0.0}
            self._local.bag = bag
            with self._register:
                self._threads.append(bag)
        return bag

    # ------------------------------------------------------------------
    def span(self, name: str, func: Callable) -> Callable:
        """Wrap *func* so every call is one span called *name*."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bag = self._bag()
            stack = bag["stack"]
            frame = [0.0, 0]  # child time, child count
            stack.append(frame)
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                entry = bag["spans"].get(name)
                if entry is None:
                    entry = bag["spans"][name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                    if frame[1] == 0:
                        bag["leaf"] += elapsed

        return wrapper

    def count(self, name: str, func: Callable) -> Callable:
        """Wrap *func* so every call adds one to the count *name*."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = self._bag()["counts"]
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: float) -> None:
        """Add *amount* to the count *name* (for values read off a call)."""
        counts = self._bag()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def note_wait(self, name: str, seconds: float) -> None:
        waits = self._bag()["waits"]
        entry = waits.get(name)
        if entry is None:
            entry = waits[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged totals over every thread that recorded anything."""
        spans: Dict[str, list] = {}
        counts: Dict[str, float] = {}
        waits: Dict[str, list] = {}
        leaf = 0.0
        with self._register:
            bags = list(self._threads)
        for bag in bags:
            for name, (calls, total, own) in list(bag["spans"].items()):
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in list(bag["counts"].items()):
                counts[name] = counts.get(name, 0) + value
            for name, (calls, total) in list(bag["waits"].items()):
                entry = waits.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += total
            leaf += bag["leaf"]
        return {"spans": spans, "counts": counts, "waits": waits, "leaf": leaf}


class TimedLock:
    """A lock wrapper that reports how long each acquisition waited."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = _clock()
        acquired = self._inner.acquire(blocking, timeout)
        self._tracer.note_wait(self._name, _clock() - start)
        return acquired

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
