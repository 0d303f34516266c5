"""Benchmark-owned tracing: shims around each layer's public functions.

Nothing here changes the program.  :class:`Recorder` replaces chosen
functions and methods -- patched on the object the *caller* looks them up
on (a module global such as ``repro.core.predictor.build_ticket_dataset``
or a class attribute such as ``LineTester.run``) -- with wrappers that
record a span ``(id, parent, name, start, end)`` in memory, plus an
optional per-span value computed from the call's result (rows encoded,
bytes read, rounds fitted, a cache hit).  Parents come from a per-thread
stack; :meth:`Recorder.wrap_fanout` carries the submitting span into
``parallel_map`` worker threads.

Each shim also measures its own bookkeeping (time spent in the wrapper
outside the wrapped call) per span, so a traced run reports its tracing
overhead in place.

:func:`exclusive_times` turns spans into per-name *exclusive* wall time:
every instant of a root span's interval is credited to the innermost
spans active at that instant (split evenly when several run at once), so
the per-name totals plus the root's own remainder add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Recorder", "exclusive_times"]


class Recorder:
    """In-memory span sink with patch/unpatch bookkeeping."""

    def __init__(self):
        # (id, parent, name, start, end); list.append is atomic under the GIL.
        self.spans: list[tuple[int, int, str, float, float]] = []
        # Per-span values a ``value`` hook computes from the call's result.
        self.values: dict[int, float] = {}
        # Shim bookkeeping seconds per span.
        self.overhead: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ----- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code; yields its id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def traced(self, name: str, fn, value=None):
        """``fn`` wrapped to record a span (and ``value(result, args)``)."""
        spans, values, overhead, ids, stack_of = (
            self.spans, self.values, self.overhead, self._ids, self._stack
        )

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            entered = perf_counter()
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if value is not None:
                values[sid] = float(value(result, args))
            overhead[sid] = (start - entered) + (perf_counter() - end)
            return result

        return shim

    def traced_iter(self, name: str, iterable):
        """Yield from ``iterable``, recording each ``next()`` as a span."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def wrap_fanout(self, name: str, task_name: str, parallel_map, capacity=None):
        """A ``parallel_map`` whose tasks run under the submitting span.

        Records the fan-out as a span ``name`` and each task as a child
        span ``task_name``; ``capacity(items, args, kwargs)`` (the worker
        slots the fan-out could fill) is kept as the fan-out's value.
        """
        recorder = self

        @functools.wraps(parallel_map)
        def fanout(fn, items, *args, **kwargs):
            items = list(items)
            with recorder.span(name) as parent:
                if capacity is not None:
                    recorder.values[parent] = float(capacity(items, args, kwargs))

                def task(item):
                    stack = recorder._stack()
                    saved = list(stack)
                    stack[:] = [parent]
                    try:
                        with recorder.span(task_name):
                            return fn(item)
                    finally:
                        stack[:] = saved

                return parallel_map(task, items, *args, **kwargs)

        return fanout

    # ----- patching ---------------------------------------------------------

    def replace(self, owner, attr: str, make) -> None:
        """Swap ``owner.attr`` for ``make(original)`` until :meth:`unpatch`."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def patch(self, owner, attr: str, name: str, value=None) -> None:
        """Trace ``owner.attr`` (a module global, method or classmethod)."""
        def make(original):
            if isinstance(original, classmethod):
                return classmethod(self.traced(name, original.__func__, value))
            return self.traced(name, original, value)

        self.replace(owner, attr, make)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ----- readout ----------------------------------------------------------

    def by_name(self, name: str) -> list[tuple[int, int, str, float, float]]:
        return [s for s in self.spans if s[2] == name]

    def dump(self) -> dict:
        """A JSON-ready copy (the traced server writes it at shutdown)."""
        return {"spans": self.spans,
                "values": list(self.values.items()),
                "overhead": list(self.overhead.items())}


def exclusive_times(spans, root_id: int) -> dict[str, float]:
    """Per-name exclusive wall time inside the root span's interval.

    ``spans`` are the root and the spans to credit (normally its
    descendants).  Sweeps the root's interval; between consecutive span
    boundaries the elapsed time is split evenly over the *frontier* --
    active spans none of whose children are active.  The root's own
    share is returned under its name; all shares sum to the root's
    duration (up to rounding).
    """
    by_id = {s[0]: s for s in spans}
    root = by_id[root_id]
    lo, hi = root[3], root[4]
    members = [s for s in spans if s[0] != root_id and lo <= s[3] and s[4] <= hi]
    events = []
    for sid, _parent, _name, start, end in members:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.append((hi, 0, root_id))
    events.sort()

    def parent_of(sid: int) -> int:
        parent = by_id[sid][1]
        return parent if parent in by_id else root_id

    active_children: dict[int, int] = defaultdict(int)
    owner: dict[int, int] = {}
    active = {root_id}
    frontier = {root_id}
    share: dict[str, float] = defaultdict(float)
    now = lo
    for t, is_start, sid in events:
        if t > now and frontier:
            piece = (t - now) / len(frontier)
            for f in frontier:
                share[by_id[f][2]] += piece
        now = max(now, t)
        if sid == root_id:
            break
        if is_start:
            # A span whose parent is not active (outside the window)
            # hangs off the nearest active ancestor, else the root.
            parent = parent_of(sid)
            while parent not in active:
                parent = parent_of(parent)
            owner[sid] = parent
            active.add(sid)
            frontier.add(sid)
            active_children[parent] += 1
            frontier.discard(parent)
        else:
            parent = owner.pop(sid)
            active.discard(sid)
            frontier.discard(sid)
            active_children[parent] -= 1
            if active_children[parent] == 0 and parent in active:
                frontier.add(parent)
    return dict(share)
