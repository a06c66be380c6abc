"""In-memory span tracer that times calls into a program from outside it.

The benchmark wraps the public entry points of each layer (see
``layers.py``) with :meth:`Tracer.wrap`.  Every call records one span:
layer, function name, thread, statement id, start, end, the index of the
enclosing span on the same thread, and an optional work count (blocks,
records, tasks).  Spans nest per thread through a thread-local stack, so
concurrent sessions never become each other's children.

A layer's *self time* is its spans' durations minus the part of each
interval covered by direct child spans.  Children of one span run on the
parent's thread and cannot overlap each other, so "covered" is simply the
sum of the children's durations.

Spans stay in per-thread lists until :meth:`Tracer.summarize` /
:meth:`Tracer.dump` run after the measured phase.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable

# Span record layout (a list, mutated once when the call returns).
# ``COUNTER`` names the work count ``COUNT`` (e.g. "blocks"), or is None.
LAYER, NAME, STMT, START, END, PARENT, COUNTER, COUNT = range(8)

#: Layer tag of the benchmark's own per-statement root span.
STATEMENT = "stmt"


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack", "statement")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.statement = ""


class Tracer:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _enter(
        self, layer: str, name: str, counter: str | None, count: int
    ) -> tuple[_ThreadSpans, list]:
        state = self._state()
        record = [
            layer,
            name,
            state.statement,
            self._clock(),
            None,
            state.stack[-1] if state.stack else -1,
            counter,
            count,
        ]
        state.stack.append(len(state.spans))
        state.spans.append(record)
        return state, record

    def _leave(self, state: _ThreadSpans, record: list) -> None:
        record[END] = self._clock()
        state.stack.pop()

    @contextmanager
    def span(self, layer: str, name: str, counter: str | None = None, count: int = 0):
        """Record one span around a ``with`` block."""
        state, record = self._enter(layer, name, counter, count)
        try:
            yield
        finally:
            self._leave(state, record)

    @contextmanager
    def statement(self, statement_id: str, name: str = ""):
        """Root span of one benchmark statement; nested spans carry its id."""
        state = self._state()
        outer = state.statement
        state.statement = statement_id
        try:
            with self.span(STATEMENT, name or statement_id):
                yield
        finally:
            state.statement = outer

    def wrap(
        self,
        layer: str,
        fn: Callable,
        counter: str | None = None,
        count: Callable[[tuple, dict], int] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        With ``counter``, each call adds ``count(args, kwargs)`` (default 1)
        to that named work count (blocks, records, tasks); ``count`` runs
        before the call.
        """
        name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = count(args, kwargs) if count is not None else 1
            state, record = enter(layer, name, counter, n)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, record)

        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def threads(self) -> list[tuple[str, list[list]]]:
        with self._lock:
            return [(state.thread, state.spans) for state in self._threads]

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``calls`` (entries into the layer from
        another layer), ``spans``, and each named work count summed."""
        return summarize(spans for _, spans in self.threads())

    def dump(self, path: str) -> int:
        """Write every span as one JSON array per line, gzip-compressed;
        returns the number written."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for thread, spans in self.threads():
                for index, record in enumerate(spans):
                    out.write(
                        json.dumps(
                            [thread, index, *record], separators=(",", ":")
                        )
                    )
                    out.write("\n")
                    written += 1
        return written


def summarize(per_thread: Iterable[list[list]]) -> dict[str, dict[str, float]]:
    """Self-time arithmetic over span lists, one list per thread.

    Every record's ``PARENT`` indexes into its own thread's list.  A span
    still open (``END`` of ``None``) is an error: the caller summarized too early.
    """
    totals: dict[str, dict[str, float]] = {}
    for spans in per_thread:
        covered = [0.0] * len(spans)
        for record in spans:
            if record[END] is None:
                raise ValueError(f"span {record[NAME]} is still open")
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        for index, record in enumerate(spans):
            layer = record[LAYER]
            entry = totals.setdefault(
                layer, {"self_s": 0.0, "calls": 0, "spans": 0}
            )
            entry["self_s"] += record[END] - record[START] - covered[index]
            entry["spans"] += 1
            if record[COUNTER] is not None:
                entry[record[COUNTER]] = entry.get(record[COUNTER], 0) + record[COUNT]
            parent = record[PARENT]
            if parent < 0 or spans[parent][LAYER] != layer:
                entry["calls"] += 1
    return totals
