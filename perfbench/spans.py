"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping the public functions of each polykin layer
at the attribute their callers look up (module globals, class methods), so
nothing inside ``src/`` changes.  A span keeps its name, start, end, the
span that caused it, the operation it belongs to and a row count.  Spans
opened on worker threads (the Monte Carlo thread pool) take the innermost
open span of the main thread as their parent.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager

# Span tuple fields, in order.
FIELDS = ("id", "parent", "op", "name", "start", "end", "rows")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._op = 0
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rows=None):
        """Return ``fn`` recording one span per call.

        ``rows(args, kwargs, result)`` gives the span's row count; without
        it every call counts one row.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is tracer._main_stack:
                parent = None
                tracer._op = next(tracer._ops)
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            op = tracer._op
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            n = rows(args, kwargs, result) if rows is not None else 1
            tracer.spans.append((sid, parent, op, name, t0 - tracer._t0,
                                 t1 - tracer._t0, n))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span_name, rows)``
        targets for the duration of the block, restoring the originals."""
        saved = []
        try:
            for owner, attr, name, rows in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, rows))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl_gz(self, path) -> None:
        """One JSON object per span and line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span)), separators=(",", ":")))
                fh.write("\n")


class SpanTable:
    """Aggregates over one operation's spans, keyed by span name."""

    def __init__(self, spans) -> None:
        self._by_name: dict[str, list] = {}
        self._child_time: dict[int, float] = {}
        for span in spans:
            self._by_name.setdefault(span[3], []).append(span)
            sid, parent, _op, _name, t0, t1, _n = span
            if parent is not None:
                self._child_time[parent] = self._child_time.get(parent, 0.0) + (t1 - t0)

    def _select(self, prefix: str) -> list:
        """Spans named ``prefix`` or nested under it (``prefix.*``)."""
        return [s for name, group in self._by_name.items()
                if name == prefix or name.startswith(prefix + ".") for s in group]

    def calls(self, name: str) -> int:
        return len(self._select(name))

    def rows(self, name: str) -> int:
        return sum(self.row_counts(name))

    def row_counts(self, name: str) -> list[int]:
        return [s[6] for s in self._select(name)]

    def seconds(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self._select(name))

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self._select(name)]

    def self_seconds(self, name: str) -> float:
        """Duration minus the time of direct child spans (same thread)."""
        return sum((s[5] - s[4]) - self._child_time.get(s[0], 0.0)
                   for s in self._select(name))

    def child_seconds(self, name: str) -> float:
        """Summed duration of direct children, across threads."""
        return sum(self._child_time.get(s[0], 0.0) for s in self._select(name))
