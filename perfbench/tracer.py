"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code, around calls into each
layer's public functions; nothing inside ``src/`` is instrumented and
``repro.obs`` stays disabled.  A span is one tuple
``(span_id, parent_id, name, start, end, request_id)``.

The current span lives in a :class:`contextvars.ContextVar`, so each
asyncio task (one per simulated client) and each thread (the serving
daemon's compute thread) sees only its own parent chain: concurrent
requests never nest inside each other.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import pathlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator, Optional


class Tracer:
    """Collect spans in memory; compute per-layer self time at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, request_id: Any = None) -> Iterator[int]:
        """Record ``name`` around the ``with`` body (may span awaits)."""
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, parent, name, start, end, request_id))

    def wrap(
        self,
        fn: Callable,
        name: str,
        request_id: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` recorded as a ``name`` span on every call.

        ``request_id`` maps the call's arguments to the id stored on the
        span (e.g. the request ids of a serving batch).
        """
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = None if request_id is None else request_id(*args, **kwargs)
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                current.reset(token)
                spans.append((span_id, parent, name, start, end, rid))

        return traced

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover.

        Children of one span never overlap (each runs on its parent's
        task or thread), so subtracting their durations is exact.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, rid in self.spans:
                out.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "request": list(rid) if isinstance(rid, tuple) else rid,
                }, separators=(",", ":")))
                out.write("\n")


@contextlib.contextmanager
def patched(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``target.attribute`` to ``replacement`` for the ``with`` body."""
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)


def trace_file(root: pathlib.Path, workload: str, seed: int) -> pathlib.Path:
    """Where a traced run writes its spans (ignored by git)."""
    return root / ".perfbench" / f"trace-{workload}-seed{seed}.jsonl"
