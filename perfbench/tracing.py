"""In-memory spans around the calls into each blockhawkes module.

The benchmark never edits the package.  For a traced pass it replaces a
public function *at the place its caller looks it up* (for example
``blockhawkes.cli.extract_jumps``, or ``blockhawkes.fit.fit_given_decays``
for the inner solves made by ``fit_full``) with a wrapper that records one
span and passes arguments and result through unchanged.  Leaving the
``with`` block restores every original.

A span is ``(name, start, end, parent, run_id)``; ``parent`` is the index
of the enclosing span or ``None``.  Self time is a span's duration minus
the durations of its direct children (calls are single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Collects spans and named counters; owned by one benchmark pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) summed per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for s, children in zip(self.spans, child_time):
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
            own[s.name] = own.get(s.name, 0.0) + (s.end - s.start - children)
        return inclusive, own

    def write_jsonl(self, fh) -> None:
        """One JSON object per span; ``id`` and ``parent`` index this run's spans."""
        for index, s in enumerate(self.spans):
            fh.write(json.dumps({
                "id": index, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "run_id": s.run_id,
            }) + "\n")


def _wrap(tracer: Tracer, name: str, func, on_result):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def patched(tracer: Tracer, points):
    """Wrap every ``(module, attribute, span name, on_result)`` in ``points``."""
    saved = []
    try:
        for module, attr, name, on_result in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, on_result))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
