"""Span recorder for the benchmark's own calls into the library.

A span is one timed call: name, start, end, the span that contains it, the job
it belongs to and the pass it ran in.  Spans stay in memory and are written
out by the benchmark when the run ends.  ``NullRecorder`` has the same
interface and records nothing, for the untraced runs.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.prefix = ""
        self.job: str | None = None
        self.pass_index: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span record so the caller can
        attach work counts (e.g. ``rec["bytes"] = ...``)."""
        rec = {
            "id": len(self.spans),
            "name": self.prefix + name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "pass": self.pass_index,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class NullRecorder:
    enabled = False
    prefix = ""
    job = None
    pass_index = None
    _span = _NullSpan()

    def span(self, name: str):
        return self._span


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += duration(rec)
    return {rec["id"]: duration(rec) - covered[rec["id"]] for rec in spans}
