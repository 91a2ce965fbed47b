"""Spans around the benchmark's own calls into petersburg.

A span has a name, start and end (monotonic seconds), the id of the span
that was open when it started, and the id of the workload round it belongs
to.  Spans stay in memory and are written out once, when the round ends.
With tracing off every span is a no-op, so untraced rounds time the same
code path without the bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

_OFF = contextlib.nullcontext()


class Recorder:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []

    def span(self, name: str, **attrs):
        """Context manager recording one span; attrs carry work counts."""
        return self._span(name, attrs) if self.enabled else _OFF

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time covered by its direct children.

    Spans come from one thread and nest strictly, so children never overlap
    each other and the subtraction is exact."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def by_name(spans: list) -> dict:
    """Name -> list of span records, in start order."""
    groups = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s)
    return groups


def durations(group: list) -> list:
    return [s["end"] - s["start"] for s in group]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
