"""In-memory span recorder for the traced pass of the performance ledger.

Spans are recorded from *outside* the program: the ledger wraps each call
into a public ``repro`` entry point in ``recorder.span(...)``.  A span is
(id, parent, op, name, start, end, attrs); spans of one timed op share the
``op`` identifier.  Nothing is written until :meth:`Recorder.dump`.

A disabled recorder hands out one shared no-op context manager, so the
untraced pass runs the same harness code without recording anything.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Any

_NULL = nullcontext()


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "Recorder", record: dict[str, Any]) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> dict[str, Any]:
        self.recorder._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info: object) -> None:
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()


class Recorder:
    """Collects spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str, **attrs: Any):
        """Context manager timing one call; yields the span record (a dict
        whose ``attrs`` the caller may extend) or None when disabled."""
        if not self.enabled:
            return _NULL
        record = self._new(name, attrs)
        return _Span(self, record)

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record an already-measured interval under the open span (used to
        synthesise compiler-stage children from ``CompileResult.stats``)."""
        if self.enabled:
            record = self._new(name, attrs)
            record["start"], record["end"] = start, end

    def _new(self, name: str, attrs: dict[str, Any]) -> dict[str, Any]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    # -- queries ---------------------------------------------------------

    def durations(self, name: str, **match: Any) -> list[float]:
        """Seconds of every span called ``name`` whose attrs include ``match``."""
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and all(span["attrs"].get(key) == value for key, value in match.items())
        ]

    def median_s(self, name: str, **match: Any) -> float | None:
        values = self.durations(name, **match)
        return median(values) if values else None

    def dump(self, path: Path, **header: Any) -> None:
        selfs = self_times(self.spans)
        payload = {
            **header,
            "spans": [
                {**span, "self": selfs[span["id"]]} for span in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, default=str))


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that interval
    its direct children cover (children are clipped to the parent and
    overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], [])):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result
