"""Exporters: Chrome trace-event / Perfetto JSON and flat metrics dumps.

The trace format is the Chrome ``traceEvents`` JSON that Perfetto and
``chrome://tracing`` both open directly: complete ("X") events carry the
spans, instant ("i") events the markers, counter ("C") events the sampled
metrics, and metadata ("M") events name the processes and threads.

Wall-clock and simulated-time spans live in different processes so the
two timelines (host microseconds vs model cycles) never interleave:

- pid 1, "host (wall clock)" — Python-layer instrumentation;
- pid 2, "model (simulated time)" — simulator event streams, with model
  cycles converted to microseconds through the tracer's clock.
"""

from __future__ import annotations

import io
import json
from typing import Any

from repro.obs.tracer import SIM, Tracer

WALL_PID = 1
SIM_PID = 2
_PROCESS_NAMES = {WALL_PID: "host (wall clock)", SIM_PID: "model (simulated time)"}


def _pid(domain: str) -> int:
    return SIM_PID if domain == SIM else WALL_PID


def chrome_trace(tracer: Tracer, metrics=None) -> dict[str, Any]:
    """Build the Chrome trace-event JSON document for one tracer."""
    events: list[dict[str, Any]] = []
    # Stable tids per (pid, track), in order of first appearance.
    tids: dict[tuple[int, str], int] = {}

    def tid_for(domain: str, track: str) -> int:
        key = (_pid(domain), track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == key[0]]) + 1
        return tids[key]

    for span in tracer.spans:
        args = span.args
        if span.trace_id:
            args = dict(args)
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.parent_id:
                args["parent_span_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category or span.track,
            "ph": "X",
            "ts": round(span.start_us, 3),
            "dur": round(span.duration_us, 3),
            "pid": _pid(span.domain),
            "tid": tid_for(span.domain, span.track),
            "args": args,
        })
    events.extend(_flow_events(tracer, tid_for))
    for instant in tracer.instants:
        events.append({
            "name": instant.name,
            "cat": instant.track,
            "ph": "i",
            "s": "t",
            "ts": round(instant.ts_us, 3),
            "pid": _pid(instant.domain),
            "tid": tid_for(instant.domain, instant.track),
            "args": instant.args,
        })
    for sample in tracer.counter_samples:
        events.append({
            "name": sample.name,
            "ph": "C",
            "ts": round(sample.ts_us, 3),
            "pid": _pid(sample.domain),
            "tid": 0,
            "args": {"value": sample.value},
        })
    # A final counter event per metric so the metrics dump rides along in
    # the same file (visible in Perfetto's counter tracks).
    if metrics is not None and getattr(metrics, "enabled", False):
        end_ts = max((s.end_us for s in tracer.spans if s.domain == SIM), default=0.0)
        for name, snap in metrics.snapshot().items():
            if "value" in snap:
                events.append({
                    "name": name, "ph": "C", "ts": round(end_ts, 3),
                    "pid": SIM_PID, "tid": 0,
                    "args": {"value": snap["value"]},
                })
    metadata: list[dict[str, Any]] = []
    for pid in sorted({event["pid"] for event in events}):
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": _PROCESS_NAMES.get(pid, f"process {pid}")},
        })
    for (pid, track), tid in sorted(tids.items(), key=lambda item: item[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock_hz": tracer.clock_hz},
    }


def _flow_events(tracer: Tracer, tid_for) -> list[dict[str, Any]]:
    """Causal arrows linking each query's span tree (distributed tracing).

    Spans sharing a ``trace_id`` form one query's tree; a flow "s"/"f"
    pair per causal edge makes Perfetto draw the submit -> queue -> batch
    -> ncore -> post chain as connected arrows across tracks (and across
    sockets).  Edges follow ``parent_id`` when it resolves, falling back
    to start-order chaining so a flat trace still renders as one thread
    of causality.
    """
    flows: list[dict[str, Any]] = []
    by_trace: dict[str, list] = {}
    for span in tracer.spans:
        if span.trace_id:
            by_trace.setdefault(span.trace_id, []).append(span)
    flow_id = 0
    for trace_id in by_trace:
        spans = sorted(by_trace[trace_id], key=lambda s: (s.start_us, s.end_us))
        by_span_id = {s.span_id: s for s in spans if s.span_id}
        for index, span in enumerate(spans):
            parent = by_span_id.get(span.parent_id) if span.parent_id else None
            if parent is None or parent is span:
                if index == 0:
                    continue
                parent = spans[index - 1]
            flow_id += 1
            common = {"name": trace_id, "cat": "flow", "id": flow_id}
            flows.append({
                **common, "ph": "s",
                "ts": round(min(parent.end_us, max(parent.start_us, span.start_us)), 3),
                "pid": _pid(parent.domain), "tid": tid_for(parent.domain, parent.track),
            })
            flows.append({
                **common, "ph": "f", "bp": "e",
                "ts": round(span.start_us, 3),
                "pid": _pid(span.domain), "tid": tid_for(span.domain, span.track),
            })
    return flows


def write_chrome_trace(path, tracer: Tracer, metrics=None) -> None:
    """Write a ``.trace.json`` openable at https://ui.perfetto.dev."""
    document = chrome_trace(tracer, metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, default=_jsonable)


def _jsonable(value: Any):
    """Fallback serializer for numpy scalars and other oddballs."""
    for attr in ("item",):  # numpy scalars
        if hasattr(value, attr):
            return value.item()
    return str(value)


# ----------------------------------------------------------------------
# Flat metrics dumps
# ----------------------------------------------------------------------


def metrics_csv(registry) -> str:
    """A flat CSV: one row per metric, histogram stats flattened."""
    out = io.StringIO()
    out.write("name,kind,unit,value,count,mean,min,max,p50,p90,p99,wrapped\n")
    for name, snap in registry.snapshot().items():
        row = [
            name, snap.get("kind", ""), snap.get("unit", ""),
            _fmt(snap.get("value")), _fmt(snap.get("count")),
            _fmt(snap.get("mean")), _fmt(snap.get("min")), _fmt(snap.get("max")),
            _fmt(snap.get("p50")), _fmt(snap.get("p90")), _fmt(snap.get("p99")),
            _fmt(snap.get("wrapped")),
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)
