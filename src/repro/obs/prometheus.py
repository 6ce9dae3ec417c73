"""Prometheus / OpenMetrics text exposition for a metrics registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` snapshot in the
`text exposition format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
scrapeable by Prometheus (and readable by anything that speaks
OpenMetrics).  Mapping:

- counters      -> ``<name>_total``
- gauges        -> ``<name>``
- histograms     -> summary-style ``{quantile="..."}`` series plus
  ``_count`` and ``_sum`` (exact, since the registry keeps sorted
  observations rather than fixed buckets)
- hardware counters -> a gauge plus a ``<name>_wrapped`` gauge carrying
  the section IV-F wraparound flag

Metric names are sanitised to the Prometheus grammar (dots become
underscores); label sets pass through verbatim.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))


def sanitize_name(name: str) -> str:
    """A legal Prometheus metric name for a dotted repro metric name."""
    name = _INVALID.sub("_", name)
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _labels_suffix(labels: Mapping[str, Any] | None,
                   extra: Mapping[str, Any] | None = None) -> str:
    merged: dict[str, Any] = dict(labels or {})
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{sanitize_name(str(key))}="{_escape(merged[key])}"'
        for key in sorted(merged)
    )
    return "{" + inner + "}"


def _escape(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: Any) -> str:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(registry: Any) -> str:
    """The full exposition document for one registry snapshot."""
    lines: list[str] = []
    emitted_headers: set[str] = set()
    for _key, snap in sorted(registry.snapshot().items()):
        kind = str(snap.get("kind", "gauge"))
        metric = registry.get(_key)
        base = sanitize_name(str(getattr(metric, "name", _key)))
        labels = snap.get("labels")
        if kind == "counter":
            name = base + "_total"
            _header(lines, emitted_headers, name, "counter", snap)
            lines.append(f"{name}{_labels_suffix(labels)} {_fmt(snap.get('value'))}")
        elif kind == "histogram":
            _header(lines, emitted_headers, base, "summary", snap)
            for quantile, pkey in _QUANTILES:
                suffix = _labels_suffix(labels, {"quantile": quantile})
                lines.append(f"{base}{suffix} {_fmt(snap.get(pkey))}")
            lines.append(f"{base}_count{_labels_suffix(labels)} {_fmt(snap.get('count'))}")
            lines.append(f"{base}_sum{_labels_suffix(labels)} {_fmt(snap.get('sum'))}")
        elif kind == "hardware":
            _header(lines, emitted_headers, base, "gauge", snap)
            lines.append(f"{base}{_labels_suffix(labels)} {_fmt(snap.get('value'))}")
            wrapped = base + "_wrapped"
            _header(lines, emitted_headers, wrapped, "gauge",
                    {"description": "wraparound flag (section IV-F)"})
            lines.append(
                f"{wrapped}{_labels_suffix(labels)} "
                f"{1 if snap.get('wrapped') else 0}"
            )
        else:  # gauge and anything snapshot-compatible
            _header(lines, emitted_headers, base, "gauge", snap)
            lines.append(f"{base}{_labels_suffix(labels)} {_fmt(snap.get('value'))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _header(lines: list[str], emitted: set[str], name: str,
            prom_type: str, snap: Mapping[str, Any]) -> None:
    if name in emitted:
        return
    emitted.add(name)
    description = str(snap.get("description") or "").strip()
    if description:
        lines.append(f"# HELP {name} {_escape(description)}")
    lines.append(f"# TYPE {name} {prom_type}")


def write_prometheus(path: str, registry: Any) -> None:
    """Write the exposition document (a node_exporter-style textfile)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))
