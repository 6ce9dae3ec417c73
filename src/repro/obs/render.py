"""Fig. 10-style text rendering of span timelines.

The paper's Fig. 10 shows "an example runtime trace generated during an
Ncore run using Ncore's debugging features": named regions as bars over
a cycle axis.  :func:`render_bars` is the generic renderer — one bar per
row against a shared axis — and :func:`render_tracer` draws every track of
a tracer with it, one section per track (the profiler's event-log spans on
``ncore`` included).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.tracer import SIM, Tracer

#: Cells on a bar's axis.
BAR_WIDTH = 48


def render_bars(
    title: str,
    rows: Iterable[Sequence],
    total: float,
    unit: str = "",
) -> str:
    """Render (name, start, length) rows as aligned bars.

    ``total`` fixes the axis span; rows are clipped to it.  Bars get at
    least one cell so short spans stay visible, as in Fig. 10.
    """
    lines = [title]
    axis_total = max(total, 1e-12)
    suffix = f" {unit}" if unit else ""
    for name, start, length in rows:
        offset = int(min(1.0, max(0.0, start / axis_total)) * BAR_WIDTH)
        cells = max(1, int(min(1.0, length / axis_total) * BAR_WIDTH))
        cells = min(cells, BAR_WIDTH - min(offset, BAR_WIDTH - 1))
        bar = " " * offset + "#" * cells
        start_label = _fmt_quantity(start)
        length_label = _fmt_quantity(length)
        lines.append(
            f"  {str(name)[:24]:<24} {start_label:>9} +{length_label:<9}{suffix} |{bar}"
        )
    return "\n".join(lines)


def render_tracer(tracer: Tracer, tracks: list[str] | None = None) -> str:
    """Render every track of a tracer, one Fig. 10-style section each.

    Wall-clock tracks render in microseconds; simulated tracks render in
    model cycles (recovered through the tracer's clock).
    """
    sections: list[str] = []
    for track in tracks if tracks is not None else tracer.tracks():
        spans = sorted(tracer.spans_on(track), key=lambda s: s.start_us)
        if not spans:
            continue
        domain = spans[0].domain
        start = min(s.start_us for s in spans)
        end = max(s.end_us for s in spans)
        if domain == SIM:
            cycles_per_us = tracer.clock_hz / 1e6
            rows = [
                (s.name, (s.start_us - start) * cycles_per_us,
                 s.duration_us * cycles_per_us)
                for s in spans
            ]
            total = (end - start) * cycles_per_us
            title = f"[{track}] {_fmt_quantity(total)} cycles"
            unit = "cyc"
        else:
            rows = [(s.name, s.start_us - start, s.duration_us) for s in spans]
            total = end - start
            title = f"[{track}] {_fmt_quantity(total)} us"
            unit = "us"
        sections.append(render_bars(title, rows, total, unit=unit))
    return "\n".join(sections) if sections else "(empty trace)"


def render_counters(metrics) -> str:
    """Render the registry's debug-fabric counters as aligned rows.

    The Fig. 10 companion table: alongside the span timeline, the
    counters that explain it — the segment replay cache
    (``ncore.replay.hits/misses``) and the trace-fusion fastpath
    (``ncore.fastpath.*``) tallies.  Returns "" when nothing matches, so
    callers can print unconditionally.
    """
    rows: list[tuple[str, float, str]] = []
    for name in metrics.names():
        if not name.startswith(("ncore.replay.", "ncore.fastpath.")):
            continue
        snap = metrics.get(name).snapshot()
        value = snap.get("value", snap.get("count", 0))
        rows.append((name, float(value), str(snap.get("unit", ""))))
    if not rows:
        return ""
    lines = ["[counters]"]
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        suffix = f" {unit}" if unit else ""
        lines.append(f"  {name:<{width}} {_fmt_quantity(value):>12}{suffix}")
    return "\n".join(lines)


def _fmt_quantity(value: float) -> str:
    if float(value) == int(value):
        return f"{int(value):d}"
    return f"{value:.2f}"
