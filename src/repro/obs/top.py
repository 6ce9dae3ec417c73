"""A ``top``-style view of a serving run.

The serving scenario samples one telemetry *frame* per interval of
simulated time (see ``ServerScenario._sample_frame``), plus a final one
at the last completion: completed/offered queries, p50/p90/p99 so far,
completions per elapsed second, queue depth, batch occupancy, the SLO
state and per-socket utilization.  ``repro serve
--telemetry frames.jsonl`` writes them and ``repro top frames.jsonl``
renders them as a terminal dashboard, so a run harvested on one machine
can be inspected on another.  The frames are in simulated time, so the
whole run is available at once: playback is a scrub through the run, not
a wall-clock wait.

With ANSI enabled each frame redraws in place (cursor-up escapes); with
``--no-ansi`` frames append, which keeps the output pipeable and makes
the CI smoke test trivial.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Mapping

#: Width of the per-socket utilization bars.
BAR_WIDTH = 10


def utilization_bar(fraction: float) -> str:
    """A ``####....`` bar for one utilization fraction in [0, 1]."""
    filled = round(min(1.0, max(0.0, fraction)) * BAR_WIDTH)
    return "#" * filled + "." * (BAR_WIDTH - filled)


def format_frame(frame: Mapping[str, Any]) -> list[str]:
    """One frame as dashboard lines (no trailing newlines)."""
    model = frame.get("model", "?")
    completed = int(frame.get("completed", 0))
    queries = int(frame.get("queries", 0))
    lines = [
        f"repro top - {model}   t={float(frame.get('ts', 0.0)):.3f}s",
        f"queries   {completed}/{queries} completed   "
        f"qps {float(frame.get('qps', 0.0)):8.1f}",
        "latency   "
        f"p50 {float(frame.get('p50_ms', 0.0)):7.3f} ms   "
        f"p90 {float(frame.get('p90_ms', 0.0)):7.3f} ms   "
        f"p99 {float(frame.get('p99_ms', 0.0)):7.3f} ms",
    ]
    lines.append(
        f"queue     depth {int(frame.get('queue_depth', 0)):4d}   "
        f"batch occupancy {float(frame.get('batch_occupancy', 0.0)):.2f}"
    )
    if "slo_attainment" in frame:
        lines.append(
            f"slo       attainment {float(frame['slo_attainment']) * 100:6.2f}%   "
            f"burn {float(frame.get('slo_burn_rate', 0.0)):5.2f}x"
        )
    utilization = frame.get("socket_util") or []
    if utilization:
        cells = "  ".join(
            f"[{index}] {utilization_bar(float(value))} {float(value) * 100:3.0f}%"
            for index, value in enumerate(utilization)
        )
        lines.append(f"sockets   {cells}")
    return lines


def render_frames(
    frames: Iterable[Mapping[str, Any]],
    stream: IO[str],
    ansi: bool = True,
) -> int:
    """Play frames to ``stream``; returns the number rendered.

    ANSI mode repaints in place (each frame after the first is preceded
    by enough cursor-up-and-clear escapes to overwrite the previous one);
    otherwise frames are appended, separated by a blank line.
    """
    rendered = 0
    previous_height = 0
    for frame in frames:
        lines = format_frame(frame)
        if ansi and previous_height:
            stream.write(f"\x1b[{previous_height}A")
            for line in lines:
                stream.write("\x1b[2K" + line + "\n")
        else:
            if rendered and not ansi:
                stream.write("\n")
            for line in lines:
                stream.write(line + "\n")
        previous_height = len(lines)
        rendered += 1
    return rendered


# ----------------------------------------------------------------------
# Frame files (the ``repro serve --telemetry`` -> ``repro top``
# interchange format: one JSON frame per line)
# ----------------------------------------------------------------------


def write_frames(path: str, frames: Iterable[Mapping[str, Any]]) -> int:
    """Write frames as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for frame in frames:
            handle.write(json.dumps(dict(frame), sort_keys=True) + "\n")
            count += 1
    return count


def read_frames(path: str) -> list[dict[str, Any]]:
    """Read a JSONL frame file (blank lines ignored)."""
    frames: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                frames.append(json.loads(line))
    return frames
