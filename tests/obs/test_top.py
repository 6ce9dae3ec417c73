"""The ``repro top`` frame renderer and the JSONL frame interchange."""

import io

from repro.obs.top import (
    format_frame,
    read_frames,
    render_frames,
    utilization_bar,
    write_frames,
)

FRAME = {
    "ts": 0.25,
    "model": "resnet50_v15",
    "completed": 100,
    "queries": 512,
    "qps": 1234.5,
    "p50_ms": 1.5,
    "p90_ms": 2.5,
    "p99_ms": 4.0,
    "queue_depth": 3,
    "batch_occupancy": 6.4,
    "socket_util": [0.8, 0.3],
    "slo_attainment": 0.995,
    "slo_burn_rate": 0.5,
}


class TestFormatFrame:
    def test_renders_all_sections(self):
        text = "\n".join(format_frame(FRAME, max_batch=8))
        assert "resnet50_v15" in text
        assert "100/512" in text
        assert "1234.5" in text
        assert "p99   4.000 ms" in text
        assert "6.40/8" in text
        assert "attainment  99.50%" in text
        assert "[0]" in text and "[1]" in text

    def test_optional_sections_are_omitted(self):
        frame = {k: v for k, v in FRAME.items()
                 if k not in ("slo_attainment", "slo_burn_rate", "socket_util")}
        text = "\n".join(format_frame(frame))
        assert "slo" not in text
        assert "sockets" not in text

    def test_utilization_bar(self):
        assert utilization_bar(0.0) == "." * 10
        assert utilization_bar(1.0) == "#" * 10
        assert utilization_bar(2.0) == "#" * 10  # clamped
        assert utilization_bar(0.5).count("#") == 5


class TestRenderFrames:
    def test_no_ansi_appends_frames(self):
        stream = io.StringIO()
        count = render_frames([FRAME, FRAME], stream, ansi=False)
        assert count == 2
        output = stream.getvalue()
        assert "\x1b" not in output
        assert output.count("repro top") == 2

    def test_ansi_redraws_in_place(self):
        stream = io.StringIO()
        render_frames([FRAME, FRAME], stream, ansi=True)
        output = stream.getvalue()
        # Second frame climbs back over the first with cursor-up escapes.
        assert "\x1b[" in output


class TestFrameFiles:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        assert write_frames(str(path), [FRAME, FRAME]) == 2
        frames = read_frames(str(path))
        assert len(frames) == 2
        assert frames[0]["qps"] == FRAME["qps"]
        assert frames[1]["socket_util"] == [0.8, 0.3]
