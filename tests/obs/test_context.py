"""Trace contexts: deterministic minting and causal span linkage."""

from repro import obs
from repro.obs.context import TraceContext, mint_trace
from repro.obs.export import chrome_trace


class TestTraceContext:
    def test_minting_is_deterministic(self):
        assert mint_trace("resnet", 3) == mint_trace("resnet", 3)
        assert mint_trace("resnet", 3) != mint_trace("resnet", 4)
        assert mint_trace("resnet", 3).trace_id == "resnet/q000003"

    def test_child_links_to_parent(self):
        root = mint_trace("m", 0)
        child = root.child("ncore")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        grandchild = child.child("step[0]")
        assert grandchild.parent_id == "ncore"


class TestTracerIntegration:
    def test_spans_carry_the_context(self):
        tracer = obs.Tracer()
        context = mint_trace("m", 0)
        tracer.add_span("query[0]", "t", start_us=0.0, duration_us=10.0,
                        context=context)
        tracer.add_span("query[0].ncore", "t", start_us=2.0, duration_us=6.0,
                        context=context.child("ncore"))
        spans = [s for s in tracer.spans if s.trace_id == "m/q000000"]
        assert [s.span_id for s in spans] == ["root", "ncore"]
        assert spans[1].parent_id == "root"
        assert tracer.trace_ids() == ["m/q000000"]

    def test_context_free_spans_stay_unlinked(self):
        tracer = obs.Tracer()
        tracer.add_span("loose", "t", start_us=0.0, duration_us=1.0)
        assert tracer.spans[0].trace_id == ""
        assert tracer.trace_ids() == []


class TestExportedFlows:
    def test_flow_events_link_parent_to_child(self):
        tracer = obs.Tracer()
        context = mint_trace("m", 0)
        tracer.add_span("query[0]", "t", start_us=0.0, duration_us=10.0,
                        context=context)
        tracer.add_span("query[0].ncore", "t", start_us=2.0, duration_us=6.0,
                        context=context.child("ncore"))
        events = chrome_trace(tracer)["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["name"] == "m/q000000"
        # Binding-point "enclosing slice" so the arrow lands on the span.
        assert finishes[0]["bp"] == "e"

    def test_span_args_expose_the_tree(self):
        tracer = obs.Tracer()
        context = mint_trace("m", 1)
        tracer.add_span("query[1]", "t", start_us=0.0, duration_us=5.0,
                        context=context)
        events = chrome_trace(tracer)["traceEvents"]
        span = next(e for e in events if e.get("ph") == "X")
        assert span["args"]["trace_id"] == "m/q000001"
        assert span["args"]["span_id"] == "root"
