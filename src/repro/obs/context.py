"""Per-query distributed trace contexts.

The serving stack runs one query through many actors — the submitting
session, the batching queue, an Ncore executor on some socket, the x86
post-processing pool — and each actor records its own spans.  Without a
correlation id those spans are just parallel timelines; an operator
debugging one slow query (the paper's Fig. 10 workflow, scaled to a
fleet) needs the *tree*: which batch carried the query, which socket ran
the batch, where the p99 tail came from.

:class:`TraceContext` is that correlation: a ``trace_id`` minted once per
query at submission, plus a ``span_id``/``parent_id`` pair forming the
causal tree.  Contexts are immutable; :meth:`child` derives the context
for a sub-stage.  The exporter renders same-trace spans as one linked
tree (Chrome/Perfetto flow arrows between consecutive stages).

Minting is deterministic: ids derive from the (owner, sequence) pair the
caller supplies, never from wall time or randomness, so two runs of the
same seeded schedule produce byte-identical trace files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TraceContext:
    """One node of a query's causal span tree.

    ``trace_id`` names the query (shared by every span in the tree);
    ``span_id`` names this node; ``parent_id`` points at the node that
    caused it (empty string at the root).
    """

    trace_id: str
    span_id: str = "root"
    parent_id: str = ""

    def child(self, span_id: str) -> "TraceContext":
        """The context of a sub-stage caused by this span."""
        return replace(self, span_id=span_id, parent_id=self.span_id)


def mint_trace(owner: str, sequence: int) -> TraceContext:
    """Deterministically mint a root context for one submitted query.

    The id is a pure function of ``(owner, sequence)`` — typically the
    submitting executor's model name and the query's submission index —
    so seeded runs reproduce identical trace files.
    """
    return TraceContext(trace_id=f"{owner}/q{sequence:06d}")
