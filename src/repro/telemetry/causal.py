"""Cross-party causal tracing: the migration DAG.

The span layer records *per-party* time; this module stitches the
parties together.  Every :meth:`repro.net.network.Network.transfer`
stamps its wire record at send time with the run's ``trace_id`` and the
sending span (``parent_span_id``), and at delivery with the span that
observed it (``recv_span_id``).  Spans (with their parent links) plus
the resulting send→recv edges form one causal DAG spanning source,
target, orchestrator, and the migration agent.

Fault injection stays *visible* in the graph instead of leaving silent
gaps:

* a **dropped** transfer is a wire node whose recv edge has no
  destination (a *broken* edge — the bytes entered the wire and nobody
  observed them arrive);
* a **duplicated** transfer is a second wire node linked to the
  original by a *duplicate* edge (same context, same label, two
  deliveries);
* a **reordered** chunk stream flags the two swapped wire records
  (:func:`reordered_seqs`), so the out-of-order sends are named rather
  than inferred.

:func:`build_dag` is a pure function of the telemetry + network state;
it never advances the clock or writes to either, so building the DAG
mid-run is safe and every export reads the same flags with or without
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network, TransferRecord
    from repro.sim.trace import Event
    from repro.telemetry import Telemetry
    from repro.telemetry.spans import Span


@dataclass(frozen=True)
class CausalEdge:
    """One directed edge of the migration DAG.

    Node ids are ``"span:<span_id>"`` / ``"wire:<seq>"``.  A recv edge
    with ``dst=None`` is *broken*: the transfer was lost on the wire.
    """

    kind: str  #: "parent" | "send" | "recv" | "duplicate"
    src: str | None
    dst: str | None
    label: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "src": self.src, "dst": self.dst, "label": self.label}


@dataclass
class CausalDag:
    """Spans + wire transfers + the edges connecting them."""

    spans: list["Span"] = field(default_factory=list)
    transfers: list["TransferRecord"] = field(default_factory=list)
    edges: list[CausalEdge] = field(default_factory=list)
    #: Wire seqs a stream reorder swapped (see :func:`reordered_seqs`).
    reordered: frozenset[int] = frozenset()

    # ------------------------------------------------------------- queries
    def span_by_id(self, span_id: int) -> "Span | None":
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def transfer_by_seq(self, seq: int) -> "TransferRecord | None":
        for record in self.transfers:
            if record.seq == seq:
                return record
        return None

    def broken_edges(self) -> list[CausalEdge]:
        """Recv edges whose transfer was dropped: sent, never observed."""
        return [e for e in self.edges if e.kind == "recv" and e.dst is None]

    def duplicate_edges(self) -> list[CausalEdge]:
        """Edges linking a duplicated delivery back to its original."""
        return [e for e in self.edges if e.kind == "duplicate"]

    def reordered_transfers(self) -> list["TransferRecord"]:
        """Wire records that crossed out of their stream order."""
        return [t for t in self.transfers if t.seq in self.reordered]

    def trace_ids(self) -> list[str]:
        """Every distinct trace id seen on the wire, in first-seen order."""
        seen: list[str] = []
        for record in self.transfers:
            tid = record.trace_id
            if tid is not None and tid not in seen:
                seen.append(tid)
        return seen

    def health(self) -> dict[str, Any]:
        """The DAG's fault summary, ready for reports and CI gates."""
        return {
            "spans": len(self.spans),
            "transfers": len(self.transfers),
            "edges": len(self.edges),
            "broken_edges": [
                {"label": e.label, "src": e.src} for e in self.broken_edges()
            ],
            "duplicate_edges": [
                {"label": e.label, "src": e.src, "dst": e.dst}
                for e in self.duplicate_edges()
            ],
            "reordered_transfers": [
                {"label": t.label, "seq": t.seq} for t in self.reordered_transfers()
            ],
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "nodes": (
                [f"span:{s.span_id}" for s in self.spans]
                + [f"wire:{t.seq}" for t in self.transfers]
            ),
            "edges": [e.as_dict() for e in self.edges],
            "health": self.health(),
        }

    def to_dot(self) -> str:
        """The DAG as Graphviz source (``repro explain --format dot``).

        Spans cluster by party, wire records render as boxes between the
        clusters, and fault edges stay visually distinct: a broken recv
        edge ends in a red point node (the bytes left, nobody received
        them), duplicates are dotted.  Output is deterministic — node
        order follows span ids and wire sequence numbers.
        """

        def q(text: str) -> str:
            return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'

        def label_q(*rows: str) -> str:
            # Multi-row label: rows joined by the graphviz \n escape
            # (which q() would defensively double — hence its own helper).
            joined = "\\n".join(str(r).replace('"', '\\"') for r in rows)
            return '"' + joined + '"'

        lines = [
            "digraph migration {",
            "  rankdir=LR;",
            '  node [fontname="monospace", fontsize=10];',
        ]
        parties: dict[str, list["Span"]] = {}
        for span in self.spans:
            parties.setdefault(span.party, []).append(span)
        for index, party in enumerate(sorted(parties)):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f"    label={q(party)};")
            for span in parties[party]:
                duration = (
                    f"{span.duration_ns / 1_000:.0f}us" if span.finished else "open"
                )
                shape = "ellipse" if span.status == "ok" else "doubleoctagon"
                node = q(f"span:{span.span_id}")
                label = label_q(span.name, duration)
                lines.append(f"    {node} [label={label}, shape={shape}];")
            lines.append("  }")
        for record in self.transfers:
            node = q(f"wire:{record.seq}")
            label = label_q(f"{record.label} #{record.seq}", f"{record.n_bytes}B")
            lines.append(
                f"  {node} [label={label}, shape=box, style=filled, "
                "fillcolor=lightyellow];"
            )
        styles = {
            "parent": "[color=gray50]",
            "send": "[color=steelblue]",
            "recv": "[color=steelblue, style=bold]",
            "duplicate": "[color=red, style=dotted]",
        }
        broken = 0
        for edge in self.edges:
            style = styles.get(edge.kind, "")
            if edge.src is None:
                continue
            if edge.dst is None:
                broken += 1
                sink = f"lost:{broken}"
                lines.append(
                    f"  {q(sink)} [label=\"\", shape=point, color=red, width=0.15];"
                )
                lines.append(f"  {q(edge.src)} -> {q(sink)} [color=red, style=dashed];")
                continue
            lines.append(f"  {q(edge.src)} -> {q(edge.dst)} {style};".rstrip() + "")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_dag(telemetry: "Telemetry", network: "Network") -> CausalDag:
    """Assemble the causal DAG from one run's spans and wire log."""
    spans = list(telemetry.tracer.spans)
    transfers = list(network.log)
    edges: list[CausalEdge] = []

    for span in spans:
        if span.parent_id is not None:
            edges.append(
                CausalEdge("parent", f"span:{span.parent_id}", f"span:{span.span_id}")
            )

    for record in transfers:
        node = f"wire:{record.seq}"
        parent = record.parent_span_id
        edges.append(
            CausalEdge(
                "send",
                f"span:{parent}" if parent is not None else None,
                node,
                label=record.label,
            )
        )
        if record.duplicate_of is not None:
            edges.append(
                CausalEdge(
                    "duplicate", f"wire:{record.duplicate_of}", node, label=record.label
                )
            )
        if record.status == "lost":
            edges.append(CausalEdge("recv", node, None, label=record.label))
        elif record.status == "delivered":
            dst = (
                f"span:{record.recv_span_id}"
                if record.recv_span_id is not None
                else None
            )
            edges.append(CausalEdge("recv", node, dst, label=record.label))
    return CausalDag(
        spans=spans,
        transfers=transfers,
        edges=edges,
        reordered=reordered_seqs(telemetry.trace.events, transfers),
    )


def reordered_seqs(
    events: Iterable["Event"], transfers: list["TransferRecord"]
) -> frozenset[int]:
    """The wire seqs a stream reorder actually swapped.

    ``chunk_send_order`` emits ``("fault", "reorder", label=L, nth=N)``
    when it swaps the N-th and (N+1)-th frames of stream ``L``; the
    corresponding *sent* records (duplicates excluded) are the swapped
    positions in send order.
    """
    swapped: set[int] = set()
    for event in events:
        if event.category != "fault" or event.name != "reorder":
            continue
        label = event.payload["label"]
        stream = [t for t in transfers if t.label == label and not t.duplicate]
        i = event.payload["nth"] - 1
        if 0 <= i and i + 1 < len(stream):
            swapped.update((stream[i].seq, stream[i + 1].seq))
    return frozenset(swapped)
