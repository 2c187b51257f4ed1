"""Temporal-graph validators: sub-graph fracture statistics, TLINK loops
and orphaned entities."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .model import Document, INSTANCE, TIMEX
from .point_algebra import find


@dataclass
class CheckFinding:
    check: str
    document: str
    severity: str  # "ERROR" | "WARNING" | "INFO"
    subjects: list[str]
    message: str


@dataclass
class SubgraphReport:
    subgraph_count: int = 0
    node_count: int = 0
    tlink_count: int = 0
    isolated_count: int = 0
    isolated_subgraph_pct: float = 0.0
    isolated_node_pct: float = 0.0
    isolated_tlink_pct: float = 0.0
    mean_size: float = 0.0
    max_size: int = 0
    largest_node_pct: float = 0.0
    entropy: float = 0.0
    size_histogram: dict[int, int] = field(default_factory=dict)


def build_subgraphs(doc: Document) -> list[set[str]]:
    """Group the TLINKs' intervals into connected sets, by union-find.

    The sets come in the order of their first interval's first appearance
    in TLINK order. A self-loop on an otherwise unlinked interval yields a
    singleton set.
    """
    parent: dict[str, str] = {}
    for link in doc.tlinks:
        parent[find(parent, link.arg1.ref_id)] = find(parent, link.arg2.ref_id)
    groups: dict[str, set[str]] = {}
    for node in parent:  # insertion order: first appearance
        groups.setdefault(find(parent, node), set()).add(node)
    return list(groups.values())


def subgraph_entropy(sizes: list[int]) -> float:
    """Normalized entropy of node membership across sub-graphs.

    p_i = size_i / N with N the total linked nodes, normalized by ln N.
    Zero for a single sub-graph or when N <= 1.
    """
    total = sum(sizes)
    if total <= 1 or len(sizes) <= 1:
        return 0.0
    return -sum((s / total) * math.log(s / total) for s in sizes) / math.log(total)


def subgraph_stats(doc: Document) -> SubgraphReport:
    groups = build_subgraphs(doc)
    report = SubgraphReport(tlink_count=len(doc.tlinks))
    if not groups:
        return report
    sizes = [len(g) for g in groups]
    report.subgraph_count = len(groups)
    report.node_count = sum(sizes)
    report.mean_size = report.node_count / report.subgraph_count
    report.max_size = max(sizes)
    report.largest_node_pct = 100.0 * report.max_size / report.node_count
    report.size_histogram = dict(sorted(Counter(sizes).items()))
    # summed in sorted order, so the float result does not depend on the
    # order in which the groups were found
    report.entropy = subgraph_entropy(sorted(sizes))

    group_of = {node: i for i, group in enumerate(groups) for node in group}
    links_per_group = Counter(group_of[link.arg1.ref_id] for link in doc.tlinks)
    isolated = [i for i, n in links_per_group.items() if n == 1]
    report.isolated_count = len(isolated)
    report.isolated_subgraph_pct = 100.0 * len(isolated) / report.subgraph_count
    isolated_nodes = sum(len(groups[i]) for i in isolated)
    report.isolated_node_pct = 100.0 * isolated_nodes / report.node_count
    if report.tlink_count:
        report.isolated_tlink_pct = 100.0 * len(isolated) / report.tlink_count
    return report


def format_subgraph_report(report: SubgraphReport) -> list[str]:
    """Render the statistics block; percentages to one decimal place."""
    if report.subgraph_count == 0:
        return ["No temporal links found: document is un-fractured."]
    lines = [
        f"Subgraphs found: {report.subgraph_count} - composed of "
        f"{report.node_count} nodes and linked by {report.tlink_count} TLINKS.",
        f"Isolated subgraphs, that contain just one TLINK: {report.isolated_count} "
        f"({report.isolated_subgraph_pct:.1f}% of subgraphs / "
        f"{report.isolated_node_pct:.1f}% of all nodes / described by "
        f"{report.isolated_tlink_pct:.1f}% of TLINKs)",
        f"Mean graph size {report.mean_size:.1f} nodes; largest subgraph "
        f"(size {report.max_size}) has {report.largest_node_pct:.1f}% of all nodes",
        f"Entropy of subgraph sizes:  {report.entropy:.12f}",
    ]
    for size, count in report.size_histogram.items():
        lines.append(f"{size:5d} nodes: ({count:2d}) " + "." * count)
    return lines


def check_split_graph(doc: Document) -> list[CheckFinding]:
    report = subgraph_stats(doc)
    message = "\n".join(format_subgraph_report(report))
    return [CheckFinding("split_graph", doc.filename, "INFO", [], message)]


def check_tlink_loop(doc: Document) -> list[CheckFinding]:
    """Flag TLINKs linking an interval to itself, or an event to itself
    through two of its instances (the latter can be legitimate, hence only
    a warning)."""
    findings = []
    for link in doc.tlinks:
        a, b = link.arg1, link.arg2
        if a == b:
            findings.append(CheckFinding(
                "tlink_loop", doc.filename, "ERROR", [link.lid],
                f"TLINK ID {link.lid} loops directly (instanceID match), "
                f"type {link.rel_type}, event {a.ref_id} / {b.ref_id}"))
        elif a.kind == INSTANCE and b.kind == INSTANCE:
            inst_a = doc.instances.get(a.ref_id)
            inst_b = doc.instances.get(b.ref_id)
            if (inst_a and inst_b and inst_a.event_id
                    and inst_a.event_id == inst_b.event_id):
                findings.append(CheckFinding(
                    "tlink_loop", doc.filename, "WARNING", [link.lid],
                    f"TLINK ID {link.lid} may be a loop (eventID match), "
                    f"type {link.rel_type}, event {a.ref_id} / {b.ref_id}"
                    " - check document manually"))
    return findings


def check_orphans(doc: Document) -> list[CheckFinding]:
    """Report the five kinds of entity attached to nothing else.

    1. TIMEX3 not an argument of any link;
    2. event instance not referenced by any link;
    3. EVENT never instantiated;
    4. event instance whose event reference resolves to no EVENT;
    5. SIGNAL referenced by no link and no event instance.
    """
    linked_instances: set[str] = set()
    linked_timexes: set[str] = set()
    used_signals: set[str] = set()
    for link in doc.links.values():
        for ref in (link.arg1, link.arg2):
            if ref.kind == INSTANCE:
                linked_instances.add(ref.ref_id)
            elif ref.kind == TIMEX:
                linked_timexes.add(ref.ref_id)
        if link.signal_id:
            used_signals.add(link.signal_id)
    instantiated: set[str] = set()
    for inst, signal_id in zip(doc.instances.values(),
                               doc.column("instance", "signalid")):
        if inst.event_id:
            instantiated.add(inst.event_id)
        if signal_id:
            used_signals.add(signal_id)

    findings = []

    def add(subject: str, message: str) -> None:
        findings.append(CheckFinding("orphans", doc.filename, "WARNING",
                                     [subject], message))

    for tid in doc.timexes:
        if tid not in linked_timexes:
            add(tid, f"TIMEX3 {tid} not in any link")
    for eiid in doc.instances:
        if eiid not in linked_instances:
            add(eiid, f"Instance {eiid} not in any link")
    for eid in doc.events:
        if eid not in instantiated:
            add(eid, f"Event {eid} never instantiated")
    for eiid, inst in doc.instances.items():
        if inst.event_id and inst.event_id not in doc.events:
            add(eiid, f"Instance {eiid} references missing event {inst.event_id}")
    for sid in doc.signals:
        if sid not in used_signals:
            add(sid, f"Signal {sid} not referenced by any link or instance")
    return findings
