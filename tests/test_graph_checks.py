import math
import random

import pytest

from tmlwb.graph_checks import (
    build_subgraphs, check_orphans, check_tlink_loop, format_subgraph_report,
    subgraph_entropy, subgraph_stats,
)
from tmlwb.point_algebra import check_consistency

from conftest import golden_check, make_doc, random_doc


def reference_shaped_doc():
    """Components sized 2x5, 3x4, 4x3 and 35, linked by 65 TLINKs; the five
    2-node components are each described by a single link."""
    relations = []
    node = 0

    def fresh(n):
        nonlocal node
        ids = [f"n{node + i}" for i in range(n)]
        node += n
        return ids

    for _ in range(5):  # size 2, one link each
        a, b = fresh(2)
        relations.append(("BEFORE", a, b))
    for _ in range(4):  # size 3, two links each
        a, b, c = fresh(3)
        relations += [("BEFORE", a, b), ("BEFORE", b, c)]
    for _ in range(3):  # size 4, three links each
        a, b, c, d = fresh(4)
        relations += [("BEFORE", a, b), ("BEFORE", b, c), ("BEFORE", c, d)]
    big = fresh(35)  # size 35, chain plus 9 redundant links = 43
    relations += [("BEFORE", big[i], big[i + 1]) for i in range(34)]
    relations += [("INCLUDES", big[0], big[i + 2]) for i in range(9)]
    assert len(relations) == 65
    return make_doc(relations)


class TestBuildSubgraphs:
    def test_single_link(self):
        assert build_subgraphs(make_doc([("BEFORE", "A", "B")])) == [{"A", "B"}]

    def test_merge(self):
        doc = make_doc([("BEFORE", "A", "B"), ("BEFORE", "C", "D"),
                        ("BEFORE", "B", "C")])
        assert build_subgraphs(doc) == [{"A", "B", "C", "D"}]

    def test_self_loop_singleton(self):
        assert build_subgraphs(make_doc([("IDENTITY", "A", "A")])) == [{"A"}]

    def test_partition_property(self):
        rng = random.Random(3)
        for _ in range(100):
            doc = random_doc(rng)
            groups = build_subgraphs(doc)
            linked = set()
            for l in doc.tlinks:
                linked.add(l.arg1.ref_id)
                linked.add(l.arg2.ref_id)
            union = set()
            for g in groups:
                assert not (union & g), "sets must be disjoint"
                union |= g
            assert union == linked

    def test_order_invariant(self):
        rng = random.Random(4)
        for _ in range(50):
            doc = random_doc(rng)
            partition = {frozenset(g) for g in build_subgraphs(doc)}
            lids = list(doc.links)
            rng.shuffle(lids)
            shuffled = make_doc([])
            shuffled.links = {lid: doc.links[lid] for lid in lids}
            assert {frozenset(g) for g in build_subgraphs(shuffled)} == partition


class TestEntropy:
    def test_two_even_subgraphs(self):
        assert subgraph_entropy([2, 2]) == pytest.approx(0.5)

    def test_single_subgraph_zero(self):
        assert subgraph_entropy([7]) == 0.0

    def test_reference_sizes(self):
        sizes = [2] * 5 + [3] * 4 + [4] * 3 + [35]
        assert subgraph_entropy(sizes) == pytest.approx(0.448277644573, abs=1e-9)

    def test_bounds(self):
        rng = random.Random(5)
        for _ in range(200):
            sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            h = subgraph_entropy(sizes)
            assert 0.0 <= h <= 1.0 + 1e-12

    def test_singletons_approach_one(self):
        assert subgraph_entropy([1] * 50) == pytest.approx(1.0)


class TestSubgraphStats:
    def test_reference_shape(self):
        report = subgraph_stats(reference_shaped_doc())
        assert report.subgraph_count == 13
        assert report.node_count == 69
        assert report.tlink_count == 65
        assert report.isolated_count == 5
        assert report.isolated_subgraph_pct == pytest.approx(38.46, abs=0.01)
        assert report.isolated_node_pct == pytest.approx(100 * 10 / 69, abs=0.01)
        assert report.isolated_tlink_pct == pytest.approx(100 * 5 / 65, abs=0.01)
        assert report.mean_size == pytest.approx(69 / 13)
        assert report.max_size == 35
        assert report.largest_node_pct == pytest.approx(100 * 35 / 69, abs=0.01)
        assert report.entropy == pytest.approx(0.448277644573, abs=1e-9)
        assert report.size_histogram == {2: 5, 3: 4, 4: 3, 35: 1}

    def test_reference_shape_formatting(self):
        golden_check("split_graph_reference.txt",
                     "\n".join(format_subgraph_report(subgraph_stats(reference_shaped_doc()))))

    def test_single_link(self):
        report = subgraph_stats(make_doc([("BEFORE", "A", "B")]))
        assert report.subgraph_count == 1
        assert report.node_count == 2
        assert report.entropy == 0.0

    def test_unlinked_document(self, corpus):
        doc = make_doc([])
        report = subgraph_stats(doc)
        assert report.subgraph_count == 0
        assert format_subgraph_report(report) == [
            "No temporal links found: document is un-fractured."]

    def test_histogram_consistency(self):
        rng = random.Random(6)
        for _ in range(100):
            report = subgraph_stats(random_doc(rng))
            assert sum(report.size_histogram.values()) == report.subgraph_count
            assert sum(s * c for s, c in report.size_histogram.items()) == report.node_count


class TestTlinkLoop:
    def test_direct_loop(self, corpus):
        doc = corpus.document_by_filename("loop_identity.tml")
        findings = check_tlink_loop(doc)
        assert len(findings) == 1
        assert findings[0].severity == "ERROR"
        assert findings[0].message == (
            "TLINK ID l1 loops directly (instanceID match), "
            "type IDENTITY, event ei1 / ei1")

    def test_eventid_match(self, corpus):
        doc = corpus.document_by_filename("loop_eventid.tml")
        findings = check_tlink_loop(doc)
        assert len(findings) == 1
        assert findings[0].severity == "WARNING"
        assert findings[0].message == (
            "TLINK ID l1 may be a loop (eventID match), "
            "type INCLUDES, event ei1 / ei2 - check document manually")

    def test_distinct_events_no_finding(self, corpus):
        doc = corpus.document_by_filename("consistent.tml")
        assert check_tlink_loop(doc) == []

    def test_non_equality_loops_are_inconsistent(self):
        equality = {"SIMULTANEOUS", "IDENTITY", "DURING", "DURING_INV"}
        from tmlwb.model import TLINK_RELATIONS
        for rel in sorted(TLINK_RELATIONS - equality):
            doc = make_doc([(rel, "A", "A")])
            assert check_tlink_loop(doc)[0].severity == "ERROR"
            assert not check_consistency(doc).consistent, rel
        for rel in sorted(equality):
            doc = make_doc([(rel, "A", "A")])
            assert check_consistency(doc).consistent, rel


class TestOrphans:
    def test_five_case_fixture(self, corpus):
        doc = corpus.document_by_filename("orphans.tml")
        findings = check_orphans(doc)
        assert [f.message for f in findings] == [
            "TIMEX3 t1 not in any link",
            "Instance ei1 not in any link",
            "Event e2 never instantiated",
            "Instance ei9 references missing event e99",
            "Signal s1 not referenced by any link or instance",
        ]
        assert all(f.severity == "WARNING" for f in findings)

    def test_clean_document(self, corpus):
        doc = corpus.document_by_filename("consistent.tml")
        assert check_orphans(doc) == []

    def test_instance_signal_read_regardless_of_case(self, tmp_path):
        """A MAKEINSTANCE's signalID is read as reports read it: without
        regard to case, the first of two case variants winning."""
        from tmlwb.ingest import parse_document
        path = tmp_path / "case.tml"
        path.write_text(
            '<TimeML>He <SIGNAL sid="s1">then</SIGNAL> <EVENT eid="e1" class="STATE">'
            'slept</EVENT> and <EVENT eid="e2" class="STATE">woke</EVENT>.\n'
            '<MAKEINSTANCE eiid="ei1" eventID="e1" SIGNALID="s1" signalID="s9"/>\n'
            '<MAKEINSTANCE eiid="ei2" eventID="e2" signalid="s8"/>\n'
            '<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" '
            'relatedToEventInstance="ei2"/>\n</TimeML>\n', encoding="utf-8")
        doc = parse_document(path)
        assert doc.warnings == ["MAKEINSTANCE ei2 references missing signal s8"]
        assert check_orphans(doc) == []
