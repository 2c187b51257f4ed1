import random

import pytest

from tmlwb.ingest import CAVAT_FOLD, apply_fold
from tmlwb.model import IntervalRef, Link, INSTANCE
from tmlwb.point_algebra import START, check_consistency, document_assertions

from conftest import make_doc, random_doc, random_timeline_doc
from reference import interval_axioms, oracle_consistency, tlink_to_assertions


def restricted(doc, lids):
    """The document with only the given links."""
    out = make_doc([])
    out.links = {lid: doc.links[lid] for lid in lids}
    return out


def link(rel, a="a", b="b"):
    return Link("l1", "TLINK", rel,
                IntervalRef(INSTANCE, a), IntervalRef(INSTANCE, b))


# every Table 2 row, written out as explicit point assertions
POINT_TABLE = {
    "BEFORE":       {("<", ("a", 2), ("b", 1))},
    "AFTER":        {("<", ("b", 2), ("a", 1))},
    "IAFTER":       {("=", ("a", 1), ("b", 2))},
    "IBEFORE":      {("=", ("a", 2), ("b", 1))},
    "INCLUDES":     {("<", ("a", 1), ("b", 1)), ("<", ("b", 2), ("a", 2))},
    "IS_INCLUDED":  {("<", ("b", 1), ("a", 1)), ("<", ("a", 2), ("b", 2))},
    "BEGINS":       {("=", ("a", 1), ("b", 1)), ("<", ("a", 2), ("b", 2))},
    "BEGUN_BY":     {("=", ("a", 1), ("b", 1)), ("<", ("b", 2), ("a", 2))},
    "ENDS":         {("=", ("a", 2), ("b", 2)), ("<", ("b", 1), ("a", 1))},
    "ENDED_BY":     {("=", ("a", 2), ("b", 2)), ("<", ("a", 1), ("b", 1))},
    "SIMULTANEOUS": {("=", ("a", 1), ("b", 1)), ("=", ("a", 2), ("b", 2))},
    "IDENTITY":     {("=", ("a", 1), ("b", 1)), ("=", ("a", 2), ("b", 2))},
    "DURING":       {("=", ("a", 1), ("b", 1)), ("=", ("a", 2), ("b", 2))},
    "DURING_INV":   {("=", ("a", 1), ("b", 1)), ("=", ("a", 2), ("b", 2))},
}


class TestPointMapping:
    @pytest.mark.parametrize("rel", sorted(POINT_TABLE))
    def test_table_row(self, rel):
        assert tlink_to_assertions(link(rel)) == POINT_TABLE[rel]

    def test_after_equals_swapped_before(self):
        assert tlink_to_assertions(link("AFTER", "a", "b")) == \
            tlink_to_assertions(link("BEFORE", "b", "a"))

    def test_non_tlink_rejected(self):
        bad = Link("l1", "SLINK", "MODAL",
                   IntervalRef(INSTANCE, "a"), IntervalRef(INSTANCE, "b"))
        with pytest.raises(ValueError):
            tlink_to_assertions(bad)


def renamed(assertions, names):
    """Assertions over named points with each interval id renamed, an
    equality keeping its smaller point first."""
    out = set()
    for rel, (left, lp), (right, rp) in assertions:
        x, y = (names[left], lp), (names[right], rp)
        out.add((rel, x, y) if rel == "<" or x <= y else (rel, y, x))
    return out


def named_assertions(doc):
    """The TLINK assertions of document_assertions over named points."""
    intervals, assertions = document_assertions(doc)

    def point(p):
        return intervals[p // 2], START + p % 2

    return {(rel, point(x), point(y)) for rel, x, y in assertions}


class TestProductionMapping:
    """The integer points of document_assertions, named again, against
    the table: arg1 sorting before arg2, after it, and both the same."""
    @pytest.mark.parametrize("a,b", [("a", "b"), ("y", "x"), ("a", "a")])
    @pytest.mark.parametrize("rel", sorted(POINT_TABLE))
    def test_table_row(self, rel, a, b):
        doc = make_doc([(rel, a, b)])
        assert document_assertions(doc)[0] == sorted({a, b})
        assert named_assertions(doc) == renamed(POINT_TABLE[rel], {"a": a, "b": b})

    def test_first_tlink_makes_each_assertion(self):
        doc = make_doc([("ENDS", "B", "A"), ("BEFORE", "A", "B"),
                        ("AFTER", "B", "A"), ("ENDED_BY", "A", "B")])
        intervals, assertions = document_assertions(doc)
        # A is interval 0 (points 0, 1) and B interval 1 (points 2, 3);
        # TLINKs in document order, the assertions of each one sorted
        assert intervals == ["A", "B"]
        assert list(assertions.items()) == [
            (("<", 0, 2), "l1"), (("=", 1, 3), "l1"), (("<", 1, 2), "l2")]


class TestIntervalAxioms:
    def test_single(self):
        assert interval_axioms({"A"}) == {("<", ("A", 1), ("A", 2))}

    def test_empty(self):
        assert interval_axioms(set()) == set()

    def test_two(self):
        assert len(interval_axioms({"A", "B"})) == 2


class TestCheckConsistency:
    def test_before_vs_includes(self):
        doc = make_doc([("BEFORE", "A", "B"), ("INCLUDES", "B", "A")])
        result = check_consistency(doc)
        assert not result.consistent
        assert result.conflict is not None
        assert result.message.startswith("! Inconsistent closure - could not assert (")

    def test_witness_names_clashing_tlinks(self):
        doc = make_doc([("BEFORE", "C", "D"), ("BEFORE", "A", "B"),
                        ("INCLUDES", "B", "A"), ("BEFORE", "B", "C")])
        result = check_consistency(doc)
        assert result.lids == ("l2", "l3")
        # the cycle's last assertion: A_1 < A_2 (axiom) < B_1 (l2) < A_1 (l3)
        assert result.conflict == ("<", ("B", 1), ("A", 1))
        assert result.message == ("! Inconsistent closure - could not assert "
                                  "(B_1 < A_1) - TLINKs l2, l3")
        assert result.processed == 9  # 4 axioms + 5 TLINK assertions

    def test_no_tlinks(self):
        assert check_consistency(make_doc([])).consistent

    def test_identity_self_loop(self):
        assert check_consistency(make_doc([("IDENTITY", "A", "A")])).consistent

    def test_simultaneous_self_loop(self):
        assert check_consistency(make_doc([("SIMULTANEOUS", "A", "A")])).consistent

    def test_before_self_loop(self):
        result = check_consistency(make_doc([("BEFORE", "A", "A")]))
        assert not result.consistent
        assert result.lids == ("l1",)

    def test_includes_self_loop(self):
        # (A_1 < A_1) and (A_2 < A_2): a `<` inside one class
        result = check_consistency(make_doc([("INCLUDES", "A", "A")]))
        assert not result.consistent
        assert result.conflict[1] == result.conflict[2]
        assert result.lids == ("l1",)

    def test_three_cycle(self):
        doc = make_doc([("BEFORE", "A", "B"), ("BEFORE", "B", "C"),
                        ("BEFORE", "C", "A")])
        assert not check_consistency(doc).consistent
        assert not oracle_consistency(doc)

    def test_needs_substitution_rule(self):
        # consistent pair-by-pair; the conflict only appears when the
        # equality substitutes into the ordering chain
        doc = make_doc([("SIMULTANEOUS", "A", "B"), ("BEFORE", "B", "C"),
                        ("BEFORE", "C", "A")])
        result = check_consistency(doc)
        assert not result.consistent
        assert result.lids == ("l1", "l2", "l3")
        assert not oracle_consistency(doc)

    def test_duplicate_links_harmless(self):
        doc = make_doc([("BEFORE", "A", "B"), ("BEFORE", "A", "B")])
        assert check_consistency(doc).consistent

    def test_long_chain(self):
        rels = [("BEFORE", f"x{i}", f"x{i + 1}") for i in range(50)]
        assert check_consistency(make_doc(rels)).consistent
        rels.append(("BEFORE", "x50", "x0"))
        doc = make_doc(rels)
        result = check_consistency(doc)
        assert not result.consistent
        assert result.lids == tuple(doc.links)
        assert not oracle_consistency(doc)

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            oracle_consistency(make_doc([]), discipline="random")


class TestProperties:
    def test_oracle_equivalence_random(self):
        rng = random.Random(20090612)
        for _ in range(300):
            doc = random_doc(rng)
            result = check_consistency(doc)
            assert result.consistent == oracle_consistency(doc)
            if not result.consistent:
                assert not oracle_consistency(restricted(doc, result.lids))

    def test_agenda_discipline_irrelevant(self):
        rng = random.Random(42)
        for _ in range(150):
            doc = random_doc(rng)
            assert oracle_consistency(doc, "fifo") == oracle_consistency(doc, "lifo")

    def test_witness_on_timeline_docs(self):
        rng = random.Random(19860811)
        for i in range(200):
            doc, planted = random_timeline_doc(rng, plant=i % 2 == 1)
            result = check_consistency(doc)
            assert result.consistent == oracle_consistency(doc) == (planted is None)
            assert check_consistency(doc).message == result.message
            if planted is None:
                assert result.lids == ()
                continue
            assert planted in result.lids
            assert list(result.lids) == [lid for lid in doc.links if lid in result.lids]
            assert not oracle_consistency(restricted(doc, result.lids))

    def test_fold_invariance(self, corpus):
        rng = random.Random(7)
        docs = list(corpus.documents) + [random_doc(rng) for _ in range(100)]
        for doc in docs:
            folded = apply_fold(doc, CAVAT_FOLD)
            assert (check_consistency(doc).consistent
                    == check_consistency(folded).consistent)

    def test_link_order_insensitive(self):
        rng = random.Random(99)
        for _ in range(50):
            doc = random_doc(rng)
            verdict = check_consistency(doc).consistent
            lids = list(doc.links)
            rng.shuffle(lids)
            shuffled = restricted(doc, lids)
            assert check_consistency(shuffled).consistent == verdict

    def test_fixture_verdicts(self, corpus):
        expected = {
            "all_relations.tml": True,
            "consistent.tml": True,
            "inconsistent_direct.tml": False,
            "inconsistent_inferred.tml": False,
            "loop_eventid.tml": True,
            "loop_identity.tml": True,
            "orphans.tml": True,
            "subgraphs.tml": True,
        }
        for doc in corpus.documents:
            assert check_consistency(doc).consistent == expected[doc.filename]
            assert oracle_consistency(doc) == expected[doc.filename]
