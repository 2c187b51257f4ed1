"""The two stages of check_consistency. The integer-point verdict is
differential against the paper's agenda/database closure
(reference.oracle_consistency), and its count against the assertions over
named points (reference.document_assertions). An inconsistent document
gets exactly the result of the explanation stage alone, and a consistent
one never reaches it. The explanation over integer points is differential
against the one over named points (reference.explain)."""
import random

import pytest

from tmlwb import point_algebra
from tmlwb.ingest import CAVAT_FOLD, NO_FOLD, apply_fold
from tmlwb.model import INSTANCE, IntervalRef, Link
from tmlwb.point_algebra import check_consistency, explain, verdict

import reference
from conftest import make_doc, random_doc, random_timeline_doc
from reference import document_assertions, oracle_consistency


def assertion_count(doc):
    axioms, agenda = document_assertions(doc)
    return len(axioms) + len(agenda)


def check_verdict(doc) -> bool:
    """The verdict equals the closure's; the count and, for any document,
    the whole result equal the explanation stage's."""
    consistent, processed = verdict(doc)
    assert consistent == oracle_consistency(doc)
    assert processed == assertion_count(doc)
    assert check_consistency(doc) == explain(doc)
    return consistent


class TestVerdictAgainstClosure:
    def test_random_docs(self):
        rng = random.Random(19860812)
        verdicts = [check_verdict(random_doc(rng)) for _ in range(1000)]
        assert 100 < verdicts.count(False) < 900

    def test_random_docs_many_intervals(self):
        rng = random.Random(2012)
        verdicts = [check_verdict(random_doc(rng, max_intervals=20, max_links=16))
                    for _ in range(200)]
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("plant", [False, True])
    def test_timeline_docs(self, plant):
        rng = random.Random(1986 + plant)
        for _ in range(300):
            doc, planted = random_timeline_doc(rng, plant=plant)
            assert check_verdict(doc) == (planted is None)


def with_slink(doc):
    doc.links["s1"] = Link("s1", "SLINK", "MODAL",
                           IntervalRef(INSTANCE, "A"), IntervalRef(INSTANCE, "B"))
    return doc


EDGE_CASES = {
    "no links": make_doc([]),
    "only an SLINK": with_slink(make_doc([])),
    "BEFORE itself": make_doc([("BEFORE", "A", "A")]),
    "SIMULTANEOUS itself": make_doc([("SIMULTANEOUS", "A", "A")]),
    "IDENTITY itself": make_doc([("IDENTITY", "A", "A")]),
    "IBEFORE itself": make_doc([("IBEFORE", "A", "A")]),
    "INCLUDES itself": make_doc([("INCLUDES", "A", "A")]),
    "self loop beside a chain": make_doc([("BEFORE", "A", "B"), ("DURING", "B", "B")]),
    "duplicate TLINKs": make_doc([("BEFORE", "A", "B"), ("BEFORE", "A", "B")]),
    "AFTER repeating BEFORE": make_doc([("BEFORE", "A", "B"), ("AFTER", "B", "A")]),
    "duplicate clash": make_doc([("BEFORE", "A", "B"), ("BEFORE", "B", "A"),
                                 ("BEFORE", "B", "A")]),
    "IDENTITY both ways": make_doc([("IDENTITY", "A", "B"), ("IDENTITY", "B", "A")]),
    "IDENTITY and SIMULTANEOUS": make_doc([("IDENTITY", "A", "B"),
                                           ("SIMULTANEOUS", "B", "A")]),
    "IBEFORE and IAFTER": make_doc([("IBEFORE", "A", "B"), ("IAFTER", "B", "A")]),
    "IBEFORE both ways": make_doc([("IBEFORE", "A", "B"), ("IBEFORE", "B", "A")]),
    "IDENTITY against BEFORE": make_doc([("IDENTITY", "A", "B"), ("BEFORE", "B", "A")]),
    "arg2 only": make_doc([("BEFORE", "A", "C"), ("INCLUDES", "B", "C")]),
    "arg2 only, clashing": make_doc([("BEFORE", "A", "C"), ("BEFORE", "B", "C"),
                                     ("AFTER", "A", "C")]),
    "arg2 only, equal ends": make_doc([("ENDS", "A", "C"), ("ENDED_BY", "B", "C"),
                                       ("BEFORE", "A", "B")]),
}


class TestEdgeCases:
    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_closure_verdict_and_count(self, name):
        doc = EDGE_CASES[name]
        consistent, processed = verdict(doc)
        assert consistent == oracle_consistency(doc)
        assert processed == assertion_count(doc)
        result = check_consistency(doc)
        assert result == explain(doc)
        assert result.consistent == consistent
        assert result.processed == processed

    def test_both_verdicts_covered(self):
        verdicts = {verdict(doc)[0] for doc in EDGE_CASES.values()}
        assert verdicts == {True, False}

    def test_no_links_counts_nothing(self):
        assert verdict(make_doc([])) == (True, 0)
        assert verdict(EDGE_CASES["only an SLINK"]) == (True, 0)


class TestExplanation:
    def test_inconsistent_fixtures(self, corpus):
        bad = [doc for doc in corpus.documents if not verdict(doc)[0]]
        assert {doc.filename for doc in bad} == {
            "inconsistent_direct.tml", "inconsistent_inferred.tml"}
        for doc in bad:
            result, alone = check_consistency(doc), explain(doc)
            assert not alone.consistent
            assert (result.message, result.conflict, result.lids) == \
                (alone.message, alone.conflict, alone.lids)

    def test_planted_contradictions(self):
        rng = random.Random(19860811)
        for _ in range(300):
            doc, planted = random_timeline_doc(rng, plant=True)
            result, alone = check_consistency(doc), explain(doc)
            assert not alone.consistent and planted in alone.lids
            assert (result.message, result.conflict, result.lids) == \
                (alone.message, alone.conflict, alone.lids)

    def test_reached_only_when_inconsistent(self, corpus, monkeypatch):
        explained = []

        def spy(doc):
            explained.append(doc.filename)
            return explain(doc)

        monkeypatch.setattr(point_algebra, "explain", spy)
        verdicts = {doc.filename: check_consistency(doc).consistent
                    for doc in corpus.documents}
        assert sorted(explained) == sorted(f for f, ok in verdicts.items() if not ok)
        assert explained


def same_explanation(doc):
    """explain over integer points gives the result of explain over named
    points, message included; returns whether the document is consistent."""
    result, named = explain(doc), reference.explain(doc)
    assert (result, result.message) == (named, named.message)
    return result.consistent


class TestExplanationAgainstNamedPoints:
    @pytest.mark.parametrize("scheme", [NO_FOLD, CAVAT_FOLD], ids=["none", "cavat"])
    def test_inconsistent_fixtures(self, corpus, scheme):
        docs = [apply_fold(doc, scheme) for doc in corpus.documents]
        verdicts = [same_explanation(doc) for doc in docs]
        assert verdicts.count(False) == 2

    def test_random_docs(self):
        rng = random.Random(19860813)
        verdicts = [same_explanation(random_doc(rng)) for _ in range(1000)]
        assert 100 < verdicts.count(False) < 900

    def test_planted_contradictions(self):
        rng = random.Random(19860814)
        for _ in range(300):
            doc, _ = random_timeline_doc(rng, plant=True)
            assert not same_explanation(doc)
