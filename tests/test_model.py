import pytest

from tmlwb.ingest import parse_document
from tmlwb.model import IntervalRef, Link, INSTANCE, link_signal_text

from reference import tlink_to_assertions

TABLE1_ROWS = [
    ("AFTER", "BEFORE"),
    ("IS_INCLUDED", "INCLUDES"),
    ("IAFTER", "IBEFORE"),
    ("BEGUN_BY", "BEGINS"),
    ("ENDED_BY", "ENDS"),
    ("DURING_INV", "SIMULTANEOUS"),
    ("DURING", "SIMULTANEOUS"),
    ("SIMULTANEOUS", "SIMULTANEOUS"),
]


def get_doc(corpus, name):
    doc = corpus.document_by_filename(name)
    assert doc is not None
    return doc


def fields(doc, pool, name):
    """id -> value of one field over a tag pool, from the resolver's column."""
    ids = {"event": doc.events, "instance": doc.instances, "timex3": doc.timexes}[pool]
    return dict(zip(ids, doc.column(pool, name)))


class TestResolveEventAttribute:
    """An instance's event-sourced fields, through Document.column."""

    def test_shared_event_pos(self, corpus):
        doc = get_doc(corpus, "loop_eventid.tml")
        assert fields(doc, "instance", "pos") == {"ei1": "VERB", "ei2": "VERB"}

    def test_event_sourced_text_shared(self, corpus):
        doc = get_doc(corpus, "loop_eventid.tml")
        text = fields(doc, "instance", "text")
        assert text["ei1"] == text["ei2"] == "flown"

    def test_no_instances_empty_mapping(self, corpus):
        """A document without MAKEINSTANCE tags has no instance-sourced
        values: its TIMEX3s answer pos with None."""
        doc = get_doc(corpus, "all_relations.tml")
        assert doc.instances == {}
        assert set(doc.column("timex3", "pos")) == {None}

    def test_dangling_event_yields_absent(self, corpus):
        doc = get_doc(corpus, "orphans.tml")
        assert fields(doc, "instance", "text")["ei9"] is None

    def test_empty_values_are_absent(self, tmp_path):
        """An empty eventID or class is None, like every empty field."""
        path = tmp_path / "empty.tml"
        path.write_text(
            '<TimeML><EVENT eid="e1" class="">ran</EVENT>\n'
            '<MAKEINSTANCE eiid="ei1" eventID="e1"/>'
            '<MAKEINSTANCE eiid="ei2" eventID=""/>\n</TimeML>')
        doc = parse_document(path)
        assert list(doc.instances) == ["ei1", "ei2"]
        assert doc.column("instance", "eventid") == ("e1", None)
        assert doc.column("instance", "class") == (None, None)

    def test_class_matched_regardless_of_case(self, tmp_path):
        path = tmp_path / "case.tml"
        path.write_text(
            '<TimeML><EVENT eid="e1" CLASS="STATE">slept</EVENT>\n'
            '<MAKEINSTANCE eiid="ei1" eventID="e1"/>\n</TimeML>')
        doc = parse_document(path)
        assert fields(doc, "instance", "class")["ei1"] == "STATE"

    def test_total_over_instances(self, corpus):
        for doc in corpus.documents:
            for attribute in ("pos", "tense", "text", "class"):
                column = doc.column("instance", attribute)
                assert len(column) == len(doc.instances)
                for value in column:
                    assert value is None or isinstance(value, str) and value


class TestAttributeCase:
    def test_first_key_of_a_lowercase_form_wins(self, tmp_path):
        """Names are matched without regard to case; of two names that differ
        only in case, the first in the tag wins. attrs stays raw, and tags
        with the same attribute names share one keys tuple."""
        path = tmp_path / "case.tml"
        path.write_text(
            '<TimeML><EVENT eid="e1" Class="STATE" class="OCCURRENCE">ran</EVENT> '
            '<EVENT eid="e2" class="OCCURRENCE" Class="STATE">ran</EVENT> '
            '<EVENT eid="e3" Class="" class="OCCURRENCE">ran</EVENT></TimeML>')
        doc = parse_document(path)
        e1, e2, e3 = (doc.events[eid] for eid in ("e1", "e2", "e3"))
        assert fields(doc, "event", "class") == {
            "e1": "STATE", "e2": "OCCURRENCE", "e3": None}
        assert e1.attrs == {"eid": "e1", "Class": "STATE", "class": "OCCURRENCE"}
        assert e1.keys is e3.keys
        assert e1.keys is not e2.keys


class TestLinkSignalText:
    def test_single_word(self, corpus):
        doc = get_doc(corpus, "consistent.tml")
        assert link_signal_text(doc, doc.links["l2"]) == "before"

    def test_multiword(self, tmp_path):
        from tmlwb.ingest import parse_document
        path = tmp_path / "multi.tml"
        path.write_text(
            '<TimeML>He left <SIGNAL sid="s1">prior to</SIGNAL> dawn.\n'
            '<TLINK lid="l1" relType="BEFORE" timeID="t1" relatedToTime="t2" '
            'signalID="s1"/>\n</TimeML>')
        doc = parse_document(path)
        assert link_signal_text(doc, doc.links["l1"]) == "prior to"

    def test_no_signal(self, corpus):
        doc = get_doc(corpus, "consistent.tml")
        assert link_signal_text(doc, doc.links["l1"]) is None

    def test_dangling_signal(self, corpus):
        doc = get_doc(corpus, "consistent.tml")
        link = doc.links["l2"]
        from dataclasses import replace
        assert link_signal_text(doc, replace(link, signal_id="s99")) is None


class TestInvariants:
    @pytest.mark.parametrize("original,inverse", TABLE1_ROWS)
    def test_inverse_swap_preserves_point_set(self, original, inverse):
        a = IntervalRef(INSTANCE, "a")
        b = IntervalRef(INSTANCE, "b")
        link = Link("l1", "TLINK", original, a, b)
        swapped = Link("l1", "TLINK", inverse, b, a)
        assert tlink_to_assertions(link) == tlink_to_assertions(swapped)

    def test_token_positions_reconstruct_order(self, corpus):
        for doc in corpus.documents:
            bounds = doc.sentence_bounds
            assert bounds[0] == 0 and bounds[-1] == len(doc.surfaces) == len(doc.lemmas)
            # every sentence has a word, so the bounds rise strictly
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
