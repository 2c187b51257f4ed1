import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

import tmlwb
from tmlwb.browse import (
    _TEXT_ESCAPES, _quoteattr, browse_tag, select_document, serialize_tag,
    show_link_context,
)
from tmlwb.errors import CommandError, StoreError
from tmlwb.ingest import CAVAT_FOLD, COMPACT_FOLD, apply_fold
from tmlwb.model import INSTANCE, LINK_ARGS, TIMEX, Corpus, Document, IntervalRef, Link
from tmlwb.store import Store

from reference import fragment_normal_form, link_arg_attr_names, tag_normal_form


class TestSelectDocument:
    def test_by_id(self, corpus):
        assert select_document(corpus, "1").doc_id == 1
        assert select_document(corpus, "3").doc_id == 3

    def test_by_filename(self, corpus):
        assert select_document(corpus, "consistent.tml").filename == "consistent.tml"

    def test_missing_id(self, corpus):
        with pytest.raises(CommandError, match="no document"):
            select_document(corpus, "99")

    def test_suggests_close_match(self, corpus):
        with pytest.raises(CommandError, match="consistent.tml"):
            select_document(corpus, "consistant.tml")


class TestSerializeRoundTrip:
    def all_tags(self, doc):
        yield from (("event", eid) for eid in doc.events)
        yield from (("instance", eiid) for eiid in doc.instances)
        yield from (("timex3", tid) for tid in doc.timexes)
        yield from (("signal", sid) for sid in doc.signals)
        yield from ((link.kind.lower(), lid) for lid, link in doc.links.items())

    def test_every_tag_round_trips(self, corpus):
        checked = 0
        for doc in corpus.documents:
            for tag, tag_id in self.all_tags(doc):
                fragment = serialize_tag(doc, tag, tag_id)
                assert fragment_normal_form(fragment) == tag_normal_form(doc, tag, tag_id)
                checked += 1
        assert checked > 50

    def test_event_fragment_shape(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        fragment = serialize_tag(doc, "event", "e1")
        assert fragment.startswith('<EVENT eid="e1" ')
        assert fragment.endswith(">arrived</EVENT>")

    def test_link_fragment_has_arg_attrs(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        fragment = serialize_tag(doc, "tlink", "l1")
        tag, attrs, text = fragment_normal_form(fragment)
        assert tag == "TLINK"
        assert attrs["relType"] == "IS_INCLUDED"
        assert attrs["eventInstanceID"] == "ei1"
        assert attrs["relatedToTime"] == "t1"
        assert text == ""

    def test_signal_id_serialized(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        _, attrs, _ = fragment_normal_form(serialize_tag(doc, "tlink", "l2"))
        assert attrs["signalID"] == "s1"

    def test_missing_id(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        with pytest.raises(CommandError, match="no event"):
            serialize_tag(doc, "event", "e99")

    def test_unknown_tag_family(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        with pytest.raises(CommandError, match="unknown tag family"):
            serialize_tag(doc, "paragraph", "p1")

    def test_wrong_link_family(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        with pytest.raises(CommandError):
            serialize_tag(doc, "slink", "l1")  # l1 is a TLINK


class TestLinkAttributeNames:
    """serialize_tag names a link's arguments as link_arg_attr_names of the
    tests' reference does, for every shape of link that a load accepts. A
    load refuses the others: an SLINK with a TIMEX arg2."""

    KINDS = ("TLINK", "SLINK", "ALINK")
    SHAPES = list(itertools.product((INSTANCE, TIMEX), repeat=2))

    def expected(self, link):
        a1, a2 = link_arg_attr_names(link.kind, link.arg1, link.arg2)
        return link.kind, {"lid": link.lid, "relType": link.rel_type,
                           a1: link.arg1.ref_id, a2: link.arg2.ref_id}, ""

    def test_kinds_are_the_table(self):
        assert set(self.KINDS) == LINK_ARGS.keys()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kind1, kind2", SHAPES)
    def test_every_link_shape(self, kind, kind1, kind2, tmp_path):
        link = Link("l1", kind, "BEFORE", IntervalRef(kind1, "a"), IntervalRef(kind2, "b"))
        doc = Document(1, "d.tml", links={"l1": link})
        if kind2 not in {arg_kind for _, arg_kind in LINK_ARGS[kind][1]}:
            store = Store(tmp_path)
            store.save_corpus(Corpus("c", "fold=none", [doc]))
            with pytest.raises(StoreError, match=r"unknown \(link kind, arg1 kind, arg2 kind\)"):
                store.load_corpus("c")
            return
        fragment = serialize_tag(doc, kind.lower(), "l1")
        assert fragment_normal_form(fragment) == self.expected(link)

    @pytest.mark.parametrize("fold", [CAVAT_FOLD, COMPACT_FOLD], ids=lambda f: f.name)
    def test_every_fold_row(self, fold):
        """A swapping row moves each argument to the attribute of its new
        position: a TIMEX arg2 becomes a timeID arg1."""
        swapped_rows = 0
        for original, (target, swap) in fold.mapping.items():
            swapped = swap and target != original
            swapped_rows += swapped
            for kind1, kind2 in self.SHAPES:
                a, b = IntervalRef(kind1, "a"), IntervalRef(kind2, "b")
                doc = apply_fold(Document(1, "d.tml", links={
                    "l1": Link("l1", "TLINK", original, a, b)}), fold)
                link = Link("l1", "TLINK", target, *((b, a) if swapped else (a, b)))
                fragment = serialize_tag(doc, "tlink", "l1")
                assert fragment_normal_form(fragment) == self.expected(link)
        assert swapped_rows >= 5


class TestBrowseScreen:
    def test_event_shows_instances(self, corpus):
        doc = select_document(corpus, "loop_eventid.tml")
        out = browse_tag(doc, "event", "e1")
        assert out.startswith("EVENT e1")
        assert "MAKEINSTANCE ei1:" in out
        assert "MAKEINSTANCE ei2:" in out

    def test_instance_shows_event_text(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = browse_tag(doc, "instance", "ei1")
        assert 'Event e1: "arrived"' in out

    def test_link_shows_arg_text_and_signal(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = browse_tag(doc, "tlink", "l2")
        assert 'signal: s1 "before"' in out

    def test_event_position(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = browse_tag(doc, "event", "e1")
        assert "position: " in out

    def test_csv_two_rows(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = browse_tag(doc, "timex3", "t1", fmt="csv")
        lines = out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "tid"
        assert len(header) == len(lines[1].split(","))

    def test_unknown_format(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        with pytest.raises(CommandError, match="unknown browse format"):
            browse_tag(doc, "event", "e1", fmt="xml")


class TestLinkContext:
    def test_marks_both_args(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = show_link_context(doc, "l2")
        assert "[" in out and "]" in out
        assert 'TLINK l2: ei2 BEFORE ei3 (signal: "before")' in out.splitlines()[-1]

    def test_no_signal_no_parenthetical(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        out = show_link_context(doc, "l1")
        assert "signal" not in out

    def test_dangling_arg_notes(self, corpus):
        doc = select_document(corpus, "orphans.tml")
        out = show_link_context(doc, "l1")
        assert "note: arg1 ei9 does not resolve" in out

    def test_missing_link(self, corpus):
        doc = select_document(corpus, "consistent.tml")
        with pytest.raises(CommandError, match="no link"):
            show_link_context(doc, "l99")


class TestEscapes:
    """The fragment escapes against xml.sax.saxutils, which browse no
    longer imports."""

    ALPHABET = "&<>\"'\n\r\t a;#é"

    def strings(self):
        rng = random.Random(22)
        yield from ("", "&amp;", "\"'", "'", '"', "a\r\nb")
        for _ in range(2000):
            yield "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(1, 12)))

    def test_text_matches_saxutils(self):
        for text in self.strings():
            assert text.translate(_TEXT_ESCAPES) == escape(text)

    def test_attribute_matches_saxutils(self):
        for value in self.strings():
            assert _quoteattr(value) == quoteattr(value)

    def test_cli_imports_no_network_modules(self):
        """urllib.request (which xml.sax.saxutils imports) would bring in
        these with it, at a start-up cost paid by every tmlwb process."""
        src = Path(tmlwb.__file__).resolve().parent.parent
        found = subprocess.run(
            [sys.executable, "-c", "import sys, tmlwb.cli; print(sorted(m for m in "
             "('ssl', 'socket', 'urllib.request', 'email') if m in sys.modules))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert found == "[]\n"

    def test_cli_imports_no_importlib_resources(self):
        """tmlwb reads no package data, so importlib.resources and its
        submodules stay out of every tmlwb process. -S keeps out the site
        hooks, whose .pth files may import it themselves."""
        src = Path(tmlwb.__file__).resolve().parent.parent
        found = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, tmlwb.cli; print(sorted(m for m in "
             "sys.modules if m.startswith('importlib.resources')))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert found == "[]\n"
