import itertools
import random
import xml.etree.ElementTree as ET
from collections import Counter
from xml.sax.saxutils import escape

import pytest

from tmlwb import tokenizer
from tmlwb.errors import LoadError
from tmlwb.ingest import (
    CAVAT_FOLD, COMPACT_FOLD, NO_FOLD, apply_fold, get_fold_scheme,
    import_corpus, parse_document,
)
from tmlwb.model import INSTANCE, TIMEX, IntervalRef

import reference
from conftest import FIXTURE_DIR, assert_same_document
from reference import WORD, fold_lossless, tlink_to_assertions


class TestParseDocument:
    def test_basic_counts(self, tmp_path):
        path = tmp_path / "basic.tml"
        path.write_text(
            '<TimeML>The <EVENT eid="e1" class="OCCURRENCE">talks</EVENT> '
            'ended on <TIMEX3 tid="t1" type="DATE" value="1998-01-01">'
            'Thursday</TIMEX3>.\n'
            '<TLINK lid="l1" relType="IS_INCLUDED" eventInstanceID="ei1" '
            'relatedToTime="t1"/>\n</TimeML>')
        doc = parse_document(path)
        assert len(doc.events) == 1
        assert len(doc.timexes) == 1
        assert len(doc.links) == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(LoadError, match="cannot read"):
            parse_document(tmp_path)  # a directory

    def test_empty_document(self, tmp_path):
        path = tmp_path / "empty.tml"
        path.write_text("<TimeML></TimeML>")
        doc = parse_document(path)
        assert not doc.events and not doc.timexes and not doc.links
        assert doc.surfaces == doc.lemmas == []
        assert doc.sentence_bounds == [0]

    def test_two_instances_one_event(self, corpus):
        doc = corpus.document_by_filename("loop_eventid.tml")
        assert len(doc.events) == 1
        assert len(doc.instances) == 2
        assert len(doc.tlinks) == 1
        link = doc.tlinks[0]
        assert {doc.instances[link.arg1.ref_id].event_id,
                doc.instances[link.arg2.ref_id].event_id} == {"e1"}

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "broken.tml"
        path.write_text("<TimeML><EVENT eid='e1'>oops</TimeML>")
        with pytest.raises(LoadError) as exc:
            parse_document(path)
        assert "broken.tml" in str(exc.value)

    def test_unknown_reltype_skips_link(self, tmp_path):
        path = tmp_path / "weird.tml"
        path.write_text(
            '<TimeML>text\n'
            '<TLINK lid="l1" relType="OVERLAPS" timeID="t1" relatedToTime="t2"/>\n'
            '<TLINK lid="l2" relType="BEFORE" timeID="t1" relatedToTime="t2"/>\n'
            '</TimeML>')
        doc = parse_document(path)
        assert list(doc.links) == ["l2"]
        assert any("OVERLAPS" in w for w in doc.warnings)

    def test_arg_kinds(self, corpus):
        doc = corpus.document_by_filename("consistent.tml")
        l1 = doc.links["l1"]
        assert l1.arg1.kind == INSTANCE
        assert l1.arg2.kind == TIMEX

    def test_argument_attribute_order(self, tmp_path):
        """Of two attributes that may carry an argument, the first with a
        value wins: eventInstanceID before timeID, relatedToEventInstance
        before relatedToTime; an empty value falls through. An SLINK's arg2
        is subordinatedEventInstance only."""
        path = tmp_path / "args.tml"
        path.write_text(
            '<TimeML>text\n'
            '<TLINK lid="l1" relType="BEFORE" timeID="t1" eventInstanceID="ei1" '
            'relatedToTime="t2" relatedToEventInstance="ei2"/>\n'
            '<TLINK lid="l2" relType="BEFORE" eventInstanceID="" timeID="t1" '
            'relatedToEventInstance="" relatedToTime="t2"/>\n'
            '<ALINK lid="l3" relType="INITIATES" eventInstanceID="ei1" timeID="t1" '
            'relatedToEventInstance="ei2" relatedToTime="t2"/>\n'
            '<SLINK lid="l4" relType="MODAL" timeID="t1" '
            'subordinatedEventInstance="ei2" relatedToEventInstance="ei3"/>\n'
            '<SLINK lid="l5" relType="MODAL" eventInstanceID="ei1" '
            'relatedToEventInstance="ei2" relatedToTime="t2"/>\n'
            '<TLINK lid="l6" relType="BEFORE" eventInstanceID="" relatedToTime="t2"/>\n'
            '</TimeML>')
        doc = parse_document(path)
        args = {lid: (link.arg1, link.arg2) for lid, link in doc.links.items()}
        assert args == {
            "l1": (IntervalRef(INSTANCE, "ei1"), IntervalRef(INSTANCE, "ei2")),
            "l2": (IntervalRef(TIMEX, "t1"), IntervalRef(TIMEX, "t2")),
            "l3": (IntervalRef(INSTANCE, "ei1"), IntervalRef(INSTANCE, "ei2")),
            "l4": (IntervalRef(TIMEX, "t1"), IntervalRef(INSTANCE, "ei2")),
        }
        assert "SLINK l5 missing an argument; skipped" in doc.warnings
        assert "TLINK l6 missing an argument; skipped" in doc.warnings

    def test_token_spans_and_lemmas(self, corpus):
        doc = corpus.document_by_filename("consistent.tml")
        assert doc.text(doc.events["e1"]) == "arrived"
        lemmas = dict(zip(doc.events, doc.column("event", "lemma")))
        assert lemmas["e1"] == "arriv"  # bare suffix strip, no e-restoration
        assert doc.text(doc.timexes["t1"]) == "Friday."
        assert doc.text(doc.signals["s1"]) == "before"

    def test_dangling_reference_warns(self, corpus):
        doc = corpus.document_by_filename("orphans.tml")
        assert any("e99" in w for w in doc.warnings)

    def test_deep_nesting(self, tmp_path):
        # deeper than the interpreter's recursion limit
        path = tmp_path / "deep.tml"
        path.write_text('<TimeML>' + '<s>' * 1200 + 'hello <EVENT eid="e1">ran</EVENT>.'
                        + '</s>' * 1200 + '</TimeML>')
        doc = parse_document(path)
        assert doc.surfaces == ["hello", "ran."]
        assert doc.text(doc.events["e1"]) == "ran."


SPAN_IDS = {"EVENT": "eid", "TIMEX3": "tid", "SIGNAL": "sid"}


def naive_span_tokens(path):
    """{(tag, id): token indices} by the quadratic reference: offsets summed
    anew at every element, and every token scanned for every span. Also
    returns the text, the (start, end) offsets and the (sentence, word)
    position of every token, and the character range of every element."""
    root = ET.parse(path).getroot()
    chars, span_of = [], {}

    def collect(elem):
        start = sum(len(c) for c in chars)
        if elem.text:
            chars.append(elem.text)
        for child in elem:
            collect(child)
            if child.tail:
                chars.append(child.tail)
        span_of[elem] = (start, sum(len(c) for c in chars))

    collect(root)
    text = "".join(chars)
    offsets, positions = [], []
    for s_index, sentence in enumerate(tokenizer.sentence_spans(text)):
        for w_index, word in enumerate(WORD.finditer(text, *sentence)):
            offsets.append(word.span())
            positions.append((s_index, w_index))
    result = {}
    for elem in root.iter():  # document order: the first of a duplicate id wins
        tag = elem.tag.upper()
        key = (tag, elem.get(SPAN_IDS.get(tag, "")))
        if tag in SPAN_IDS and key[1] and key not in result:
            start, end = span_of[elem]
            result[key] = [i for i, (ts, te) in enumerate(offsets)
                           if ts < end and te > start]
    return text, offsets, positions, span_of, result


def fast_span_tokens(doc):
    return {(tag, tag_id): list(range(item.first, item.end))
            for tag, family in (("EVENT", doc.events), ("TIMEX3", doc.timexes),
                                ("SIGNAL", doc.signals))
            for tag_id, item in family.items()}


_WORDS = ["the", "Talks", "ended", "on", "Friday.", "it", "rained", "3",
          "(again)", "said:", "U.S.", "\"Yes!\""]
_GAPS = ["", "", " ", "  ", "\n", "\n\n", ". ", "? ", " \t"]
_TAGS = ["EVENT", "TIMEX3", "SIGNAL", "s", "p"]


def random_timeml(rng: random.Random, max_depth=4) -> str:
    """A TimeML document with spans nested, adjacent, empty and starting or
    ending mid-word, tails, and text outside any sentence element."""
    serial = itertools.count(1)

    def text():
        return "".join(rng.choice(_WORDS) + rng.choice(_GAPS)
                       for _ in range(rng.randint(0, 3)))

    def element(depth):
        tag = rng.choice(_TAGS)
        attr = f' {SPAN_IDS[tag]}="x{next(serial)}"' if tag in SPAN_IDS else ""
        if rng.random() < 0.15:
            return f"<{tag}{attr}/>"
        return f"<{tag}{attr}>{content(depth + 1)}</{tag}>"

    def content(depth):
        parts = [text()]
        if depth < max_depth:
            for _ in range(rng.randint(0, 3)):
                parts += [element(depth), text()]
        return "".join(parts)

    return f"<TimeML>{content(0)}</TimeML>"


class TestSpanTokensMatchReference:
    def check(self, path):
        doc = parse_document(path)
        assert_same_document(doc, reference.parse_document(path))
        text, offsets, positions, span_of, expected = naive_span_tokens(path)
        surfaces = [text[s:e] for s, e in offsets]
        assert doc.surfaces == surfaces
        assert fast_span_tokens(doc) == expected
        families = {"EVENT": doc.events, "TIMEX3": doc.timexes, "SIGNAL": doc.signals}
        lemmas = {tag: dict(zip(families[tag], doc.column(tag.lower(), "lemma")))
                  for tag in families}
        for (tag, tag_id), indices in expected.items():
            span = families[tag][tag_id]
            assert doc.text(span) == " ".join(surfaces[i] for i in indices)
            # the lemma column holds None for a span with no tokens
            assert (lemmas[tag][tag_id] or "") == " ".join(tokenizer.lemmatize(surfaces[i])
                                                           for i in indices)
            assert doc.position(span) == (positions[indices[0]] if indices else None)
            assert ([doc.sentence_of(i) for i in indices]
                    == [positions[i][0] for i in indices])
        return text, span_of

    @pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.tml")),
                             ids=lambda p: p.name)
    def test_fixture(self, path):
        self.check(path)

    def test_random_documents(self, tmp_path):
        seen = dict.fromkeys(("nested", "adjacent", "empty", "mid-word"), 0)
        for seed in range(300):
            path = tmp_path / f"r{seed}.tml"
            path.write_text(random_timeml(random.Random(seed)), encoding="utf-8")
            text, span_of = self.check(path)
            ranges = [r for e, r in span_of.items() if e.tag in SPAN_IDS]
            for start, end in ranges:
                seen["empty"] += start == end
                seen["mid-word"] += any(0 < i < len(text) and not text[i - 1].isspace()
                                        and not text[i].isspace() for i in (start, end))
                seen["nested"] += any(s <= start and end <= e and (s, e) != (start, end)
                                      for s, e in ranges)
                seen["adjacent"] += any(s < e == start for s, e in ranges)
        assert all(seen.values()), seen


_OPENERS = ["", "", "", '"', "'", "(", "["]
_STEMS = ["the", "talks", "Talks", "ended", "U.S.", "3", "1998", "said:", "it's",
          "e.g.", "\u00e9t\u00e9", "RUNNING", "boxes"]
_CLOSERS = ["", "", "", ".", "?", "!", "...", '."', ".'", ".)", ".]", '?")', "!'"]
# spaces and tabs, CRLF, blank and whitespace-only lines, NBSP, the Unicode
# line and paragraph separators, NEL and the ideographic space
_SPACES = ["", " ", "  ", "\t", " \t ", "\n", "\r\n", "\n\n", "\r\n\r\n",
           "\n \n", "\n\t\n", " \n  \n ", "\r\n \t\r\n", "\u00a0", " \u00a0 ",
           "\u2028", "\u2029", "\u3000", "\x85"]


def random_text(rng: random.Random) -> str:
    """Words, terminators followed by quotes or brackets and then capitals,
    digits or lowercase, and odd whitespace; some texts are empty or
    whitespace only."""
    if rng.random() < 0.1:
        return "".join(rng.choice(_SPACES) for _ in range(rng.randint(0, 3)))
    parts = [rng.choice(_SPACES)]
    for _ in range(rng.randint(1, 25)):
        parts += [rng.choice(_OPENERS), rng.choice(_STEMS), rng.choice(_CLOSERS),
                  rng.choice(_SPACES)]
    return "".join(parts)


class TestOneScanTokenization:
    """The one word scan of parse_document gives the tokens and sentence
    bounds of a scan per sentence."""

    def test_random_texts(self, tmp_path):
        seen = Counter()
        for seed in range(400):
            text = random_text(random.Random(seed))
            path = tmp_path / f"t{seed}.tml"
            # a character reference keeps a CR from being read as a line end
            path.write_text(f"<TimeML>{escape(text, {chr(13): '&#13;'})}</TimeML>",
                            encoding="utf-8")
            doc = parse_document(path)
            expected = reference.parse_document(path)
            naive_text, offsets, positions, _, _ = naive_span_tokens(path)
            assert naive_text == text
            surfaces = [text[s:e] for s, e in offsets]
            sentence_lengths = Counter(sentence for sentence, _ in positions)
            bounds = list(itertools.accumulate(
                (sentence_lengths[k] for k in range(len(sentence_lengths))), initial=0))
            assert doc.surfaces == expected.surfaces == surfaces
            assert doc.lemmas == expected.lemmas == [tokenizer.lemmatize(s) for s in surfaces]
            assert doc.sentence_bounds == expected.sentence_bounds == bounds
            seen["empty or blank"] += not text.strip()
            seen["several sentences"] += len(bounds) > 2
            seen.update(name for name, marker in (
                ("CRLF", "\r\n"), ("tab", "\t"), ("blank line", "\n\n"),
                ("whitespace-only line", "\n \n"), ("NBSP", "\u00a0"),
                ("line separator", "\u2028"), ("quote after terminator", '."'),
                ("bracket after terminator", ".)")) if marker in text)
        assert len(seen) == 10 and all(n >= 5 for n in seen.values()), seen


class TestLemmaMemo:
    def counted_lemmatize(self, monkeypatch) -> Counter:
        calls = Counter()
        lemmatize = tokenizer.lemmatize

        def counted(surface):
            calls[surface] += 1
            return lemmatize(surface)

        monkeypatch.setattr(tokenizer, "lemmatize", counted)
        return calls

    def test_once_per_distinct_surface_per_import(self, monkeypatch):
        calls = self.counted_lemmatize(monkeypatch)
        corpus = import_corpus(FIXTURE_DIR, "memo")
        surfaces = [s for doc in corpus.documents for s in doc.surfaces]
        assert len(surfaces) > len(set(surfaces))  # some surface repeats
        assert calls == Counter(set(surfaces))
        # no lemma outlives its import
        import_corpus(FIXTURE_DIR, "again")
        assert calls == Counter({surface: 2 for surface in surfaces})

    def test_lone_parses_share_no_lemmas(self, monkeypatch):
        calls = self.counted_lemmatize(monkeypatch)
        path = FIXTURE_DIR / "consistent.tml"
        surfaces = parse_document(path).surfaces
        parse_document(path)
        assert calls == Counter({surface: 2 for surface in surfaces})

    def test_import_equals_lone_parses(self):
        corpus = import_corpus(FIXTURE_DIR, "memo")
        paths = sorted(FIXTURE_DIR.iterdir())
        assert len(corpus.documents) == len(paths)
        for doc_id, (doc, path) in enumerate(zip(corpus.documents, paths), start=1):
            assert_same_document(doc, parse_document(path, doc_id))


class TestApplyFold:
    def fold_one(self, rel, scheme=CAVAT_FOLD):
        from conftest import make_doc
        doc = apply_fold(make_doc([(rel, "a", "b")]), scheme)
        link = doc.tlinks[0]
        return link.rel_type, link.arg1.ref_id, link.arg2.ref_id

    def test_after_becomes_before_swapped(self):
        assert self.fold_one("AFTER") == ("BEFORE", "b", "a")

    def test_before_is_fixed_point(self):
        assert self.fold_one("BEFORE") == ("BEFORE", "a", "b")

    def test_during_becomes_simultaneous_swapped(self):
        assert self.fold_one("DURING") == ("SIMULTANEOUS", "b", "a")

    def test_slink_untouched(self, corpus, tmp_path):
        path = tmp_path / "slink.tml"
        path.write_text(
            '<TimeML>text\n'
            '<SLINK lid="l1" relType="MODAL" eventInstanceID="ei1" '
            'subordinatedEventInstance="ei2"/>\n'
            '<TLINK lid="l2" relType="AFTER" eventInstanceID="ei1" '
            'relatedToEventInstance="ei2"/>\n</TimeML>')
        doc = apply_fold(parse_document(path), CAVAT_FOLD)
        assert doc.links["l1"].rel_type == "MODAL"
        assert doc.links["l1"].arg1.ref_id == "ei1"
        assert doc.links["l2"].rel_type == "BEFORE"

    @pytest.mark.parametrize("scheme", [NO_FOLD, CAVAT_FOLD, COMPACT_FOLD])
    def test_idempotent(self, corpus, scheme):
        for doc in corpus.documents:
            once = apply_fold(doc, scheme)
            twice = apply_fold(once, scheme)
            assert once == twice

    def test_cavat_lossless_per_link(self, corpus):
        assert fold_lossless(CAVAT_FOLD.mapping)
        for doc in corpus.documents:
            folded = apply_fold(doc, CAVAT_FOLD)
            for lid, link in doc.links.items():
                if link.kind != "TLINK":
                    continue
                assert tlink_to_assertions(link) == tlink_to_assertions(folded.links[lid])

    def test_compact_lossy(self):
        assert not fold_lossless(COMPACT_FOLD.mapping)


class TestImportCorpus:
    def test_fixture_corpus(self, corpus):
        assert len(corpus.documents) == 8
        assert [d.doc_id for d in corpus.documents] == list(range(1, 9))
        assert corpus.note == "fold=none"

    def test_empty_directory(self, tmp_path):
        with pytest.raises(LoadError):
            import_corpus(tmp_path, "empty")

    def test_malformed_file_skipped(self, tmp_path):
        (tmp_path / "a.tml").write_text("<TimeML>ok</TimeML>")
        (tmp_path / "b.tml").write_text("<TimeML><broken>")
        (tmp_path / "c.tml").write_text("<TimeML>ok too</TimeML>")
        result = import_corpus(tmp_path, "mixed")
        assert len(result.documents) == 2
        assert len(result.skipped) == 1
        assert "b.tml" in result.skipped[0]

    def test_reimport_isomorphic(self, corpus):
        other = import_corpus(FIXTURE_DIR, "again")
        assert len(other.documents) == len(corpus.documents)
        for a, b in zip(corpus.documents, other.documents):
            assert a.filename == b.filename
            for family in ("events", "instances", "timexes", "signals", "links"):
                assert set(getattr(a, family)) == set(getattr(b, family))


class TestFoldFiles:
    def test_unknown_scheme(self):
        with pytest.raises(LoadError):
            get_fold_scheme("mystery")
