"""Differential property test: store format 3 loads every generated corpus
as the version-2 codec of tests/reference.py does (every tag, value, span,
token column and warning), but for the order of each tag's attributes,
which format 3 keeps and version 2 sorted. Reports, check output and
TimeML fragments of the loaded corpus are those of the version-2 corpus
with its attributes put back in tag order.

The generated documents have attribute names that differ only in case,
tags without attributes, zero or one token, and tags whose shapes are
shared or only equal."""
import json
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tmlwb.model import (
    Corpus, Document, Event, EventInstance, INSTANCE, IntervalRef, Link, Signal,
    TIMEX, TLINK_RELATIONS, Timex3,
)
from tmlwb.store import Store, corpus_fingerprint

import reference
from test_store import in_tag_order, loaded_shape, outputs

NAMES = ("eid", "class", "Class", "CLASS", "tense", "Tense", "pos",
         "signalID", "signalid", "type", "value")
VALUES = st.text(alphabet="aA &<>\"'\n", max_size=4)
# tokens are runs of non-whitespace
WORDS = st.text(alphabet="abAB.,&<'\"é", min_size=1, max_size=4)
RELATIONS = sorted(TLINK_RELATIONS)


@st.composite
def documents(draw, doc_id: int) -> Document:
    surfaces = draw(st.lists(WORDS, max_size=draw(st.sampled_from([0, 1, 8]))))
    count = len(surfaces)
    cuts = draw(st.sets(st.integers(1, count - 1))) if count > 1 else set()
    doc = Document(doc_id, f"d{doc_id}.tml",
                   sentence_bounds=[0, *sorted(cuts), count] if count else [0],
                   surfaces=surfaces,
                   lemmas=[draw(WORDS) for _ in surfaces],
                   warnings=draw(st.lists(VALUES, max_size=2)))
    shapes = draw(st.lists(st.lists(st.sampled_from(NAMES), unique=True, max_size=4)
                           .map(tuple), min_size=1, max_size=3))

    def keys_and_values():
        keys = draw(st.sampled_from(shapes))
        if not draw(st.booleans()):  # an equal tuple that is not shared
            keys = tuple(list(keys))
        return keys, draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))

    def span():
        if count == 0 or draw(st.booleans()):
            return 0, 0
        first = draw(st.integers(0, count - 1))
        return first, draw(st.integers(first + 1, count))

    for i in range(draw(st.integers(0, 4))):
        doc.events[f"e{i}"] = Event(f"e{i}", *keys_and_values(), *span())
    for i in range(draw(st.integers(0, 4))):
        event_id = draw(st.sampled_from([*doc.events, "e99", ""]))
        doc.instances[f"ei{i}"] = EventInstance(f"ei{i}", event_id, *keys_and_values())
    for i in range(draw(st.integers(0, 3))):
        doc.timexes[f"t{i}"] = Timex3(f"t{i}", *keys_and_values(), *span())
    for i in range(draw(st.integers(0, 2))):
        doc.signals[f"s{i}"] = Signal(f"s{i}", *span())
    refs = ([IntervalRef(INSTANCE, i) for i in [*doc.instances, "ei99"]]
            + [IntervalRef(TIMEX, t) for t in [*doc.timexes, "t99"]])
    for i in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["TLINK", "TLINK", "SLINK", "ALINK"]))
        doc.links[f"l{i}"] = Link(
            f"l{i}", kind, draw(st.sampled_from(RELATIONS)),
            draw(st.sampled_from(refs)), draw(st.sampled_from(refs)),
            draw(st.sampled_from([None, *doc.signals, "s99"])),
            draw(st.sampled_from([None, "USER"])))
    return doc


@st.composite
def corpora(draw) -> Corpus:
    count = draw(st.integers(1, 3))
    return Corpus("fuzz", "fold=none",
                  [draw(documents(doc_id)) for doc_id in range(1, count + 1)])


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_format_3_loads_like_version_2(corpus):
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        store.save_corpus(corpus)
        loaded = store.load_corpus(corpus.name)
    v2 = reference.v2_corpus_from_json(json.loads(reference.v2_payload(corpus)))
    expected = in_tag_order(v2, corpus)
    assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)
    assert corpus_fingerprint(expected) == corpus_fingerprint(corpus)
    assert reference.v2_payload(loaded) == reference.v2_payload(corpus)
    assert loaded_shape(loaded) == loaded_shape(expected)
    assert outputs(loaded) == outputs(expected)
    for doc in loaded.documents:
        # every tag of a shape shares one keys tuple
        keys = [tag.keys for pool in (doc.events, doc.instances, doc.timexes)
                for tag in pool.values()]
        assert len({id(k) for k in keys}) == len(set(keys))
