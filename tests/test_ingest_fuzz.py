"""Differential property test: on mutated fixture files, parse_document
returns the Document of the two-pass reference parser (every field, dict
and warning order included), or both raise LoadError. No other exception
is raised."""
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tmlwb.errors import LoadError
from tmlwb.ingest import parse_document

import reference
from conftest import FIXTURE_DIR, assert_same_document


FIXTURE_BYTES = [p.read_bytes() for p in sorted(FIXTURE_DIR.iterdir())]
_TAG = re.compile(rb"<[^<>]*>")
_ATTRIBUTE = re.compile(rb'\s[A-Za-z]+="[^"]*"')
_ID_VALUE = re.compile(rb'\b(?:eid|eiid|tid|sid|lid)="([^"]*)"')
_TIMEX = re.compile(rb"<TIMEX3\b[^<>]*>[^<>]*</TIMEX3>")
_EVENT_START = re.compile(rb"<EVENT\b[^<>]*>")
_LINK = re.compile(rb"<[TSA]LINK\b[^<>]*/>")
_ROOT = (re.compile(rb"<TimeML>"), re.compile(rb"</TimeML>"))


# encodings an XML declaration may name: decodable by expat, multi-byte
# (expat refuses them), not a text encoding, failing to decode, unknown
ENCODINGS = ("utf-8", "latin-1", "utf-16", "shift_jis", "rot13", "idna", "nonesuch")


@st.composite
def mutated_timeml(draw) -> bytes:
    """A fixture file after one to four byte flips, truncations, tag or
    attribute deletions, ids made duplicates of other ids, XML declarations
    put in front, TIMEX3s moved into EVENTs, links moved before every tag,
    or a root renamed to EVENT."""
    data = draw(st.sampled_from(FIXTURE_BYTES))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ("flip", "truncate", "tag", "attribute", "id", "declaration",
             "nest", "links first", "event root")))
        if kind == "event root":
            start, end = (pattern.search(data) for pattern in _ROOT)
            if start and end and start.end() <= end.start():
                eid = draw(st.sampled_from((b"e1", b"e2", b"root")))
                data = (data[:start.start()] + b'<EVENT eid="' + eid + b'">'
                        + data[start.end():end.start()] + b"</EVENT>" + data[end.end():])
        elif kind in ("nest", "links first"):
            pattern = _TIMEX if kind == "nest" else _LINK
            matches = list(pattern.finditer(data))
            if not matches:
                continue
            m = draw(st.sampled_from(matches))
            rest = data[:m.start()] + data[m.end():]
            anchors = list((_EVENT_START if kind == "nest" else _ROOT[0]).finditer(rest))
            if not anchors:
                continue
            at = draw(st.sampled_from(anchors)).end()
            data = rest[:at] + m.group() + rest[at:]
        elif kind == "declaration":
            encoding = draw(st.sampled_from(ENCODINGS)).encode()
            data = b'<?xml version="1.0" encoding="' + encoding + b'"?>' + data
        elif kind == "flip":
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data) - 1))]
        else:
            pattern = {"tag": _TAG, "attribute": _ATTRIBUTE, "id": _ID_VALUE}[kind]
            matches = list(pattern.finditer(data))
            if not matches:
                continue
            m = draw(st.sampled_from(matches))
            if kind == "id":  # another id's value takes this one's place
                other = draw(st.sampled_from(matches)).group(1)
                data = data[:m.start(1)] + other + data[m.end(1):]
            else:
                data = data[:m.start()] + data[m.end():]
        if not data:
            break
    return data


def _parse(parse, path):
    try:
        return parse(path)
    except LoadError:
        return LoadError


class TestParseFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mutated_timeml())
    def test_document_or_load_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.tml"
        path.write_bytes(data)
        doc = _parse(parse_document, path)
        expected = _parse(reference.parse_document, path)
        if doc is LoadError or expected is LoadError:
            assert doc is expected
        else:
            assert_same_document(doc, expected)
