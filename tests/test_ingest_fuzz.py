"""Property test: parse_document on mutated fixture files returns a
Document or raises LoadError, never another exception."""
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tmlwb.errors import LoadError
from tmlwb.ingest import parse_document
from tmlwb.model import Document

from conftest import FIXTURE_DIR


FIXTURE_BYTES = [p.read_bytes() for p in sorted(FIXTURE_DIR.iterdir())]
_TAG = re.compile(rb"<[^<>]*>")
_ATTRIBUTE = re.compile(rb'\s[A-Za-z]+="[^"]*"')
_ID_VALUE = re.compile(rb'\b(?:eid|eiid|tid|sid|lid)="([^"]*)"')


# encodings an XML declaration may name: decodable by expat, multi-byte
# (expat refuses them), not a text encoding, failing to decode, unknown
ENCODINGS = ("utf-8", "latin-1", "utf-16", "shift_jis", "rot13", "idna", "nonesuch")


@st.composite
def mutated_timeml(draw) -> bytes:
    """A fixture file after one to four byte flips, truncations, tag or
    attribute deletions, ids made duplicates of other ids, or XML
    declarations put in front."""
    data = draw(st.sampled_from(FIXTURE_BYTES))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ("flip", "truncate", "tag", "attribute", "id", "declaration")))
        if kind == "declaration":
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


class TestParseFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mutated_timeml())
    def test_document_or_load_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.tml"
        path.write_bytes(data)
        try:
            doc = parse_document(path)
        except LoadError:
            return
        assert isinstance(doc, Document)
