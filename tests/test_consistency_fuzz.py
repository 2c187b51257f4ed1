"""Differential property test: on generated TLINK sets, the integer-point
verdict of check_consistency equals the paper's agenda/database closure,
its count equals document_assertions, and the whole result equals the
explanation stage's."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tmlwb.model import TLINK_RELATIONS
from tmlwb.point_algebra import (
    check_consistency, document_assertions, explain, verdict,
)

from conftest import make_doc
from reference import oracle_consistency

IDS = ("e1", "e2", "e3", "e4", "t1", "t2")

tlinks = st.lists(st.tuples(st.sampled_from(sorted(TLINK_RELATIONS)),
                            st.sampled_from(IDS), st.sampled_from(IDS)),
                  max_size=14)


class TestVerdictProperty:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(tlinks)
    def test_matches_closure(self, relations):
        doc = make_doc(relations)
        consistent, processed = verdict(doc)
        assert consistent == oracle_consistency(doc)
        axioms, agenda = document_assertions(doc)
        assert processed == len(axioms) + len(agenda)
        assert check_consistency(doc) == explain(doc)
