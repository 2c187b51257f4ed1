"""Differential property test: on generated TLINK sets, the integer-point
verdict of check_consistency equals the paper's agenda/database closure,
its count equals the assertions over named points, the whole result equals
the explanation stage's, and that equals the explanation over named points
(reference.explain), message included."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tmlwb.model import TLINK_RELATIONS
from tmlwb.point_algebra import check_consistency, explain, verdict

import reference
from conftest import make_doc
from reference import document_assertions, oracle_consistency

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
        result, named = explain(doc), reference.explain(doc)
        assert check_consistency(doc) == result
        assert (result, result.message) == (named, named.message)
