"""Every report over the fixture corpus, pinned by one hash.

The space: every tag x field x report x granularity, unfiltered, in all
three formats; plus, for every filter field and op, a distribution of the
tag's id field (which names exactly the occurrences the filter keeps).
The hash was first recorded with the per-occurrence report code that came
before the one-pass column reports, so any change in any output shows. It
was recorded again when sentence groups began to sort by sentence number
rather than as "file:sentence" strings. That moved only the by-sentence
reports, in which the groups of all_relations.tml (sentences :0 to :13)
changed order.
"""
import hashlib

import pytest

from tmlwb.ingest import get_fold_scheme, import_corpus
from tmlwb.query import (
    FORMATS, GRANULARITIES, REPORTS, TAG_FIELDS, Filter, Query, format_report,
    run_query,
)

from conftest import FIXTURE_DIR

EXPECTED = {
    "none": "033243b6d15be51f3578820f7a1816a32050258b16f598938ffc685da3f19c70",
    "cavat": "d1478a38d1c1e1612dd31f148f95727e5e608b2ea66f252f97a2403a50b4cfeb",
}


def _queries(corpus):
    for tag, fields in TAG_FIELDS.items():
        for name in fields:
            for report in REPORTS:
                for granularity in GRANULARITIES:
                    for fmt in FORMATS:
                        yield Query(report, tag, name, fmt=fmt,
                                    granularity=granularity)
        for name in fields:
            values = run_query(corpus, Query("list", tag, name)).rows
            value = values[0][1].swapcase() if values else "x"
            for op, operand in (("is", value), ("is_not", value),
                                ("filled", None), ("unfilled", None)):
                yield Query("distribution", tag, fields[0],
                            filter=Filter(name, op, operand))


@pytest.mark.parametrize("fold", sorted(EXPECTED))
def test_report_space_hash(fold):
    corpus = import_corpus(FIXTURE_DIR, "fixture", get_fold_scheme(fold))
    digest = hashlib.sha256()
    count = 0
    for q in _queries(corpus):
        digest.update(repr(q).encode("utf-8") + b"\0")
        digest.update(format_report(run_query(corpus, q), q).encode("utf-8") + b"\0")
        count += 1
    assert count == 1922
    assert digest.hexdigest() == EXPECTED[fold]
