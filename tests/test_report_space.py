"""Every report over the fixture corpus, pinned by one hash.

The space: every tag x field x report x granularity, unfiltered, in all
three formats; plus, for every filter field and op, a distribution of the
tag's id field (which names exactly the occurrences the filter keeps).
The hash was recorded with the per-occurrence report code that came
before the one-pass column reports, so any change in any output shows.
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
    "none": "4e8ed466c2c67c1a49303daf0dfddd032847fdf2d4d5244c10ab06422f460f14",
    "cavat": "ba8351fc7c2f021a8f139d6743f7636ef43120ef9f8b966208bca45c77aeedd4",
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
