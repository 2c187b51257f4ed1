"""The columns reports read (Document.column): built once per loaded
corpus and kept, never stored, and never carried into a fold.

A report on a corpus that has answered other reports must equal the same
report on a freshly loaded corpus, and the per-occurrence reference of
tests/reference.py. A kept column stored under the wrong key (say, one key
for the event and the instance pools of a field, or a filter's column under
the value column's key) makes a later report read another column, which
the sequences below catch.
"""
import random

import pytest

import reference
from tmlwb.ingest import apply_fold, get_fold_scheme, import_corpus
from tmlwb.model import Corpus
from tmlwb.query import (
    FORMATS, GRANULARITIES, REPORTS, TAG_FIELDS, Filter, Query, format_report,
    run_query,
)
from tmlwb.store import Store, corpus_fingerprint

from conftest import FIXTURE_DIR

OPS = ("is", "is_not", "filled", "unfilled")


def _random_queries(rng: random.Random, corpus, count: int) -> list[Query]:
    """count queries in random order that between them cover every tag and
    field, report kind, where op, granularity and format."""
    pairs = [(tag, name) for tag, fields in TAG_FIELDS.items() for name in fields]
    picks = pairs + [rng.choice(pairs) for _ in range(count - len(pairs))]
    rng.shuffle(picks)
    queries = []
    for i, (tag, name) in enumerate(picks):
        flt = None
        op = (None, *OPS)[i % 5] if i < 10 else rng.choice((None, *OPS))
        if op is not None:
            field = rng.choice(TAG_FIELDS[tag])
            value = None
            if op in ("is", "is_not"):
                values = [v for _, v in run_query(corpus, Query("list", tag, field)).rows]
                value = rng.choice(values + ["nosuch"]).swapcase()
            flt = Filter(field, op, value)
        queries.append(Query(REPORTS[i % 3] if i < 3 else rng.choice(REPORTS), tag, name,
                             filter=flt, fmt=rng.choice(FORMATS),
                             granularity=GRANULARITIES[i % 3] if i < 3
                             else rng.choice(GRANULARITIES),
                             min_freq=rng.choice((None, None, 2))))
    return queries


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A store holding the fixture corpus under each fold."""
    store = Store(tmp_path_factory.mktemp("wb"))
    for fold in ("none", "cavat"):
        store.save_corpus(import_corpus(FIXTURE_DIR, fold, get_fold_scheme(fold)))
    return store


class TestKeptColumns:
    @pytest.mark.parametrize("seed, fold", [(1301, "none"), (1302, "cavat"), (1303, "none")])
    def test_sequence_matches_fresh_corpus_and_reference(self, stored, seed, fold):
        rng = random.Random(seed)
        warm = stored.load_corpus(fold)
        queries = _random_queries(rng, stored.load_corpus(fold), 90)
        assert {q.report for q in queries} == set(REPORTS)
        assert {q.granularity for q in queries} == set(GRANULARITIES)
        assert {q.fmt for q in queries} == set(FORMATS)
        assert {q.filter.op for q in queries if q.filter} == set(OPS)
        for q in queries:
            fresh = stored.load_corpus(fold)
            expected = format_report(run_query(fresh, q), q)
            assert format_report(run_query(warm, q), q) == expected, q
            assert format_report(reference.run_query(fresh, q), q) == expected, q

    def test_event_and_instance_pools_differ(self, corpus):
        """The fixture corpus has more instances than events (two share one
        event, one dangles), so the two pools of one field give different
        reports, and a key shared between them shows."""
        for doc in corpus.documents:
            doc.column("event", "text")
        q = Query("state", "instance", "text")
        fresh = import_corpus(FIXTURE_DIR, "fixture")
        assert (format_report(run_query(corpus, q), q)
                == format_report(run_query(fresh, q), q)
                != format_report(run_query(fresh, Query("state", "event", "text")), q))


def _every_report_kind(corpus) -> None:
    for tag, fields in TAG_FIELDS.items():
        for report in REPORTS:
            for granularity in GRANULARITIES:
                q = Query(report, tag, fields[-1], granularity=granularity,
                          filter=Filter(fields[0], "filled"))
                format_report(run_query(corpus, q), q)


class TestColumnsStayInMemory:
    def test_fingerprint_and_stored_bytes_unchanged(self, stored, tmp_path):
        path = stored.root / "corpora" / "none" / "corpus.json"
        stored_bytes = path.read_bytes()
        corpus = stored.load_corpus("none")
        fingerprint = corpus_fingerprint(corpus)
        _every_report_kind(corpus)
        assert corpus_fingerprint(corpus) == fingerprint
        again = Store(tmp_path / "again")
        again.save_corpus(corpus)
        assert (again.root / "corpora" / "none" / "corpus.json").read_bytes() == stored_bytes
        assert path.read_bytes() == stored_bytes

    def test_fold_after_a_report_shows_folded_reltypes(self):
        corpus = import_corpus(FIXTURE_DIR, "fixture")
        q = Query("distribution", "tlink", "reltype", granularity="document")
        unfolded = format_report(run_query(corpus, q), q)
        cavat = get_fold_scheme("cavat")
        folded = Corpus(corpus.name, corpus.note,
                        [apply_fold(doc, cavat) for doc in corpus.documents])
        expected = format_report(run_query(import_corpus(FIXTURE_DIR, "f", cavat), q), q)
        assert format_report(run_query(folded, q), q) == expected != unfolded
        assert format_report(run_query(corpus, q), q) == unfolded
