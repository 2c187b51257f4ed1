import random
from pathlib import Path

import pytest

from tmlwb.ingest import import_corpus
from tmlwb.model import Document, IntervalRef, Link, INSTANCE, TLINK_RELATIONS

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "timeml"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def corpus():
    return import_corpus(FIXTURE_DIR, "fixture")


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    home = tmp_path / "wb"
    monkeypatch.setenv("TMLWB_HOME", str(home))
    return home


def assert_same_document(doc: Document, expected: Document) -> None:
    """Every field equal, dict order and warning order included."""
    assert doc == expected
    assert repr(doc) == repr(expected)


def make_doc(relations, doc_id=1, filename="synthetic.tml"):
    """Document with only TLINKs: relations is [(rel, a, b), ...] over
    interval id strings."""
    doc = Document(doc_id=doc_id, filename=filename)
    for i, (rel, a, b) in enumerate(relations, start=1):
        doc.links[f"l{i}"] = Link(
            f"l{i}", "TLINK", rel,
            IntervalRef(INSTANCE, a), IntervalRef(INSTANCE, b))
    return doc


def random_doc(rng: random.Random, max_intervals=8, max_links=12):
    n = rng.randint(1, max_intervals)
    ids = [f"ei{i}" for i in range(n)]
    rels = sorted(TLINK_RELATIONS)
    relations = []
    for _ in range(rng.randint(0, max_links)):
        relations.append((rng.choice(rels), rng.choice(ids), rng.choice(ids)))
    return make_doc(relations)


# whether each relation holds of intervals (s1, e1) and (s2, e2) on a
# timeline, following the point table of tmlwb.point_algebra
_HOLDS = {
    "BEFORE": lambda s1, e1, s2, e2: e1 < s2,
    "AFTER": lambda s1, e1, s2, e2: e2 < s1,
    "IBEFORE": lambda s1, e1, s2, e2: e1 == s2,
    "IAFTER": lambda s1, e1, s2, e2: e2 == s1,
    "INCLUDES": lambda s1, e1, s2, e2: s1 < s2 and e2 < e1,
    "IS_INCLUDED": lambda s1, e1, s2, e2: s2 < s1 and e1 < e2,
    "BEGINS": lambda s1, e1, s2, e2: s1 == s2 and e1 < e2,
    "BEGUN_BY": lambda s1, e1, s2, e2: s1 == s2 and e2 < e1,
    "ENDS": lambda s1, e1, s2, e2: e1 == e2 and s2 < s1,
    "ENDED_BY": lambda s1, e1, s2, e2: e1 == e2 and s1 < s2,
    **dict.fromkeys(("SIMULTANEOUS", "IDENTITY", "DURING", "DURING_INV"),
                    lambda s1, e1, s2, e2: s1 == s2 and e1 == e2),
}


def random_timeline_doc(rng: random.Random, max_intervals=10, max_links=16,
                        plant=False):
    """(document, planted lid or None). Intervals are drawn on a hidden
    timeline with few distinct instants, so that many endpoints coincide,
    and every TLINK states a relation that holds there: the document is
    consistent by construction. With plant, one TLINK is appended that
    gives a pair of intervals a relation that does not hold. Each relation
    pins down one Allen relation, so the planted link contradicts the link
    on the same pair that it was drawn against."""
    timeline = {}
    for i in range(rng.randint(1, max_intervals)):
        start = rng.randint(0, 5)
        timeline[f"ei{i}"] = (start, rng.randint(start + 1, 6))
    ids = list(timeline)
    rels = sorted(_HOLDS)
    relations = []
    for _ in range(rng.randint(0, max_links)):
        a, b = rng.choice(ids), rng.choice(ids)
        true = [r for r in rels if _HOLDS[r](*timeline[a], *timeline[b])]
        if true:  # overlapping intervals have no relation in the table
            relations.append((rng.choice(true), a, b))
    if not plant:
        return make_doc(relations), None
    # any interval is SIMULTANEOUS with itself, link or no link
    _, a, b = rng.choice(relations) if relations else (None, ids[0], ids[0])
    false = [r for r in rels if not _HOLDS[r](*timeline[a], *timeline[b])]
    relations.append((rng.choice(false), a, b))
    return make_doc(relations), f"l{len(relations)}"


def golden_check(name: str, actual: str):
    """Compare against a committed golden file; UPDATE_GOLDENS=1 rewrites."""
    import os
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS") == "1":
        path.write_text(actual + "\n", encoding="utf-8")
    expected = path.read_text(encoding="utf-8").rstrip("\n")
    assert actual == expected, f"golden mismatch for {name}"
