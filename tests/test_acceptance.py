"""Acceptance suite: one test per criterion, each printing a single
pass/fail line. Criterion 10 needs a TimeBank v1.2 checkout; point
TIMEBANK_DIR at its data/timeml directory to enable it."""
import os
import random
import time
from pathlib import Path

import pytest

from tmlwb.cli import parse_command
from tmlwb.graph_checks import (
    check_orphans, check_tlink_loop, format_subgraph_report, subgraph_stats,
)
from tmlwb.ingest import CAVAT_FOLD, COMPACT_FOLD, apply_fold, import_corpus
from tmlwb.point_algebra import check_consistency
from tmlwb.query import Filter, Query, TAG_FIELDS, format_percent, format_report
from tmlwb.query import report_distribution, report_list, report_state, run_query
from tmlwb.store import Store, corpus_fingerprint

from tmlwb.browse import serialize_tag

from conftest import golden_check, make_doc, random_doc
from reference import (
    fragment_normal_form, oracle_consistency, tag_normal_form, tlink_to_assertions,
)
from test_graph_checks import reference_shaped_doc
from test_point_algebra import POINT_TABLE, link


def passed(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_01_entropy_reproduction():
    start = time.perf_counter()
    report = subgraph_stats(reference_shaped_doc())
    assert report.entropy == pytest.approx(0.448277644573, abs=1e-9)
    text = "\n".join(format_subgraph_report(report))
    assert "Entropy of subgraph sizes:  0.448277644573" in text
    assert "Mean graph size 5.3 nodes" in text
    assert "has 50.7% of all nodes" in text
    assert time.perf_counter() - start < 1.0
    passed(1, "entropy reproduction")


def test_criterion_02_point_mapping_fidelity():
    assert len(POINT_TABLE) == 14
    for rel, expected in POINT_TABLE.items():
        assert tlink_to_assertions(link(rel)) == expected, rel
    passed(2, "point-mapping fidelity")


def test_criterion_03_oracle_equivalence():
    rng = random.Random(20100517)
    start = time.perf_counter()
    for _ in range(1000):
        doc = random_doc(rng, max_intervals=8, max_links=12)
        assert check_consistency(doc).consistent == oracle_consistency(doc)
    assert time.perf_counter() - start < 10.0
    passed(3, "oracle equivalence, 1000 random documents")


def test_criterion_04_inconsistency_example():
    clash = make_doc([("BEFORE", "A", "B"), ("INCLUDES", "B", "A")])
    assert not check_consistency(clash).consistent
    loop = make_doc([("IDENTITY", "A", "A")])
    assert check_consistency(loop).consistent
    findings = check_tlink_loop(loop)
    assert len(findings) == 1 and findings[0].severity == "ERROR"
    passed(4, "inconsistency example and identity loop")


def test_criterion_05_fold_correctness(corpus):
    assert len(CAVAT_FOLD.mapping) == 8
    for rel, (target, swap) in CAVAT_FOLD.mapping.items():
        folded = link(target, "b", "a") if swap else link(target, "a", "b")
        assert tlink_to_assertions(link(rel)) == tlink_to_assertions(folded), rel
    for doc in corpus.documents:
        once = apply_fold(doc, CAVAT_FOLD)
        assert apply_fold(once, CAVAT_FOLD) == once
    all_rel = corpus.document_by_filename("all_relations.tml")
    compact = apply_fold(all_rel, COMPACT_FOLD)
    folded_corpus = type(corpus)("compact", "fold=compact", [compact])
    rows = report_list(folded_corpus, Query("list", "tlink", "reltype")).rows
    assert sorted(v for _, v in rows) == ["BEFORE", "INCLUDES", "SIMULTANEOUS"]
    passed(5, "fold correctness")


def test_criterion_06_loop_check_formats(corpus):
    direct = check_tlink_loop(corpus.document_by_filename("loop_identity.tml"))
    assert direct[0].severity == "ERROR"
    assert "loops directly (instanceID match)" in direct[0].message
    indirect = check_tlink_loop(corpus.document_by_filename("loop_eventid.tml"))
    assert indirect[0].severity == "WARNING"
    assert "may be a loop (eventID match)" in indirect[0].message
    assert indirect[0].message.endswith("- check document manually")
    passed(6, "loop check message formats")


def test_criterion_07_orphans(corpus):
    five = check_orphans(corpus.document_by_filename("orphans.tml"))
    assert len(five) == 5
    assert len({f.message for f in five}) == 5
    assert check_orphans(corpus.document_by_filename("consistent.tml")) == []
    passed(7, "orphan detection")


def test_criterion_08_report_engine(corpus):
    for name, query in [
        ("dist_reltype_screen.txt", Query("distribution", "tlink", "reltype")),
        ("dist_reltype_csv.txt", Query("distribution", "tlink", "reltype", fmt="csv")),
        ("dist_reltype_tex.txt", Query("distribution", "tlink", "reltype", fmt="tex")),
        ("state_signalid_screen.txt", Query("state", "tlink", "signalid")),
    ]:
        golden_check(name, format_report(run_query(corpus, query), query))
    assert format_percent(1408 / 6418) == "21.9"
    assert format_percent(1 / 6418) == "0.0156"
    rng = random.Random(808)
    for _ in range(100):
        tag = rng.choice(sorted(TAG_FIELDS))
        field = rng.choice(TAG_FIELDS[tag])
        flt = Filter(rng.choice(TAG_FIELDS[tag]), "filled") if rng.random() < 0.5 else None
        d = report_distribution(corpus, Query("distribution", tag, field, filter=flt))
        s = report_state(corpus, Query("state", tag, field, filter=flt))
        assert d.total == sum(int(n) for _, state, n, _ in s.rows
                              if state.endswith(" filled"))
    passed(8, "report engine counts, formats and property")


def test_criterion_09_round_trips(corpus, workspace):
    store = Store()
    store.save_corpus(corpus)
    loaded = store.load_corpus(corpus.name)
    assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)
    for a, b in zip(corpus.documents, loaded.documents):
        for family in ("events", "instances", "timexes", "signals", "links"):
            assert getattr(a, family) == getattr(b, family)
    for doc in corpus.documents:
        tags = [("event", eid) for eid in doc.events]
        tags += [("instance", eiid) for eiid in doc.instances]
        tags += [("timex3", tid) for tid in doc.timexes]
        tags += [("signal", sid) for sid in doc.signals]
        tags += [(l.kind.lower(), lid) for lid, l in doc.links.items()]
        for tag, tag_id in tags:
            fragment = serialize_tag(doc, tag, tag_id)
            assert fragment_normal_form(fragment) == tag_normal_form(doc, tag, tag_id)
    passed(9, "store and timeml round-trips")


TIMEBANK_DIR = os.environ.get("TIMEBANK_DIR")


@pytest.mark.skipif(not TIMEBANK_DIR,
                    reason="set TIMEBANK_DIR to a TimeBank v1.2 data/timeml "
                           "directory to run the corpus-scale criterion")
def test_criterion_10_timebank():
    timebank = import_corpus(Path(TIMEBANK_DIR), "timebank")
    assert len(timebank.documents) == 183

    dist = report_distribution(timebank, Query("distribution", "tlink", "reltype"))
    counts = {value: int(n) for _, value, n, _ in dist.rows}
    assert dist.total == 6418
    assert counts["BEFORE"] == 1408
    assert counts["DURING_INV"] == 1

    state = report_state(timebank, Query("state", "tlink", "signalid"))
    assert [n for _, _, n, _ in state.rows] == ["718", "5700"]

    pos = report_distribution(timebank, Query("distribution", "event", "pos"))
    assert pos.total == 7940

    loops = [f for doc in timebank.documents for f in check_tlink_loop(doc)]
    assert len(loops) == 26
    assert len({f.document for f in loops}) == 19
    relations = [f.message.split("type ")[1].split(",")[0] for f in loops]
    assert sum(1 for r in relations if r in ("SIMULTANEOUS", "IDENTITY")) == 10

    start = time.perf_counter()
    for doc in timebank.documents:
        check_consistency(doc)
        subgraph_stats(doc)
    assert time.perf_counter() - start < 60.0
    passed(10, "TimeBank v1.2 survey")


DOCUMENTED_COMMANDS = [
    "check consistent in 3",
    "check split_graph in 3",
    "check tlink_loop in 165 159 143",
    "check orphans in wsj_0927.tml",
    "check tlink_loop in WSJ910225-0066.tml",
    "check list",
    "show distribution of tlink reltype as tex",
    "show state of tlink signalid",
    "show state of tlink signalid where reltype is after",
    "show distribution of tlink reltype where signalid is not filled",
    "show distribution of event pos",
    "show list of event text where pos is other",
    "show distribution of tlink signaltext where reltype is before",
    "corpus list",
    "corpus info",
    "browse doc 3",
]


def test_criterion_11_grammar_coverage():
    for line in DOCUMENTED_COMMANDS:
        assert parse_command(line) is not None, line
    passed(11, "grammar coverage of documented commands")
