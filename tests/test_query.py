import itertools
import random

import pytest

import reference
from tmlwb.errors import QueryError
from tmlwb.ingest import get_fold_scheme, import_corpus
from tmlwb.model import (
    INSTANCE, TIMEX, Corpus, Document, Event, EventInstance, IntervalRef, Link,
    Signal, Timex3,
)
from tmlwb.query import (
    FORMATS, GRANULARITIES, REPORTS, Filter, Query, TAG_FIELDS, format_percent,
    format_report, report_distribution, report_list, report_state, run_query,
)

from conftest import FIXTURE_DIR, golden_check
from test_report_space import _queries as report_space


def dist(corpus, tag, field, **kw):
    return report_distribution(corpus, Query("distribution", tag, field, **kw))


def frequencies(table):
    """{value: frequency} of a distribution table's rows."""
    return {value: int(n) for _, value, n, _ in table.rows}


def filled(table):
    """The filled count of a state table, summed over its groups."""
    return sum(int(n) for _, state, n, _ in table.rows if state.endswith(" filled"))


class TestDistribution:
    def test_tlink_reltype_counts(self, corpus):
        result = dist(corpus, "tlink", "reltype")
        assert result.total == 28
        counts = frequencies(result)
        assert counts["BEFORE"] == 8
        assert counts["INCLUDES"] == 3
        assert counts["IS_INCLUDED"] == 3
        assert counts["DURING_INV"] == 1

    def test_sorted_by_frequency_then_value(self, corpus):
        rows = dist(corpus, "tlink", "reltype").rows
        keys = [(-int(n), value) for _, value, n, _ in rows]
        assert keys == sorted(keys)

    def test_event_pos_counts_instances(self, corpus):
        result = dist(corpus, "event", "pos")
        assert result.total == sum(len(d.instances) for d in corpus.documents) == 17
        assert frequencies(result) == {"NOUN": 11, "VERB": 6}

    def test_proportions_sum_to_one(self, corpus):
        result = dist(corpus, "tlink", "reltype")
        assert [p for *_, p in result.rows] == [
            format_percent(int(n) / result.total) + "%" for _, _, n, _ in result.rows]
        assert sum(int(n) for _, _, n, _ in result.rows) == result.total
        assert sum(float(p[:-1]) for *_, p in result.rows) == pytest.approx(100, abs=0.1)

    def test_signaltext_filtered_by_reltype(self, corpus):
        result = dist(corpus, "tlink", "signaltext",
                      filter=Filter("reltype", "is", "before"))
        assert [(value, n) for _, value, n, _ in result.rows] == [("before", "1")]

    def test_empty_corpus(self):
        empty = Corpus("empty", "fold=none")
        result = dist(empty, "tlink", "reltype")
        assert result.rows == [] and result.total == 0

    def test_min_freq_folds_other(self, corpus):
        result = dist(corpus, "tlink", "reltype", min_freq=2)
        _, value, n, _ = result.rows[-1]
        assert value == "Other"
        assert n == "8"  # the eight singleton relation types
        assert result.total == 28

    def test_by_document_granularity(self, corpus):
        result = dist(corpus, "tlink", "reltype", granularity="document")
        groups = {group for group, *_ in result.rows}
        assert "consistent.tml" in groups
        assert sum(int(n) for _, _, n, _ in result.rows) == 28


class TestSentenceGroupOrder:
    """By-sentence groups sort by filename, then by sentence number, with the
    group of occurrences that have no position ("-") first."""

    @pytest.fixture
    def corpus(self):
        corpus = Corpus("order", "fold=none")
        for doc_id, filename, sentences in ((1, "a.tml2", [1]), (2, "a.tml", [10, 2, None])):
            doc = Document(doc_id=doc_id, filename=filename)
            for _ in range(12):
                doc.surfaces.append("x")
                doc.lemmas.append("x")
                doc.sentence_bounds.append(len(doc.surfaces))
            for i, sentence in enumerate(sentences):
                first, end = (0, 0) if sentence is None else (sentence, sentence + 1)
                doc.events[f"e{i}"] = Event(f"e{i}", ("eid", "class"), [f"e{i}", "STATE"],
                                            first, end)
            corpus.documents.append(doc)
        return corpus

    @pytest.mark.parametrize("report", REPORTS)
    def test_numeric_order(self, corpus, report):
        q = Query(report, "event", "class", granularity="sentence")
        result = run_query(corpus, q)
        groups = list(dict.fromkeys(group for group, *_ in result.rows))
        assert groups == ["a.tml:-", "a.tml:2", "a.tml:10", "a.tml2:1"]
        assert result == reference.run_query(corpus, q)


class TestState:
    def test_tlink_signalid(self, corpus):
        result = report_state(corpus, Query("state", "tlink", "signalid"))
        assert result.rows == [("", "signalid filled", "1", "3.57%"),
                               ("", "signalid unfilled", "27", "96.4%")]
        assert result.total == 28

    def test_empty_corpus(self):
        result = report_state(Corpus("empty", "fold=none"),
                              Query("state", "tlink", "signalid"))
        assert result.rows == [("", "signalid filled", "0", "-"),
                               ("", "signalid unfilled", "0", "-")]
        assert result.total == 0

    def test_state_with_filter_partitions(self, corpus):
        after = report_state(corpus, Query("state", "tlink", "signalid",
                                           filter=Filter("reltype", "is", "after")))
        total_after = sum(1 for d in corpus.documents for l in d.tlinks
                          if l.rel_type == "AFTER")
        assert after.total == sum(int(n) for _, _, n, _ in after.rows) == total_after == 2


class TestList:
    def test_list_reltypes(self, corpus):
        result = report_list(corpus, Query("list", "tlink", "reltype"))
        values = [v for _, v in result.rows]
        assert len(values) == 14
        assert values == sorted(values)

    def test_list_event_text_filtered(self, corpus):
        result = report_list(corpus, Query("list", "event", "text",
                                           filter=Filter("pos", "is", "verb")))
        values = [v for _, v in result.rows]
        assert "flown" in values

    def test_empty(self):
        result = report_list(Corpus("empty", "fold=none"),
                             Query("list", "event", "text"))
        assert result.rows == []


class TestFilters:
    def test_is_case_insensitive(self, corpus):
        lower = dist(corpus, "tlink", "reltype", filter=Filter("reltype", "is", "before"))
        upper = dist(corpus, "tlink", "reltype", filter=Filter("reltype", "is", "BEFORE"))
        assert lower.total == upper.total == 8

    def test_unfilled(self, corpus):
        result = dist(corpus, "tlink", "reltype",
                      filter=Filter("signalid", "unfilled"))
        assert result.total == 27

    def test_filter_partition_property(self, corpus):
        pairs = [(Filter("reltype", "is", "before"), Filter("reltype", "is_not", "before")),
                 (Filter("signalid", "filled"), Filter("signalid", "unfilled"))]
        for positive, negative in pairs:
            base = dist(corpus, "tlink", "reltype").total
            a = dist(corpus, "tlink", "reltype", filter=positive).total
            b = dist(corpus, "tlink", "reltype", filter=negative).total
            assert a + b == base

    def test_vacuous_filter_identity(self, corpus):
        base = dist(corpus, "tlink", "reltype")
        filtered = dist(corpus, "tlink", "reltype", filter=Filter("reltype", "filled"))
        assert filtered.total == base.total


class TestValidation:
    def test_bad_field(self):
        with pytest.raises(QueryError, match="reltype"):
            Query("distribution", "tlink", "colour")

    def test_bad_filter_field(self):
        with pytest.raises(QueryError):
            Query("distribution", "tlink", "reltype",
                  filter=Filter("colour", "is", "x"))

    def test_bad_tag(self):
        with pytest.raises(QueryError):
            Query("distribution", "paragraph", "text")

    def test_bad_report(self):
        with pytest.raises(QueryError):
            Query("histogram", "tlink", "reltype")


class TestPercentFormat:
    @pytest.mark.parametrize("numerator,denominator,expected", [
        (1408, 6418, "21.9"),
        (897, 6418, "14.0"),
        (582, 6418, "9.07"),
        (61, 6418, "0.950"),
        (1, 6418, "0.0156"),
        (2225, 7940, "28.0"),
        (28, 7940, "0.353"),
        (718, 6418, "11.2"),
        (5700, 6418, "88.8"),
        (5, 5, "100"),
        (0, 5, "0"),
    ])
    def test_three_significant_digits(self, numerator, denominator, expected):
        assert format_percent(numerator / denominator) == expected


class TestFormatting:
    def test_distribution_screen_golden(self, corpus):
        q = Query("distribution", "tlink", "reltype")
        golden_check("dist_reltype_screen.txt", format_report(run_query(corpus, q), q))

    def test_distribution_csv_golden(self, corpus):
        q = Query("distribution", "tlink", "reltype", fmt="csv")
        out = format_report(run_query(corpus, q), q)
        assert out.splitlines()[0] == "Value,Frequency,Proportion"
        golden_check("dist_reltype_csv.txt", out)

    def test_distribution_tex_golden(self, corpus):
        q = Query("distribution", "tlink", "reltype", fmt="tex")
        out = format_report(run_query(corpus, q), q)
        assert "\\caption{Distribution of Tlink reltype}" in out
        assert "IS\\_INCLUDED" in out
        assert "Total & 28" in out
        golden_check("dist_reltype_tex.txt", out)

    def test_state_screen_golden(self, corpus):
        q = Query("state", "tlink", "signalid")
        out = format_report(run_query(corpus, q), q)
        assert "signalid filled" in out and "signalid unfilled" in out
        golden_check("state_signalid_screen.txt", out)

    def test_csv_quotes_commas(self):
        corpus = Corpus("tiny", "fold=none")
        from conftest import make_doc
        from dataclasses import replace
        doc = make_doc([("BEFORE", "a", "b")])
        doc.links["l1"] = replace(doc.links["l1"], origin="USER, MANUAL")
        corpus.documents.append(doc)
        q = Query("distribution", "tlink", "origin", fmt="csv")
        out = format_report(run_query(corpus, q), q)
        assert '"USER, MANUAL",1,100%' in out

    def test_tex_escapes_special_characters(self):
        corpus = Corpus("tiny", "fold=none")
        from conftest import make_doc
        from dataclasses import replace
        doc = make_doc([("BEFORE", "a", "b")])
        doc.links["l1"] = replace(doc.links["l1"], origin=r"C:\dir_1 ~a^b {x} & 50%#$")
        corpus.documents.append(doc)
        q = Query("distribution", "tlink", "origin", fmt="tex")
        out = format_report(run_query(corpus, q), q)
        assert (r"C:\textbackslash{}dir\_1 \textasciitilde{}a\textasciicircum{}b "
                r"\{x\} \& 50\%\#\$ & 1 & 100\% \\") in out.splitlines()

    def test_empty_csv_header_only(self):
        q = Query("distribution", "tlink", "reltype", fmt="csv")
        out = format_report(run_query(Corpus("empty", "fold=none"), q), q)
        assert out == "Value,Frequency,Proportion"

    def test_list_screen_plain_values(self, corpus):
        q = Query("list", "tlink", "reltype")
        out = format_report(run_query(corpus, q), q)
        assert out.splitlines()[0] == "AFTER"


class TestRandomQueryProperty:
    def test_distribution_total_equals_state_filled(self, corpus):
        rng = random.Random(1234)
        tags = sorted(TAG_FIELDS)
        for _ in range(100):
            tag = rng.choice(tags)
            field = rng.choice(TAG_FIELDS[tag])
            flt = None
            if rng.random() < 0.5:
                f_field = rng.choice(TAG_FIELDS[tag])
                flt = rng.choice([
                    Filter(f_field, "filled"), Filter(f_field, "unfilled"),
                    Filter(f_field, "is", rng.choice(["before", "VERB", "NOUN", "x"])),
                ])
            d = report_distribution(corpus, Query("distribution", tag, field, filter=flt))
            s = report_state(corpus, Query("state", tag, field, filter=flt))
            assert d.total == filled(s)


def random_report_corpus(rng: random.Random, n_docs=3) -> Corpus:
    """A corpus of documents built tag by tag, with the oddities reports
    must survive: attribute names that differ only in case, empty values,
    MAKEINSTANCEs whose eventID dangles or is empty, links whose signalID
    names no SIGNAL or whose arguments dangle, spans with no tokens,
    documents stored out of filename order, documents that share a
    filename, and filenames whose order is not that of their doc_ids
    ("d10.tml" before "d2.tml")."""
    values = ["a", "A", "b", "B b", ""]

    def attrs(id_attr, tag_id, names):
        out = {id_attr: tag_id}
        for name in rng.sample(names, rng.randint(0, len(names))):
            for key in rng.sample([name, name.upper(), name.capitalize()],
                                  rng.choice([1, 1, 2])):
                out[key] = rng.choice(values)
        return out

    corpus = Corpus("random", "fold=none")
    doc_ids = rng.sample([1, 2, 10, 11, 20], n_docs)  # in storage order
    for doc_id in doc_ids:
        number = doc_id if rng.random() < 0.8 else rng.choice(doc_ids)
        doc = Document(doc_id=doc_id, filename=f"d{number}.tml")
        for _ in range(rng.randint(1, 12)):
            for _ in range(rng.randint(1, 4)):
                doc.surfaces.append(rng.choice(["Ran", "ran", "x", "then"]))
                doc.lemmas.append(rng.choice(["run", "x"]))
            doc.sentence_bounds.append(len(doc.surfaces))

        def span():
            if rng.random() < 0.2:
                return 0, 0
            start = rng.randrange(len(doc.surfaces))
            return start, min(start + rng.randint(1, 3), len(doc.surfaces))

        for i in range(rng.randint(0, 8)):
            doc.events[f"e{i}"] = Event(f"e{i}", *reference.split_attrs(attrs("eid", f"e{i}", [
                "class", "tense", "pos"])), *span())
        for i in range(rng.randint(0, 10)):
            event_id = rng.choice(sorted(doc.events) + ["e99", ""])
            doc.instances[f"ei{i}"] = EventInstance(f"ei{i}", event_id, *reference.split_attrs({
                "eventID": event_id, **attrs("eiid", f"ei{i}", [
                    "tense", "aspect", "polarity", "pos", "signalid", "class"])}))
        for i in range(rng.randint(0, 4)):
            doc.timexes[f"t{i}"] = Timex3(f"t{i}", *reference.split_attrs(attrs("tid", f"t{i}", [
                "type", "value", "mod"])), *span())
        for i in range(rng.randint(0, 3)):
            doc.signals[f"s{i}"] = Signal(f"s{i}", *span())
        intervals = ([IntervalRef(INSTANCE, i) for i in list(doc.instances) + ["ei99"]]
                     + [IntervalRef(TIMEX, t) for t in list(doc.timexes) + ["t99"]])
        for i in range(rng.randint(0, 10)):
            kind = rng.choice(["TLINK", "TLINK", "SLINK", "ALINK"])
            doc.links[f"l{i}"] = Link(
                f"l{i}", kind, rng.choice(["BEFORE", "INCLUDES", ""]),
                rng.choice(intervals), rng.choice(intervals),
                signal_id=rng.choice(sorted(doc.signals) + ["s99", "", None]),
                origin=rng.choice(["USER", "closure", "", None]))
        corpus.documents.append(doc)
    return corpus


class TestMatchesReference:
    """The one-pass report tables against those of the per-occurrence
    reference (tests/reference.py): on every query of the report space over
    the fixtures, and on random corpora in every report x granularity x
    filter op, with random tags, fields, formats and filter values."""

    @pytest.mark.parametrize("fold", ["none", "cavat"])
    def test_report_space(self, fold):
        corpus = import_corpus(FIXTURE_DIR, "fixture", get_fold_scheme(fold))
        for q in report_space(corpus):
            assert run_query(corpus, q) == reference.run_query(corpus, q), q

    def test_random_corpora(self):
        rng = random.Random(6006)
        ops = [None, "is", "is_not", "filled", "unfilled"]
        seen = set()
        for _ in range(40):
            corpus = random_report_corpus(rng)
            seen.update(_oddities(corpus))
            for report, granularity, op in itertools.product(REPORTS, GRANULARITIES, ops):
                tag = rng.choice(sorted(TAG_FIELDS))
                flt = None
                if op is not None:
                    flt = Filter(rng.choice(TAG_FIELDS[tag]), op,
                                 rng.choice(["a", "A", "b b", "BEFORE", "ran", ""]))
                q = Query(report, tag, rng.choice(TAG_FIELDS[tag]), filter=flt,
                          fmt=rng.choice(FORMATS), granularity=granularity,
                          min_freq=rng.choice([None, None, 2]))
                assert run_query(corpus, q) == reference.run_query(corpus, q), q
        assert seen == {"case duplicates", "empty value", "dangling eventID",
                        "TLINK signalID without SIGNAL", "span without tokens",
                        "stored out of filename order", "shared filename",
                        "filename order is not doc_id order"}


def _oddities(corpus):
    names = [doc.filename for doc in corpus.documents]
    if names != sorted(names):
        yield "stored out of filename order"
    if len(set(names)) < len(names):
        yield "shared filename"
    by_id = [doc.filename for doc in sorted(corpus.documents, key=lambda d: d.doc_id)]
    if by_id != sorted(by_id):
        yield "filename order is not doc_id order"
    for doc in corpus.documents:
        for tag in [*doc.events.values(), *doc.instances.values(), *doc.timexes.values()]:
            if len({k.lower() for k in tag.attrs}) < len(tag.attrs):
                yield "case duplicates"
            if "" in tag.attrs.values():
                yield "empty value"
        for inst in doc.instances.values():
            if inst.event_id and inst.event_id not in doc.events:
                yield "dangling eventID"
        for link in doc.tlinks:
            if link.signal_id and link.signal_id not in doc.signals:
                yield "TLINK signalID without SIGNAL"
        for span in [*doc.events.values(), *doc.timexes.values(), *doc.signals.values()]:
            if span.first == span.end:
                yield "span without tokens"
