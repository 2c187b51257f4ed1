"""Independent references for the fast paths of tmlwb, which tests
compare them against.

- parse_document: the two-pass parser, a reference for
  tmlwb.ingest.parse_document. It collects the text in one walk, then
  scans the words (WORD matches) of each sentence separately, lemmatizes every token
  anew, and reads the tags in a second walk over the tree (root.iter()).
  Only the id checks, the link parsing and the dangling-reference
  warnings are shared with tmlwb.ingest.
- run_query: the per-occurrence report algorithm, a reference for the
  one-pass reports of tmlwb.query. It builds one occurrence object per tag
  occurrence with a dict of the fields the query needs, reads XML
  attributes by scanning every key of the tag's raw attribute dict, then
  filters and groups in separate passes. Only the result classes are
  shared with tmlwb.query, so that format_report renders both alike.
- tlink_to_assertions, interval_axioms and document_assertions: the
  point assertions of a TLINK, an interval and a document over named
  points (interval_id, START|END), instantiated from
  tmlwb.point_algebra.TLINK_POINT_MAP; a reference for the integer points
  of tmlwb.point_algebra.document_assertions.
- explain: the explanation stage over named points, a reference for
  tmlwb.point_algebra.explain, which must give the same result, conflict
  and witness TLINKs included.
- oracle_consistency: the paper's agenda/database closure, a reference for
  the verdict of tmlwb.point_algebra.check_consistency.
- fragment_normal_form and tag_normal_form: the comparison of a serialized
  TimeML fragment with the tag it was made from.
- fold_lossless: whether a fold table preserves point semantics.
- v2_payload and v2_corpus_from_json: the codec of store format version 2,
  a reference for format 3 of tmlwb.store, which must load every document
  alike. Version 2 kept each tag's attributes as a dict, wrote them with
  sorted names, and wrote the tokens as lists of strings.
- legacy_payload and legacy_corpus_from_json: the codec of the unversioned
  store format that preceded version 2.
"""
from __future__ import annotations

import graphlib
import json
import re
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from tmlwb import tokenizer
from tmlwb.browse import _link_attrs, _lookup
from tmlwb.errors import LoadError
from tmlwb.ingest import SPAN_TAGS, _check_dangling, _check_id, _parse_link
from tmlwb.model import (
    INSTANCE, INSTANCE_SOURCED, Corpus, Document, Event, EventInstance,
    IntervalRef, Link, Signal, Timex3, position_string,
)
from tmlwb.point_algebra import (
    END, START, TLINK_POINT_MAP, _A, _B, Assertion, ConsistencyResult, Point,
    find,
)
from tmlwb.query import (
    DistributionResult, Filter, ListResult, Query, ReportRow, StateGroup,
    StateResult,
)


WORD = re.compile(r"\S+")  # a token


def parse_document(path: Path | str, doc_id: int = 0) -> Document:
    """The Document of tmlwb.ingest.parse_document, parsed in two passes."""
    path = Path(path)
    try:
        tree = ET.parse(path)
    except OSError as exc:
        raise LoadError(f"{path.name}: cannot read ({exc.strerror})") from exc
    except (ET.ParseError, ValueError, LookupError) as exc:
        raise LoadError(f"{path.name}: malformed XML ({exc})") from exc
    root = tree.getroot()
    text, spans = _collect_text(root)
    doc = Document(doc_id, path.name)
    starts, ends = _tokenize(doc, text)

    bounds = {}
    for elem, start, end in spans:
        first, stop = bisect_right(ends, start), bisect_left(starts, end)
        bounds[id(elem)] = (first, stop) if first < stop else (0, 0)

    for elem in root.iter():
        tag = elem.tag.upper()
        attrs = dict(elem.attrib)
        if tag == "EVENT":
            eid = attrs.get("eid")
            if not _check_id(doc, eid, doc.events, "EVENT", "eid"):
                continue
            doc.events[eid] = Event(eid, *split_attrs(attrs), *bounds[id(elem)])
        elif tag == "TIMEX3":
            tid = attrs.get("tid")
            if not _check_id(doc, tid, doc.timexes, "TIMEX3", "tid"):
                continue
            doc.timexes[tid] = Timex3(tid, *split_attrs(attrs), *bounds[id(elem)])
        elif tag == "SIGNAL":
            sid = attrs.get("sid")
            if not _check_id(doc, sid, doc.signals, "SIGNAL", "sid"):
                continue
            doc.signals[sid] = Signal(sid, *bounds[id(elem)])
        elif tag == "MAKEINSTANCE":
            eiid = attrs.get("eiid")
            if not _check_id(doc, eiid, doc.instances, "MAKEINSTANCE", "eiid"):
                continue
            event_id = attrs.get("eventID", "")
            doc.instances[eiid] = EventInstance(eiid, event_id, *split_attrs(attrs))
        elif tag in ("TLINK", "SLINK", "ALINK"):
            link = _parse_link(doc, tag, attrs)
            if link is not None:
                doc.links[link.lid] = link

    _check_dangling(doc)
    return doc


def split_attrs(attrs: dict[str, str]) -> tuple[tuple[str, ...], list[str]]:
    """The keys and values of a tag with these XML attributes."""
    return tuple(attrs), list(attrs.values())


def _collect_text(root: ET.Element) -> tuple[str, list[tuple[ET.Element, int, int]]]:
    """The document text, and the (element, start, end) character range of
    every EVENT, TIMEX3 and SIGNAL in it."""
    chars: list[str] = []
    spans: list[tuple[ET.Element, int, int]] = []
    offset = 0
    stack = [(root, 0, iter(root))]
    if root.text:
        chars.append(root.text)
        offset += len(root.text)
    while stack:
        elem, start, children = stack[-1]
        child = next(children, None)
        if child is not None:
            stack.append((child, offset, iter(child)))
            if child.text:
                chars.append(child.text)
                offset += len(child.text)
            continue
        stack.pop()
        if elem.tag.upper() in SPAN_TAGS:
            spans.append((elem, start, offset))
        if elem.tail:
            chars.append(elem.tail)
            offset += len(elem.tail)
    return "".join(chars), spans


def _tokenize(doc: Document, text: str) -> tuple[list[int], list[int]]:
    """Fill the token columns of doc sentence by sentence, lemmatizing every
    token; returns the start and end offset of each token."""
    starts: list[int] = []
    ends: list[int] = []
    for s_start, s_end in tokenizer.sentence_spans(text):
        for word in WORD.finditer(text, s_start, s_end):
            starts.append(word.start())
            ends.append(word.end())
        doc.sentence_bounds.append(len(starts))
    doc.surfaces = [text[s:e] for s, e in zip(starts, ends)]
    doc.lemmas = [tokenizer.lemmatize(surface) for surface in doc.surfaces]
    return starts, ends


def _attr(attrs: dict[str, str], name: str) -> str | None:
    for key, value in attrs.items():
        if key.lower() == name:
            return value if value != "" else None
    return None


def _words(column: list[str], span) -> str:
    return " ".join(column[i] for i in range(span.first, span.end))


def _token_position(doc: Document, index: int) -> tuple[int, int]:
    """(sentence, word) of a token, by a scan over the sentence bounds."""
    bounds = doc.sentence_bounds
    for sentence, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if start <= index < end:
            return sentence, index - start
    raise IndexError(index)


def _field_of(doc: Document, obj, name: str) -> str | None:
    if isinstance(obj, EventInstance):
        if name == "eiid":
            return obj.eiid
        if name == "eventid":
            return obj.event_id or None
        if name in INSTANCE_SOURCED:
            return _attr(obj.attrs, name)
        obj = doc.events.get(obj.event_id)
        if obj is None:
            return None
    if name in ("text", "lemma"):
        return _words(doc.surfaces if name == "text" else doc.lemmas, obj) or None
    if name == "position":
        return position_string(_token_position(doc, obj.first)
                               if obj.end > obj.first else None)
    if name in ("eid", "tid", "sid"):
        return getattr(obj, name, None)
    return _attr(getattr(obj, "attrs", {}), name)


def _link_of(doc: Document, link, name: str) -> str | None:
    if name == "signaltext":
        signal = doc.signals.get(link.signal_id) if link.signal_id else None
        return (_words(doc.surfaces, signal) or None) if signal else None
    return {
        "lid": link.lid, "reltype": link.rel_type or None,
        "arg1": link.arg1.ref_id, "arg2": link.arg2.ref_id,
        "signalid": link.signal_id, "origin": link.origin,
    }.get(name)


@dataclass
class _Occurrence:
    doc: Document
    values: dict[str, str | None]
    sentence: int | None


def _sentence(doc: Document, span) -> int | None:
    if span is None or span.end == span.first:
        return None
    return _token_position(doc, span.first)[0]


def _arg1_span(doc: Document, link):
    if link.arg1.kind == INSTANCE:
        inst = doc.instances.get(link.arg1.ref_id)
        return doc.events.get(inst.event_id) if inst else None
    return doc.timexes.get(link.arg1.ref_id)


def _occurrences(corpus, q: Query) -> list[_Occurrence]:
    fields = {q.field}
    if q.filter is not None:
        fields.add(q.filter.field)
    out = []
    for doc in corpus.documents:
        if q.tag in ("tlink", "slink", "alink"):
            for link in doc.links.values():
                if link.kind == q.tag.upper():
                    out.append(_Occurrence(doc, {f: _link_of(doc, link, f) for f in fields},
                                           _sentence(doc, _arg1_span(doc, link))))
        elif q.tag == "instance" or (q.tag == "event" and fields & set(INSTANCE_SOURCED)):
            for inst in doc.instances.values():
                out.append(_Occurrence(doc, {f: _field_of(doc, inst, f) for f in fields},
                                       _sentence(doc, doc.events.get(inst.event_id))))
        else:
            pool = {"event": doc.events, "timex3": doc.timexes,
                    "signal": doc.signals}[q.tag]
            for span in pool.values():
                out.append(_Occurrence(doc, {f: _field_of(doc, span, f) for f in fields},
                                       _sentence(doc, span)))
    return out


def _matches(value: str | None, flt: Filter) -> bool:
    filled = value is not None and value != ""
    if flt.op == "filled":
        return filled
    if flt.op == "unfilled":
        return not filled
    match = filled and value.lower() == (flt.value or "").lower()
    return match if flt.op == "is" else not match


def _grouped(corpus, q: Query):
    occurrences = _occurrences(corpus, q)
    if q.filter is not None:
        occurrences = [o for o in occurrences
                       if _matches(o.values.get(q.filter.field), q.filter)]
    groups: dict[tuple, tuple[str | None, list[_Occurrence]]] = {}
    for occ in occurrences:
        # documents sort by filename, and sentences by number within their
        # document, after the sentence-less "-" group (False < True)
        if q.granularity == "corpus":
            order, label = (), None
        elif q.granularity == "document":
            order, label = (occ.doc.filename,), occ.doc.filename
        elif occ.sentence is None:
            order, label = (occ.doc.filename, False, 0), f"{occ.doc.filename}:-"
        else:
            order = (occ.doc.filename, True, occ.sentence)
            label = f"{occ.doc.filename}:{occ.sentence}"
        groups.setdefault(order, (label, []))[1].append(occ)
    return [groups[order] for order in sorted(groups)]


def run_query(corpus, q: Query):
    """The report result of tmlwb.query.run_query, computed per occurrence."""
    if q.report == "state":
        groups = []
        for group, occs in _grouped(corpus, q):
            filled = sum(1 for o in occs if o.values[q.field] not in (None, ""))
            groups.append(StateGroup(filled, len(occs) - filled, group))
        return StateResult(groups or [StateGroup(0, 0, None)])
    if q.report == "list":
        rows = []
        for group, occs in _grouped(corpus, q):
            values = sorted({o.values[q.field] for o in occs
                             if o.values[q.field] not in (None, "")})
            rows.extend((group, v) for v in values)
        return ListResult(rows)
    rows, total = [], 0
    for group, occs in _grouped(corpus, q):
        counts = Counter(o.values[q.field] for o in occs
                         if o.values[q.field] not in (None, ""))
        group_total = sum(counts.values())
        total += group_total
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if q.min_freq is not None:
            kept = [(v, n) for v, n in ordered if n >= q.min_freq]
            folded = sum(n for _, n in ordered if n < q.min_freq)
            ordered = kept + ([("Other", folded)] if folded else [])
        rows.extend(ReportRow(v, n, n / group_total, group) for v, n in ordered)
    return DistributionResult(rows, total)


# -- point assertions over named points --------------------------------------

def _eq(x: Point, y: Point) -> Assertion:
    return ("=", x, y) if x <= y else ("=", y, x)


def _lt(x: Point, y: Point) -> Assertion:
    return ("<", x, y)


def tlink_to_assertions(link: Link) -> set[Assertion]:
    """Instantiate the point templates for one TLINK."""
    if link.kind != "TLINK":
        raise ValueError(f"not a TLINK: {link.lid}")
    ids = {_A: link.arg1.ref_id, _B: link.arg2.ref_id}
    out: set[Assertion] = set()
    for rel, (la, lp), (ra, rp) in TLINK_POINT_MAP[link.rel_type]:
        left: Point = (ids[la], lp)
        right: Point = (ids[ra], rp)
        out.add(_lt(left, right) if rel == "<" else _eq(left, right))
    return out


def interval_axioms(interval_ids: set[str]) -> set[Assertion]:
    """One start-before-end axiom per interval."""
    return {_lt((i, START), (i, END)) for i in interval_ids}


def document_assertions(doc: Document) -> tuple[set[Assertion], list[Assertion]]:
    """(axioms, initial agenda) for a document's TLINKs."""
    intervals: set[str] = set()
    agenda: list[Assertion] = []
    seen: set[Assertion] = set()
    for link in doc.tlinks:
        intervals.add(link.arg1.ref_id)
        intervals.add(link.arg2.ref_id)
        for a in sorted(tlink_to_assertions(link)):
            if a not in seen:
                seen.add(a)
                agenda.append(a)
    return interval_axioms(intervals), agenda


def explain(doc: Document) -> ConsistencyResult:
    """The result of tmlwb.point_algebra.explain, from the assertions over
    named points: the cycle of `<` that graphlib finds between the `=`
    classes, its last assertion as the conflict and the TLINKs behind it."""
    axioms, initial = document_assertions(doc)
    # sorted, and dicts rather than sets below, so that the cycle found and
    # the message do not depend on string hashing
    assertions = sorted(axioms) + initial
    parent: dict[Point, Point] = {}
    for rel, left, right in assertions:
        if rel == "=":
            parent[find(parent, left)] = find(parent, right)
    # class -> {class before it: index of the first `<` assertion between them}
    preds: dict[Point, dict[Point, int]] = {}
    for i, (rel, left, right) in enumerate(assertions):
        if rel == "<":
            preds.setdefault(find(parent, right), {}).setdefault(
                find(parent, left), i)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]  # each class before the next; first == last
        on_cycle = [preds[after][before]
                    for before, after in zip(cycle, cycle[1:])]
        return ConsistencyResult(
            False, assertions[max(on_cycle)], len(assertions),
            _witness(doc, assertions, [assertions[i] for i in on_cycle]))
    return ConsistencyResult(True, None, len(assertions))


def _witness(doc: Document, assertions: list[Assertion],
             cycle: list[Assertion]) -> tuple[str, ...]:
    """TLINKs asserting a `<` cycle and the `=` steps that close it: the
    `=` assertions on a shortest path join consecutive `<` assertions."""
    equal: dict[Point, list[tuple[Point, Assertion]]] = {}
    for a in assertions:
        if a[0] == "=":
            equal.setdefault(a[1], []).append((a[2], a))
            equal.setdefault(a[2], []).append((a[1], a))
    used = set(cycle)
    for (_, _, start), (_, goal, _) in zip(cycle, cycle[1:] + cycle[:1]):
        came: dict[Point, tuple[Point, Assertion] | None] = {start: None}
        queue = deque([start])
        while goal not in came:
            p = queue.popleft()
            for q, a in equal.get(p, ()):
                if q not in came:
                    came[q] = (p, a)
                    queue.append(q)
        p = goal
        while came[p] is not None:
            p, a = came[p]
            used.add(a)
    producer: dict[Assertion, str] = {}
    for link in doc.tlinks:
        for a in tlink_to_assertions(link):
            producer.setdefault(a, link.lid)
    wanted = {producer[a] for a in used if a in producer}
    return tuple(link.lid for link in doc.tlinks if link.lid in wanted)


def oracle_consistency(doc: Document, discipline: str = "fifo") -> bool:
    """The paper's agenda/database closure, kept as the independent
    reference that tests compare check_consistency against.

    The closure compares each agenda item with the whole database, so it is
    roughly cubic in the number of points. discipline selects where derived
    assertions join the agenda: "fifo" appends (breadth-first), "lifo"
    prepends (depth-first). The verdict is the same either way.
    """
    if discipline not in ("fifo", "lifo"):
        raise ValueError(f"unknown agenda discipline: {discipline}")

    def tautology(a: Assertion) -> bool:
        return a[0] == "=" and a[1] == a[2]

    def conflicts(a: Assertion, seen: set[Assertion]) -> bool:
        rel, left, right = a
        if rel == "<":
            return (left == right or ("<", right, left) in seen
                    or _eq(left, right) in seen)
        return ("<", left, right) in seen or ("<", right, left) in seen

    def combine(a: Assertion, b: Assertion):
        """Apply the inference rules to one pair of assertions."""
        ra, la, ca = a[0], a[1], a[2]
        rb, lb, cb = b[0], b[1], b[2]
        if ra == "<" and rb == "<":
            if ca == lb:
                yield _lt(la, cb)
            if cb == la:
                yield _lt(lb, ca)
        elif ra == "=" and rb == "=":
            shared = {la, ca} & {lb, cb}
            if shared:
                rest = ({la, ca} | {lb, cb}) - shared
                if len(rest) == 2:
                    x, y = rest
                    yield _eq(x, y)
        else:
            # substitution of equals into an ordering
            if ra == "=":
                eq_pts, (lt_l, lt_r) = (la, ca), (lb, cb)
            else:
                eq_pts, (lt_l, lt_r) = (lb, cb), (la, ca)
            p, q = eq_pts
            if lt_l == p:
                yield _lt(q, lt_r)
            elif lt_l == q:
                yield _lt(p, lt_r)
            if lt_r == p:
                yield _lt(lt_l, q)
            elif lt_r == q:
                yield _lt(lt_l, p)

    database, initial = document_assertions(doc)
    agenda = deque(a for a in initial if not tautology(a))
    seen = set(database) | set(agenda)
    while agenda:
        item = agenda.popleft()
        # item cannot be its own conflict partner, so checking against the
        # full seen set is safe
        if conflicts(item, seen):
            return False
        derived = []
        for existing in database:
            for new in combine(item, existing):
                if tautology(new) or new in seen:
                    continue
                if conflicts(new, seen):
                    return False
                derived.append(new)
                seen.add(new)
        database.add(item)
        for new in derived:
            if discipline == "fifo":
                agenda.append(new)
            else:
                agenda.appendleft(new)
    return True


def fragment_normal_form(xml_text: str) -> tuple[str, dict[str, str], str]:
    """(tag name, attributes, whitespace-normalized text) of a fragment."""
    elem = ET.fromstring(xml_text)
    text = " ".join("".join(elem.itertext()).split())
    return elem.tag, dict(elem.attrib), text


def tag_normal_form(doc: Document, tag: str, tag_id: str) -> tuple[str, dict[str, str], str]:
    """Normal form of a stored tag, for round-trip comparison."""
    obj = _lookup(doc, tag, tag_id)
    if isinstance(obj, Event):
        return "EVENT", dict(obj.attrs), _words(doc.surfaces, obj)
    if isinstance(obj, Timex3):
        return "TIMEX3", dict(obj.attrs), _words(doc.surfaces, obj)
    if isinstance(obj, Signal):
        return "SIGNAL", {"sid": obj.sid}, _words(doc.surfaces, obj)
    if isinstance(obj, EventInstance):
        return "MAKEINSTANCE", dict(obj.attrs), ""
    return obj.kind, {"lid": obj.lid, **_link_attrs(obj)}, ""


def fold_lossless(mapping: dict[str, tuple[str, bool]]) -> bool:
    """A fold is lossless iff every row preserves the point-assertion set."""
    a = IntervalRef(INSTANCE, "a")
    b = IntervalRef(INSTANCE, "b")
    for original, (target, swap) in mapping.items():
        before = tlink_to_assertions(Link("l", "TLINK", original, a, b))
        args = (b, a) if swap else (a, b)
        after = tlink_to_assertions(Link("l", "TLINK", target, *args))
        if before != after:
            return False
    return True


# -- store format version 2 ------------------------------------------------

def v2_payload(corpus: Corpus) -> str:
    """The corpus.json that store format version 2 wrote for a corpus."""
    return json.dumps({
        "version": 2,
        "name": corpus.name,
        "note": corpus.note,
        "documents": [_v2_doc_to_disk(d) for d in corpus.documents],
    }, sort_keys=True, separators=(",", ":"))


def _v2_doc_to_disk(doc: Document) -> dict:
    bounds = doc.sentence_bounds
    return {
        "doc_id": doc.doc_id,
        "filename": doc.filename,
        "warnings": doc.warnings,
        "sentences": [end - start for start, end in zip(bounds, bounds[1:])],
        "surfaces": doc.surfaces,
        "lemmas": doc.lemmas,
        "events": [[eid, e.attrs, e.first, e.end]
                   for eid, e in sorted(doc.events.items())],
        "instances": [[eiid, i.event_id, i.attrs]
                      for eiid, i in sorted(doc.instances.items())],
        "timexes": [[tid, t.attrs, t.first, t.end]
                    for tid, t in sorted(doc.timexes.items())],
        "signals": [[sid, s.first, s.end]
                    for sid, s in sorted(doc.signals.items())],
        "links": [[lid, l.kind, l.rel_type, l.arg1.kind, l.arg1.ref_id,
                   l.arg2.kind, l.arg2.ref_id, l.signal_id, l.origin]
                  for lid, l in sorted(doc.links.items())],
    }


def v2_corpus_from_json(payload: dict) -> Corpus:
    """The corpus that store format version 2 loaded from a payload, with
    each tag's attributes in the sorted order they were stored in."""
    assert payload["version"] == 2
    return Corpus(name=payload["name"], note=payload["note"],
                  documents=[_v2_doc_from_disk(d) for d in payload["documents"]])


def _v2_doc_from_disk(payload: dict) -> Document:
    return Document(
        doc_id=payload["doc_id"],
        filename=payload["filename"],
        sentence_bounds=list(accumulate(payload["sentences"], initial=0)),
        surfaces=payload["surfaces"],
        lemmas=payload["lemmas"],
        events={eid: Event(eid, *split_attrs(attrs), first, end)
                for eid, attrs, first, end in payload["events"]},
        instances={eiid: EventInstance(eiid, event_id, *split_attrs(attrs))
                   for eiid, event_id, attrs in payload["instances"]},
        timexes={tid: Timex3(tid, *split_attrs(attrs), first, end)
                 for tid, attrs, first, end in payload["timexes"]},
        signals={sid: Signal(sid, first, end)
                 for sid, first, end in payload["signals"]},
        links={lid: Link(lid, kind, rel_type, IntervalRef(kind1, id1),
                         IntervalRef(kind2, id2), signal_id, origin)
               for lid, kind, rel_type, kind1, id1, kind2, id2, signal_id, origin
               in payload["links"]},
        warnings=payload["warnings"],
    )


# -- the unversioned store format ------------------------------------------

def legacy_payload(corpus: Corpus) -> str:
    """A corpus.json as the unversioned store wrote it."""
    return json.dumps({
        "name": corpus.name,
        "note": corpus.note,
        "documents": [_legacy_doc_to_json(d) for d in corpus.documents],
    }, sort_keys=True)


def _legacy_doc_to_json(doc: Document) -> dict:
    bounds = doc.sentence_bounds

    def toks(span):
        return list(range(span.first, span.end))

    return {
        "doc_id": doc.doc_id,
        "filename": doc.filename,
        "tokens": [[s, i - start, doc.surfaces[i], doc.lemmas[i]]
                   for s, (start, end) in enumerate(zip(bounds, bounds[1:]))
                   for i in range(start, end)],
        "events": {e.eid: {"attrs": e.attrs, "tokens": toks(e)}
                   for e in doc.events.values()},
        "instances": {i.eiid: {"event_id": i.event_id, "attrs": i.attrs}
                      for i in doc.instances.values()},
        "timexes": {t.tid: {"attrs": t.attrs, "tokens": toks(t)}
                    for t in doc.timexes.values()},
        "signals": {s.sid: {"tokens": toks(s)} for s in doc.signals.values()},
        "links": {l.lid: {
            "kind": l.kind, "rel_type": l.rel_type,
            "arg1": [l.arg1.kind, l.arg1.ref_id],
            "arg2": [l.arg2.kind, l.arg2.ref_id],
            "signal_id": l.signal_id, "origin": l.origin,
        } for l in doc.links.values()},
        "warnings": doc.warnings,
    }


def legacy_corpus_from_json(payload: dict) -> Corpus:
    """The corpus that the unversioned store loaded from a payload."""
    docs = []
    for d in payload["documents"]:
        tokens = d["tokens"]  # [sentence, word, surface, lemma]
        # a sentence starts at each word 0
        bounds = [i for i, t in enumerate(tokens) if t[1] == 0] + [len(tokens)]

        def toks(indices):
            return (indices[0], indices[-1] + 1) if indices else (0, 0)

        doc = Document(doc_id=d["doc_id"], filename=d["filename"],
                       sentence_bounds=bounds,
                       surfaces=[t[2] for t in tokens], lemmas=[t[3] for t in tokens],
                       warnings=list(d["warnings"]))
        for eid, e in d["events"].items():
            doc.events[eid] = Event(eid, *split_attrs(e["attrs"]), *toks(e["tokens"]))
        for eiid, i in d["instances"].items():
            doc.instances[eiid] = EventInstance(eiid, i["event_id"],
                                                *split_attrs(i["attrs"]))
        for tid, t in d["timexes"].items():
            doc.timexes[tid] = Timex3(tid, *split_attrs(t["attrs"]), *toks(t["tokens"]))
        for sid, sig in d["signals"].items():
            doc.signals[sid] = Signal(sid, *toks(sig["tokens"]))
        for lid, l in d["links"].items():
            doc.links[lid] = Link(
                lid, l["kind"], l["rel_type"], IntervalRef(*l["arg1"]),
                IntervalRef(*l["arg2"]), signal_id=l["signal_id"], origin=l["origin"])
        docs.append(doc)
    return Corpus(name=payload["name"], note=payload["note"], documents=docs)
