"""Deterministic synthetic TimeML corpora for the benchmark workloads.

The real TimeBank v1.2 corpus is licensed, so the survey corpus is built
from its published counts: 183 documents, 6418 TLINKs with the reltype
distribution below, 718 TLINKs with a filled signalID, 7940 event
instances with a part of speech, and 26 tlink_loop findings in 19
documents, 10 of them SIMULTANEOUS or IDENTITY.

Every TLINK except the planted inconsistencies states a fact about a
hidden timeline of (start, end) pairs, so a document is consistent unless
an inconsistency is planted in it. Everything the benchmark later checks
tmlwb's output against is computed here from that ground truth and written
to ``manifest.json`` next to the ``.tml`` files; nothing here calls tmlwb.

The same (workload, seed) always gives byte-identical files. The temporal
structure of a workload's corpus does not depend on the seed: document
sizes, which file gets which size, the hidden timeline, the TLINKs with
their relation types and signals, the loops and the planted
inconsistencies. The cost of the consistency closure grows faster than
linearly with a document's connected TLINKs, so a seeded structure would
make some seeds much more work than others. The seed decides the text:
the words, the sentences, the event classes, the parts of speech and the
instance attributes.

    python3 perfbench/generate.py timebank_survey 7 /tmp/out
"""
from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

# -- published TimeBank v1.2 counts ------------------------------------------

RELTYPE_COUNTS = {
    "BEFORE": 1408, "AFTER": 897, "INCLUDES": 582, "IS_INCLUDED": 1357,
    "SIMULTANEOUS": 671, "DURING": 302, "IDENTITY": 743, "ENDS": 76,
    "ENDED_BY": 177, "BEGINS": 61, "BEGUN_BY": 70, "IBEFORE": 34,
    "IAFTER": 39, "DURING_INV": 1,
}
POS_COUNTS = {"VERB": 5046, "NOUN": 2403, "ADJECTIVE": 327, "OTHER": 141,
              "PREPOSITION": 23}
DOCUMENTS = 183
TLINKS = sum(RELTYPE_COUNTS.values())  # 6418
INSTANCES = sum(POS_COUNTS.values())  # 7940
TIMEXES = 1414
SIGNALID_FILLED = 718
LOOP_DOCUMENTS = 19
DIRECT_LOOPS = ("SIMULTANEOUS",) * 5 + ("IDENTITY",) * 5  # ERROR findings
EVENTID_LOOPS = 16  # WARNING findings, never SIMULTANEOUS or IDENTITY
INCONSISTENT_DOCUMENTS = 8

# long_docs: target sizes in KB; the seed changes content, not size
LONG_DOC_KB = (100, 150, 200, 250, 300)

# Link structure: a link joins two intervals of one small cluster, or an
# interval and the document creation time. Small clusters keep the TLINK
# graph fractured into many sub-graphs, as in TimeBank; they also set how
# much the consistency closure derives (about 1000 assertions for the
# largest, 230-link document).
CLUSTER = 3
DCT_LINK_SHARE = 0.03

# point semantics of each TimeML relation "a REL b" over start (s) and
# end (e) points; "<" is before, "=" is simultaneous
POINTS = {
    "BEFORE": (("<", "ae", "bs"),),
    "AFTER": (("<", "be", "as"),),
    "IBEFORE": (("=", "ae", "bs"),),
    "IAFTER": (("=", "be", "as"),),
    "INCLUDES": (("<", "as", "bs"), ("<", "be", "ae")),
    "IS_INCLUDED": (("<", "bs", "as"), ("<", "ae", "be")),
    "BEGINS": (("=", "as", "bs"), ("<", "ae", "be")),
    "BEGUN_BY": (("=", "as", "bs"), ("<", "be", "ae")),
    "ENDS": (("=", "ae", "be"), ("<", "bs", "as")),
    "ENDED_BY": (("=", "ae", "be"), ("<", "as", "bs")),
    "SIMULTANEOUS": (("=", "as", "bs"), ("=", "ae", "be")),
    "IDENTITY": (("=", "as", "bs"), ("=", "ae", "be")),
    "DURING": (("=", "as", "bs"), ("=", "ae", "be")),
    "DURING_INV": (("=", "as", "bs"), ("=", "ae", "be")),
}
# relations that need two shared end points, placed while fresh intervals last
EQUALITY_RELATIONS = frozenset(
    r for r, pts in POINTS.items() if any(op == "=" for op, _, _ in pts))

# the "cavat" fold: each relation collapses onto its inverse, arguments swap
CAVAT_FOLD = {"AFTER": "BEFORE", "IS_INCLUDED": "INCLUDES", "IAFTER": "IBEFORE",
              "BEGUN_BY": "BEGINS", "ENDED_BY": "ENDS",
              "DURING_INV": "SIMULTANEOUS", "DURING": "SIMULTANEOUS"}

# -- vocabulary ----------------------------------------------------------------

EVENT_WORDS = {
    "VERB": ("said", "rose", "reported", "announced", "fell", "expected",
             "acquired", "traded", "closed", "signed", "planned", "agreed",
             "raising", "selling", "cutting", "gained", "told", "filed"),
    "NOUN": ("meeting", "acquisition", "talks", "sale", "war", "election",
             "offer", "strike", "crisis", "decline", "losses", "merger"),
    "ADJECTIVE": ("likely", "able", "unchanged", "ready", "available"),
    "OTHER": ("ago", "earlier", "pending", "underway"),
    "PREPOSITION": ("amid", "despite"),
}
EVENT_CLASSES = ("OCCURRENCE", "REPORTING", "STATE", "I_ACTION", "I_STATE",
                 "ASPECTUAL", "PERCEPTION")
TENSES = ("PAST", "PRESENT", "FUTURE", "NONE", "INFINITIVE", "PRESPART")
ASPECTS = ("NONE", "PROGRESSIVE", "PERFECTIVE")
TIMEX_PHRASES = (("DATE", "Friday"), ("DATE", "last week"), ("DATE", "1998"),
                 ("DATE", "the third quarter"), ("DURATION", "two years"),
                 ("TIME", "this morning"), ("DATE", "yesterday"),
                 ("SET", "each month"), ("DURATION", "six months"))
SIGNAL_WORDS = {"BEFORE": "before", "AFTER": "after", "IBEFORE": "before",
                "IAFTER": "after", "INCLUDES": "during", "IS_INCLUDED": "in",
                "BEGINS": "since", "BEGUN_BY": "since", "ENDS": "until",
                "ENDED_BY": "until", "SIMULTANEOUS": "while",
                "IDENTITY": "when", "DURING": "during", "DURING_INV": "as"}
FILLER = ("the", "company", "of", "a", "its", "shares", "market", "and",
          "to", "analysts", "investors", "in", "federal", "new", "year",
          "officials", "government", "for", "by", "with", "bank", "prices",
          "trade", "on", "stock", "that", "was", "percent", "million")


# -- sizes -------------------------------------------------------------------

def _apportion(weights: list[float], total: int, minimum: int = 0) -> list[int]:
    """Integers proportional to weights, each >= minimum, summing to total
    (largest-remainder rounding, ties by index)."""
    spare = total - minimum * len(weights)
    scale = spare / sum(weights)
    raw = [w * scale for w in weights]
    counts = [minimum + math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - math.floor(raw[i])), i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def survey_sizes() -> list[tuple[int, int, int]]:
    """(tlinks, instances, timexes) for each of the 183 documents, largest
    first. Links per document follow a lognormal spread (about 35 on average,
    about 230 at most); the shape is fixed, not drawn."""
    z = NormalDist()
    weights = [math.exp(0.8 * z.inv_cdf(1 - (i + 0.5) / DOCUMENTS))
               for i in range(DOCUMENTS)]
    links = _apportion(weights, TLINKS, minimum=1)
    instances = _apportion([n + 3 for n in links], INSTANCES, minimum=2)
    timexes = _apportion([n ** 0.7 for n in links], TIMEXES - DOCUMENTS)
    return [(l, i, t + 1) for l, i, t in zip(links, instances, timexes)]


def survey_filenames() -> list[str]:
    """183 TimeBank-style file names, fixed across seeds, including the two
    the documented commands name."""
    rng = random.Random("timebank-names")

    def day() -> str:
        return f"{rng.randint(101, 430):04d}.{rng.randint(1000, 2359)}"

    families = (
        (10, lambda: f"ABC1998{day()}.{rng.randint(1, 1999):04d}.tml"),
        (11, lambda: f"APW1998{day()}.tml"),
        (12, lambda: f"CNN1998{day()}.{rng.randint(1, 1999):04d}.tml"),
        (8, lambda: f"NYT1998{rng.randint(101, 430):04d}.{rng.randint(1, 999):04d}.tml"),
        (12, lambda: f"PRI1998{day()}.{rng.randint(1, 1999):04d}.tml"),
        (15, lambda: f"VOA1998{day()}.{rng.randint(1, 1999):04d}.tml"),
        (11, lambda: f"WSJ9{rng.randint(0, 1)}{rng.randint(101, 1231):04d}-{rng.randint(1, 199):04d}.tml"),
        (14, lambda: f"ea98{day()}.{rng.randint(1, 999):04d}.tml"),
        (8, lambda: f"ed98{day()}.{rng.randint(1, 999):04d}.tml"),
        (80, lambda: f"wsj_{rng.randint(1, 1200):04d}.tml"),
    )
    names = {"wsj_0927.tml", "WSJ910225-0066.tml"}
    for count, make in families:
        target = len(names) + count
        while len(names) < target:
            names.add(make())
    assert len(names) == DOCUMENTS
    return sorted(names)


# -- one document --------------------------------------------------------------

@dataclass
class Interval:
    key: str  # "ei3" or "t1"
    start: float
    end: float
    event: str | None = None  # eid for instances
    linked: bool = False


@dataclass
class DocSpec:
    filename: str
    instances: int
    timexes: int
    relations: list[str]  # for ordinary (timeline) links
    pos: list[str]  # one per instance
    signal_links: int = 0
    direct_loops: list[str] = field(default_factory=list)
    eventid_loops: list[str] = field(default_factory=list)
    plant_inconsistency: bool = False


def holds(rel: str, a: Interval, b: Interval) -> bool:
    v = {"as": a.start, "ae": a.end, "bs": b.start, "be": b.end}
    return all(v[x] < v[y] if op == "<" else v[x] == v[y]
               for op, x, y in POINTS[rel])


def _retime(rng: random.Random, rel: str, a: Interval, b: Interval) -> None:
    """Move b on the timeline so that "a rel b" holds."""
    s, e = a.start, a.end
    gap = rng.uniform(0.5, 10.0)
    length = rng.uniform(0.5, 8.0)
    u, w = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    if u == w:
        w = min(0.99, u + 0.01)
    span = e - s
    b.start, b.end = {
        "BEFORE": (e + gap, e + gap + length),
        "AFTER": (s - gap - length, s - gap),
        "IBEFORE": (e, e + length),
        "IAFTER": (s - length, s),
        "INCLUDES": (s + span * u, s + span * w),
        "IS_INCLUDED": (s - gap, e + length),
        "BEGINS": (s, e + gap),
        "BEGUN_BY": (s, s + span * u),
        "ENDS": (s - gap, e),
        "ENDED_BY": (s + span * u, e),
    }.get(rel, (s, e))
    assert holds(rel, a, b), (rel, a, b)


def build_document(rng: random.Random, text_rng: random.Random,
                   spec: DocSpec) -> tuple[str, dict]:
    """Render one TimeML document; returns (xml text, ground-truth facts).
    rng draws the temporal structure, text_rng the text."""
    n_loop_events = len(spec.eventid_loops)
    n_events = spec.instances - n_loop_events
    events = []  # (eid, class, word, pos)
    instances: list[tuple[str, str, str]] = []  # (eiid, eid, pos)
    for i in range(n_events):
        pos = spec.pos[i]
        eid = f"e{i + 1}"
        events.append((eid, text_rng.choice(EVENT_CLASSES),
                       text_rng.choice(EVENT_WORDS[pos]), pos))
        instances.append((f"ei{i + 1}", eid, pos))
    # the events realized twice, for the eventID-match loops
    twice = rng.sample(range(n_events), n_loop_events)
    for k, i in enumerate(twice):
        instances.append((f"ei{n_events + k + 1}", events[i][0], spec.pos[n_events + k]))

    dct = Interval("t0", 100.0, 101.0)
    intervals = [Interval(eiid, 0.0, 0.0, event=eid) for eiid, eid, _ in instances]
    for iv in intervals:
        iv.start = rng.uniform(0.0, 110.0)
        iv.end = iv.start + rng.expovariate(1 / 3.0) + 0.05
    timex_phrases = [text_rng.choice(TIMEX_PHRASES) for _ in range(spec.timexes - 1)]
    for t in range(1, spec.timexes):
        start = rng.uniform(0.0, 110.0)
        intervals.append(Interval(f"t{t}", start, start + rng.uniform(0.5, 8.0)))
    rng.shuffle(intervals)
    by_key = {iv.key: iv for iv in intervals}
    by_key[dct.key] = dct
    fresh = list(intervals)
    rng.shuffle(fresh)

    links: list[list] = []  # [rel, arg1 key, arg2 key]

    def same_event(a: Interval, b: Interval) -> bool:
        return a is b or (a.event is not None and a.event == b.event)

    def take_fresh(exclude: Interval) -> Interval | None:
        while fresh:
            iv = fresh.pop()
            if not iv.linked and not same_event(iv, exclude):
                return iv
        return None

    def add(rel: str, a: Interval, b: Interval) -> None:
        a.linked = b.linked = True
        links.append([rel, a.key, b.key])

    for rel in spec.direct_loops:
        a = next(iv for iv in intervals if iv.event and not iv.linked)
        add(rel, a, a)
    for k, rel in enumerate(spec.eventid_loops):
        second = by_key[instances[n_events + k][0]]
        first = by_key[f"ei{twice[k] + 1}"]
        _retime(rng, rel, first, second)
        add(rel, first, second)

    # place equality relations first: they need a fresh interval each
    ordered = sorted(spec.relations, key=lambda r: r not in EQUALITY_RELATIONS)
    for rel in ordered:
        for _ in range(40):
            if rng.random() < DCT_LINK_SHARE:
                a, b = rng.choice(intervals), dct
            else:
                i = rng.randrange(len(intervals))
                block = i - i % CLUSTER
                j = rng.randrange(block, min(block + CLUSTER, len(intervals)))
                a, b = intervals[i], intervals[j]
            if same_event(a, b):
                continue
            if rng.random() < 0.5:
                a, b = b, a
            if not holds(rel, a, b):
                if b.linked or b is dct:
                    continue
                _retime(rng, rel, a, b)
            add(rel, a, b)
            break
        else:
            # no nearby pair fits: link a fresh interval anywhere, or as a
            # last resort any pair for which the relation already holds
            a = rng.choice([iv for iv in intervals if iv.linked] or intervals)
            b = take_fresh(a)
            if b is not None:
                _retime(rng, rel, a, b)
            else:
                pairs = [(x, y) for x in intervals for y in intervals
                         if not same_event(x, y) and holds(rel, x, y)]
                if not pairs:
                    raise RuntimeError(f"{spec.filename}: cannot place a {rel} link")
                a, b = rng.choice(pairs)
            add(rel, a, b)

    n_loops = len(spec.direct_loops) + len(spec.eventid_loops)
    plain = len(links)  # links that state timeline facts, loops included
    if spec.plant_inconsistency:
        # "y BEFORE x" contradicts every asserted "x REL y" except AFTER
        rel, x, y = rng.choice([l for l in links[n_loops:] if l[0] != "AFTER"])
        links.append(["BEFORE", y, x])
        by_key[x].linked = by_key[y].linked = True

    # signals on ordinary links only
    ordinary = list(range(n_loops, plain))
    signal_of = {}
    for n, index in enumerate(sorted(rng.sample(ordinary, spec.signal_links)), start=1):
        signal_of[index] = (f"s{n}", SIGNAL_WORDS[links[index][0]])

    # -- text --------------------------------------------------------------
    tokens = 0
    items = [("event", e) for e in events]
    items += [("timex", (f"t{t}", timex_phrases[t - 1])) for t in range(1, spec.timexes)]
    items += [("signal", s) for s in signal_of.values()]
    text_rng.shuffle(items)
    dct_value = f"1998-{text_rng.randint(1, 12):02d}-{text_rng.randint(1, 28):02d}"
    parts = ["<?xml version=\"1.0\" ?>\n<TimeML>\n<DCT><TIMEX3 tid=\"t0\" type=\"DATE\" "
             f"value=\"{dct_value}\" functionInDocument=\"CREATION_TIME\">"
             f"{dct_value}</TIMEX3></DCT>\n<TEXT>\n"]
    tokens += 1
    sentences = 0
    pos_in_item = 0
    while pos_in_item < len(items):
        take = text_rng.randint(1, 4)
        chunk = items[pos_in_item:pos_in_item + take]
        pos_in_item += take
        words = [text_rng.choice(FILLER).capitalize()]
        for kind, value in chunk:
            words.extend(text_rng.choice(FILLER) for _ in range(text_rng.randint(2, 6)))
            if kind == "event":
                eid, cls, word, _pos = value
                words.append(f"<EVENT eid=\"{eid}\" class=\"{cls}\">{word}</EVENT>")
                tokens += 1
            elif kind == "timex":
                tid, (ttype, phrase) = value
                words.append(f"<TIMEX3 tid=\"{tid}\" type=\"{ttype}\" "
                             f"value=\"1998-W{text_rng.randint(1, 52):02d}\">{phrase}</TIMEX3>")
                tokens += len(phrase.split())
            else:
                sid, word = value
                words.append(f"<SIGNAL sid=\"{sid}\">{word}</SIGNAL>")
                tokens += 1
        tail = [text_rng.choice(FILLER) for _ in range(text_rng.randint(2, 8))]
        tail[-1] += "."
        words.extend(tail)
        tokens += sum(1 for w in words if not w.startswith("<"))
        sentences += 1
        parts.append(" ".join(words))
        parts.append("\n\n" if sentences % 4 == 0 else " ")
    parts.append("\n</TEXT>\n")
    for eiid, eid, pos in instances:
        parts.append(f"<MAKEINSTANCE eiid=\"{eiid}\" eventID=\"{eid}\" pos=\"{pos}\" "
                     f"tense=\"{text_rng.choice(TENSES)}\" aspect=\"{text_rng.choice(ASPECTS)}\" "
                     f"polarity=\"{'NEG' if text_rng.random() < 0.04 else 'POS'}\"/>\n")
    for n, (rel, a, b) in enumerate(links, start=1):
        a1 = "eventInstanceID" if a.startswith("ei") else "timeID"
        a2 = "relatedToEventInstance" if b.startswith("ei") else "relatedToTime"
        signal = f" signalID=\"{signal_of[n - 1][0]}\"" if n - 1 in signal_of else ""
        parts.append(f"<TLINK lid=\"l{n}\" relType=\"{rel}\" {a1}=\"{a}\" "
                     f"{a2}=\"{b}\"{signal}/>\n")
    parts.append("</TimeML>\n")
    text = "".join(parts)

    word_of = {eid: word for eid, _, word, _ in events}
    orphans = sum(1 for iv in intervals + [dct] if not iv.linked)
    facts = {
        "filename": spec.filename,
        "bytes": len(text.encode("utf-8")),
        "tokens": tokens,
        "sentences": sentences,
        "events": n_events,
        "instances": len(instances),
        "timexes": spec.timexes,
        "signals": len(signal_of),
        "tlinks": len(links),
        "reltype": _count(l[0] for l in links),
        "signalid_filled_reltype": _count(links[i][0] for i in signal_of),
        "pos": _count(p for _, _, p in instances),
        "other_texts": sorted({word_of[eid] for _, eid, p in instances if p == "OTHER"}),
        "inconsistent": spec.plant_inconsistency,
        "loops": [{"lid": f"l{k + 1}", "reltype": links[k][0],
                   "kind": "direct" if k < len(spec.direct_loops) else "eventid"}
                  for k in range(n_loops)],
        "orphans": orphans,
        "planted_lid": f"l{len(links)}" if spec.plant_inconsistency else None,
    }
    return text, facts


def _count(values) -> dict[str, int]:
    return dict(sorted(Counter(values).items()))


# -- corpora -------------------------------------------------------------------

def survey_specs(seed: int) -> list[DocSpec]:
    """The 183 survey documents: fixed sizes and names, with the loop links,
    the planted inconsistencies, the remaining relation types and the signal
    links dealt out in a fixed way, and the parts of speech by the seed."""
    rng = random.Random("survey")
    sizes = survey_sizes()
    rng.shuffle(sizes)
    names = survey_filenames()
    specs = [DocSpec(name, inst, tmx, [], []) for name, (_, inst, tmx) in zip(names, sizes)]
    budget = [links for links, _, _ in sizes]

    pool = [rel for rel, n in RELTYPE_COUNTS.items() for _ in range(n)]
    eligible = [i for i, n in enumerate(budget) if n >= 4]
    loop_docs = rng.sample(eligible, LOOP_DOCUMENTS)
    slots = loop_docs + loop_docs[:EVENTID_LOOPS + len(DIRECT_LOOPS) - LOOP_DOCUMENTS]
    kinds = list(DIRECT_LOOPS) + [None] * EVENTID_LOOPS
    rng.shuffle(kinds)
    for doc, kind in zip(slots, kinds):
        if kind is None:
            kind = rng.choice([r for r in pool if r not in ("SIMULTANEOUS", "IDENTITY")])
            specs[doc].eventid_loops.append(kind)
        else:
            specs[doc].direct_loops.append(kind)
        pool.remove(kind)
        budget[doc] -= 1
    for doc in rng.sample([i for i, n in enumerate(budget) if n >= 5], INCONSISTENT_DOCUMENTS):
        specs[doc].plant_inconsistency = True
        pool.remove("BEFORE")
        budget[doc] -= 1
    rng.shuffle(pool)
    start = 0
    for spec, n in zip(specs, budget):
        spec.relations = pool[start:start + n]
        start += n

    ordinary = [i for i, n in enumerate(budget) for _ in range(n)]
    for i in rng.sample(ordinary, SIGNALID_FILLED):
        specs[i].signal_links += 1

    pos = [p for p, n in POS_COUNTS.items() for _ in range(n)]
    random.Random(f"survey-{seed}").shuffle(pos)
    start = 0
    for spec in specs:
        spec.pos = pos[start:start + spec.instances]
        start += spec.instances
    return specs


def long_specs(seed: int) -> list[DocSpec]:
    """A handful of long documents; sparse TLINKs (one per twelve instances),
    no loops and no planted inconsistency. The relation types are fixed,
    the parts of speech seeded."""
    rng = random.Random("long")
    pos_rng = random.Random(f"long-{seed}")
    rels = list(RELTYPE_COUNTS)
    rel_weights = list(RELTYPE_COUNTS.values())
    pos_names = list(POS_COUNTS)
    pos_weights = list(POS_COUNTS.values())
    specs = []
    for k, kb in enumerate(LONG_DOC_KB, start=1):
        instances = round(kb * 1024 / 235)
        links = instances // 12
        specs.append(DocSpec(
            f"long{k}_{kb}kb.tml", instances, 1 + instances // 6,
            rng.choices(rels, rel_weights, k=links),
            pos_rng.choices(pos_names, pos_weights, k=instances),
            signal_links=links // 9))
    return specs


WORKLOAD_CORPUS = {"timebank_survey": survey_specs, "report_session": survey_specs,
                   "long_docs": long_specs}


def generate(workload: str, seed: int, out_dir: Path | str) -> dict:
    """Write the workload's corpus and manifest.json into out_dir (created
    empty); returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=False)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir()
    specs = WORKLOAD_CORPUS[workload](seed)
    docs = []
    for spec in specs:
        text, facts = build_document(random.Random(f"{workload}-{spec.filename}"),
                                     random.Random(f"{workload}-{seed}-{spec.filename}"),
                                     spec)
        (corpus_dir / spec.filename).write_bytes(text.encode("utf-8"))
        docs.append(facts)
    docs.sort(key=lambda d: d["filename"])
    for doc_id, facts in enumerate(docs, start=1):
        facts["doc_id"] = doc_id
    manifest = build_manifest(workload, seed, docs)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _sum_counts(dicts) -> dict[str, int]:
    total: Counter = Counter()
    for d in dicts:
        total.update(d)
    return dict(sorted(total.items()))


def build_manifest(workload: str, seed: int, docs: list[dict]) -> dict:
    reltype = _sum_counts(d["reltype"] for d in docs)
    filled = sum(d["signals"] for d in docs)
    tlinks = sum(d["tlinks"] for d in docs)
    loops = [dict(loop, filename=d["filename"]) for d in docs for loop in d["loops"]]
    return {
        "workload": workload,
        "seed": seed,
        "sizes": {
            "bytes": sum(d["bytes"] for d in docs),
            "documents": len(docs),
            "tlinks": tlinks,
            "tokens": sum(d["tokens"] for d in docs),
        },
        "counts": {
            "events": sum(d["events"] for d in docs),
            "instances": sum(d["instances"] for d in docs),
            "timexes": sum(d["timexes"] for d in docs),
            "reltype": reltype,
            "reltype_cavat": fold_counts(reltype, CAVAT_FOLD),
            "signalid": {"filled": filled, "unfilled": tlinks - filled},
            "signalid_filled_by_reltype": _sum_counts(
                d["signalid_filled_reltype"] for d in docs),
            "pos": _sum_counts(d["pos"] for d in docs),
            "tlink_loop": {
                "findings": len(loops),
                "documents": len({l["filename"] for l in loops}),
                "simultaneous_or_identity": sum(
                    1 for l in loops if l["reltype"] in ("SIMULTANEOUS", "IDENTITY")),
            },
        },
        "planted_inconsistent": [d["filename"] for d in docs if d["inconsistent"]],
        "planted_loops": loops,
        "documents": [{k: d[k] for k in (
            "doc_id", "filename", "bytes", "tokens", "sentences", "tlinks",
            "instances", "events", "timexes", "signals", "orphans",
            "inconsistent", "planted_lid", "other_texts")}
            | {"loop_errors": sum(1 for l in d["loops"] if l["kind"] == "direct"),
               "loop_warnings": sum(1 for l in d["loops"] if l["kind"] == "eventid")}
            for d in docs],
    }


def fold_counts(reltype: dict[str, int], fold: dict[str, str]) -> dict[str, int]:
    return _sum_counts({fold.get(rel, rel): n} for rel, n in reltype.items())


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: generate.py <workload> <seed> <output dir>")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
