"""In-memory data model for TimeML corpora.

A Document holds the tags of one TimeML file. Its tokens are columns, as
the store writes them: every surface, every lemma, and the sentence bounds
(the token index at which each sentence starts, then the token count). An
EVENT, TIMEX3 or SIGNAL names its tokens as one range [first, end) of those
columns, (0, 0) when it has none, and the document answers a span's text
and position. An EVENT, MAKEINSTANCE or TIMEX3 keeps its raw XML
attributes as two sequences, as the store writes them: keys, the attribute
names in tag order (a "shape"), and values, the value of each name. Tags of
one shape share one keys tuple, so a parse or a load builds no attribute
dict and runs no set-up per tag, and re-serialization loses nothing; attrs
builds the attribute dict on demand. Everything is treated as immutable
after load.

Reports read fields through one resolver, Document.column: one field of
every occurrence in a pool (a tag's, or a link kind's), in pool order, or
their sentence numbers. A document keeps each column it builds for as long
as it lives; the store never writes them.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter

# the closed set of TLINK relation types
TLINK_RELATIONS = frozenset({
    "BEFORE", "AFTER", "IBEFORE", "IAFTER",
    "INCLUDES", "IS_INCLUDED",
    "BEGINS", "BEGUN_BY", "ENDS", "ENDED_BY",
    "SIMULTANEOUS", "IDENTITY", "DURING", "DURING_INV",
})

# interval kinds
INSTANCE = "instance"
TIMEX = "timex"

# attributes that live on MAKEINSTANCE; an instance takes every other field
# from its EVENT (see Document.column)
INSTANCE_SOURCED = ("tense", "aspect", "polarity", "modality", "cardinality",
                    "pos", "signalid")


@dataclass(frozen=True)
class IntervalRef:
    """Reference to a temporal primitive: an event instance or a TIMEX3."""
    kind: str  # INSTANCE or TIMEX
    ref_id: str


class _Tagged:
    """The attributes of a tag kept as keys and values (see the module
    docstring)."""
    __slots__ = ()

    @property
    def attrs(self) -> dict[str, str]:
        return dict(zip(self.keys, self.values))


@dataclass(slots=True)
class Event(_Tagged):
    eid: str
    keys: tuple[str, ...]
    values: list[str]
    first: int
    end: int


@dataclass(slots=True)
class EventInstance(_Tagged):
    eiid: str
    event_id: str
    keys: tuple[str, ...]
    values: list[str]


@dataclass(slots=True)
class Timex3(_Tagged):
    tid: str
    keys: tuple[str, ...]
    values: list[str]
    first: int
    end: int


@dataclass
class Signal:
    sid: str
    first: int
    end: int


@dataclass
class Link:
    """Unified TLINK/SLINK/ALINK record with abstract arg1/arg2."""
    lid: str
    kind: str  # "TLINK" | "SLINK" | "ALINK"
    rel_type: str
    arg1: IntervalRef
    arg2: IntervalRef
    signal_id: str | None = None
    origin: str | None = None


def link_arg_attr_names(kind: str, arg1: IntervalRef, arg2: IntervalRef) -> tuple[str, str]:
    """The TimeML attribute names carrying arg1/arg2 for this link kind."""
    a1 = "eventInstanceID" if arg1.kind == INSTANCE else "timeID"
    if kind == "SLINK":
        a2 = "subordinatedEventInstance"
    elif arg2.kind == INSTANCE:
        a2 = "relatedToEventInstance"
    else:
        a2 = "relatedToTime"
    return a1, a2


@dataclass
class Document:
    doc_id: int
    filename: str
    # sentence k is tokens [sentence_bounds[k], sentence_bounds[k + 1])
    sentence_bounds: list[int] = field(default_factory=lambda: [0])
    surfaces: list[str] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)
    events: dict[str, Event] = field(default_factory=dict)
    instances: dict[str, EventInstance] = field(default_factory=dict)
    timexes: dict[str, Timex3] = field(default_factory=dict)
    signals: dict[str, Signal] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    # the columns column() has built, by (pool, field); never stored, and
    # new and empty in a copy made by dataclasses.replace
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def tlinks(self) -> list[Link]:
        return [l for l in self.links.values() if l.kind == "TLINK"]

    def text(self, span: Event | Timex3 | Signal) -> str:
        return " ".join(self.surfaces[span.first:span.end])

    def sentence_of(self, index: int) -> int:
        """The sentence of the token at index."""
        return bisect_right(self.sentence_bounds, index) - 1

    def column(self, pool: str, name: str | None) -> tuple:
        """One field of every occurrence in a pool, in pool order (see
        _build_column); name None gives each occurrence's sentence number.
        A column is built on first use and kept: the model is immutable
        after load."""
        key = (pool, name)
        column = self._columns.get(key)
        if column is None:
            # a tuple of str, int and None leaves the cyclic collector's care
            # at its next pass, so kept columns add nothing to the collection
            # that each corpus load starts with
            column = self._columns[key] = tuple(_build_column(self, pool, name))
        return column

    def position(self, span: Event | Timex3 | Signal) -> tuple[int, int] | None:
        """(sentence, word) of a span's first token; None if it has none."""
        if span.first == span.end:
            return None
        sentence = self.sentence_of(span.first)
        return sentence, span.first - self.sentence_bounds[sentence]


@dataclass
class Corpus:
    name: str
    note: str
    documents: list[Document] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # not persisted

    def document(self, doc_id: int) -> Document | None:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        return None

    def document_by_filename(self, filename: str) -> Document | None:
        for doc in self.documents:
            if doc.filename == filename:
                return doc
        return None


def position_string(pos: tuple[int, int] | None) -> str | None:
    return None if pos is None else f"{pos[0]}:{pos[1]}"


# link fields read from the Link record
_LINK_GETTERS = {
    "lid": attrgetter("lid"), "reltype": attrgetter("rel_type"),
    "arg1": attrgetter("arg1.ref_id"), "arg2": attrgetter("arg2.ref_id"),
    "signalid": attrgetter("signal_id"), "origin": attrgetter("origin"),
}


def _build_column(doc: Document, pool: str, name: str | None) -> list:
    """The values of one field over a pool of occurrences, in pool order;
    None where a value is absent or empty. With name None, the sentence
    number of each occurrence's first token, -1 when it has none.

    A pool is "event", "instance", "timex3" or "signal" (the tags, in
    document order), or "tlink", "slink" or "alink" (the links of that
    kind). An instance takes its own attributes (INSTANCE_SOURCED, eiid,
    eventid) from the MAKEINSTANCE tag and every other field, and its
    sentence, from the EVENT it instantiates; when that reference dangles,
    those are None (-1). A link's sentence is that of its arg1. Other
    fields are the tag's id, its span's text, lemma and position, or an
    XML attribute looked up without regard to case. The field is decided
    once, and one comprehension builds the column.
    """
    if pool in ("tlink", "slink", "alink"):
        kind = pool.upper()
        links = [link for link in doc.links.values() if link.kind == kind]
        if name == "signaltext":
            return [link_signal_text(doc, link) for link in links]
        if name is not None:
            get = _LINK_GETTERS.get(name)
            return [None] * len(links) if get is None else [get(link) or None for link in links]
        spans = [interval_span(doc, link.arg1) for link in links]
    elif pool == "instance":
        instances = doc.instances.values()
        if name == "eiid":
            return [inst.eiid or None for inst in instances]
        if name == "eventid":
            return [inst.event_id or None for inst in instances]
        if name in INSTANCE_SOURCED:
            return _attr_column(instances, name)
        spans = [doc.events.get(inst.event_id) for inst in instances]
    else:
        spans = list({"event": doc.events, "timex3": doc.timexes,
                      "signal": doc.signals}[pool].values())
    # spans holds the Event, Timex3 or Signal of each occurrence, or None
    if name is None:
        bounds = doc.sentence_bounds
        return [-1 if span is None or span.first == span.end
                else bisect_right(bounds, span.first) - 1 for span in spans]
    if name in ("text", "lemma"):
        words = doc.surfaces if name == "text" else doc.lemmas
        # most spans are one token, which needs no slice or join
        return [None if span is None or span.first == span.end
                else words[span.first] or None if span.end - span.first == 1
                else " ".join(words[span.first:span.end]) for span in spans]
    if name == "position":
        bounds = doc.sentence_bounds
        return [None if sentence < 0 else f"{sentence}:{span.first - bounds[sentence]}"
                for span, sentence in zip(spans, doc.column(pool, None))]
    if name in ("eid", "tid", "sid"):
        return [getattr(span, name, None) or None for span in spans]
    if pool == "signal":  # a SIGNAL has no attributes
        return [None] * len(spans)
    return _attr_column(spans, name)


@cache
def _key_index(keys: tuple[str, ...], name: str) -> int | None:
    """The index of the first of keys whose lowercase form is name; looked
    up once per shape and name, for every tag of that shape."""
    for index, key in enumerate(keys):
        if key.lower() == name:
            return index
    return None


def _attr_column(tags, name: str) -> list[str | None]:
    """The XML attribute whose lowercase name is name, of each tag (which may
    be None); None when absent or empty. Of two names that differ only in
    case, the first in the tag wins. Tags of one shape share its keys and
    mostly come in runs, so the index of name is looked up when the shape
    changes, not for every tag."""
    column = []
    append = column.append
    shape = index = None
    for tag in tags:
        if tag is None:
            append(None)
            continue
        if tag.keys is not shape:
            shape = tag.keys
            index = _key_index(shape, name)
        append(None if index is None else tag.values[index] or None)
    return column


def interval_span(doc: Document, ref: IntervalRef) -> Event | Timex3 | None:
    """The EVENT (through its instance) or TIMEX3 an interval refers to;
    None when the reference dangles."""
    if ref.kind == INSTANCE:
        inst = doc.instances.get(ref.ref_id)
        return doc.events.get(inst.event_id) if inst else None
    return doc.timexes.get(ref.ref_id)


def link_signal_text(doc: Document, link: Link) -> str | None:
    """The token span of a link's SIGNAL, joined with single spaces."""
    if not link.signal_id:
        return None
    signal = doc.signals.get(link.signal_id)
    if signal is None:
        return None
    return doc.text(signal) or None
