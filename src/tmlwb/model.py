"""In-memory data model for TimeML corpora.

A Document holds the tags of one TimeML file. Its tokens are columns, as
the store writes them: every surface, every lemma, and the sentence bounds
(the token index at which each sentence starts, then the token count). An
EVENT, TIMEX3 or SIGNAL names its tokens as one range [first, end) of those
columns, (0, 0) when it has none, and the document answers a span's text,
lemma and position. Tag objects keep the
raw XML attribute dictionary so that re-serialization loses nothing; typed
accessors cover the attributes the rest of the workbench needs. Everything
is treated as immutable after load.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache

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
# from its EVENT (see field_value)
INSTANCE_SOURCED = ("tense", "aspect", "polarity", "modality", "cardinality",
                    "pos", "signalid")


@dataclass(frozen=True)
class IntervalRef:
    """Reference to a temporal primitive: an event instance or a TIMEX3."""
    kind: str  # INSTANCE or TIMEX
    ref_id: str


@cache
def _key_map(names: tuple[str, ...]) -> dict[str, str]:
    """Lowercase name -> the first of names with that lowercase form; one map
    per distinct tuple of attribute names, shared by every tag that has it."""
    return {name.lower(): name for name in reversed(names)}


class Attributed:
    """A tag whose raw XML attributes are read without regard to case."""

    def __post_init__(self):
        self.attr_keys = _key_map(tuple(self.attrs))

    def attr(self, name: str) -> str | None:
        """The attribute whose lowercase name is name; None when absent or empty."""
        key = self.attr_keys.get(name)
        return None if key is None else self.attrs[key] or None


@dataclass
class Event(Attributed):
    eid: str
    attrs: dict[str, str]
    first: int
    end: int


@dataclass
class EventInstance(Attributed):
    eiid: str
    event_id: str
    attrs: dict[str, str]


@dataclass
class Timex3(Attributed):
    tid: str
    attrs: dict[str, str]
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

    @property
    def tlinks(self) -> list[Link]:
        return [l for l in self.links.values() if l.kind == "TLINK"]

    def text(self, span: Event | Timex3 | Signal) -> str:
        return " ".join(self.surfaces[span.first:span.end])

    def lemma(self, span: Event | Timex3 | Signal) -> str:
        return " ".join(self.lemmas[span.first:span.end])

    def sentence_of(self, index: int) -> int:
        """The sentence of the token at index."""
        return bisect_right(self.sentence_bounds, index) - 1

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


def field_value(doc: Document, obj: Event | EventInstance | Timex3 | Signal,
                name: str) -> str | None:
    """The value of one field of an EVENT, MAKEINSTANCE, TIMEX3 or SIGNAL;
    None when it is absent or empty.

    An instance takes its own attributes (INSTANCE_SOURCED, eiid, eventid)
    from the MAKEINSTANCE tag and every other field from the EVENT it
    instantiates; when that reference dangles, those fields are None.
    Other fields are the tag's id, its span's text, lemma and position, or
    an XML attribute looked up without regard to case.
    """
    if isinstance(obj, EventInstance):
        if name == "eiid":
            return obj.eiid
        if name == "eventid":
            return obj.event_id or None
        if name in INSTANCE_SOURCED:
            return obj.attr(name)
        obj = doc.events.get(obj.event_id)
        if obj is None:
            return None
    if name == "text":
        return doc.text(obj) or None
    if name == "lemma":
        return doc.lemma(obj) or None
    if name == "position":
        return position_string(doc.position(obj))
    if name in ("eid", "tid", "sid"):
        return getattr(obj, name, None)
    return obj.attr(name) if isinstance(obj, Attributed) else None


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
