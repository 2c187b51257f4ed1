"""TimeML XML parsing, relation folding and corpus import.

A file is parsed in one walk over its XML tree and one word scan over its
text; an import lemmatizes each distinct surface once.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

from . import tokenizer
from .errors import LoadError
from .model import (
    Corpus, Document, Event, EventInstance, IntervalRef, Link, Signal,
    Timex3, INSTANCE, LINK_ARGS, TLINK_RELATIONS,
)

SPAN_TAGS = ("EVENT", "TIMEX3", "SIGNAL")
# the elements parse_document reads, and those whose attributes it keeps
PARSED_TAGS = frozenset((*SPAN_TAGS, "MAKEINSTANCE", *LINK_ARGS))
SHAPED_TAGS = frozenset(("EVENT", "TIMEX3", "MAKEINSTANCE"))


@dataclass(frozen=True)
class FoldScheme:
    """A relation-rewriting table; swap means arg1/arg2 are exchanged."""
    name: str
    mapping: dict[str, tuple[str, bool]]


# Inverse-collapsing fold: every mapped row swaps the link arguments.
CAVAT_FOLD = FoldScheme("cavat", {
    "AFTER": ("BEFORE", True),
    "IS_INCLUDED": ("INCLUDES", True),
    "IAFTER": ("IBEFORE", True),
    "BEGUN_BY": ("BEGINS", True),
    "ENDED_BY": ("ENDS", True),
    "DURING_INV": ("SIMULTANEOUS", True),
    "DURING": ("SIMULTANEOUS", True),
    "SIMULTANEOUS": ("SIMULTANEOUS", True),
})

# Lossy three-class fold down to {BEFORE, INCLUDES, SIMULTANEOUS}.
COMPACT_FOLD = FoldScheme("compact", {
    "AFTER": ("BEFORE", True),
    "IBEFORE": ("BEFORE", False),
    "IAFTER": ("BEFORE", True),
    "IS_INCLUDED": ("INCLUDES", True),
    "BEGINS": ("INCLUDES", True),
    "BEGUN_BY": ("INCLUDES", False),
    "ENDS": ("INCLUDES", True),
    "ENDED_BY": ("INCLUDES", False),
    "DURING": ("SIMULTANEOUS", False),
    "DURING_INV": ("SIMULTANEOUS", False),
    "IDENTITY": ("SIMULTANEOUS", False),
})

NO_FOLD = FoldScheme("none", {})


def get_fold_scheme(name: str) -> FoldScheme:
    """Look up a fold scheme by name (none, cavat, compact)."""
    name, folds = name.lower(), {fold.name: fold for fold in (NO_FOLD, CAVAT_FOLD, COMPACT_FOLD)}
    if name not in folds:
        raise LoadError(f"unknown fold scheme {name!r}; available: {', '.join(folds)}")
    return folds[name]


def apply_fold(doc: Document, scheme: FoldScheme) -> Document:
    """Rewrite TLINK relation types per the fold table; SLINK/ALINK untouched.

    Rows mapping a relation to itself are identities: the arguments are not
    swapped, which keeps folding idempotent (such relations are symmetric in
    point terms, so nothing is lost).
    """
    links = {}
    for lid, link in doc.links.items():
        if link.kind == "TLINK" and link.rel_type in scheme.mapping:
            target, swap = scheme.mapping[link.rel_type]
            if target != link.rel_type:
                if swap:
                    link = replace(link, rel_type=target,
                                   arg1=link.arg2, arg2=link.arg1)
                else:
                    link = replace(link, rel_type=target)
        links[lid] = link
    return replace(doc, links=links)


def parse_document(path: Path | str, doc_id: int = 0,
                   lemma_of: dict[str, str] | None = None) -> Document:
    """Parse one TimeML file into a Document.

    An unreadable file or malformed XML raises LoadError. Links with an
    unknown TLINK relType and tags with duplicate or missing ids are skipped
    with a warning recorded on the document; dangling id references also
    become warnings.

    The XML tree is walked once and the text scanned for words once.
    lemma_of maps each surface seen so far to its lemma, and gains the
    surfaces of this document, so that a surface is lemmatized once however
    many documents share the dict (import_corpus passes one per import).
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except OSError as exc:
        raise LoadError(f"{path.name}: cannot read ({exc.strerror})") from exc
    # ValueError and LookupError: the XML declaration names an encoding
    # that expat cannot decode or that Python does not know
    except (ET.ParseError, ValueError, LookupError) as exc:
        raise LoadError(f"{path.name}: malformed XML ({exc})") from exc
    text, tags = _walk(tree.getroot())
    doc = Document(doc_id, path.name)
    starts, ends = _tokenize(doc, text, {} if lemma_of is None else lemma_of)
    shapes: dict[tuple[str, ...], tuple[str, ...]] = {}  # one keys tuple per shape

    for tag, attrs, start, end in tags:
        if tag in SPAN_TAGS:
            # tokens come in document order and do not overlap, so the tokens
            # overlapping [start, end) (ts < end and te > start) are one range
            first, stop = bisect_right(ends, start), bisect_left(starts, end)
            if first >= stop:
                first = stop = 0
        if tag in SHAPED_TAGS:
            keys = tuple(attrs)
            keys = shapes.setdefault(keys, keys)
        if tag == "EVENT":
            eid = attrs.get("eid")
            if _check_id(doc, eid, doc.events, "EVENT", "eid"):
                doc.events[eid] = Event(eid, keys, list(attrs.values()), first, stop)
        elif tag == "TIMEX3":
            tid = attrs.get("tid")
            if _check_id(doc, tid, doc.timexes, "TIMEX3", "tid"):
                doc.timexes[tid] = Timex3(tid, keys, list(attrs.values()), first, stop)
        elif tag == "SIGNAL":
            sid = attrs.get("sid")
            if _check_id(doc, sid, doc.signals, "SIGNAL", "sid"):
                doc.signals[sid] = Signal(sid, first, stop)
        elif tag == "MAKEINSTANCE":
            eiid = attrs.get("eiid")
            if _check_id(doc, eiid, doc.instances, "MAKEINSTANCE", "eiid"):
                doc.instances[eiid] = EventInstance(eiid, attrs.get("eventID", ""),
                                                    keys, list(attrs.values()))
        else:
            link = _parse_link(doc, tag, attrs)
            if link is not None:
                doc.links[link.lid] = link

    _check_dangling(doc)
    return doc


def _walk(root: ET.Element) -> tuple[str, list[list]]:
    """The document text, and a [tag, attributes, start, end] record of every
    element parse_document reads, in document order (preorder), with the
    element's character range in the text.

    The walk keeps a running offset and an explicit stack, so it is linear
    in the size of the document and survives any nesting depth. The
    attribute dicts are the tree's own; the tree is dropped after the parse.
    """
    chars: list[str] = []
    tags: list[list] = []
    offset = 0
    stack = []  # (open element, its record, iterator over its children)
    elem = root
    while elem is not None:
        tag = elem.tag.upper()
        record = None
        if tag in PARSED_TAGS:
            record = [tag, elem.attrib, offset, offset]
            tags.append(record)
        if elem.text:
            chars.append(elem.text)
            offset += len(elem.text)
        stack.append((elem, record, iter(elem)))
        elem = None
        # close finished elements until one has a child left to enter
        while stack and elem is None:
            parent, record, children = stack[-1]
            elem = next(children, None)
            if elem is None:
                stack.pop()
                if record is not None:
                    record[3] = offset
                if parent.tail:  # None for the root
                    chars.append(parent.tail)
                    offset += len(parent.tail)
    return "".join(chars), tags


def _tokenize(doc: Document, text: str,
              lemma_of: dict[str, str]) -> tuple[list[int], list[int]]:
    """Fill the token columns of doc from its text; returns the start and
    end offset of each token.

    One scan finds every word. A sentence cut always follows whitespace, so
    no word crosses one, and each sentence ends before the first word that
    starts at or after its end.
    """
    spans = tokenizer.word_spans(text)
    starts = [start for start, _ in spans]
    ends = [end for _, end in spans]
    doc.sentence_bounds.extend(bisect_left(starts, end)
                               for _, end in tokenizer.sentence_spans(text))
    doc.surfaces = surfaces = [text[start:end] for start, end in spans]
    for surface in dict.fromkeys(surfaces):
        if surface not in lemma_of:
            lemma_of[surface] = tokenizer.lemmatize(surface)
    doc.lemmas = [lemma_of[surface] for surface in surfaces]
    return starts, ends


def _check_id(doc: Document, tag_id, existing: dict, family: str, attr: str) -> bool:
    if not tag_id:
        doc.warnings.append(f"{family} without {attr} skipped")
        return False
    if tag_id in existing:
        doc.warnings.append(f"duplicate {family} id {tag_id}; keeping first")
        return False
    return True


def _parse_link(doc: Document, kind: str, attrs: dict[str, str]) -> Link | None:
    lid = attrs.get("lid")
    if not lid:
        doc.warnings.append(f"{kind} without lid skipped")
        return None
    if lid in doc.links:
        doc.warnings.append(f"duplicate link id {lid}; keeping first")
        return None
    rel_type = attrs.get("relType", "").upper()
    if kind == "TLINK" and rel_type not in TLINK_RELATIONS:
        doc.warnings.append(f"TLINK {lid} has unknown relType {attrs.get('relType')!r}; skipped")
        return None
    args = []
    for candidates in LINK_ARGS[kind]:
        for attr_name, arg_kind in candidates:
            value = attrs.get(attr_name)
            if value:
                args.append(IntervalRef(arg_kind, value))
                break
        else:
            doc.warnings.append(f"{kind} {lid} missing an argument; skipped")
            return None
    return Link(lid, kind, rel_type, *args,
                signal_id=attrs.get("signalID") or None,
                origin=attrs.get("origin") or None)


def _check_dangling(doc: Document) -> None:
    for inst in doc.instances.values():
        if inst.event_id and inst.event_id not in doc.events:
            doc.warnings.append(
                f"MAKEINSTANCE {inst.eiid} references missing event {inst.event_id}")
    for link in doc.links.values():
        if link.signal_id and link.signal_id not in doc.signals:
            doc.warnings.append(
                f"{link.kind} {link.lid} references missing signal {link.signal_id}")
        for ref in (link.arg1, link.arg2):
            pool = doc.instances if ref.kind == INSTANCE else doc.timexes
            if ref.ref_id not in pool:
                doc.warnings.append(
                    f"{link.kind} {link.lid} references missing {ref.kind} {ref.ref_id}")
    for inst, signal_id in zip(doc.instances.values(),
                               doc.column("instance", "signalid")):
        if signal_id and signal_id not in doc.signals:
            doc.warnings.append(
                f"MAKEINSTANCE {inst.eiid} references missing signal {signal_id}")


def import_corpus(directory: Path | str, name: str,
                  fold: FoldScheme = NO_FOLD) -> Corpus:
    """Parse every regular file in a directory (non-recursive) into a corpus.

    Documents are numbered from 1 in filename sort order. Unparseable files
    are skipped and recorded on corpus.skipped; a corpus with zero parseable
    files is an error. Each distinct surface is lemmatized once per import,
    and its documents share the lemma strings.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"not a directory: {directory}")
    corpus = Corpus(name=name, note=f"fold={fold.name}")
    lemma_of: dict[str, str] = {}
    doc_id = 0
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            doc = parse_document(path, doc_id + 1, lemma_of)
        except LoadError as exc:
            corpus.skipped.append(str(exc))
            continue
        doc_id += 1
        corpus.documents.append(apply_fold(doc, fold))
    if not corpus.documents:
        raise LoadError(f"no parseable TimeML files in {directory}")
    return corpus
