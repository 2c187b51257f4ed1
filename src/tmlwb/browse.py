"""Document and tag inspection: attribute display, TimeML re-serialization
and TLINK-in-context views."""
from __future__ import annotations

import difflib

from .errors import CommandError
from .model import (
    LINK_ARGS, Corpus, Document, Event, EventInstance, Link, Signal, Timex3,
    interval_span, link_signal_text, position_string,
)
from .query import TAGS, _csv


def select_document(corpus: Corpus, key: str) -> Document:
    """Resolve a document by id or filename; suggests near matches on miss."""
    if key.isdecimal():
        try:
            doc = corpus.document(int(key))
        except ValueError:  # more digits than int() converts: no document has the id
            doc = None
        if doc is not None:
            return doc
    doc = corpus.document_by_filename(key)
    if doc is not None:
        return doc
    names = [d.filename for d in corpus.documents]
    close = difflib.get_close_matches(key, names, n=3, cutoff=0.4)
    hint = f"; did you mean: {', '.join(close)}" if close else ""
    raise CommandError(f"no document {key!r} in corpus {corpus.name!r}{hint}")


def _lookup(doc: Document, tag: str, tag_id: str):
    pools = {
        "event": doc.events, "instance": doc.instances, "timex3": doc.timexes,
        "signal": doc.signals,
    }
    if tag in pools:
        obj = pools[tag].get(tag_id)
    elif tag in TAGS:  # the lowercase name of a link kind
        obj = doc.links.get(tag_id)
        if obj is not None and obj.kind != tag.upper():
            obj = None
    else:
        raise CommandError(f"unknown tag family {tag!r}; "
                           f"expected one of: {', '.join(TAGS)}")
    if obj is None:
        raise CommandError(f"no {tag} with id {tag_id!r} in {doc.filename}")
    return obj


# -- TimeML serialization -------------------------------------------------

_ID_ATTRS = {Event: "eid", Timex3: "tid", Signal: "sid", EventInstance: "eiid",
             Link: "lid"}
_ELEMENTS = {Event: "EVENT", Timex3: "TIMEX3", Signal: "SIGNAL",
             EventInstance: "MAKEINSTANCE"}


def _ordered_attrs(obj) -> list[tuple[str, str]]:
    """A tag's TimeML attributes in canonical order: the id attribute first,
    the rest sorted case-insensitively."""
    id_attr = _ID_ATTRS[type(obj)]
    if isinstance(obj, Link):
        rest = _link_attrs(obj)
    else:
        rest = getattr(obj, "attrs", {})  # a Signal has only its id
    return [(id_attr, getattr(obj, id_attr)),
            *sorted(((k, v) for k, v in rest.items() if k != id_attr),
                    key=lambda kv: kv[0].lower())]


# the escapes of xml.sax.saxutils.escape and quoteattr, which would import
# urllib.request and with it the network modules into every tmlwb process
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _quoteattr(value: str) -> str:
    """An attribute value escaped and quoted, in single quotes if it holds
    a double quote and no single quote."""
    value = value.translate(_ATTR_ESCAPES)
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def serialize_tag(doc: Document, tag: str, tag_id: str) -> str:
    """Render one tag as a well-formed TimeML fragment."""
    obj = _lookup(doc, tag, tag_id)
    element = obj.kind if isinstance(obj, Link) else _ELEMENTS[type(obj)]
    attrs = " ".join(f"{k}={_quoteattr(v)}" for k, v in _ordered_attrs(obj))
    if isinstance(obj, (EventInstance, Link)):
        return f"<{element} {attrs}/>"
    return f"<{element} {attrs}>{doc.text(obj).translate(_TEXT_ESCAPES)}</{element}>"


def _link_attrs(link: Link) -> dict[str, str]:
    """A link's TimeML attributes; each argument goes to the candidate
    attribute of its kind in LINK_ARGS, or else to the last candidate."""
    attrs = {"relType": link.rel_type}
    for ref, candidates in zip((link.arg1, link.arg2), LINK_ARGS[link.kind]):
        name = next((name for name, kind in candidates if kind == ref.kind),
                    candidates[-1][0])
        attrs[name] = ref.ref_id
    if link.signal_id:
        attrs["signalID"] = link.signal_id
    if link.origin:
        attrs["origin"] = link.origin
    return attrs


# -- display --------------------------------------------------------------

def _attr_rows(doc: Document, obj) -> list[tuple[str, str]]:
    rows = _ordered_attrs(obj)
    if isinstance(obj, (Event, Timex3, Signal)):
        rows.append(("text", doc.text(obj)))
        rows.append(("position", position_string(doc.position(obj)) or "-"))
    return rows


def browse_tag(doc: Document, tag: str, tag_id: str, fmt: str = "screen") -> str:
    """Show one tag with its associated data, in screen, csv or timeml form."""
    if fmt == "timeml":
        return serialize_tag(doc, tag, tag_id)
    obj = _lookup(doc, tag, tag_id)
    rows = _attr_rows(doc, obj)
    if fmt == "csv":
        return _csv([k for k, _ in rows], [[v for _, v in rows]])
    if fmt != "screen":
        raise CommandError(f"unknown browse format {fmt!r}; "
                           "expected screen, csv or timeml")
    lines = [f"{tag.upper()} {tag_id}"]
    lines += [f"  {k}: {v}" for k, v in rows[1:]]
    lines += _associated(doc, obj)
    return "\n".join(lines)


def _associated(doc: Document, obj) -> list[str]:
    lines: list[str] = []
    if isinstance(obj, Event):
        instances = [i for i in doc.instances.values() if i.event_id == obj.eid]
        if instances:
            lines.append("Instances:")
            for inst in instances:
                attrs = ", ".join(f"{k}={v}" for k, v in sorted(inst.attrs.items())
                                  if k not in ("eiid", "eventID"))
                lines.append(f"  MAKEINSTANCE {inst.eiid}: {attrs}")
    elif isinstance(obj, EventInstance):
        event = doc.events.get(obj.event_id)
        if event is not None:
            lines.append(f'Event {event.eid}: "{doc.text(event)}"')
        else:
            lines.append(f"Event {obj.event_id}: (missing)")
    elif isinstance(obj, Link):
        for name, ref in (("arg1", obj.arg1), ("arg2", obj.arg2)):
            span = interval_span(doc, ref)
            text = doc.text(span) if span else None
            shown = f'"{text}"' if text else "(unresolved)"
            lines.append(f"  {name}: {ref.ref_id} {shown}")
        signal_text = link_signal_text(doc, obj)
        if obj.signal_id:
            shown = f'"{signal_text}"' if signal_text else "(unresolved)"
            lines.append(f"  signal: {obj.signal_id} {shown}")
    return lines


def show_link_context(doc: Document, lid: str) -> str:
    """Print the sentence(s) containing a link's arguments with the argument
    spans bracket-highlighted, plus the relation and signal text."""
    link = doc.links.get(lid)
    if link is None:
        raise CommandError(f"no link with id {lid!r} in {doc.filename}")
    notes: list[str] = []
    marked: set[int] = set()  # token indices
    for name, ref in (("arg1", link.arg1), ("arg2", link.arg2)):
        span = interval_span(doc, ref)
        if span is None:
            notes.append(f"note: {name} {ref.ref_id} does not resolve")
        elif span.first == span.end:
            notes.append(f"note: {name} {ref.ref_id} has no text position")
        else:
            marked.update(range(span.first, span.end))
    lines: list[str] = []
    bounds = doc.sentence_bounds
    for sentence in sorted({doc.sentence_of(i) for i in marked}):
        lines.append(" ".join(
            f"[{doc.surfaces[i]}]" if i in marked else doc.surfaces[i]
            for i in range(bounds[sentence], bounds[sentence + 1])))
    relation = f"{link.kind} {link.lid}: {link.arg1.ref_id} {link.rel_type} {link.arg2.ref_id}"
    signal_text = link_signal_text(doc, link)
    if signal_text:
        relation += f' (signal: "{signal_text}")'
    lines.append(relation)
    lines.extend(notes)
    return "\n".join(lines)
