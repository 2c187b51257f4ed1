"""On-disk persistence for imported corpora.

Layout under the workspace root (default ~/.tml-workbench, override with
the TMLWB_HOME environment variable):

    catalog.json            corpus catalog + active corpus name
    .lock                   the write lock
    corpora/<name>/corpus.json

The on-disk format is private to the tool; only the save/load round trip is
contracted. A write (import, use, delete) holds an exclusive flock on .lock
and writes its pid and start time into it; reads take no lock. The kernel
drops the lock when its holder exits or dies, so a crashed writer leaves a
file that blocks no one, and the file is never removed: removing a locked
file would let a second writer lock a new one. Where the fcntl module is
missing (Windows), every write is refused.

corpus.json is store format version 3, one JSON object:

    {"version": 3, "name", "note", "documents": [{
        "doc_id", "filename", "warnings",
        "sentences": [token count of each sentence],
        "surfaces": "...", "lemmas": "...",        # the tokens, space-joined
        "shapes": [[attribute name, ...]],
        "events": [[eid, shape, values, first, end]],
        "instances": [[eiid, event_id, shape, values]],
        "timexes": [[tid, shape, values, first, end]],
        "signals": [[sid, first, end]],
        "links": [[lid, kind, rel_type, arg1_kind, arg1_id,
                   arg2_kind, arg2_id, signal_id, origin]]}]}

These are the columns of the in-memory Document (see tmlwb.model), which
keeps the running sums of the sentence lengths instead of the lengths. A
shape is the attribute names of a tag in tag order, listed once per
document however many tags have it; an EVENT, MAKEINSTANCE or TIMEX3
record names its shape by index and holds the value of each of its names.
Tokens are runs of non-whitespace, so a token column is one string that
split(" ") cuts back into its tokens. A save writes the columns, keys,
values and span bounds as they are, and a load builds no object per token
and no dict per tag. Records are written in sorted-id order, so a loaded
corpus iterates every tag dict in sorted key order, and shapes are numbered
in order of first use. A file of any other version, or with no "version"
(as tmlwb wrote before versions existed), is a StoreError that tells the
user to delete the corpus and import it again. A load refuses a record of
the wrong type (a doc_id that is not an int, an id or a reference to one
that is not a str, a shape index that is not an int or names no shape, a
value row that is not a list of str as long as its shape, a shape name that
is not a str, a link kind outside LINK_ARGS, an argument kind other than
INSTANCE or TIMEX or that LINK_ARGS does not allow in its place, a TLINK
relation type outside TLINK_RELATIONS, surfaces or lemmas that are not a
str, a token count other than the sum of the sentence lengths, warnings that
are not a list, a filename or warning that is not a str) as not a tmlwb corpus, so no command fails on it later, and
the refusal names the index and filename of the failing document record.
corpus_fingerprint is the sha256 of the payload save_corpus writes, so a
corpus has one encoding and its fingerprint is the hash of its stored
corpus.json.

A load builds an object for every tag and link. The cyclic garbage
collector would rescan the partly built corpus many times over, at a cost
that grows with the live heap, so load_corpus builds with the collector
paused and then freezes the result (gc.freeze), which keeps it out of
every later collection. The model has no reference cycles, so reference
counting alone frees a replaced corpus, frozen or not.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

try:
    import fcntl
except ImportError:  # not a POSIX platform: writes are refused
    fcntl = None

from .errors import StoreError
from .model import (
    Corpus, Document, Event, EventInstance, IntervalRef, Link, Signal, Timex3,
    INSTANCE, LINK_ARGS, TIMEX, TLINK_RELATIONS,
)

ENV_HOME = "TMLWB_HOME"
DEFAULT_HOME = "~/.tml-workbench"
_ENTRY_KEYS = {"documents", "note", "imported"}
STORE_VERSION = 3
# the (link kind, arg1 kind, arg2 kind) triples that LINK_ARGS allows
_LINK_TRIPLES = {(kind, kind1, kind2) for kind, (arg1, arg2) in LINK_ARGS.items()
                 for _, kind1 in arg1 for _, kind2 in arg2}


def check_corpus_name(name: str) -> None:
    """Refuse names that are not a single directory entry under corpora/."""
    if name in ("", ".", "..") or any(sep in name for sep in ("/", "\\", os.sep)):
        raise StoreError(f"invalid corpus name {name!r}: must be non-empty, "
                         "not . or .., and contain no path separator")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document_count: int
    note: str
    imported: str  # ISO timestamp


@dataclass
class StoreCatalog:
    entries: list[CatalogEntry]
    active: str | None


class Store:
    def __init__(self, root: Path | str | None = None):
        if root is None:
            root = os.environ.get(ENV_HOME, DEFAULT_HOME)
        self.root = Path(root).expanduser()

    # -- paths -----------------------------------------------------------
    @property
    def _catalog_path(self) -> Path:
        return self.root / "catalog.json"

    def _corpus_dir(self, name: str) -> Path:
        check_corpus_name(name)
        return self.root / "corpora" / name

    @contextmanager
    def _write_lock(self):
        if fcntl is None:
            raise StoreError(f"cannot write {self.root}: this platform has no "
                             "fcntl file locks, so tmlwb can only read corpora")
        with _writing(self.root):
            self.root.mkdir(parents=True, exist_ok=True)
        lock = self.root / ".lock"
        with _writing(lock):
            fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            with _writing(lock):
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    raise StoreError(f"workspace {self.root} is locked by another "
                                     f"writer{_lock_owner(lock)}") from None
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()} {_now()}".encode("ascii"))
            yield
        finally:
            os.close(fd)  # which releases the lock

    # -- catalog ---------------------------------------------------------
    def _read_catalog_raw(self) -> dict:
        path = self._catalog_path
        if not path.exists():
            return {"active": None, "entries": {}}
        raw = _read_json(path)
        if not (isinstance(raw, dict) and isinstance(raw.get("entries"), dict)
                and "active" in raw and isinstance(raw["active"], (str, type(None)))
                and all(isinstance(info, dict) and _ENTRY_KEYS <= info.keys()
                        for info in raw["entries"].values())):
            raise StoreError(f"cannot read {path}: not a tmlwb catalog")
        return raw

    def _write_catalog_raw(self, raw: dict) -> None:
        tmp = self._catalog_path.with_suffix(".tmp")
        with _writing(tmp):
            tmp.write_text(json.dumps(raw, indent=1, sort_keys=True), encoding="utf-8")
        with _writing(self._catalog_path):
            tmp.replace(self._catalog_path)

    def list_corpora(self) -> StoreCatalog:
        raw = self._read_catalog_raw()
        entries = [
            CatalogEntry(name, info["documents"], info["note"], info["imported"])
            for name, info in sorted(raw["entries"].items())
        ]
        return StoreCatalog(entries=entries, active=raw["active"])

    # -- corpora ---------------------------------------------------------
    def save_corpus(self, corpus: Corpus) -> None:
        """Persist a corpus; refuses to overwrite an existing name.

        The corpus is written into a temporary directory under corpora/ and
        renamed into place before the catalog names it, so a crash leaves
        no half-written corpus. A directory of the same name with no catalog
        entry is such a crash's leftover and is replaced; so are the
        temporary directories of crashed imports, which no other writer can
        own while this one holds the lock. A corpus may itself be named
        .import-*; a directory the catalog names is never removed.
        """
        target = self._corpus_dir(corpus.name)
        with self._write_lock():
            raw = self._read_catalog_raw()
            if corpus.name in raw["entries"]:
                raise StoreError(f"corpus {corpus.name!r} already exists")
            payload = _corpus_payload(corpus)
            with _writing(target):
                target.parent.mkdir(exist_ok=True)
                for leftover in target.parent.glob(".import-*"):
                    if leftover.name not in raw["entries"]:
                        shutil.rmtree(leftover, ignore_errors=True)
                tmp = Path(tempfile.mkdtemp(prefix=".import-", dir=target.parent))
                try:
                    (tmp / "corpus.json").write_text(payload, encoding="utf-8")
                    if target.exists():
                        shutil.rmtree(target)
                    tmp.rename(target)
                finally:
                    shutil.rmtree(tmp, ignore_errors=True)
            raw["entries"][corpus.name] = {
                "documents": len(corpus.documents),
                "note": corpus.note,
                "imported": _now(),
            }
            self._write_catalog_raw(raw)

    def load_corpus(self, name: str) -> Corpus:
        raw = self._read_catalog_raw()
        if name not in raw["entries"]:
            available = ", ".join(sorted(raw["entries"])) or "(none)"
            raise StoreError(f"unknown corpus {name!r}; available: {available}")
        path = self._corpus_dir(name) / "corpus.json"
        with _collector_paused():
            return _corpus_from_file(path, name)

    def use_corpus(self, name: str) -> Corpus:
        """Load a corpus and mark it active for subsequent sessions."""
        corpus = self.load_corpus(name)
        with self._write_lock():
            raw = self._read_catalog_raw()
            raw["active"] = name
            self._write_catalog_raw(raw)
        return corpus

    def delete_corpus(self, name: str) -> None:
        with self._write_lock():
            raw = self._read_catalog_raw()
            if name not in raw["entries"]:
                raise StoreError(f"unknown corpus {name!r}")
            del raw["entries"][name]
            if raw["active"] == name:
                raw["active"] = None
            # the catalog first: a failed write leaves the corpus whole, and
            # a directory the catalog no longer names is replaced on import
            self._write_catalog_raw(raw)
            shutil.rmtree(self._corpus_dir(name), ignore_errors=True)

    def active_corpus_name(self) -> str | None:
        return self._read_catalog_raw()["active"]

    def corpus_info(self) -> str:
        """Note text of the active corpus."""
        raw = self._read_catalog_raw()
        name = raw["active"]
        if name is None or name not in raw["entries"]:
            raise StoreError("no corpus selected")
        return raw["entries"][name]["note"]


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


@contextmanager
def _writing(path: Path):
    """Turn an OSError of the block into StoreError("cannot write path")."""
    try:
        yield
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc.strerror}") from None


@contextmanager
def _collector_paused():
    """Build a corpus with the cyclic garbage collector paused, and freeze
    what was built if the build succeeds (see the module docstring).

    Collecting first keeps garbage cycles out of the frozen generation; the
    caller's collector state is restored either way.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def _lock_owner(lock: Path) -> str:
    """' (pid N since T)' from the lock file; '' if it names no owner."""
    try:
        pid, since = lock.read_text(encoding="ascii").split()
    except (OSError, ValueError):  # unreadable, not ASCII, or not two words
        return ""
    return f" (pid {pid} since {since})" if pid.isdigit() else ""


# -- serialization -------------------------------------------------------

def _read_json(path: Path, object_hook=None):
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_hook=object_hook)
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise StoreError(f"cannot read {path}: {exc}") from None


def _corpus_payload(corpus: Corpus) -> str:
    """The corpus.json text of a corpus: its format-3 dict (see the module
    docstring) as compact JSON with sorted keys."""
    return json.dumps({
        "version": STORE_VERSION,
        "name": corpus.name,
        "note": corpus.note,
        "documents": [_doc_to_disk(d) for d in corpus.documents],
    }, sort_keys=True, separators=(",", ":"))


def _doc_to_disk(doc: Document) -> dict:
    """The format-3 dict of a document."""
    bounds = doc.sentence_bounds
    shapes: dict[tuple[str, ...], int] = {}  # shape -> its index, by first use

    def shape(tag) -> int:
        return shapes.setdefault(tag.keys, len(shapes))

    return {
        "doc_id": doc.doc_id,
        "filename": doc.filename,
        "warnings": doc.warnings,
        "sentences": [end - start for start, end in zip(bounds, bounds[1:])],
        "surfaces": " ".join(doc.surfaces),
        "lemmas": " ".join(doc.lemmas),
        "events": [[eid, shape(e), e.values, e.first, e.end]
                   for eid, e in sorted(doc.events.items())],
        "instances": [[eiid, i.event_id, shape(i), i.values]
                      for eiid, i in sorted(doc.instances.items())],
        "timexes": [[tid, shape(t), t.values, t.first, t.end]
                    for tid, t in sorted(doc.timexes.items())],
        "shapes": list(shapes),  # after the three lists above have filled it
        "signals": [[sid, s.first, s.end]
                    for sid, s in sorted(doc.signals.items())],
        "links": [[lid, l.kind, l.rel_type, l.arg1.kind, l.arg1.ref_id,
                   l.arg2.kind, l.arg2.ref_id, l.signal_id, l.origin]
                  for lid, l in sorted(doc.links.items())],
    }


def _split_token_columns(record: dict) -> dict:
    """The object_hook of a corpus.json load: split the token columns of a
    document record as soon as it is decoded, and wrap each in a 1-tuple,
    which no JSON value decodes to, so that _doc_from_disk can tell a
    column that was a str.

    Split in decoding order, a document's token strings are made next to
    its tag strings. Split after the whole file is decoded, the strings of
    each load fill the holes of the corpus that the previous load replaced,
    and a scan over the tags of the third corpus loaded in one process took
    twice as long.
    """
    for column in ("surfaces", "lemmas"):
        tokens = record.get(column)
        if type(tokens) is str:
            # no token holds a space, and a document may have none
            record[column] = (tokens.split(" ") if tokens else [],)
    return record


def _corpus_from_file(path: Path, name: str) -> Corpus:
    """Load a corpus.json of store format version 3."""
    payload = _read_json(path, _split_token_columns)
    # a JSON value that is not an object fails below as not a tmlwb corpus
    if isinstance(payload, dict) and payload.get("version") != STORE_VERSION:
        raise StoreError(
            f"cannot read {path}: this tmlwb reads store format version "
            f"{STORE_VERSION} only, and the file's \"version\" is "
            f"{payload.get('version', 'missing')}; run 'corpus delete {name}', "
            "then 'corpus import' the corpus again")
    in_documents = False
    try:
        corpus = Corpus(name=payload["name"], note=payload["note"])
        for record in payload["documents"]:
            in_documents = True
            corpus.documents.append(_doc_from_disk(record))
    except (LookupError, TypeError, ValueError) as exc:
        where = ""
        if in_documents:  # the record that failed is documents[len(corpus.documents)]
            filename = record.get("filename") if isinstance(record, dict) else None
            where = f"documents[{len(corpus.documents)}]" + (
                f" {filename!r}" if isinstance(filename, str) else "") + ", "
        raise StoreError(f"cannot read {path}: not a tmlwb corpus "
                         f"({where}{type(exc).__name__}: {exc})") from None
    return corpus


def _doc_from_disk(payload: dict) -> Document:
    sentences = payload["sentences"]
    surfaces, lemmas = payload["surfaces"], payload["lemmas"]
    if not type(surfaces) is type(lemmas) is tuple:  # see _split_token_columns
        raise TypeError("surfaces and lemmas are not both strings")
    (surfaces,), (lemmas,) = surfaces, lemmas
    # a str would pass the checks below as a list of its characters
    if type(payload["warnings"]) is not list:
        raise TypeError("warnings are not a list")
    if not all(type(n) is int and n >= 0 for n in sentences):
        raise ValueError("sentence lengths are not all counts")
    bounds = list(accumulate(sentences, initial=0))
    count = bounds[-1]
    if not len(surfaces) == len(lemmas) == count:
        raise ValueError(f"{count} tokens but {len(surfaces)} surfaces "
                         f"and {len(lemmas)} lemmas")
    # a TypeError unless every warning, and the filename, is a str
    "".join(payload["warnings"]) + payload["filename"]
    events, timexes, signals = payload["events"], payload["timexes"], payload["signals"]
    instances, links = payload["instances"], payload["links"]
    if type(payload["doc_id"]) is not int:
        raise TypeError(f"doc_id {payload['doc_id']!r} is not a number")
    shapes = payload["shapes"]
    if not all(type(names) is list for names in shapes):
        raise TypeError("shapes are not all lists")
    shapes = [tuple(names) for names in shapes]
    shape_column = [*map(itemgetter(1), events), *map(itemgetter(2), instances),
                    *map(itemgetter(1), timexes)]
    rows = [*map(itemgetter(2), events), *map(itemgetter(3), instances),
            *map(itemgetter(2), timexes)]
    if not set(map(type, shape_column)) <= {int}:
        raise TypeError("shape indices are not all ints")
    if shape_column and not 0 <= min(shape_column) <= max(shape_column) < len(shapes):
        raise ValueError(f"a shape index is not one of the {len(shapes)} shapes")
    if not set(map(type, rows)) <= {list}:
        raise TypeError("value rows are not all lists")
    # these checks run in C, not in a Python loop over the records: a
    # ValueError unless every row has a value for each name of its shape,
    # and a TypeError unless every name and value is a str
    widths = [len(names) for names in shapes]
    if list(map(len, rows)) != list(map(widths.__getitem__, shape_column)):
        raise ValueError("a value row and its shape differ in length")
    "".join(chain.from_iterable(chain(shapes, rows)))
    kinds = set(map(itemgetter(1, 2), links))
    triples = set(map(itemgetter(1, 3, 5), links))
    arg_kinds = {arg_kind for _, *pair in triples for arg_kind in pair}
    for what, unknown in (("link kind", {kind for kind, _ in kinds} - LINK_ARGS.keys()),
                          ("argument kind", arg_kinds - {INSTANCE, TIMEX}),
                          ("(link kind, arg1 kind, arg2 kind)", triples - _LINK_TRIPLES),
                          ("TLINK relation type", {rel for kind, rel in kinds
                                                   if kind == "TLINK"} - TLINK_RELATIONS)):
        if unknown:
            raise ValueError(f"unknown {what} " + ", ".join(sorted(map(repr, unknown))))
    for record in (*events, *timexes, *signals):
        first, end = record[-2:]
        if not (type(first) is int and type(end) is int and 0 <= first <= end <= count):
            raise ValueError(f"span {record[-2:]} of {record[0]} is out of range")
    doc = Document(
        doc_id=payload["doc_id"],
        filename=payload["filename"],
        sentence_bounds=bounds,
        surfaces=surfaces,
        lemmas=lemmas,
        events={eid: Event(eid, shapes[shape], values, first, end)
                for eid, shape, values, first, end in events},
        instances={eiid: EventInstance(eiid, event_id, shapes[shape], values)
                   for eiid, event_id, shape, values in instances},
        timexes={tid: Timex3(tid, shapes[shape], values, first, end)
                 for tid, shape, values, first, end in timexes},
        signals={sid: Signal(sid, first, end) for sid, first, end in signals},
        links={lid: Link(lid, kind, rel_type, IntervalRef(kind1, id1),
                         IntervalRef(kind2, id2), signal_id, origin)
               for lid, kind, rel_type, kind1, id1, kind2, id2, signal_id, origin
               in links},
        warnings=payload["warnings"],
    )
    # a TypeError unless every id, and every id that a record refers to, is
    # a str
    "".join(chain(doc.events, doc.instances, doc.timexes, doc.signals, doc.links,
                  map(itemgetter(1), instances), map(itemgetter(4), links),
                  map(itemgetter(6), links)))
    return doc


def corpus_fingerprint(corpus: Corpus) -> str:
    """Stable content hash: the sha256 of the corpus.json that save_corpus
    writes. Used to assert that checks never mutate a corpus."""
    return hashlib.sha256(_corpus_payload(corpus).encode("utf-8")).hexdigest()
