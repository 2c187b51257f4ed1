"""On-disk persistence for imported corpora.

Layout under the workspace root (default ~/.tml-workbench, override with
the TMLWB_HOME environment variable):

    catalog.json            corpus catalog + active corpus name
    corpora/<name>/corpus.json

The on-disk format is private to the tool; only the save/load round trip is
contracted. Writes take an exclusive lock file; reads do not.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import StoreError
from .model import (
    Corpus, Document, Event, EventInstance, IntervalRef, Link, Signal,
    Timex3, Token,
)

ENV_HOME = "TMLWB_HOME"
DEFAULT_HOME = "~/.tml-workbench"
_ENTRY_KEYS = {"documents", "note", "imported"}


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
        self.root.mkdir(parents=True, exist_ok=True)
        lock = self.root / ".lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreError(f"workspace {self.root} is locked by another "
                             f"writer{_lock_owner(lock)}") from None
        try:
            with os.fdopen(fd, "w", encoding="ascii") as owner:
                owner.write(f"{os.getpid()} {_now()}")
        except OSError as exc:
            lock.unlink(missing_ok=True)
            raise StoreError(f"cannot write {lock}: {exc.strerror}") from None
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)

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
        tmp.write_text(json.dumps(raw, indent=1, sort_keys=True), encoding="utf-8")
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
            payload = json.dumps(_corpus_to_json(corpus), sort_keys=True)
            try:
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
            except OSError as exc:
                raise StoreError(f"cannot write {target}: {exc.strerror}") from None
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
        return _corpus_from_json(_read_json(self._corpus_dir(name) / "corpus.json"))

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
            shutil.rmtree(self._corpus_dir(name), ignore_errors=True)
            self._write_catalog_raw(raw)

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


def _lock_owner(lock: Path) -> str:
    """' (pid N since T)' from the lock file; '' if it names no owner."""
    try:
        pid, since = lock.read_text(encoding="ascii").split()
    except (OSError, ValueError):  # unreadable, not ASCII, or not two words
        return ""
    return f" (pid {pid} since {since})" if pid.isdigit() else ""


# -- serialization -------------------------------------------------------

def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise StoreError(f"cannot read {path}: {exc}") from None


def _corpus_to_json(corpus: Corpus) -> dict:
    return {
        "name": corpus.name,
        "note": corpus.note,
        "documents": [_doc_to_json(d) for d in corpus.documents],
    }


def _doc_to_json(doc: Document) -> dict:
    index = {id(tok): i for i, tok in enumerate(doc.tokens)}

    def toks(tokens):
        return [index[id(t)] for t in tokens]

    return {
        "doc_id": doc.doc_id,
        "filename": doc.filename,
        "tokens": [[t.sentence_index, t.word_index, t.surface, t.lemma]
                   for t in doc.tokens],
        "events": {e.eid: {"attrs": e.attrs, "tokens": toks(e.tokens)}
                   for e in doc.events.values()},
        "instances": {i.eiid: {"event_id": i.event_id, "attrs": i.attrs}
                      for i in doc.instances.values()},
        "timexes": {t.tid: {"attrs": t.attrs, "tokens": toks(t.tokens)}
                    for t in doc.timexes.values()},
        "signals": {s.sid: {"tokens": toks(s.tokens)} for s in doc.signals.values()},
        "links": {l.lid: {
            "kind": l.kind, "rel_type": l.rel_type,
            "arg1": [l.arg1.kind, l.arg1.ref_id],
            "arg2": [l.arg2.kind, l.arg2.ref_id],
            "signal_id": l.signal_id, "origin": l.origin,
        } for l in doc.links.values()},
        "warnings": doc.warnings,
    }


def _corpus_from_json(payload: dict) -> Corpus:
    return Corpus(
        name=payload["name"],
        note=payload["note"],
        documents=[_doc_from_json(d) for d in payload["documents"]],
    )


def _doc_from_json(payload: dict) -> Document:
    tokens = [Token(s, w, surface, lemma)
              for s, w, surface, lemma in payload["tokens"]]

    def toks(indices):
        return [tokens[i] for i in indices]

    doc = Document(doc_id=payload["doc_id"], filename=payload["filename"],
                   tokens=tokens, warnings=list(payload["warnings"]))
    for eid, e in payload["events"].items():
        doc.events[eid] = Event(eid, dict(e["attrs"]), toks(e["tokens"]))
    for eiid, i in payload["instances"].items():
        doc.instances[eiid] = EventInstance(eiid, i["event_id"], dict(i["attrs"]))
    for tid, t in payload["timexes"].items():
        doc.timexes[tid] = Timex3(tid, dict(t["attrs"]), toks(t["tokens"]))
    for sid, s in payload["signals"].items():
        doc.signals[sid] = Signal(sid, toks(s["tokens"]))
    for lid, l in payload["links"].items():
        doc.links[lid] = Link(
            lid, l["kind"], l["rel_type"],
            IntervalRef(l["arg1"][0], l["arg1"][1]),
            IntervalRef(l["arg2"][0], l["arg2"][1]),
            signal_id=l["signal_id"], origin=l["origin"])
    return doc


def corpus_fingerprint(corpus: Corpus) -> str:
    """Stable content hash, used to assert that checks never mutate a corpus."""
    import hashlib
    blob = json.dumps(_corpus_to_json(corpus), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
