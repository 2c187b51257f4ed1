import gc
import hashlib
import json
import os
import random
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from tmlwb.cli import Session, main, run_commands
from tmlwb.errors import StoreError
from tmlwb.ingest import CAVAT_FOLD, NO_FOLD, import_corpus
from tmlwb.model import (
    Corpus, Document, Event, EventInstance, IntervalRef, Link, Signal, Timex3,
)
from tmlwb.store import Store, corpus_fingerprint

from conftest import FIXTURE_DIR
from test_ingest import random_timeml


@pytest.fixture
def store(workspace):
    return Store()


class TestRoundTrip:
    def test_save_load_identical(self, store, corpus):
        store.save_corpus(corpus)
        loaded = store.load_corpus("fixture")
        assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)

    def test_reload_in_new_store_instance(self, store, corpus, workspace):
        store.save_corpus(corpus)
        reloaded = Store().load_corpus("fixture")
        doc = reloaded.document_by_filename("consistent.tml")
        assert doc.text(doc.events["e1"]) == "arrived"
        assert doc.links["l2"].signal_id == "s1"
        original = corpus.document_by_filename("consistent.tml")
        assert doc.sentence_bounds == original.sentence_bounds
        assert doc.surfaces == original.surfaces
        assert doc.lemmas == original.lemmas

    @pytest.mark.parametrize("fold", [NO_FOLD, CAVAT_FOLD], ids=lambda f: f.name)
    def test_fingerprint_hashes_stored_file(self, store, workspace, fold):
        corpus = import_corpus(FIXTURE_DIR, "fx", fold)
        store.save_corpus(corpus)
        stored = (workspace / "corpora" / "fx" / "corpus.json").read_bytes()
        assert corpus_fingerprint(corpus) == hashlib.sha256(stored).hexdigest()

    @pytest.mark.parametrize("fold,digest", [
        (NO_FOLD, "b5d893dc4eb586c11b317447add2d5d6ec5616d6729b43eaabf4a70bee41c2a3"),
        (CAVAT_FOLD, "0c1e2a1363bb8056f203133af711857b8290453d839190ceb8a9f2cfcbf26652"),
    ], ids=["none", "cavat"])
    def test_stored_bytes_pinned(self, store, workspace, fold, digest):
        """The stored corpus.json of the fixtures, byte for byte: a change
        to the store format, or to what import produces, moves it."""
        store.save_corpus(import_corpus(FIXTURE_DIR, "fx", fold))
        stored = (workspace / "corpora" / "fx" / "corpus.json").read_bytes()
        assert hashlib.sha256(stored).hexdigest() == digest

    def test_save_twice_refused(self, store, corpus):
        store.save_corpus(corpus)
        with pytest.raises(StoreError, match="already exists"):
            store.save_corpus(corpus)


class TestCatalog:
    def test_empty_workspace(self, store):
        catalog = store.list_corpora()
        assert catalog.entries == []
        assert catalog.active is None

    def test_two_corpora_listed(self, store, corpus):
        store.save_corpus(corpus)
        other = import_corpus(FIXTURE_DIR, "second")
        store.save_corpus(other)
        names = [e.name for e in store.list_corpora().entries]
        assert names == ["fixture", "second"]

    def test_entry_document_count(self, store, corpus):
        store.save_corpus(corpus)
        entry = store.list_corpora().entries[0]
        assert entry.document_count == 8
        assert entry.note == "fold=none"

    def test_catalog_read_does_not_mutate(self, store, corpus):
        store.save_corpus(corpus)
        before = corpus_fingerprint(store.load_corpus("fixture"))
        store.list_corpora()
        store.use_corpus("fixture")
        store.corpus_info()
        assert corpus_fingerprint(store.load_corpus("fixture")) == before


class TestUseAndInfo:
    def test_use_sets_active(self, store, corpus):
        store.save_corpus(corpus)
        store.use_corpus("fixture")
        assert store.active_corpus_name() == "fixture"

    def test_use_unknown_lists_available(self, store, corpus):
        store.save_corpus(corpus)
        with pytest.raises(StoreError, match="fixture"):
            store.use_corpus("nope")

    def test_info_requires_active(self, store):
        with pytest.raises(StoreError, match="no corpus selected"):
            store.corpus_info()

    def test_info_reports_fold(self, store):
        folded = import_corpus(FIXTURE_DIR, "folded", CAVAT_FOLD)
        store.save_corpus(folded)
        store.use_corpus("folded")
        assert "fold=cavat" in store.corpus_info()

    def test_info_after_delete_errors(self, store, corpus):
        store.save_corpus(corpus)
        store.use_corpus("fixture")
        store.delete_corpus("fixture")
        with pytest.raises(StoreError, match="no corpus selected"):
            store.corpus_info()

    def test_delete_unknown(self, store):
        with pytest.raises(StoreError):
            store.delete_corpus("ghost")


class TestLocking:
    def test_stale_lock_blocks_writer(self, store, corpus, workspace):
        workspace.mkdir(parents=True, exist_ok=True)
        (workspace / ".lock").touch()
        with pytest.raises(StoreError, match="locked"):
            store.save_corpus(corpus)

    @pytest.mark.parametrize("content,owner", [
        (b"1234 2026-10-18T05:17:35", " (pid 1234 since 2026-10-18T05:17:35)"),
        (b"", ""), (b"garbage", ""), (b"\xff\xfe 1", "")])
    def test_lock_names_owner(self, store, corpus, workspace, content, owner):
        workspace.mkdir(parents=True, exist_ok=True)
        (workspace / ".lock").write_bytes(content)
        with pytest.raises(StoreError) as exc:
            store.save_corpus(corpus)
        assert str(exc.value).endswith("is locked by another writer" + owner)

    def test_lock_written_while_held(self, store, corpus, workspace, monkeypatch):
        seen = []
        monkeypatch.setattr(Store, "_write_catalog_raw", lambda self, raw: seen.append(
            (workspace / ".lock").read_text(encoding="ascii")))
        store.save_corpus(corpus)
        pid, since = seen[0].split()
        assert int(pid) == os.getpid()
        time.strptime(since, "%Y-%m-%dT%H:%M:%S")
        assert not (workspace / ".lock").exists()

    def test_readers_ignore_lock(self, store, corpus, workspace):
        store.save_corpus(corpus)
        (workspace / ".lock").touch()
        assert store.load_corpus("fixture").name == "fixture"


class TestCrashSafety:
    def test_leftover_directory_replaced(self, store, corpus, workspace):
        leftover = workspace / "corpora" / "fixture"
        leftover.mkdir(parents=True)
        (leftover / "corpus.json").write_text("{half", encoding="utf-8")
        (leftover / "stray").write_text("x", encoding="utf-8")
        store.save_corpus(corpus)
        assert sorted(p.name for p in (workspace / "corpora").iterdir()) == ["fixture"]
        assert sorted(p.name for p in leftover.iterdir()) == ["corpus.json"]
        assert corpus_fingerprint(store.load_corpus("fixture")) == corpus_fingerprint(corpus)

    def test_failed_publish_leaves_nothing(self, store, corpus, workspace, monkeypatch):
        def fail(self, target):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(Path, "rename", fail)
        with pytest.raises(StoreError, match="cannot write .*No space left"):
            store.save_corpus(corpus)
        assert list((workspace / "corpora").iterdir()) == []
        assert not (workspace / ".lock").exists()
        assert store.list_corpora().entries == []

    def test_import_leftovers_removed(self, store, corpus, workspace):
        leftover = workspace / "corpora" / ".import-x"
        leftover.mkdir(parents=True)
        (leftover / "corpus.json").write_text("{half", encoding="utf-8")
        assert store.list_corpora().entries == []
        store.save_corpus(corpus)
        assert not leftover.exists()
        assert [p.name for p in (workspace / "corpora").iterdir()] == ["fixture"]
        assert [e.name for e in store.list_corpora().entries] == ["fixture"]

    def test_delete_removes_directory(self, store, corpus, workspace):
        store.save_corpus(corpus)
        store.delete_corpus("fixture")
        assert store.list_corpora().entries == []
        assert list((workspace / "corpora").iterdir()) == []

    def test_failed_catalog_write_keeps_deleted_corpus(self, store, corpus,
                                                       workspace, monkeypatch):
        store.save_corpus(corpus)

        def fail(self, raw):
            raise StoreError(f"cannot write {self.root}: No space left on device")
        monkeypatch.setattr(Store, "_write_catalog_raw", fail)
        with pytest.raises(StoreError, match="No space left"):
            store.delete_corpus("fixture")
        assert [e.name for e in store.list_corpora().entries] == ["fixture"]
        assert corpus_fingerprint(store.load_corpus("fixture")) == corpus_fingerprint(corpus)
        assert not (workspace / ".lock").exists()

    def test_corpus_named_like_a_leftover_kept(self, store, corpus, workspace):
        named = replace(corpus, name=".import-x")
        store.save_corpus(named)
        store.save_corpus(replace(corpus, name="second"))
        assert sorted(p.name for p in (workspace / "corpora").iterdir()) == [
            ".import-x", "second"]
        kept = store.load_corpus(".import-x")
        assert corpus_fingerprint(kept) == corpus_fingerprint(named)

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\\b"])
    def test_invalid_names_refused(self, store, corpus, workspace, name):
        with pytest.raises(StoreError, match="invalid corpus name"):
            store.save_corpus(replace(corpus, name=name))
        assert not workspace.exists()


def legacy_corpus_from_json(payload: dict) -> Corpus:
    """The reader of the unversioned store format that preceded version 2.
    tmlwb no longer reads that format; this reader stays as an independent
    reference that the version-2 loader must build alike."""
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
            doc.events[eid] = Event(eid, dict(e["attrs"]), *toks(e["tokens"]))
        for eiid, i in d["instances"].items():
            doc.instances[eiid] = EventInstance(eiid, i["event_id"], dict(i["attrs"]))
        for tid, t in d["timexes"].items():
            doc.timexes[tid] = Timex3(tid, dict(t["attrs"]), *toks(t["tokens"]))
        for sid, sig in d["signals"].items():
            doc.signals[sid] = Signal(sid, *toks(sig["tokens"]))
        for lid, l in d["links"].items():
            doc.links[lid] = Link(
                lid, l["kind"], l["rel_type"], IntervalRef(*l["arg1"]),
                IntervalRef(*l["arg2"]), signal_id=l["signal_id"], origin=l["origin"])
        docs.append(doc)
    return Corpus(name=payload["name"], note=payload["note"], documents=docs)


def legacy_payload(corpus: Corpus) -> str:
    """A corpus.json as the unversioned store wrote it."""
    return json.dumps(legacy_corpus_to_json(corpus), sort_keys=True)


def legacy_corpus_to_json(corpus: Corpus) -> dict:
    """The writer of the unversioned store format, kept for the reference
    reader above and for the unversioned file that a load must refuse."""
    return {
        "name": corpus.name,
        "note": corpus.note,
        "documents": [_legacy_doc_to_json(d) for d in corpus.documents],
    }


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


def loaded_shape(corpus: Corpus) -> list:
    """Iteration order of every tag dict and attribute dict, the token
    columns and every span's bounds, of each document."""
    shape = []
    for d in corpus.documents:
        families = (d.events, d.instances, d.timexes, d.signals, d.links)
        shape.append((
            [list(family) for family in families],
            [list(tag.attrs) for family in families[:3] for tag in family.values()],
            (d.sentence_bounds, d.surfaces, d.lemmas),
            [(tag.first, tag.end) for family in (d.events, d.timexes, d.signals)
             for tag in family.values()],
            d.warnings,
        ))
    return shape


def random_corpus(directory: Path, count: int) -> Corpus:
    directory.mkdir()
    for seed in range(count):
        (directory / f"r{seed:03}.tml").write_text(
            random_timeml(random.Random(seed)), encoding="utf-8")
    return import_corpus(directory, "random")


class TestFormatVersion2:
    def assert_loads_like_legacy(self, store, corpus):
        store.save_corpus(corpus)
        loaded = store.load_corpus(corpus.name)
        expected = legacy_corpus_from_json(json.loads(legacy_payload(corpus)))
        assert corpus_fingerprint(loaded) == corpus_fingerprint(expected)
        assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)
        assert loaded_shape(loaded) == loaded_shape(expected)

    @pytest.mark.parametrize("fold", [NO_FOLD, CAVAT_FOLD], ids=lambda f: f.name)
    def test_fixtures_load_like_legacy(self, store, fold):
        self.assert_loads_like_legacy(store, import_corpus(FIXTURE_DIR, "fx", fold))

    def test_random_documents_load_like_legacy(self, store, tmp_path):
        corpus = random_corpus(tmp_path / "random", 200)
        assert len(corpus.documents) == 200
        self.assert_loads_like_legacy(store, corpus)

    def test_file_is_version_2(self, store, corpus, workspace):
        store.save_corpus(corpus)
        payload = json.loads((workspace / "corpora" / "fixture" / "corpus.json")
                             .read_text(encoding="utf-8"))
        assert payload["version"] == 2
        doc = payload["documents"][0]
        assert sum(doc["sentences"]) == len(doc["surfaces"]) == len(doc["lemmas"])

    def test_unversioned_file_refused(self, store, corpus, workspace, capsys):
        """A corpus.json from before store versions is an error line that
        names the fix, and the fix restores the corpus."""
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        path.write_text(legacy_payload(corpus), encoding="utf-8")
        assert main(["-c", "corpus use fixture"]) == 1
        out = capsys.readouterr().out
        assert out == (f"error: cannot read {path}: this tmlwb reads store format "
                       "version 2 only, and the file's \"version\" is missing; run "
                       "'corpus delete fixture', then 'corpus import' the corpus "
                       "again\n")
        assert main(["-c", f"corpus delete fixture; "
                           f"corpus import {FIXTURE_DIR} as fixture"]) == 0
        session = Session(store=Store())
        assert run_commands(session, ["corpus use fixture"]) == 0
        assert corpus_fingerprint(session.corpus) == (
            "6160229060236bacb2a38f4392d49c8300e6b21a9507f1e86f4d98032a6d5035")

    def test_unknown_version_refused(self, store, corpus, workspace):
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match="the file's \"version\" is 99; run "
                           "'corpus delete fixture'"):
            store.load_corpus("fixture")

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["documents"][0].pop("surfaces"),
        lambda p: p["documents"][0]["events"].append(["e999", {}, 0, 10 ** 6]),
        lambda p: p["documents"][0]["events"].append(["e999", {}, 3, 2]),
        lambda p: p["documents"][0]["sentences"].append(1),
        lambda p: p["documents"][0]["sentences"].extend([-1, 1]),
        lambda p: p["documents"][0]["events"].append(["e999", {}, 0.5, 1]),
        lambda p: p["documents"][0]["links"].append(["l999", "TLINK"]),
        lambda p: p["documents"].append(None),
        lambda p: p.update(documents=7),
        lambda p: p["documents"][1]["events"][0][1].update({"class": 5}),
        lambda p: p["documents"][1]["events"][0].__setitem__(1, "abc"),
        lambda p: p["documents"][1].update(doc_id="x"),
        lambda p: p["documents"][1]["events"][0].__setitem__(0, 7),
        lambda p: p["documents"][0]["links"][0].__setitem__(2, "NOPE"),
        lambda p: p["documents"][1]["links"][0].__setitem__(4, 5),
        lambda p: p["documents"][0].update(filename=5),
        lambda p: p["documents"][0].update(filename=None),
        lambda p: p["documents"][0].update(warnings=[5]),
        lambda p: p["documents"][0].update(warnings=7),
        # a str as long as the token column, where a list belongs
        lambda p: p["documents"][1].update(surfaces="a" * len(p["documents"][1]["surfaces"])),
        lambda p: p["documents"][1].update(lemmas="a" * len(p["documents"][1]["lemmas"])),
        lambda p: p["documents"][1].update(warnings="xy"),
    ])
    def test_corrupt_file_is_an_error_line(self, store, corpus, workspace, capsys,
                                           corrupt):
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        # browse doc's "did you mean" hint reads every filename
        assert main(["-c", "corpus use fixture; browse doc nosuch"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot read {path}: not a tmlwb corpus")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("corrupt, where", [
        (lambda p: p["documents"][1]["events"][0][1].update({"class": 5}),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][1]["events"][0].__setitem__(0, 7),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][2].update(filename=5), "(documents[2], TypeError: "),
        (lambda p: p["documents"][1].update(surfaces="a" * len(p["documents"][1]["surfaces"])),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][1].update(warnings="xy"),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"].append(None), "(documents[8], TypeError: "),
        (lambda p: p.pop("note"), "(KeyError: 'note')"),
        (lambda p: p.update(documents=7), "(TypeError: "),
    ])
    def test_refusal_names_the_document(self, store, corpus, workspace, corrupt, where):
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError) as refusal:
            store.load_corpus("fixture")
        assert str(refusal.value).startswith(
            f"cannot read {path}: not a tmlwb corpus {where}")

    @pytest.mark.parametrize("text", ['[]', '7', '"version"', 'null'])
    def test_top_level_not_an_object(self, store, corpus, workspace, capsys, text):
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        path.write_text(text, encoding="utf-8")
        assert main(["-c", "corpus use fixture"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot read {path}: not a tmlwb corpus")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("column", ["surfaces", "lemmas"])
    def test_token_column_of_numbers_refused(self, store, corpus, workspace, capsys,
                                             column):
        """Columns of the right length but not of strings once loaded and
        then failed in a report with a TypeError."""
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        doc = payload["documents"][0]
        doc[column] = list(range(len(doc[column])))
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["-c", "corpus use fixture; show list of event text"]) == 1
        out = capsys.readouterr().out
        assert out.count("error:") == 1
        assert out.startswith(f"error: cannot read {path}: not a tmlwb corpus")


class TestWriteFailures:
    def test_workspace_under_a_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").touch()
        monkeypatch.setenv("TMLWB_HOME", str(tmp_path / "file" / "wb"))
        assert main(["-c", f"corpus import {FIXTURE_DIR} as fx"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot write {tmp_path / 'file' / 'wb'}: Not a directory\n")

    def test_catalog_tmp_is_a_directory(self, store, corpus, workspace, capsys):
        store.save_corpus(corpus)
        (workspace / "catalog.tmp").mkdir()
        assert main(["-c", "corpus use fixture"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot write {workspace / 'catalog.tmp'}: Is a directory\n")
        assert not (workspace / ".lock").exists()


class TestCollectorHandling:
    @pytest.fixture
    def session(self, store, corpus):
        store.save_corpus(corpus)
        return Session(store=store)

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, store, corpus, workspace, enabled):
        store.save_corpus(corpus)
        (gc.enable if enabled else gc.disable)()
        store.load_corpus("fixture")
        assert gc.isenabled() is enabled
        (workspace / "corpora" / "fixture" / "corpus.json").write_text(
            '{"version": 2}', encoding="utf-8")
        with pytest.raises(StoreError):
            store.load_corpus("fixture")
        assert gc.isenabled() is enabled

    def test_replaced_corpus_is_freed(self, session):
        assert run_commands(session, ["corpus use fixture"]) == 0
        first = weakref.ref(session.corpus.documents[0])
        assert run_commands(session, ["corpus use fixture"]) == 0
        assert first() is None

    def test_earlier_garbage_cycle_collected(self, session):
        class Node:
            pass

        gc.disable()
        node = Node()
        node.cycle = node
        ref = weakref.ref(node)
        del node
        assert ref() is not None
        assert run_commands(session, ["corpus use fixture"]) == 0
        assert ref() is None

    def test_loaded_corpus_frozen(self, session):
        assert run_commands(session, ["corpus use fixture"]) == 0
        collected = {id(obj) for obj in gc.get_objects()}
        doc = session.corpus.documents[0]
        assert gc.is_tracked(doc) and id(doc) not in collected

    def test_freeze_count_flat(self, session):
        counts = []
        for _ in range(5):
            assert run_commands(session, ["corpus use fixture"]) == 0
            counts.append(gc.get_freeze_count())
        assert counts == [counts[0]] * 5
