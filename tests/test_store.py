import fcntl
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import tmlwb.store
from tmlwb.browse import browse_tag
from tmlwb.checks import CHECKS, run_check
from tmlwb.cli import Session, main, run_commands
from tmlwb.errors import StoreError
from tmlwb.ingest import CAVAT_FOLD, NO_FOLD, import_corpus
from tmlwb.model import Corpus
from tmlwb.query import TAG_FIELDS, Query, format_report, run_query
from tmlwb.store import Store, corpus_fingerprint

from conftest import FIXTURE_DIR
from test_ingest import random_timeml

SRC = Path(tmlwb.store.__file__).resolve().parent.parent


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
        (NO_FOLD, "f495ee456fc1ad36febb51d2fb5013a1c61ad8b3c6c8aba11d8a4a0bdf2857ab"),
        (CAVAT_FOLD, "336aff58c86e3940fcc334a55dfe336f7f5b7283da80866322722af5cc2158a3"),
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


def assert_unlocked(workspace: Path) -> None:
    """No process holds the write lock of a workspace."""
    with open(workspace / ".lock", "rb") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)


# a writer that holds the lock of $TMLWB_HOME until its stdin closes
HOLDER = """
import sys
from tmlwb.store import Store
with Store()._write_lock():
    print("held", flush=True)
    sys.stdin.read()
"""


@contextmanager
def lock_holder():
    """A child process that holds the write lock while the block runs."""
    child = subprocess.Popen(
        [sys.executable, "-c", HOLDER], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    with child:
        try:
            assert child.stdout.readline() == "held\n"
            yield child
        finally:
            child.kill()


class TestLocking:
    """The write lock against a live writer in a child process; at most one
    child runs at a time."""

    @pytest.fixture
    def holder(self, workspace):
        with lock_holder() as child:
            yield child

    def test_stale_lock_blocks_nothing(self, store, corpus, workspace):
        """A .lock that names a dead writer, as a writer that crashed while
        holding the lock leaves it."""
        workspace.mkdir(parents=True, exist_ok=True)
        (workspace / ".lock").write_text("999999 2026-10-18T05:17:35", encoding="ascii")
        store.save_corpus(corpus)
        store.use_corpus("fixture")
        store.delete_corpus("fixture")
        assert store.list_corpora().entries == []

    def test_live_holder_blocks_and_is_named(self, store, corpus, workspace, holder,
                                             capsys):
        pid, since = (workspace / ".lock").read_text(encoding="ascii").split()
        assert int(pid) == holder.pid
        time.strptime(since, "%Y-%m-%dT%H:%M:%S")
        with pytest.raises(StoreError) as exc:
            store.save_corpus(corpus)
        assert str(exc.value) == (f"workspace {workspace} is locked by another "
                                  f"writer (pid {holder.pid} since {since})")
        assert main(["-c", f"corpus import {FIXTURE_DIR} as fx"]) == 1
        assert capsys.readouterr().out == f"error: {exc.value}\n"
        assert store.list_corpora().entries == []

    def test_killed_holder_blocks_nothing(self, store, corpus, workspace, holder):
        holder.kill()
        holder.wait()
        store.save_corpus(corpus)
        store.use_corpus("fixture")
        store.delete_corpus("fixture")
        assert store.list_corpora().entries == []
        assert_unlocked(workspace)

    def test_killed_import_blocks_nothing(self, store, corpus, workspace):
        """corpus import killed at seeded delays, one process at a time."""
        store.save_corpus(corpus)
        rng = random.Random(22)
        for delay in sorted(rng.uniform(0.0, 0.6) for _ in range(3)):
            child = subprocess.Popen(
                [sys.executable, "-m", "tmlwb.cli", "-c",
                 f"corpus import {FIXTURE_DIR} as fx"], stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            time.sleep(delay)
            child.kill()
            child.wait()
            assert main(["-c", "corpus list; corpus use fixture"]) == 0
            if "fx" in {e.name for e in store.list_corpora().entries}:
                store.delete_corpus("fx")
            assert main(["-c", f"corpus import {FIXTURE_DIR} as fx"]) == 0
            store.delete_corpus("fx")
        assert_unlocked(workspace)

    @pytest.mark.parametrize("content,owner", [
        (b"1234 2026-10-18T05:17:35", " (pid 1234 since 2026-10-18T05:17:35)"),
        (b"", ""), (b"garbage", ""), (b"\xff\xfe 1", "")])
    def test_lock_names_owner(self, store, corpus, workspace, holder, content, owner):
        """The refusal names the owner that the lock file holds, if any."""
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
        # the file stays, and the lock is released
        assert (workspace / ".lock").exists()
        assert_unlocked(workspace)

    def test_readers_ignore_lock(self, store, corpus, workspace, capsys):
        store.save_corpus(corpus)
        with lock_holder():
            assert store.load_corpus("fixture").name == "fixture"
            assert main(["-c", "corpus list"]) == 0
        assert "fixture" in capsys.readouterr().out

    def test_no_fcntl_refuses_writes(self, store, corpus, workspace, monkeypatch,
                                     capsys):
        """Where fcntl is missing, a write is an error line and reads work."""
        store.save_corpus(corpus)
        monkeypatch.setattr(tmlwb.store, "fcntl", None)
        assert main(["-c", f"corpus import {FIXTURE_DIR} as fx"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot write {workspace}: this platform has no fcntl file "
            "locks, so tmlwb can only read corpora\n")
        assert store.load_corpus("fixture").name == "fixture"
        assert [e.name for e in store.list_corpora().entries] == ["fixture"]


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
        assert_unlocked(workspace)
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
        assert_unlocked(workspace)

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


def loaded_shape(corpus: Corpus) -> list:
    """Iteration order of every tag dict, the attribute names of every tag
    (in tag order, as format 3 keeps them), the token columns and every
    span's bounds, of each document."""
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


def in_tag_order(loaded: Corpus, imported: Corpus) -> Corpus:
    """loaded, with the attributes of every tag in the order of the same tag
    of imported: a reference codec that sorted them, as if it had not."""
    documents = []
    for doc, model in zip(loaded.documents, imported.documents):
        pools = {}
        for family in ("events", "instances", "timexes"):
            pools[family] = {}
            for tag_id, tag in getattr(doc, family).items():
                attrs, keys = tag.attrs, getattr(model, family)[tag_id].keys
                pools[family][tag_id] = replace(tag, keys=keys,
                                                values=[attrs[k] for k in keys])
        documents.append(replace(doc, **pools))
    return replace(loaded, documents=documents)


def outputs(corpus: Corpus) -> list[str]:
    """A list report of every field of every tag, every check's output and
    every tag of every document as a TimeML fragment."""
    out = []
    for tag, fields in TAG_FIELDS.items():
        for name in fields:
            q = Query("list", tag, name)
            out.append(format_report(run_query(corpus, q), q))
    for name in CHECKS:
        out += run_check(corpus, name, "all").lines
    for doc in corpus.documents:
        for tag, pool in (("event", doc.events), ("instance", doc.instances),
                          ("timex3", doc.timexes), ("signal", doc.signals)):
            out += [browse_tag(doc, tag, tag_id, "timeml") for tag_id in pool]
        out += [browse_tag(doc, link.kind.lower(), lid, "timeml")
                for lid, link in doc.links.items()]
    return out


def random_corpus(directory: Path, count: int) -> Corpus:
    directory.mkdir()
    for seed in range(count):
        (directory / f"r{seed:03}.tml").write_text(
            random_timeml(random.Random(seed)), encoding="utf-8")
    return import_corpus(directory, "random")


def rewrite(workspace: Path, corrupt) -> Path:
    """Apply corrupt to the parsed corpus.json of the fixture corpus."""
    path = workspace / "corpora" / "fixture" / "corpus.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    corrupt(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def add_event(payload: dict, first, end) -> None:
    """Add an attribute-less event with the span [first, end) to documents[0]."""
    doc = payload["documents"][0]
    doc["shapes"].append([])
    doc["events"].append(["e999", len(doc["shapes"]) - 1, [], first, end])


class TestFormatVersion2:
    """Store format 3 against the codec of version 2, which tmlwb wrote
    before it: format 3 loads every document as version 2 did, but for the
    order of each tag's attributes, which format 3 keeps and version 2
    sorted; and tmlwb refuses a version-2 file."""

    def assert_loads_like_legacy(self, store, corpus):
        store.save_corpus(corpus)
        loaded = store.load_corpus(corpus.name)
        assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)
        v2 = reference.v2_corpus_from_json(json.loads(reference.v2_payload(corpus)))
        legacy = reference.legacy_corpus_from_json(
            json.loads(reference.legacy_payload(corpus)))
        for expected in (v2, legacy):
            assert reference.v2_payload(loaded) == reference.v2_payload(expected)
            assert loaded_shape(loaded) == loaded_shape(in_tag_order(expected, corpus))
        assert corpus_fingerprint(in_tag_order(v2, corpus)) == corpus_fingerprint(corpus)
        assert outputs(loaded) == outputs(v2)

    @pytest.mark.parametrize("fold", [NO_FOLD, CAVAT_FOLD], ids=lambda f: f.name)
    def test_fixtures_load_like_legacy(self, store, fold):
        self.assert_loads_like_legacy(store, import_corpus(FIXTURE_DIR, "fx", fold))

    def test_random_documents_load_like_legacy(self, store, tmp_path):
        corpus = random_corpus(tmp_path / "random", 300)
        assert len(corpus.documents) == 300
        self.assert_loads_like_legacy(store, corpus)

    def test_file_is_version_3(self, store, corpus, workspace):
        store.save_corpus(corpus)
        payload = json.loads((workspace / "corpora" / "fixture" / "corpus.json")
                             .read_text(encoding="utf-8"))
        assert payload["version"] == 3
        for doc in payload["documents"]:
            assert (sum(doc["sentences"]) == len(doc["surfaces"].split())
                    == len(doc["lemmas"].split()))
            shapes = [tuple(names) for names in doc["shapes"]]
            assert len(set(shapes)) == len(shapes)
            rows = ([e[1:3] for e in doc["events"]] + [i[2:4] for i in doc["instances"]]
                    + [t[1:3] for t in doc["timexes"]])
            # shapes are numbered in order of first use
            used = list(dict.fromkeys(shape for shape, _ in rows))
            assert used == list(range(len(shapes)))
            assert all(len(values) == len(shapes[shape]) for shape, values in rows)

    def test_unversioned_file_refused(self, store, corpus, workspace, capsys):
        """A corpus.json from before store versions is an error line that
        names the fix, and the fix restores the corpus."""
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        path.write_text(reference.legacy_payload(corpus), encoding="utf-8")
        assert main(["-c", "corpus use fixture"]) == 1
        out = capsys.readouterr().out
        assert out == (f"error: cannot read {path}: this tmlwb reads store format "
                       "version 3 only, and the file's \"version\" is missing; run "
                       "'corpus delete fixture', then 'corpus import' the corpus "
                       "again\n")
        assert main(["-c", f"corpus delete fixture; "
                           f"corpus import {FIXTURE_DIR} as fixture"]) == 0
        session = Session(store=Store())
        assert run_commands(session, ["corpus use fixture"]) == 0
        assert corpus_fingerprint(session.corpus) == (
            "0ae05126f2796b850f2362c6bb5d0426366f474f0f1dd0552daa8070c9e2e0bc")

    def test_version_2_file_refused(self, store, corpus, workspace, capsys):
        """A corpus.json of store format version 2 is an error line that
        names the fix, and the fix restores the corpus."""
        store.save_corpus(corpus)
        path = workspace / "corpora" / "fixture" / "corpus.json"
        path.write_text(reference.v2_payload(corpus), encoding="utf-8")
        assert main(["-c", "corpus use fixture; show list of event class"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot read {path}: this tmlwb reads store format version 3 "
            "only, and the file's \"version\" is 2; run 'corpus delete fixture', "
            "then 'corpus import' the corpus again\n")
        assert main(["-c", f"corpus delete fixture; "
                           f"corpus import {FIXTURE_DIR} as fixture"]) == 0
        assert corpus_fingerprint(Store().load_corpus("fixture")) == (
            corpus_fingerprint(corpus))

    def test_unknown_version_refused(self, store, corpus, workspace):
        store.save_corpus(corpus)
        rewrite(workspace, lambda p: p.update(version=99))
        with pytest.raises(StoreError, match="the file's \"version\" is 99; run "
                           "'corpus delete fixture'"):
            store.load_corpus("fixture")

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["documents"][0].pop("surfaces"),
        lambda p: add_event(p, 0, 10 ** 6),
        lambda p: add_event(p, 3, 2),
        lambda p: p["documents"][0]["sentences"].append(1),
        lambda p: p["documents"][0]["sentences"].extend([-1, 1]),
        lambda p: add_event(p, 0.5, 1),
        lambda p: p["documents"][0]["links"].append(["l999", "TLINK"]),
        lambda p: p["documents"].append(None),
        lambda p: p.update(documents=7),
        lambda p: p["documents"][1]["events"][0][2].__setitem__(-1, 5),
        lambda p: p["documents"][1]["events"][0].__setitem__(1, "abc"),
        lambda p: p["documents"][1].update(doc_id="x"),
        lambda p: p["documents"][1]["events"][0].__setitem__(0, 7),
        lambda p: p["documents"][0]["links"][0].__setitem__(2, "NOPE"),
        lambda p: p["documents"][1]["links"][0].__setitem__(4, 5),
        lambda p: p["documents"][0].update(filename=5),
        lambda p: p["documents"][0].update(filename=None),
        lambda p: p["documents"][0].update(warnings=[5]),
        lambda p: p["documents"][0].update(warnings=7),
        # the token list that version 2 stored, where a str belongs
        lambda p: p["documents"][1].update(surfaces=p["documents"][1]["surfaces"].split()),
        lambda p: p["documents"][1].update(lemmas=p["documents"][1]["lemmas"].split()),
        lambda p: p["documents"][1].update(warnings="xy"),
        # shape indices: past the end, negative, not an int
        lambda p: p["documents"][1]["events"][0].__setitem__(
            1, len(p["documents"][1]["shapes"])),
        lambda p: p["documents"][1]["events"][0].__setitem__(
            1, -len(p["documents"][1]["shapes"])),
        lambda p: p["documents"][1]["timexes"][0].__setitem__(1, 0.0),
        lambda p: p["documents"][1]["events"][0].__setitem__(1, True),
        # a value row shorter or longer than its shape, or not a list
        lambda p: p["documents"][1]["events"][0][2].pop(),
        lambda p: p["documents"][1]["instances"][0][3].append("x"),
        lambda p: p["documents"][1]["events"][0].__setitem__(2, "ab"),
        # a shape name that is not a str, a shape that is not a list
        lambda p: p["documents"][1]["shapes"][0].__setitem__(0, 5),
        lambda p: p["documents"][1]["shapes"].__setitem__(0, "eid"),
        lambda p: p["documents"][1].pop("shapes"),
        # token columns that are not a str, or of another token count
        lambda p: p["documents"][1].update(surfaces=5),
        lambda p: p["documents"][1].update(lemmas=None),
        lambda p: p["documents"][1].update(surfaces=p["documents"][1]["surfaces"] + " x"),
        lambda p: p["documents"][1].update(lemmas=p["documents"][1]["lemmas"] + "  x"),
        lambda p: p["documents"][1].update(surfaces=""),
    ])
    def test_corrupt_file_is_an_error_line(self, store, corpus, workspace, capsys,
                                           corrupt):
        store.save_corpus(corpus)
        path = rewrite(workspace, corrupt)
        # browse doc's "did you mean" hint reads every filename
        assert main(["-c", "corpus use fixture; browse doc nosuch"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot read {path}: not a tmlwb corpus")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("corrupt, where", [
        (lambda p: p["documents"][1]["events"][0][2].__setitem__(-1, 5),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][1]["events"][0].__setitem__(0, 7),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][2].update(filename=5), "(documents[2], TypeError: "),
        (lambda p: p["documents"][1].update(surfaces=p["documents"][1]["surfaces"].split()),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][1].update(warnings="xy"),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"].append(None), "(documents[8], TypeError: "),
        (lambda p: p.pop("note"), "(KeyError: 'note')"),
        (lambda p: p.update(documents=7), "(TypeError: "),
        (lambda p: p["documents"][1]["events"][0].__setitem__(1, 99),
         "(documents[1] 'consistent.tml', ValueError: a shape index is not one of "),
        (lambda p: p["documents"][1]["events"][0].__setitem__(1, "0"),
         "(documents[1] 'consistent.tml', TypeError: shape indices are not all ints)"),
        (lambda p: p["documents"][1]["events"][0][2].pop(),
         "(documents[1] 'consistent.tml', ValueError: a value row and its shape "),
        (lambda p: p["documents"][1]["shapes"][0].__setitem__(0, 5),
         "(documents[1] 'consistent.tml', TypeError: "),
        (lambda p: p["documents"][1].update(lemmas=7),
         "(documents[1] 'consistent.tml', TypeError: surfaces and lemmas are not "),
        (lambda p: p["documents"][1].update(surfaces=p["documents"][1]["surfaces"] + " x"),
         "(documents[1] 'consistent.tml', ValueError: "),
    ])
    def test_refusal_names_the_document(self, store, corpus, workspace, corrupt, where):
        store.save_corpus(corpus)
        path = rewrite(workspace, corrupt)
        with pytest.raises(StoreError) as refusal:
            store.load_corpus("fixture")
        assert str(refusal.value).startswith(
            f"cannot read {path}: not a tmlwb corpus {where}")

    @pytest.mark.parametrize("column, value, unknown", [
        (1, "XLINK", "link kind 'XLINK'"),
        (3, "foo", "argument kind 'foo'"),
        (5, "TIMEX3", "argument kind 'TIMEX3'"),
        (5, None, "argument kind None"),
    ])
    def test_unknown_link_or_argument_kind_refused(self, store, corpus, workspace, capsys,
                                                   column, value, unknown):
        """Such a link used to load: with an arg1 kind of "foo" on l10,
        check orphans reported its TIMEX3 t19 as in no link and exited 0,
        and an XLINK dropped out of every TLINK check."""
        store.save_corpus(corpus)

        def corrupt(payload):
            link = next(l for l in payload["documents"][0]["links"] if l[0] == "l10")
            link[column] = value

        path = rewrite(workspace, corrupt)
        assert main(["-c", "corpus use fixture; check orphans in 1"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot read {path}: not a tmlwb corpus (documents[0] "
            f"'all_relations.tml', ValueError: unknown {unknown})\n")

    def test_slink_with_timex_arg2_refused(self, store, corpus, workspace, capsys):
        """LINK_ARGS gives an SLINK no TIMEX arg2, so a parse never makes one.
        Such a link used to load, and browse wrote its arg2 back as
        subordinatedEventInstance, which a parse reads as an instance."""
        store.save_corpus(corpus)

        def corrupt(payload):
            link = next(l for l in payload["documents"][0]["links"] if l[0] == "l10")
            link[1] = "SLINK"  # l10 links TIMEX t19 to TIMEX t20

        path = rewrite(workspace, corrupt)
        assert main(["-c", "corpus use fixture"]) == 1
        assert capsys.readouterr().out == (
            f"error: cannot read {path}: not a tmlwb corpus (documents[0] "
            "'all_relations.tml', ValueError: unknown (link kind, arg1 kind, arg2 kind) "
            "('SLINK', 'timex', 'timex'))\n")

        def allowed(payload):  # the same SLINK with an instance arg2 loads
            link = next(l for l in payload["documents"][0]["links"] if l[0] == "l10")
            link[5:7] = ["instance", "ei1"]

        rewrite(workspace, allowed)
        assert store.load_corpus("fixture").documents[0].links["l10"].kind == "SLINK"

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
        path = rewrite(workspace, lambda p: p["documents"][0].update(
            {column: list(range(len(p["documents"][0][column].split())))}))
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
        assert_unlocked(workspace)


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
            '{"version": 3}', encoding="utf-8")
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
