import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from tmlwb.errors import StoreError
from tmlwb.ingest import CAVAT_FOLD, import_corpus
from tmlwb.store import Store, corpus_fingerprint

from conftest import FIXTURE_DIR


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
        assert doc.events["e1"].text == "arrived"
        assert doc.links["l2"].signal_id == "s1"
        assert doc.tokens == corpus.document_by_filename("consistent.tml").tokens

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
