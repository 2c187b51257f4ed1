import pytest

from tmlwb.checks import CHECKS, Check, resolve_targets, run_check
from tmlwb.errors import CommandError
from tmlwb.graph_checks import CheckFinding
from tmlwb.store import corpus_fingerprint


class TestRegistry:
    def test_builtins_sorted(self):
        assert sorted(CHECKS) == ["consistent", "orphans", "split_graph", "tlink_loop"]

    def test_descriptors(self):
        descriptions = {name: (check.version, check.description)
                        for name, check in CHECKS.items()}
        assert descriptions == {
            "consistent": ("1", "Temporal graph consistency checker"),
            "orphans": ("1", "Orphaned tag detection"),
            "split_graph": ("1", "Split graph detection"),
            "tlink_loop": ("1", "TLINK loop checker"),
        }

    def test_unknown_check(self, corpus):
        with pytest.raises(CommandError, match="unknown check 'spellcheck'; "
                           "available: consistent, orphans, split_graph, tlink_loop"):
            run_check(corpus, "spellcheck", "all")


class TestResolveTargets:
    def test_all(self, corpus):
        docs = resolve_targets(corpus, "all")
        assert [d.doc_id for d in docs] == list(range(1, 9))

    def test_mixed_ids_and_filenames(self, corpus):
        docs = resolve_targets(corpus, ["2", "orphans.tml"])
        assert [d.filename for d in docs] == ["consistent.tml", "orphans.tml"]

    def test_repeats_resolved_once(self, corpus):
        docs = resolve_targets(corpus, ["orphans.tml", "2", "orphans.tml",
                                        "consistent.tml", "7"])
        assert [d.doc_id for d in docs] == [7, 2]

    def test_repeated_target_checked_once(self, corpus):
        run = run_check(corpus, "consistent",
                        ["inconsistent_direct.tml", "3", "inconsistent_direct.tml"])
        assert run.lines[1:-1] == run_check(
            corpus, "consistent", ["inconsistent_direct.tml"]).lines[1:-1]
        assert run.error_count == 1

    def test_browsed_default(self, corpus):
        browsed = corpus.documents[0]
        assert resolve_targets(corpus, None, browsed=browsed) == [browsed]

    def test_no_browsed_no_targets(self, corpus):
        with pytest.raises(CommandError, match="browse a document"):
            resolve_targets(corpus, None)

    def test_unresolvable_fails_before_running(self, corpus):
        with pytest.raises(CommandError, match="no document 'missing.tml'"):
            resolve_targets(corpus, ["1", "missing.tml"])


class TestRunCheck:
    def test_banner_and_summary(self, corpus):
        run = run_check(corpus, "consistent", ["consistent.tml"])
        assert run.lines[0] == "# Temporal graph consistency checker v1 loaded"
        assert run.lines[1] == "# Checking consistent.tml (id 2)"
        assert run.lines[-1] == "# Findings: 0 error, 0 warning, 0 info"
        assert run.error_count == 0

    def test_error_findings_counted(self, corpus):
        run = run_check(corpus, "consistent", "all")
        assert run.error_count == 2  # the two inconsistent fixture documents
        assert run.lines[-1] == "# Findings: 2 error, 0 warning, 0 info"

    def test_orphans_summary(self, corpus):
        run = run_check(corpus, "orphans", ["orphans.tml"])
        assert run.lines[-1] == "# Findings: 0 error, 5 warning, 0 info"
        assert "TIMEX3 t1 not in any link" in run.lines

    def test_split_graph_multiline_block(self, corpus):
        run = run_check(corpus, "split_graph", ["subgraphs.tml"])
        assert any(line.startswith("Subgraphs found: 2") for line in run.lines)
        assert run.lines[-1] == "# Findings: 0 error, 0 warning, 1 info"

    def test_all_equals_concatenation(self, corpus):
        combined = run_check(corpus, "tlink_loop", "all")
        stitched = []
        for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
            part = run_check(corpus, "tlink_loop", [doc.filename])
            stitched.extend(part.lines[1:-1])  # drop banner and summary
        assert combined.lines[1:-1] == stitched

    def test_custom_check_runs(self, corpus, monkeypatch):
        monkeypatch.setitem(CHECKS, "doc_name", Check(
            "1", "Names every document",
            lambda doc: [CheckFinding("doc_name", doc.filename, "INFO", [],
                                      f"saw {doc.filename}")]))
        run = run_check(corpus, "doc_name", "all")
        assert run.lines[0] == "# Names every document v1 loaded"
        assert run.lines[-1] == "# Findings: 0 error, 0 warning, 8 info"
        assert "saw orphans.tml" in run.lines

    def test_checks_do_not_mutate_corpus(self, corpus):
        before = corpus_fingerprint(corpus)
        for name in ("consistent", "orphans", "split_graph", "tlink_loop"):
            run_check(corpus, name, "all")
        assert corpus_fingerprint(corpus) == before
