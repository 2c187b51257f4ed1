"""The checks, as one table from name to check, and their dispatcher.

A check is a function from a document to a list of CheckFinding. Adding
one is one statement, ``CHECKS["name"] = Check(version, description,
func)``, and the CLI lists and runs it from then on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import browse
from .errors import CommandError
from .graph_checks import (
    CheckFinding, check_orphans, check_split_graph, check_tlink_loop,
)
from .model import Corpus, Document
from .point_algebra import check_consistency


@dataclass(frozen=True)
class Check:
    version: str
    description: str
    func: Callable[[Document], list[CheckFinding]]


def _consistent_check(doc: Document) -> list[CheckFinding]:
    result = check_consistency(doc)
    if result.consistent:
        return []
    return [CheckFinding("consistent", doc.filename, "ERROR", list(result.lids),
                         result.message)]


# Each entry looks the checking function up in this module when it runs, so
# a name patched here (as the benchmark's tracer does) reaches the table.
CHECKS: dict[str, Check] = {
    "consistent": Check("1", "Temporal graph consistency checker", _consistent_check),
    "orphans": Check("1", "Orphaned tag detection", lambda doc: check_orphans(doc)),
    "split_graph": Check("1", "Split graph detection",
                         lambda doc: check_split_graph(doc)),
    "tlink_loop": Check("1", "TLINK loop checker", lambda doc: check_tlink_loop(doc)),
}


@dataclass
class CheckRun:
    lines: list[str]
    findings: list[CheckFinding]

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "ERROR")


def resolve_targets(corpus: Corpus, targets: list[str] | str | None,
                    browsed: Document | None = None):
    """Map targets (a list of doc ids and filenames, "all", or None for the
    browsed document) to documents, each once in the order first named;
    fails before any check runs."""
    if targets is None:
        if browsed is None:
            raise CommandError("no target documents: browse a document "
                               "or name targets with 'in'")
        return [browsed]
    if targets == "all":
        return sorted(corpus.documents, key=lambda d: d.doc_id)
    docs: dict[int, Document] = {}  # a Document is not hashable
    for target in targets:
        doc = browse.select_document(corpus, target)
        docs.setdefault(doc.doc_id, doc)
    return list(docs.values())


def run_check(corpus: Corpus, name: str, targets=None,
              browsed: Document | None = None) -> CheckRun:
    """Run one check over the resolved targets, collecting output lines and
    findings in target order."""
    if name not in CHECKS:
        raise CommandError(f"unknown check {name!r}; "
                           f"available: {', '.join(sorted(CHECKS))}")
    check = CHECKS[name]
    docs = resolve_targets(corpus, targets, browsed)
    lines = [f"# {check.description} v{check.version} loaded"]
    findings: list[CheckFinding] = []
    counts = {"ERROR": 0, "WARNING": 0, "INFO": 0}
    for doc in docs:
        lines.append(f"# Checking {doc.filename} (id {doc.doc_id})")
        for finding in check.func(doc):
            findings.append(finding)
            counts[finding.severity] += 1
            lines.extend(finding.message.split("\n"))
    lines.append(f"# Findings: {counts['ERROR']} error, "
                 f"{counts['WARNING']} warning, {counts['INFO']} info")
    return CheckRun(lines=lines, findings=findings)
