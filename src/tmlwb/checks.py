"""Registry and dispatcher for check modules.

A check is a callable taking (document, corpus) and returning a list of
CheckFinding. New checks register against this interface without touching
the core.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import CommandError
from .graph_checks import (
    CheckFinding, check_orphans, check_split_graph, check_tlink_loop,
)
from .model import Corpus, Document
from .point_algebra import check_consistency

CheckFunc = Callable[[Document, Corpus], list[CheckFinding]]


@dataclass(frozen=True)
class CheckDescriptor:
    name: str
    version: str
    description: str


@dataclass
class CheckRegistry:
    _checks: dict[str, tuple[CheckDescriptor, CheckFunc]] = field(default_factory=dict)

    def register(self, descriptor: CheckDescriptor, func: CheckFunc) -> None:
        if descriptor.name in self._checks:
            raise CommandError(f"check {descriptor.name!r} already registered")
        self._checks[descriptor.name] = (descriptor, func)

    def list_checks(self) -> list[CheckDescriptor]:
        return [d for d, _ in (self._checks[n] for n in sorted(self._checks))]

    def get(self, name: str) -> tuple[CheckDescriptor, CheckFunc]:
        if name not in self._checks:
            available = ", ".join(sorted(self._checks))
            raise CommandError(f"unknown check {name!r}; available: {available}")
        return self._checks[name]


def _consistent_check(doc: Document, corpus: Corpus) -> list[CheckFinding]:
    result = check_consistency(doc)
    if result.consistent:
        return []
    return [CheckFinding("consistent", doc.filename, "ERROR", list(result.lids),
                         result.message)]


def default_registry() -> CheckRegistry:
    registry = CheckRegistry()
    registry.register(
        CheckDescriptor("consistent", "1", "Temporal graph consistency checker"),
        _consistent_check)
    registry.register(
        CheckDescriptor("orphans", "1", "Orphaned tag detection"),
        lambda doc, corpus: check_orphans(doc))
    registry.register(
        CheckDescriptor("split_graph", "1", "Split graph detection"),
        lambda doc, corpus: check_split_graph(doc))
    registry.register(
        CheckDescriptor("tlink_loop", "1", "TLINK loop checker"),
        lambda doc, corpus: check_tlink_loop(doc))
    return registry


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
    browsed document) to documents; fails before any check runs."""
    if targets is None:
        if browsed is None:
            raise CommandError("no target documents: browse a document "
                               "or name targets with 'in'")
        return [browsed]
    if targets == "all":
        return sorted(corpus.documents, key=lambda d: d.doc_id)
    docs = []
    for target in targets:
        doc = corpus.document(int(target)) if target.isdecimal() else None
        if doc is None:
            doc = corpus.document_by_filename(target)
        if doc is None:
            raise CommandError(f"no document matching {target!r} in corpus "
                               f"{corpus.name!r}")
        docs.append(doc)
    return docs


def run_check(corpus: Corpus, name: str, targets=None,
              registry: CheckRegistry | None = None,
              browsed: Document | None = None) -> CheckRun:
    """Run one check over the resolved targets, collecting output lines and
    findings in target order."""
    registry = registry or default_registry()
    descriptor, func = registry.get(name)
    docs = resolve_targets(corpus, targets, browsed)
    lines = [f"# {descriptor.description} v{descriptor.version} loaded"]
    findings: list[CheckFinding] = []
    counts = {"ERROR": 0, "WARNING": 0, "INFO": 0}
    for doc in docs:
        lines.append(f"# Checking {doc.filename} (id {doc.doc_id})")
        for finding in func(doc, corpus):
            findings.append(finding)
            counts[finding.severity] += 1
            lines.extend(finding.message.split("\n"))
    lines.append(f"# Findings: {counts['ERROR']} error, "
                 f"{counts['WARNING']} warning, {counts['INFO']} info")
    return CheckRun(lines=lines, findings=findings)
