"""Span tracing for the traced pass: wraps the public functions of each
tmlwb layer where their callers look them up.

Several modules bind names with ``from ... import``, so a function is
patched in the module that calls it (``tmlwb.checks.check_consistency``,
not ``tmlwb.point_algebra.check_consistency``). A hook whose target no
longer exists is listed in ``Tracer.missing`` and produces no metric.

Each wrapper records one span per call. A span's self time is its
duration minus the durations of the spans it directly encloses, so the
self times of all spans add up to the time spent inside the outermost
spans (``cli.execute`` and ``cli.parse_command``). Counters taken from a
call's arguments or result are computed outside any span and charged to
the ``trace.counters`` span, so they inflate no layer.
"""
from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def tree_bytes(root: Path) -> int:
    """Total size of the files under root."""
    return sum(_size(os.path.join(dirpath, name))
               for dirpath, _, files in os.walk(root) for name in files)


# -- counters: (tracer, args, result) -> None ------------------------------

def _parse_document(tr, args, result):
    tr.counts["ingest.bytes"] += _size(args[0])


def _lemmatize(tr, args, result):
    tr.counts["tokenizer.tokens"] += 1


def _save_corpus(tr, args, result):
    store = args[0]
    size = tree_bytes(store.root)
    tr.counts["store.bytes_written"] += size - tr.store_bytes.get(store.root, 0)
    tr.store_bytes[store.root] = size


def _load_corpus(tr, args, result):
    store, name = args[0], args[1]
    tr.counts["store.bytes_read"] += (
        tree_bytes(store.root / "corpora" / name)
        + _size(store.root / "catalog.json"))


def _check_consistency(tr, args, result):
    tr.counts["point_algebra.processed"] += result.processed
    tr.counts["point_algebra.inconsistent_docs"] += not result.consistent


def _document_assertions(tr, args, result):
    axioms, agenda = result
    tr.counts["point_algebra.assertions"] += len(axioms) + len(agenda)


def _subgraph_stats(tr, args, result):
    tr.counts["graph_checks.subgraphs"] += result.subgraph_count


def _findings(tr, args, result):
    tr.counts["graph_checks.findings"] += len(result)


def _run_query(tr, args, result):
    rows = getattr(result, "rows", None)
    tr.counts["query.rows"] += len(rows if rows is not None else result.groups)


# (span name, module where callers look the name up, attribute path,
#  counter, keep per-call durations)
HOOKS = (
    ("ingest.import_corpus", "tmlwb.cli", "import_corpus", None, False),
    ("ingest.parse_document", "tmlwb.ingest", "parse_document", _parse_document, True),
    ("ingest.apply_fold", "tmlwb.ingest", "apply_fold", None, False),
    ("tokenizer.sentence_spans", "tmlwb.tokenizer", "sentence_spans", None, False),
    ("tokenizer.word_spans", "tmlwb.tokenizer", "word_spans", None, False),
    ("tokenizer.lemmatize", "tmlwb.tokenizer", "lemmatize", _lemmatize, False),
    ("store.save_corpus", "tmlwb.store", "Store.save_corpus", _save_corpus, False),
    ("store.load_corpus", "tmlwb.store", "Store.load_corpus", _load_corpus, False),
    ("store.use_corpus", "tmlwb.store", "Store.use_corpus", None, False),
    ("point_algebra.check_consistency", "tmlwb.checks", "check_consistency",
     _check_consistency, True),
    ("point_algebra.document_assertions", "tmlwb.point_algebra",
     "document_assertions", _document_assertions, False),
    ("graph_checks.subgraph_stats", "tmlwb.graph_checks", "subgraph_stats",
     _subgraph_stats, False),
    ("graph_checks.check_tlink_loop", "tmlwb.checks", "check_tlink_loop", _findings, False),
    ("graph_checks.check_orphans", "tmlwb.checks", "check_orphans", _findings, False),
    ("checks.run_check", "tmlwb.cli", "run_check", None, False),
    ("query.run_query", "tmlwb.cli", "run_query", _run_query, True),
    ("query.format_report", "tmlwb.cli", "format_report", None, False),
    ("browse.select_document", "tmlwb.browse", "select_document", None, False),
    ("browse.browse_tag", "tmlwb.browse", "browse_tag", None, False),
    ("browse.show_link_context", "tmlwb.browse", "show_link_context", None, False),
    ("model.Corpus.document", "tmlwb.model", "Corpus.document", None, False),
    ("model.Corpus.document_by_filename", "tmlwb.model",
     "Corpus.document_by_filename", None, False),
    ("cli.parse_command", "tmlwb.cli", "parse_command", None, False),
    ("cli.execute", "tmlwb.cli", "execute", None, False),
)
LAYERS = ("ingest", "tokenizer", "store", "point_algebra", "graph_checks",
          "checks", "query", "browse", "model", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.store_bytes: dict[Path, int] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        """Patch every hook target; record the ones that no longer exist."""
        for span, module_name, path, counter, keep in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(span, getattr(owner, attr), counter, keep))

    def _wrap(self, span, func, counter, keep):
        stack = self.stack
        self_s, calls, durations = self.self_s, self.calls, self.durations
        per_check = span == "checks.run_check"

        def traced(*args, **kwargs):
            name = f"{span}.{args[1]}" if per_check else span
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if keep:
                    durations[name].append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                start = perf_counter()
                counter(self, args, result)
                elapsed = perf_counter() - start
                self_s["trace.counters"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            return result

        traced.__wrapped__ = func
        return traced

    def summary(self) -> dict:
        """Per-span self time, calls, per-call latency stats and counters."""
        latency = {}
        for name, values in self.durations.items():
            latency[name] = {"sum_s": sum(values),
                             "p50_ms": 1000 * median(values),
                             "max_ms": 1000 * max(values)}
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "latency": latency, "counts": dict(self.counts),
                "missing": list(self.missing)}
