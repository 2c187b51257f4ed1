"""Interactive prompt and batch runner binding all workbench commands.

Grammar (keywords case-insensitive):

    corpus (import <dir> [as <name>] [fold <scheme>] | list | use <name>
            | info | delete <name>)
    show (list|distribution|state) of <tag> <field>
         [where <field> (is [not] <value> | is [not] filled
          | is [not] empty | is unfilled)]
         [by (document|sentence)] [min-freq <n>] [as (screen|csv|tex)]
    browse (doc <id|filename> | <tag> <id> [as (screen|csv|timeml)])
    check (list | <name> [in (<id|filename>)+ | in all])
    context <link id>
    help
    exit
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import browse as browse_mod
from .checks import CHECKS, run_check
from .errors import CommandError, WorkbenchError
from .ingest import get_fold_scheme, import_corpus
from .model import Corpus, Document
from .query import Filter, Query, format_report, run_query
from .store import Store, check_corpus_name

PROMPT = "tmlwb> "

HELP_TEXT = """\
Commands:
  corpus import <dir> [as <name>] [fold <none|cavat|sputlink|compact>]
  corpus list | corpus use <name> | corpus info | corpus delete <name>
  show <list|distribution|state> of <tag> <field>
       [where <field> is [not] <value|filled|empty> | is unfilled]
       [by document|sentence] [min-freq <n>] [as screen|csv|tex]
  browse doc <id|filename>
  browse <tag> <id> [as screen|csv|timeml]
  check list
  check <name> [in <id|filename>... | in all]
  context <link id>
  help
  exit"""


# -- parsed command representation ---------------------------------------

@dataclass
class Command:
    kind: str  # corpus / show / browse / check / context / help / exit
    action: str | None = None
    args: dict = field(default_factory=dict)


class _Tokens:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise CommandError(f"expected {what} at end of command")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def keyword(self) -> str | None:
        token = self.peek()
        return token.lower() if token is not None else None

    def accept(self, *keywords: str) -> str | None:
        if self.keyword() in keywords:
            return self.next("keyword").lower()
        return None

    def expect(self, *keywords: str) -> str:
        token = self.accept(*keywords)
        if token is None:
            raise CommandError(
                f"expected {' or '.join(repr(k) for k in keywords)}, "
                f"got {self.peek()!r} (position {self.pos + 1})")
        return token

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise CommandError(f"unexpected trailing input: "
                               f"{' '.join(self.tokens[self.pos:])!r}")


def parse_command(line: str) -> Command | None:
    """Parse one command line into a Command; None for a blank line."""
    try:
        tokens = shlex.split(line)
    except ValueError as exc:
        raise CommandError(f"cannot tokenize command: {exc}") from exc
    if not tokens:
        return None
    t = _Tokens(tokens)
    head = t.next("command").lower()
    if head == "corpus":
        return _parse_corpus(t)
    if head == "show":
        return _parse_show(t)
    if head == "browse":
        return _parse_browse(t)
    if head == "check":
        return _parse_check(t)
    if head == "context":
        lid = t.next("link id")
        t.done()
        return Command("context", args={"lid": lid})
    if head in ("help", "?"):
        t.done()
        return Command("help")
    if head in ("exit", "quit"):
        t.done()
        return Command("exit")
    raise CommandError(
        f"unknown command {head!r}; command families: corpus, show, browse, "
        "check, context, help, exit")


def _parse_corpus(t: _Tokens) -> Command:
    action = t.expect("import", "list", "use", "info", "delete")
    args: dict = {}
    if action == "import":
        args["directory"] = t.next("directory")
        args["name"] = None
        args["fold"] = "none"
        while t.peek() is not None:
            key = t.expect("as", "fold")
            if key == "as":
                args["name"] = t.next("corpus name")
            else:
                args["fold"] = t.next("fold scheme").lower()
    elif action in ("use", "delete"):
        args["name"] = t.next("corpus name")
    t.done()
    return Command("corpus", action, args)


def _parse_show(t: _Tokens) -> Command:
    report = t.expect("list", "distribution", "state")
    t.expect("of")
    tag = t.next("tag").lower()
    field_name = t.next("field").lower()
    flt = None
    granularity = "corpus"
    min_freq = None
    fmt = "screen"
    while t.peek() is not None:
        key = t.expect("where", "by", "min-freq", "as")
        if key == "where":
            flt = _parse_filter(t)
        elif key == "by":
            granularity = t.expect("document", "sentence")
        elif key == "min-freq":
            raw = t.next("minimum frequency")
            try:
                if not raw.isdecimal():
                    raise ValueError
                min_freq = int(raw)  # a ValueError past int()'s digit limit too
            except ValueError:
                raise CommandError(f"min-freq expects a number, got {raw!r}") from None
        else:
            fmt = t.expect("screen", "csv", "tex")
    return Command("show", report, {
        "query": Query(report=report, tag=tag, field=field_name, filter=flt,
                       fmt=fmt, granularity=granularity, min_freq=min_freq)})


_FILLED_WORDS = ("filled",)
_UNFILLED_WORDS = ("unfilled", "empty")


def _parse_filter(t: _Tokens) -> Filter:
    field_name = t.next("filter field").lower()
    t.expect("is")
    negated = t.accept("not") is not None
    value = t.next("filter value")
    lowered = value.lower()
    if lowered in _FILLED_WORDS:
        op = "unfilled" if negated else "filled"
        return Filter(field_name, op)
    if lowered in _UNFILLED_WORDS:
        op = "filled" if negated else "unfilled"
        return Filter(field_name, op)
    return Filter(field_name, "is_not" if negated else "is", value)


def _parse_browse(t: _Tokens) -> Command:
    family = t.next("tag family or 'doc'").lower()
    if family == "doc":
        key = t.next("document id or filename")
        t.done()
        return Command("browse", "doc", {"key": key})
    tag_id = t.next("tag id")
    fmt = "screen"
    if t.accept("as"):
        fmt = t.expect("screen", "csv", "timeml")
    t.done()
    return Command("browse", "tag", {"family": family, "id": tag_id, "fmt": fmt})


def _parse_check(t: _Tokens) -> Command:
    name = t.next("check name").lower()
    if name == "list":
        t.done()
        return Command("check", "list")
    targets = None
    if t.accept("in"):
        targets = []
        while t.peek() is not None:
            targets.append(t.next("target"))
        if not targets:
            raise CommandError("expected targets after 'in'")
        if len(targets) == 1 and targets[0].lower() == "all":
            targets = "all"
    t.done()
    return Command("check", "run", {"name": name, "targets": targets})


# -- execution ------------------------------------------------------------

@dataclass
class Session:
    store: Store
    corpus: Corpus | None = None
    browsed: Document | None = None
    findings_format: str = "text"  # or "json-lines"
    error_findings: int = 0

    def active_corpus(self) -> Corpus:
        if self.corpus is None:
            name = self.store.active_corpus_name()
            if name is not None:
                self.corpus = self.store.load_corpus(name)
        if self.corpus is None:
            raise CommandError("no corpus selected; use 'corpus use <name>'")
        return self.corpus


def execute(session: Session, cmd: Command) -> str | None:
    """Run one parsed command; returns output text, or None for exit."""
    if cmd.kind == "exit":
        return None
    if cmd.kind == "help":
        return HELP_TEXT
    if cmd.kind == "corpus":
        return _execute_corpus(session, cmd)
    if cmd.kind == "show":
        corpus = session.active_corpus()
        query = cmd.args["query"]
        return format_report(run_query(corpus, query), query)
    if cmd.kind == "browse":
        corpus = session.active_corpus()
        if cmd.action == "doc":
            session.browsed = browse_mod.select_document(corpus, cmd.args["key"])
            return (f"Selected {session.browsed.filename} "
                    f"(id {session.browsed.doc_id})")
        if session.browsed is None:
            raise CommandError("no document selected; use 'browse doc <id>'")
        return browse_mod.browse_tag(session.browsed, cmd.args["family"],
                                     cmd.args["id"], cmd.args["fmt"])
    if cmd.kind == "check":
        return _execute_check(session, cmd)
    if cmd.kind == "context":
        session.active_corpus()
        if session.browsed is None:
            raise CommandError("no document selected; use 'browse doc <id>'")
        return browse_mod.show_link_context(session.browsed, cmd.args["lid"])
    raise CommandError(f"unhandled command kind {cmd.kind!r}")


def _execute_corpus(session: Session, cmd: Command) -> str:
    store = session.store
    if cmd.action == "list":
        catalog = store.list_corpora()
        if not catalog.entries:
            return "No corpora in workspace."
        lines = []
        for entry in catalog.entries:
            marker = "*" if entry.name == catalog.active else " "
            lines.append(f"{marker} {entry.name}  ({entry.document_count} "
                         f"documents, {entry.note}, imported {entry.imported})")
        return "\n".join(lines)
    if cmd.action == "use":
        session.corpus = store.use_corpus(cmd.args["name"])
        session.browsed = None
        return f"Using corpus {cmd.args['name']!r} ({len(session.corpus.documents)} documents)"
    if cmd.action == "info":
        return store.corpus_info()
    if cmd.action == "delete":
        store.delete_corpus(cmd.args["name"])
        if session.corpus is not None and session.corpus.name == cmd.args["name"]:
            session.corpus = None
            session.browsed = None
        return f"Deleted corpus {cmd.args['name']!r}"
    # import
    directory = Path(cmd.args["directory"])
    name = cmd.args["name"]
    if name is None:
        name = Path(os.path.abspath(directory)).name
    check_corpus_name(name)
    fold = get_fold_scheme(cmd.args["fold"])
    corpus = import_corpus(directory, name, fold)
    session.store.save_corpus(corpus)
    lines = [f"Imported corpus {name!r}: {len(corpus.documents)} documents "
             f"({corpus.note})"]
    warned = [len(doc.warnings) for doc in corpus.documents if doc.warnings]
    if warned:
        lines.append(f"warnings: {sum(warned)} in {len(warned)} "
                     f"document{'s' if len(warned) > 1 else ''}")
    if fold.name == "sputlink" and not fold.mapping:
        lines.insert(0, "warning: sputlink fold table is empty (placeholder "
                        "file); no links were rewritten")
    for skipped in corpus.skipped:
        lines.append(f"skipped: {skipped}")
    return "\n".join(lines)


def _execute_check(session: Session, cmd: Command) -> str:
    if cmd.action == "list":
        return "\n".join(f"{name} v{check.version} - {check.description}"
                         for name, check in sorted(CHECKS.items()))
    corpus = session.active_corpus()
    run = run_check(corpus, cmd.args["name"], cmd.args["targets"],
                    browsed=session.browsed)
    session.error_findings += run.error_count
    if session.findings_format == "json-lines":
        lines = [json.dumps({
            "check": f.check, "document": f.document, "severity": f.severity,
            "subjects": f.subjects, "message": f.message,
        }, sort_keys=True) for f in run.findings]
        return "\n".join(lines)
    return "\n".join(run.lines)


# -- entry points ---------------------------------------------------------

def _run_line(session: Session, line: str, out) -> bool | None:
    """Parse and run one command line, printing its output or its error.

    Returns False after an error, None for exit and True otherwise.
    """
    try:
        cmd = parse_command(line)
        if cmd is None:
            return True
        output = execute(session, cmd)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=out)
        return False
    if output is None:
        return None
    if output:
        print(output, file=out)
    return True


def run_commands(session: Session, lines, out=None) -> int:
    """Run a sequence of command lines; returns the exit code."""
    out = out or sys.stdout
    for line in lines:
        status = _run_line(session, line, out)
        if status is False:
            return 1
        if status is None:
            break
    return 2 if session.error_findings else 0


def repl(session: Session) -> int:
    """Interactive loop; command errors never end the session."""
    while True:
        try:
            sys.stdout.write(PROMPT)
            sys.stdout.flush()
            line = input()
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        if _run_line(session, line, sys.stdout) is None:
            return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tmlwb",
        description="Workbench for TimeML temporal annotation corpora.")
    parser.add_argument("-c", dest="commands", metavar="COMMANDS",
                        help="run semicolon-separated commands and exit")
    parser.add_argument("-f", dest="script", metavar="FILE",
                        help="run commands from a script file and exit")
    parser.add_argument("--format", choices=["text", "json-lines"],
                        default="text", dest="findings_format",
                        help="check findings output format (batch runs)")
    args = parser.parse_args(argv)

    session = Session(store=Store(), findings_format=args.findings_format)
    if args.commands is not None:
        return run_commands(session, _split_commands(args.commands))
    if args.script is not None:
        path = Path(args.script)
        if not path.is_file():
            print(f"error: no such script file: {path}")
            return 1
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read script file {path}: {exc}")
            return 1
        return run_commands(session, text.splitlines())
    return repl(session)


def _split_commands(text: str) -> list[str]:
    """Split -c text on the semicolons that are outside quotes, with the
    quoting and backslash rules of shlex.split."""
    parts, start, quote, escaped = [], 0, None, False
    for i, char in enumerate(text):
        if escaped:
            escaped = False
        elif char == "\\" and quote != "'":
            escaped = True
        elif quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == ";":
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # the reader is gone: let the flush at shutdown go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
