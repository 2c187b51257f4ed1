"""Batch scripts for the three workloads and the checks on their output.

Each workload is a closed loop with one client: the batch file is run by
``tmlwb -f`` semantics, so each command is sent only after the previous one
returned. A script is a list of ``Step``s; a step's label says which
end-to-end metric its latency feeds, and its ``expect`` (if any) says how
its output is checked against the generator's manifest.
"""
from __future__ import annotations

import random
import re
import shlex
from dataclasses import dataclass, field

from generate import SIGNAL_WORDS

# the documented commands of tests/test_acceptance.py::DOCUMENTED_COMMANDS;
# perfbench/tests checks that the two lists stay equal
DOCUMENTED_COMMANDS = [
    "check consistent in 3",
    "check split_graph in 3",
    "check tlink_loop in 165 159 143",
    "check orphans in wsj_0927.tml",
    "check tlink_loop in WSJ910225-0066.tml",
    "check list",
    "show distribution of tlink reltype as tex",
    "show state of tlink signalid",
    "show state of tlink signalid where reltype is after",
    "show distribution of tlink reltype where signalid is not filled",
    "show distribution of event pos",
    "show list of event text where pos is other",
    "show distribution of tlink signaltext where reltype is before",
    "corpus list",
    "corpus info",
    "browse doc 3",
]

CHECKS = ("consistent", "tlink_loop", "split_graph", "orphans")
# Browse and context commands take tens of microseconds each, so many of
# them cost little; many samples keep their latency percentiles steady.
BROWSE_COMMANDS = 300
SESSION_BROWSE_COMMANDS = 400
SESSION_USES = 5  # `corpus use` commands per report_session pass
SESSION_SHOW_COMMANDS = 150
LONG_DOCS_ROUNDS = 3


@dataclass
class Step:
    line: str
    label: str  # import, use, check_all, report, browse or other
    expect: tuple | None = None  # (parser name, expected value)


@dataclass
class Workload:
    name: str
    corpus_name: str
    exit_code: int  # expected exit status of the batch
    steps: list[Step] = field(default_factory=list)


# -- expected values from the manifest -------------------------------------

def _doc(manifest: dict, key: str) -> dict:
    for d in manifest["documents"]:
        if str(d["doc_id"]) == key or d["filename"] == key:
            return d
    raise KeyError(key)


def findings(manifest: dict, check: str, docs: list[dict] | None = None) -> tuple:
    """(error, warning, info) counts that `check <check>` reports."""
    docs = manifest["documents"] if docs is None else docs
    if check == "consistent":
        return (sum(d["inconsistent"] for d in docs), 0, 0)
    if check == "tlink_loop":
        return (sum(d["loop_errors"] for d in docs),
                sum(d["loop_warnings"] for d in docs), 0)
    if check == "split_graph":
        return (0, 0, len(docs))
    return (0, sum(d["orphans"] for d in docs), 0)


def _check_step(manifest: dict, line: str) -> Step:
    words = line.split()
    check, targets = words[1], words[3:]
    docs = None if targets == ["all"] else [_doc(manifest, t) for t in targets]
    label = "check_all" if targets == ["all"] else "other"
    return Step(line, label, ("findings", findings(manifest, check, docs)))


def _reltypes(manifest: dict, fold: str) -> dict:
    return manifest["counts"]["reltype_cavat" if fold == "cavat" else "reltype"]


def verified_reports(manifest: dict, fold: str) -> list[Step]:
    """The reltype, signalid and pos reports, with their expected rows."""
    signalid = manifest["counts"]["signalid"]
    return [
        Step("show distribution of tlink reltype", "report",
             ("distribution", _reltypes(manifest, fold))),
        Step("show state of tlink signalid", "report",
             ("state", (signalid["filled"], signalid["unfilled"]))),
        Step("show distribution of event pos", "report",
             ("distribution", manifest["counts"]["pos"])),
    ]


def _documented(manifest: dict) -> list[Step]:
    counts = manifest["counts"]
    filled = counts["signalid_filled_by_reltype"]
    reltype = counts["reltype"]
    expected = {
        "show distribution of tlink reltype as tex": ("tex", reltype),
        "show state of tlink signalid": (
            "state", (counts["signalid"]["filled"], counts["signalid"]["unfilled"])),
        "show state of tlink signalid where reltype is after": (
            "state", (filled.get("AFTER", 0), reltype["AFTER"] - filled.get("AFTER", 0))),
        "show distribution of tlink reltype where signalid is not filled": (
            "distribution", {r: n - filled.get(r, 0) for r, n in reltype.items()
                             if n - filled.get(r, 0)}),
        "show distribution of event pos": ("distribution", counts["pos"]),
        "show list of event text where pos is other": (
            "list", sorted({t for d in manifest["documents"] for t in d["other_texts"]})),
        "show distribution of tlink signaltext where reltype is before": (
            "distribution", {SIGNAL_WORDS["BEFORE"]: filled.get("BEFORE", 0)}),
    }
    steps = []
    for line in DOCUMENTED_COMMANDS:
        if line.startswith("check ") and line != "check list":
            steps.append(_check_step(manifest, line))
        elif line.startswith("show "):
            steps.append(Step(line, "report", expected.get(line)))
        elif line.startswith("browse "):
            steps.append(Step(line, "browse"))
        else:
            steps.append(Step(line, "other"))
    return steps


def browse_steps(manifest: dict, rng: random.Random, count: int) -> list[Step]:
    """`browse doc`, `browse <tag> <id> [as ...]` and `context <lid>`, in
    groups of five, over documents spread evenly across the size ranking
    (so the mix of document sizes does not depend on the seed). The tags and
    formats cycle in a fixed order, so the mix of command kinds does not
    depend on the seed either; the ids within each document are seeded
    random."""
    by_size = sorted(manifest["documents"],
                     key=lambda d: (d["tlinks"], d["tokens"], d["filename"]))
    groups = count // 5
    steps = []
    for g in range(groups):
        d = by_size[(2 * g + 1) * len(by_size) // (2 * groups)]
        key = d["filename"] if g % 2 else str(d["doc_id"])
        steps.append(Step(f"browse doc {shlex.quote(key)}", "browse"))
        tags = [("event", f"e{rng.randint(1, d['events'])}"),
                ("instance", f"ei{rng.randint(1, d['instances'])}"),
                ("timex3", f"t{rng.randint(0, d['timexes'] - 1)}"),
                ("tlink", f"l{rng.randint(1, d['tlinks'])}")]
        if d["signals"]:
            tags.append(("signal", f"s{rng.randint(1, d['signals'])}"))
        for i in range(3):
            k = 3 * g + i
            tag, tag_id = tags[k % len(tags)]
            fmt = ("", " as screen", " as csv", " as timeml")[k % 4]
            steps.append(Step(f"browse {tag} {tag_id}{fmt}", "browse"))
        steps.append(Step(f"context l{rng.randint(1, d['tlinks'])}", "browse"))
    return steps


# (tag, report fields, where clauses)
_SHOW_SPACE = (
    ("event", ("class", "pos", "tense", "aspect", "polarity", "text", "lemma"),
     ("where pos is verb", "where tense is not past", "where class is filled",
      "where modality is unfilled", "where aspect is not empty")),
    ("instance", ("pos", "tense", "aspect", "polarity", "class", "eventid"),
     ("where polarity is neg", "where pos is not noun", "where tense is filled")),
    ("timex3", ("type", "value", "text", "functionindocument"),
     ("where type is date", "where functionindocument is not filled",
      "where mod is empty")),
    ("signal", ("text", "lemma", "position"), ("where text is before",)),
    ("tlink", ("reltype", "signalid", "signaltext", "arg1", "origin"),
     ("where reltype is before", "where signalid is filled",
      "where reltype is not identity", "where origin is unfilled")),
)


def show_steps(count: int) -> list[Step]:
    """`show` commands across every tag, report kind, where form,
    granularity and format. The list does not depend on the workload seed,
    so that the latency mix is the same for every seed."""
    rng = random.Random("show-commands")
    steps = []
    for _ in range(count):
        tag, fields, wheres = rng.choice(_SHOW_SPACE)
        report = rng.choice(("distribution", "state", "list"))
        where = rng.choice(("",) + tuple(" " + w for w in wheres))
        by = rng.choice(("", " by document", " by sentence"))
        fmt = rng.choice(("", " as screen", " as csv", " as tex"))
        steps.append(Step(f"show {report} of {tag} {rng.choice(fields)}{where}{by}{fmt}",
                          "report"))
    return steps


# -- the workloads -----------------------------------------------------------

def _checks(manifest: dict) -> list[Step]:
    return [Step(f"check {c} in all", "check_all", ("findings", findings(manifest, c)))
            for c in CHECKS]


def _interleave(steps: list[Step], browse: list[Step]) -> list[Step]:
    """Spread the five-command browse groups evenly between steps, so that
    browse latencies are sampled across the whole pass, not in one burst."""
    groups = [browse[i:i + 5] for i in range(0, len(browse), 5)]
    out: list[Step] = []
    placed = 0
    for i, step in enumerate(steps, start=1):
        out.append(step)
        while placed < len(groups) * i // len(steps):
            out += groups[placed]
            placed += 1
    return out


def timebank_survey(manifest: dict, corpus_dir: str, seed: int) -> Workload:
    """The north-star batch: import, use, every check in all and the
    documented commands, with browsing spread between them."""
    rng = random.Random(f"survey-script-{seed}")
    # the planted ERROR findings make the batch exit with status 2
    w = Workload("timebank_survey", "survey", exit_code=2)
    w.steps = [Step(f"corpus import {shlex.quote(corpus_dir)} as survey fold none", "import"),
               Step("corpus use survey", "use")]
    documented = _documented(manifest)
    # the documented reports run six times, so that the report latency
    # percentiles have enough samples
    body = _checks(manifest) + documented + [s for s in documented if s.label == "report"] * 5
    w.steps += _interleave(body, browse_steps(manifest, rng, BROWSE_COMMANDS))
    return w


def long_docs(manifest: dict, corpus_dir: str, seed: int) -> Workload:
    """Long documents: the quadratic ingest path dominates; folding and
    per-sentence reports scale with token count."""
    rng = random.Random(f"long-script-{seed}")
    w = Workload("long_docs", "long", exit_code=0)
    w.steps = [Step(f"corpus import {shlex.quote(corpus_dir)} as long fold cavat", "import"),
               Step("corpus use long", "use")]
    # Seven report commands: with an odd number of command kinds repeated
    # equally often, the median report latency falls inside one kind's
    # samples rather than on the step between two kinds.
    reports = verified_reports(manifest, "cavat") + [
        Step(line, "report") for line in (
            "show distribution of event pos by sentence",
            "show state of tlink signalid by sentence",
            "show list of event text by sentence as csv",
            "show distribution of timex3 type by sentence as tex")]
    # The checks and reports run in three rounds, so that each pass gives
    # three samples of every check latency, spread over the pass. A round
    # starts with another `corpus use` and runs each report three times.
    body = ([Step("corpus use long", "use")] + _checks(manifest) + reports * 3) * LONG_DOCS_ROUNDS
    w.steps += _interleave(body, browse_steps(manifest, rng, BROWSE_COMMANDS))
    return w


def report_session(manifest: dict, corpus_dir: str, seed: int) -> Workload:
    """Reads only: repeated `corpus use` and many `show`, `browse` and
    `context` commands on a corpus imported during set-up."""
    rng = random.Random(f"session-script-{seed}")
    w = Workload("report_session", "session", exit_code=0)
    # keep each five-command browse group together; shuffle the rest around
    browse = browse_steps(manifest, rng, SESSION_BROWSE_COMMANDS)
    blocks = [browse[i:i + 5] for i in range(0, len(browse), 5)]
    blocks += [[s] for s in show_steps(SESSION_SHOW_COMMANDS)]
    rng.shuffle(blocks)
    # SESSION_USES `corpus use` commands spread over the pass, so that the
    # median use latency falls among the uses that replace a loaded corpus,
    # not on the step between those and the first use
    spacing = -(-sum(len(b) for b in blocks) // SESSION_USES)
    since_use = spacing
    for block in blocks:
        if since_use >= spacing:
            w.steps.append(Step("corpus use session", "use"))
            since_use = 0
        w.steps += block
        since_use += len(block)
    w.steps += verified_reports(manifest, "none")
    return w


WORKLOADS = {"timebank_survey": timebank_survey, "long_docs": long_docs,
             "report_session": report_session}


def session_setup(manifest: dict, corpus_dir: str, name: str) -> list[Step]:
    """report_session's set-up: the survey a user ran on the corpus before
    reading it (import, use and every check in all)."""
    return [Step(f"corpus import {shlex.quote(corpus_dir)} as {name} fold none", "import"),
            Step(f"corpus use {name}", "use")] + _checks(manifest)


# -- output parsers ----------------------------------------------------------

_FINDINGS = re.compile(r"# Findings: (\d+) error, (\d+) warning, (\d+) info")
_STATE = re.compile(r"^\s*(\d+)\s+\S+ (filled|unfilled)\s+\(")


def parse_output(kind: str, text: str):
    lines = text.splitlines()
    if kind == "findings":
        match = _FINDINGS.fullmatch(lines[-1])
        return tuple(int(g) for g in match.groups()) if match else None
    if kind == "state":
        counts = {}
        for line in lines:
            match = _STATE.match(line)
            if match:
                counts[match.group(2)] = int(match.group(1))
        return counts.get("filled"), counts.get("unfilled")
    if kind == "distribution":
        rows = {}
        for line in lines[2:]:
            value, freq, _pct = line.split()
            rows[value] = int(freq)
        return rows
    if kind == "tex":
        rows = {}
        for line in lines:
            cells = [c.strip() for c in line.rstrip(" \\").split("&")]
            if len(cells) == 3 and cells[1].isdigit() and cells[0] != "Total":
                rows[cells[0].replace("\\_", "_")] = int(cells[1])
        return rows
    if kind == "list":
        return lines
    raise ValueError(kind)


def check_output(expect: tuple, text: str | None) -> bool:
    kind, expected = expect
    if text is None:
        return False
    try:
        actual = parse_output(kind, text)
    except (ValueError, IndexError):
        return False
    if kind in ("state", "findings"):
        return actual == tuple(expected)
    return actual == expected
