"""The `show` report family: list, distribution and state reports with
`where` filters, derived attributes, granularity and output formats.

`run_query` returns every report as one `Table(header, rows, total)`. Its
rows are tuples of strings, each starting with its group's label ("" for
the whole corpus), and `total` is the number of occurrences counted (None
for a list). `format_report` renders a table on screen, as csv or as tex."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

from .errors import QueryError
from .model import Corpus, INSTANCE_SOURCED, LINK_ARGS

REPORTS = ("list", "distribution", "state")
TAGS = ("event", "instance", "timex3", "signal", *map(str.lower, LINK_ARGS))
FORMATS = ("screen", "csv", "tex")
GRANULARITIES = ("corpus", "document", "sentence")

_LINK_FIELDS = ("lid", "reltype", "arg1", "arg2", "signalid", "origin", "signaltext")

TAG_FIELDS: dict[str, tuple[str, ...]] = {
    "event": ("eid", "class", "text", "lemma", "position",
              "tense", "aspect", "polarity", "modality", "cardinality",
              "pos", "signalid"),
    "instance": ("eiid", "eventid", "tense", "aspect", "polarity", "modality",
                 "cardinality", "pos", "signalid",
                 "class", "text", "lemma", "position"),
    "timex3": ("tid", "type", "value", "mod", "temporalfunction",
               "functionindocument", "anchortimeid", "beginpoint", "endpoint",
               "text", "lemma", "position"),
    "signal": ("sid", "text", "lemma", "position"),
    **dict.fromkeys(map(str.lower, LINK_ARGS), _LINK_FIELDS),
}


@dataclass(frozen=True)
class Filter:
    field: str
    op: str  # "is" | "is_not" | "filled" | "unfilled"
    value: str | None = None


@dataclass
class Query:
    report: str
    tag: str
    field: str
    filter: Filter | None = None
    fmt: str = "screen"
    granularity: str = "corpus"
    min_freq: int | None = None

    def __post_init__(self):
        if self.report not in REPORTS:
            raise QueryError(f"unknown report type {self.report!r}; "
                             f"expected one of: {', '.join(REPORTS)}")
        if self.tag not in TAGS:
            raise QueryError(f"unknown tag {self.tag!r}; "
                             f"expected one of: {', '.join(TAGS)}")
        if self.fmt not in FORMATS:
            raise QueryError(f"unknown format {self.fmt!r}; "
                             f"expected one of: {', '.join(FORMATS)}")
        if self.granularity not in GRANULARITIES:
            raise QueryError(f"unknown granularity {self.granularity!r}")
        _validate_field(self.tag, self.field)
        if self.filter is not None:
            _validate_field(self.tag, self.filter.field)


def _validate_field(tag: str, field: str) -> None:
    if field not in TAG_FIELDS[tag]:
        raise QueryError(
            f"field {field!r} is not valid for tag {tag!r}; valid fields: "
            + ", ".join(TAG_FIELDS[tag]))


class Table(NamedTuple):
    """A report: a header and rows of strings, each row starting with its
    group's label ("" for the whole corpus), and the number of occurrences
    counted (None for a list)."""
    header: tuple[str, ...]
    rows: list[tuple[str, ...]]
    total: int | None


# -- one pass over a tag's occurrences ------------------------------------

def _value_counts(corpus: Corpus, q: Query) -> Counter:
    """Occurrence counts keyed by (group, value), from the columns of the
    queried field (and of the filter's field, and of the sentence numbers)
    over each document's pool of the queried tag. The group is None
    (corpus), the filename, or (filename, sentence number), with -1 (shown
    as "-") for no position, so that groups sort by filename, then sentence
    number. Absent and empty values count under None; occurrences filtered
    out not at all."""
    flt = q.filter
    fields = {q.field} if flt is None else {q.field, flt.field}
    # the event/instance abstraction: instance-sourced fields make an event
    # query range over event instances rather than events
    pool = ("instance" if q.tag == "event" and not fields.isdisjoint(INSTANCE_SOURCED)
            else q.tag)
    by_sentence = q.granularity == "sentence"
    counts: Counter = Counter()
    for doc in corpus.documents:
        values = doc.column(pool, q.field)
        sentences = doc.column(pool, None) if by_sentence else None
        if flt is not None:
            kept = _kept(doc.column(pool, flt.field), flt)
            values = compress(values, kept)
            if by_sentence:
                sentences = compress(sentences, kept)
        # the (group, value) keys are built and counted in C, not one at a time
        groups = (zip(repeat(doc.filename), sentences) if by_sentence
                  else repeat(doc.filename if q.granularity == "document" else None))
        counts.update(zip(groups, values))
    return counts


def _kept(column: tuple[str | None, ...], flt: Filter):
    """Which values of a column a where filter keeps, as compress selectors."""
    if flt.op == "filled":
        return column  # values are None or non-empty
    if flt.op == "unfilled":
        return [value is None for value in column]
    target = (flt.value or "").lower()
    if flt.op == "is":
        return [value is not None and value.lower() == target for value in column]
    return [value is None or value.lower() != target for value in column]


# -- reports --------------------------------------------------------------

class _Memo(dict):
    """func of each distinct argument, computed once per report."""

    def __init__(self, func):
        self.func = func

    def __missing__(self, arg):
        self[arg] = result = self.func(arg)
        return result


def _label(group: str | tuple[str, int] | None) -> str:
    """A group's label; a sentence group's is "filename:n", or "filename:-"."""
    if isinstance(group, tuple):
        return f"{group[0]}:{'-' if group[1] < 0 else group[1]}"
    return group or ""


def report_distribution(corpus: Corpus, q: Query) -> Table:
    """One row per distinct non-absent value, sorted by group, then by
    frequency descending, then by value; proportions are of the group
    total. With min_freq, the rarer values of a group fold into one
    "Other" row at its end."""
    least = q.min_freq or 0  # frequencies are at least 1, so 0 folds nothing
    totals: dict = {}
    folded: dict = {}
    keys = []  # (group, rank, value, frequency); rank -frequency, or 0 for Other
    for (group, value), n in _value_counts(corpus, q).items():
        if value is None:
            continue
        totals[group] = totals.get(group, 0) + n
        if n >= least:
            keys.append((group, -n, value, n))
        else:
            folded[group] = folded.get(group, 0) + n
    keys.extend((group, 0, "Other", n) for group, n in folded.items())
    keys.sort()
    labels = {group: _label(group) for group in totals}
    percent = _Memo(lambda fraction: format_percent(fraction) + "%")
    return Table(("Group", "Value", "Frequency", "Proportion"),
                 [(labels[group], value, str(n), percent[n / totals[group]])
                  for group, _, value, n in keys], sum(totals.values()))


def report_state(corpus: Corpus, q: Query) -> Table:
    """Filled and unfilled occurrence counts for one field, two rows per
    group; if nothing was counted, two corpus rows with proportion "-"."""
    states: dict = {}  # group -> [filled, unfilled]
    for (group, value), n in _value_counts(corpus, q).items():
        states.setdefault(group, [0, 0])[value is None] += n
    percent = _Memo(lambda fraction: format_percent(fraction) + "%")
    names = (f"{q.field} filled", f"{q.field} unfilled")
    rows = []
    for group in sorted(states):
        (filled, unfilled), label = states[group], _label(group)
        rows += ((label, names[0], str(filled), percent[filled / (filled + unfilled)]),
                 (label, names[1], str(unfilled), percent[unfilled / (filled + unfilled)]))
    return Table(("Group", "State", "Count", "Proportion"),
                 rows or [("", name, "0", "-") for name in names],
                 sum(map(sum, states.values())))


def report_list(corpus: Corpus, q: Query) -> Table:
    """Sorted distinct non-absent values, per group."""
    labels = _Memo(_label)
    return Table(("Group", "Value"),
                 [(labels[group], value) for group, value in
                  sorted(key for key in _value_counts(corpus, q) if key[1] is not None)],
                 None)


def run_query(corpus: Corpus, q: Query) -> Table:
    return {"distribution": report_distribution, "state": report_state,
            "list": report_list}[q.report](corpus, q)


# -- formatting -----------------------------------------------------------

def format_percent(fraction: float) -> str:
    """Percentage to three significant digits, without the sign."""
    x = 100.0 * fraction
    if x == 0:
        return "0"
    exponent = math.floor(math.log10(abs(x)))
    decimals = max(0, 2 - exponent)
    rounded = round(x, decimals)
    if rounded != 0 and math.floor(math.log10(abs(rounded))) > exponent:
        decimals = max(0, decimals - 1)  # rounding bumped the magnitude
    return f"{rounded:.{decimals}f}"


def format_report(table: Table, q: Query) -> str:
    """Render a report table in the query's output format."""
    if q.fmt == "screen" and q.report == "state":
        width = len(f"{q.field} unfilled")
        lines = [f"  Count  State of {q.tag.capitalize()} {q.field}", " " + "=" * 43]
        lines.extend([f"{count:>7}  {f'[{group}] ' if group else ''}{state:<{width}}"
                      f" ({pct.rstrip('%')}%)" for group, state, count, pct in table.rows])
        return "\n".join(lines)
    header, rows = table.header[1:], table.rows
    if q.granularity == "corpus":
        rows = [row[1:] for row in rows]
    else:
        header = ("Document" if q.granularity == "document" else "Sentence", *header)
    if q.fmt == "csv":
        return _csv(header, rows)
    if q.fmt == "tex":
        return _tex(header, rows, _title(q), table.total)
    if q.report == "list" and q.granularity == "corpus":
        return "\n".join(row[0] for row in rows)
    return _screen(header, rows)


def _title(q: Query) -> str:
    base = {"distribution": "Distribution of", "state": "State of",
            "list": "List of"}[q.report]
    title = f"{base} {q.tag.capitalize()} {q.field}"
    if q.filter is not None:
        if q.filter.op in ("is", "is_not"):
            negation = " not" if q.filter.op == "is_not" else ""
            title += f' when {q.filter.field} is{negation} "{q.filter.value}"'
        else:
            title += f" when {q.filter.field} is {q.filter.op}"
    return title


def _screen(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    # one format template aligns every row: frequencies right, others left
    template = " " + "  ".join(f"{{:{'>' if name == 'Frequency' else '<'}{width}}}"
                               for name, width in zip(header, widths))
    lines = [template.format(*header).rstrip(),
             " " + "=" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend([template.format(*r).rstrip() for r in rows])
    return "\n".join(lines)


def _csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


_TEX_ESCAPES = str.maketrans({
    **{char: "\\" + char for char in "&%$#_{}"},
    "\\": r"\textbackslash{}", "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
})


def _tex(header: tuple[str, ...], rows: list[tuple[str, ...]], caption: str,
         total: int | None) -> str:
    label = "tab:" + "".join(c if c.isalnum() else "-" for c in caption).strip("-")
    columns = " | ".join(["l"] + ["r"] * (len(header) - 1))
    escape = _Memo(lambda text: text.translate(_TEX_ESCAPES)).__getitem__
    lines = [
        "\\begin{table}",
        "\\begin{center}",
        f"\\caption{{{escape(caption)}}}",
        f"\\label{{{label}}}",
        f"\\begin{{tabular}}{{ | {columns} | }}",
        "\\hline",
        " & ".join(f"\\textbf{{{escape(h)}}}" for h in header) + " \\\\",
        "\\hline",
    ]
    lines.extend([" & ".join(map(escape, row)) + " \\\\" for row in rows])
    lines.append("\\hline")
    if total is not None:
        lines += [" & ".join(["Total", str(total)] + [""] * (len(header) - 2)) + " \\\\",
                  "\\hline"]
    lines.extend(["\\end{tabular}", "\\end{center}", "\\end{table}"])
    return "\n".join(lines)
