"""The `show` report family: list, distribution and state reports with
`where` filters, derived attributes, granularity and output formats."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat

from .errors import QueryError
from .model import Corpus, INSTANCE_SOURCED

REPORTS = ("list", "distribution", "state")
TAGS = ("event", "instance", "timex3", "signal", "tlink", "slink", "alink")
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
    "tlink": _LINK_FIELDS,
    "slink": _LINK_FIELDS,
    "alink": _LINK_FIELDS,
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


@dataclass
class ReportRow:
    value: str
    frequency: int
    proportion: float  # fraction of the group total
    group: str | None = None


@dataclass
class DistributionResult:
    rows: list[ReportRow]
    total: int


@dataclass
class StateGroup:
    filled: int
    unfilled: int
    group: str | None = None


@dataclass
class StateResult:
    groups: list[StateGroup]

    @property
    def filled(self) -> int:
        return sum(g.filled for g in self.groups)

    @property
    def unfilled(self) -> int:
        return sum(g.unfilled for g in self.groups)


@dataclass
class ListResult:
    rows: list[tuple[str | None, str]]  # (group, value)


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


def _label(group: str | tuple[str, int] | None) -> str | None:
    """A group's label; a sentence group's is "filename:n", or "filename:-"."""
    if isinstance(group, tuple):
        return f"{group[0]}:{'-' if group[1] < 0 else group[1]}"
    return group


def report_distribution(corpus: Corpus, q: Query) -> DistributionResult:
    """One row per distinct non-absent value, sorted by group, then by
    frequency descending, then by value; proportions are fractions of the
    group total. With min_freq, the rarer values of a group fold into one
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
    rows = [ReportRow(value, n, n / totals[group], labels[group])
            for group, _, value, n in keys]
    return DistributionResult(rows, sum(totals.values()))


def report_state(corpus: Corpus, q: Query) -> StateResult:
    """Filled/unfilled occurrence counts for one field, per group."""
    states: dict = {}  # group -> [filled, unfilled]
    for (group, value), n in _value_counts(corpus, q).items():
        states.setdefault(group, [0, 0])[value is None] += n
    groups = [StateGroup(*states[group], _label(group)) for group in sorted(states)]
    return StateResult(groups or [StateGroup(0, 0, None)])


def report_list(corpus: Corpus, q: Query) -> ListResult:
    """Sorted distinct non-absent values, per group."""
    labels = _Memo(_label)
    return ListResult([(labels[group], value) for group, value in
                       sorted(key for key in _value_counts(corpus, q) if key[1] is not None)])


def run_query(corpus: Corpus, q: Query):
    if q.report == "distribution":
        return report_distribution(corpus, q)
    if q.report == "state":
        return report_state(corpus, q)
    return report_list(corpus, q)


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


def format_report(result, q: Query) -> str:
    """Render a report result in the query's output format."""
    if isinstance(result, DistributionResult):
        return _format_distribution(result, q)
    if isinstance(result, StateResult):
        return _format_state(result, q)
    if isinstance(result, ListResult):
        return _format_list(result, q)
    raise TypeError(f"not a report result: {result!r}")


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


def _grouped(q: Query, header: list[str], table: list[tuple[str, ...]]):
    """The header and rows of a report's table. Each row of table starts with
    its group, which is dropped from a report of the whole corpus."""
    if q.granularity == "corpus":
        return header, [row[1:] for row in table]
    return [("Document" if q.granularity == "document" else "Sentence"), *header], table


def _format_distribution(result: DistributionResult, q: Query) -> str:
    percent = _Memo(lambda fraction: format_percent(fraction) + "%")
    header, table = _grouped(q, ["Value", "Frequency", "Proportion"], [
        (row.group or "", row.value, str(row.frequency), percent[row.proportion])
        for row in result.rows])
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q), result.total)
    return _screen(header, table, numeric={len(header) - 2})


def _format_state(result: StateResult, q: Query) -> str:
    percent = _Memo(format_percent)
    # (group, state, count, percentage without its sign; "-" if no occurrences)
    states = [(g.group, f"{q.field} {state}", count,
               percent[count / (g.filled + g.unfilled)] if g.filled + g.unfilled else "-")
              for g in result.groups
              for state, count in (("filled", g.filled), ("unfilled", g.unfilled))]
    if q.fmt == "screen":
        width = len(f"{q.field} unfilled")
        lines = [f"  Count  State of {q.tag.capitalize()} {q.field}", " " + "=" * 43]
        lines.extend([f"{count:7d}  {f'[{group}] ' if group else ''}{state:<{width}} ({pct}%)"
                      for group, state, count, pct in states])
        return "\n".join(lines)
    header, table = _grouped(q, ["State", "Count", "Proportion"], [
        (group or "", state, str(count), pct if pct == "-" else pct + "%")
        for group, state, count, pct in states])
    if q.fmt == "csv":
        return _csv(header, table)
    return _tex(header, table, _title(q), result.filled + result.unfilled)


def _format_list(result: ListResult, q: Query) -> str:
    header, table = _grouped(q, ["Value"], [(group or "", value)
                                            for group, value in result.rows])
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q))
    if q.granularity != "corpus":
        return _screen(header, table, numeric=set())
    return "\n".join(value for _, value in result.rows)


def _screen(header: list[str], rows: list[tuple[str, ...]], numeric: set[int]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    # one format template aligns every row: numeric columns right, others left
    template = " " + "  ".join(f"{{:{'>' if i in numeric else '<'}{width}}}"
                               for i, width in enumerate(widths))
    lines = [template.format(*header).rstrip(),
             " " + "=" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend([template.format(*r).rstrip() for r in rows])
    return "\n".join(lines)


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


_TEX_ESCAPES = str.maketrans({
    **{char: "\\" + char for char in "&%$#_{}"},
    "\\": r"\textbackslash{}", "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
})


def _tex(header: list[str], rows: list[tuple[str, ...]], caption: str,
         total: int | None = None) -> str:
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
