"""The `show` report family: list, distribution and state reports with
`where` filters, derived attributes, granularity and output formats."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .errors import QueryError
from .model import (
    Corpus, Document, EventInstance, INSTANCE_SOURCED, Link, field_value,
    interval_span, link_signal_text,
)

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

def _value_counts(corpus: Corpus, q: Query) -> list[tuple[str | None, Counter]]:
    """The report field's value counts per group, sorted by group, from one
    pass over each document's pool of the queried tag. Absent and empty
    values count under None; occurrences the filter rejects not at all."""
    flt = q.filter
    fields = {q.field} if flt is None else {q.field, flt.field}
    if flt is not None:
        wanted = flt.op in ("is", "filled")
        target = (flt.value or "").lower() if flt.op in ("is", "is_not") else None
    value = _link_field if q.tag in ("tlink", "slink", "alink") else field_value
    groups: dict[str | None, Counter] = defaultdict(Counter)
    for doc in corpus.documents:
        for obj in _pool(doc, q.tag, fields):
            if flt is not None:
                v = value(doc, obj, flt.field)
                if bool(v and (target is None or v.lower() == target)) != wanted:
                    continue
            if q.granularity == "corpus":
                group = None
            elif q.granularity == "document":
                group = doc.filename
            else:
                group = f"{doc.filename}:{_sentence(doc, obj)}"
            groups[group][value(doc, obj, q.field) or None] += 1
    return sorted(groups.items(), key=lambda kv: (kv[0] is not None, kv[0]))


def _pool(doc: Document, tag: str, fields: set[str]):
    if tag in ("tlink", "slink", "alink"):
        kind = tag.upper()
        return [link for link in doc.links.values() if link.kind == kind]
    # the event/instance abstraction: instance-sourced fields make an event
    # query range over event instances rather than events
    if tag == "instance" or (tag == "event" and not fields.isdisjoint(INSTANCE_SOURCED)):
        return doc.instances.values()
    return {"event": doc.events, "timex3": doc.timexes, "signal": doc.signals}[tag].values()


def _link_field(doc: Document, link: Link, f: str) -> str | None:
    if f == "lid":
        return link.lid
    if f == "reltype":
        return link.rel_type or None
    if f == "arg1":
        return link.arg1.ref_id
    if f == "arg2":
        return link.arg2.ref_id
    if f == "signalid":
        return link.signal_id
    if f == "origin":
        return link.origin
    if f == "signaltext":
        return link_signal_text(doc, link)
    return None


def _sentence(doc: Document, obj) -> str:
    """The sentence of an occurrence (a link's arg1, an instance's event); "-" if none."""
    if isinstance(obj, Link):
        obj = interval_span(doc, obj.arg1)
    elif isinstance(obj, EventInstance):
        obj = doc.events.get(obj.event_id)
    position = doc.position(obj) if obj else None
    return "-" if position is None else str(position[0])


# -- reports --------------------------------------------------------------

def report_distribution(corpus: Corpus, q: Query) -> DistributionResult:
    """One row per distinct non-absent value, sorted by frequency descending
    then value; proportions are fractions of the group total."""
    rows: list[ReportRow] = []
    total = 0
    for group, counts in _value_counts(corpus, q):
        counts.pop(None, None)
        group_total = sum(counts.values())
        total += group_total
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if q.min_freq is not None:
            kept = [(v, n) for v, n in ordered if n >= q.min_freq]
            folded = sum(n for _, n in ordered if n < q.min_freq)
            ordered = kept + ([("Other", folded)] if folded else [])
        for value, freq in ordered:
            rows.append(ReportRow(value, freq, freq / group_total, group))
    return DistributionResult(rows, total)


def report_state(corpus: Corpus, q: Query) -> StateResult:
    """Filled/unfilled occurrence counts for one field."""
    groups = [StateGroup(counts.total() - counts[None], counts[None], group)
              for group, counts in _value_counts(corpus, q)]
    return StateResult(groups or [StateGroup(0, 0, None)])


def report_list(corpus: Corpus, q: Query) -> ListResult:
    """Sorted distinct non-absent values."""
    rows: list[tuple[str | None, str]] = []
    for group, counts in _value_counts(corpus, q):
        rows.extend((group, v) for v in sorted(v for v in counts if v is not None))
    return ListResult(rows)


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


def _group_header(q: Query) -> str:
    return "Document" if q.granularity == "document" else "Sentence"


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


def _format_distribution(result: DistributionResult, q: Query) -> str:
    grouped = q.granularity != "corpus"
    header = (["Value", "Frequency", "Proportion"] if not grouped
              else [_group_header(q), "Value", "Frequency", "Proportion"])
    table = []
    for row in result.rows:
        cells = [row.value, str(row.frequency), format_percent(row.proportion) + "%"]
        if grouped:
            cells.insert(0, row.group or "")
        table.append(cells)
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q),
                    total_row=["Total", str(result.total), ""])
    return _screen(header, table, numeric={len(header) - 2})


def _format_state(result: StateResult, q: Query) -> str:
    grouped = q.granularity != "corpus"
    total = result.filled + result.unfilled
    if q.fmt in ("csv", "tex"):
        header = ["State", "Count", "Proportion"]
        if grouped:
            header.insert(0, _group_header(q))
        table = []
        for g in result.groups:
            g_total = g.filled + g.unfilled
            for label, count in ((f"{q.field} filled", g.filled),
                                 (f"{q.field} unfilled", g.unfilled)):
                pct = format_percent(count / g_total) + "%" if g_total else "-"
                cells = [label, str(count), pct]
                if grouped:
                    cells.insert(0, g.group or "")
                table.append(cells)
        if q.fmt == "csv":
            return _csv(header, table)
        return _tex(header, table, _title(q),
                    total_row=["Total", str(total), ""])
    # screen format
    lines = [f"  Count  State of {q.tag.capitalize()} {q.field}",
             " " + "=" * 43]
    filled_label = f"{q.field} filled"
    unfilled_label = f"{q.field} unfilled"
    width = len(unfilled_label)
    for g in result.groups:
        prefix = f"[{g.group}] " if grouped and g.group else ""
        g_total = g.filled + g.unfilled
        for label, count in ((filled_label, g.filled), (unfilled_label, g.unfilled)):
            pct = format_percent(count / g_total) if g_total else "-"
            lines.append(f"{count:7d}  {prefix}{label:<{width}} ({pct}%)")
    return "\n".join(lines)


def _format_list(result: ListResult, q: Query) -> str:
    grouped = q.granularity != "corpus"
    header = ["Value"] if not grouped else [_group_header(q), "Value"]
    table = [([value] if not grouped else [group or "", value])
             for group, value in result.rows]
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q))
    if grouped:
        return _screen(header, table, numeric=set())
    return "\n".join(value for _, value in result.rows)


def _screen(header: list[str], rows: list[list[str]], numeric: set[int]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows), 1) if rows
              else len(header[i]) for i in range(len(header))]

    def render(cells):
        parts = []
        for i, cell in enumerate(cells):
            if i in numeric:
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return (" " + "  ".join(parts)).rstrip()

    lines = [render(header), " " + "=" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(render(r) for r in rows)
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


def _tex_escape(text: str) -> str:
    return text.translate(_TEX_ESCAPES)


def _tex(header: list[str], rows: list[list[str]], caption: str,
         total_row: list[str] | None = None) -> str:
    label = "tab:" + "".join(c if c.isalnum() else "-" for c in caption).strip("-")
    columns = " | ".join(["l"] + ["r"] * (len(header) - 1))
    lines = [
        "\\begin{table}",
        "\\begin{center}",
        f"\\caption{{{_tex_escape(caption)}}}",
        f"\\label{{{label}}}",
        f"\\begin{{tabular}}{{ | {columns} | }}",
        "\\hline",
        " & ".join(f"\\textbf{{{_tex_escape(h)}}}" for h in header) + " \\\\",
        "\\hline",
    ]
    for row in rows:
        lines.append(" & ".join(_tex_escape(c) for c in row) + " \\\\")
    lines.append("\\hline")
    if total_row is not None:
        total_row = total_row + [""] * (len(header) - len(total_row))
        lines.append(" & ".join(_tex_escape(c) for c in total_row) + " \\\\")
        lines.append("\\hline")
    lines.extend(["\\end{tabular}", "\\end{center}", "\\end{table}"])
    return "\n".join(lines)
