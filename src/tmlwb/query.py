"""The `show` report family: list, distribution and state reports with
`where` filters, derived attributes, granularity and output formats."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .errors import QueryError
from .model import (
    Corpus, Document, INSTANCE_SOURCED, Span, field_value, interval_span,
    link_signal_text,
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
    grouped: bool = False


@dataclass
class StateGroup:
    filled: int
    unfilled: int
    group: str | None = None


@dataclass
class StateResult:
    groups: list[StateGroup]
    grouped: bool = False

    @property
    def filled(self) -> int:
        return sum(g.filled for g in self.groups)

    @property
    def unfilled(self) -> int:
        return sum(g.unfilled for g in self.groups)


@dataclass
class ListResult:
    rows: list[tuple[str | None, str]]  # (group, value)
    grouped: bool = False


# -- occurrence resolution ------------------------------------------------

@dataclass
class _Occurrence:
    doc: Document
    values: dict[str, str | None]
    sentence: int | None


def _occurrences(corpus: Corpus, q: Query) -> list[_Occurrence]:
    fields = {q.field}
    if q.filter is not None:
        fields.add(q.filter.field)
    out: list[_Occurrence] = []
    for doc in corpus.documents:
        out.extend(_doc_occurrences(doc, q.tag, fields))
    return out


def _doc_occurrences(doc: Document, tag: str, fields: set[str]):
    if tag in ("tlink", "slink", "alink"):
        kind = tag.upper()
        for link in doc.links.values():
            if link.kind == kind:
                values = {f: _link_field(doc, link, f) for f in fields}
                yield _Occurrence(doc, values, _sentence(interval_span(doc, link.arg1)))
    # the event/instance abstraction: instance-sourced fields make an event
    # query range over event instances rather than events
    elif tag == "instance" or (tag == "event" and fields & set(INSTANCE_SOURCED)):
        for inst in doc.instances.values():
            values = {f: field_value(doc, inst, f) for f in fields}
            yield _Occurrence(doc, values, _sentence(doc.events.get(inst.event_id)))
    else:
        pool = {"event": doc.events, "timex3": doc.timexes, "signal": doc.signals}[tag]
        for span in pool.values():
            values = {f: field_value(doc, span, f) for f in fields}
            yield _Occurrence(doc, values, _sentence(span))


def _link_field(doc: Document, link, f: str) -> str | None:
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


def _sentence(span: Span | None) -> int | None:
    return span.tokens[0].sentence_index if span and span.tokens else None


# -- filtering ------------------------------------------------------------

def apply_filter(occurrences: list[_Occurrence], flt: Filter | None) -> list[_Occurrence]:
    if flt is None:
        return occurrences
    return [o for o in occurrences if _matches(o.values.get(flt.field), flt)]


def _matches(value: str | None, flt: Filter) -> bool:
    filled = value is not None and value != ""
    if flt.op == "filled":
        return filled
    if flt.op == "unfilled":
        return not filled
    match = filled and value.lower() == (flt.value or "").lower()
    return match if flt.op == "is" else not match


def _group_key(occ: _Occurrence, granularity: str) -> str | None:
    if granularity == "corpus":
        return None
    if granularity == "document":
        return occ.doc.filename
    sentence = "-" if occ.sentence is None else str(occ.sentence)
    return f"{occ.doc.filename}:{sentence}"


def _grouped(occurrences, q: Query):
    groups: dict[str | None, list[_Occurrence]] = {}
    for occ in occurrences:
        groups.setdefault(_group_key(occ, q.granularity), []).append(occ)
    return sorted(groups.items(), key=lambda kv: (kv[0] is not None, kv[0]))


# -- reports --------------------------------------------------------------

def report_distribution(corpus: Corpus, q: Query) -> DistributionResult:
    """One row per distinct non-absent value, sorted by frequency descending
    then value; proportions are fractions of the group total."""
    occurrences = apply_filter(_occurrences(corpus, q), q.filter)
    rows: list[ReportRow] = []
    total = 0
    for group, occs in _grouped(occurrences, q):
        counts = Counter(o.values[q.field] for o in occs
                         if o.values[q.field] not in (None, ""))
        group_total = sum(counts.values())
        total += group_total
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if q.min_freq is not None:
            kept = [(v, n) for v, n in ordered if n >= q.min_freq]
            folded = sum(n for _, n in ordered if n < q.min_freq)
            ordered = kept + ([("Other", folded)] if folded else [])
        for value, freq in ordered:
            rows.append(ReportRow(value, freq, freq / group_total, group))
    return DistributionResult(rows, total, grouped=q.granularity != "corpus")


def report_state(corpus: Corpus, q: Query) -> StateResult:
    """Filled/unfilled occurrence counts for one field."""
    occurrences = apply_filter(_occurrences(corpus, q), q.filter)
    groups = []
    for group, occs in _grouped(occurrences, q):
        filled = sum(1 for o in occs if o.values[q.field] not in (None, ""))
        groups.append(StateGroup(filled, len(occs) - filled, group))
    if not groups:
        groups = [StateGroup(0, 0, None)]
    return StateResult(groups, grouped=q.granularity != "corpus")


def report_list(corpus: Corpus, q: Query) -> ListResult:
    """Sorted distinct non-absent values."""
    occurrences = apply_filter(_occurrences(corpus, q), q.filter)
    rows: list[tuple[str | None, str]] = []
    for group, occs in _grouped(occurrences, q):
        values = sorted({o.values[q.field] for o in occs
                        if o.values[q.field] not in (None, "")})
        rows.extend((group, v) for v in values)
    return ListResult(rows, grouped=q.granularity != "corpus")


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
    header = (["Value", "Frequency", "Proportion"] if not result.grouped
              else [_group_header(q), "Value", "Frequency", "Proportion"])
    table = []
    for row in result.rows:
        cells = [row.value, str(row.frequency), format_percent(row.proportion) + "%"]
        if result.grouped:
            cells.insert(0, row.group or "")
        table.append(cells)
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q),
                    total_row=["Total", str(result.total), ""])
    return _screen(header, table, numeric={len(header) - 2})


def _format_state(result: StateResult, q: Query) -> str:
    total = result.filled + result.unfilled
    if q.fmt in ("csv", "tex"):
        header = ["State", "Count", "Proportion"]
        if result.grouped:
            header.insert(0, _group_header(q))
        table = []
        for g in result.groups:
            g_total = g.filled + g.unfilled
            for label, count in ((f"{q.field} filled", g.filled),
                                 (f"{q.field} unfilled", g.unfilled)):
                pct = format_percent(count / g_total) + "%" if g_total else "-"
                cells = [label, str(count), pct]
                if result.grouped:
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
        prefix = f"[{g.group}] " if result.grouped and g.group else ""
        g_total = g.filled + g.unfilled
        for label, count in ((filled_label, g.filled), (unfilled_label, g.unfilled)):
            pct = format_percent(count / g_total) if g_total else "-"
            lines.append(f"{count:7d}  {prefix}{label:<{width}} ({pct}%)")
    return "\n".join(lines)


def _format_list(result: ListResult, q: Query) -> str:
    header = ["Value"] if not result.grouped else [_group_header(q), "Value"]
    table = [([value] if not result.grouped else [group or "", value])
             for group, value in result.rows]
    if q.fmt == "csv":
        return _csv(header, table)
    if q.fmt == "tex":
        return _tex(header, table, _title(q))
    if result.grouped:
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


def _tex_escape(text: str) -> str:
    for char in "&%$#_{}":
        text = text.replace(char, "\\" + char)
    return text


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
