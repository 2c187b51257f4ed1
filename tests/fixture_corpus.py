"""Synthetic TimeML fixture corpus.

A small deterministic set of documents exercising every built-in check:
consistent and inconsistent graphs (including one inconsistent only after
inference), TLINK loops, each orphan case, a multi-sub-graph document with
known entropy, and one document using every relation type once. Generation
is byte-deterministic so the files can live in the repository and be
regenerated at will.
"""
from __future__ import annotations

from pathlib import Path

from tmlwb.model import TLINK_RELATIONS


def _all_relations_doc() -> str:
    relations = sorted(TLINK_RELATIONS)
    text_lines = []
    tags = []
    tid = 0
    for i, rel in enumerate(relations, start=1):
        tid += 1
        a = tid
        tid += 1
        b = tid
        text_lines.append(
            f'Case {i} runs from '
            f'<TIMEX3 tid="t{a}" type="DATE" value="2009-01-{i:02d}">day{a}</TIMEX3> '
            f'until <TIMEX3 tid="t{b}" type="DATE" value="2009-02-{i:02d}">day{b}</TIMEX3>.')
        tags.append(f'<TLINK lid="l{i}" relType="{rel}" timeID="t{a}" relatedToTime="t{b}"/>')
    body = "\n".join(text_lines)
    links = "\n".join(tags)
    return f"<TimeML>\n{body}\n{links}\n</TimeML>\n"


FILES: dict[str, str] = {
    # fully linked, consistent, no orphans, one connected sub-graph
    "consistent.tml": """<TimeML>
John <EVENT eid="e1" class="OCCURRENCE">arrived</EVENT> on <TIMEX3 tid="t1" type="DATE" value="2009-06-12">Friday</TIMEX3>. He <EVENT eid="e2" class="OCCURRENCE">left</EVENT> <SIGNAL sid="s1">before</SIGNAL> the <EVENT eid="e3" class="OCCURRENCE">meeting</EVENT> started.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST" aspect="NONE" polarity="POS" pos="VERB"/>
<MAKEINSTANCE eiid="ei2" eventID="e2" tense="PAST" aspect="NONE" polarity="POS" pos="VERB"/>
<MAKEINSTANCE eiid="ei3" eventID="e3" tense="NONE" aspect="NONE" polarity="POS" pos="NOUN"/>
<TLINK lid="l1" relType="IS_INCLUDED" eventInstanceID="ei1" relatedToTime="t1"/>
<TLINK lid="l2" relType="BEFORE" eventInstanceID="ei2" relatedToEventInstance="ei3" signalID="s1"/>
<TLINK lid="l3" relType="BEFORE" eventInstanceID="ei1" relatedToEventInstance="ei2"/>
</TimeML>
""",
    # A BEFORE B plus B INCLUDES A: directly contradictory
    "inconsistent_direct.tml": """<TimeML>
The <EVENT eid="e1" class="OCCURRENCE">crash</EVENT> came before the <EVENT eid="e2" class="OCCURRENCE">inquiry</EVENT>.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei2" eventID="e2" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" relatedToEventInstance="ei2"/>
<TLINK lid="l2" relType="INCLUDES" eventInstanceID="ei2" relatedToEventInstance="ei1"/>
</TimeML>
""",
    # consistent assertion-by-assertion, inconsistent only once equalities
    # substitute into orderings
    "inconsistent_inferred.tml": """<TimeML>
The <EVENT eid="e1" class="OCCURRENCE">vote</EVENT> and the <EVENT eid="e2" class="OCCURRENCE">count</EVENT> preceded the <EVENT eid="e3" class="OCCURRENCE">result</EVENT>.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei2" eventID="e2" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei3" eventID="e3" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<TLINK lid="l1" relType="SIMULTANEOUS" eventInstanceID="ei1" relatedToEventInstance="ei2"/>
<TLINK lid="l2" relType="BEFORE" eventInstanceID="ei2" relatedToEventInstance="ei3"/>
<TLINK lid="l3" relType="BEFORE" eventInstanceID="ei3" relatedToEventInstance="ei1"/>
</TimeML>
""",
    # IDENTITY self-loop: consistent, but a direct loop finding
    "loop_identity.tml": """<TimeML>
The board <EVENT eid="e1" class="OCCURRENCE">met</EVENT> on <TIMEX3 tid="t1" type="DATE" value="2009-03-02">Monday</TIMEX3>.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST" aspect="NONE" polarity="POS" pos="VERB"/>
<TLINK lid="l1" relType="IDENTITY" eventInstanceID="ei1" relatedToEventInstance="ei1"/>
<TLINK lid="l2" relType="IS_INCLUDED" eventInstanceID="ei1" relatedToTime="t1"/>
</TimeML>
""",
    # one event realized twice; the link between its instances is only a
    # possible loop
    "loop_eventid.tml": """<TimeML>
Two hundred people have <EVENT eid="e1" class="OCCURRENCE">flown</EVENT> in space, only twenty of them women.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PRESENT" aspect="PERFECTIVE" polarity="POS" cardinality="200" pos="VERB"/>
<MAKEINSTANCE eiid="ei2" eventID="e1" tense="PRESENT" aspect="PERFECTIVE" polarity="POS" cardinality="20" pos="VERB"/>
<TLINK lid="l1" relType="INCLUDES" eventInstanceID="ei1" relatedToEventInstance="ei2"/>
</TimeML>
""",
    # exactly one finding per orphan case
    "orphans.tml": """<TimeML>
Nothing happened on <TIMEX3 tid="t1" type="DATE" value="2009-07-01">Tuesday</TIMEX3>. The <EVENT eid="e1" class="OCCURRENCE">storm</EVENT> <EVENT eid="e2" class="OCCURRENCE">passed</EVENT> <SIGNAL sid="s1">after</SIGNAL> <TIMEX3 tid="t2" type="DATE" value="2009-07-02">Wednesday</TIMEX3>.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="NONE" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei9" eventID="e99" tense="PAST" aspect="NONE" polarity="POS" pos="VERB"/>
<TLINK lid="l1" relType="AFTER" eventInstanceID="ei9" relatedToTime="t2"/>
</TimeML>
""",
    # two disjoint two-node sub-graphs: entropy 0.5
    "subgraphs.tml": """<TimeML>
The <EVENT eid="e1" class="OCCURRENCE">offer</EVENT> preceded the <EVENT eid="e2" class="OCCURRENCE">sale</EVENT>. The <EVENT eid="e3" class="OCCURRENCE">strike</EVENT> preceded the <EVENT eid="e4" class="OCCURRENCE">settlement</EVENT>.
<MAKEINSTANCE eiid="ei1" eventID="e1" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei2" eventID="e2" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei3" eventID="e3" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<MAKEINSTANCE eiid="ei4" eventID="e4" tense="PAST" aspect="NONE" polarity="POS" pos="NOUN"/>
<TLINK lid="l1" relType="BEFORE" eventInstanceID="ei1" relatedToEventInstance="ei2"/>
<TLINK lid="l2" relType="BEFORE" eventInstanceID="ei3" relatedToEventInstance="ei4"/>
</TimeML>
""",
    "all_relations.tml": _all_relations_doc(),
}


def generate_fixtures(output_dir: Path | str) -> list[Path]:
    """Write the fixture corpus; returns the files written, sorted by name."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(FILES):
        path = output_dir / name
        path.write_text(FILES[name], encoding="utf-8")
        written.append(path)
    return written
