"""Point-algebra consistency checking for the temporal graph of a document.

Intervals are split into start/end points and every TLINK becomes one or two
assertions over those points, using only `<` (before) and `=` (simultaneous).
Following the point algebra of Vilain & Kautz (AAAI 1986), the assertions are
consistent iff, once union-find has merged the `=` classes, the `<` edges
between classes form no cycle.

The check runs in two stages. The verdict numbers each document's points as
ints and decides in one pass: union-find over the `=` pairs, then Kahn's
in-degree pass over the `<` edges between classes. Only an inconsistent
document goes on to the explanation, which builds the assertions over named
points, lets graphlib find a cycle and reports the TLINKs whose assertions
make it up. The paper's agenda/database closure lives in tests/reference.py,
as the independent reference the tests check the verdict against.

Assertions are plain tuples ``(rel, left, right)`` where rel is "<" or "=",
and points are ``(interval_id, 1)`` for the start and ``(interval_id, 2)``
for the end. Equalities are kept with the lexicographically smaller point
first so that set comparisons are well defined.
"""
from __future__ import annotations

import graphlib
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import TypeVar

from .model import Document, Link

START = 1
END = 2

Point = tuple[str, int]
Assertion = tuple[str, Point, Point]
T = TypeVar("T")

# TimeML relation -> point assertion templates, with the link written
# "arg1 REL arg2". Each template is (rel, (arg, point), (arg, point)).
_A, _B = "a", "b"
TLINK_POINT_MAP: dict[str, tuple[tuple[str, tuple[str, int], tuple[str, int]], ...]] = {
    "BEFORE":       (("<", (_A, END), (_B, START)),),
    "AFTER":        (("<", (_B, END), (_A, START)),),
    "IAFTER":       (("=", (_B, END), (_A, START)),),
    "IBEFORE":      (("=", (_A, END), (_B, START)),),
    "INCLUDES":     (("<", (_A, START), (_B, START)), ("<", (_B, END), (_A, END))),
    "IS_INCLUDED":  (("<", (_B, START), (_A, START)), ("<", (_A, END), (_B, END))),
    "BEGINS":       (("=", (_A, START), (_B, START)), ("<", (_A, END), (_B, END))),
    "BEGUN_BY":     (("=", (_A, START), (_B, START)), ("<", (_B, END), (_A, END))),
    "ENDS":         (("=", (_A, END), (_B, END)), ("<", (_B, START), (_A, START))),
    "ENDED_BY":     (("=", (_B, END), (_A, END)), ("<", (_A, START), (_B, START))),
    "SIMULTANEOUS": (("=", (_A, START), (_B, START)), ("=", (_A, END), (_B, END))),
    "IDENTITY":     (("=", (_A, START), (_B, START)), ("=", (_B, END), (_A, END))),
    "DURING":       (("=", (_A, START), (_B, START)), ("=", (_A, END), (_B, END))),
    "DURING_INV":   (("=", (_A, START), (_B, START)), ("=", (_A, END), (_B, END))),
}


def point_name(p: Point) -> str:
    return f"{p[0]}_{p[1]}"


def assertion_text(a: Assertion) -> str:
    rel, left, right = a
    return f"({point_name(left)} {rel} {point_name(right)})"


def _eq(x: Point, y: Point) -> Assertion:
    return ("=", x, y) if x <= y else ("=", y, x)


def _lt(x: Point, y: Point) -> Assertion:
    return ("<", x, y)


def tlink_to_assertions(link: Link) -> set[Assertion]:
    """Instantiate the point templates for one TLINK."""
    if link.kind != "TLINK":
        raise ValueError(f"not a TLINK: {link.lid}")
    ids = {_A: link.arg1.ref_id, _B: link.arg2.ref_id}
    out: set[Assertion] = set()
    for rel, (la, lp), (ra, rp) in TLINK_POINT_MAP[link.rel_type]:
        left: Point = (ids[la], lp)
        right: Point = (ids[ra], rp)
        out.add(_lt(left, right) if rel == "<" else _eq(left, right))
    return out


def interval_axioms(interval_ids: set[str]) -> set[Assertion]:
    """One start-before-end axiom per interval."""
    return {_lt((i, START), (i, END)) for i in interval_ids}


def document_assertions(doc: Document) -> tuple[set[Assertion], list[Assertion]]:
    """(axioms, initial agenda) for a document's TLINKs."""
    intervals: set[str] = set()
    agenda: list[Assertion] = []
    seen: set[Assertion] = set()
    for link in doc.tlinks:
        intervals.add(link.arg1.ref_id)
        intervals.add(link.arg2.ref_id)
        for a in sorted(tlink_to_assertions(link)):
            if a not in seen:
                seen.add(a)
                agenda.append(a)
    return interval_axioms(intervals), agenda


@dataclass
class ConsistencyResult:
    consistent: bool
    conflict: Assertion | None  # the `<` assertion that closes the cycle
    processed: int  # distinct assertions: interval axioms and TLINK ones
    lids: tuple[str, ...] = ()  # witness TLINKs, in document order

    @property
    def message(self) -> str | None:
        if self.consistent:
            return None
        return (f"! Inconsistent closure - could not assert "
                f"{assertion_text(self.conflict)} - TLINKs {', '.join(self.lids)}")


def find(parent: dict[T, T], p: T) -> T:
    """Root of p's class in the union-find forest parent (p joins it as a
    class of its own if new), halving the path on the way. Here the
    classes are the `=` classes of points; graph_checks groups intervals."""
    parent.setdefault(p, p)
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


# TLINK_POINT_MAP over integer points: (is `<`, arg of the left point,
# its offset, arg of the right point, its offset), where arg 0 is arg1 and
# arg 1 is arg2, and an interval numbered i has its start at 2i and its end
# at 2i + 1.
_INT_TEMPLATES = {
    rel: tuple((r == "<", la == _B, lp - START, ra == _B, rp - START)
               for r, (la, lp), (ra, rp) in templates)
    for rel, templates in TLINK_POINT_MAP.items()}


def verdict(doc: Document) -> tuple[bool, int]:
    """(consistent, number of distinct assertions) of a document, decided
    in one pass over integer points.

    The intervals are numbered as they first occur. The `=` classes are
    merged with find, then Kahn's in-degree pass runs over the `<` edges
    between class roots, so a `<` inside one class is a self-loop that
    fails it. The count is len(axioms) + len(agenda) of
    document_assertions.
    """
    number: dict[str, int] = {}
    lts: set[tuple[int, int]] = set()
    eqs: set[tuple[int, int]] = set()
    for link in doc.tlinks:
        ab = (2 * number.setdefault(link.arg1.ref_id, len(number)),
              2 * number.setdefault(link.arg2.ref_id, len(number)))
        for lt, la, lo, ra, ro in _INT_TEMPLATES[link.rel_type]:
            x, y = ab[la] + lo, ab[ra] + ro
            if lt:
                lts.add((x, y))
            else:
                eqs.add((x, y) if x <= y else (y, x))
    processed = len(number) + len(lts) + len(eqs)
    points = 2 * len(number)
    parent: dict[int, int] = {}
    for x, y in eqs:
        parent[find(parent, x)] = find(parent, y)
    root = list(range(points))
    for p in parent:
        root[p] = find(parent, p)
    succ: list[list[int]] = [[] for _ in range(points)]
    indegree = [0] * points
    axioms = zip(range(0, points, 2), range(1, points, 2))
    for x, y in chain(axioms, lts):
        succ[root[x]].append(root[y])
        indegree[root[y]] += 1
    # a point that is no root has no edges, so it leaves at once; a root
    # with a `<` to itself never does
    ready = [p for p in range(points) if not indegree[p]]
    left = points
    while ready:
        left -= 1
        for q in succ[ready.pop()]:
            indegree[q] -= 1
            if not indegree[q]:
                ready.append(q)
    return not left, processed


def check_consistency(doc: Document) -> ConsistencyResult:
    """Decide with verdict(); only an inconsistent document goes on to
    explain(), which names the clash."""
    consistent, processed = verdict(doc)
    if consistent:
        return ConsistencyResult(True, None, processed)
    return explain(doc)


def explain(doc: Document) -> ConsistencyResult:
    """The result of check_consistency from assertions over named points,
    with the cycle of `<` that graphlib finds and the TLINKs behind it.

    A `<` inside one class is a self-loop, so the cycle search finds it too.
    The reported conflict is the cycle's `<` assertion that comes last
    (interval axioms first, then TLINKs in document order), so the
    assertions before it rule it out. A document with no cycle gets the
    consistent result.
    """
    axioms, initial = document_assertions(doc)
    # sorted, and dicts rather than sets below, so that the cycle found and
    # the message do not depend on string hashing
    assertions = sorted(axioms) + initial
    parent: dict[Point, Point] = {}
    for rel, left, right in assertions:
        if rel == "=":
            parent[find(parent, left)] = find(parent, right)
    # class -> {class before it: index of the first `<` assertion between them}
    preds: dict[Point, dict[Point, int]] = {}
    for i, (rel, left, right) in enumerate(assertions):
        if rel == "<":
            preds.setdefault(find(parent, right), {}).setdefault(
                find(parent, left), i)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]  # each class before the next; first == last
        on_cycle = [preds[after][before]
                    for before, after in zip(cycle, cycle[1:])]
        return ConsistencyResult(
            False, assertions[max(on_cycle)], len(assertions),
            _witness(doc, assertions, [assertions[i] for i in on_cycle]))
    return ConsistencyResult(True, None, len(assertions))


def _witness(doc: Document, assertions: list[Assertion],
             cycle: list[Assertion]) -> tuple[str, ...]:
    """TLINKs asserting a `<` cycle and the `=` steps that close it.

    Consecutive `<` assertions meet in one `=` class; the `=` assertions on
    a shortest path between their meeting points join them.
    """
    equal: dict[Point, list[tuple[Point, Assertion]]] = {}
    for a in assertions:
        if a[0] == "=":
            equal.setdefault(a[1], []).append((a[2], a))
            equal.setdefault(a[2], []).append((a[1], a))
    used = set(cycle)
    for (_, _, start), (_, goal, _) in zip(cycle, cycle[1:] + cycle[:1]):
        came: dict[Point, tuple[Point, Assertion] | None] = {start: None}
        queue = deque([start])
        while goal not in came:
            p = queue.popleft()
            for q, a in equal.get(p, ()):
                if q not in came:
                    came[q] = (p, a)
                    queue.append(q)
        p = goal
        while came[p] is not None:
            p, a = came[p]
            used.add(a)
    producer: dict[Assertion, str] = {}
    for link in doc.tlinks:
        for a in tlink_to_assertions(link):
            producer.setdefault(a, link.lid)
    wanted = {producer[a] for a in used if a in producer}
    return tuple(link.lid for link in doc.tlinks if link.lid in wanted)
