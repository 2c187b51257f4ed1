"""Point-algebra consistency checking for the temporal graph of a document.

Intervals are split into start/end points and every TLINK becomes one or two
assertions over those points, using only `<` (before) and `=` (simultaneous).
Following the point algebra of Vilain & Kautz (AAAI 1986), the assertions are
consistent iff, once union-find has merged the `=` classes, the `<` edges
between classes form no cycle.

Points are ints: the interval numbered i starts at 2i and ends at 2i + 1.
Assertions are tuples ``(rel, x, y)`` where rel is "<" or "=", and an
equality keeps its smaller point first. Interval ids appear only in the
conflict of a result and its message, as points ``(interval_id, START)``
and ``(interval_id, END)``, written ``id_1`` and ``id_2``.

The check runs in two stages. The verdict numbers the intervals as they
first occur and decides in one pass: union-find over the `=` pairs, then
Kahn's in-degree pass over the `<` edges between classes. Only an
inconsistent document goes on to the explanation, which numbers the
intervals in sorted-id order, so that the order of two points is the order
of their names, lets graphlib find a cycle and reports the TLINKs whose
assertions make it up. The assertions over named points and the paper's
agenda/database closure live in tests/reference.py, as the independent
references the tests check both stages against.
"""
from __future__ import annotations

import graphlib
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import TypeVar

from .model import Document

START = 1
END = 2

Point = tuple[str, int]  # (interval_id, START or END)
Assertion = tuple[str, Point, Point]
IntAssertion = tuple[str, int, int]
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
    fails it. The count is len(intervals) + len(assertions) of
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


def document_assertions(doc: Document) -> tuple[list[str], dict[IntAssertion, str]]:
    """(intervals, assertions) of a document's TLINKs: the sorted ids of
    the intervals they relate, each with its axiom start < end, and each
    distinct TLINK assertion, in document order and sorted within a TLINK,
    mapped to the first TLINK that makes it."""
    tlinks = doc.tlinks
    intervals = sorted({ref.ref_id for link in tlinks for ref in (link.arg1, link.arg2)})
    number = {ref_id: 2 * i for i, ref_id in enumerate(intervals)}
    assertions: dict[IntAssertion, str] = {}
    for link in tlinks:
        ab = (number[link.arg1.ref_id], number[link.arg2.ref_id])
        made = []
        for lt, la, lo, ra, ro in _INT_TEMPLATES[link.rel_type]:
            x, y = ab[la] + lo, ab[ra] + ro
            made.append(("<", x, y) if lt else ("=", min(x, y), max(x, y)))
        for a in sorted(made):
            assertions.setdefault(a, link.lid)
    return intervals, assertions


def check_consistency(doc: Document) -> ConsistencyResult:
    """Decide with verdict(); only an inconsistent document goes on to
    explain(), which names the clash."""
    consistent, processed = verdict(doc)
    if consistent:
        return ConsistencyResult(True, None, processed)
    return explain(doc)


def explain(doc: Document) -> ConsistencyResult:
    """The result of check_consistency, with the cycle of `<` that graphlib
    finds and the TLINKs behind it.

    A `<` inside one class is a self-loop, so the cycle search finds it too.
    The reported conflict is the cycle's `<` assertion that comes last
    (interval axioms first, then TLINKs in document order), so the
    assertions before it rule it out. A document with no cycle gets the
    consistent result.
    """
    intervals, producer = document_assertions(doc)
    axioms = [("<", p, p + 1) for p in range(0, 2 * len(intervals), 2)]
    assertions = axioms + list(producer)
    # dicts rather than sets below, so that the cycle found and the message
    # follow the order of the assertions
    parent: dict[int, int] = {}
    for rel, x, y in assertions:
        if rel == "=":
            parent[find(parent, x)] = find(parent, y)
    # class -> {class before it: index of the first `<` assertion between them}
    preds: dict[int, dict[int, int]] = {}
    for i, (rel, x, y) in enumerate(assertions):
        if rel == "<":
            preds.setdefault(find(parent, y), {}).setdefault(find(parent, x), i)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]  # each class before the next; first == last
        on_cycle = [preds[after][before]
                    for before, after in zip(cycle, cycle[1:])]
        rel, x, y = assertions[max(on_cycle)]
        conflict = (rel, (intervals[x // 2], START + x % 2),
                    (intervals[y // 2], START + y % 2))
        return ConsistencyResult(
            False, conflict, len(assertions),
            _witness(doc, producer, [assertions[i] for i in on_cycle]))
    return ConsistencyResult(True, None, len(assertions))


def _witness(doc: Document, producer: dict[IntAssertion, str],
             cycle: list[IntAssertion]) -> tuple[str, ...]:
    """TLINKs asserting a `<` cycle and the `=` steps that close it, from
    the TLINK assertions of document_assertions and their producers.

    Consecutive `<` assertions meet in one `=` class; the `=` assertions on
    a shortest path between their meeting points join them.
    """
    equal: dict[int, list[tuple[int, IntAssertion]]] = {}
    for a in producer:
        if a[0] == "=":
            equal.setdefault(a[1], []).append((a[2], a))
            equal.setdefault(a[2], []).append((a[1], a))
    used = set(cycle)
    for (_, _, start), (_, goal, _) in zip(cycle, cycle[1:] + cycle[:1]):
        came: dict[int, tuple[int, IntAssertion] | None] = {start: None}
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
    wanted = {producer[a] for a in used if a in producer}
    return tuple(link.lid for link in doc.tlinks if link.lid in wanted)
