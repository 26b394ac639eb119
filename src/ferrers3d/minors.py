"""Binomial 2-minors of a point collection and their lex leading pairs.

Each point (i, j, k) stands for the variable T_{i,j,k}, which maps to the
monomial x_i y_j z_k.  Swapping one coordinate between two points yields a
quadratic binomial whenever both swapped partners also belong to the
collection.  Variables are ordered by T_u > T_v iff u precedes v
lexicographically, so the lex leading term of a nonzero minor is the pair
containing the lexicographically smallest of its four points.

The leading pairs form a graph on the collection; its independence complex
is the simplicial complex the whole package studies.  A first-layer point is
"normal" when deleting it shrinks the leading-pair edge set of its order
suffix, and "phantom" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .diagram import Diagram, OrderedPointList, Point
from .errors import NotInLayer

AXES = ("x", "y", "z")


def swap_partners(u: Point, v: Point, axis: str) -> tuple[Point, Point]:
    """The two points obtained by exchanging one coordinate of u and v."""
    if axis == "x":
        return Point(v.i, u.j, u.k), Point(u.i, v.j, v.k)
    if axis == "y":
        return Point(u.i, v.j, u.k), Point(v.i, u.j, v.k)
    return Point(u.i, u.j, v.k), Point(v.i, v.j, u.k)


@dataclass(frozen=True)
class Binomial2Minor:
    """A nonzero 2-minor, oriented so that ``lead`` is the lex leading pair.

    ``directions`` records every axis whose swap produces this same binomial.
    """

    lead: frozenset[Point]
    trail: frozenset[Point]
    directions: frozenset[str]


@dataclass(frozen=True)
class PairGraph:
    vertices: frozenset[Point]
    edges: frozenset[frozenset[Point]]


def _oriented(u: Point, v: Point, p: Point, q: Point) -> tuple[frozenset[Point], frozenset[Point]]:
    smallest = min(u, v, p, q)
    if smallest in (u, v):
        return frozenset((u, v)), frozenset((p, q))
    return frozenset((p, q)), frozenset((u, v))


def _swap_minors(u: Point, v: Point, member: AbstractSet[Point]):
    """Yield ``(axis, lead, trail)`` for each nonzero 2-minor obtained by
    swapping one coordinate of u and v inside the collection.

    A swap returns the pair itself exactly when its first partner is u or v.
    """
    for axis in AXES:
        p, q = swap_partners(u, v, axis)
        if p in member and q in member and p != u and p != v:
            yield (axis, *_oriented(u, v, p, q))


def two_minors(points: Iterable[Point]) -> tuple[Binomial2Minor, ...]:
    """All distinct nonzero 2-minors of the collection.

    The same unordered {lead, trail} pair arising from several axes or pair
    orderings is emitted once, with every applicable axis recorded.
    """
    pts = sorted({Point(*p) for p in points})
    member = set(pts)
    found: dict[tuple[frozenset[Point], frozenset[Point]], set[str]] = {}
    for a, u in enumerate(pts):
        for v in pts[a + 1:]:
            for axis, lead, trail in _swap_minors(u, v, member):
                found.setdefault((lead, trail), set()).add(axis)
    return tuple(
        Binomial2Minor(lead, trail, frozenset(dirs))
        for (lead, trail), dirs in sorted(found.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1])))
    )


def leading_edges(points: Iterable[Point]) -> frozenset[frozenset[Point]]:
    """The lex leading pairs of all nonzero 2-minors, as an edge set."""
    pts = sorted({Point(*p) for p in points})
    member = set(pts)
    return frozenset(
        lead for a, u in enumerate(pts) for v in pts[a + 1:]
        for _, lead, _ in _swap_minors(u, v, member)
    )


def leading_pair_graph(points: Iterable[Point]) -> PairGraph:
    pts = frozenset(Point(*p) for p in points)
    return PairGraph(pts, leading_edges(pts))


def monomial_generators(diagram: Diagram) -> frozenset[Point]:
    """Generators of the defining monomial ideal; one per diagram point."""
    return frozenset(diagram.points())


def _lead_survives_without(edge: frozenset[Point], member: AbstractSet[Point], u: Point) -> bool:
    """True if swapping the edge's own two points yields a minor with this
    edge as its leading pair and a trail that avoids u."""
    if u in edge:
        return False
    p, q = edge
    return any(lead == edge and u not in trail for _, lead, trail in _swap_minors(p, q, member))


def is_normal_in(collection: AbstractSet[Point], u: Point) -> bool:
    """Definitional normality test on an arbitrary collection containing u:
    does deleting u shrink the leading-pair edge set?

    Only edges leading some minor that involves u can disappear.  An edge
    through u always disappears, so the scan stops at the first such lead;
    the other candidate leads are tested afterwards, each in constant time.
    """
    candidates = set()
    for v in collection:
        for _, lead, _ in _swap_minors(u, v, collection):
            if u in lead:
                return True
            candidates.add(lead)
    return any(not _lead_survives_without(e, collection, u) for e in candidates)


def _suffix_sets(
    diagram: Diagram, order: OrderedPointList, u: Point
) -> tuple[frozenset[Point], frozenset[Point]]:
    try:
        pos = order.points.index(u)
    except ValueError:
        raise NotInLayer(f"{tuple(u)} is not in the ordered first layer") from None
    suffix = diagram.deep_points.union(order.points[pos:])
    return suffix, suffix - {u}


def classify_point(diagram: Diagram, order: OrderedPointList, u: Point) -> str:
    """Classify a first-layer point as "normal" or "phantom" for the given
    order: normal iff the leading-pair edge sets of its suffix with and
    without the point differ.  (For quadratic squarefree edge sets the
    initial-ideal containment test reduces to edge-set inequality.)
    """
    u = Point(*u)
    with_u, without_u = _suffix_sets(diagram, order, u)
    return "normal" if leading_edges(with_u) != leading_edges(without_u) else "phantom"
