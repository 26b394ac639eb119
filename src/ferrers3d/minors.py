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

One swap scan serves every caller, and it runs on packed integers;
``leading_edges`` inlines it, testing the lead first and stopping at a
pair's first leading axis.  A point becomes the code
``(i << 2w) | (j << w) | k``, where the field width ``w`` is the bit length
of the largest coordinate in the call, so no coordinate is too large.
Every coordinate fits its field, so comparing two codes compares i first,
then j, then k: integer order is lex order.  Swapping one coordinate takes
that field from the other point, two mask operations, and for a pair
``u < v`` with swap partners p and q the pair leads its minor iff
``u < p and u < q``.  Codes map back to the caller's points only in the
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import AbstractSet, Collection, Container, Iterable, Iterator

from .diagram import Point, _int_triples
from .errors import InvalidInput, NotInDiagram


@dataclass(frozen=True)
class Binomial2Minor:
    """A nonzero 2-minor, oriented so that ``lead`` is the lex leading pair.

    ``directions`` records every axis whose swap produces this same binomial.
    """

    lead: frozenset[Point]
    trail: frozenset[Point]
    directions: frozenset[str]


def _code(p: Point, w: int) -> int:
    i, j, k = p
    return (i << 2 * w) | (j << w) | k


def _pack(points: Collection[Point]) -> tuple[dict[int, Point], int]:
    """Each distinct point keyed by its packed code, and the field width."""
    flat = list(chain.from_iterable(points))
    if flat and min(flat) < 0:
        raise InvalidInput("point coordinates must be nonnegative")
    w = max(flat, default=0).bit_length()
    ww = 2 * w
    return {(p[0] << ww) | (p[1] << w) | p[2]: p for p in points}, w


def _scan(pairs: Iterable[tuple[int, int]], member: Container[int], w: int) -> Iterator[tuple]:
    """Yield ``(axis, u, v, p, q)`` for each pair ``u < v`` of codes and each
    axis whose swap gives partners p, q in ``member``: the nonzero 2-minor
    T_u T_v - T_p T_q.  The swap returns the pair itself exactly when u and
    v agree on that axis (p = u) or on both others (p = v)."""
    field = (1 << w) - 1
    masks = (("x", field << 2 * w), ("y", field << w), ("z", field))
    for u, v in pairs:
        x = u ^ v
        for axis, m in masks:
            d = x & m
            if d and d != x and u ^ d in member and v ^ d in member:
                yield axis, u, v, u ^ d, v ^ d


def two_minors(points: Iterable[Point]) -> tuple[Binomial2Minor, ...]:
    """All distinct nonzero 2-minors of the collection, in lex order of
    (lead, trail).

    The same unordered {lead, trail} pair arising from several axes or pair
    orderings is emitted once, with every applicable axis recorded.  Raises
    InvalidInput unless the points are int triples, none negative.
    """
    point, w = _pack([Point(*p) for p in _int_triples(points)])
    found: dict[tuple[tuple[int, int], tuple[int, int]], set[str]] = {}
    for axis, u, v, p, q in _scan(combinations(sorted(point), 2), point, w):
        pq = (p, q) if p < q else (q, p)
        key = ((u, v), pq) if u < pq[0] else (pq, (u, v))
        found.setdefault(key, set()).add(axis)
    return tuple(
        Binomial2Minor(frozenset(map(point.get, lead)), frozenset(map(point.get, trail)), frozenset(axes))
        for (lead, trail), axes in sorted(found.items())
    )


def leading_edges(points: Iterable[Point]) -> frozenset[frozenset[Point]]:
    """The lex leading pairs of all nonzero 2-minors, as an edge set.

    This is the swap test of :func:`_scan`, inlined with the lead condition
    first and stopping at the first axis whose minor the pair leads: an
    edge needs only one."""
    point, w = _pack([p if type(p) is Point else Point(*p) for p in points])
    field = (1 << w) - 1
    masks = (field << 2 * w, field << w, field)
    edges = []
    for u, v in combinations(sorted(point), 2):
        x = u ^ v
        for m in masks:
            d = x & m
            if d and d != x and u < u ^ d and u < v ^ d and u ^ d in point and v ^ d in point:
                edges.append(frozenset((point[u], point[v])))
                break
    return frozenset(edges)


def is_normal_in(collection: AbstractSet[Point], u: Point) -> bool:
    """Definitional normality test on an arbitrary collection containing u
    (``NotInDiagram`` otherwise): does deleting u shrink the leading-pair
    edge set?

    Only edges leading some minor that involves u can disappear.  An edge
    through u always disappears, so the scan of u's pairs stops at the first
    such lead; each other candidate lead survives iff one swap of its own
    pair still leads a minor whose trail avoids u.
    """
    point, w = _pack(collection)
    c = _code(u, w)
    if point.get(c) != u:
        raise NotInDiagram(f"{tuple(u)} is not in the collection")
    candidates = set()
    for _, a, b, p, q in _scan(((c, v) if c < v else (v, c) for v in point if v != c), point, w):
        if a < p and a < q:
            return True
        candidates.add((p, q) if p < q else (q, p))
    survivors = {(a, b) for _, a, b, p, q in _scan(candidates, point, w)
                 if a < p and a < q and c != p and c != q}
    return survivors != candidates
