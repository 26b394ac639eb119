"""Shared helpers for the test suite."""

from __future__ import annotations

from ferrers3d import Point, from_points
from ferrers3d.diagram import LEX, Diagram
from ferrers3d.engine import PAST_LAYER_1, SuffixState, successor


def partitions_up_to(cells: int) -> list[tuple[int, ...]]:
    """Every nonempty partition with at most the given number of cells."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, cap: int) -> None:
        if prefix:
            out.append(tuple(prefix))
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(prefix, remaining - part, part)
            prefix.pop()

    rec([], cells, cells)
    return out


def layer_points(diagram: Diagram, i: int) -> tuple[Point, ...]:
    """The points of the x = i layer, in lexicographic order."""
    return tuple(p for p in diagram.points() if p.i == i)


def permute_axes(diagram: Diagram, perm: tuple[int, int, int]) -> Diagram:
    """Diagram image under a coordinate permutation (always Ferrers)."""
    pts = [Point(*(tuple(p)[t] for t in perm)) for p in diagram.points()]
    return from_points(pts)


def order_key(diagram: Diagram, flavor: str):
    """Sort key of the first-layer order of the given flavor: (j, k) for
    lex; for the induction order, stage one (k up to the height of layer
    2) by (j, k) and then stage two by (k, j).  The reference for the
    engine's ``successor``, which defines the two orders."""
    if flavor == LEX:
        return lambda p: (p.j, p.k)
    c2 = diagram.layer_height(2)
    return lambda p: (0, p.j, p.k) if p.k <= c2 else (1, p.k, p.j)


def first_layer_order(diagram: Diagram, flavor: str) -> tuple[Point, ...]:
    """The first layer sorted by :func:`order_key`."""
    return tuple(sorted(layer_points(diagram, 1), key=order_key(diagram, flavor)))


def walked_order(diagram: Diagram, flavor: str) -> tuple[Point, ...]:
    """The first layer in the order the engine's ``successor`` walks it."""
    s, out = SuffixState(diagram, Point(1, 1, 1), flavor), []
    while s.start is not PAST_LAYER_1:
        out.append(s.start)
        s = successor(s)
    return tuple(out)
