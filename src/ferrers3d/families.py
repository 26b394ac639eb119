"""Enumeration and sampling of diagram families inside a bounding box.

Diagrams are enumerated directly as monotone chains of layer partitions,
never by filtering point subsets; the count of all diagrams in a box has a
closed product form, used to refuse oversized sweeps upfront.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import Diagram
from .errors import InvalidInput


def subpartitions(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every partition componentwise contained in ``bound`` (empty included),
    in a fixed deterministic order."""
    out: list[tuple[int, ...]] = [()]

    def rec(prefix: list[int], idx: int) -> None:
        if idx >= len(bound):
            return
        hi = bound[idx] if not prefix else min(bound[idx], prefix[-1])
        for h in range(1, hi + 1):
            prefix.append(h)
            out.append(tuple(prefix))
            rec(prefix, idx + 1)
            prefix.pop()

    rec([], 0)
    return out


def _check_box(a: int, b: int, c: int) -> None:
    if a < 1 or b < 1 or c < 1:
        raise InvalidInput(f"box dimensions must be positive, got {a} x {b} x {c}")


def count_diagrams(a: int, b: int, c: int) -> int:
    """Number of nonempty diagrams inside [a] x [b] x [c]: MacMahon's box
    product prod_{i,j,k} (i+j+k-1)/(i+j+k-2), whose k-product telescopes to
    (i+j+c-1)/(i+j-1), minus the empty diagram."""
    _check_box(a, b, c)
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    return num // den - 1


def enumerate_diagrams(a: int, b: int, c: int) -> Iterator[Diagram]:
    """All nonempty diagrams inside the box, in a deterministic order.

    The box is checked when this is called, not when iteration starts.
    """
    _check_box(a, b, c)
    return _enumerate(a, b, c)


def _enumerate(a: int, b: int, c: int) -> Iterator[Diagram]:
    tops = [p for p in subpartitions((c,) * b) if p]

    def rec(layers: list[tuple[int, ...]]) -> Iterator[Diagram]:
        yield Diagram(tuple(layers))
        if len(layers) == a:
            return
        for nxt in subpartitions(layers[-1]):
            if nxt:
                layers.append(nxt)
                yield from rec(layers)
                layers.pop()

    for top in tops:
        yield from rec([top])


def sample_diagrams(a: int, b: int, c: int, count: int, seed: int = 0) -> list[Diagram]:
    """Random diagrams inside the box (seeded, not uniform)."""
    _check_box(a, b, c)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        layers: list[tuple[int, ...]] = []
        bound = (c,) * b
        while len(layers) < a:
            layer: list[int] = []
            cap = None
            for j in range(len(bound)):
                hi = bound[j] if cap is None else min(bound[j], cap)
                h = rng.randint(0, hi)
                if h == 0:
                    break
                layer.append(h)
                cap = h
            if not layer:
                break
            layers.append(tuple(layer))
            bound = tuple(layer)
        if not layers:
            layers = [(1,)]
        out.append(Diagram(tuple(layers)))
    return out
