"""Enumeration and sampling of diagram families inside a bounding box.

Diagrams are enumerated directly as monotone chains of layer partitions,
never by filtering point subsets; the count of all diagrams in a box has a
closed product form, used to refuse oversized sweeps upfront.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import Diagram, _check_box


def subpartitions(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every partition componentwise contained in ``bound`` (empty included),
    in lexicographic order: a pre-order walk of the prefix tree from one
    stack, each prefix's extensions pushed largest part first."""
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        out.append(prefix)
        if len(prefix) < len(bound):
            hi = bound[len(prefix)] if not prefix else min(bound[len(prefix)], prefix[-1])
            stack.extend(prefix + (h,) for h in range(hi, 0, -1))
    return out


def count_diagrams(a: int, b: int, c: int) -> int:
    """Number of nonempty diagrams inside [a] x [b] x [c]: MacMahon's box
    product prod_{i,j,k} (i+j+k-1)/(i+j+k-2), whose k-product telescopes to
    (i+j+c-1)/(i+j-1), minus the empty diagram."""
    return count_at_most(a, b, c, None)


def count_at_most(a: int, b: int, c: int, cap: int | None) -> int | None:
    """:func:`count_diagrams`, or None once the count passes ``cap``.  The
    product runs over the two shortest sides, so each factor is above 3/2: a
    count past ``cap`` shows within log_{3/2}(cap) factors of any box."""
    _check_box(a, b, c)
    a, b, c = sorted((a, b, c))
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
            if cap is not None and num > (cap + 1) * den:
                return None
    return num // den - 1


def enumerate_diagrams(a: int, b: int, c: int) -> Iterator[Diagram]:
    """All nonempty diagrams inside the box, in a deterministic order; the
    box is checked when this is called, not when iteration starts."""
    _check_box(a, b, c)
    return _enumerate(a, b, c)


def _enumerate(a: int, b: int, c: int) -> Iterator[Diagram]:
    """Pre-order walk of the layer chains from one stack, from the empty
    chain under the box's full layer: each chain, then its extensions by one
    nonempty sub-partition of its top layer in lexicographic order.  Each
    top layer's sub-partitions are listed once."""
    below: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    stack: list[tuple[tuple[int, ...], ...]] = [()]
    while stack:
        layers = stack.pop()
        if layers:
            yield Diagram(layers)
        if len(layers) < a:
            top = layers[-1] if layers else (c,) * b
            if top not in below:
                below[top] = [p for p in subpartitions(top) if p]
            stack.extend(layers + (p,) for p in reversed(below[top]))


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
