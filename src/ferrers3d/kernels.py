"""Enumeration kernels over bitmask adjacency, in pure Python.

``adj[v]`` is the neighbor mask of vertex v.  Both enumeration functions
treat faces of the independence complex: maximal independent sets, and
counts of all independent sets by cardinality.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

#: Kernel implementation name, printed in the benchmark's header line.
IMPLEMENTATION = "python"


def adjacency(vertices: Sequence[Hashable], edges: Iterable[Iterable[Hashable]]) -> list[int]:
    """Neighbor masks of the graph, vertex t being ``vertices[t]``."""
    index = {p: t for t, p in enumerate(vertices)}
    adj = [0] * len(vertices)
    for p, q in edges:
        adj[index[p]] |= 1 << index[q]
        adj[index[q]] |= 1 << index[p]
    return adj


def maximal_independent_sets(adj: Sequence[int]) -> list[int]:
    """All maximal independent sets, as an ascending list of bitmasks.

    Runs pivoting branch and bound on the complement graph (maximal cliques
    of the complement are maximal independent sets).
    """
    n = len(adj)
    if n == 0:
        return [0]
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def extend(chosen: int, cand: int, excluded: int) -> None:
        if cand == 0 and excluded == 0:
            out.append(chosen)
            return
        pool = cand | excluded
        pivot, best = -1, -1
        m = pool
        while m:
            low = m & (-m)
            m ^= low
            v = low.bit_length() - 1
            score = (cand & comp[v]).bit_count()
            if score > best:
                pivot, best = v, score
        m = cand & ~comp[pivot]
        while m:
            low = m & (-m)
            m ^= low
            v = low.bit_length() - 1
            extend(chosen | low, cand & comp[v], excluded & comp[v])
            cand &= ~low
            excluded |= low
        return

    extend(0, full, 0)
    out.sort()
    return out


def count_independent_sets_by_size(adj: Sequence[int]) -> list[int]:
    """counts[s] = number of independent sets of size s (counts[0] = 1)."""
    n = len(adj)
    counts = [0] * (n + 1)

    def rec(cand: int, size: int) -> None:
        counts[size] += 1
        m = cand
        while m:
            low = m & (-m)
            m ^= low
            v = low.bit_length() - 1
            rec(m & ~adj[v], size + 1)

    rec((1 << n) - 1, 0)
    return counts
