"""Enumeration kernels over bitmask adjacency, in pure Python.

``adj[v]`` is the neighbor mask of vertex v.  Both functions treat faces of
the independence complex from an explicit stack: maximal independent sets
by a pivoting search, and counts of all independent sets by size, without
visiting them, by the vertex recurrence of the independence polynomial.
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
    of the complement are maximal independent sets); each stack entry is a
    branch (chosen, candidates, excluded).
    """
    n = len(adj)
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        chosen, cand, excluded = stack.pop()
        if cand == 0 and excluded == 0:
            out.append(chosen)
            continue
        pivot, best = -1, -1
        m = cand | excluded
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
            stack.append((chosen | low, cand & comp[v], excluded & comp[v]))
            cand &= ~low
            excluded |= low
    out.sort()
    return out


def count_independent_sets_by_size(adj: Sequence[int]) -> list[int]:
    """counts[s] = number of independent sets of size s (counts[0] = 1), from
    I(c) = I(c - v) + t * I(c - N[v]), memoised by candidate mask c with lowest vertex v."""
    n = len(adj)
    memo = {0: [1]}
    stack = [(1 << n) - 1]
    while stack:
        c = stack.pop()
        if c in memo:
            continue
        low = c & (-c)
        rest = c ^ low
        inner = rest & ~adj[low.bit_length() - 1]
        if rest in memo and inner in memo:
            head, tail = memo[rest], [0] + memo[inner]
            memo[c] = [x + y for x, y in zip(head, tail)] + head[len(tail):] + tail[len(head):]
        else:
            stack += [c, rest, inner]
    counts = memo[(1 << n) - 1]
    return counts + [0] * (n + 1 - len(counts))
