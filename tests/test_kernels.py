import math
import random

import pytest

from ferrers3d import kernels


def random_graph(n, density, seed):
    rng = random.Random(seed)
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


@pytest.mark.parametrize("n,density,seed", [(0, 0.0, 0), (1, 0.0, 1), (6, 0.3, 2),
                                            (10, 0.5, 3), (14, 0.2, 4), (14, 0.8, 5)])
def test_pure_kernel_basics(n, density, seed):
    adj = random_graph(n, density, seed)
    mis = kernels.maximal_independent_sets(adj)
    assert mis == sorted(mis)
    for mask in mis:
        members = [v for v in range(n) if mask >> v & 1]
        for a in members:
            assert not any(adj[a] >> b & 1 for b in members)
        for v in range(n):
            if not mask >> v & 1:
                assert any(adj[v] >> b & 1 for b in members) or n == 0
    counts = kernels.count_independent_sets_by_size(adj)
    assert counts[0] == 1
    assert sum(counts) == _count_brute(adj, n)


def _count_brute(adj, n):
    total = 0
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if mask >> v & 1 and adj[v] & mask:
                ok = False
                break
        total += ok
    return total


def test_edgeless_graph_past_the_recursion_limit():
    # 2^1100 faces and one facet; both kernels run from explicit stacks
    n = 1100
    assert kernels.count_independent_sets_by_size([0] * n) == [math.comb(n, s) for s in range(n + 1)]
    assert kernels.maximal_independent_sets([0] * n) == [(1 << n) - 1]
