"""Ground-truth oracles, independent of the shedding recursion.

Three routes: facet enumeration of the independence complex (f- and
h-vectors by exact counting), Hilbert-function counting of the toric ring
(distinct products of the degree-one generators), and a bounded-degree
check that the 2-minors rewrite every equal-image binomial to zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import kernels
from .diagram import Diagram, Point, _check_int, has_projection_property
from .errors import InsufficientDegree, TooLarge
from .minors import leading_edges, two_minors

DEFAULT_FACET_LIMIT = 24
DEFAULT_PRODUCT_LIMIT = 5_000_000
DEFAULT_MONOMIAL_LIMIT = 2_000_000

#: Trailing degrees of the default Hilbert table in which the numerator must vanish.
_SLACK = 2


@dataclass(frozen=True)
class InvariantsReport:
    """Ring dimension, regularity, multiplicity and reduction number, with
    the computation route recorded in ``source``."""

    ring_dim: int
    reg: int
    mult: int
    red_num: int
    source: str
    grobner_guarantee: bool = True


@dataclass(frozen=True)
class ComplexSummary:
    facets: tuple[frozenset[Point], ...]
    pure: bool
    f_vector: tuple[int, ...]
    h_vector: tuple[int, ...]
    complex_dim: int

    @property
    def reg(self) -> int:
        """Degree of the h-vector: the regularity of the face ring when the
        complex is Cohen-Macaulay."""
        return max((t for t, h in enumerate(self.h_vector) if h != 0), default=0)


@dataclass(frozen=True)
class HilbertTable:
    values: tuple[int, ...]


def _h_from_f(f_vector: Sequence[int]) -> tuple[int, ...]:
    """h-vector from (f_{-1}, ..., f_{d-1}), one face size at a time:
    h <- (1 - t) * h + f_{i-1} * t^i for i = 0..d."""
    h: list[int] = []
    for f in f_vector:
        h = [x - y for x, y in zip(h + [f], [0] + h)]
    return tuple(h)


def complex_summary(points: Iterable[Point], limit: int = DEFAULT_FACET_LIMIT) -> ComplexSummary:
    """Summary of the independence complex of the leading-pair graph on the
    collection.  Raises InvalidInput unless the limit is an int >= 1."""
    _check_int(limit, 1, "the facet limit")
    verts = sorted({Point(*p) for p in points})
    if len(verts) > limit:
        raise TooLarge(f"{len(verts)} vertices exceed the facet limit {limit}")
    adj = kernels.adjacency(verts, leading_edges(verts))
    masks = kernels.maximal_independent_sets(adj)
    facets = tuple(
        frozenset(verts[t] for t in range(len(verts)) if mask >> t & 1) for mask in masks
    )
    counts = kernels.count_independent_sets_by_size(adj)
    d = max(len(f) for f in facets)
    f_vector = tuple(counts[: d + 1])
    h_vector = _h_from_f(f_vector)
    if sum(h_vector) != f_vector[-1]:
        raise RuntimeError("h-vector transform is inconsistent with the face counts")
    pure = all(len(f) == d for f in facets)
    return ComplexSummary(facets, pure, f_vector, h_vector, d - 1)


def oracle_invariants(diagram: Diagram, limit: int = DEFAULT_FACET_LIMIT) -> InvariantsReport:
    """Invariants read off the h-vector of the enumerated complex.

    For projection-property diagrams the complex is pure and describes the
    toric ring itself; purity failure there is an internal error.  Other
    diagrams are summarized too, but only describe the quotient by the
    leading quadrics, so the report is flagged.
    """
    guaranteed = has_projection_property(diagram)
    summary = complex_summary(diagram.points(), limit=limit)
    if guaranteed and not summary.pure:
        raise RuntimeError("impure complex on a projection-property diagram")
    return InvariantsReport(
        ring_dim=summary.complex_dim + 1,
        reg=summary.reg,
        mult=summary.f_vector[-1],
        red_num=summary.reg,
        source="oracle-facets",
        grobner_guarantee=guaranteed,
    )


# ---------------------------------------------------------------------------
# Hilbert-function counting
# ---------------------------------------------------------------------------


_SLOT_BITS = 32


def _exponent(diagram: Diagram, p: Point) -> int:
    """Exponent vector of one generator, packed into one integer with a
    32-bit slot per coordinate value; packed addition is exact as long as
    every exponent stays below 2**32, which the degree guard ensures."""
    return (
        (1 << (_SLOT_BITS * (p.i - 1)))
        + (1 << (_SLOT_BITS * (diagram.a + p.j - 1)))
        + (1 << (_SLOT_BITS * (diagram.a + diagram.b + p.k - 1)))
    )


def hilbert_function(
    diagram: Diagram, degree: int, product_limit: int = DEFAULT_PRODUCT_LIMIT
) -> HilbertTable:
    """H(l) = number of distinct products of l generators, for l = 0..degree,
    by iterated set convolution of exponent vectors.  Raises InvalidInput
    unless the degree is an int >= 0 and the product limit an int >= 1."""
    _check_int(degree, 0, "the Hilbert degree")
    _check_int(product_limit, 1, "the product limit")
    if degree >= 1 << (_SLOT_BITS - 1):
        raise TooLarge(f"degree {degree} would overflow the packed exponents")
    gens = [_exponent(diagram, p) for p in diagram.points()]
    level = {0}
    values = [1]
    work = 0
    for _ in range(degree):
        work += len(level) * len(gens)
        if work > product_limit:
            raise TooLarge(f"Hilbert counting would exceed {product_limit} products")
        level = {m + g for m in level for g in gens}
        values.append(len(level))
    return HilbertTable(tuple(values))


def hilbert_invariants(diagram: Diagram, degree: Optional[int] = None) -> InvariantsReport:
    """Invariants fitted from the Hilbert function.

    The numerator of the Hilbert series against pole order d = a+b+c-2 is
    recovered by the d-fold backward difference of the table; its degree is
    the regularity (the ring is Cohen-Macaulay in the guaranteed regime) and
    its value at 1 the multiplicity.  The default table length is d plus the
    pairwise-minimum bound on the regularity plus ``_SLACK``, so the numerator
    must terminate visibly; if it does not, InsufficientDegree asks for a
    longer table rather than extrapolating.
    """
    a, b, c = diagram.a, diagram.b, diagram.c
    d = a + b + c - 2
    if degree is None:
        degree = d + (min(a + b, a + c, b + c) - 2) + _SLACK
    table = hilbert_function(diagram, degree)
    h = table.values
    numerator = [
        sum((-1) ** t * math.comb(d, t) * h[n - t] for t in range(0, min(n, d) + 1))
        for n in range(degree + 1)
    ]
    reg = max(n for n, val in enumerate(numerator) if val != 0)
    if reg > degree - _SLACK:
        raise InsufficientDegree(
            f"numerator still nonzero at degree {reg} with table length {degree}; raise the degree"
        )
    mult = sum(numerator)
    if mult <= 0:
        raise RuntimeError("numerator sums to a nonpositive multiplicity; dimension mismatch")
    return InvariantsReport(
        ring_dim=d,
        reg=reg,
        mult=mult,
        red_num=reg,
        source="oracle-hilbert",
        grobner_guarantee=has_projection_property(diagram),
    )


# ---------------------------------------------------------------------------
# bounded-degree Groebner check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GBCheckReport:
    holds: bool
    witness: Optional[tuple[tuple[Point, ...], tuple[Point, ...]]]
    witness_degree: Optional[int]
    failing_degrees: tuple[int, ...]
    pairs_checked: int


def _image(monomial: Sequence[Point]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    return (
        tuple(sorted(p.i for p in monomial)),
        tuple(sorted(p.j for p in monomial)),
        tuple(sorted(p.k for p in monomial)),
    )


def _normal_form(monomial: tuple[Point, ...], lead_map, cache) -> tuple[Point, ...]:
    """Greedy lex rewriting: while some leading pair divides the monomial,
    replace it by the lex-smallest trail of the first divisor in sorted
    order.  Each step strictly lowers the monomial, so this terminates; it
    is the division algorithm specialized to binomials."""
    seen = []
    cur = monomial
    while True:
        hit = cache.get(cur)
        if hit is not None:
            break
        seen.append(cur)
        support = sorted(set(cur))
        rewrite = None
        for p, q in itertools.combinations(support, 2):
            trails = lead_map.get(frozenset((p, q)))
            if trails:
                rewrite = (p, q, trails[0])
                break
        if rewrite is None:
            hit = cur
            break
        p, q, trail = rewrite
        rest = list(cur)
        rest.remove(p)
        rest.remove(q)
        cur = tuple(sorted(rest + list(trail)))
    for m in seen:
        cache[m] = hit
    return hit


def toric_gb_check(
    diagram: Diagram, max_degree: int, monomial_limit: int = DEFAULT_MONOMIAL_LIMIT
) -> GBCheckReport:
    """Do the 2-minors rewrite every equal-image binomial of degree at most
    max_degree to zero?

    Monomials in the point variables are grouped by their image under
    T_{i,j,k} -> x_i y_j z_k; within a group, all normal forms must agree.
    The divisor set is the raw minor list, deliberately without completion:
    failure exhibits a relation the quadrics cannot reach, and the lowest
    degree pair of distinct normal forms is reported as the witness.

    The budget ``monomial_limit`` charges each monomial its degree, the length
    of the tuple it is built and rewritten as: sum_l l * C(n + l - 1, l).
    Raises InvalidInput unless max_degree is an int >= 2 and the budget an
    int >= 1.
    """
    _check_int(max_degree, 2, "the maximum degree")
    _check_int(monomial_limit, 1, "the monomial limit")
    pts = sorted(diagram.points())
    work = 0
    for l in range(2, max_degree + 1):
        work += l * math.comb(len(pts) + l - 1, l)
        if work > monomial_limit:
            raise TooLarge(f"the monomials up to degree {max_degree} exceed the limit {monomial_limit}, "
                           "each counted by its degree")

    lead_map: dict[frozenset[Point], list[tuple[Point, ...]]] = {}
    for minor in two_minors(pts):
        lead_map.setdefault(minor.lead, []).append(tuple(sorted(minor.trail)))
    for trails in lead_map.values():
        trails.sort()

    cache: dict[tuple[Point, ...], tuple[Point, ...]] = {}
    witness = None
    witness_degree = None
    failing = []
    pairs = 0
    for l in range(2, max_degree + 1):
        groups: dict[tuple, list[tuple[Point, ...]]] = {}
        for mono in itertools.combinations_with_replacement(pts, l):
            groups.setdefault(_image(mono), []).append(mono)
        degree_fails = False
        for members in groups.values():
            if len(members) < 2:
                continue
            pairs += math.comb(len(members), 2)
            forms = [_normal_form(m, lead_map, cache) for m in members]
            for t in range(1, len(members)):
                if forms[t] != forms[0]:
                    degree_fails = True
                    if witness is None:
                        witness = (members[0], members[t])
                        witness_degree = l
                    break
        if degree_fails:
            failing.append(l)
    return GBCheckReport(
        holds=not failing,
        witness=witness,
        witness_degree=witness_degree,
        failing_degrees=tuple(failing),
        pairs_checked=pairs,
    )
