"""Closed formulas and bounds.

Rectangular diagrams have exact trinomial multiplicity and a two-smallest-
sides regularity; two-dimensional diagrams are one-sided ladder
determinantal rings (Corso-Nagel, Monomial and toric ideals associated to
Ferrers graphs, Trans. AMS 2009), whose regularity and multiplicity are
read off the lattice paths inside the shape; Segre products combine factor
invariants; and general diagrams get the pairwise-minimum regularity bound
and, under the strong projection property, profile and box bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .diagram import Diagram, _check_box, _check_int, has_strong_projection_property, profile, validate
from .errors import HypothesisFailed, InvalidInput, UnsupportedDiagram


def rect_multiplicity(a: int, b: int, c: int) -> int:
    """(a+b+c-3)! / ((a-1)!(b-1)!(c-1)!), the multiplicity of a full box."""
    _check_box(a, b, c)
    return math.factorial(a + b + c - 3) // (
        math.factorial(a - 1) * math.factorial(b - 1) * math.factorial(c - 1)
    )


def rect_regularity(a: int, b: int, c: int) -> int:
    """Sum of the two smallest sides minus 2, the regularity of a full box."""
    _check_box(a, b, c)
    lo, mid, _ = sorted((a, b, c))
    return lo + mid - 2


def ferrers2d_regularity(parts: Sequence[int]) -> int:
    """Regularity of the toric ring of a two-dimensional diagram.

    For parts l_1 >= ... >= l_n this is min({l_j + j - 3 : 2 <= j <= n} |
    {n - 1}): the most right-then-up turns of a lattice path inside the
    shape from its bottom-left cell to its top-right cell.  The ring is a
    one-sided ladder determinantal ring of 2-minors whose h-polynomial
    counts those paths by their turns (Corso-Nagel, Monomial and toric
    ideals associated to Ferrers graphs, Trans. AMS 2009).  Like the ring,
    the value is invariant under conjugation.  The parts are checked as one
    layer of :func:`validate`.
    """
    parts = validate([parts]).layers[0]
    n = len(parts)
    return min([parts[j - 1] + j - 3 for j in range(2, n + 1)] + [n - 1])


def ferrers2d_multiplicity(parts: Sequence[int]) -> int:
    """Multiplicity of the toric ring of a two-dimensional diagram: the
    number of lattice paths inside the shape from its bottom-left cell to
    its top-right cell (Corso-Nagel, Trans. AMS 2009), counted row by row
    upward by prefix sums.  The parts are checked as one layer of
    :func:`validate`."""
    parts = validate([parts]).layers[0]
    ways = [1] * parts[-1]
    for width in reversed(parts[:-1]):
        ways = list(accumulate(ways + [0] * (width - len(ways))))
    return ways[-1]


def mu_bound(diagram: Diagram) -> int:
    """Regularity bound: minimum pairwise sum of the essential dimensions,
    minus 2."""
    a, b, c = diagram.a, diagram.b, diagram.c
    return min(a + b, a + c, b + c) - 2


@dataclass(frozen=True)
class SegreFactor:
    dim: int
    reg: int
    mult: int


def segre_combine(factors: Sequence[SegreFactor]) -> SegreFactor:
    """Invariants of the Segre product of Cohen-Macaulay factors.

    dim = sum of dims - (s-1); mult = multinomial over (dim_i - 1) times the
    product of the factor multiplicities; reg = max of the regs when every
    factor is one-dimensional, else dim - max(dim_i - reg_i), which needs
    reg_i < dim_i for every factor.  Raises InvalidInput unless the factors
    are a nonempty collection of ``SegreFactor``, each with int fields
    dim >= 1, reg >= 0 and mult >= 1.
    """
    try:
        factors = tuple(factors)
    except TypeError as exc:
        raise InvalidInput(f"the factors must be a collection of SegreFactor ({exc})") from None
    if not factors or not all(isinstance(f, SegreFactor) for f in factors):
        raise InvalidInput("need at least one factor, each a SegreFactor")
    for f in factors:
        _check_int(f.dim, 1, "a factor's dim")
        _check_int(f.reg, 0, "a factor's reg")
        _check_int(f.mult, 1, "a factor's mult")
    if len(factors) == 1:
        return factors[0]
    dim = sum(f.dim for f in factors) - (len(factors) - 1)
    shifted = [f.dim - 1 for f in factors]
    mult = math.factorial(sum(shifted))
    for t in shifted:
        mult //= math.factorial(t)
    for f in factors:
        mult *= f.mult
    if all(f.dim == 1 for f in factors):
        reg = max(f.reg for f in factors)
    else:
        if any(f.reg >= f.dim for f in factors):
            raise HypothesisFailed("every factor needs reg < dim when some factor has dim >= 2")
        reg = dim - max(f.dim - f.reg for f in factors)
    return SegreFactor(dim=dim, reg=reg, mult=mult)


@dataclass(frozen=True)
class ProfileBounds:
    """Upper bounds on (reg, mult); the headline numbers are the minima of
    the xy-profile bound and the bounding-box bound."""

    reg_bound: int
    mult_bound: int
    profile_reg_bound: int
    profile_mult_bound: int
    box_reg_bound: int
    box_mult_bound: int
    profile_partition: tuple[int, ...]


def profile_bounds(diagram: Diagram) -> ProfileBounds:
    """Bounds from the xy-profile prism and from the bounding box; both need
    the strong projection property."""
    if not has_strong_projection_property(diagram):
        raise UnsupportedDiagram("profile bounds need the strong projection property")
    a, b, c = diagram.a, diagram.b, diagram.c
    part = profile(diagram, "xy")
    flat = SegreFactor(a + b - 1, ferrers2d_regularity(part), ferrers2d_multiplicity(part))
    prism = segre_combine([flat, SegreFactor(c, 0, 1)])
    box_reg = rect_regularity(a, b, c)
    box_mult = rect_multiplicity(a, b, c)
    return ProfileBounds(
        reg_bound=min(prism.reg, box_reg),
        mult_bound=min(prism.mult, box_mult),
        profile_reg_bound=prism.reg,
        profile_mult_bound=prism.mult,
        box_reg_bound=box_reg,
        box_mult_bound=box_mult,
        profile_partition=part,
    )
