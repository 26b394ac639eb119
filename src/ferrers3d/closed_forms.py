"""Closed formulas and bounds.

Rectangular diagrams have exact trinomial multiplicity and a two-smallest-
sides regularity; two-dimensional diagrams have a branch formula for the
regularity and a nested-sum multiplicity; Segre products combine factor
invariants; and general diagrams get the pairwise-minimum regularity bound
and, under the strong projection property, profile and box bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .diagram import Diagram, box, has_strong_projection_property, profile
from .errors import HypothesisFailed, InvalidInput, UnsupportedDiagram


def as_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts:
        raise InvalidInput("a partition needs at least one part")
    if any(not isinstance(p, int) or p < 1 for p in parts):
        raise InvalidInput("partition parts must be positive integers")
    if any(parts[t] < parts[t + 1] for t in range(len(parts) - 1)):
        raise InvalidInput("partition parts must be weakly decreasing")
    return parts


def rect_multiplicity(a: int, b: int, c: int) -> int:
    """(a+b+c-3)! / ((a-1)!(b-1)!(c-1)!), the multiplicity of a full box."""
    return math.factorial(a + b + c - 3) // (
        math.factorial(a - 1) * math.factorial(b - 1) * math.factorial(c - 1)
    )


def rect_regularity(a: int, b: int, c: int) -> int:
    """Sum of the two smallest sides minus 2, the regularity of a full box."""
    lo, mid, _ = sorted((a, b, c))
    return lo + mid - 2


@dataclass(frozen=True)
class Ambiguous:
    """Both branch guards of the two-dimensional regularity formula hold and
    disagree; carries both candidates, larger first."""

    by_support: int
    by_first_two: int

    def candidates(self) -> tuple[int, int]:
        return (self.by_support, self.by_first_two)


def ferrers2d_regularity(parts: Sequence[int]) -> "int | Ambiguous":
    """Regularity of the toric ring of a two-dimensional diagram.

    With s the last index whose part is >= 2: the answer is s-1 when the
    second part is >= 3 and the s-th part is >= 3, and min{j-1 : part_j = 2,
    j >= 2} when the second part is <= 2.  Restricting the min to j >= 2 is
    a correction to the published branch: it changes nothing when the first
    part is >= 3 but repairs first part 2 (a 2x2 box is a quadric
    hypersurface of regularity 1, not 0), as exhaustive facet enumeration
    confirms.  When both guards hold (second part >= 3 and s-th part
    exactly 2) the two values can differ and an Ambiguous value is returned
    for the caller (or an oracle) to arbitrate.  Diagrams with no 2x2 box
    give a polynomial ring, hence 0.
    """
    parts = as_partition(parts)
    second = parts[1] if len(parts) > 1 else 0
    if second <= 1:
        return 0
    s = max(t + 1 for t, p in enumerate(parts) if p >= 2)
    twos = [t for t, p in enumerate(parts) if p == 2 and t >= 1]
    by_first_two = min(twos) if twos else None
    if second >= 3 and parts[s - 1] >= 3:
        return s - 1
    if second >= 3 and parts[s - 1] == 2:
        assert by_first_two is not None
        if s - 1 == by_first_two:
            return s - 1
        return Ambiguous(by_support=s - 1, by_first_two=by_first_two)
    assert by_first_two is not None
    return by_first_two


def ferrers2d_multiplicity(parts: Sequence[int]) -> int:
    """Multiplicity of the toric ring of a two-dimensional diagram, by the
    nested sum over the part differences (empty-sum conventions: a single
    row gives 1, two rows give the second part)."""
    parts = as_partition(parts)
    n = len(parts)
    if n == 1:
        return 1
    second = parts[1]
    if n == 2:
        return second

    def level(t: int, hi: int) -> int:
        lo = second - parts[t + 2] + 1
        if t == 0:
            return sum(range(lo, hi + 1)) if hi >= lo else 0
        return sum(level(t - 1, j) for j in range(lo, hi + 1))

    return level(n - 3, second)


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
    reg_i < dim_i for every factor.
    """
    if not factors:
        raise InvalidInput("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    if any(f.dim < 1 for f in factors):
        raise HypothesisFailed("factors must have positive dimension")
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
    profile_reg_ambiguous: bool


def profile_bounds(diagram: Diagram) -> ProfileBounds:
    """Bounds from the xy-profile prism and from the bounding box; both need
    the strong projection property.  An ambiguous profile regularity uses
    the larger candidate, which keeps the bound valid."""
    if not has_strong_projection_property(diagram):
        raise UnsupportedDiagram("profile bounds need the strong projection property")
    a, b, c = diagram.a, diagram.b, diagram.c
    part = profile(diagram, "xy")
    reg2d = ferrers2d_regularity(part)
    ambiguous = isinstance(reg2d, Ambiguous)
    reg2d_value = max(reg2d.candidates()) if ambiguous else reg2d
    profile_reg = (a + b + c - 2) - max(a + b - 1 - reg2d_value, c)
    profile_mult = math.comb(a + b + c - 3, c - 1) * ferrers2d_multiplicity(part)
    box_reg = rect_regularity(a, b, c)
    box_mult = rect_multiplicity(a, b, c)
    return ProfileBounds(
        reg_bound=min(profile_reg, box_reg),
        mult_bound=min(profile_mult, box_mult),
        profile_reg_bound=profile_reg,
        profile_mult_bound=profile_mult,
        box_reg_bound=box_reg,
        box_mult_bound=box_mult,
        profile_partition=part,
        profile_reg_ambiguous=ambiguous,
    )


def reduction_number(diagram: Diagram) -> int:
    """Reduction number of the defining monomial ideal; equals the engine's
    regularity.  For full boxes the two-smallest-sides value is asserted as
    a cross-check."""
    from .engine import Engine

    reg = Engine().invariants(diagram).reg
    a, b, c = diagram.a, diagram.b, diagram.c
    if diagram == box(a, b, c) and reg != rect_regularity(a, b, c):
        raise RuntimeError("box reduction number disagrees with the closed form")
    return reg
