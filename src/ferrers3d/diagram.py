"""Three-dimensional Ferrers diagrams.

A diagram is a finite set of positive lattice points closed under
componentwise decrease.  It is stored as a tuple of layers, one per
x-coordinate; layer ``i`` is a partition whose ``j``-th part is the largest
``k`` with ``(i, j, k)`` in the diagram.  The stored form is always
essential: every coordinate value between 1 and the bounding box occurs.

This module owns construction and validation, coordinate statistics
(alpha/beta/gamma), the six-zone split around a point, the projection and
strong projection properties, flips, reductions and plane profiles.  It
names the two first-layer order flavors; the engine's ``successor`` walks
them.

A point set becomes a diagram through its column heights ``{(i, j): max k}``,
read in one pass; it is downward closed exactly when those heights validate
and hold as many points as the set.  A set given as k-intervals per column
is reduced the same way without its points (``reduce_columns``).  A
diagram's own point tuple is built at most once, by definition from its
layers; point sets cut from it, such as the zones, filter it in one pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import gt
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import InvalidInput, NotFerrers, NotInDiagram

#: First-layer order flavors.
INDUCTION = "induction"
LEX = "lex"


class Point(NamedTuple):
    i: int
    j: int
    k: int

    def flip(self) -> "Point":
        """Exchange the y and z coordinates."""
        return Point(self.i, self.k, self.j)


def _conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= t) for t in range(1, parts[0] + 1))


@dataclass(frozen=True)
class Diagram:
    """A three-dimensional Ferrers diagram in essential layer form.

    Use :func:`validate`, :func:`from_generators` or :func:`from_points` to
    construct one; the raw constructor performs no checking.

    The point tuple is built lazily, at most once per diagram, and derived
    from ``layers`` alone: equality, hashing, ``repr`` and pickling see only
    ``layers``.
    """

    layers: tuple[tuple[int, ...], ...]

    # -- bounding box / essential dimensions --------------------------------

    @property
    def a(self) -> int:
        return len(self.layers)

    @property
    def b(self) -> int:
        return len(self.layers[0])

    @property
    def c(self) -> int:
        return self.layers[0][0]

    @property
    def size(self) -> int:
        return sum(map(sum, self.layers))

    # -- membership and iteration -------------------------------------------

    def __contains__(self, p: object) -> bool:
        i, j, k = p  # type: ignore[misc]
        if i < 1 or j < 1 or k < 1 or i > len(self.layers):
            return False
        layer = self.layers[i - 1]
        return j <= len(layer) and k <= layer[j - 1]

    def height(self, i: int, j: int) -> int:
        """Largest k with (i, j, k) in the diagram, 0 if the column is empty."""
        if not 1 <= i <= len(self.layers):
            return 0
        layer = self.layers[i - 1]
        return layer[j - 1] if 1 <= j <= len(layer) else 0

    def points(self) -> tuple[Point, ...]:
        """All points in lexicographic order."""
        return self._points

    # -- lazy cache, never pickled ------------------------------------------

    @cached_property
    def _points(self) -> tuple[Point, ...]:
        return tuple(Point(i, j, k)
                     for i, layer in enumerate(self.layers, start=1)
                     for j, h in enumerate(layer, start=1)
                     for k in range(1, h + 1))

    def __getstate__(self) -> dict:
        return {"layers": self.layers}

    # -- per-layer statistics -------------------------------------------------

    def layer_width(self, i: int) -> int:
        """Essential width of the x=i layer (number of columns), 0 if absent."""
        return len(self.layers[i - 1]) if 1 <= i <= len(self.layers) else 0

    def layer_height(self, i: int) -> int:
        """Essential height of the x=i layer (its tallest column), 0 if absent."""
        return self.layers[i - 1][0] if 1 <= i <= len(self.layers) else 0

    # -- derived diagrams -------------------------------------------------------

    def flip(self) -> "Diagram":
        """The image under (i, j, k) -> (i, k, j); conjugates every layer."""
        return Diagram(tuple(_conjugate(layer) for layer in self.layers))

    def issubset(self, other: "Diagram") -> bool:
        if len(self.layers) > len(other.layers):
            return False
        for mine, theirs in zip(self.layers, other.layers):
            if len(mine) > len(theirs):
                return False
            if any(h1 > h2 for h1, h2 in zip(mine, theirs)):
                return False
        return True

    def __str__(self) -> str:
        return "|".join(",".join(str(h) for h in layer) for layer in self.layers)


@dataclass(frozen=True)
class ZoneMap:
    """The six-way split of the points at or above a reference point's layer."""

    z1: frozenset[Point]
    z2: frozenset[Point]
    z3: frozenset[Point]
    z4: frozenset[Point]
    z5: frozenset[Point]
    z6: frozenset[Point]

    def zone(self, n: int) -> frozenset[Point]:
        return (self.z1, self.z2, self.z3, self.z4, self.z5, self.z6)[n - 1]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _is_int(value: object) -> bool:
    """An int that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(layers: Iterable[Iterable[int]]) -> Diagram:
    """Build a diagram from layer height lists, checking all invariants.

    Raises NotFerrers (naming the violating coordinates) when heights grow
    along a row, layers grow along x, or an entry is not a positive int;
    raises InvalidInput on structurally empty data and on layers that are
    not iterable.
    """
    try:
        rows = tuple(tuple(layer) for layer in layers)
    except TypeError as exc:
        raise InvalidInput(f"the layers must be a collection of height lists ({exc})") from None
    if not rows:
        raise InvalidInput("a diagram needs at least one layer")
    for i, layer in enumerate(rows, start=1):
        if not layer:
            raise InvalidInput(f"layer {i} is empty")
        if set(map(type, layer)) == {int} and layer[-1] >= 1 and not any(map(gt, layer[1:], layer)):
            continue  # ints, positive and falling: checked without a Python-level loop
        for j, h in enumerate(layer, start=1):
            if not _is_int(h) or h < 1:
                raise NotFerrers(f"height at (i={i}, j={j}) is {h}, expected a positive integer")
            if j > 1 and h > layer[j - 2]:
                raise NotFerrers(
                    f"heights increase along layer {i}: "
                    f"column {j - 1} has {layer[j - 2]}, column {j} has {h}"
                )
    for i in range(1, len(rows)):
        below, above = rows[i - 1], rows[i]
        if len(above) > len(below):
            raise NotFerrers(f"layer {i + 1} is wider than layer {i}")
        if not any(map(gt, above, below)):
            continue
        for j, h in enumerate(above, start=1):
            if h > below[j - 1]:
                raise NotFerrers(
                    f"column (i={i + 1}, j={j}) has height {h} above height {below[j - 1]}"
                )
    return Diagram(rows)


def _check_point(p: object, refusal: str = "is not a triple of integers") -> Point:
    """p as a Point.  Unless p is a tuple or list of three ints, raises
    InvalidInput with the message "<p> <refusal>"; a bool or a float is not
    an int here, though True == 1 == 1.0."""
    if not (isinstance(p, (tuple, list)) and len(p) == 3
            and type(p[0]) is type(p[1]) is type(p[2]) is int):
        raise InvalidInput(f"{p!r} {refusal}")
    return p if type(p) is Point else Point(*p)


def _check_int(value: object, low: int, what: str) -> None:
    """Raises InvalidInput unless value is an int (not a bool) >= low."""
    if not (_is_int(value) and value >= low):
        raise InvalidInput(f"{what} must be an integer >= {low}, got {value!r}")


def _check_box(a: int, b: int, c: int) -> None:
    """Raises InvalidInput unless the box sides are positive ints."""
    for side in (a, b, c):
        _check_int(side, 1, "a box side")


def box(a: int, b: int, c: int) -> Diagram:
    """The full rectangular diagram [a] x [b] x [c]."""
    _check_box(a, b, c)
    return Diagram(((c,) * b,) * a)


def from_generators(gens: Iterable[Sequence[int]]) -> Diagram:
    """Smallest Ferrers diagram containing every generator (downward
    closure); there must be one, and each must be a triple of positive ints
    (InvalidInput)."""
    pts = [Point(*g) for g in _int_triples(gens)]
    if not pts or min(map(min, pts)) < 1:
        raise InvalidInput("need at least one generator, each with positive coordinates")
    a = max(p.i for p in pts)
    layers = []
    for i in range(1, a + 1):
        covering = [p for p in pts if p.i >= i]
        width = max(p.j for p in covering)
        layers.append(tuple(max(p.k for p in covering if p.j >= j) for j in range(1, width + 1)))
    return Diagram(tuple(layers))


def _column_heights(pts: Collection[Sequence[int]]) -> dict[tuple[int, int], int]:
    """{(i, j): largest k} over the points, in one pass."""
    heights: dict[tuple[int, int], int] = {}
    for i, j, k in pts:
        if heights.setdefault((i, j), k) < k:
            heights[i, j] = k
    return heights


def _from_heights(heights: dict[tuple[int, int], int], size: int) -> Diagram:
    """The diagram with the given column heights; it must hold exactly
    ``size`` points, which fails unless the point set was downward closed."""
    rows: list[list[int]] = []
    for (i, j), h in sorted(heights.items()):
        if i < 1:
            continue  # no layer holds it, so the size check fails
        if i == len(rows) + 1 and j == 1:
            rows.append([h])
        elif i == len(rows) and j == len(rows[-1]) + 1:
            rows[-1].append(h)
        else:
            raise NotFerrers(f"layer {min(i, len(rows) + 1)} has missing columns")
    diag = validate(rows)
    if diag.size != size:
        raise NotFerrers("point set is not downward closed")
    return diag


def _int_triples(points: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    """The points as a set of tuples, possibly empty.  Raises InvalidInput
    unless each is a triple of ints; a set cannot tell True or 1.0 from 1,
    so the type of every given coordinate is read, in one pass over them."""
    try:
        pts = list(points)
        lengths = set(map(len, pts))
        kinds = set(map(type, chain.from_iterable(pts)))
    except TypeError as exc:
        raise InvalidInput(f"the points must be a collection of triples ({exc})") from None
    if lengths - {3} or kinds - {int}:
        bad = next(p for p in pts if len(p) != 3 or set(map(type, p)) != {int})
        raise InvalidInput(f"{bad!r} is not a triple of integers")
    return set(map(tuple, pts))


def from_points(points: Iterable[Sequence[int]]) -> Diagram:
    """Build a diagram from an exact set of int triples; the set itself
    must already be downward closed and essential."""
    pts = _int_triples(points)
    return _from_heights(_column_heights(pts), len(pts))


def reduce_points(
    points: Iterable[Sequence[int]],
) -> tuple[Diagram, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Collapse empty coordinate slices of a point set and build the diagram.

    Returns the reduced diagram together with the sorted original values per
    axis; original value ``vals[axis][t-1]`` maps to coordinate ``t`` in the
    reduced diagram.  The ranks are applied to the column heights, which
    the one pass over the points yields, so no reduced point set is built.
    Raises InvalidInput, as :func:`from_points` does, unless the points are
    a nonempty collection of int triples, and NotFerrers if the collapsed
    set is still not downward closed.  It is not exported: it is the
    engine's small-host reference for links, whose ambient sets are subsets
    of a host's own points, and the tests' reference for
    :func:`reduce_columns`.
    """
    pts = _int_triples(points)
    if not pts:
        raise InvalidInput("empty point set")
    values = tuple(tuple(sorted(set(axis))) for axis in zip(*pts))
    imap, jmap, kmap = (dict(zip(axis, range(1, len(axis) + 1))) for axis in values)
    heights = {(imap[i], jmap[j]): kmap[h] for (i, j), h in _column_heights(pts).items()}
    return _from_heights(heights, len(pts)), values


def merge_intervals(intervals: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The union of closed integer intervals (lo, hi), as sorted disjoint
    intervals with a gap between each two."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


#: A point set in column form: each layer i maps to its columns j,
#: increasing, and to the k values of each column, as sorted disjoint
#: intervals (lo, hi).
Columns = dict[int, tuple[list[int], list[tuple[tuple[int, int], ...]]]]


def reduce_columns(
    layers: Columns,
) -> tuple[Diagram, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """:func:`reduce_points` for a point set in column form, with no layer
    or column empty.  The cost follows the columns and the distinct k
    values, not the points.

    The conditions are those of :func:`reduce_points`: each column's values
    are a prefix of the sorted k values (their count is the rank of their
    largest value, checked once per distinct column), each layer holds a
    prefix of the sorted j values, and the ranked heights validate."""
    if not layers:
        raise InvalidInput("empty point set")
    ivals = tuple(sorted(layers))
    columns = [layers[i] for i in ivals]
    # the layers hold prefixes of the j values exactly when they hold
    # prefixes of the widest layer's
    jvals = max((js for js, _ in columns), key=len)
    shapes = set(chain.from_iterable(ivs for _, ivs in columns))
    spans = next(iter(shapes)) if len(shapes) == 1 else merge_intervals(chain.from_iterable(shapes))
    kvals = tuple(chain.from_iterable(range(lo, hi + 1) for lo, hi in spans))
    tops = {}
    for ivs in shapes:
        tops[ivs] = bisect_right(kvals, ivs[-1][1])  # the rank of the largest value
        if tops[ivs] != sum(hi - lo + 1 for lo, hi in ivs):
            raise NotFerrers("point set is not downward closed")
    rows = []
    for js, ivs in columns:
        if js != jvals[:len(js)]:
            raise NotFerrers(f"layer {len(rows) + 1} has missing columns")
        rows.append(tuple(map(tops.__getitem__, ivs)))
    return validate(rows), (ivals, tuple(jvals), kvals)


# ---------------------------------------------------------------------------
# coordinate statistics and zones
# ---------------------------------------------------------------------------


def alpha_beta_gamma(diagram: Diagram, u: Point) -> tuple[int, int, int]:
    """Greatest coordinate reachable from u along each axis while staying
    in the diagram.  Raises InvalidInput unless u is a triple of ints."""
    u = _check_point(u)
    if u not in diagram:
        raise NotInDiagram(f"{tuple(u)} is not in the diagram")
    # the diagram is downward closed, so each axis's reach is a count
    alpha = sum(1 for layer in diagram.layers if len(layer) >= u.j and layer[u.j - 1] >= u.k)
    beta = sum(1 for h in diagram.layers[u.i - 1] if h >= u.k)
    gamma = diagram.height(u.i, u.j)
    return alpha, beta, gamma


def zones(diagram: Diagram, u: Point) -> ZoneMap:
    """Split the points with x-coordinate >= u.i into the six zones cut out
    by j <= j0 / j <= beta and k <= k0 / k <= gamma."""
    _, beta, gamma = alpha_beta_gamma(diagram, u)
    i0, j0, k0 = u
    zs: tuple[list[Point], ...] = ([], [], [], [], [], [])
    for p in diagram.points():
        if p.i < i0:
            continue
        if p.j <= j0:
            zone = 1 if p.k > gamma else 2 if p.k > k0 else 3
        elif p.j <= beta:
            zone = 4 if p.k > k0 else 5
        else:
            zone = 6
        zs[zone - 1].append(p)
    return ZoneMap(*map(frozenset, zs))


# ---------------------------------------------------------------------------
# projection properties
# ---------------------------------------------------------------------------


def has_projection_property(diagram: Diagram) -> bool:
    """Each layer covers the rectangular shadow of the next one."""
    for i in range(1, diagram.a):
        if (i, diagram.layer_width(i + 1), diagram.layer_height(i + 1)) not in diagram:
            return False
    return True


def has_strong_projection_property(diagram: Diagram) -> bool:
    """Projection property plus full-height corner columns: layer i must
    reach height c_i at column b_{i+1} and height c_{i+1} at column b_i
    (each requirement waived when the next layer's width/height is 1)."""
    for i in range(1, diagram.a):
        b_next = diagram.layer_width(i + 1)
        c_next = diagram.layer_height(i + 1)
        if b_next != 1 and (i, b_next, diagram.layer_height(i)) not in diagram:
            return False
        if c_next != 1 and (i, diagram.layer_width(i), c_next) not in diagram:
            return False
    return True


# ---------------------------------------------------------------------------
# profiles and JSON
# ---------------------------------------------------------------------------


def profile(diagram: Diagram, plane: str) -> tuple[int, ...]:
    """Shadow of the diagram on the xy or xz plane, as a partition."""
    if plane == "xy":
        return tuple(len(layer) for layer in diagram.layers)
    if plane == "xz":
        return tuple(layer[0] for layer in diagram.layers)
    raise InvalidInput(f"unknown profile plane {plane!r}, expected 'xy' or 'xz'")


def diagram_to_json(diagram: Diagram) -> dict:
    return {"layers": [list(layer) for layer in diagram.layers]}


def diagram_from_json(data: object) -> Diagram:
    """Parse ``{"layers": [[...], ...]}`` or ``{"generators": [[i,j,k], ...]}``.

    Exactly one of the two keys must be present and all entries must be
    integers >= 1.
    """
    if not isinstance(data, dict):
        raise InvalidInput("diagram JSON must be an object")
    keys = set(data) & {"layers", "generators"}
    if len(keys) != 1 or set(data) - {"layers", "generators"}:
        raise InvalidInput("diagram JSON needs exactly one of 'layers' or 'generators'")
    if "layers" in data:
        layers = data["layers"]
        if not isinstance(layers, list) or not all(isinstance(l, list) for l in layers):
            raise InvalidInput("'layers' must be a list of lists")
        return validate(layers)
    return from_generators(data["generators"])
