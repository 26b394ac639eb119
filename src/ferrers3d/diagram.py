"""Three-dimensional Ferrers diagrams.

A diagram is a finite set of positive lattice points closed under
componentwise decrease.  It is stored as a tuple of layers, one per
x-coordinate; layer ``i`` is a partition whose ``j``-th part is the largest
``k`` with ``(i, j, k)`` in the diagram.  The stored form is always
essential: every coordinate value between 1 and the bounding box occurs.

This module owns construction and validation, coordinate statistics
(alpha/beta/gamma), the six-zone split around a point, the projection and
strong projection properties, the lexicographic and induction orders on the
first layer, flips, reductions and plane profiles.

A point set becomes a diagram through its column heights ``{(i, j): max k}``,
read in one pass; it is downward closed exactly when those heights validate
and hold as many points as the set.  Zones and other boxes of a diagram are
cut from the cached point tuple one column slice at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

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

    The point tuple, its column slices and the first-layer orders are built
    lazily, at most once per diagram, and derived from ``layers`` alone:
    equality, hashing, ``repr`` and pickling see only ``layers``.
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
        return sum(sum(layer) for layer in self.layers)

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

    def layer_points(self, i: int) -> tuple[Point, ...]:
        if not 1 <= i <= len(self.layers):
            return ()
        return self._points[self._layer_starts[i - 1]:self._layer_starts[i]]

    def box_points(self, lo: Sequence[int], hi: Sequence[int]) -> list[Point]:
        """The points p with lo <= p <= hi componentwise, in lexicographic
        order.  Each column contributes one slice of its points, so the cost
        follows the columns and the points returned, not the diagram."""
        (i0, j0, k0), (i1, j1, k1) = lo, hi
        i0, j0, k0 = max(i0, 1), max(j0, 1), max(k0, 1)
        out: list[Point] = []
        if i0 > i1 or j0 > j1 or k0 > k1:
            return out
        for cols in self._columns[i0 - 1:i1]:
            for col in cols[j0 - 1:j1]:
                if len(col) < k0:
                    break  # heights only fall along a row
                out += col[k0 - 1:k1]
        return out

    @cached_property
    def deep_points(self) -> frozenset[Point]:
        """The points above the first layer (x-coordinate at least 2)."""
        return frozenset(self._points[self._layer_starts[1]:])

    def first_layer_order(self, flavor: str) -> tuple[tuple[Point, ...], dict[Point, int]]:
        """The first layer sorted by the flavor's :func:`order_key`, and the
        position of each point in that order."""
        order = self._orders.get(flavor)
        if order is None:
            ranked = tuple(sorted(self.layer_points(1), key=order_key(self, flavor)))
            order = self._orders[flavor] = (ranked, {p: t for t, p in enumerate(ranked)})
        return order

    # -- lazy caches, never pickled -------------------------------------------

    @cached_property
    def _points(self) -> tuple[Point, ...]:
        # one column at a time; tuple.__new__ makes each Point without a
        # Python-level call
        make = partial(tuple.__new__, Point)
        return tuple(chain.from_iterable(
            map(make, zip(repeat(i, h), repeat(j, h), range(1, h + 1)))
            for i, layer in enumerate(self.layers, start=1)
            for j, h in enumerate(layer, start=1)
        ))

    @cached_property
    def _layer_starts(self) -> tuple[int, ...]:
        starts = [0]
        for layer in self.layers:
            starts.append(starts[-1] + sum(layer))
        return tuple(starts)

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[Point, ...], ...], ...]:
        """Per layer, each column's points (i, j, 1..h) as a slice of the
        point tuple."""
        pts, start, layers = self._points, 0, []
        for layer in self.layers:
            cols = []
            for h in layer:
                cols.append(pts[start:start + h])
                start += h
            layers.append(tuple(cols))
        return tuple(layers)

    @cached_property
    def _orders(self) -> dict[str, tuple[tuple[Point, ...], dict[Point, int]]]:
        return {}

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

    def union(self) -> frozenset[Point]:
        return self.z1 | self.z2 | self.z3 | self.z4 | self.z5 | self.z6


@dataclass(frozen=True)
class OrderedPointList:
    """A total order on the first layer; flavor is "induction" or "lex"."""

    points: tuple[Point, ...]
    flavor: str


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _is_int(value: object) -> bool:
    """An int that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(layers: Iterable[Iterable[int]]) -> Diagram:
    """Build a diagram from layer height lists, checking all invariants.

    Raises NotFerrers (naming the violating coordinates) when heights grow
    along a row, layers grow along x, or an entry is nonpositive; raises
    InvalidInput on structurally empty data.
    """
    rows = tuple(tuple(layer) for layer in layers)
    if not rows:
        raise InvalidInput("a diagram needs at least one layer")
    for i, layer in enumerate(rows, start=1):
        if not layer:
            raise InvalidInput(f"layer {i} is empty")
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
        for j, h in enumerate(above, start=1):
            if h > below[j - 1]:
                raise NotFerrers(
                    f"column (i={i + 1}, j={j}) has height {h} above height {below[j - 1]}"
                )
    return Diagram(rows)


def box(a: int, b: int, c: int) -> Diagram:
    """The full rectangular diagram [a] x [b] x [c]."""
    if a < 1 or b < 1 or c < 1:
        raise InvalidInput("box dimensions must be positive")
    return Diagram(((c,) * b,) * a)


def from_generators(gens: Iterable[Sequence[int]]) -> Diagram:
    """Smallest Ferrers diagram containing every generator (downward closure)."""
    pts = [Point(*g) for g in gens]
    if not pts:
        raise InvalidInput("empty generator set")
    if any(p.i < 1 or p.j < 1 or p.k < 1 for p in pts):
        raise InvalidInput("generator coordinates must be positive")
    a = max(p.i for p in pts)
    layers = []
    for i in range(1, a + 1):
        covering = [p for p in pts if p.i >= i]
        width = max(p.j for p in covering)
        layers.append(tuple(max(p.k for p in covering if p.j >= j) for j in range(1, width + 1)))
    return Diagram(tuple(layers))


def _point_set(points: Iterable[Sequence[int]]) -> Collection[Sequence[int]]:
    """The points without repeats; a set or frozenset is taken as it is."""
    pts = points if isinstance(points, (set, frozenset)) else {tuple(p) for p in points}
    if not pts:
        raise InvalidInput("empty point set")
    return pts


def _axis_values(pts: Collection[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The sorted distinct values of each axis.  Raises InvalidInput on a
    bool or non-integer value; only the distinct values are inspected."""
    axes = tuple(set(axis) for axis in zip(*pts))
    for values in axes:
        if not all(map(_is_int, values)):
            bad = next(v for v in values if not _is_int(v))
            raise InvalidInput(f"coordinate {bad!r} is not an integer")
    return tuple(tuple(sorted(values)) for values in axes)


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


def from_points(points: Iterable[Sequence[int]]) -> Diagram:
    """Build a diagram from an exact point set; the set itself must already
    be downward closed and essential."""
    pts = _point_set(points)
    _axis_values(pts)  # rejects non-integer coordinates
    return _from_heights(_column_heights(pts), len(pts))


def reduce_points(
    points: Iterable[Sequence[int]],
) -> tuple[Diagram, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Collapse empty coordinate slices of a point set and build the diagram.

    Returns the reduced diagram together with the sorted original values per
    axis; original value ``vals[axis][t-1]`` maps to coordinate ``t`` in the
    reduced diagram.  The ranks are applied to the column heights, which
    the one pass over the points yields, so no reduced point set is built.
    Raises NotFerrers if the collapsed set is still not downward closed.
    """
    pts = _point_set(points)
    values = _axis_values(pts)
    imap, jmap, kmap = (dict(zip(axis, range(1, len(axis) + 1))) for axis in values)
    heights = {(imap[i], jmap[j]): kmap[h] for (i, j), h in _column_heights(pts).items()}
    return _from_heights(heights, len(pts)), values


def essential_reduce(obj: "Diagram | Iterable[Sequence[int]]") -> Diagram:
    """Remove all empty coordinate slices.

    A diagram in layer form is already essential and passes through
    unchanged; a raw point set is collapsed per axis first.
    """
    if isinstance(obj, Diagram):
        return validate(obj.layers)
    return reduce_points(obj)[0]


# ---------------------------------------------------------------------------
# coordinate statistics and zones
# ---------------------------------------------------------------------------


def alpha_beta_gamma(diagram: Diagram, u: Point) -> tuple[int, int, int]:
    """Greatest coordinate reachable from u along each axis while staying
    in the diagram."""
    u = Point(*u)
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
    u = Point(*u)
    _, beta, gamma = alpha_beta_gamma(diagram, u)
    zs: tuple[list[Point], ...] = ([], [], [], [], [], [])
    z1, z2, z3, z4, z5, z6 = zs
    for cols in diagram._columns[u.i - 1:]:
        for j, col in enumerate(cols, start=1):
            # col[t] is the point at height k = t + 1
            if j <= u.j:
                z3 += col[:u.k]
                z2 += col[u.k:gamma]
                z1 += col[gamma:]
            elif j <= beta:
                z5 += col[:u.k]
                z4 += col[u.k:]
            else:
                z6 += col
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
# orders on the first layer
# ---------------------------------------------------------------------------


def order_key(diagram: Diagram, flavor: str) -> Callable[[Point], tuple[int, ...]]:
    """Sort key of the first-layer order of the given flavor.

    The lexicographic order runs on (j, k).  The induction order has two
    stages: stage one walks the points whose height stays within the
    essential height of layer 2, column by column (lexicographically in
    (j, k)); stage two walks the remaining points row by row
    (lexicographically in (k, j)), matching a flip followed by the
    lexicographic order.  When the diagram has a single layer the cutoff is
    0 and the whole layer is stage two.
    """
    if flavor == LEX:
        return lambda p: (p.j, p.k)
    c2 = diagram.layer_height(2)
    return lambda p: (0, p.j, p.k) if p.k <= c2 else (1, p.k, p.j)


def induction_order(diagram: Diagram) -> OrderedPointList:
    """First-layer order used by the shedding recursion."""
    return OrderedPointList(diagram.first_layer_order(INDUCTION)[0], INDUCTION)


def lex_order(diagram: Diagram) -> OrderedPointList:
    """First-layer points in plain lexicographic order on (j, k)."""
    return OrderedPointList(diagram.first_layer_order(LEX)[0], LEX)


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
    gens = data["generators"]
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and len(g) == 3 and all(_is_int(v) for v in g) for g in gens
    ):
        raise InvalidInput("'generators' must be a list of [i, j, k] triples")
    return from_generators(gens)
