"""Shedding recursion for the regularity and multiplicity of the
independence complex attached to a projection-property diagram.

The complex is shed one first-layer point at a time, following either the
induction order or (for strong-projection diagrams) the lexicographic
order.  A phantom point is a cone apex and changes nothing; at a normal
point the invariants combine the deleted complex with the link, and the
link is re-expressed as a suffix state of a smaller diagram built from the
zones around the point.  Simplex join factors never change regularity or
multiplicity and are dropped.  One loop walks the whole chain, through the
stage-two flip and down the layers; only links recurse, so the stack depth
grows with link nesting, not with the number of layers.  ``link_values``
walks layer 1 in the induction order by ``successor`` and gives each normal
point's link value: the per-point terms of the fold, which ``compare`` reports.

Because the link re-expression is intricate, every constructed link state
is validated against the zone formula, column by column, and (on small
hosts) against the graph-level link itself: its leading edges, mapped back
to the host, must be exactly the literal link's edges.  A link that fails
validation is an internal error and raises ``LinkMismatch`` instead of
returning a silently wrong value.

A state is read from column heights, not from point sets.  Its realized
set is the host's deep (x >= 2) layers plus one k-interval per first-layer
column (``_run_starts``), and its ``successor`` is arithmetic on the start.
Normality is a closed-form neighbour test (``_column_test``), checked
against ``minors.is_normal_in`` on hosts within ``VALIDATE_LIMIT``.  The
memo key packs the collapsed intervals and the deep layers into one array
(``canonical_key``), so its size follows the columns, not the points.  Each
``Engine`` owns its memo; there is no process-wide one.

Links are built from column heights too.  Each zone piece is a box of the
host, a column range with a few k-intervals (``_zone_pieces``), so the
ambient set of a link is a set of k-intervals per column, and
``reduce_columns`` ranks them into the link host and its value maps.  The
target check maps the link's columns back the same way.  On hosts within
``VALIDATE_LIMIT`` the point-set construction stays as the reference: the
ambient filtered from the host's points (zone 3 by ``zones``), reduced by
``reduce_points``, must give the same link.  Point sets are built only on
those small hosts, by definition from the host's point tuple, for that
reference, the literal graph link and the normality check.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import neg

from . import minors
from .diagram import (
    INDUCTION,
    LEX,
    Columns,
    Diagram,
    Point,
    _check_point,
    has_projection_property,
    has_strong_projection_property,
    merge_intervals,
    reduce_columns,
    reduce_points,
    zones,
)
from .errors import InvalidInput, LinkMismatch, NotNormal, TooLarge, UnsupportedDiagram
from .oracle import InvariantsReport

#: Largest host size whose links and normality verdicts are also checked
#: against the point-set definitions: the link's construction by ``zones``
#: and ``reduce_points``, its literal graph link, and ``is_normal_in``.
VALIDATE_LIMIT = 24


class _Sentinel:
    def __repr__(self) -> str:
        return "PAST_LAYER_1"


#: Start marker for the suffix consisting of everything above layer 1.
PAST_LAYER_1 = _Sentinel()


@dataclass(frozen=True)
class SuffixState:
    """A diagram together with a first-layer start point (or the past-layer
    sentinel) and an order flavor.  It denotes the sub-collection formed by
    the start's order suffix within layer 1 plus all deeper layers.  A start
    given as a tuple or list of three ints is stored as a ``Point``; any
    other start raises ``InvalidInput``."""

    host: Diagram
    start: "Point | _Sentinel"
    flavor: str

    def __post_init__(self):
        if self.flavor not in (INDUCTION, LEX):
            raise InvalidInput(f"unknown order flavor {self.flavor!r}")
        if isinstance(self.start, _Sentinel):
            return
        start = _check_point(self.start, "is neither a triple of integers nor PAST_LAYER_1")
        if not (start.i == 1 and start in self.host):
            raise InvalidInput(f"{tuple(start)} is not a first-layer point of the host")
        object.__setattr__(self, "start", start)

    @cached_property
    def realized(self) -> frozenset[Point]:
        """The realized set, built once per state by :func:`realized_set`."""
        return realized_set(self)

    @cached_property
    def is_normal(self) -> bool:
        """Whether the start is a normal point of the realized set; decided
        once per state by the column test, and checked against the
        definition on hosts within ``VALIDATE_LIMIT``."""
        verdict = _column_test(self)
        if self.host.size <= VALIDATE_LIMIT and minors.is_normal_in(self.realized, self.start) != verdict:
            raise RuntimeError(
                f"the column test calls {tuple(self.start)} {'normal' if verdict else 'phantom'} "
                f"in the {self.flavor} suffix of {self.host} and the definition does not; "
                "this indicates an engine bug"
            )
        return verdict


def _stage_two(host: Diagram, p: Point) -> bool:
    return p.k > host.layer_height(2)


def _column_test(s: SuffixState) -> bool:
    """Whether the start u = (1, j0, k0) has a neighbour in the realized set,
    in the host's leading-pair graph: the closed form of normality.

    In a downward-closed host, points a <lex b form a leading pair exactly
    when (x) i_a < i_b, (j_a, k_a) <lex (j_b, k_b) and (i_b, j_a, k_a) is in
    the host; or (y) j_a < j_b, i_a < i_b or (i_a = i_b and k_a < k_b), and
    (i_a, j_b, k_a) is in the host; or (z) k_a < k_b, (i_a, j_a) <lex
    (i_b, j_b) and (i_a, j_a, k_b) is in the host.

    The realized set holds every deep point.  Its earlier first-layer
    columns are empty or start above row k0 (above c2 >= k0 in stage one,
    above k0 in stage two), so they hold no neighbour of u, which would have
    to lie below and left of it.  Every other neighbour can be traded for
    one of three points, which the realized set holds whenever they are in
    the host:
    - (1, j0 + 1, k0 + 1) by a z-swap, when column j0 + 1 rises above k0;
      every neighbour in a later first-layer column lies above row k0;
    - (2, j0 + 1, 1) by an x-swap when (2, j0, k0) is in the host, or by a
      y-swap when (1, j0 + 1, k0) is;
    - (2, 1, k0 + 1) by a z-swap, when layer 2 and column j0 rise above k0;
      this also covers x-swaps with points of column j0 above row k0.
    """
    host, (_, j0, k0) = s.host, s.start
    heights = host.layers[0]
    after = heights[j0] if j0 < len(heights) else 0  # height of column j0 + 1
    return (
        k0 < after
        or (j0 < host.layer_width(2) and k0 <= max(after, host.height(2, j0)))
        or k0 < min(host.layer_height(2), heights[j0 - 1])
    )


def _run_starts(s: SuffixState) -> tuple[int, int]:
    """The lowest k that the first-layer columns before and after the
    start's column hold; each column's part of the realized set is one
    k-interval from there to its height h(j), empty when it starts above.

    With start (1, j0, k0) and c2 the height of layer 2, column j0 holds
    [k0, h(j0)].  The lex order holds nothing before it and every later
    column whole.  The induction order's stage one (k0 <= c2) holds the
    stage-two part [c2 + 1, h(j)] of each earlier column and every later
    column whole; its stage two (k0 > c2) holds the rows above k0 and the
    rest of row k0, so earlier columns start at k0 + 1 and later ones at k0.
    """
    host, k0 = s.host, s.start.k
    if s.flavor == LEX:
        return host.c + 1, 1
    if _stage_two(host, s.start):
        return k0 + 1, k0
    return host.layer_height(2) + 1, 1


def realized_set(s: SuffixState) -> frozenset[Point]:
    """The point set the state denotes: the host's deep points plus each
    first-layer column's interval, filtered from the host's points."""
    if isinstance(s.start, _Sentinel):
        return frozenset(p for p in s.host.points() if p.i > 1)
    lows = _first_layer_lows(s)
    return frozenset(p for p in s.host.points() if p.i > 1 or p.k >= lows[p.j - 1])


def _first_layer_lows(s: SuffixState) -> list[int]:
    """The lower end of each first-layer column's interval, start included."""
    (_, j0, k0), (before, after) = s.start, _run_starts(s)
    return [before] * (j0 - 1) + [k0] + [after] * (len(s.host.layers[0]) - j0)


def successor(s: SuffixState) -> SuffixState:
    """The state one step later in the host's first-layer order, which the
    engine sheds in; ``PAST_LAYER_1`` follows the last point.  The lex order
    runs on (j, k), up each column.  The induction order runs on (j, k) over
    the points up to c2, the height of layer 2 (stage one), then on (k, j),
    row by row, over the rest (stage two: a flip, then lex); c2 = 0 on a
    one-layer host, so its whole layer is stage two."""
    heights, (_, j, k) = s.host.layers[0], s.start
    c2 = s.host.layer_height(2)
    if s.flavor == INDUCTION and k > c2:
        j, k = (j + 1, k) if j < len(heights) and heights[j] >= k else (1, k + 1)
    elif k < (heights[j - 1] if s.flavor == LEX else min(heights[j - 1], c2)):
        k += 1
    elif j < len(heights):
        j, k = j + 1, 1
    elif s.flavor == LEX:
        return SuffixState(s.host, PAST_LAYER_1, LEX)
    else:
        j, k = 1, c2 + 1  # on to stage two
    start = Point(1, j, k) if k <= heights[j - 1] else PAST_LAYER_1
    return SuffixState(s.host, start, s.flavor)


def _flip_state(s: SuffixState) -> SuffixState:
    return SuffixState(s.host.flip(), s.start.flip(), LEX)


#: The unsigned array types a key may use, narrowest first.
_KEY_TYPECODES = "BHIQ"


def canonical_key(s: SuffixState) -> bytes:
    """Memoization key: the realized set with every axis collapsed to its
    rank, plus the relabeled start and the flavor.

    The recursion only ever consults the realized suffix (stage cutoffs,
    beta/gamma of the current start and all zone memberships are functions
    of it), so states sharing this key share their value.

    The collapse is read from the columns.  Layer 2 holds every j up to b2
    and every k up to c2, so the deep layers never change and only
    first-layer values past them can be missing: the columns past b2 whose
    interval is empty are dropped, and the k values past c2 that no interval
    covers are ranked away.  The key is the flavor (1 for lex), the start's
    (j, k), the number of columns, each column's interval ((0, 0) when
    empty) and each deep layer as its width and heights; the start is (0, 0)
    and there are no columns for the sentinel.  These values are the items
    of one array of the narrowest fitting unsigned type, whose code leads
    the key, so equal keys mean equal collapsed sets.
    """
    host, flavor = s.host, int(s.flavor == LEX)
    if isinstance(s.start, _Sentinel):
        values = [flavor, 0, 0, 0]
    else:
        heights, (_, j0, k0) = host.layers[0], s.start
        b2, c2 = host.layer_width(2), host.layer_height(2)
        before, after = _run_starts(s)
        runs = ((before, heights[:j0 - 1]), (k0, heights[j0 - 1:j0]), (after, heights[j0:]))
        cols: list[int] = []  # lo, hi of each kept column
        for run, (lo, hs) in enumerate(runs):
            for h in hs:
                if h >= lo:
                    cols += (lo, h)
                elif len(cols) < 2 * b2:
                    cols += (0, 0)
            if run == 1:
                rj0 = len(cols) // 2
        # Each run's nonempty columns lead it, so what a run covers past c2
        # is its first column's interval cut at c2.  A gap between the
        # covered pieces shifts every later k down by its length.
        pieces = sorted((max(lo, c2 + 1), hs[0]) for lo, hs in runs if hs and lo <= hs[0] and c2 < hs[0])
        starts, drops, top = [], [0], c2
        for lo, hi in pieces:
            if lo > top + 1:
                starts.append(lo)
                drops.append(drops[-1] + lo - top - 1)
            top = max(top, hi)
        if starts:
            cols = [k - drops[bisect_right(starts, k)] for k in cols]
        values = [flavor, rj0, cols[2 * rj0 - 2], len(cols) // 2, *cols]
    for layer in host.layers[1:]:
        values.append(len(layer))
        values += layer
    largest = max(values)
    for code in _KEY_TYPECODES:
        if largest >> 8 * array(code).itemsize == 0:
            return code.encode() + array(code, values).tobytes()
    raise TooLarge(f"a state key holds values up to {largest}, past the widest array type")


class Engine:
    """Memoized evaluator for suffix states.

    The memo is unbounded and lives as long as the ``Engine``.  An
    ``Engine`` must not be shared between threads: the memo and the
    statistics are updated without a lock.
    """

    def __init__(self):
        self._memo: dict = {}
        self.stats = {"states": 0, "cache_hits": 0, "link_checks": 0}

    # -- public entry points ----------------------------------------------------

    def invariants(self, diagram: Diagram, order: str = INDUCTION) -> InvariantsReport:
        """Exact ring dimension, regularity and multiplicity of the
        Stanley-Reisner ring of the diagram's complex (equivalently of the
        associated toric ring)."""
        if not has_projection_property(diagram):
            raise UnsupportedDiagram("the diagram lacks the projection property")
        if order == LEX and not has_strong_projection_property(diagram):
            raise UnsupportedDiagram("lexicographic shedding needs the strong projection property")
        reg, mult = self.suffix_invariants(_first_state(diagram, order))
        ring_dim = diagram.a + diagram.b + diagram.c - 2
        if mult < 1 or reg >= ring_dim:
            raise RuntimeError(
                f"computed invariants out of range (reg={reg}, dim={ring_dim}, e={mult}); "
                "this indicates an engine bug"
            )
        return InvariantsReport(ring_dim=ring_dim, reg=reg, mult=mult, red_num=reg, source="engine")

    def suffix_invariants(self, s: SuffixState) -> tuple[int, int]:
        """(regularity, multiplicity) of the complex the state denotes.

        The chain is walked in one loop and folded backwards from its base
        case, a one-layer host past layer 1.  The stage-two flip and the
        step past layer 1 to the deeper layers pass the value through and
        are not counted as states.  Recursion only happens through links,
        whose realized sets shrink strictly.
        """
        chain: list[tuple[object, SuffixState | None]] = []
        cur = s
        while True:
            key = canonical_key(cur)
            base = self._memo.get(key)
            if base is not None:
                self.stats["cache_hits"] += 1
                break
            if isinstance(cur.start, _Sentinel):
                chain.append((key, None))
                if len(cur.host.layers) == 1:
                    base = (0, 1)
                    break
                # layer 2 is a partition, so the deeper layers are already essential
                cur = _first_state(Diagram(cur.host.layers[1:]), cur.flavor)
            elif cur.flavor == INDUCTION and _stage_two(cur.host, cur.start):
                chain.append((key, None))
                cur = _flip_state(cur)
            else:
                chain.append((key, cur))
                cur = successor(cur)

        for key, st in reversed(chain):
            if st is not None:
                self.stats["states"] += 1
                if st.is_normal:
                    lreg, lmult = self.suffix_invariants(self.link_state(st))
                    reg, mult = base
                    base = (max(reg, lreg + 1), mult + lmult)
            self._memo[key] = base
        return base

    def link_values(self, diagram: Diagram) -> dict[Point, tuple[int, int]]:
        """(regularity, multiplicity) of the link of each normal first-layer
        point, keyed in the induction order: the terms that the shedding
        folds into the diagram's invariants.  Stage-two points are asked as
        unflipped states."""
        if not has_projection_property(diagram):
            raise UnsupportedDiagram("the diagram lacks the projection property")
        out, s = {}, _first_state(diagram, INDUCTION)
        while s.start is not PAST_LAYER_1:
            if s.is_normal:
                out[s.start] = self.suffix_invariants(self.link_state(s))
            s = successor(s)
        return out

    # -- internals ---------------------------------------------------------------

    def link_state(self, s: SuffixState) -> SuffixState:
        """Re-express the link of the start vertex as a validated suffix
        state of a smaller diagram.

        The link is built from the zone pieces in column form
        (``_piece_columns``, ``reduce_columns``).  On hosts within
        ``VALIDATE_LIMIT`` its host and value maps must equal the point-set
        construction's (``_point_reduction``).  Validation checks that the
        new host is a projection-property diagram, that the state realizes
        the zone-formula target exactly, column by column, and (on hosts
        within the limit) that its leading edges, mapped back to the host,
        are exactly the edges of the literal graph link.  A link that fails
        validation, or that no zone-formula construction covers, is an
        internal error and raises ``LinkMismatch``.
        """
        if isinstance(s.start, _Sentinel):
            raise NotNormal("the sentinel state has no link")
        if not s.is_normal:
            raise NotNormal(f"{tuple(s.start)} is a phantom point of its suffix")
        if s.flavor == INDUCTION and _stage_two(s.host, s.start):
            return self.link_state(_flip_state(s))

        target, ambient, start = _zone_pieces(s)
        try:
            columns = _piece_columns(s.host, ambient)
            reduced = reduce_columns(columns)
            reference = _point_reduction(s, ambient) if s.host.size <= VALIDATE_LIMIT else reduced
            state = _reduced_state(*reduced, start, s.flavor)
        except (InvalidInput, ValueError) as exc:
            raise _mismatch(s, f"cannot be built from its ambient set ({exc})") from exc
        if reference != reduced:  # the start is read off the same value maps
            raise _mismatch(s, "differs from its point-set construction")
        if s.flavor == INDUCTION:
            state = successor(state)  # the link starts right after u
        self._validate_link(s, state, reduced[1], columns, target)
        return state

    def _validate_link(self, s, link, values, columns, target) -> None:
        if not has_projection_property(link.host):
            raise _mismatch(s, "has a host without the projection property")
        if _back_columns(link, values, columns) != _piece_columns(s.host, target):
            raise _mismatch(s, "does not realize the zone-formula target")
        if s.host.size <= VALIDATE_LIMIT:
            self.stats["link_checks"] += 1
            if not _graph_link_agrees(s, link, values):
                raise _mismatch(s, "has other edges than the literal graph link")


def _first_state(diagram: Diagram, flavor: str) -> SuffixState:
    """The state of the whole diagram; lex falls back to the induction
    order when the diagram lacks the strong projection property."""
    if flavor == LEX and not has_strong_projection_property(diagram):
        flavor = INDUCTION
    return SuffixState(diagram, Point(1, 1, 1), flavor)


def _zone_pieces(s: SuffixState):
    """The zone-formula target and the ambient set of the start's link, as
    lists of pieces of the host, and the link's start in the ambient: a
    point, ``PAST_LAYER_1``, or None for the whole reduced ambient.

    A piece (i0, i1, j0, j1, rows) holds the rows in ``rows``, sorted
    (k0, k1) intervals, of every host column in i0..i1 x j0..j1; the pieces
    of one list cover disjoint columns.  With u = (1, j, k) and gamma the
    height of its column, zone 3 is the rows up to k of columns up to j, the
    rows above gamma there are zone 1, and zones 5 and 6 on layer 1 are the
    rows up to k of the later columns (columns past beta are lower than k).
    """
    host, u = s.host, s.start
    a, b, c = host.a, host.b, host.c
    gamma, c2 = host.height(1, u.j), host.layer_height(2)
    z3, z1 = (1, u.k), (gamma + 1, c)
    side = (1, 1, u.j + 1, b, (z3,))  # no columns when u is in the last one
    if s.flavor == INDUCTION:
        target = [(2, a, 1, u.j, (z3, z1)), (1, 1, 1, u.j, ((c2 + 1, c),)), side]
        return target, [(1, a, 1, u.j, (z3, (min(gamma, c2) + 1, c))), side], u
    if u.j > host.layer_width(2):
        target = [(2, a, 1, u.j, (z3, z1)), side]
        if u.j == b:
            return target, target, None
        return target, [(1, a, 1, u.j - 1, (z3, z1)), side], Point(1, u.j + 1, 1)
    if c2 > gamma:  # the deep part of zone 1 is not empty
        raise _mismatch(s, "has no zone-formula construction")
    start = Point(1, u.j + 1, 1) if u.j < b else PAST_LAYER_1
    return [(2, a, 1, u.j, (z3,)), side], [(1, a, 1, u.j, (z3,)), side], start


def _piece_columns(host: Diagram, pieces) -> Columns:
    """The union of the pieces within the host, in column form.  A column's
    intervals depend only on its piece and its height, so they are found
    once per height.  On each layer the pieces must come in increasing j,
    without a shared column."""
    layers: Columns = {}
    for i0, i1, j0, j1, rows in pieces:
        lowest = rows[0][0]
        by_height: dict[int, tuple[tuple[int, int], ...]] = {}
        for i, layer in enumerate(host.layers[i0 - 1:i1], start=i0):
            kept = layer[j0 - 1:j1]
            if lowest > 1:
                kept = kept[:bisect_right(kept, -lowest, key=neg)]  # the columns that reach a row
            if not kept:
                break  # a deeper layer lies inside this one
            for h in kept:
                if h not in by_height:
                    by_height[h] = merge_intervals((k0, min(h, k1)) for k0, k1 in rows if k0 <= h)
            entry = layers.get(i)
            if entry is None:
                layers[i] = (list(range(j0, j0 + len(kept))), list(map(by_height.__getitem__, kept)))
            elif entry[0][-1] < j0:
                entry[0].extend(range(j0, j0 + len(kept)))
                entry[1].extend(map(by_height.__getitem__, kept))
            else:
                raise RuntimeError("zone pieces out of column order; this indicates an engine bug")
    return layers


def _back_columns(s: SuffixState, values, ambient: Columns) -> Columns:
    """The state's realized set mapped back through the value maps, in
    column form; ``ambient`` is the column form of the set whose reduction
    is the state's host.

    Each reduced column is the rank prefix 1..h of the k values, so a whole
    layer maps back to its layer of the ambient: the deep layers are read
    off it.  A first-layer column realizes the ranks lo..h, which map back
    to its ambient values from ``kvals[lo - 1]`` up."""
    ivals, jvals, kvals = values
    layers = {i: ambient[i] for i in ivals[1:]}
    if not isinstance(s.start, _Sentinel):
        js, shapes = ambient[ivals[0]]
        kept = [(j, tuple((max(k0, kvals[lo - 1]), k1) for k0, k1 in ivs if k1 >= kvals[lo - 1]))
                for j, ivs, lo, h in zip(js, shapes, _first_layer_lows(s), s.host.layers[0]) if lo <= h]
        if kept:
            layers[ivals[0]] = tuple(map(list, zip(*kept)))
    return layers


def _point_reduction(s: SuffixState, ambient):
    """The reduction of the column path, built the reference way: the
    ambient as a point set, with zone 3 from :func:`zones` and the points
    of the other boxes filtered from the host's points, reduced by
    :func:`reduce_points`."""
    host, u = s.host, s.start
    z3 = (1, host.a, 1, u.j, 1, u.k)
    boxes = [(i0, i1, j0, j1, k0, k1) for i0, i1, j0, j1, rows in ambient for k0, k1 in rows]
    others = [b for b in boxes if b != z3]
    points = {p for p in host.points()
              if any(i0 <= p.i <= i1 and j0 <= p.j <= j1 and k0 <= p.k <= k1
                     for i0, i1, j0, j1, k0, k1 in others)}
    if z3 in boxes:
        points |= zones(host, u).z3
    return reduce_points(points)


def _reduced_state(red: Diagram, values, start, flavor: str) -> SuffixState:
    """The suffix state of the reduced ambient ``red`` at ``start`` (see
    :func:`_zone_pieces`), mapped forward through the value maps.  Raises
    ``ValueError`` when the start is not in the ambient."""
    if start is None:
        return _first_state(red, flavor)
    if start is PAST_LAYER_1:
        return SuffixState(red, PAST_LAYER_1, flavor)
    (ivals, jvals, kvals), (i, j, k) = values, start
    return SuffixState(red, Point(ivals.index(i) + 1, jvals.index(j) + 1, kvals.index(k) + 1), flavor)


def _mismatch(s: SuffixState, why: str) -> LinkMismatch:
    return LinkMismatch(f"the link of {tuple(s.start)} in {s.host} {why}")


def _literal_link(s: SuffixState) -> set[frozenset[Point]]:
    """The edges of the literal graph link of the start vertex: the edges of
    the state's leading-pair graph that avoid the start and its neighbors."""
    edges = minors.leading_edges(s.realized)
    closed = {s.start}.union(*(e for e in edges if s.start in e))
    return {e for e in edges if e.isdisjoint(closed)}


def _graph_link_agrees(s: SuffixState, link: SuffixState, values) -> bool:
    """Whether the link state's leading edges, mapped back through the value
    maps, are exactly the literal graph link's edges.  The complexes then
    differ only by cone vertices, which change neither regularity nor
    multiplicity."""
    ivals, jvals, kvals = values
    stated = {frozenset((ivals[i - 1], jvals[j - 1], kvals[k - 1]) for i, j, k in e)
              for e in minors.leading_edges(link.realized)}
    return stated == _literal_link(s)
