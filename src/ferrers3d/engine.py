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
grows with link nesting, not with the number of layers.

Because the link re-expression is intricate, every constructed link state
is validated against the zone formula, and (on small hosts) against the
graph-level link itself; a failed validation falls back to direct facet
enumeration for that subtree instead of returning a silently wrong value.

Work is shared rather than repeated.  Once per host diagram: its point
tuple, its set of deep (x >= 2) points and, per order flavor, its sorted
first layer (cached on the ``Diagram``), so stepping to the next state is an
index step.  Once per state: its realized set (the host's deep points plus
the start's suffix of the first-layer order) and its normality verdict
(cached on the ``SuffixState``).  The canonical key, the normality test,
link construction, link validation and the literal graph link all read
that one set.  Each ``Engine`` owns its memo; there is no process-wide one.

Links and keys avoid rebuilding point sets.  The zone pieces a link needs
are cut from column slices of the host's point tuple, and the link host
comes from one pass of ``reduce_points``, which ranks the ambient set's
column heights directly.  A memo key packs each rank triple of the
realized set into one integer and keeps the sorted codes as the bytes of
one array, a few bytes per point.
"""

from __future__ import annotations

import logging
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from . import kernels, minors
from .diagram import (
    INDUCTION,
    LEX,
    Diagram,
    Point,
    has_projection_property,
    has_strong_projection_property,
    reduce_points,
    zones,
)
from .errors import InvalidInput, LinkMismatch, NotFerrers, NotNormal, TooLarge, UnsupportedDiagram
from .oracle import InvariantsReport, complex_summary

log = logging.getLogger(__name__)

#: Largest host size whose links are also checked against the literal graph link.
VALIDATE_LIMIT = 24
#: Largest link a failed validation can be repaired for by facet enumeration.
FALLBACK_LIMIT = 24


class _Sentinel:
    def __repr__(self) -> str:
        return "PAST_LAYER_1"


#: Start marker for the suffix consisting of everything above layer 1.
PAST_LAYER_1 = _Sentinel()


@dataclass(frozen=True)
class SuffixState:
    """A diagram together with a first-layer start point (or the past-layer
    sentinel) and an order flavor.  It denotes the sub-collection formed by
    the start's order suffix within layer 1 plus all deeper layers."""

    host: Diagram
    start: "Point | _Sentinel"
    flavor: str

    def __post_init__(self):
        if self.flavor not in (INDUCTION, LEX):
            raise InvalidInput(f"unknown order flavor {self.flavor!r}")

    @cached_property
    def realized(self) -> frozenset[Point]:
        """The realized set, built once per state by :func:`realized_set`."""
        return realized_set(self)

    @cached_property
    def is_normal(self) -> bool:
        """Whether the start is a normal point of the realized set; decided
        once per state."""
        return minors.is_normal_in(self.realized, self.start)


def _stage_two(host: Diagram, p: Point) -> bool:
    return p.k > host.layer_height(2)


def _position(s: SuffixState) -> tuple[tuple[Point, ...], int]:
    """The host's first-layer order and the start's position in it."""
    order, rank = s.host.first_layer_order(s.flavor)
    pos = rank.get(s.start)
    if pos is None:
        raise InvalidInput(f"{tuple(s.start)} is not a first-layer point of the host")
    return order, pos


def realized_set(s: SuffixState) -> frozenset[Point]:
    """The point set the state denotes: the host's deep points plus the
    start's suffix of the first-layer order."""
    if isinstance(s.start, _Sentinel):
        return s.host.deep_points
    order, pos = _position(s)
    return s.host.deep_points.union(order[pos:])


def _successor(s: SuffixState) -> SuffixState:
    order, pos = _position(s)
    nxt = order[pos + 1] if pos + 1 < len(order) else PAST_LAYER_1
    return SuffixState(s.host, nxt, s.flavor)


def _flip_state(s: SuffixState) -> SuffixState:
    return SuffixState(s.host.flip(), s.start.flip(), LEX)


#: Per field width w, the narrowest unsigned array type with 3w bits.
_KEY_TYPECODES = tuple(
    next(code for code in "BHIQ" if 8 * array(code).itemsize >= 3 * w) for w in range(22)
)


def canonical_key(s: SuffixState):
    """Memoization key: the realized set with every axis collapsed to its
    rank, plus the relabeled start and the flavor.

    The recursion only ever consults the realized suffix (stage cutoffs,
    beta/gamma of the current start and all zone memberships are functions
    of it), so states sharing this key share their value.

    A point with ranks (ri, rj, rk) is packed as the integer
    ``(ri << 2w) | (rj << w) | rk``, where the field width ``w`` is the bit
    length of the largest rank.  The key holds the sorted codes as the bytes
    of one array of the narrowest fitting item size, so it grows by one to
    eight bytes per point; ``w`` and the start, packed the same way, are part
    of the key, which makes equal keys mean equal collapsed sets.
    """
    pts = s.realized
    if not pts:
        return (0, "past", s.flavor, b"")
    ivals, jvals, kvals = map(sorted, map(set, zip(*pts)))
    n = max(len(ivals), len(jvals), len(kvals))
    w = n.bit_length()
    if w >= len(_KEY_TYPECODES):
        raise TooLarge(f"a state key packs at most {2 ** (len(_KEY_TYPECODES) - 1) - 1} "
                       f"values per axis, this state has {n}")
    # each value's rank, already shifted into its field
    imap, jmap, kmap = (
        dict(zip(values, range(1 << shift, (len(values) + 1) << shift, 1 << shift)))
        for values, shift in ((ivals, 2 * w), (jvals, w), (kvals, 0))
    )
    codes = [imap[i] | jmap[j] | kmap[k] for i, j, k in pts]
    codes.sort()
    if isinstance(s.start, _Sentinel):
        start = "past"
    else:
        start = imap[s.start.i] | jmap[s.start.j] | kmap[s.start.k]
    return (w, start, s.flavor, array(_KEY_TYPECODES[w], codes).tobytes())


class Engine:
    """Memoized evaluator for suffix states.

    ``cache_cap`` bounds the memo (LRU eviction, None means unbounded).

    An ``Engine`` must not be shared between threads: the memo and the
    statistics are updated without a lock, and with ``cache_cap`` set one
    thread's eviction can remove an entry between another thread's lookup
    and its reordering.
    """

    def __init__(self, cache_cap: int | None = None):
        self.cache_cap = cache_cap
        self._memo: OrderedDict = OrderedDict()
        self.stats = {"states": 0, "cache_hits": 0, "link_checks": 0, "fallbacks": 0}

    # -- memo -----------------------------------------------------------------

    def _get(self, key):
        val = self._memo.get(key)
        if val is not None:
            self.stats["cache_hits"] += 1
            if self.cache_cap is not None:
                self._memo.move_to_end(key)
        return val

    def _put(self, key, val):
        self._memo[key] = val
        if self.cache_cap is not None and len(self._memo) > self.cache_cap:
            self._memo.popitem(last=False)

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
            base = self._get(key)
            if base is not None:
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
                cur = _successor(cur)

        for key, st in reversed(chain):
            if st is not None:
                self.stats["states"] += 1
                if st.is_normal:
                    link, ok = self.link_state(st)
                    if ok:
                        lreg, lmult = self.suffix_invariants(link)
                    else:
                        self.stats["fallbacks"] += 1
                        log.warning("link validation failed at %s in %s; using facet fallback",
                                    tuple(st.start), st.host)
                        lreg, lmult = self._link_by_facets(st)
                    reg, mult = base
                    base = (max(reg, lreg + 1), mult + lmult)
            self._put(key, base)
        return base

    # -- internals ---------------------------------------------------------------

    def link_state(self, s: SuffixState) -> tuple[SuffixState, bool]:
        """Re-express the link of the start vertex as a suffix state of a
        smaller diagram, together with a validation verdict.

        The returned state realizes the zone-formula target set of the
        start; validation checks that realization exactly, that the new host
        is a projection-property diagram, and (on hosts within the
        validation limit) that the state's complex has the same facet count
        as the literal graph link with cone vertices stripped.
        """
        if isinstance(s.start, _Sentinel):
            raise NotNormal("the sentinel state has no link")
        if not s.is_normal:
            raise NotNormal(f"{tuple(s.start)} is a phantom point of its suffix")
        if s.flavor == INDUCTION and _stage_two(s.host, s.start):
            return self.link_state(_flip_state(s))

        host, u = s.host, s.start
        zm = zones(host, u)
        gamma = host.height(1, u.j)
        a, b, c = host.a, host.b, host.c

        def cut(i0, i1, j0, j1, k0, k1) -> list[Point]:
            return host.box_points((i0, j0, k0), (i1, j1, k1))

        z1_deep = cut(2, a, 1, u.j, gamma + 1, c)
        z3_deep = cut(2, a, 1, u.j, 1, u.k)
        # zones 5 and 6 on layer 1 (columns past beta are lower than u.k)
        side = cut(1, 1, u.j + 1, b, 1, u.k)

        if s.flavor == INDUCTION:
            c2 = host.layer_height(2)
            high_top = cut(1, 1, 1, u.j, c2 + 1, c)
            target = set(z1_deep + z3_deep + side + high_top)
            ambient = zm.z3.union(side, cut(1, a, 1, u.j, min(gamma, c2) + 1, c))
            start = u
        else:
            b2 = host.layer_width(2)
            if u.j > b2:
                target = set(z1_deep + z3_deep + side)
                if side:
                    left = cut(1, a, 1, u.j - 1, gamma + 1, c) + cut(1, a, 1, u.j - 1, 1, u.k)
                    ambient = set(left + side)
                    start = Point(1, u.j + 1, 1)
                else:
                    ambient, start = target, None
            else:
                if z1_deep:
                    # no zone-formula construction applies; force the fallback
                    return SuffixState(host, u, s.flavor), False
                target = set(z3_deep + side)
                ambient = zm.z3.union(side)
                start = side[0] if side else PAST_LAYER_1

        link = _reduced_state(ambient, start, s.flavor)
        if link is None:
            return SuffixState(host, u, s.flavor), False
        state, values = link
        if s.flavor == INDUCTION:
            state = _successor(state)  # the link starts right after u
        ok = self._validate_link(s, state, values, target)
        return state, ok

    def _validate_link(self, s, link, values, target) -> bool:
        if not has_projection_property(link.host):
            return False
        ivals, jvals, kvals = values
        back = {(ivals[i - 1], jvals[j - 1], kvals[k - 1]) for i, j, k in link.realized}
        if back != target:
            return False
        if s.host.size <= VALIDATE_LIMIT:
            self.stats["link_checks"] += 1
            if not self._graph_link_agrees(s, link):
                return False
        return True

    def _graph_link_agrees(self, s, link) -> bool:
        """Compare facet counts of the literal graph link (cone vertices do
        not change the count) and of the returned state's complex."""
        direct = _facet_count(*_literal_link(s))
        stated = sorted(link.realized)
        return direct == _facet_count(stated, minors.leading_edges(stated))

    def _link_by_facets(self, s) -> tuple[int, int]:
        """Fallback: invariants of the literal graph link by enumeration."""
        rest, edges = _literal_link(s)
        if len(rest) > FALLBACK_LIMIT:
            raise LinkMismatch(
                f"link of {tuple(s.start)} failed validation and has {len(rest)} vertices, "
                f"beyond the fallback limit {FALLBACK_LIMIT}"
            )
        summary = complex_summary(rest, edges, limit=FALLBACK_LIMIT)
        reg = max((t for t, h in enumerate(summary.h_vector) if h != 0), default=0)
        return reg, summary.f_vector[-1]


def _first_state(diagram: Diagram, flavor: str) -> SuffixState:
    """The state of the whole diagram; lex falls back to the induction
    order when the diagram lacks the strong projection property."""
    if flavor == LEX and not has_strong_projection_property(diagram):
        flavor = INDUCTION
    return SuffixState(diagram, diagram.first_layer_order(flavor)[0][0], flavor)


def _reduced_state(ambient, start, flavor):
    """The suffix state over an ambient point set with its empty slices
    collapsed, together with the sorted original values per axis, which map
    reduced coordinates back to ambient ones.

    ``start`` is a first-layer point of the ambient, ``PAST_LAYER_1``, or
    None for the whole reduced diagram.  Returns None when the ambient does
    not collapse to a Ferrers diagram.
    """
    try:
        red, values = reduce_points(ambient)
    except (NotFerrers, InvalidInput):
        return None
    if start is None:
        state = _first_state(red, flavor)
    elif start is PAST_LAYER_1:
        state = SuffixState(red, PAST_LAYER_1, flavor)
    else:
        fwd = Point(*(vals.index(v) + 1 for vals, v in zip(values, start)))
        state = SuffixState(red, fwd, flavor)
    return state, values


def _literal_link(s: SuffixState) -> tuple[list[Point], set[frozenset[Point]]]:
    """The non-neighbors of the start vertex in the state's leading-pair
    graph, in ascending order, and the edges among them."""
    S = sorted(s.realized)
    edges = minors.leading_edges(S)
    closed = {s.start}.union(*(e for e in edges if s.start in e))
    rest = [p for p in S if p not in closed]
    kept = set(rest)
    return rest, {e for e in edges if e <= kept}


def _facet_count(points, edges) -> int:
    return len(kernels.maximal_independent_sets(kernels.adjacency(points, edges)))
