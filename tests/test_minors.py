import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_layer_order
from ferrers3d import (
    Point,
    box,
    from_generators,
    has_projection_property,
    two_minors,
    validate,
)
from ferrers3d.diagram import INDUCTION, LEX
from ferrers3d.engine import SuffixState
from ferrers3d.errors import InvalidInput, NotInDiagram
from ferrers3d.families import enumerate_diagrams
from ferrers3d.minors import is_normal_in, leading_edges

CLOSURE = from_generators([(1, 3, 2), (2, 2, 3)])


def pair(*pts):
    return frozenset(Point(*p) for p in pts)


# -- reference: the literal swap of every pair of Point objects ------------------


def swap_partners(u, v, axis):
    """The two points obtained by exchanging one coordinate of u and v."""
    if axis == "x":
        return Point(v.i, u.j, u.k), Point(u.i, v.j, v.k)
    if axis == "y":
        return Point(u.i, v.j, u.k), Point(v.i, u.j, v.k)
    return Point(u.i, u.j, v.k), Point(v.i, v.j, u.k)


def oriented(u, v, p, q):
    """(lead, trail): the lead holds the lex smallest of the four points."""
    if min(u, v, p, q) in (u, v):
        return frozenset((u, v)), frozenset((p, q))
    return frozenset((p, q)), frozenset((u, v))


def reference_minors(points):
    """{(lead, trail): axes} over every pair and every axis."""
    pts = sorted({Point(*p) for p in points})
    member = set(pts)
    found = {}
    for a, u in enumerate(pts):
        for v in pts[a + 1:]:
            for axis in "xyz":
                p, q = swap_partners(u, v, axis)
                if p in member and q in member and p not in (u, v):
                    found.setdefault(oriented(u, v, p, q), set()).add(axis)
    return found


def reference_leading_edges(points):
    return {lead for lead, _ in reference_minors(points)}


def classify(suffix, u):
    """The definition: u is normal in its suffix iff deleting it changes the
    suffix's leading-pair edge set, and phantom otherwise."""
    edges = reference_leading_edges(suffix)
    return "normal" if reference_leading_edges(suffix - {u}) != edges else "phantom"


# Small values make many minors; values near 100,000 need a 17-bit field.
COORD = st.one_of(st.integers(0, 3), st.integers(99_998, 100_000))
POINT_SETS = st.sets(st.builds(Point, COORD, COORD, COORD), max_size=12)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(POINT_SETS)
    def test_leading_edges(self, pts):
        assert leading_edges(pts) == reference_leading_edges(pts)

    @settings(max_examples=300, deadline=None)
    @given(POINT_SETS)
    def test_two_minors(self, pts):
        expected = sorted(
            ((lead, trail, axes) for (lead, trail), axes in reference_minors(pts).items()),
            key=lambda m: (sorted(m[0]), sorted(m[1])),
        )
        assert [(m.lead, m.trail, m.directions) for m in two_minors(pts)] == expected

    @settings(max_examples=200, deadline=None)
    @given(POINT_SETS.filter(bool))
    def test_is_normal_in(self, pts):
        edges = reference_leading_edges(pts)
        for u in pts:
            assert is_normal_in(frozenset(pts), u) == (reference_leading_edges(pts - {u}) != edges)


class TestPacking:
    def test_no_fixed_field_width(self):
        big = 100_000
        square = frozenset(Point(1, j, k) for j in (1, big) for k in (1, big))
        assert leading_edges(square) == {pair((1, 1, 1), (1, big, big))}
        assert all(is_normal_in(square, u) for u in square)
        assert not is_normal_in(square - {Point(1, 1, 1)}, Point(1, 1, big))

    def test_rejects_points_it_cannot_pack(self):
        with pytest.raises(InvalidInput):
            leading_edges([Point(-1, 1, 1), Point(1, 2, 2)])
        with pytest.raises(NotInDiagram):
            is_normal_in(frozenset(box(2, 2, 1).points()), Point(3, 1, 1))


def sorted_distinct(pts):
    return list(pts) == sorted(set(pts))


class TestGenerators:
    # one generator per diagram point; ``gens`` lists them as ``points()``
    def test_single(self):
        assert validate([[1]]).points() == (Point(1, 1, 1),)

    def test_flat_box(self):
        pts = box(2, 2, 1).points()
        assert len(pts) == 4 and sorted_distinct(pts)

    def test_closure(self):
        pts = CLOSURE.points()
        assert len(pts) == 14 and sorted_distinct(pts)


class TestTwoMinors:
    def test_flat_box_single_minor(self):
        minors = two_minors(box(2, 2, 1).points())
        assert len(minors) == 1
        m = minors[0]
        assert m.lead == pair((1, 1, 1), (2, 2, 1))
        assert m.trail == pair((2, 1, 1), (1, 2, 1))
        assert m.directions == {"x", "y"}

    def test_collinear_points_have_none(self):
        assert two_minors([Point(1, 1, k) for k in range(1, 5)]) == ()

    def test_vertical_square(self):
        minors = two_minors(box(1, 2, 2).points())
        assert len(minors) == 1
        assert minors[0].lead == pair((1, 1, 1), (1, 2, 2))
        assert minors[0].trail == pair((1, 1, 2), (1, 2, 1))

    def test_degree_preserving_swap(self):
        for d in enumerate_diagrams(2, 2, 2):
            for m in two_minors(d.points()):
                for axis in range(3):
                    lead_vals = sorted(tuple(p)[axis] for p in m.lead)
                    trail_vals = sorted(tuple(p)[axis] for p in m.trail)
                    assert lead_vals == trail_vals

    def test_flip_symmetry(self):
        for d in list(enumerate_diagrams(2, 2, 3))[:80]:
            direct = {
                frozenset((frozenset(p.flip() for p in m.lead), frozenset(p.flip() for p in m.trail)))
                for m in two_minors(d.points())
            }
            flipped = {
                frozenset((m.lead, m.trail)) for m in two_minors(d.flip().points())
            }
            assert direct == flipped


class TestLeadingPairGraph:
    def test_flat_box(self):
        assert leading_edges(box(2, 2, 1).points()) == {pair((1, 1, 1), (2, 2, 1))}

    def test_vertical_square(self):
        assert leading_edges(box(1, 2, 2).points()) == {pair((1, 1, 1), (1, 2, 2))}

    def test_single_point(self):
        assert leading_edges([Point(1, 1, 1)]) == frozenset()

    def test_edges_are_two_sets(self):
        for d in enumerate_diagrams(3, 3, 3):
            for e in leading_edges(d.points()):
                assert len(e) == 2


def orders(d):
    """The first layer in each order flavor."""
    return [first_layer_order(d, flavor) for flavor in (INDUCTION, LEX)]


def _suffix(diagram, order, u):
    pos = order.index(u)
    deep = [p for p in diagram.points() if p.i >= 2]
    return frozenset(order[pos:]) | frozenset(deep)


class TestClassification:
    def test_vertical_square_lex(self):
        d = box(1, 2, 2)
        order = first_layer_order(d, LEX)
        assert classify(_suffix(d, order, Point(1, 1, 1)), Point(1, 1, 1)) == "normal"
        for u in map(Point._make, ((1, 1, 2), (1, 2, 1), (1, 2, 2))):
            assert classify(_suffix(d, order, u), u) == "phantom"

    def test_flat_box_induction(self):
        d = box(2, 2, 1)
        order = first_layer_order(d, INDUCTION)
        assert classify(_suffix(d, order, Point(1, 1, 1)), Point(1, 1, 1)) == "normal"
        assert classify(_suffix(d, order, Point(1, 2, 1)), Point(1, 2, 1)) == "phantom"

    def test_last_singleton_is_phantom(self):
        d = validate([[1]])
        assert classify(frozenset(d.points()), Point(1, 1, 1)) == "phantom"

    def test_not_in_layer(self):
        # a suffix starts at a first-layer point
        with pytest.raises(InvalidInput):
            SuffixState(box(2, 2, 2), Point(2, 1, 1), LEX)

    def test_fast_path_agrees_with_definition(self):
        for d in [*enumerate_diagrams(2, 2, 3), *enumerate_diagrams(3, 3, 2)]:
            for order in orders(d):
                for u in order:
                    suffix = _suffix(d, order, u)
                    fast = "normal" if is_normal_in(suffix, u) else "phantom"
                    assert fast == classify(suffix, u)


class TestRestriction:
    def test_suffix_graphs_are_induced(self):
        # the suffix collection's own leading pairs coincide with the host
        # graph restricted to it, for both order flavors
        for d in enumerate_diagrams(3, 3, 3):
            if not has_projection_property(d):
                continue
            host_edges = leading_edges(d.points())
            assert host_edges == {m.lead for m in two_minors(d.points())}
            for order in orders(d):
                for u in order:
                    suffix = _suffix(d, order, u)
                    induced = {e for e in host_edges if e <= suffix}
                    assert leading_edges(suffix) == induced

    def test_phantom_means_untouched(self):
        # under the restriction property a phantom point is one no induced
        # edge of its suffix touches
        for d in enumerate_diagrams(2, 2, 3):
            if not has_projection_property(d):
                continue
            host_edges = leading_edges(d.points())
            for order in orders(d):
                for u in order:
                    suffix = _suffix(d, order, u)
                    touched = any(u in e and e <= suffix for e in host_edges)
                    verdict = classify(suffix, u)
                    assert verdict == ("normal" if touched else "phantom")
