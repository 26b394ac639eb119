import pytest

from ferrers3d import (
    Point,
    box,
    classify_point,
    from_generators,
    has_projection_property,
    induction_order,
    leading_pair_graph,
    lex_order,
    monomial_generators,
    two_minors,
    validate,
)
from ferrers3d.errors import NotInLayer
from ferrers3d.families import enumerate_diagrams
from ferrers3d.minors import is_normal_in, leading_edges

CLOSURE = from_generators([(1, 3, 2), (2, 2, 3)])


def pair(*pts):
    return frozenset(Point(*p) for p in pts)


class TestGenerators:
    def test_single(self):
        assert monomial_generators(validate([[1]])) == {Point(1, 1, 1)}

    def test_flat_box(self):
        assert len(monomial_generators(box(2, 2, 1))) == 4

    def test_closure(self):
        assert len(monomial_generators(CLOSURE)) == 14


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
        g = leading_pair_graph(box(2, 2, 1).points())
        assert g.edges == {pair((1, 1, 1), (2, 2, 1))}

    def test_vertical_square(self):
        g = leading_pair_graph(box(1, 2, 2).points())
        assert g.edges == {pair((1, 1, 1), (1, 2, 2))}

    def test_single_point(self):
        assert leading_pair_graph([Point(1, 1, 1)]).edges == frozenset()

    def test_edges_are_two_sets(self):
        for d in enumerate_diagrams(3, 3, 3):
            for e in leading_pair_graph(d.points()).edges:
                assert len(e) == 2


def _suffix(diagram, order, u):
    pos = order.points.index(u)
    deep = [p for p in diagram.points() if p.i >= 2]
    return frozenset(order.points[pos:]) | frozenset(deep)


class TestClassification:
    def test_vertical_square_lex(self):
        d = box(1, 2, 2)
        order = lex_order(d)
        assert classify_point(d, order, Point(1, 1, 1)) == "normal"
        for u in ((1, 1, 2), (1, 2, 1), (1, 2, 2)):
            assert classify_point(d, order, Point(*u)) == "phantom"

    def test_flat_box_induction(self):
        d = box(2, 2, 1)
        order = induction_order(d)
        assert classify_point(d, order, Point(1, 1, 1)) == "normal"
        assert classify_point(d, order, Point(1, 2, 1)) == "phantom"

    def test_last_singleton_is_phantom(self):
        d = validate([[1]])
        assert classify_point(d, lex_order(d), Point(1, 1, 1)) == "phantom"

    def test_not_in_layer(self):
        d = box(2, 2, 2)
        with pytest.raises(NotInLayer):
            classify_point(d, lex_order(d), Point(2, 1, 1))

    def test_fast_path_agrees_with_definition(self):
        for d in [*enumerate_diagrams(2, 2, 3), *enumerate_diagrams(3, 3, 2)]:
            for order in (induction_order(d), lex_order(d)):
                for u in order.points:
                    fast = "normal" if is_normal_in(_suffix(d, order, u), u) else "phantom"
                    assert fast == classify_point(d, order, u)


class TestRestriction:
    def test_suffix_graphs_are_induced(self):
        # the suffix collection's own leading pairs coincide with the host
        # graph restricted to it, for both order flavors
        for d in enumerate_diagrams(3, 3, 3):
            if not has_projection_property(d):
                continue
            host_edges = leading_edges(d.points())
            assert host_edges == {m.lead for m in two_minors(d.points())}
            for order in (induction_order(d), lex_order(d)):
                for u in order.points:
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
            for order in (induction_order(d), lex_order(d)):
                for u in order.points:
                    suffix = _suffix(d, order, u)
                    touched = any(u in e and e <= suffix for e in host_edges)
                    verdict = classify_point(d, order, u)
                    assert verdict == ("normal" if touched else "phantom")
