import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers3d import (
    Point,
    alpha_beta_gamma,
    box,
    diagram_from_json,
    diagram_to_json,
    essential_reduce,
    from_generators,
    from_points,
    has_projection_property,
    has_strong_projection_property,
    induction_order,
    lex_order,
    profile,
    validate,
    zones,
)
from ferrers3d.diagram import INDUCTION, LEX, reduce_points
from ferrers3d.errors import InvalidInput, NotFerrers, NotInDiagram
from ferrers3d.families import count_diagrams, enumerate_diagrams, sample_diagrams

CLOSURE = from_generators([(1, 3, 2), (2, 2, 3)])


def all_diagrams_3():
    return list(enumerate_diagrams(3, 3, 3))


# Reference forms of the projection properties, checked against the
# library's layer-form tests.


def projection_property_by_pairs(diagram):
    """Pairwise form of the projection property: any mixed pair (j1, k2)
    taken from two points of layer i+1 appears in layer i."""
    for i in range(1, diagram.a):
        nxt = diagram.layer_points(i + 1)
        for p in nxt:
            for q in nxt:
                if (i, p.j, q.k) not in diagram:
                    return False
    return True


def strong_projection_by_zones(diagram):
    """Zone form of the strong projection property: no point of a deeper
    layer lies in zone 1 or zone 6 of any point."""
    for i in range(1, diagram.a):
        for u in diagram.layer_points(i):
            zm = zones(diagram, u)
            if any(p.i > i for p in zm.z1) or any(p.i > i for p in zm.z6):
                return False
    return True


def strong_projection_by_bounds(diagram):
    """Bound form of the strong projection property: the next layer's width
    and height never exceed beta and gamma of any point of the current
    layer."""
    for i in range(1, diagram.a):
        b_next = diagram.layer_width(i + 1)
        c_next = diagram.layer_height(i + 1)
        for u in diagram.layer_points(i):
            _, beta, gamma = alpha_beta_gamma(diagram, u)
            if b_next > beta or c_next > gamma:
                return False
    return True


# Reference forms of construction and zones: the per-layer rescan and the
# reduced Point set that the one-pass column-height builder replaced, and
# the scan of every point that the column-slice zones replaced.


def reference_from_points(points):
    pts = {Point(*p) for p in points}
    if not pts:
        raise InvalidInput("empty point set")
    layers = []
    for i in range(1, max(p.i for p in pts) + 1):
        cols = {}
        for p in pts:
            if p.i == i:
                cols[p.j] = max(cols.get(p.j, 0), p.k)
        if not cols or set(cols) != set(range(1, max(cols) + 1)):
            raise NotFerrers(f"layer {i} has missing columns")
        layers.append(tuple(cols[j] for j in range(1, max(cols) + 1)))
    diag = validate(layers)
    if diag.size != len(pts):
        raise NotFerrers("point set is not downward closed")
    return diag


def reference_reduce_points(points):
    pts = {Point(*p) for p in points}
    if not pts:
        raise InvalidInput("empty point set")
    vals = tuple(tuple(sorted({p[axis] for p in pts})) for axis in range(3))
    maps = [{v: t for t, v in enumerate(axis, start=1)} for axis in vals]
    reduced = {Point(*(m[v] for m, v in zip(maps, p))) for p in pts}
    return reference_from_points(reduced), vals


def reference_zones(diagram, u):
    _, beta, gamma = alpha_beta_gamma(diagram, u)
    buckets = tuple(set() for _ in range(6))
    for p in diagram.points():
        if p.i < u.i:
            continue
        if p.j <= u.j:
            zone = 1 if p.k > gamma else 2 if p.k > u.k else 3
        elif p.j <= beta:
            zone = 4 if p.k > u.k else 5
        else:
            zone = 6
        buckets[zone - 1].add(p)
    return buckets


def outcome(fn, pts):
    """The function's result, or the type of the exception it raised."""
    try:
        return fn(pts)
    except Exception as exc:  # compared by type only
        return type(exc)


@st.composite
def point_sets(draw):
    """Closed sets (a diagram's points), the same with gaps (every axis
    stretched by an increasing map), arbitrary sets that are not closed, and
    sets with zero coordinates."""
    kind = draw(st.sampled_from(["closed", "gaps", "any", "zeros"]))
    if kind in ("closed", "gaps"):
        gens = draw(st.lists(st.tuples(*[st.integers(1, 4)] * 3), min_size=1, max_size=4))
        pts = set(from_generators(gens).points())
        if kind == "gaps":
            stretch = [sorted(draw(st.sets(st.integers(1, 12), min_size=4, max_size=4)))
                       for _ in range(3)]
            pts = {tuple(m[v - 1] for m, v in zip(stretch, p)) for p in pts}
        return pts
    low = 0 if kind == "zeros" else 1
    coord = st.integers(low, 4)
    return draw(st.sets(st.tuples(coord, coord, coord), max_size=10))


class TestConstruction:
    def test_from_generators_single_point(self):
        assert from_generators([(1, 1, 1)]).layers == ((1,),)

    def test_from_generators_box_corner(self):
        assert from_generators([(2, 2, 2)]).layers == ((2, 2), (2, 2))

    def test_from_generators_two_corners(self):
        assert CLOSURE.layers == ((3, 3, 2), (3, 3))
        # every point is dominated by a generator; re-verify by scan
        gens = [Point(1, 3, 2), Point(2, 2, 3)]
        for i in range(1, 4):
            for j in range(1, 5):
                for k in range(1, 5):
                    expected = any(i <= g.i and j <= g.j and k <= g.k for g in gens)
                    assert ((i, j, k) in CLOSURE) == expected

    def test_from_generators_empty(self):
        with pytest.raises(InvalidInput):
            from_generators([])

    def test_validate_accepts(self):
        d = validate([[2, 1], [1]])
        assert set(d.points()) == {Point(1, 1, 1), Point(1, 1, 2), Point(1, 2, 1), Point(2, 1, 1)}

    def test_validate_rejects_layer_growth(self):
        with pytest.raises(NotFerrers):
            validate([[1], [2]])

    def test_validate_rejects_height_increase(self):
        with pytest.raises(NotFerrers):
            validate([[1, 2]])

    def test_validate_rejects_wider_upper_layer(self):
        with pytest.raises(NotFerrers):
            validate([[1, 1], [2]])

    def test_validate_rejects_zero_heights(self):
        with pytest.raises(NotFerrers):
            validate([[2, 0]])

    def test_from_points_requires_closure(self):
        with pytest.raises(NotFerrers):
            from_points([(1, 1, 1), (1, 1, 3)])

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5))
    def test_from_generators_closure_property(self, gens):
        d = from_generators(gens)
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    dominated = any(i <= g[0] and j <= g[1] and k <= g[2] for g in gens)
                    assert ((i, j, k) in d) == dominated


class TestReduction:
    def test_already_essential(self):
        assert essential_reduce(box(2, 2, 2)) == box(2, 2, 2)

    def test_gap_in_heights(self):
        pts = [(1, 1, 1), (1, 2, 1), (1, 1, 3)]
        assert essential_reduce(pts).layers == ((2, 1),)

    def test_closure_is_essential(self):
        assert essential_reduce(set(CLOSURE.points())) == CLOSURE

    def test_reduce_points_maps(self):
        d, (ivals, jvals, kvals) = reduce_points([(2, 1, 1), (2, 3, 1)])
        assert d.layers == ((1, 1),)
        assert ivals == (2,) and jvals == (1, 3) and kvals == (1,)

    def test_empty(self):
        with pytest.raises(InvalidInput):
            essential_reduce([])

    @settings(max_examples=400, deadline=None)
    @given(point_sets())
    def test_from_points_equals_reference(self, pts):
        assert outcome(from_points, pts) == outcome(reference_from_points, pts)

    @settings(max_examples=400, deadline=None)
    @given(point_sets())
    def test_reduce_points_equals_reference(self, pts):
        assert outcome(reduce_points, pts) == outcome(reference_reduce_points, pts)

    @pytest.mark.parametrize("build, pts", [
        (from_points, [(True, 1, 1)]),
        (from_points, [(1.0, 1, 1)]),
        (from_points, [(1, 1, "1")]),
        (reduce_points, [(1, 1, 1.5)]),
        (reduce_points, [(2, False, 1)]),
        (essential_reduce, [(1, 1, 1), (1, 2, True)]),
    ])
    def test_non_integer_coordinates_rejected(self, build, pts):
        with pytest.raises(InvalidInput):
            build(pts)


class TestDimsAndFlip:
    def test_dims(self):
        for d, dims in ((box(2, 2, 2), (2, 2, 2)), (CLOSURE, (2, 3, 3)), (validate([[1]]), (1, 1, 1))):
            assert (d.a, d.b, d.c) == dims

    def test_flip_box(self):
        assert box(2, 2, 2).flip() == box(2, 2, 2)

    def test_flip_self_conjugate(self):
        assert validate([[2, 1]]).flip() == validate([[2, 1]])

    def test_flip_conjugates(self):
        assert validate([[3, 1]]).flip() == validate([[2, 1, 1]])

    def test_flip_involution_and_dims(self):
        for d in all_diagrams_3():
            assert d.flip().flip() == d
            f = d.flip()
            assert (f.a, f.b, f.c) == (d.a, d.c, d.b)
            assert set(d.flip().points()) == {p.flip() for p in d.points()}


class TestStatisticsAndZones:
    def test_alpha_beta_gamma_box(self):
        assert alpha_beta_gamma(box(2, 2, 2), Point(1, 1, 1)) == (2, 2, 2)

    def test_alpha_beta_gamma_closure(self):
        assert alpha_beta_gamma(CLOSURE, Point(1, 1, 1)) == (2, 3, 3)

    def test_alpha_beta_gamma_l_shape(self):
        assert alpha_beta_gamma(validate([[2, 1]]), Point(1, 2, 1)) == (1, 2, 1)

    def test_alpha_beta_gamma_outside(self):
        with pytest.raises(NotInDiagram):
            alpha_beta_gamma(box(1, 1, 1), Point(2, 1, 1))

    def test_zones_box(self):
        zm = zones(box(2, 2, 2), Point(1, 1, 1))
        assert zm.z1 == frozenset()
        assert zm.z2 == {Point(1, 1, 2), Point(2, 1, 2)}
        assert zm.z3 == {Point(1, 1, 1), Point(2, 1, 1)}
        assert zm.z4 == {Point(1, 2, 2), Point(2, 2, 2)}
        assert zm.z5 == {Point(1, 2, 1), Point(2, 2, 1)}
        assert zm.z6 == frozenset()

    def test_zones_maximal_corner(self):
        d = box(2, 3, 2)
        zm = zones(d, Point(1, 3, 2))
        assert zm.z4 == frozenset() and zm.z6 == frozenset()

    def test_zones_closure_corner(self):
        zm = zones(CLOSURE, Point(1, 3, 1))
        assert zm.z6 == frozenset()
        assert not any(p.i >= 2 for p in zm.z5)

    def test_zones_equal_reference(self):
        for d in all_diagrams_3():
            for u in d.points():
                zm = zones(d, u)
                assert tuple(zm.zone(n) for n in range(1, 7)) == reference_zones(d, u)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(all_diagrams_3()),
           st.tuples(*[st.integers(-1, 4)] * 3), st.tuples(*[st.integers(-1, 4)] * 3))
    def test_box_points_is_the_filtered_point_tuple(self, d, lo, hi):
        expected = [p for p in d.points() if all(a <= x <= b for a, x, b in zip(lo, p, hi))]
        assert d.box_points(lo, hi) == expected

    def test_zones_partition_everything(self):
        for d in all_diagrams_3():
            pts = set(d.points())
            for u in pts:
                zm = zones(d, u)
                above = {p for p in pts if p.i >= u.i}
                assert zm.union() == above
                total = sum(len(zm.zone(n)) for n in range(1, 7))
                assert total == len(above)


class TestProjectionProperties:
    def test_box_has_pp(self):
        assert has_projection_property(box(3, 2, 4))

    def test_closure_has_pp(self):
        assert has_projection_property(CLOSURE)

    def test_stairs_have_pp(self):
        assert has_projection_property(validate([[2, 1], [1, 1]]))

    def test_pp_conditions_agree(self):
        for d in all_diagrams_3():
            assert has_projection_property(d) == projection_property_by_pairs(d)

    def test_box_is_strong(self):
        assert has_strong_projection_property(box(3, 3, 2))

    def test_flat_is_strong(self):
        assert has_strong_projection_property(validate([[3, 2, 1]]))

    def test_closure_not_strong(self):
        assert not has_strong_projection_property(CLOSURE)

    def test_strong_conditions_agree(self):
        for d in all_diagrams_3():
            c = has_strong_projection_property(d)
            assert strong_projection_by_zones(d) == c
            assert strong_projection_by_bounds(d) == c

    def test_strong_implies_pp(self):
        for d in all_diagrams_3():
            if has_strong_projection_property(d):
                assert has_projection_property(d)

    def test_truncation_stability(self):
        for d in all_diagrams_3():
            if not has_strong_projection_property(d):
                continue
            pts = set(d.points())
            for axis in range(3):
                for val in range(1, (d.a, d.b, d.c)[axis] + 1):
                    rest = [p for p in pts if tuple(p)[axis] != val]
                    if not rest:
                        continue
                    reduced, _ = reduce_points(rest)
                    assert has_strong_projection_property(reduced)


class TestOrders:
    def test_induction_order_full_box(self):
        assert induction_order(box(2, 2, 2)).points == (
            Point(1, 1, 1), Point(1, 1, 2), Point(1, 2, 1), Point(1, 2, 2),
        )

    def test_induction_order_two_stages(self):
        d = validate([[2], [1]])
        assert induction_order(d).points == (Point(1, 1, 1), Point(1, 1, 2))

    def test_induction_order_flat_box(self):
        assert induction_order(box(2, 2, 1)).points == (Point(1, 1, 1), Point(1, 2, 1))

    def test_lex_order_box(self):
        assert lex_order(box(2, 2, 2)).points == (
            Point(1, 1, 1), Point(1, 1, 2), Point(1, 2, 1), Point(1, 2, 2),
        )

    def test_lex_order_wide_layer(self):
        assert lex_order(validate([[3, 3, 2]])).points == (
            Point(1, 1, 1), Point(1, 1, 2), Point(1, 1, 3),
            Point(1, 2, 1), Point(1, 2, 2), Point(1, 2, 3),
            Point(1, 3, 1), Point(1, 3, 2),
        )

    def test_lex_order_single(self):
        assert lex_order(validate([[1]])).points == (Point(1, 1, 1),)

    def test_quasi_lexicographic_axioms(self):
        # both flavors: componentwise-smaller first-layer points come first
        for d in all_diagrams_3():
            for order in (induction_order(d), lex_order(d)):
                pts = order.points
                assert sorted(pts) == sorted(d.layer_points(1))
                pos = {p: t for t, p in enumerate(pts)}
                for p in pts:
                    for q in pts:
                        if p != q and p.j <= q.j and p.k <= q.k:
                            assert pos[p] < pos[q]

    def test_first_stage_zone6_is_flat(self):
        # below the tail's height cutoff, zone 6 never reaches layer 2
        for d in all_diagrams_3():
            if not has_projection_property(d):
                continue
            c2 = d.layer_height(2)
            for u in d.layer_points(1):
                if u.k <= c2:
                    assert all(p.i == 1 for p in zones(d, u).z6)


class TestProfilesAndJson:
    def test_profiles(self):
        assert profile(box(2, 3, 3), "xy") == (3, 3)
        assert profile(CLOSURE, "xy") == (3, 2)
        assert profile(CLOSURE, "xz") == (3, 3)
        assert profile(validate([[1]]), "xy") == (1,)

    def test_profile_bad_plane(self):
        with pytest.raises(InvalidInput):
            profile(box(1, 1, 1), "yz")

    def test_json_round_trip(self):
        for d in list(enumerate_diagrams(2, 2, 2)) + [CLOSURE]:
            assert diagram_from_json(diagram_to_json(d)) == d

    def test_json_generators(self):
        assert diagram_from_json({"generators": [[1, 3, 2], [2, 2, 3]]}) == CLOSURE

    def test_json_errors(self):
        for bad in (
            [],
            {},
            {"layers": [[1]], "generators": [[1, 1, 1]]},
            {"layers": "nope"},
            {"generators": [[1, 1]]},
            {"generators": [[0, 1, 1]]},
            {"extra": 1},
        ):
            with pytest.raises(InvalidInput):
                diagram_from_json(bad)


def test_enumeration_matches_box_product_formula():
    assert count_diagrams(2, 2, 2) == 19
    assert count_diagrams(3, 3, 3) == len(all_diagrams_3())
    seen = set(enumerate_diagrams(2, 3, 2))
    assert len(seen) == count_diagrams(2, 3, 2)


def test_box_count_is_invariant_under_axis_permutations():
    # the telescoped product treats c apart from a and b
    for dims in itertools.product(range(1, 6), repeat=3):
        counts = {count_diagrams(*perm) for perm in itertools.permutations(dims)}
        assert len(counts) == 1, dims


@pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, -1)])
def test_nonpositive_box_rejected(dims):
    # enumeration checks the box when called, before any iteration
    for family in (count_diagrams, enumerate_diagrams):
        with pytest.raises(InvalidInput):
            family(*dims)
    with pytest.raises(InvalidInput):
        sample_diagrams(*dims, 3)


class TestPointCache:
    LAYERS = [[4, 3, 3, 1], [3, 2], [1]]

    def test_nothing_is_built_at_construction(self):
        d = validate(self.LAYERS)
        assert vars(d) == {"layers": d.layers}

    def test_filled_cache_keeps_value_semantics(self):
        used, fresh = validate(self.LAYERS), validate(self.LAYERS)
        first, second = list(used.points()), list(used.points())
        assert first == second == sorted(first)
        assert len(first) == used.size
        assert used.layer_points(1) + tuple(sorted(used.deep_points)) == used.points()
        used.first_layer_order(INDUCTION)
        used.first_layer_order(LEX)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        again = pickle.loads(pickle.dumps(used))
        assert again == fresh and hash(again) == hash(fresh) and repr(again) == repr(fresh)
        assert list(again.points()) == first

    def test_layer_points_slices(self):
        d = validate(self.LAYERS)
        for i in range(0, d.a + 2):
            expected = tuple(p for p in d.points() if p.i == i)
            assert d.layer_points(i) == expected

    def test_first_layer_orders(self):
        d = validate(self.LAYERS)
        for flavor, listed in ((INDUCTION, induction_order(d)), (LEX, lex_order(d))):
            order, rank = d.first_layer_order(flavor)
            assert order == listed.points
            assert sorted(order) == list(d.layer_points(1))
            assert all(order[t] == p for p, t in rank.items())
