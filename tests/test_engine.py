import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import permute_axes
from ferrers3d import (
    Point,
    box,
    from_generators,
    has_projection_property,
    has_strong_projection_property,
    induction_order,
    oracle_invariants,
    validate,
)
from ferrers3d import minors
from ferrers3d.diagram import Diagram, order_key, reduce_points
from ferrers3d.engine import (
    INDUCTION,
    LEX,
    PAST_LAYER_1,
    Engine,
    SuffixState,
    _successor,
    canonical_key,
    realized_set,
)
from ferrers3d import engine as engine_module
from ferrers3d.errors import InvalidInput, NotNormal, TooLarge, UnsupportedDiagram
from ferrers3d.families import enumerate_diagrams, sample_diagrams
from ferrers3d.minors import classify_point
from ferrers3d.oracle import complex_summary

CLOSURE = from_generators([(1, 3, 2), (2, 2, 3)])


@pytest.fixture(scope="module")
def engine():
    return Engine()


class TestInvariants:
    def test_full_box(self, engine):
        rep = engine.invariants(box(2, 2, 2))
        assert (rep.ring_dim, rep.mult, rep.reg, rep.red_num) == (4, 6, 2, 2)

    def test_single_point(self, engine):
        rep = engine.invariants(validate([[1]]))
        assert (rep.ring_dim, rep.mult, rep.reg) == (1, 1, 0)

    def test_flat_box(self, engine):
        rep = engine.invariants(box(2, 2, 1))
        assert (rep.ring_dim, rep.mult, rep.reg) == (3, 2, 1)

    def test_requires_projection_property(self, engine):
        bad = from_generators([(1, 1, 3), (2, 3, 1), (3, 2, 2)])
        with pytest.raises(UnsupportedDiagram):
            engine.invariants(bad)

    def test_lex_requires_strong(self, engine):
        assert has_projection_property(CLOSURE)
        with pytest.raises(UnsupportedDiagram):
            engine.invariants(CLOSURE, order=LEX)

    def test_unknown_flavor_rejected(self, engine):
        with pytest.raises(InvalidInput):
            SuffixState(box(2, 2, 2), Point(1, 1, 1), "bogus")
        with pytest.raises(InvalidInput):
            engine.invariants(box(2, 2, 2), order="bogus")


class TestSuffixInvariants:
    def test_vertical_square_lex(self, engine):
        s = SuffixState(box(1, 2, 2), Point(1, 1, 1), LEX)
        assert engine.suffix_invariants(s) == (1, 2)

    def test_last_point_is_trivial(self, engine):
        # a one-point realized set is a cone over the empty complex
        for host, last, flavor in (
            (validate([[1]]), Point(1, 1, 1), INDUCTION),
            (validate([[2, 1]]), Point(1, 2, 1), "lex"),
            (validate([[3]]), Point(1, 1, 3), INDUCTION),
        ):
            s = SuffixState(host, last, flavor)
            assert len(realized_set(s)) == 1
            assert engine.suffix_invariants(s) == (0, 1)

    def test_flat_box_induction(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 1, 1), INDUCTION)
        assert engine.suffix_invariants(s) == (1, 2)

    def test_shedding_is_monotone(self, engine):
        # invariants weakly increase when a point is prepended to a suffix
        for d in enumerate_diagrams(2, 2, 3):
            if not has_projection_property(d):
                continue
            order = induction_order(d).points
            values = []
            for u in order:
                values.append(engine.suffix_invariants(SuffixState(d, u, INDUCTION)))
            for later, earlier in zip(values[1:], values):
                assert earlier[0] >= later[0]
                assert earlier[1] >= later[1]


class TestLinkState:
    def test_flat_box_link(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 1, 1), INDUCTION)
        link, ok = engine.link_state(s)
        assert ok
        back = realized_set(link)
        assert len(back) == 2
        assert engine.suffix_invariants(link) == (0, 1)

    def test_link_multiplicity_drop_pair(self, engine):
        # nested pair where the smaller diagram has the larger link
        u = Point(1, 3, 1)
        link1, ok1 = engine.link_state(SuffixState(CLOSURE, u, INDUCTION))
        link2, ok2 = engine.link_state(SuffixState(box(2, 3, 3), u, INDUCTION))
        assert ok1 and ok2
        assert engine.suffix_invariants(link1) == (1, 2)
        assert engine.suffix_invariants(link2) == (0, 1)

    def test_phantom_rejected(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 2, 1), INDUCTION)
        with pytest.raises(NotNormal):
            engine.link_state(s)

    def test_start_outside_first_layer_rejected(self, engine):
        s = SuffixState(box(2, 2, 1), Point(2, 1, 1), INDUCTION)
        with pytest.raises(InvalidInput):
            engine.suffix_invariants(s)

    def test_links_validate_everywhere(self):
        eng = Engine()
        for d in enumerate_diagrams(3, 3, 3):
            if not has_projection_property(d):
                continue
            eng.invariants(d)
        assert eng.stats["fallbacks"] == 0
        assert eng.stats["link_checks"] > 0


def reference_key(s):
    """The memo key before packing: the sorted tuple of rank triples of the
    realized set, the relabeled start and the flavor."""
    pts = s.realized
    if not pts:
        return ((), "empty", s.flavor)
    ranks = [{v: t for t, v in enumerate(sorted({p[axis] for p in pts}), start=1)}
             for axis in range(3)]
    rel = tuple(sorted(tuple(m[v] for m, v in zip(ranks, p)) for p in pts))
    start = "past" if s.start is PAST_LAYER_1 else tuple(m[v] for m, v in zip(ranks, s.start))
    return (rel, start, s.flavor)


class TestCanonicalKey:
    def test_same_classes_as_the_reference(self):
        # every suffix state of every [3]^3 PP diagram, both flavors
        states = [
            SuffixState(d, start, flavor)
            for d in enumerate_diagrams(3, 3, 3) if has_projection_property(d)
            for flavor in (INDUCTION, LEX)
            for start in d.layer_points(1) + (PAST_LAYER_1,)
        ]
        pairs = {(canonical_key(s), reference_key(s)) for s in states}
        assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
        assert len(pairs) < len(states)  # some states do share a key

    def test_key_is_linear_in_the_realized_set(self):
        # a tripod with 300-point arms: 4-byte codes, not a 300^3 bitmask
        tripod = validate([[300] + [1] * 299] + [[1]] * 299)
        s = SuffixState(tripod, PAST_LAYER_1, INDUCTION)
        w, start, flavor, codes = canonical_key(s)
        assert (w, start, flavor) == (9, "past", INDUCTION)
        assert len(codes) == 4 * len(s.realized) == 4 * 299

    def test_codes_wider_than_the_widest_array_type_are_refused(self, monkeypatch):
        # with the table cut at w = 1, a state with 2 values on an axis
        # (w = 2) stands for one with 2**21 values
        monkeypatch.setattr(engine_module, "_KEY_TYPECODES", engine_module._KEY_TYPECODES[:2])
        assert canonical_key(SuffixState(box(1, 1, 1), Point(1, 1, 1), INDUCTION))
        with pytest.raises(TooLarge):
            canonical_key(SuffixState(box(1, 1, 2), Point(1, 1, 1), INDUCTION))

    def test_equal_states(self):
        s1 = SuffixState(box(2, 2, 2), Point(1, 1, 2), INDUCTION)
        s2 = SuffixState(box(2, 2, 2), Point(1, 1, 2), INDUCTION)
        assert canonical_key(s1) == canonical_key(s2)

    def test_flavor_distinguishes(self):
        s1 = SuffixState(box(2, 2, 2), Point(1, 1, 2), INDUCTION)
        s2 = SuffixState(box(2, 2, 2), Point(1, 1, 2), LEX)
        assert canonical_key(s1) != canonical_key(s2)

    def test_translation_invariance(self):
        # suffixes that collapse to the same relabeled set share a key
        s1 = SuffixState(validate([[2, 2], [2, 2]]), PAST_LAYER_1, INDUCTION)
        s2 = SuffixState(validate([[2, 2]]), Point(1, 1, 1), INDUCTION)
        assert canonical_key(s1) != canonical_key(s2)  # start differs
        assert Engine().suffix_invariants(s1) == Engine().suffix_invariants(s2)


class TestAgainstOracle:
    def test_exhaustive_two_box(self, engine):
        for d in enumerate_diagrams(2, 2, 2):
            if not has_projection_property(d):
                continue
            rep = engine.invariants(d)
            ora = oracle_invariants(d)
            assert (rep.ring_dim, rep.reg, rep.mult) == (ora.ring_dim, ora.reg, ora.mult)

    def test_sampled_four_box(self, engine):
        seen = 0
        for d in sample_diagrams(4, 4, 4, 120, seed=7):
            if not has_projection_property(d) or d.size > 22:
                continue
            seen += 1
            rep = engine.invariants(d)
            ora = oracle_invariants(d)
            assert (rep.ring_dim, rep.reg, rep.mult) == (ora.ring_dim, ora.reg, ora.mult)
        assert seen >= 20

    def test_cone_soundness(self, engine):
        # a phantom shed deletes the apex from every facet and nothing else
        for d in enumerate_diagrams(2, 2, 3):
            if not has_projection_property(d):
                continue
            order = induction_order(d)
            pts = list(order.points)
            deep = [p for p in d.points() if p.i >= 2]
            for t, u in enumerate(pts):
                if classify_point(d, order, u) != "phantom":
                    continue
                suffix = frozenset(pts[t:]) | frozenset(deep)
                before = complex_summary(suffix)
                after = complex_summary(suffix - {u})
                assert all(u in f for f in before.facets)
                assert {f - {u} for f in before.facets} == set(after.facets)


class TestSymmetries:
    def test_lex_matches_induction_on_strong(self):
        eng1, eng2 = Engine(), Engine()
        for d in enumerate_diagrams(3, 3, 3):
            if not has_strong_projection_property(d):
                continue
            a = eng1.invariants(d, order=INDUCTION)
            b = eng2.invariants(d, order=LEX)
            assert (a.reg, a.mult) == (b.reg, b.mult)

    def test_axis_permutations(self, engine):
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        for d in list(enumerate_diagrams(2, 3, 2)):
            if not has_projection_property(d):
                continue
            base = engine.invariants(d)
            for perm in perms:
                image = permute_axes(d, perm)
                if not has_projection_property(image):
                    continue
                other = engine.invariants(image)
                assert (other.ring_dim, other.reg, other.mult) == (
                    base.ring_dim, base.reg, base.mult,
                )


class TestCache:
    def test_lru_cap(self):
        eng = Engine(cache_cap=16)
        for d in list(enumerate_diagrams(2, 2, 2))[:10]:
            if has_projection_property(d):
                eng.invariants(d)
        assert len(eng._memo) <= 16

    def test_results_stable_under_cap(self):
        uncapped, capped = Engine(), Engine(cache_cap=8)
        for d in enumerate_diagrams(2, 2, 2):
            if not has_projection_property(d):
                continue
            a, b = uncapped.invariants(d), capped.invariants(d)
            assert (a.reg, a.mult) == (b.reg, b.mult)


class TestTraversal:
    """The engine's visit counts and memo size, recorded before the point
    caches and the once-per-state realized sets were introduced: a faster
    engine must still walk exactly the same states."""

    @pytest.mark.parametrize("layers, order, stats, memo_entries", [
        ([[4] * 4] * 4, INDUCTION,
         {"states": 430, "cache_hits": 309, "link_checks": 195, "fallbacks": 0}, 495),
        ([[4] * 4] * 4, LEX,
         {"states": 430, "cache_hits": 309, "link_checks": 195, "fallbacks": 0}, 479),
        ([[2] * 3] * 3, INDUCTION,
         {"states": 51, "cache_hits": 26, "link_checks": 26, "fallbacks": 0}, 70),
        ([[2] * 3] * 3, LEX,
         {"states": 50, "cache_hits": 25, "link_checks": 25, "fallbacks": 0}, 63),
        ([[5, 5, 5, 4, 1], [4, 4, 2]], INDUCTION,
         {"states": 135, "cache_hits": 70, "link_checks": 47, "fallbacks": 0}, 160),
    ])
    def test_pinned_counts(self, layers, order, stats, memo_entries):
        eng = Engine()
        eng.invariants(validate(layers), order)
        assert eng.stats == stats
        assert len(eng._memo) == memo_entries

    def test_one_normality_test_per_state(self, monkeypatch):
        calls = []
        original = minors.is_normal_in
        monkeypatch.setattr(minors, "is_normal_in", lambda S, u: calls.append(u) or original(S, u))
        eng = Engine()
        eng.invariants(validate([[5, 5, 5, 4, 1], [4, 4, 2]]))
        assert len(calls) == eng.stats["states"]

    def test_layer_step_is_the_reduced_deep_set(self):
        # the engine steps past layer 1 by slicing off the first layer
        multi = [d for d in enumerate_diagrams(3, 3, 3) if d.a > 1]
        assert multi
        for d in multi:
            assert Diagram(d.layers[1:]) == reduce_points(d.deep_points)[0]

    def test_realized_sets_and_successors_follow_the_order_key(self):
        # reference: the deep points plus the first-layer points whose order
        # key is at least the start's, and successors in key order
        for d in enumerate_diagrams(3, 3, 3):
            deep = {p for p in d.points() if p.i >= 2}
            first = d.layer_points(1)
            for flavor in (INDUCTION, LEX):
                key = order_key(d, flavor)
                for u in first:
                    expected = deep | {p for p in first if key(p) >= key(u)}
                    assert realized_set(SuffixState(d, u, flavor)) == expected
                assert realized_set(SuffixState(d, PAST_LAYER_1, flavor)) == deep
                s, walked = SuffixState(d, min(first, key=key), flavor), []
                while s.start is not PAST_LAYER_1:
                    walked.append(s.start)
                    s = _successor(s)
                assert walked == sorted(first, key=key)


@st.composite
def pp_diagrams(draw, max_points=24):
    """Projection-property diagrams of at most ``max_points`` points in
    [4] x [6] x [6]: random layers, trailing layers (then trailing columns)
    dropped until the size fits."""
    layers, prev = [], (6,) * 6
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, len(prev)))
        heights = (min(prev[j], draw(st.integers(1, 6))) for j in range(width))
        layers.append(sorted(heights, reverse=True))
        prev = layers[-1]
    while len(layers) > 1 and sum(map(sum, layers)) > max_points:
        layers.pop()
    while sum(layers[0]) > max_points:
        layers[0].pop()
    d = validate(layers)
    assume(has_projection_property(d))
    return d


@settings(max_examples=80, deadline=None)
@given(pp_diagrams())
def test_engine_equals_facet_oracle_on_random_diagrams(d):
    ora = oracle_invariants(d)
    orders = (INDUCTION, LEX) if has_strong_projection_property(d) else (INDUCTION,)
    for order in orders:
        rep = Engine().invariants(d, order)
        assert (rep.ring_dim, rep.reg, rep.mult) == (ora.ring_dim, ora.reg, ora.mult)
