from array import array
from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import first_layer_order, layer_points, order_key, permute_axes, walked_order
from ferrers3d import (
    Point,
    box,
    from_generators,
    has_projection_property,
    has_strong_projection_property,
    oracle_invariants,
    validate,
)
from ferrers3d import minors
from ferrers3d.diagram import Diagram, reduce_columns, reduce_points
from ferrers3d.engine import (
    INDUCTION,
    LEX,
    PAST_LAYER_1,
    VALIDATE_LIMIT,
    Engine,
    SuffixState,
    _column_test,
    _flip_state,
    canonical_key,
    realized_set,
    successor,
)
from ferrers3d import engine as engine_module
from ferrers3d.errors import (
    InvalidInput,
    LinkMismatch,
    NotFerrers,
    NotNormal,
    TooLarge,
    UnsupportedDiagram,
)
from ferrers3d.families import enumerate_diagrams, sample_diagrams
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

    def test_tuple_start_is_stored_as_a_point(self, engine):
        s = SuffixState(box(2, 2, 2), (1, 1, 1), INDUCTION)
        assert type(s.start) is Point
        assert s == SuffixState(box(2, 2, 2), Point(1, 1, 1), INDUCTION)
        assert canonical_key(s) == canonical_key(SuffixState(box(2, 2, 2), Point(1, 1, 1), INDUCTION))
        assert engine.suffix_invariants(s) == (2, 6)

    @pytest.mark.parametrize("start", [(True, 1, 1), (1, 1.0, 1), (1, 1), (1, 1, 1, 1), "111", None])
    def test_other_starts_are_refused(self, start):
        # a bool or a float equals an int here, and must not pass as one
        with pytest.raises(InvalidInput, match="neither a triple of integers nor PAST_LAYER_1"):
            SuffixState(box(2, 2, 2), start, INDUCTION)

    def test_flat_box_induction(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 1, 1), INDUCTION)
        assert engine.suffix_invariants(s) == (1, 2)

    def test_shedding_is_monotone(self, engine):
        # invariants weakly increase when a point is prepended to a suffix
        for d in enumerate_diagrams(2, 2, 3):
            if not has_projection_property(d):
                continue
            order = first_layer_order(d, INDUCTION)
            values = []
            for u in order:
                values.append(engine.suffix_invariants(SuffixState(d, u, INDUCTION)))
            for later, earlier in zip(values[1:], values):
                assert earlier[0] >= later[0]
                assert earlier[1] >= later[1]


@pytest.fixture(scope="module")
def pp_layer_walks():
    """Every PP diagram of [3]^3 and every 100th of [4]^3, with its
    ``link_values`` on one shared engine."""
    small = [d for d in enumerate_diagrams(3, 3, 3) if has_projection_property(d)]
    large = [d for d in enumerate_diagrams(4, 4, 4) if has_projection_property(d)][::100]
    eng = Engine()
    return eng, [(d, eng.link_values(d)) for d in small + large]


class TestLinkValues:
    """The per-point link values, which the shedding folds into the
    diagram's totals as h = h_del + t * h_link."""

    def test_totals_decompose_over_layer_one(self, pp_layer_walks):
        # reg(d) = max(reg(deep), 1 + max lreg), mult(d) = mult(deep) + sum lmult
        eng, walks = pp_layer_walks
        assert len(walks) == 579 + 382
        for d, values in walks:
            deep = eng.invariants(Diagram(d.layers[1:])) if d.a > 1 else None
            reg, mult = (deep.reg, deep.mult) if deep else (0, 1)
            rep = eng.invariants(d)
            assert rep.reg == max([reg] + [1 + lreg for lreg, _ in values.values()]), d
            assert rep.mult == mult + sum(lmult for _, lmult in values.values()), d

    def test_keys_are_the_normal_starts_in_order(self, pp_layer_walks):
        # reference: the order key and the normality definition on the
        # realized set of each start
        for d, values in pp_layer_walks[1]:
            deep = frozenset(p for p in d.points() if p.i >= 2)
            order = first_layer_order(d, INDUCTION)
            normal = [u for t, u in enumerate(order) if minors.is_normal_in(deep.union(order[t:]), u)]
            assert list(values) == normal, d

    def test_stage_two_normality_survives_the_flip(self, pp_layer_walks):
        # the walk asks an unflipped stage-two state; the fold asks its flip
        states = [SuffixState(d, u, INDUCTION) for d, _ in pp_layer_walks[1]
                  for u in first_layer_order(d, INDUCTION) if u.k > d.layer_height(2)]
        for s in states:
            assert s.is_normal == _flip_state(s).is_normal, (s.host, s.start)
        assert (len(states), sum(s.is_normal for s in states)) == (1336, 546)

    def test_requires_projection_property(self, engine):
        with pytest.raises(UnsupportedDiagram):
            engine.link_values(from_generators([(1, 1, 3), (2, 3, 1), (3, 2, 2)]))


class TestLinkState:
    def test_flat_box_link(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 1, 1), INDUCTION)
        link = engine.link_state(s)
        back = realized_set(link)
        assert len(back) == 2
        assert engine.suffix_invariants(link) == (0, 1)

    def test_link_multiplicity_drop_pair(self, engine):
        # nested pair where the smaller diagram has the larger link
        u = Point(1, 3, 1)
        link1 = engine.link_state(SuffixState(CLOSURE, u, INDUCTION))
        link2 = engine.link_state(SuffixState(box(2, 3, 3), u, INDUCTION))
        assert engine.suffix_invariants(link1) == (1, 2)
        assert engine.suffix_invariants(link2) == (0, 1)

    @pytest.mark.parametrize("error", [NotFerrers("gap"), InvalidInput("empty"),
                                       ValueError("start not in list")])
    def test_unbuildable_link_raises(self, monkeypatch, error):
        def broken(points):
            raise error
        monkeypatch.setattr(engine_module, "reduce_points", broken)
        with pytest.raises(LinkMismatch, match="cannot be built from its ambient set"):
            Engine().invariants(box(2, 2, 2))

    @pytest.mark.parametrize("box_dims", [(2, 2, 2), (1, 6, 6)])
    def test_unbuildable_column_link_raises(self, monkeypatch, box_dims):
        # the column path fails the same way as the point path, on a host
        # within VALIDATE_LIMIT and on one above it
        assert box(2, 2, 2).size <= VALIDATE_LIMIT < box(1, 6, 6).size

        def broken(layers):
            raise NotFerrers("gap")
        monkeypatch.setattr(engine_module, "reduce_columns", broken)
        with pytest.raises(LinkMismatch, match=r"cannot be built from its ambient set \(gap\)"):
            Engine().invariants(box(*box_dims))

    def test_column_link_differing_from_the_reference_raises(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_point_reduction", lambda s, ambient: None)
        with pytest.raises(LinkMismatch, match="differs from its point-set construction"):
            Engine().invariants(box(2, 2, 2))
        # above VALIDATE_LIMIT the reference does not run
        assert Engine().link_state(SuffixState(box(1, 6, 6), Point(1, 1, 1), INDUCTION))

    def test_a_missed_target_raises(self, monkeypatch):
        # with the last zone piece cut from the target, the link realizes
        # more than the target; that fails on every host, above
        # VALIDATE_LIMIT too
        original = engine_module._zone_pieces

        def cut(s):
            target, ambient, start = original(s)
            return target[:-1], ambient, start
        monkeypatch.setattr(engine_module, "_zone_pieces", cut)
        for d in (box(2, 2, 2), box(1, 6, 6)):
            with pytest.raises(LinkMismatch, match="does not realize the zone-formula target"):
                Engine().invariants(d)

    def test_phantom_rejected(self, engine):
        s = SuffixState(box(2, 2, 1), Point(1, 2, 1), INDUCTION)
        with pytest.raises(NotNormal):
            engine.link_state(s)

    def test_start_outside_first_layer_rejected(self):
        # the state is refused when it is built, before any evaluation
        for host, start in ((box(2, 2, 1), Point(2, 1, 1)), (box(2, 2, 2), Point(1, 5, 5))):
            with pytest.raises(InvalidInput, match="not a first-layer point"):
                SuffixState(host, start, INDUCTION)

    def test_links_validate_everywhere(self):
        # a link failing validation raises LinkMismatch; lex runs on the
        # strong-projection diagrams, where it is not replaced by induction
        eng = Engine()
        for d in enumerate_diagrams(3, 3, 3):
            if not has_projection_property(d):
                continue
            eng.invariants(d)
            if has_strong_projection_property(d):
                eng.invariants(d, LEX)
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


def sampled_pp(count, seed):
    """``count`` projection-property diagrams of [4]^3, sampled with the seed."""
    pp = (d for d in sample_diagrams(4, 4, 4, 4 * count, seed=seed) if has_projection_property(d))
    out = [d for _, d in zip(range(count), pp)]
    assert len(out) == count
    return out


def all_states(diagrams):
    """Every suffix state of the diagrams: each first-layer start and the
    sentinel, both flavors."""
    return [SuffixState(d, start, flavor)
            for d in diagrams
            for flavor in (INDUCTION, LEX)
            for start in layer_points(d, 1) + (PAST_LAYER_1,)]


def constructed_links(monkeypatch, runs):
    """Every state whose link the engine constructs on the runs, a fresh
    engine per (diagram, order)."""
    seen = []
    original = engine_module._zone_pieces
    monkeypatch.setattr(engine_module, "_zone_pieces", lambda s: seen.append(s) or original(s))
    for d, order in runs:
        Engine().invariants(d, order)
    monkeypatch.undo()
    return seen


class TestColumnLink:
    """Links built from column intervals against the point-set reference."""

    def test_equals_the_point_set_reference(self, monkeypatch):
        # every [3]^3 PP diagram (both orders on SPP), 300 sampled [4]^3 PP
        # diagrams, and three ladder boxes; the reference is called
        # directly, so hosts above VALIDATE_LIMIT are compared too
        small = [d for d in enumerate_diagrams(3, 3, 3) if has_projection_property(d)]
        runs = [(d, order) for d in small
                for order in ((INDUCTION, LEX) if has_strong_projection_property(d) else (INDUCTION,))]
        runs += [(d, INDUCTION) for d in sampled_pp(300, seed=17)]
        runs += [(box(5, 5, 5), INDUCTION), (box(2, 30, 2), INDUCTION), (box(1, 12, 12), INDUCTION)]
        states = set(constructed_links(monkeypatch, runs))
        for s in states:
            _, ambient, start = engine_module._zone_pieces(s)
            columns = engine_module._piece_columns(s.host, ambient)
            reduced = reduce_columns(columns)
            assert reduced == engine_module._point_reduction(s, ambient), s
            link = engine_module._reduced_state(*reduced, start, s.flavor)
            # the target check's column form of the realized set, mapped
            # back, against the realized point set mapped back
            if s.flavor == INDUCTION:
                link = successor(link)
            ivals, jvals, kvals = values = reduced[1]
            assert {(i, j, k) for i, (js, shapes) in engine_module._back_columns(link, values, columns).items()
                    for j, ivs in zip(js, shapes) for lo, hi in ivs for k in range(lo, hi + 1)} == \
                {(ivals[i - 1], jvals[j - 1], kvals[k - 1]) for i, j, k in realized_set(link)}, s
        assert sum(s.host.size > VALIDATE_LIMIT for s in states) > 1000
        assert {s.flavor for s in states} == {INDUCTION, LEX}

    @pytest.mark.parametrize("dims", [(6, 6, 6), (1, 20, 20)])
    def test_no_point_tuple_above_the_limit(self, monkeypatch, dims):
        # links, keys and normality on a larger host read its columns; only
        # the small-host checks build a point tuple
        built = []
        original = Diagram.__dict__["_points"]
        counted = cached_property(lambda d: built.append(d.size) or original.func(d))
        counted.__set_name__(Diagram, "_points")
        monkeypatch.setattr(Diagram, "_points", counted)
        eng = Engine()
        eng.invariants(box(*dims))
        assert built and max(built) <= VALIDATE_LIMIT
        assert eng.stats["states"] > len(built)


class TestCanonicalKey:
    def test_same_classes_as_the_reference(self):
        # every suffix state of every [3]^3 PP diagram and of 300 sampled
        # [4]^3 PP diagrams, both flavors
        small = [d for d in enumerate_diagrams(3, 3, 3) if has_projection_property(d)]
        states = all_states(small + sampled_pp(300, seed=16))
        pairs = {(canonical_key(s), reference_key(s)) for s in states}
        assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})
        assert len(pairs) < len(states)  # some states do share a key

    def test_key_grows_with_columns_not_points(self):
        # one column of 1000 points: flavor, start, one interval, no deep layers
        column = canonical_key(SuffixState(box(1, 1, 1000), Point(1, 1, 1), INDUCTION))
        assert column == b"H" + array("H", [0, 1, 1, 1, 1, 1000]).tobytes()
        assert len(canonical_key(SuffixState(box(1, 1, 300), Point(1, 1, 1), INDUCTION))) == len(column)
        # 300 one-point columns: two values per column, not per point
        row = canonical_key(SuffixState(box(1, 300, 1), Point(1, 1, 1), INDUCTION))
        assert len(row) == 1 + 2 * (4 + 2 * 300)
        # a deep layer adds its width and heights
        deep = canonical_key(SuffixState(box(2, 300, 1), Point(1, 1, 1), INDUCTION))
        assert len(deep) == len(row) + 2 * (1 + 300)

    def test_codes_wider_than_the_widest_array_type_are_refused(self, monkeypatch):
        # with only the one-byte type left, a key value of 256 does not fit
        monkeypatch.setattr(engine_module, "_KEY_TYPECODES", "B")
        assert canonical_key(SuffixState(box(1, 1, 255), Point(1, 1, 1), INDUCTION))
        with pytest.raises(TooLarge):
            canonical_key(SuffixState(box(1, 1, 256), Point(1, 1, 1), INDUCTION))

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
            pts = first_layer_order(d, INDUCTION)
            deep = [p for p in d.points() if p.i >= 2]
            for t, u in enumerate(pts):
                suffix = frozenset(pts[t:]) | frozenset(deep)
                if minors.is_normal_in(suffix, u):
                    continue
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


class TestTraversal:
    """The engine's visit counts and memo size, recorded before the point
    caches and the once-per-state realized sets were introduced: a faster
    engine must still walk exactly the same states."""

    @pytest.mark.parametrize("layers, order, stats, memo_entries", [
        ([[4] * 4] * 4, INDUCTION,
         {"states": 430, "cache_hits": 309, "link_checks": 195}, 495),
        ([[4] * 4] * 4, LEX,
         {"states": 430, "cache_hits": 309, "link_checks": 195}, 479),
        ([[2] * 3] * 3, INDUCTION,
         {"states": 51, "cache_hits": 26, "link_checks": 26}, 70),
        ([[2] * 3] * 3, LEX,
         {"states": 50, "cache_hits": 25, "link_checks": 25}, 63),
        ([[5, 5, 5, 4, 1], [4, 4, 2]], INDUCTION,
         {"states": 135, "cache_hits": 70, "link_checks": 47}, 160),
    ])
    def test_pinned_counts(self, layers, order, stats, memo_entries):
        eng = Engine()
        eng.invariants(validate(layers), order)
        assert eng.stats == stats
        assert len(eng._memo) == memo_entries

    def test_one_normality_test_per_state(self, monkeypatch):
        # one column test per state, and the definition too on small hosts
        column_tests, small, definitions = [], [], []
        original_test, original_def = engine_module._column_test, minors.is_normal_in

        def counted_test(s):
            column_tests.append(s.start)
            small.append(s.host.size <= VALIDATE_LIMIT)
            return original_test(s)
        monkeypatch.setattr(engine_module, "_column_test", counted_test)
        monkeypatch.setattr(minors, "is_normal_in",
                            lambda S, u: definitions.append(u) or original_def(S, u))
        eng = Engine()
        eng.invariants(validate([[5, 5, 5, 4, 1], [4, 4, 2]]))
        assert len(column_tests) == eng.stats["states"]
        assert 0 < len(definitions) == sum(small) < len(column_tests)

    def test_layer_step_is_the_reduced_deep_set(self):
        # the engine steps past layer 1 by slicing off the first layer
        multi = [d for d in enumerate_diagrams(3, 3, 3) if d.a > 1]
        assert multi
        for d in multi:
            assert Diagram(d.layers[1:]) == reduce_points(p for p in d.points() if p.i >= 2)[0]

    def test_realized_sets_and_successors_follow_the_order_key(self):
        # reference: the deep points plus the first-layer points whose order
        # key is at least the start's, and successors in key order
        for d in enumerate_diagrams(3, 3, 3):
            deep = {p for p in d.points() if p.i >= 2}
            first = layer_points(d, 1)
            for flavor in (INDUCTION, LEX):
                key = order_key(d, flavor)
                for u in first:
                    expected = deep | {p for p in first if key(p) >= key(u)}
                    assert realized_set(SuffixState(d, u, flavor)) == expected
                assert realized_set(SuffixState(d, PAST_LAYER_1, flavor)) == deep
                assert walked_order(d, flavor) == first_layer_order(d, flavor)


def rule_edges(points):
    """The leading pairs by the three closed-form swap rules: for a <lex b
    in a downward-closed set H, {a, b} leads a 2-minor iff (x) i_a < i_b,
    (j_a, k_a) <lex (j_b, k_b) and (i_b, j_a, k_a) in H; or (y) j_a < j_b,
    i_a < i_b or (i_a = i_b and k_a < k_b), and (i_a, j_b, k_a) in H; or
    (z) k_a < k_b, (i_a, j_a) <lex (i_b, j_b) and (i_a, j_a, k_b) in H."""
    host, edges = set(points), set()
    for a in host:
        for b in host:
            if not a < b:
                continue
            x = a.i < b.i and (a.j, a.k) < (b.j, b.k) and (b.i, a.j, a.k) in host
            y = a.j < b.j and (a.i < b.i or (a.i == b.i and a.k < b.k)) and (a.i, b.j, a.k) in host
            z = a.k < b.k and (a.i, a.j) < (b.i, b.j) and (a.i, a.j, b.k) in host
            if x or y or z:
                edges.add(frozenset((a, b)))
    return edges


class TestColumnTest:
    """The closed-form normality test against the definition."""

    def test_swap_rules_are_the_leading_pairs(self):
        for d in enumerate_diagrams(3, 3, 3):
            assert rule_edges(d.points()) == minors.leading_edges(d.points())

    @pytest.mark.parametrize("box_dims", [(3, 3, 3), (2, 4, 4), (1, 6, 6)])
    def test_equals_the_definition_on_every_start(self, box_dims):
        # every diagram of the box, projection property or not, and every
        # first-layer start in both flavors, stage two included
        seen = 0
        for d in enumerate_diagrams(*box_dims):
            for s in all_states([d]):
                if s.start is not PAST_LAYER_1:
                    seen += 1
                    assert _column_test(s) == minors.is_normal_in(realized_set(s), s.start), s
        assert seen > 1000

    def test_equals_the_definition_on_reached_states(self, monkeypatch):
        # the states and link hosts the engine reaches from sampled [4]^3
        # diagrams, whatever their size
        reached = []
        original = engine_module._column_test
        monkeypatch.setattr(engine_module, "_column_test", lambda s: reached.append(s) or original(s))
        eng = Engine()
        for d in sampled_pp(200, seed=5):
            eng.invariants(d)
        assert any(s.host.size > VALIDATE_LIMIT for s in reached)
        assert sum(s.host.a > 1 for s in reached) > 100
        for s in reached:
            assert original(s) == minors.is_normal_in(realized_set(s), s.start), s

    def test_a_disagreement_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_column_test", lambda s: True)
        with pytest.raises(RuntimeError, match="column test calls .* normal"):
            Engine().invariants(box(2, 2, 1))


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
@given(pp_diagrams(max_points=64))
def test_engine_equals_facet_oracle_on_random_diagrams(d):
    ora = oracle_invariants(d, limit=64)
    orders = (INDUCTION, LEX) if has_strong_projection_property(d) else (INDUCTION,)
    for order in orders:
        rep = Engine().invariants(d, order)
        assert (rep.ring_dim, rep.reg, rep.mult) == (ora.ring_dim, ora.reg, ora.mult)
