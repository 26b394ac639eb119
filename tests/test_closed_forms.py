import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import partitions_up_to
from ferrers3d import (
    box,
    ferrers2d_multiplicity,
    ferrers2d_regularity,
    from_generators,
    has_projection_property,
    has_strong_projection_property,
    mu_bound,
    oracle_invariants,
    profile_bounds,
    rect_multiplicity,
    rect_regularity,
    segre_combine,
    validate,
)
from ferrers3d.closed_forms import SegreFactor
from ferrers3d.engine import Engine
from ferrers3d.errors import HypothesisFailed, InvalidInput, UnsupportedDiagram
from ferrers3d.families import enumerate_diagrams

CLOSURE = from_generators([(1, 3, 2), (2, 2, 3)])

#: Partitions inside a 30x30 square, in decreasing order; the number of
#: parts is drawn first, so that long ones are as likely as short ones.
PARTITIONS_30 = (st.integers(1, 30)
                 .flatmap(lambda m: st.lists(st.integers(1, 30), min_size=m, max_size=m))
                 .map(lambda raw: sorted(raw, reverse=True)))


class TestRectangular:
    def test_values(self):
        assert rect_multiplicity(2, 2, 2) == 6
        assert rect_multiplicity(1, 1, 1) == 1
        assert rect_multiplicity(2, 3, 4) == 60
        assert rect_regularity(2, 2, 2) == 2
        assert rect_regularity(1, 1, 7) == 0
        assert rect_regularity(4, 3, 2) == 3

    def test_symmetry(self):
        for a, b, c in itertools.product(range(1, 5), repeat=3):
            for perm in itertools.permutations((a, b, c)):
                assert rect_multiplicity(*perm) == rect_multiplicity(a, b, c)
                assert rect_regularity(*perm) == rect_regularity(a, b, c)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (2.0, 2, 2), (0, 0, 5), (True, 2, 2), (2, 2, "2")])
    def test_bad_dimensions_rejected(self, dims):
        for closed_form in (rect_multiplicity, rect_regularity):
            with pytest.raises(InvalidInput):
                closed_form(*dims)

    def test_matches_engine_and_oracle_small(self):
        eng = Engine()
        for a, b, c in itertools.product(range(1, 4), repeat=3):
            rep = eng.invariants(box(a, b, c))
            assert rep.reg == rect_regularity(a, b, c)
            assert rep.mult == rect_multiplicity(a, b, c)
            if a * b * c <= 18:
                ora = oracle_invariants(box(a, b, c))
                assert (ora.reg, ora.mult) == (rep.reg, rep.mult)


class TestFerrers2D:
    def test_regularity_examples(self):
        assert ferrers2d_regularity((3, 3)) == 1
        assert ferrers2d_regularity((2, 1)) == 0
        assert ferrers2d_regularity((3, 2, 1)) == 1
        for lam in [(3, 3, 3, 2), (3, 3, 3, 3), (3, 3, 3, 2, 2)]:
            assert ferrers2d_regularity(lam) == 2, lam

    def test_multiplicity_examples(self):
        assert ferrers2d_multiplicity((2, 2)) == 2
        assert ferrers2d_multiplicity((3, 2, 1)) == 2
        assert ferrers2d_multiplicity((9,)) == 1
        assert ferrers2d_multiplicity((20,) * 20) == math.comb(38, 19)
        assert ferrers2d_multiplicity((1,) * 5000) == 1

    def test_partition_validation(self):
        for parts in [(), (1, 2), (2, 0), (True, True), (2.0, 1), None, 3, "21", [[2], [1]]]:
            for closed_form in (ferrers2d_regularity, ferrers2d_multiplicity):
                with pytest.raises(InvalidInput):
                    closed_form(parts)

    def test_ambiguous_case(self):
        # shapes where the old corner-count rule left reg in {2, 3}; the
        # lattice-path minimum settles them, and the facet oracle agrees
        for lam in [(3, 3, 2, 2), (5, 3, 2, 2)]:
            assert ferrers2d_regularity(lam) == 2, lam
            assert oracle_invariants(validate([list(lam)])).reg == 2, lam

    def test_coinciding_candidates_resolve(self):
        assert ferrers2d_regularity((3, 3, 2)) == 2
        assert oracle_invariants(validate([[3, 3, 2]])).reg == 2

    def test_against_oracle_small(self):
        for lam in partitions_up_to(8):
            rep = oracle_invariants(validate([list(lam)]))
            assert ferrers2d_regularity(lam) == rep.reg, lam
            assert ferrers2d_multiplicity(lam) == rep.mult, lam

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    def test_conjugation_invariance(self, raw):
        lam = tuple(sorted(raw, reverse=True))
        conjugate = tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))
        assert ferrers2d_regularity(conjugate) == ferrers2d_regularity(lam)
        assert ferrers2d_multiplicity(conjugate) == ferrers2d_multiplicity(lam)

    def test_engine_matches_flat_sweep(self):
        # single-layer diagrams are two-dimensional; the recursion must
        # reproduce both flat formulas
        eng = Engine()
        for d in enumerate_diagrams(1, 6, 6):
            lam = d.layers[0]
            rep = eng.invariants(d)
            assert rep.reg == ferrers2d_regularity(lam), lam
            assert rep.mult == ferrers2d_multiplicity(lam), lam

    @settings(max_examples=25, deadline=None)
    @given(PARTITIONS_30)
    @example([30] * 30)
    def test_engine_matches_one_layer_diagrams(self, lam):
        # the same at any size up to 1x30x30, where no oracle reaches
        rep = Engine().invariants(validate([lam]))
        expected = (len(lam) + lam[0] - 1, ferrers2d_regularity(lam), ferrers2d_multiplicity(lam))
        assert (rep.ring_dim, rep.reg, rep.mult) == expected


class TestMuBound:
    def test_values(self):
        assert mu_bound(box(2, 2, 2)) == 2
        assert mu_bound(CLOSURE) == 3
        assert mu_bound(validate([[1]])) == 0


class TestSegre:
    def test_two_factors(self):
        out = segre_combine([SegreFactor(2, 0, 1), SegreFactor(3, 0, 1)])
        assert (out.dim, out.reg, out.mult) == (4, 1, 3)

    def test_identity(self):
        f = SegreFactor(5, 2, 7)
        assert segre_combine([f]) == f

    def test_three_polynomial_rings(self):
        out = segre_combine([SegreFactor(2, 0, 1)] * 3)
        assert (out.dim, out.reg, out.mult) == (4, 2, 6)

    def test_reproduces_rectangular(self):
        for a, b, c in itertools.product(range(1, 6), repeat=3):
            out = segre_combine([SegreFactor(a, 0, 1), SegreFactor(b, 0, 1), SegreFactor(c, 0, 1)])
            assert out.dim == a + b + c - 2
            assert out.mult == rect_multiplicity(a, b, c)
            if (a, b, c) != (1, 1, 1):
                assert out.reg == rect_regularity(a, b, c)

    def test_dimension_one_rule(self):
        out = segre_combine([SegreFactor(1, 0, 1), SegreFactor(1, 0, 1)])
        assert (out.dim, out.reg) == (1, 0)

    def test_hypothesis_failure(self):
        with pytest.raises(HypothesisFailed):
            segre_combine([SegreFactor(2, 2, 1), SegreFactor(3, 0, 1)])

    @pytest.mark.parametrize("factors", [[], [(1, 0, 1), (2, 0, 1)], [SegreFactor(1, 0, 1), None],
                                         None, 3, "ab"])
    def test_factors_must_be_segre_factors(self, factors):
        with pytest.raises(InvalidInput):
            segre_combine(factors)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.integers(1, 6))
    def test_engine_matches_prisms(self, raw, n):
        # P x [n] is the Segre product of the 2-D ring of P and a polynomial
        # ring in n variables (Goto-Watanabe, J. Math. Soc. Japan 1978), with
        # P in the xy, xz or yz plane; only projection-property draws count
        lam = sorted(raw, reverse=True)
        flat = SegreFactor(len(lam) + lam[0] - 1, ferrers2d_regularity(lam), ferrers2d_multiplicity(lam))
        expected = segre_combine([flat, SegreFactor(n, 0, 1)])
        for layers in ([[n] * p for p in lam], [[p] * n for p in lam], [lam] * n):
            d = validate(layers)
            if has_projection_property(d):
                rep = Engine().invariants(d)
                assert (rep.ring_dim, rep.reg, rep.mult) == (expected.dim, expected.reg, expected.mult), \
                    layers

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), min_size=2, max_size=4))
    def test_associativity(self, raw):
        factors = [SegreFactor(d, min(r, d - 1), 1) for d, r in raw]
        whole = segre_combine(factors)
        paired = segre_combine([segre_combine(factors[:2])] + factors[2:])
        assert whole == paired


class TestProfileBounds:
    def test_box_is_tight(self):
        eng = Engine()
        for a, b, c in [(2, 2, 2), (2, 3, 3), (3, 2, 4)]:
            pb = profile_bounds(box(a, b, c))
            rep = eng.invariants(box(a, b, c))
            assert pb.reg_bound == rep.reg
            assert pb.mult_bound == rep.mult

    def test_flat_box(self):
        pb = profile_bounds(box(2, 2, 1))
        assert pb.box_mult_bound == 2
        assert pb.mult_bound == 2

    def test_staircase_box_bound(self):
        pb = profile_bounds(validate([[2, 1], [1]]))
        assert pb.box_mult_bound == 6

    def test_requires_strong(self):
        with pytest.raises(UnsupportedDiagram):
            profile_bounds(CLOSURE)

    def test_bounds_hold_in_three_box(self):
        eng = Engine()
        for d in enumerate_diagrams(3, 3, 3):
            if not has_strong_projection_property(d):
                continue
            rep = eng.invariants(d)
            pb = profile_bounds(d)
            assert rep.reg <= pb.reg_bound
            assert rep.mult <= pb.mult_bound


class TestReductionNumber:
    def test_values(self):
        eng = Engine()
        for d, red_num in ((box(2, 2, 2), 2), (validate([[1]]), 0), (box(1, 2, 3), 1)):
            assert eng.invariants(d).red_num == red_num

    def test_matches_regularity(self):
        eng = Engine()
        for d in list(enumerate_diagrams(2, 2, 2)):
            if not has_strong_projection_property(d):
                continue
            rep = eng.invariants(d)
            assert rep.red_num == rep.reg
