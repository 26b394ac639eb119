import math

import pytest

from ferrers3d import (
    Point,
    box,
    from_generators,
    has_projection_property,
    hilbert_function,
    hilbert_invariants,
    oracle_invariants,
    toric_gb_check,
    validate,
)
from ferrers3d.errors import InsufficientDegree, InvalidInput, TooLarge
from ferrers3d.families import enumerate_diagrams
from ferrers3d.oracle import complex_summary


def pts(*coords):
    return frozenset(Point(*c) for c in coords)


class TestFacets:
    def test_flat_box_worked_example(self):
        summary = complex_summary(box(2, 2, 1).points())
        assert set(summary.facets) == {
            pts((1, 1, 1), (1, 2, 1), (2, 1, 1)),
            pts((1, 2, 1), (2, 1, 1), (2, 2, 1)),
        }
        assert summary.f_vector == (1, 4, 5, 2)
        assert summary.h_vector == (1, 1, 0, 0)
        assert summary.reg == 1
        assert summary.pure
        assert summary.complex_dim == 2

    def test_edgeless_graph_is_simplex(self):
        # a column has no 2-minors, so its leading-pair graph has no edges
        summary = complex_summary([Point(1, 1, k) for k in range(1, 5)])
        assert len(summary.facets) == 1
        assert summary.h_vector == (1, 0, 0, 0, 0)
        assert summary.reg == 0

    def test_vertical_square(self):
        summary = complex_summary(box(1, 2, 2).points())
        assert len(summary.facets) == 2
        assert all(len(f) == 3 for f in summary.facets)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            complex_summary(box(3, 3, 3).points(), limit=20)

    def test_h_to_f_round_trip(self):
        for d in list(enumerate_diagrams(2, 2, 3))[:60]:
            summary = complex_summary(d.points())
            dd = summary.complex_dim + 1
            rebuilt = tuple(
                sum(math.comb(dd - i, k - i) * summary.h_vector[i] for i in range(0, k + 1))
                for k in range(0, dd + 1)
            )
            assert rebuilt == summary.f_vector
            assert sum(summary.h_vector) == summary.f_vector[-1]


class TestOracleInvariants:
    def test_flat_box(self):
        rep = oracle_invariants(box(2, 2, 1))
        assert (rep.ring_dim, rep.mult, rep.reg) == (3, 2, 1)

    def test_single_point(self):
        rep = oracle_invariants(validate([[1]]))
        assert (rep.ring_dim, rep.mult, rep.reg) == (1, 1, 0)

    def test_full_box(self):
        rep = oracle_invariants(box(2, 2, 2))
        assert (rep.ring_dim, rep.mult, rep.reg) == (4, 6, 2)

    def test_purity_on_pp(self):
        for d in list(enumerate_diagrams(2, 3, 2)):
            if has_projection_property(d):
                assert complex_summary(d.points()).pure

    def test_non_pp_flagged(self):
        d = from_generators([(1, 1, 3), (2, 3, 1), (3, 2, 2)])
        assert not has_projection_property(d)
        assert not oracle_invariants(d).grobner_guarantee


class TestHilbert:
    def test_first_level_counts_points(self):
        assert hilbert_function(box(2, 2, 1), 1).values == (1, 4)

    def test_flat_box_squares(self):
        table = hilbert_function(box(2, 2, 1), 6)
        assert table.values == tuple((l + 1) ** 2 for l in range(7))

    def test_single_point_constant(self):
        assert hilbert_function(validate([[1]]), 5).values == (1,) * 6

    def test_invariants_flat_box(self):
        rep = hilbert_invariants(box(2, 2, 1))
        assert (rep.ring_dim, rep.mult, rep.reg) == (3, 2, 1)

    def test_invariants_single_point(self):
        rep = hilbert_invariants(validate([[1]]))
        assert (rep.ring_dim, rep.mult, rep.reg) == (1, 1, 0)

    def test_invariants_full_box(self):
        rep = hilbert_invariants(box(2, 2, 2))
        assert (rep.mult, rep.reg) == (6, 2)

    def test_insufficient_degree(self):
        with pytest.raises(InsufficientDegree):
            hilbert_invariants(box(2, 2, 2), degree=3)

    @pytest.mark.parametrize("degree", [-3, -1, 2.0, True, None])
    def test_bad_degree_rejected(self, degree):
        with pytest.raises(InvalidInput):
            hilbert_function(box(2, 2, 2), degree)

    def test_negative_table_length_rejected(self):
        with pytest.raises(InvalidInput):
            hilbert_invariants(box(1, 1, 1), degree=-1)

    def test_work_limit(self):
        with pytest.raises(TooLarge):
            hilbert_function(box(3, 3, 3), 10, product_limit=100)

    def test_agrees_with_facets_sample(self):
        for d in list(enumerate_diagrams(2, 2, 3)):
            f = oracle_invariants(d)
            h = hilbert_invariants(d)
            if has_projection_property(d):
                assert (f.ring_dim, f.reg, f.mult) == (h.ring_dim, h.reg, h.mult)

    def test_tables_weakly_increase(self):
        for d in list(enumerate_diagrams(2, 2, 3))[:40]:
            values = hilbert_function(d, 8).values
            assert values[0] == 1
            assert all(a <= b for a, b in zip(values[1:], values[2:]))

    def test_tail_is_polynomial(self):
        # the numerator vanishes strictly above the regularity, so the table
        # agrees with its fitted polynomial from that point on
        for d in [box(2, 2, 2), from_generators([(1, 3, 2), (2, 2, 3)])]:
            rep = hilbert_invariants(d)
            dd = rep.ring_dim
            table = hilbert_function(d, dd + rep.reg + 4).values
            numerator = [
                sum((-1) ** t * math.comb(dd, t) * table[n - t] for t in range(0, min(n, dd) + 1))
                for n in range(len(table))
            ]
            assert all(v == 0 for v in numerator[rep.reg + 1:])


@pytest.mark.parametrize("oracle, args", [
    (toric_gb_check, (-3,)),
    (toric_gb_check, (True,)),
    (toric_gb_check, (1,)),
    (toric_gb_check, (1.5,)),
    (toric_gb_check, (3, None)),
    (toric_gb_check, (3, 0)),
    (oracle_invariants, (-1,)),
    (oracle_invariants, (2.5,)),
    (oracle_invariants, (True,)),
    (hilbert_function, (3, None)),
    (hilbert_function, (3, -1)),
    (hilbert_function, (3, 2.0)),
])
def test_bad_count_or_limit_rejected(oracle, args):
    # refused as a bad argument before any work: never coerced, never run
    # as zero work and never reported as a size refusal
    with pytest.raises(InvalidInput):
        oracle(box(2, 2, 2), *args)


class TestGBCheck:
    def test_principal_case_holds(self):
        rep = toric_gb_check(box(2, 2, 1), 3)
        assert rep.holds and rep.witness is None

    def test_single_point_holds(self):
        assert toric_gb_check(validate([[1]]), 4).holds

    def test_degree_four_family_fails(self):
        family = from_generators(
            [(1, 2, 3), (2, 3, 2), (3, 4, 1), (4, 1, 2), (2, 1, 3), (3, 2, 2), (4, 3, 1), (1, 4, 2)]
        )
        rep = toric_gb_check(family, 4)
        assert not rep.holds
        assert 4 in rep.failing_degrees
        assert rep.witness is not None
        m1, m2 = rep.witness
        # the witness really is an equal-image pair
        for axis in range(3):
            assert sorted(tuple(p)[axis] for p in m1) == sorted(tuple(p)[axis] for p in m2)

    def test_monomial_limit(self):
        with pytest.raises(TooLarge):
            toric_gb_check(box(3, 3, 3), 4, monomial_limit=10)
