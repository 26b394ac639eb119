"""Acceptance suite: every release criterion, each at its exact tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion; all comparisons are exact integer equalities and the stated time
budgets are asserted, not aspirational.
"""

import itertools
import time

import pytest

from conftest import partitions_up_to
from ferrers3d import (
    Point,
    box,
    ferrers2d_multiplicity,
    ferrers2d_regularity,
    from_generators,
    has_projection_property,
    has_strong_projection_property,
    hilbert_invariants,
    mu_bound,
    oracle_invariants,
    rect_multiplicity,
    rect_regularity,
    toric_gb_check,
    validate,
)
from ferrers3d.engine import INDUCTION, Engine, SuffixState
from ferrers3d.errors import TooLarge
from ferrers3d.families import enumerate_diagrams


@pytest.fixture(scope="module")
def shared_engine():
    return Engine()


@pytest.fixture(scope="module")
def pp_sweep_3(shared_engine):
    """Criterion 2's sweep: every projection-property diagram in [3]^3 with
    its engine and facet-oracle reports."""
    started = time.monotonic()
    rows = []
    for d in enumerate_diagrams(3, 3, 3):
        if not has_projection_property(d):
            continue
        rows.append((d, shared_engine.invariants(d), oracle_invariants(d, limit=27)))
    return rows, time.monotonic() - started


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_rectangular_formulas():
    engine = Engine()
    started = time.monotonic()
    for a, b, c in itertools.product(range(1, 5), repeat=3):
        rep = engine.invariants(box(a, b, c))
        assert rep.reg == rect_regularity(a, b, c), (a, b, c)
        assert rep.mult == rect_multiplicity(a, b, c), (a, b, c)
        assert rep.red_num == rep.reg
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _ok(1, f"engine equals closed forms on all 64 boxes up to [4]^3 in {elapsed:.2f}s")


def test_criterion_2_engine_equals_oracle(pp_sweep_3):
    rows, elapsed = pp_sweep_3
    assert len(rows) == 579
    for d, eng, ora in rows:
        assert (eng.ring_dim, eng.reg, eng.mult) == (ora.ring_dim, ora.reg, ora.mult), d
    assert elapsed < 60.0
    _ok(2, f"engine == facet oracle on all {len(rows)} projection diagrams in [3]^3 "
           f"in {elapsed:.2f}s")


def test_criterion_3_oracle_equals_oracle(pp_sweep_3):
    rows, _ = pp_sweep_3
    checked = 0
    for d, _, ora in rows:
        if d.size > 10:
            continue
        checked += 1
        hil = hilbert_invariants(d)
        assert (hil.ring_dim, hil.reg, hil.mult) == (ora.ring_dim, ora.reg, ora.mult), d
    assert checked > 0
    _ok(3, f"facet and Hilbert oracles agree on all {checked} diagrams with <= 10 points")


def test_criterion_4_link_multiplicity_regression(shared_engine):
    d1 = from_generators([(1, 3, 2), (2, 2, 3)])
    d2 = box(2, 3, 3)
    u = Point(1, 3, 1)
    mults = []
    for d in (d1, d2):
        link = shared_engine.link_state(SuffixState(d, u, INDUCTION))
        mults.append(shared_engine.suffix_invariants(link)[1])
    assert mults == [2, 1]
    _ok(4, "link multiplicities at (1,3,1) are exactly 2 (smaller diagram) and 1 (box)")


def test_criterion_5_regularity_bounds(pp_sweep_3):
    rows, _ = pp_sweep_3
    for d, eng, _ in rows:
        assert eng.reg <= mu_bound(d), d
        assert eng.reg < eng.ring_dim, d
    _ok(5, f"reg <= pairwise-minimum bound and reg < dim on all {len(rows)} diagrams")


def test_criterion_6_monotonicity(pp_sweep_3):
    rows, _ = pp_sweep_3
    strong = [(d, eng) for d, eng, _ in rows if has_strong_projection_property(d)]
    pairs = 0
    for d1, r1 in strong:
        for d2, r2 in strong:
            if d1 is d2 or not d1.issubset(d2):
                continue
            pairs += 1
            assert r1.reg <= r2.reg, (d1, d2)
            assert r1.mult <= r2.mult, (d1, d2)
    assert pairs > 0
    _ok(6, f"reg and mult weakly monotone over {pairs} nested strong-projection pairs")


def test_criterion_7_two_dimensional_formulas():
    partitions = partitions_up_to(16)
    for lam in partitions:
        rep = oracle_invariants(validate([list(lam)]))
        assert (ferrers2d_regularity(lam), ferrers2d_multiplicity(lam)) == (rep.reg, rep.mult), lam
    _ok(7, f"2D regularity and multiplicity match the oracle on all {len(partitions)} "
           f"partitions with <= 16 cells")


def test_criterion_8_groebner_claim(pp_sweep_3):
    rows, _ = pp_sweep_3
    checked = 0
    for d, _, _ in rows:
        if d.size > 10:
            continue
        checked += 1
        assert toric_gb_check(d, 4).holds, d
    family = from_generators(
        [(1, 2, 3), (2, 3, 2), (3, 4, 1), (4, 1, 2), (2, 1, 3), (3, 2, 2), (4, 3, 1), (1, 4, 2)]
    )
    rep = toric_gb_check(family, 4)
    assert not rep.holds
    assert 4 in rep.failing_degrees
    assert rep.witness is not None
    _ok(8, f"quadrics rewrite everything to zero on {checked} small projection diagrams and "
           f"fail on the degree-4 family (failing degrees {list(rep.failing_degrees)})")


def test_criterion_9_performance_reach():
    engine = Engine()
    started = time.monotonic()
    big_box = engine.invariants(box(4, 4, 4))
    box_elapsed = time.monotonic() - started
    assert box_elapsed < 5.0
    assert (big_box.reg, big_box.mult) == (6, 1680)

    thirty = validate([[5, 5, 5, 4, 1], [4, 4, 2]])
    assert thirty.size == 30 and has_projection_property(thirty)
    started = time.monotonic()
    engine.invariants(thirty)
    thirty_elapsed = time.monotonic() - started
    assert thirty_elapsed < 5.0

    for d in (box(4, 4, 4), thirty):
        with pytest.raises(TooLarge):
            oracle_invariants(d)
    _ok(9, f"engine finished [4]^3 in {box_elapsed:.2f}s and a 30-point diagram in "
           f"{thirty_elapsed:.2f}s; the facet oracle refuses both at its default limit")
