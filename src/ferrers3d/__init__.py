"""Toric rings of three-dimensional Ferrers diagrams: exact dimension,
Castelnuovo-Mumford regularity, multiplicity and reduction number, computed
by a vertex-shedding recursion and cross-validated by brute-force oracles.
"""

from .diagram import (
    Diagram,
    Point,
    box,
    diagram_from_json,
    diagram_to_json,
    from_generators,
    from_points,
    has_projection_property,
    has_strong_projection_property,
    profile,
    validate,
    zones,
)
from .minors import (
    Binomial2Minor,
    two_minors,
)
from .engine import Engine
from .oracle import (
    ComplexSummary,
    GBCheckReport,
    HilbertTable,
    InvariantsReport,
    hilbert_function,
    hilbert_invariants,
    oracle_invariants,
    toric_gb_check,
)
from .closed_forms import (
    ProfileBounds,
    SegreFactor,
    ferrers2d_multiplicity,
    ferrers2d_regularity,
    mu_bound,
    profile_bounds,
    rect_multiplicity,
    rect_regularity,
    segre_combine,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
