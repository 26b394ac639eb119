import ferrers3d

# The package's public names, pinned so that a removed export cannot come
# back unnoticed; a new one belongs here only with a user path that calls it.
PUBLIC = [
    "Binomial2Minor", "ComplexSummary", "Diagram", "Engine", "GBCheckReport",
    "HilbertTable", "InvariantsReport", "Point", "ProfileBounds", "SegreFactor",
    "box", "closed_forms", "diagram", "diagram_from_json",
    "diagram_to_json", "engine", "errors", "ferrers2d_multiplicity",
    "ferrers2d_regularity", "from_generators", "from_points",
    "has_projection_property", "has_strong_projection_property",
    "hilbert_function", "hilbert_invariants", "kernels", "minors", "mu_bound",
    "oracle", "oracle_invariants", "profile", "profile_bounds",
    "rect_multiplicity", "rect_regularity", "segre_combine", "toric_gb_check",
    "two_minors", "validate", "zones",
]


def test_public_surface_is_pinned():
    assert sorted(ferrers3d.__all__) == PUBLIC
