"""The library's input contract, over the whole public surface.

A bad argument raises ``InvalidInput`` and is never coerced; the tests
beside each module pin that for the known bad inputs.  This test holds the
whole surface to its weaker half on random draws: every callable in
``ferrers3d.__all__``, and ``Engine().invariants``, either returns or raises
a ``Ferrers3DError``, whatever its parameters other than a ``diagram`` are
given.  A ``diagram`` parameter given something else is outside the
contract, so it always gets a small valid diagram here.  The classes are
records that store their fields unchecked, so constructing one returns.
"""

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

import ferrers3d
from ferrers3d import Engine, SegreFactor, box, validate
from ferrers3d.errors import Ferrers3DError

#: Every callable the contract covers, by name.
CALLABLES = {name: getattr(ferrers3d, name) for name in ferrers3d.__all__
             if callable(getattr(ferrers3d, name))}
CALLABLES["Engine().invariants"] = Engine().invariants

#: One point, a flat box, a strong-projection staircase, and a diagram
#: without the projection property.
DIAGRAMS = [validate([[1]]), box(2, 2, 1), validate([[2, 1], [1]]), validate([[2, 1], [2, 1]])]

#: A valid value for each parameter without a default, used while another
#: parameter of the same call gets a bad one.
VALID = {
    "a": 2, "b": 2, "c": 2, "data": {"layers": [[1]]}, "parts": [2, 1], "gens": [(1, 2, 1)],
    "points": [(1, 1, 1)], "degree": 2, "plane": "xy", "factors": [SegreFactor(2, 0, 1)],
    "max_degree": 2, "layers": [[1]], "u": (1, 1, 1),
}

#: Degrees and budgets, whose cost a budget bounds, also get huge ints.
BOUNDED = {"degree", "max_degree", "product_limit", "monomial_limit", "limit"}
HUGE = st.integers(min_value=2 ** 31)

#: Negative ints, floats, bools, None, strings and nested lists.
BAD = st.one_of(
    st.integers(max_value=-1),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.recursive(st.integers(-1, 3), lambda inner: st.lists(inner, max_size=3), max_leaves=8),
)


@st.composite
def calls(draw):
    """A callable's name and keyword arguments: a bad value for one covered
    parameter, and valid values for the others (bad ones for a record's
    other fields)."""
    name = draw(st.sampled_from(sorted(CALLABLES)))
    params = inspect.signature(CALLABLES[name]).parameters
    covered = [p for p in params if p != "diagram"]
    bad = draw(st.sampled_from(covered)) if covered else None
    kwargs = {}
    for p, param in params.items():
        if p == "diagram":
            kwargs[p] = draw(st.sampled_from(DIAGRAMS))
        elif p == bad or (param.default is param.empty and p not in VALID):
            kwargs[p] = draw(st.one_of(BAD, HUGE) if p in BOUNDED else BAD)
        elif param.default is param.empty:
            kwargs[p] = VALID[p]
    return name, kwargs


@settings(max_examples=400, deadline=None)
@given(calls())
def test_every_public_call_returns_or_raises_a_package_error(call):
    name, kwargs = call
    try:
        CALLABLES[name](**kwargs)
    except Ferrers3DError:
        pass
