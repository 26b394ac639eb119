"""Box enumeration against its recursive reference, and the box verbs of
the CLI on deep boxes and in bounded memory."""

import itertools
import json
import sys
import weakref

import pytest

from ferrers3d import families
from ferrers3d.cli import main
from ferrers3d.diagram import Diagram
from ferrers3d.engine import Engine

# The recursive forms, one call per column and one generator per layer: the
# reference order the stack walks must keep.


def reference_subpartitions(bound):
    out = [()]

    def rec(prefix, idx):
        if idx >= len(bound):
            return
        hi = bound[idx] if not prefix else min(bound[idx], prefix[-1])
        for h in range(1, hi + 1):
            prefix.append(h)
            out.append(tuple(prefix))
            rec(prefix, idx + 1)
            prefix.pop()

    rec([], 0)
    return out


def reference_enumerate(a, b, c):
    def rec(layers):
        yield Diagram(tuple(layers))
        if len(layers) == a:
            return
        for nxt in reference_subpartitions(layers[-1]):
            if nxt:
                layers.append(nxt)
                yield from rec(layers)
                layers.pop()

    for top in reference_subpartitions((c,) * b):
        if top:
            yield from rec([top])


BOXES = list(itertools.product(range(1, 4), repeat=3)) + [(4, 4, 4), (2, 3, 5), (5, 1, 3)]


@pytest.mark.parametrize("dims", BOXES, ids=lambda dims: "x".join(map(str, dims)))
def test_enumeration_matches_reference(dims):
    assert list(families.enumerate_diagrams(*dims)) == list(reference_enumerate(*dims))


def test_subpartitions_match_reference():
    for bound in reference_subpartitions((5, 5, 5, 5)):
        assert families.subpartitions(bound) == reference_subpartitions(bound)
        assert families.subpartitions(bound) == sorted(families.subpartitions(bound))


@pytest.fixture
def shallow_stack():
    """A recursion limit 120 frames above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 120)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("verb", ["sweep", "search"])
@pytest.mark.parametrize("box", [("1", "300", "1"), ("300", "1", "1")], ids=["1x300x1", "300x1x1"])
def test_deep_box_needs_no_recursion(capsys, shallow_stack, verb, box):
    code = main([verb, "--box", *box])
    out = capsys.readouterr().out
    assert code == 0
    if verb == "sweep":
        assert len(out.splitlines()) == 300
    else:
        assert json.loads(out)["diagrams_checked"] == 300


@pytest.mark.parametrize("argv", [
    ("sweep", "--box", "3", "3", "3", "--filter", "pp"),
    ("sweep", "--box", "3", "3", "3", "--filter", "spp", "--pairs"),
    ("search", "--box", "3", "3", "3"),
], ids=["sweep", "sweep-pairs", "search"])
def test_box_verbs_keep_no_evaluated_diagram(capsys, monkeypatch, argv):
    invariants = Engine.invariants
    evaluated = []
    most_alive = 0

    def recording(self, diagram, order="induction"):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for ref in evaluated))
        evaluated.append(weakref.ref(diagram))
        return invariants(self, diagram, order=order)

    monkeypatch.setattr(Engine, "invariants", recording)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(evaluated) > 100
    assert most_alive <= 1
