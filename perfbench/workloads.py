"""The benchmark's workloads: how each one builds its inputs from a seed,
runs one round of closed-loop operations against the library, and checks
every answer.

A round is the workload's whole input set, run one operation after another
(the next starts when the previous one returns).  Each operation ends in
one of three outcomes:

* ``ok``: every answer was checked and correct;
* ``refused``: a documented refusal (``TooLarge``, ``InsufficientDegree`` or
  CLI exit 4) stopped part of the work; whatever was computed still had to
  be correct;
* ``failed``: a wrong answer, an engine/oracle disagreement, or an
  exception outside the 0/2/3/4 exit-code contract.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

OK, REFUSED, FAILED = "ok", "refused", "failed"

MODULES = ("diagram", "minors", "kernels", "oracle", "engine", "closed_forms",
           "families", "errors", "cli")


def import_library() -> SimpleNamespace:
    """Import ferrers3d afresh (dropping any earlier copy from
    ``sys.modules``) and return its modules by short name."""
    for name in [m for m in sys.modules if m == "ferrers3d" or m.startswith("ferrers3d.")]:
        del sys.modules[name]
    importlib.import_module("ferrers3d")
    return SimpleNamespace(**{m: importlib.import_module(f"ferrers3d.{m}") for m in MODULES})


def classify_exception(lib: SimpleNamespace, exc: BaseException) -> str:
    """Documented refusals are ``refused``; anything else is ``failed``."""
    if isinstance(exc, (lib.errors.TooLarge, lib.errors.InsufficientDegree)):
        return REFUSED
    return FAILED


@dataclass
class Inputs:
    """What set-up hands to the timed section."""

    ops: list
    #: Seconds spent inside ``families.enumerate_diagrams``.
    enumerate_s: float = 0.0


@dataclass
class Result:
    status: str
    detail: str = ""
    #: The numbers the op computed, so traced and untraced runs can be compared.
    answer: tuple = ()


def systematic_sample(population: list, count: int, seed: int, key: Callable) -> list:
    """Equal-probability sample of ``count`` items: sort by ``key``, then
    take every (N/count)-th item from a seeded random offset.

    Every item has the same chance to be drawn, and each run holds the same
    mix of ``key`` values, so different seeds measure the same workload.
    """
    if not 0 < count <= len(population):
        raise ValueError(f"cannot sample {count} of {len(population)}")
    ordered = sorted(population, key=key)
    step = len(ordered) / count
    offset = random.Random(seed).random() * step
    return [ordered[int(offset + t * step)] for t in range(count)]


def _timed_iter(iterable, clock: list):
    """Yield from ``iterable`` and add the time spent producing items to
    ``clock[0]``."""
    it = iter(iterable)
    while True:
        started = time.perf_counter()
        try:
            item = next(it)
        except StopIteration:
            clock[0] += time.perf_counter() - started
            return
        clock[0] += time.perf_counter() - started
        yield item


def _pp_sample(lib, box: int, count: int, seed: int, key: Callable) -> Inputs:
    """Seeded systematic sample of the projection-property diagrams of the
    box [box]^3, ordered for sampling by ``key(diagram, index)`` and run in
    enumeration order (the order ``sweep`` uses)."""
    clock = [0.0]
    population = [
        (index, d)
        for index, d in enumerate(_timed_iter(lib.families.enumerate_diagrams(box, box, box), clock))
        if lib.diagram.has_projection_property(d)
    ]
    chosen = sorted(systematic_sample(population, count, seed, key=lambda row: key(row[1], row[0])))
    return Inputs([d for _, d in chosen], enumerate_s=clock[0])


# ---------------------------------------------------------------------------
# ladder: in-process CLI `invariants` calls on a fixed ladder
# ---------------------------------------------------------------------------

#: (label, layers, pinned (reg, mult) or None for a box checked by closed forms)
LADDER = (
    ("[4]^3", [[4] * 4] * 4, None),
    ("[5]^3", [[5] * 5] * 5, None),
    ("[6]^3", [[6] * 6] * 6, None),
    ("2x30x2", [[2] * 30] * 2, None),
    ("30x2x2", [[2] * 2] * 30, None),
    ("1x12x12", [[12] * 12], None),
    ("staircase30", [[5, 5, 5, 4, 1], [4, 4, 2]], (4, 150)),
)


def ladder_setup(lib, seed: int) -> Inputs:
    ops = []
    for label, layers, pinned in LADDER:
        if pinned is None:
            a, b, c = len(layers), len(layers[0]), layers[0][0]
            pinned = (lib.closed_forms.rect_regularity(a, b, c),
                      lib.closed_forms.rect_multiplicity(a, b, c))
        ops.append((label, json.dumps({"layers": layers}), pinned))
    return Inputs(ops)


def ladder_op(lib, engine, op) -> Result:
    # Every CLI command builds its own cold Engine; ``engine`` is unused.
    label, text, (reg, mult) = op
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(["invariants", text])
    if code == 4:
        return Result(REFUSED, f"{label}: exit 4: {err.getvalue().strip()}")
    if code != 0:
        return Result(FAILED, f"{label}: exit {code}: {err.getvalue().strip()}")
    got = json.loads(out.getvalue())["engine"]
    answer = (got["reg"], got["mult"])
    if answer != (reg, mult):
        return Result(FAILED, f"{label}: engine gave reg={got['reg']} e={got['mult']}, "
                              f"expected reg={reg} e={mult}", answer)
    return Result(OK, answer=answer)


# ---------------------------------------------------------------------------
# pp_sweep: sampled [4]^3 PP sweep with one shared engine and the facet oracle
# ---------------------------------------------------------------------------

PP_SWEEP_COUNT = 300
PP_SWEEP_FACET_LIMIT = 24


def pp_sweep_setup(lib, seed: int) -> Inputs:
    return _pp_sample(lib, 4, PP_SWEEP_COUNT, seed, key=lambda d, index: (d.size, index))


def pp_sweep_op(lib, engine, d) -> Result:
    rep = _triple(engine.invariants(d))
    bound = lib.closed_forms.mu_bound(d)
    if rep[1] > bound:
        return Result(FAILED, f"{d}: engine reg {rep[1]} above mu_bound {bound}", (rep,))
    if d.size > PP_SWEEP_FACET_LIMIT:
        return Result(OK, answer=(rep,))
    facet = _triple(lib.oracle.oracle_invariants(d, limit=PP_SWEEP_FACET_LIMIT))
    if facet != rep:
        return Result(FAILED, f"{d}: engine {rep} != facet oracle {facet}", (rep, facet))
    return Result(OK, answer=(rep, facet))


# ---------------------------------------------------------------------------
# crosscheck: sampled [3]^3 PP diagrams through every oracle
# ---------------------------------------------------------------------------

CROSSCHECK_COUNT = 80
CROSSCHECK_FACET_LIMIT = 27
CROSSCHECK_GB_POINTS = 12
CROSSCHECK_GB_DEGREE = 4
#: Measured cost of ``crosscheck_op`` on every PP diagram of [3]^3; written
#: by make_frame.py.
CROSSCHECK_FRAME = Path(__file__).with_name("crosscheck_frame.json")


def crosscheck_setup(lib, seed: int) -> Inputs:
    """Per-op cost in this population runs from 0.3 ms to 1.4 s, and a third
    of the diagrams end in a Hilbert refusal: samples of 30 ordered by size
    moved the round time by about a sixth between seeds.  Sampling in order
    of (refusal, measured cost) gives every seed the same mix."""
    frame = json.loads(CROSSCHECK_FRAME.read_text())["diagrams"]

    def key(d, index):
        if str(d) not in frame:
            raise ValueError(f"{d} is missing from {CROSSCHECK_FRAME.name}; run make_frame.py")
        seconds, refused = frame[str(d)]
        return (refused, seconds, index)
    return _pp_sample(lib, 3, CROSSCHECK_COUNT, seed, key)


def crosscheck_op(lib, engine, d) -> Result:
    rep = _triple(engine.invariants(d))
    facet = _triple(lib.oracle.oracle_invariants(d, limit=CROSSCHECK_FACET_LIMIT))
    if facet != rep:
        return Result(FAILED, f"{d}: engine {rep} != facet oracle {facet}", (rep, facet))
    status, detail, hilbert, holds = OK, "", None, None
    try:
        hilbert = _triple(lib.oracle.hilbert_invariants(d))
    except (lib.errors.TooLarge, lib.errors.InsufficientDegree) as exc:
        status, detail = REFUSED, f"{d}: hilbert: {exc}"
    if hilbert is not None and hilbert != rep:
        return Result(FAILED, f"{d}: engine {rep} != hilbert {hilbert}", (rep, facet, hilbert))
    if d.size <= CROSSCHECK_GB_POINTS:
        gb = lib.oracle.toric_gb_check(d, CROSSCHECK_GB_DEGREE)
        holds = gb.holds
        if not holds:
            return Result(FAILED, f"{d}: 2-minors fail to rewrite in degree {gb.witness_degree}",
                          (rep, facet, hilbert, holds))
    return Result(status, detail, (rep, facet, hilbert, holds))


def _triple(report) -> tuple[int, int, int]:
    return (report.ring_dim, report.reg, report.mult)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    op: Callable
    #: One Engine per round, handed to every op; otherwise ops get None.
    shared_engine: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder",
                 "fixed ladder of cold CLI invariants calls; per-state engine cost "
                 "(normality test, realized sets) is almost all the work",
                 ladder_setup, ladder_op, False),
        Workload("pp_sweep",
                 "300 sampled [4]^3 PP diagrams on one warm engine plus the facet oracle; "
                 "link validation and the memo dominate",
                 pp_sweep_setup, pp_sweep_op, True),
        Workload("crosscheck",
                 "80 sampled [3]^3 PP diagrams through facet, Hilbert and bounded-degree "
                 "oracles; Hilbert counting dominates, engine nearly idle",
                 crosscheck_setup, crosscheck_op, True),
    )
}


def run_round(lib, workload: Workload, ops: list, run_op: Callable | None = None):
    """Run every op once, through ``run_op`` (default ``workload.op``);
    return [(start, end, Result)], one row per op, in ``perf_counter`` seconds."""
    run_op = run_op or workload.op
    engine = lib.engine.Engine() if workload.shared_engine else None
    rows = []
    for op in ops:
        started = time.perf_counter()
        try:
            result = run_op(lib, engine, op)
        except Exception as exc:  # every exception is counted, never lost
            result = Result(classify_exception(lib, exc), f"{type(exc).__name__}: {exc}")
        rows.append((started, time.perf_counter(), result))
    return rows
