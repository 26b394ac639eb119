"""Self-tests of the benchmark: tracer coverage and fidelity, self-time
accounting, the percentile helper, outcome classification, and agreement
between BENCHMARK.json and the metrics the command prints.

Run from the root of a source checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, OP_SPAN, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return wl.import_library()


def tiny_inputs(lib) -> dict[str, list]:
    """Small stand-ins for each workload's inputs, seconds to run in total."""
    cf = lib.closed_forms
    ladder = [("[2]^3", json.dumps({"layers": [[2, 2], [2, 2]]}),
               (cf.rect_regularity(2, 2, 2), cf.rect_multiplicity(2, 2, 2))),
              ("staircase30", json.dumps({"layers": [[5, 5, 5, 4, 1], [4, 4, 2]]}), (4, 150))]
    def by_size(d, index):
        return (d.size, index)
    return {
        "ladder": ladder,
        "pp_sweep": wl._pp_sample(lib, 3, 8, 1, by_size).ops,
        "crosscheck": wl._pp_sample(lib, 2, 6, 1, by_size).ops,
    }


def traced_round(lib, name: str, ops: list):
    workload = wl.WORKLOADS[name]
    tracer = Tracer()
    tracer.install(lib)
    try:
        rows = wl.run_round(lib, workload, ops, tracer.traced(OP_SPAN, workload.op))
    finally:
        tracer.restore()
    return tracer, run.round_wall(rows), rows


def test_every_layer_records_calls_on_tiny_inputs(lib):
    calls = {f"{m}.{p}": 0 for m, p in LAYERS}
    for name, ops in tiny_inputs(lib).items():
        tracer, _, rows = traced_round(lib, name, ops)
        assert all(r.status == wl.OK for *_, r in rows), [r.detail for *_, r in rows]
        metrics = tracer.layer_metrics()
        for layer in calls:
            calls[layer] += metrics[f"{layer}.calls"]
    assert all(count > 0 for count in calls.values()), calls


def test_traced_answers_equal_untraced(lib):
    for name, ops in tiny_inputs(lib).items():
        plain = wl.run_round(lib, wl.WORKLOADS[name], ops)
        _, _, traced = traced_round(lib, name, ops)
        assert [r.answer for *_, r in traced] == [r.answer for *_, r in plain]
        assert all(r.answer for *_, r in plain)


def test_restore_puts_back_every_binding(lib):
    modules = [m for name, m in sys.modules.items() if name.startswith("ferrers3d")]
    before = [dict(vars(m)) for m in modules] + [dict(vars(lib.engine.Engine))]
    original = lib.minors.is_normal_in
    tracer = Tracer()
    tracer.install(lib)
    assert lib.minors.is_normal_in is not original
    tracer.restore()
    after = [dict(vars(m)) for m in modules] + [dict(vars(lib.engine.Engine))]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_self_times_are_nonnegative_and_fit_in_the_wall_time(lib):
    ops = tiny_inputs(lib)["pp_sweep"]
    tracer, wall, _ = traced_round(lib, "pp_sweep", ops)
    assert tracer.spans and all(s.self_s >= -1e-9 for s in tracer.spans)
    assert sum(s.self_s for s in tracer.spans) <= wall
    metrics = tracer.layer_metrics()
    layer_self = sum(metrics[f"{m}.{p}.self_s"] for m, p in LAYERS)
    assert 0 < layer_self <= wall
    assert metrics["engine.cache_hit_ratio"] <= 1
    run_level = {"families.enumerate_diagrams.s", "trace_wall_s", "trace_overhead_ratio"}
    assert set(run.per_layer_units()) == set(metrics) | run_level


def test_percentile_on_known_data():
    assert run.percentile([3, 1, 2, 4], 50) == pytest.approx(2.5)
    assert run.percentile([7], 95) == 7
    # n = 3, p = 1/2: weights I_x(2, 2) = 3x^2 - 2x^3 over thirds: 7/27, 13/27, 7/27.
    assert run.percentile([27, 0, 0], 50) == pytest.approx(7)
    values = list(range(101))
    assert run.percentile(values, 0) == 0 and run.percentile(values, 100) == 100
    assert run.percentile(values, 50) == pytest.approx(50)
    assert run.percentile(values, 95) == pytest.approx(95, abs=0.5)
    assert run.percentile(values, 25) < run.percentile(values, 50) < run.percentile(values, 75)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_refusals_are_refused_and_wrong_answers_failed(lib, monkeypatch):
    errors = lib.errors
    assert wl.classify_exception(lib, errors.TooLarge("x")) == wl.REFUSED
    assert wl.classify_exception(lib, errors.InsufficientDegree("x")) == wl.REFUSED
    assert wl.classify_exception(lib, RuntimeError("x")) == wl.FAILED
    assert wl.classify_exception(lib, errors.LinkMismatch("x")) == wl.FAILED

    # CLI exit 4 (no projection property) is a refusal; a wrong pin a failure.
    no_pp = json.dumps({"layers": [[2, 1], [2, 1]]})
    assert wl.ladder_op(lib, None, ("no-pp", no_pp, (0, 1))).status == wl.REFUSED
    box = json.dumps({"layers": [[2, 2], [2, 2]]})
    assert wl.ladder_op(lib, None, ("[2]^3", box, (9, 9))).status == wl.FAILED

    d = lib.diagram.box(2, 2, 2)
    engine = lib.engine.Engine()
    assert wl.crosscheck_op(lib, engine, d).status == wl.OK

    def refuse(*args, **kwargs):
        raise errors.TooLarge("over the limit")
    monkeypatch.setattr(lib.oracle, "hilbert_invariants", refuse)
    assert wl.crosscheck_op(lib, engine, d).status == wl.REFUSED
    monkeypatch.undo()

    true_report = lib.oracle.oracle_invariants(d)
    wrong = lib.oracle.InvariantsReport(true_report.ring_dim, true_report.reg,
                                        true_report.mult + 1, true_report.red_num, "engine")
    monkeypatch.setattr(lib.oracle, "oracle_invariants", lambda *a, **k: wrong)
    assert wl.crosscheck_op(lib, lib.engine.Engine(), d).status == wl.FAILED
    assert wl.pp_sweep_op(lib, lib.engine.Engine(), d).status == wl.FAILED

    # An exception escaping an op is classified, not lost.
    rows = wl.run_round(lib, wl.WORKLOADS["crosscheck"], [d], run_op=refuse)
    assert rows[0][2].status == wl.REFUSED


def test_same_seed_gives_same_inputs(lib):
    first = wl.crosscheck_setup(lib, 7).ops
    assert first == wl.crosscheck_setup(lib, 7).ops
    assert len(first) == wl.CROSSCHECK_COUNT == len(set(first))
    assert all(lib.diagram.has_projection_property(d) for d in first)


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
