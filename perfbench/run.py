"""End-to-end and per-layer benchmark of ferrers3d.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload, one after another, each in a fresh
Python process.  A named workload runs in this process: it sets up its
inputs from the seed, runs closed-loop rounds over them until ``--seconds``
have passed (always at least one whole round), checks every answer, prints
each metric by name with its unit and, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced round is followed by traced rounds, and the metrics are the
per-layer ones (spans are written under ``perfbench/out/``).

The exit code is 0 only when every answer was correct.  The package is
imported from ``src/`` of the checkout; without it the command exits 2.
"""

from __future__ import annotations

import time

SCRIPT_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads as wl  # noqa: E402
from tracer import LAYERS, LEADING_EDGES, LINK_STATE, OP_SPAN, Tracer  # noqa: E402

#: name, unit, better; bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("diagrams_per_s", "1/s", "higher"),
    ("diagram_p50_ms", "ms", "lower"),
    ("diagram_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("answered_share", "share", "higher"),
)

#: Set-up is repeated at least this many times, and until this long is spent.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 2.0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for module_name, path in LAYERS:
        units[f"{module_name}.{path}.calls"] = "count"
        units[f"{module_name}.{path}.self_s"] = "s"
    units.update({
        f"{LINK_STATE}.total_s": "s",
        f"{LEADING_EDGES}.under_link_state_s": "s",
        f"{LEADING_EDGES}.vertices": "count",
        "engine.states": "count",
        "engine.cache_hits": "count",
        "engine.link_checks": "count",
        "engine.fallbacks": "count",
        "engine.memo_entries": "count",
        "engine.cache_hit_ratio": "ratio",
        "kernels.vertices": "count",
        "kernels.facets": "count",
        "oracle.hilbert_function.refused": "count",
        "oracle.hilbert_function.refused_s": "s",
        "oracle.hilbert_function.useful_ratio": "ratio",
        "oracle.hilbert_function.products": "count",
        "oracle.toric_gb_check.pairs_checked": "count",
        "families.enumerate_diagrams.s": "s",
        "trace_wall_s": "s",
        "trace_overhead_ratio": "ratio",
    })
    return units


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (0..100): the mean of
    the order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) law over
    their ranks, p = q/100.  Per-op times spread over four decades on some
    workloads, and a single order statistic there jumps between neighbours
    that differ by a fifth; the weighted mean does not."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    p = q / 100
    if len(ordered) == 1 or p in (0, 1):
        return ordered[-1] if p == 1 else ordered[0]
    a, b = (len(ordered) + 1) * p, (len(ordered) + 1) * (1 - p)
    cdf = [_beta_cdf(i / len(ordered), a, b) for i in range(len(ordered) + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(x, a, b) / a
    return 1 - front * _beta_fraction(1 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction for I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def set_up(workload: wl.Workload, seed: int):
    """Import the package and build the inputs several times; return the
    last copy and every set-up time.  The first sample counts from the start
    of this script, so it includes the interpreter's own imports."""
    samples = []
    started = SCRIPT_STARTED
    while True:
        lib = wl.import_library()
        inputs = workload.setup(lib, seed)
        samples.append(time.perf_counter() - started)
        if len(samples) >= SETUP_MAX_REPEATS or (
                len(samples) >= SETUP_MIN_REPEATS and sum(samples) >= SETUP_MIN_SECONDS):
            return lib, inputs, samples
        started = time.perf_counter()


def run_rounds(lib, workload, ops, seconds: float, run_op=None):
    """Closed-loop rounds until ``seconds`` have passed (at least one round);
    return one list of op rows per round."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(wl.run_round(lib, workload, ops, run_op))
    return rounds


def round_wall(rows) -> float:
    return rows[-1][1] - rows[0][0]


def end_to_end(rounds, setup_samples) -> dict[str, float]:
    """Times per round, then the median over rounds, so that the number of
    rounds that fit in a run does not change what a percentile means."""
    latencies = [[end - start for start, end, _ in rows] for rows in rounds]
    results = [r for rows in rounds for *_, r in rows]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(round_wall(rows) for rows in rounds),
        "diagrams_per_s": sum(1 for r in results if r.status != wl.FAILED)
        / sum(map(sum, latencies)),
        "diagram_p50_ms": statistics.median(percentile(lat, 50) for lat in latencies) * 1000,
        "diagram_p95_ms": statistics.median(percentile(lat, 95) for lat in latencies) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answered_share": sum(1 for r in results if r.status == wl.OK) / len(results),
    }


def traced_run(lib, workload, inputs, seconds: float, seed: int):
    """One untraced round, then traced rounds; return (rounds, metrics)."""
    base = wl.run_round(lib, workload, inputs.ops)
    tracer = Tracer()
    run_op = tracer.traced(OP_SPAN, workload.op)
    tracer.install(lib)
    try:
        rounds = run_rounds(lib, workload, inputs.ops, seconds, run_op)
    finally:
        tracer.restore()
    walls = [round_wall(rows) for rows in rounds]
    metrics = tracer.layer_metrics()
    metrics["families.enumerate_diagrams.s"] = inputs.enumerate_s
    metrics["trace_wall_s"] = statistics.median(walls)
    metrics["trace_overhead_ratio"] = statistics.median(walls) / round_wall(base) - 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz")
    return [base, *rounds], metrics


def run_workload(args) -> int:
    if not (SRC / "ferrers3d" / "__init__.py").is_file():
        print(f"error: no ferrers3d package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]
    lib, inputs, setup_samples = set_up(workload, args.seed)
    if not Path(lib.engine.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ferrers3d from {lib.engine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        rounds, metrics = traced_run(lib, workload, inputs, args.seconds, args.seed)
        units = per_layer_units()
    else:
        rounds = run_rounds(lib, workload, inputs.ops, args.seconds)
        metrics = end_to_end(rounds, setup_samples)
        units = {name: unit for name, unit, _ in END_TO_END}

    results = [r for rows in rounds for *_, r in rows]
    failures = [r for r in results if r.status == wl.FAILED]
    for r in failures[:10]:
        print(f"FAILED {r.detail}", file=sys.stderr)
    walls = " ".join(f"{round_wall(rows):.3f}" for rows in rounds)
    print(f"# {workload.name}: seed {args.seed}, {len(inputs.ops)} ops per round, "
          f"{len(rounds)} rounds ({walls} s), {len(results)} latency samples, "
          f"setup repeated {len(setup_samples)}x, kernels {lib.kernels.IMPLEMENTATION}, "
          f"trace {args.trace}")
    for name, unit in units.items():
        print(f"{workload.name}\t{name}\t{metrics[name]:.6g}\t{unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": code == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
