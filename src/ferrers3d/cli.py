"""Command line interface.

Every subcommand reads diagrams as JSON (inline or @file), writes one JSON
document to stdout (CSV in sweep mode on request) and signals through the
exit code: 0 ok, 2 input error (including a number out of range), 3
cross-check disagreement or internal engine error (the message carries the
diagram as a reproduction), 4 unsupported input, size limit, or links nested
too deeply for the engine's recursion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

from . import closed_forms, families, minors, oracle
from .diagram import (
    INDUCTION,
    Diagram,
    Point,
    diagram_from_json,
    diagram_to_json,
    has_projection_property,
    has_strong_projection_property,
    profile,
    zones,
)
from .engine import Engine, SuffixState
from .errors import Ferrers3DError, InsufficientDegree, LinkMismatch, TooLarge, UnsupportedDiagram

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREE = 3
EXIT_UNSUPPORTED = 4


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_diagram(text: str) -> Diagram:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliFailure(EXIT_INPUT, f"cannot read {text[1:]}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliFailure(EXIT_INPUT, f"invalid JSON: {exc}") from exc
    try:
        return diagram_from_json(data)
    except Ferrers3DError as exc:
        raise _CliFailure(EXIT_INPUT, str(exc)) from exc


def _report_json(report: oracle.InvariantsReport) -> dict:
    return {
        "ring_dim": report.ring_dim,
        "reg": report.reg,
        "mult": report.mult,
        "red_num": report.red_num,
        "source": report.source,
        "grobner_guarantee": report.grobner_guarantee,
    }


@contextmanager
def _engine_errors(diagram: Diagram):
    """An internal engine error, including a link that failed validation
    beyond the fallback limit, exits 3 and names the diagram as its
    reproduction."""
    try:
        yield
    except RecursionError:  # a RuntimeError too, but it exits 4 in main()
        raise
    except (RuntimeError, LinkMismatch) as exc:
        raise _CliFailure(
            EXIT_DISAGREE,
            f"internal engine error: {exc}; reproduction: {json.dumps(diagram_to_json(diagram))}",
        ) from exc


def _engine_invariants(engine: Engine, diagram: Diagram, order: str = "induction"):
    with _engine_errors(diagram):
        return engine.invariants(diagram, order=order)


def _emit(obj: object) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    diagram = _load_diagram(args.diagram)
    out = {
        "input": diagram_to_json(diagram),
        "dims": list((diagram.a, diagram.b, diagram.c)),
        "size": diagram.size,
        "projection_property": has_projection_property(diagram),
        "strong_projection_property": has_strong_projection_property(diagram),
        "profile_xy": list(profile(diagram, "xy")),
        "profile_xz": list(profile(diagram, "xz")),
    }
    if args.zones is not None:
        u = Point(*args.zones)
        try:
            zm = zones(diagram, u)
        except Ferrers3DError as exc:
            raise _CliFailure(EXIT_INPUT, str(exc)) from exc
        out["zones"] = {
            f"z{n}": sorted(list(p) for p in zm.zone(n)) for n in range(1, 7)
        }
    _emit(out)
    return EXIT_OK


def _bounds_json(diagram: Diagram) -> dict:
    a, b, c = diagram.a, diagram.b, diagram.c
    out = {
        "mu_reg_bound": closed_forms.mu_bound(diagram),
        "box_reg_bound": closed_forms.rect_regularity(a, b, c),
        "box_mult_bound": closed_forms.rect_multiplicity(a, b, c),
        "source": "closed-form",
    }
    if has_strong_projection_property(diagram):
        pb = closed_forms.profile_bounds(diagram)
        out["profile_reg_bound"] = pb.profile_reg_bound
        out["profile_mult_bound"] = pb.profile_mult_bound
        out["reg_bound"] = pb.reg_bound
        out["mult_bound"] = pb.mult_bound
    return out


def _cmd_invariants(args) -> int:
    diagram = _load_diagram(args.diagram)
    engine = Engine(cache_cap=args.cache_cap)
    pp = has_projection_property(diagram)
    report: dict = {
        "input": diagram_to_json(diagram),
        "projection_property": pp,
        "strong_projection_property": has_strong_projection_property(diagram),
        "mu_reg_bound": closed_forms.mu_bound(diagram),
    }
    started = time.monotonic()
    engine_report = None
    if pp:
        engine_report = _engine_invariants(engine, diagram, args.order)
        report["engine"] = _report_json(engine_report)
    elif not args.oracle and not args.hilbert:
        raise _CliFailure(
            EXIT_UNSUPPORTED,
            "the diagram lacks the projection property; rerun with --oracle or --hilbert",
        )

    checks = []
    if args.oracle:
        try:
            facet_report = oracle.oracle_invariants(diagram, limit=args.limit)
            report["oracle"] = _report_json(facet_report)
            checks.append(facet_report)
        except TooLarge as exc:
            report["oracle"] = {"skipped": str(exc)}
    if args.hilbert:
        try:
            hilbert_report = oracle.hilbert_invariants(diagram)
            report["hilbert"] = _report_json(hilbert_report)
            checks.append(hilbert_report)
        except (TooLarge, InsufficientDegree) as exc:
            report["hilbert"] = {"skipped": str(exc)}
    if args.bounds:
        report["bounds"] = _bounds_json(diagram)

    status = "skipped"
    disagreement = None
    if engine_report is not None and checks:
        status = "agree"
        for other in checks:
            if (other.ring_dim, other.reg, other.mult) != (
                engine_report.ring_dim,
                engine_report.reg,
                engine_report.mult,
            ):
                status = "disagree"
                disagreement = {
                    "reproduction": diagram_to_json(diagram),
                    "engine": _report_json(engine_report),
                    "other": _report_json(other),
                }
    report["cross_check"] = status
    if disagreement:
        report["disagreement"] = disagreement
    report["elapsed_seconds"] = round(time.monotonic() - started, 6)
    _emit(report)
    return EXIT_DISAGREE if status == "disagree" else EXIT_OK


def _cmd_gens(args) -> int:
    diagram = _load_diagram(args.diagram)
    pts = sorted(minors.monomial_generators(diagram))
    out = {
        "monomials": [list(p) for p in pts],
        "minors": [
            {
                "lead": sorted(list(p) for p in m.lead),
                "trail": sorted(list(p) for p in m.trail),
                "directions": sorted(m.directions),
            }
            for m in minors.two_minors(pts)
        ],
    }
    _emit(out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    diagram = _load_diagram(args.diagram)
    out: dict = {"input": diagram_to_json(diagram)}
    summary = oracle.complex_summary(diagram.points(), limit=args.limit)
    complex_json = {
        "facet_count": len(summary.facets),
        "pure": summary.pure,
        "f_vector": list(summary.f_vector),
        "h_vector": list(summary.h_vector),
        "complex_dim": summary.complex_dim,
    }
    if len(summary.facets) <= args.facet_threshold:
        complex_json["facets"] = [sorted(list(p) for p in f) for f in summary.facets]
    out["complex"] = complex_json
    if args.hilbert_degree is not None:
        table = oracle.hilbert_function(diagram, args.hilbert_degree)
        out["hilbert"] = list(table.values)
    _emit(out)
    return EXIT_OK


def _link_diagnostic(d1: Diagram, d2: Diagram, engine: Engine) -> list[dict]:
    """Shared normal first-layer points whose link multiplicity drops from
    the smaller diagram to the larger one; explains monotonicity failures
    outside the strong projection regime."""
    out = []
    for u in d1.first_layer_order(INDUCTION)[0]:
        if u not in d2:
            continue
        states = [SuffixState(d, u, INDUCTION) for d in (d1, d2)]
        if not all(s.is_normal for s in states):
            continue
        values = []
        for s in states:
            with _engine_errors(s.host):
                link, ok = engine.link_state(s)
                if not ok:
                    values = []
                    break
                values.append(engine.suffix_invariants(link))
        if len(values) == 2 and values[0][1] > values[1][1]:
            out.append(
                {
                    "u": list(u),
                    "link_mult": [values[0][1], values[1][1]],
                    "link_reg": [values[0][0], values[1][0]],
                }
            )
    return out


def _cmd_compare(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    if not d1.issubset(d2):
        raise _CliFailure(EXIT_INPUT, "the first diagram is not contained in the second")
    engine = Engine()
    reports = []
    for diagram in (d1, d2):
        if has_projection_property(diagram):
            reports.append(_engine_invariants(engine, diagram))
        else:
            reports.append(oracle.oracle_invariants(diagram))
    spp = has_strong_projection_property(d1) and has_strong_projection_property(d2)
    monotone_reg = reports[0].reg <= reports[1].reg
    monotone_mult = reports[0].mult <= reports[1].mult
    out = {
        "first": _report_json(reports[0]),
        "second": _report_json(reports[1]),
        "hypothesis_strong_projection": spp,
        "monotone_reg": monotone_reg,
        "monotone_mult": monotone_mult,
    }
    if not spp and has_projection_property(d1) and has_projection_property(d2):
        out["hypothesis_failure"] = "monotonicity is only guaranteed under the strong projection property"
        out["link_diagnostic"] = _link_diagnostic(d1, d2, engine)
    _emit(out)
    if spp and not (monotone_reg and monotone_mult):
        return EXIT_DISAGREE
    return EXIT_OK


def _sweep_row(diagram: Diagram, engine: Engine, use_oracle: bool, facet_limit: int) -> dict:
    pp = has_projection_property(diagram)
    row: dict = {
        "layers": str(diagram),
        "size": diagram.size,
        "a": diagram.a,
        "b": diagram.b,
        "c": diagram.c,
        "pp": pp,
        "spp": has_strong_projection_property(diagram),
    }
    report = None
    if pp:
        report = _engine_invariants(engine, diagram)
    elif use_oracle:
        try:
            report = oracle.oracle_invariants(diagram, limit=facet_limit)
        except TooLarge:
            report = None
    if report is None:
        row.update({"ring_dim": None, "reg": None, "mult": None, "source": "skipped"})
        return row
    row.update(
        {
            "ring_dim": report.ring_dim,
            "reg": report.reg,
            "mult": report.mult,
            "source": report.source,
        }
    )
    if pp and use_oracle:
        try:
            check = oracle.oracle_invariants(diagram, limit=facet_limit)
            row["oracle_agree"] = (check.ring_dim, check.reg, check.mult) == (
                report.ring_dim,
                report.reg,
                report.mult,
            )
        except TooLarge:
            row["oracle_agree"] = None
    return row


def _cmd_sweep(args) -> int:
    a, b, c = args.box
    total = families.count_diagrams(a, b, c)
    if args.sample is None and total > args.limit:
        raise _CliFailure(
            EXIT_UNSUPPORTED,
            f"the box holds {total} diagrams, above the limit {args.limit}; "
            "raise --limit or use --sample",
        )
    if args.sample is not None:
        diagrams = families.sample_diagrams(a, b, c, args.sample, seed=args.seed)
    else:
        diagrams = list(families.enumerate_diagrams(a, b, c))
    if args.filter == "pp":
        diagrams = [d for d in diagrams if has_projection_property(d)]
    elif args.filter == "spp":
        diagrams = [d for d in diagrams if has_strong_projection_property(d)]

    engine = Engine(cache_cap=args.cache_cap)
    rows = [_sweep_row(d, engine, args.oracle, args.facet_limit) for d in diagrams]
    disagree = any(row.get("oracle_agree") is False for row in rows)

    if args.pairs:
        eligible = [
            (d, row) for d, row in zip(diagrams, rows) if row["spp"] and row["source"] == "engine"
        ]
        violations = []
        checked = 0
        for t, (small, small_row) in enumerate(eligible):
            for big, big_row in eligible:
                if small is big or not small.issubset(big):
                    continue
                checked += 1
                if small_row["reg"] > big_row["reg"] or small_row["mult"] > big_row["mult"]:
                    violations.append({"first": small_row["layers"], "second": big_row["layers"]})
        _emit(
            {
                "diagrams": len(rows),
                "nested_pairs_checked": checked,
                "monotonicity_violations": violations,
            }
        )
        return EXIT_DISAGREE if violations or disagree else EXIT_OK

    if args.format == "csv":
        cols = ["layers", "size", "a", "b", "c", "pp", "spp", "ring_dim", "reg", "mult",
                "source", "oracle_agree"]
        sys.stdout.write(",".join(cols) + "\n")
        for row in rows:
            sys.stdout.write(",".join(str(row.get(col, "")) for col in cols) + "\n")
    else:
        for row in rows:
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
    return EXIT_DISAGREE if disagree else EXIT_OK


def _cmd_search(args) -> int:
    a, b, c = args.box
    total = families.count_diagrams(a, b, c)
    if total > args.limit:
        raise _CliFailure(
            EXIT_UNSUPPORTED,
            f"the box holds {total} diagrams, above the limit {args.limit}",
        )
    engine = Engine(cache_cap=args.cache_cap)
    checked = 0
    candidates = []
    disagree = False
    for diagram in families.enumerate_diagrams(a, b, c):
        if not has_projection_property(diagram):
            continue
        checked += 1
        report = _engine_invariants(engine, diagram)
        bound = closed_forms.rect_multiplicity(diagram.a, diagram.b, diagram.c)
        if report.mult > bound:
            entry = {
                "layers": str(diagram),
                "mult": report.mult,
                "box_mult": bound,
            }
            try:
                check = oracle.oracle_invariants(diagram, limit=args.facet_limit)
                entry["oracle_mult"] = check.mult
                if check.mult != report.mult:
                    disagree = True
            except TooLarge:
                entry["oracle_mult"] = None
            try:
                entry["hilbert_mult"] = oracle.hilbert_invariants(diagram).mult
                if entry["hilbert_mult"] != report.mult:
                    disagree = True
            except (TooLarge, InsufficientDegree):
                entry["hilbert_mult"] = None
            candidates.append(entry)
    _emit(
        {
            "diagrams_checked": checked,
            "counterexamples": candidates,
            "summary": "no counterexample found" if not candidates else "candidates found",
        }
    )
    return EXIT_DISAGREE if disagree else EXIT_OK


def _cmd_gb_check(args) -> int:
    diagram = _load_diagram(args.diagram)
    report = oracle.toric_gb_check(diagram, args.max_degree, monomial_limit=args.limit)
    out: dict = {
        "input": diagram_to_json(diagram),
        "max_degree": args.max_degree,
        "holds": report.holds,
        "pairs_checked": report.pairs_checked,
        "failing_degrees": list(report.failing_degrees),
    }
    if report.witness is not None:
        out["witness_degree"] = report.witness_degree
        out["witness"] = [[list(p) for p in side] for side in report.witness]
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type for counts, sizes, limits and degrees: an int >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferrers3d",
        description="Invariants of toric rings of three-dimensional Ferrers diagrams",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def diagram_arg(p):
        p.add_argument("diagram", help="diagram JSON (inline or @path)")

    p = sub.add_parser("check", help="validate a diagram and report its properties")
    diagram_arg(p)
    p.add_argument("--zones", type=int, nargs=3, default=None, metavar=("I", "J", "K"),
                   help="dump the six zones around this point")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="dimension, regularity, multiplicity, reduction number")
    diagram_arg(p)
    p.add_argument("--oracle", action="store_true", help="cross-check with facet enumeration")
    p.add_argument("--hilbert", action="store_true", help="cross-check with Hilbert counting")
    p.add_argument("--bounds", action="store_true", help="report closed-form bounds")
    p.add_argument("--order", choices=["induction", "lex"], default="induction")
    p.add_argument("--limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT,
                   help="facet oracle vertex limit")
    p.add_argument("--cache-cap", type=_at_least(1), default=None, help="memo cache size cap")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("gens", help="monomial generators and 2-minors as JSON")
    diagram_arg(p)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("oracle", help="facet summary and Hilbert table")
    diagram_arg(p)
    p.add_argument("--limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT)
    p.add_argument("--hilbert-degree", type=_at_least(0), default=None)
    p.add_argument("--facet-threshold", type=_at_least(0), default=200,
                   help="suppress the facet list above this count")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare", help="invariants of a nested pair of diagrams")
    p.add_argument("diagram1")
    p.add_argument("diagram2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="enumerate diagrams in a box and report each")
    p.add_argument("--box", type=_at_least(1), nargs=3, required=True, metavar=("A", "B", "C"))
    p.add_argument("--filter", choices=["all", "pp", "spp"], default="all")
    p.add_argument("--pairs", action="store_true",
                   help="check monotonicity over nested strong-projection pairs")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--limit", type=_at_least(1), default=20000, help="maximum diagrams to enumerate")
    p.add_argument("--facet-limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT)
    p.add_argument("--sample", type=_at_least(1), default=None, help="random sample instead of enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-cap", type=_at_least(1), default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="hunt for multiplicity-above-box counterexamples")
    p.add_argument("--box", type=_at_least(1), nargs=3, required=True, metavar=("A", "B", "C"))
    p.add_argument("--limit", type=_at_least(1), default=20000)
    p.add_argument("--facet-limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT)
    p.add_argument("--cache-cap", type=_at_least(1), default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gb-check", help="bounded-degree binomial reduction check")
    diagram_arg(p)
    p.add_argument("--max-degree", type=_at_least(2), default=4)
    p.add_argument("--limit", type=_at_least(1), default=oracle.DEFAULT_MONOMIAL_LIMIT)
    p.set_defaults(func=_cmd_gb_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (TooLarge, UnsupportedDiagram) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Ferrers3DError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except RecursionError as exc:
        print(f"the input is too deep for the engine: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
