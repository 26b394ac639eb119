"""Command line interface.

Every subcommand reads diagrams as JSON (inline or @file), writes one JSON
document to stdout (CSV in sweep mode on request) and signals through the
exit code: 0 ok, 2 input error (including a number out of range), 3
cross-check disagreement or internal engine or oracle error (the message
carries the diagram as a reproduction), 4 unsupported input, size limit,
or input nested past Python's recursion limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

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
from .engine import PAST_LAYER_1, Engine, SuffixState, successor
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
    return diagram_from_json(data)


@contextmanager
def _internal_errors(diagram: Diagram, source: str = "engine"):
    """An internal error of the engine or an oracle, including a link that
    failed validation (``LinkMismatch``), exits 3 and names the diagram as
    its reproduction."""
    try:
        yield
    except RecursionError:  # a RuntimeError too, but it exits 4 in main()
        raise
    except (RuntimeError, LinkMismatch) as exc:
        raise _CliFailure(
            EXIT_DISAGREE,
            f"internal {source} error: {exc}; reproduction: {json.dumps(diagram_to_json(diagram))}",
        ) from exc


def _engine_invariants(engine: Engine, diagram: Diagram, order: str = "induction"):
    with _internal_errors(diagram):
        return engine.invariants(diagram, order=order)


def _oracle_check(diagram: Diagram, route: str, limit: int):
    """The report of the facet (route "oracle") or Hilbert ("hilbert")
    oracle and None, or None and the reason the oracle refused."""
    with _internal_errors(diagram, "oracle"):
        try:
            if route == "hilbert":
                return oracle.hilbert_invariants(diagram), None
            return oracle.oracle_invariants(diagram, limit=limit), None
        except (TooLarge, InsufficientDegree) as exc:
            return None, str(exc)


def _agrees(report: oracle.InvariantsReport, check: oracle.InvariantsReport | None) -> bool | None:
    """Whether an oracle's check gives the report's (ring_dim, reg, mult);
    None when the oracle refused."""
    if check is None:
        return None
    return (check.ring_dim, check.reg, check.mult) == (report.ring_dim, report.reg, report.mult)


#: Largest box count a refusal states exactly; a larger box is not counted.
_STATED_COUNT = 10 ** 12


def _box_diagrams(box, limit: int, hint: str = "", sample: int | None = None, seed: int = 0):
    """A seeded sample of the diagrams inside the box, or all of them; a
    sample or a box larger than ``limit`` exits 4 before anything is built."""
    a, b, c = box
    cap = max(limit, _STATED_COUNT)
    total = families.count_at_most(a, b, c, cap) if sample is None else sample
    if total is None or total > limit:
        what = "the sample draws" if sample is not None else "the box holds"
        count = f"more than {cap}" if total is None else total
        raise _CliFailure(EXIT_UNSUPPORTED, f"{what} {count} diagrams, above the limit {limit}{hint}")
    if sample is not None:
        return families.sample_diagrams(a, b, c, sample, seed=seed)
    return families.enumerate_diagrams(a, b, c)


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
        zm = zones(diagram, Point(*args.zones))
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
    engine = Engine()
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
        report["engine"] = asdict(engine_report)
    elif not args.oracle and not args.hilbert:
        raise _CliFailure(
            EXIT_UNSUPPORTED,
            "the diagram lacks the projection property; rerun with --oracle or --hilbert",
        )

    checks = []
    for route in ("oracle", "hilbert"):
        if getattr(args, route):
            check, refusal = _oracle_check(diagram, route, args.limit)
            if check is None:
                report[route] = {"skipped": refusal}
            else:
                report[route] = asdict(check)
                checks.append(check)
    if args.bounds:
        report["bounds"] = _bounds_json(diagram)

    status = "skipped"
    if engine_report is not None and checks:
        wrong = [check for check in checks if not _agrees(engine_report, check)]
        status = "disagree" if wrong else "agree"
        if wrong:
            report["disagreement"] = {
                "reproduction": diagram_to_json(diagram),
                "engine": asdict(engine_report),
                "other": asdict(wrong[-1]),
            }
    report["cross_check"] = status
    report["elapsed_seconds"] = round(time.monotonic() - started, 6)
    _emit(report)
    return EXIT_DISAGREE if status == "disagree" else EXIT_OK


def _cmd_gens(args) -> int:
    diagram = _load_diagram(args.diagram)
    pts = diagram.points()
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
    with _internal_errors(diagram, "oracle"):
        summary = oracle.complex_summary(diagram.points(), limit=args.limit)
        if args.hilbert_degree is not None:
            table = oracle.hilbert_function(diagram, args.hilbert_degree)
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
        out["hilbert"] = list(table.values)
    _emit(out)
    return EXIT_OK


def _link_diagnostic(d1: Diagram, d2: Diagram, engine: Engine) -> list[dict]:
    """Shared normal first-layer points whose link multiplicity drops from
    the smaller diagram to the larger one, in the smaller one's induction
    order; explains monotonicity failures outside the strong projection
    regime."""
    out, walk = [], SuffixState(d1, Point(1, 1, 1), INDUCTION)
    while walk.start is not PAST_LAYER_1:
        first, walk = walk, successor(walk)
        u = first.start
        if u not in d2:
            continue
        states = [first, SuffixState(d2, u, INDUCTION)]
        normal = []
        for s in states:
            with _internal_errors(s.host):  # the normality cross-check can fail
                normal.append(s.is_normal)
        if not all(normal):
            continue
        values = []
        for s in states:
            with _internal_errors(s.host):
                values.append(engine.suffix_invariants(engine.link_state(s)))
        if values[0][1] > values[1][1]:
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
            with _internal_errors(diagram, "oracle"):
                reports.append(oracle.oracle_invariants(diagram))
    spp = has_strong_projection_property(d1) and has_strong_projection_property(d2)
    monotone_reg = reports[0].reg <= reports[1].reg
    monotone_mult = reports[0].mult <= reports[1].mult
    out = {
        "first": asdict(reports[0]),
        "second": asdict(reports[1]),
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
    report = _engine_invariants(engine, diagram) if pp else None
    check = _oracle_check(diagram, "oracle", facet_limit)[0] if use_oracle else None
    if pp and use_oracle:
        row["oracle_agree"] = _agrees(report, check)
    report = report or check
    if report is None:
        row.update({"ring_dim": None, "reg": None, "mult": None, "source": "skipped"})
    else:
        row.update({key: getattr(report, key) for key in ("ring_dim", "reg", "mult", "source")})
    return row


def _cmd_sweep(args) -> int:
    if args.pairs and args.format == "csv":
        raise _CliFailure(EXIT_INPUT, "--pairs prints one JSON summary; it takes no --format csv")
    keep = {"pp": has_projection_property, "spp": has_strong_projection_property}.get(args.filter)
    hint = "; raise --limit" if args.sample else "; raise --limit or use --sample"
    diagrams = _box_diagrams(args.box, args.limit, hint, args.sample, args.seed)
    engine = Engine()
    rows = []
    # one (diagram without the engine's point caches, row) per distinct
    # diagram under --pairs, so that repeated draws of a sample count once
    eligible = {}
    for d in diagrams:
        if keep is None or keep(d):
            row = _sweep_row(d, engine, args.oracle, args.facet_limit)
            rows.append(row)
            if args.pairs and row["spp"] and row["source"] == "engine":
                eligible.setdefault(d.layers, (Diagram(d.layers), row))
    disagree = any(row.get("oracle_agree") is False for row in rows)

    if args.pairs:
        violations = []
        checked = 0
        for small, small_row in eligible.values():
            for big, big_row in eligible.values():
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
    engine = Engine()
    candidates = []
    checked = 0
    disagree = False
    for diagram in _box_diagrams(args.box, args.limit):
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
            for route in ("oracle", "hilbert"):
                check = _oracle_check(diagram, route, args.facet_limit)[0]
                entry[f"{route}_mult"] = None if check is None else check.mult
                disagree |= _agrees(report, check) is False
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
    with _internal_errors(diagram, "oracle"):
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
    p.add_argument("--limit", type=_at_least(1), default=20000, help="maximum diagrams to enumerate or sample")
    p.add_argument("--facet-limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT)
    p.add_argument("--sample", type=_at_least(1), default=None, help="random sample instead of enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="hunt for multiplicity-above-box counterexamples")
    p.add_argument("--box", type=_at_least(1), nargs=3, required=True, metavar=("A", "B", "C"))
    p.add_argument("--limit", type=_at_least(1), default=20000)
    p.add_argument("--facet-limit", type=_at_least(1), default=oracle.DEFAULT_FACET_LIMIT)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gb-check", help="bounded-degree binomial reduction check")
    diagram_arg(p)
    p.add_argument("--max-degree", type=_at_least(2), default=4)
    p.add_argument("--limit", type=_at_least(1), default=oracle.DEFAULT_MONOMIAL_LIMIT,
                   help="work budget; each monomial counts its degree")
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
        print(f"the input is nested too deep to evaluate: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
