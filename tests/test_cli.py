import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers3d import box, diagram_from_json, diagram_to_json
from ferrers3d.cli import main
from ferrers3d import closed_forms, engine, oracle
from ferrers3d.engine import Engine
from ferrers3d.errors import LinkMismatch
from ferrers3d.oracle import InvariantsReport

CLOSURE_JSON = '{"generators": [[1, 3, 2], [2, 2, 3]]}'
BOX222 = '{"layers": [[2, 2], [2, 2]]}'
NON_PP = '{"generators": [[1, 1, 3], [2, 3, 1], [3, 2, 2]]}'
WRONG = InvariantsReport(ring_dim=4, reg=1, mult=5, red_num=1, source="engine")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", CLOSURE_JSON)
        assert code == 0
        data = json.loads(out)
        assert data["projection_property"] is True
        assert data["strong_projection_property"] is False
        assert data["input"] == {"layers": [[3, 3, 2], [3, 3]]}

    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "check", BOX222)
        assert diagram_from_json(json.loads(out)["input"]) == box(2, 2, 2)

    def test_zone_dump(self, capsys):
        code, out, _ = run(capsys, "check", BOX222, "--zones", "1", "1", "1")
        data = json.loads(out)["zones"]
        assert data["z1"] == [] and data["z6"] == []
        assert data["z3"] == [[1, 1, 1], [2, 1, 1]]

    def test_zone_dump_outside(self, capsys):
        code, _, err = run(capsys, "check", BOX222, "--zones", "3", "1", "1")
        assert code == 2 and err

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "check", "{not json")
        assert code == 2 and err

    def test_bad_diagram(self, capsys):
        code, _, err = run(capsys, "check", '{"layers": [[1, 2]]}')
        assert code == 2 and err

    def test_bool_heights_rejected(self, capsys):
        code, out, err = run(capsys, "check", '{"layers": [[true, true]]}')
        assert code == 2 and err and not out

    def test_bool_generators_rejected(self, capsys):
        code, out, err = run(capsys, "check", '{"generators": [[true, 1, 1]]}')
        assert code == 2 and err and not out

    def test_float_generator_equal_to_another_rejected(self, capsys):
        # a set of the generators would keep only the int one
        code, out, err = run(capsys, "invariants", '{"generators": [[2, 2, 2], [2, 2, 2.0]]}')
        assert code == 2 and err and not out


class TestInvariants:
    def test_box(self, capsys):
        code, out, _ = run(capsys, "invariants", BOX222)
        assert code == 0
        data = json.loads(out)
        assert data["engine"] == {
            "ring_dim": 4, "reg": 2, "mult": 6, "red_num": 2,
            "source": "engine", "grobner_guarantee": True,
        }

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "invariants", '{"layers": [[1]]}')
        data = json.loads(out)
        assert (data["engine"]["reg"], data["engine"]["mult"], data["engine"]["ring_dim"]) == (0, 1, 1)

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(capsys, "invariants", CLOSURE_JSON, "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["cross_check"] == "agree"
        assert data["mu_reg_bound"] == 3
        assert data["engine"]["reg"] <= 3

    def test_bounds_block(self, capsys):
        code, out, _ = run(capsys, "invariants", BOX222, "--bounds")
        data = json.loads(out)
        assert data["bounds"]["box_mult_bound"] == 6
        assert data["bounds"]["source"] == "closed-form"

    def test_unsupported_without_oracle(self, capsys):
        bad = '{"generators": [[1, 1, 3], [2, 3, 1], [3, 2, 2]]}'
        code, _, err = run(capsys, "invariants", bad)
        assert code == 4 and err

    def test_unsupported_with_oracle_runs(self, capsys):
        bad = '{"generators": [[1, 1, 3], [2, 3, 1], [3, 2, 2]]}'
        code, out, _ = run(capsys, "invariants", bad, "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["oracle"]["grobner_guarantee"] is False
        assert data["cross_check"] == "skipped"

    def test_lex_order_flag(self, capsys):
        code, out, _ = run(capsys, "invariants", BOX222, "--order", "lex")
        assert code == 0
        assert json.loads(out)["engine"]["reg"] == 2

    def test_lex_order_rejected_without_strong(self, capsys):
        code, _, err = run(capsys, "invariants", CLOSURE_JSON, "--order", "lex")
        assert code == 4 and err

    def test_hilbert_flag(self, capsys):
        code, out, _ = run(capsys, "invariants", BOX222, "--hilbert")
        data = json.loads(out)
        assert code == 0
        assert data["hilbert"]["source"] == "oracle-hilbert"
        assert data["cross_check"] == "agree"

    def test_disagreement_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": WRONG)
        code, out, _ = run(capsys, "invariants", BOX222, "--oracle")
        assert code == 3
        assert json.loads(out)["cross_check"] == "disagree"


class TestGens:
    def test_flat_box(self, capsys):
        code, out, _ = run(capsys, "gens", '{"layers": [[1, 1], [1, 1]]}')
        data = json.loads(out)
        assert data["monomials"] == [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]]
        assert data["minors"] == [
            {"lead": [[1, 1, 1], [2, 2, 1]], "trail": [[1, 2, 1], [2, 1, 1]],
             "directions": ["x", "y"]}
        ]


class TestOracleCmd:
    def test_summary_and_hilbert(self, capsys):
        code, out, _ = run(capsys, "oracle", '{"layers": [[1, 1], [1, 1]]}',
                           "--hilbert-degree", "3")
        data = json.loads(out)
        assert data["complex"]["f_vector"] == [1, 4, 5, 2]
        assert data["complex"]["h_vector"] == [1, 1, 0, 0]
        assert data["hilbert"] == [1, 4, 9, 16]

    def test_facet_suppression(self, capsys):
        _, out, _ = run(capsys, "oracle", BOX222, "--facet-threshold", "2")
        assert "facets" not in json.loads(out)["complex"]

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "oracle", BOX222, "--limit", "4")
        assert code == 4 and err

    def test_hilbert_table_past_the_budget_exits_four(self, capsys):
        code, out, err = run(capsys, "oracle", '{"layers": [[1]]}',
                             "--hilbert-degree", "3000000000")
        assert code == 4 and not out and "would exceed 5000000 products" in err


class TestCompare:
    def test_monotone_pair(self, capsys):
        code, out, _ = run(capsys, "compare", '{"layers": [[1, 1], [1, 1]]}', BOX222)
        data = json.loads(out)
        assert code == 0
        assert data["monotone_reg"] and data["monotone_mult"]
        assert data["hypothesis_strong_projection"] is True

    def test_equal_pair(self, capsys):
        code, out, _ = run(capsys, "compare", BOX222, BOX222)
        data = json.loads(out)
        assert data["first"] == data["second"]

    def test_containment_failure(self, capsys):
        code, _, err = run(capsys, "compare", BOX222, '{"layers": [[1]]}')
        assert code == 2 and err

    def test_size_refusal_exits_four(self, capsys):
        # the second diagram lacks PP, and its 26 points exceed the facet limit
        code, out, err = run(
            capsys, "compare", '{"layers": [[1]]}',
            '{"layers": [[6, 6, 1, 1, 1, 1, 1, 1, 1, 1], [3, 1, 1, 1]]}',
        )
        assert code == 4 and "facet limit" in err and out == ""

    def test_hypothesis_failure_diagnostic(self, capsys):
        code, out, _ = run(capsys, "compare", CLOSURE_JSON, '{"layers": [[3, 3, 3], [3, 3, 3]]}')
        data = json.loads(out)
        assert code == 0
        assert data["hypothesis_strong_projection"] is False
        diag = data["link_diagnostic"]
        assert {"u": [1, 3, 1], "link_mult": [2, 1], "link_reg": [1, 0]} in diag


class TestSweep:
    def test_pp_sweep_agrees(self, capsys):
        code, out, _ = run(capsys, "sweep", "--box", "2", "2", "2", "--filter", "pp", "--oracle")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(row["oracle_agree"] for row in rows)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--box", "2", "2", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("layers,")
        assert len(lines) == 1 + 5  # 5 diagrams inside [2]x[2]x[1]

    def test_pairs_mode(self, capsys):
        code, out, _ = run(capsys, "sweep", "--box", "2", "2", "2", "--filter", "spp", "--pairs")
        assert code == 0
        data = json.loads(out)
        assert data["monotonicity_violations"] == []
        assert data["nested_pairs_checked"] > 0

    def test_limit_guard(self, capsys):
        code, _, err = run(capsys, "sweep", "--box", "4", "4", "4", "--limit", "100")
        assert code == 4 and "232847" in err

    @pytest.mark.parametrize("verb", ["sweep", "search"])
    @pytest.mark.parametrize("side", ["200", "2000"])
    def test_huge_box_refused_without_counting_it(self, capsys, verb, side):
        # the box count passes 10**12 within a few factors of its product
        code, out, err = run(capsys, verb, "--box", side, side, side)
        assert code == 4 and not out
        assert err.startswith("the box holds more than 1000000000000 diagrams, above the limit 20000")
        assert err.count("\n") == 1

    def test_sample_limit_guard(self, capsys):
        # a sample is bounded by --limit as an enumeration is
        code, out, err = run(capsys, "sweep", "--box", "2", "2", "2", "--sample", "50", "--limit", "10")
        assert code == 4 and not out
        assert "50" in err and "limit 10" in err

    def test_pairs_count_distinct_sampled_diagrams(self, capsys):
        # 28 rows of 9 distinct SPP diagrams, which hold 22 nested pairs
        code, out, _ = run(capsys, "sweep", "--box", "2", "2", "2", "--filter", "spp", "--pairs",
                           "--sample", "30", "--seed", "1")
        data = json.loads(out)
        assert code == 0
        assert (data["diagrams"], data["nested_pairs_checked"]) == (28, 22)

    def test_sampling_is_seeded(self, capsys):
        _, out1, _ = run(capsys, "sweep", "--box", "3", "3", "3", "--sample", "5", "--seed", "9")
        _, out2, _ = run(capsys, "sweep", "--box", "3", "3", "3", "--sample", "5", "--seed", "9")
        assert out1 == out2

    def test_oracle_disagreement_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": WRONG)
        code, out, _ = run(capsys, "sweep", "--box", "2", "2", "2", "--filter", "pp", "--oracle")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 3
        assert rows and all(row["mult"] == WRONG.mult for row in rows)
        assert any(row["oracle_agree"] is False for row in rows)


class TestSearch:
    def test_small_box(self, capsys):
        code, out, _ = run(capsys, "search", "--box", "2", "2", "2")
        data = json.loads(out)
        assert code == 0
        assert data["diagrams_checked"] > 0
        assert isinstance(data["counterexamples"], list)

    def test_candidates_are_cross_checked(self, capsys, monkeypatch):
        # a box bound of 0 makes every PP diagram a candidate
        monkeypatch.setattr(closed_forms, "rect_multiplicity", lambda a, b, c: 0)
        code, out, _ = run(capsys, "search", "--box", "2", "2", "2")
        data = json.loads(out)
        assert code == 0
        assert len(data["counterexamples"]) == data["diagrams_checked"] > 0
        for entry in data["counterexamples"]:
            assert entry["box_mult"] == 0
            assert entry["oracle_mult"] in (entry["mult"], None)
            assert entry["hilbert_mult"] in (entry["mult"], None)
        assert any(entry["hilbert_mult"] is not None for entry in data["counterexamples"])

    def test_candidate_disagreement_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_forms, "rect_multiplicity", lambda a, b, c: 0)
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": WRONG)
        code, out, _ = run(capsys, "search", "--box", "2", "2", "2")
        assert code == 3
        assert json.loads(out)["summary"] == "candidates found"


class TestGBCheck:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "gb-check", '{"layers": [[1, 1], [1, 1]]}')
        data = json.loads(out)
        assert code == 0 and data["holds"] is True

    def test_family_witness(self, capsys):
        family = ('{"generators": [[1, 2, 3], [2, 3, 2], [3, 4, 1], [4, 1, 2],'
                  ' [2, 1, 3], [3, 2, 2], [4, 3, 1], [1, 4, 2]]}')
        code, out, _ = run(capsys, "gb-check", family, "--max-degree", "4")
        data = json.loads(out)
        assert code == 0
        assert data["holds"] is False
        assert 4 in data["failing_degrees"]
        assert len(data["witness"]) == 2

    @pytest.mark.parametrize("degree", ["2000", "8000", "100000"])
    def test_budget_counts_each_monomial_by_its_degree(self, capsys, degree):
        # one point has one monomial of each degree, so degrees up to d
        # cost about d**2 / 2 and the default budget stops near degree 2000
        code, out, err = run(capsys, "gb-check", '{"layers": [[1]]}', "--max-degree", degree)
        assert code == 4 and not out
        assert err.startswith(f"the monomials up to degree {degree} exceed the limit 2000000")


def test_timing_smoke_large_box(capsys):
    code, out, _ = run(capsys, "invariants", '{"layers": [[4,4,4,4],[4,4,4,4],[4,4,4,4],[4,4,4,4]]}')
    data = json.loads(out)
    assert code == 0
    assert (data["engine"]["reg"], data["engine"]["mult"]) == (6, 1680)
    assert data["elapsed_seconds"] < 5.0


def test_file_input(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(BOX222)
    code, out, _ = run(capsys, "check", f"@{path}")
    assert code == 0 and json.loads(out)["size"] == 8


class TestNumberGuards:
    """Numbers below their floor are input errors (exit 2): counts, sizes
    and limits below 1, a Hilbert degree or facet threshold below 0 and a
    rewriting degree below 2.  So is a pair of flags that cannot hold
    together: ``sweep --pairs`` with ``--format csv``."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--box", "0", "2", "2"),
        ("search", "--box", "2", "2", "-1"),
        ("sweep", "--box", "2", "2", "2", "--sample", "-4"),
        ("sweep", "--box", "2", "2", "2", "--sample", "0"),
        ("sweep", "--box", "2", "2", "2", "--limit", "0"),
        ("invariants", BOX222, "--oracle", "--limit", "0"),
        ("oracle", BOX222, "--hilbert-degree", "-2"),
        ("oracle", BOX222, "--facet-threshold", "-1"),
        ("gb-check", BOX222, "--max-degree", "1"),
        ("gb-check", BOX222, "--max-degree", "-1"),
        ("sweep", "--box", "2", "2", "2", "--oracle", "--facet-limit", "-5"),
        ("search", "--box", "2", "2", "2", "--facet-limit", "0"),
        ("sweep", "--box", "2", "2", "2", "--pairs", "--format", "csv"),
    ], ids=lambda argv: " ".join(argv).replace(BOX222, "BOX222"))
    def test_rejected(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a number
            code = exc.code
        out = capsys.readouterr()
        assert code == 2
        floor = {"--hilbert-degree": 0, "--facet-threshold": 0, "--max-degree": 2}.get(argv[-2], 1)
        expected = "--pairs prints one JSON summary; it takes no --format csv" if "--pairs" in argv \
            else f"is below {floor}"
        assert expected in out.err and not out.out


def _values(top):
    return st.one_of(st.integers(-1, top), st.booleans(), st.none(), st.just(1.5), st.just("2"))


# At most 3 layers of 3 parts with heights up to 4, or up to 3 generators
# with coordinates up to 3 (4 on the last axis): every valid diagram fits a
# 3x3x4 box, so no run is long.  The first two branches are mostly valid.
_DOCUMENT = st.one_of(
    st.fixed_dictionaries({"layers": st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda l: sorted(l, reverse=True)),
        min_size=1, max_size=3)}),
    st.fixed_dictionaries({"generators": st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)).map(list),
        min_size=1, max_size=3)}),
    st.fixed_dictionaries({"layers": st.lists(st.lists(_values(4), max_size=3), max_size=3)}),
    st.fixed_dictionaries({"generators": st.lists(st.lists(_values(3), max_size=4), max_size=3)}),
    st.dictionaries(st.sampled_from(["layers", "generators", "other"]),
                    st.lists(st.lists(_values(4), max_size=3), max_size=3), max_size=3),
    st.lists(_values(4), max_size=3),
)
# "@..." would name a file to read
_TEXT = st.one_of(_DOCUMENT.map(json.dumps), st.text(max_size=6).filter(lambda t: not t.startswith("@")))
_ARGV = st.one_of(
    st.tuples(st.just("check"), _TEXT,
              st.one_of(st.just(()), st.tuples(st.just("--zones"), *[st.integers(-1, 4).map(str)] * 3))),
    st.tuples(st.just("invariants"), _TEXT,
              st.lists(st.sampled_from(["--oracle", "--bounds", "--order=lex"]), unique=True)),
)


class TestExitCodes:
    @settings(max_examples=200, deadline=None)
    @given(_ARGV)
    def test_exit_code_in_contract(self, argv):
        verb, text, flags = argv
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([verb, text, *flags])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        assert code in (0, 2, 3, 4)


class TestInternalErrors:
    def test_recursion_too_deep_exits_four(self, capsys, monkeypatch):
        def too_deep(self, s):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(Engine, "suffix_invariants", too_deep)
        code = main(["invariants", BOX222])
        out = capsys.readouterr()
        assert code == 4
        assert "too deep" in out.err and not out.out

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"layers": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["bare", "layers"])
    def test_json_nesting_exits_four(self, capsys, tmp_path, text):
        # the JSON decoder recurses once per nesting level
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", f"@{path}")
        assert code == 4 and not out
        assert "too deep" in err and "Traceback" not in err

    def test_oracle_long_column_exits_zero(self, capsys):
        # a column's graph has no edges, so its complex is one simplex; both
        # kernels run from explicit stacks and count faces without visiting them
        code, out, _ = run(capsys, "oracle", '{"layers": [[1200]]}', "--limit", "2000")
        data = json.loads(out)
        assert code == 0
        assert data["complex"]["facet_count"] == 1
        assert data["complex"]["h_vector"] == [1] + [0] * 1200

    def test_tall_box_needs_no_recursion(self, capsys):
        # one layer step per loop iteration: 400 layers at the default limit
        code, out, _ = run(capsys, "invariants", json.dumps({"layers": [[1]] * 400}))
        data = json.loads(out)
        assert code == 0
        assert (data["engine"]["reg"], data["engine"]["mult"]) == (0, 1)

    def test_engine_range_error_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(Engine, "suffix_invariants", lambda self, s: (0, 0))
        code, out, err = run(capsys, "invariants", BOX222)
        assert code == 3 and not out
        assert "engine bug" in err
        assert json.dumps({"layers": [[2, 2], [2, 2]]}) in err

    @pytest.mark.parametrize("error", [RuntimeError("boom"), LinkMismatch("beyond the limit")])
    def test_link_diagnostic_engine_error_exits_three(self, capsys, monkeypatch, error):
        # compare reaches the link diagnostic with both reports in hand; the
        # first link evaluated there fails
        first, second = CLOSURE_JSON, json.dumps({"layers": [[3, 3, 3], [3, 3, 3]]})
        reports = {}
        for text in (first, second):
            d = diagram_from_json(json.loads(text))
            reports[d] = Engine().invariants(d)
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": reports[d])

        def broken(self, s):
            raise error
        monkeypatch.setattr(Engine, "suffix_invariants", broken)
        code, out, err = run(capsys, "compare", first, second)
        assert code == 3 and not out
        assert str(error) in err
        assert json.dumps({"layers": [[3, 3, 2], [3, 3]]}) in err

    def test_link_diagnostic_normality_error_exits_three(self, capsys, monkeypatch):
        # the column test and the definition disagree on the first state the
        # link diagnostic asks about
        first, second = CLOSURE_JSON, json.dumps({"layers": [[3, 3, 3], [3, 3, 3]]})
        reports = {}
        for text in (first, second):
            d = diagram_from_json(json.loads(text))
            reports[d] = Engine().invariants(d)
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": reports[d])
        original = engine._column_test
        monkeypatch.setattr(engine, "_column_test", lambda s: not original(s))
        code, out, err = run(capsys, "compare", first, second)
        assert code == 3 and not out
        assert "internal engine error: the column test calls" in err and "Traceback" not in err
        assert json.dumps({"layers": [[3, 3, 2], [3, 3]]}) in err

    @pytest.mark.parametrize("name, argv, reproduction", [
        ("oracle_invariants", ("invariants", BOX222, "--oracle"), BOX222),
        ("hilbert_invariants", ("invariants", BOX222, "--hilbert"), BOX222),
        ("oracle_invariants", ("invariants", NON_PP, "--oracle"), NON_PP),
        ("oracle_invariants", ("sweep", "--box", "2", "2", "2", "--oracle"), None),
        ("oracle_invariants", ("compare", '{"layers": [[1]]}', NON_PP), NON_PP),
        ("complex_summary", ("oracle", BOX222), BOX222),
        ("toric_gb_check", ("gb-check", BOX222), BOX222),
        ("hilbert_function", ("oracle", BOX222, "--hilbert-degree", "3"), BOX222),
    ], ids=["invariants-oracle", "invariants-hilbert", "invariants-non-pp", "sweep-oracle",
            "compare", "oracle", "gb-check", "oracle-hilbert"])
    def test_oracle_error_exits_three(self, capsys, monkeypatch, name, argv, reproduction):
        def broken(*args, **kwargs):
            raise RuntimeError("impure complex on a projection-property diagram")
        monkeypatch.setattr(oracle, name, broken)
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out
        assert "internal oracle error: impure complex" in err and "reproduction: {" in err
        if reproduction is not None:
            canonical = diagram_from_json(json.loads(reproduction))
            assert json.dumps(diagram_to_json(canonical)) in err

    def test_link_mismatch_exits_three(self, capsys, monkeypatch):
        # the literal graph link loses one edge, so the first validated link
        # that has an edge disagrees with it
        literal_link = engine._literal_link

        def corrupted(s):
            edges = set(literal_link(s))
            if edges:
                edges.remove(min(edges, key=sorted))
            return edges
        monkeypatch.setattr(engine, "_literal_link", corrupted)
        layers = json.dumps({"layers": [[3, 3, 3]] * 3})
        with pytest.raises(LinkMismatch, match="other edges than the literal graph link"):
            Engine().invariants(box(3, 3, 3))
        code, out, err = run(capsys, "invariants", layers)
        assert code == 3 and not out
        assert "internal engine error: the link of" in err
        assert layers in err


class TestGolden:
    """The README examples and two small cross-checks, pinned by the sha256
    of stdout (``elapsed_seconds`` removed) and the exit code."""

    CASES = {
        "check": (("check", '{"generators": [[1,3,2],[2,2,3]]}', "--zones", "1", "3", "1"),
                  "5cc1c09e76942ffd7411770c6d57419b23fa4a97a341a9e12d7890865b94a959"),
        "invariants": (("invariants", '{"layers": [[2,2],[2,2]]}', "--oracle", "--hilbert",
                        "--bounds"),
                       "521cfc6463c870ef856a87ec9068c702dbf7c56528f51d32125d7e4cd1930039"),
        "gens": (("gens", '{"layers": [[1,1],[1,1]]}'),
                 "67718ae349a04c59298ec41dd4f3e0dc0aff9db740abc96efe9ebaa141b3f0d4"),
        "oracle": (("oracle", '{"layers": [[2,2],[2,2]]}', "--hilbert-degree", "6"),
                   "2414c3101f516736517684e6df734eff3db761ccaa84cc36bb271ea0e061a115"),
        "compare": (("compare", '{"generators": [[1,3,2],[2,2,3]]}',
                     '{"layers": [[3,3,3],[3,3,3]]}'),
                    "1fdf2848bf34e72520ad6986fb84f314103603261f53e47028fd5c7450e98d0e"),
        # the link diagnostic in the induction order: u = (1,2,1) of stage
        # one before (1,1,3) of stage two, which lex order would swap
        "compare-stage-two": (("compare", '{"layers":[[3,3,1],[1,1,1],[1,1,1]]}',
                               '{"layers":[[3,3,3],[2,1,1],[1,1,1]]}'),
                              "5893a2cea41f6b6cb04127c346f5530158472e699f02bc18d0622c22893f023b"),
        "sweep-csv": (("sweep", "--box", "3", "3", "3", "--filter", "pp", "--oracle",
                       "--format", "csv"),
                      "656cd4d8f75c263ef11f1a2f199319c7c7ddbcbf24ff8e0af40b44a213e45295"),
        "sweep-pairs": (("sweep", "--box", "3", "3", "3", "--filter", "spp", "--pairs"),
                        "b6a18e0ed30b392f0e90e59b80ee29db94c82fe57de24f9d8a8fe5c01610bb21"),
        "search": (("search", "--box", "3", "3", "3"),
                   "50ee72e3e9e1bcacb2c9fe561ed5be30d42f9f7cac55b8fe3c7dafc95b90d36e"),
        "gb-check": (("gb-check", '{"generators": [[1,2,3],[2,3,2],[3,4,1],[4,1,2],[2,1,3],'
                      '[3,2,2],[4,3,1],[1,4,2]]}'),
                     "33bdeb4cf4f4d2ce845a3c58a93acf60a22f0581cc9844d826cbcea2bddefb3b"),
        "sweep-oracle": (("sweep", "--box", "2", "2", "2", "--oracle"),
                         "c9c270880f9b9740b6da4899e29ab5c86e982a58c353748b7e4089430cd63e72"),
        "search-small": (("search", "--box", "2", "2", "2"),
                         "77608628b47eaa743ff01b50256e05a978b85d88016b253145bfec6eb019b9ae"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_stdout_digest(self, capsys, name):
        argv, digest = self.CASES[name]
        code, out, _ = run(capsys, *argv)
        out = re.sub(r'\n *"elapsed_seconds": [^\n]*', "", out)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
