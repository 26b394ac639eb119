import json

import pytest

from ferrers3d import box, diagram_from_json
from ferrers3d.cli import main
from ferrers3d import engine
from ferrers3d.engine import Engine
from ferrers3d.errors import LinkMismatch
from ferrers3d.oracle import InvariantsReport

CLOSURE_JSON = '{"generators": [[1, 3, 2], [2, 2, 3]]}'
BOX222 = '{"layers": [[2, 2], [2, 2]]}'


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
        wrong = InvariantsReport(ring_dim=4, reg=1, mult=5, red_num=1, source="engine")
        monkeypatch.setattr(Engine, "invariants", lambda self, d, order="induction": wrong)
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

    def test_sampling_is_seeded(self, capsys):
        _, out1, _ = run(capsys, "sweep", "--box", "3", "3", "3", "--sample", "5", "--seed", "9")
        _, out2, _ = run(capsys, "sweep", "--box", "3", "3", "3", "--sample", "5", "--seed", "9")
        assert out1 == out2


class TestSearch:
    def test_small_box(self, capsys):
        code, out, _ = run(capsys, "search", "--box", "2", "2", "2")
        data = json.loads(out)
        assert code == 0
        assert data["diagrams_checked"] > 0
        assert isinstance(data["counterexamples"], list)


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
    rewriting degree below 2."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--box", "0", "2", "2"),
        ("search", "--box", "2", "2", "-1"),
        ("sweep", "--box", "2", "2", "2", "--sample", "-4"),
        ("sweep", "--box", "2", "2", "2", "--sample", "0"),
        ("invariants", BOX222, "--cache-cap", "-3"),
        ("invariants", BOX222, "--cache-cap", "0"),
        ("sweep", "--box", "2", "2", "2", "--cache-cap", "0"),
        ("sweep", "--box", "2", "2", "2", "--limit", "0"),
        ("invariants", BOX222, "--oracle", "--limit", "0"),
        ("oracle", BOX222, "--hilbert-degree", "-2"),
        ("oracle", BOX222, "--facet-threshold", "-1"),
        ("gb-check", BOX222, "--max-degree", "1"),
        ("gb-check", BOX222, "--max-degree", "-1"),
        ("sweep", "--box", "2", "2", "2", "--oracle", "--facet-limit", "-5"),
        ("search", "--box", "2", "2", "2", "--facet-limit", "0"),
    ], ids=lambda argv: " ".join(argv).replace(BOX222, "BOX222"))
    def test_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2
        floor = {"--hilbert-degree": 0, "--facet-threshold": 0, "--max-degree": 2}.get(argv[-2], 1)
        assert f"is below {floor}" in out.err and not out.out


class TestInternalErrors:
    def test_recursion_too_deep_exits_four(self, capsys, monkeypatch):
        def too_deep(self, s):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(Engine, "suffix_invariants", too_deep)
        code = main(["invariants", BOX222])
        out = capsys.readouterr()
        assert code == 4
        assert "too deep" in out.err and not out.out

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

    def test_link_mismatch_exits_three(self, capsys, monkeypatch):
        # every link fails validation and none is small enough to enumerate
        monkeypatch.setattr(Engine, "_validate_link", lambda self, *args: False)
        monkeypatch.setattr(engine, "FALLBACK_LIMIT", 0)
        code, out, err = run(capsys, "invariants", json.dumps({"layers": [[3, 3, 3]] * 3}))
        assert code == 3 and not out
        assert "fallback limit" in err
        assert json.dumps({"layers": [[3, 3, 3]] * 3}) in err
