"""CLI surface: CSV determinism, JSON schemas, routing, exit codes."""
import json
import time

import pytest
from mpmath import mp, mpf

from touchard import (MAX_ORDER, N_MAX_LIMIT, DomainError,
                      InternalConsistencyError, PrecisionExhaustedError,
                      SolverError)
from touchard.cli import (CSV_HEADER, cmd_bm, cmd_contours, cmd_eval,
                          cmd_table1, cmd_table2, contours_to_json,
                          load_error_rows, main, make_row, rows_to_csv)
from touchard.contours import MAX_LEN_OVER_STEP, contour_set
from touchard.numkernel import mk_context, raw, real_from, wrap_real


class TestTables:
    def test_table1_deterministic(self):
        a = cmd_table1(n_list=[12, 20], m_list=[0, 1], digits=40)
        b = cmd_table1(n_list=[12, 20], m_list=[0, 1], digits=40)
        assert a == b
        lines = a.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert [ln.split(",")[0] for ln in lines[1:]] == ["12", "12", "20", "20"]
        assert a.endswith("\n")

    def test_table2_reference_cell(self):
        out = cmd_table2(xi_list=["1.00"], n_list=[81], digits=60)
        row = out.splitlines()[1]
        assert row.split(",")[-1] == "5.324e-03"

    def test_roundtrip(self):
        text = cmd_table1(n_list=[15], m_list=[0, 3], digits=40)
        rows = load_error_rows(text)
        assert rows_to_csv(rows) == text
        assert all(r.n == 15 for r in rows)

    def test_bad_header_rejected(self):
        with pytest.raises(DomainError):
            load_error_rows("n,param,exact,approx\n1,2,3,4\n")

    def test_malformed_row_rejected(self):
        text = CSV_HEADER + "\n" + "15,only,three,cols\n"
        with pytest.raises(DomainError):
            load_error_rows(text)
        # a table2 row whose n field is not an integer
        head, row = cmd_table2(xi_list=["1.01"], n_list=[81],
                               digits=40).splitlines()
        with pytest.raises(DomainError, match="malformed CSV row: 'x81,"):
            load_error_rows(head + "\nx" + row + "\n")

    def test_tampered_rel_err_detected(self):
        text = cmd_table1(n_list=[15], m_list=[0], digits=40)
        head, row = text.splitlines()
        parts = row.split(",")
        parts[-1] = "9.999e-01"
        with pytest.raises(InternalConsistencyError):
            load_error_rows(head + "\n" + ",".join(parts) + "\n")


class TestEval:
    def test_routing_near_coalescence(self):
        report = cmd_eval(50, "1.00", digits=40)
        assert "theorem1" in report["methods"]
        assert "theorem2" in report["methods"]
        assert "poincare" not in report["methods"]
        assert report["saddles"]["kind"] == "double"

    def test_routing_far_below(self):
        report = cmd_eval(50, "0.5", digits=40)
        assert "theorem1" not in report["methods"]
        assert "poincare" in report["methods"]
        assert report["saddles"]["kind"] == "conjugate_pair"

    def test_routing_far_above(self):
        report = cmd_eval(50, "1.5", digits=40)
        assert "theorem1" not in report["methods"]
        assert "poincare" in report["methods"]
        assert report["saddles"]["kind"] == "real_pair"

    def test_degree_one_closed_form(self):
        # T^_1(-x) = -x exactly; steer x to 1 through xi = 1/(2e)
        with mp.workdps(60):
            xi = mp.nstr(1 / (2 * mp.e), 50)
        report = cmd_eval(2, xi, digits=40)
        assert report["exact"]["value"].startswith("-1.0000000000")
        assert report["exact"]["verified"] is True
        assert report["x"].startswith("1.0000000000")

    def test_method_errors_are_captured(self):
        # n below the poincare floor: entry reports the error, run continues
        report = cmd_eval(5, "0.5", digits=40)
        entry = report["methods"]["poincare"]
        assert entry["error"]["type"] == "DomainError"
        assert "theorem2" in report["methods"]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            cmd_eval(1, "1.0", digits=40)
        with pytest.raises(DomainError):
            cmd_eval(50, "-1", digits=40)

    @staticmethod
    def _patch_ingredients(monkeypatch, fn):
        # theorem2_eval looks the name up in uniform, cmd_eval in cli
        monkeypatch.setattr("touchard.cli.uniform_ingredients", fn)
        monkeypatch.setattr("touchard.uniform.uniform_ingredients", fn)

    def test_one_uniform_ingredients_call(self, monkeypatch):
        from touchard.uniform import uniform_ingredients
        calls = []

        def counted(*a, **k):
            calls.append(a)
            return uniform_ingredients(*a, **k)
        self._patch_ingredients(monkeypatch, counted)
        report = cmd_eval(50, "0.9", digits=40)
        assert len(calls) == 1
        assert "value" in report["methods"]["theorem2"]
        assert report["saddles"]["kind"] == "conjugate_pair"

    def test_ingredients_error_fills_theorem2_and_saddles(self, monkeypatch):
        def boom(*a, **k):
            raise SolverError("no certified saddle")
        self._patch_ingredients(monkeypatch, boom)
        report = cmd_eval(50, "0.9", digits=40)
        want = {"error": {"type": "SolverError",
                          "message": "no certified saddle"}}
        assert report["methods"]["theorem2"] == want
        assert report["saddles"] == want
        assert "value" in report["methods"]["poincare"]


class TestContoursJson:
    def test_schema_and_rounding(self):
        report = cmd_contours("1", digits=40)
        assert report["saddle_kind"] == "double"
        assert len(report["polylines"]) == 6
        for pl in report["polylines"]:
            assert pl["kind"] in ("descent", "ascent")
            assert float(pl["im_psi_drift"]) < 1e-8
            assert pl["stop_reason"]
            for pt in pl["points"]:
                assert len(pt) == 2
                assert pt[0].endswith("@30") and pt[1].endswith("@30")

    def test_dump_deterministic(self):
        a = json.dumps(cmd_contours("1.8", digits=40), sort_keys=True)
        b = json.dumps(cmd_contours("1.8", digits=40), sort_keys=True)
        assert a == b

    def test_coordinates_match_30_digit_rounding(self, ctx40):
        # coordinates that are doubles skip the mpmath formatter; they must
        # print the same bytes, and the real axis' zero without a sign
        cs = contour_set("1", ctx40)
        report = contours_to_json(cs)
        ctx30 = mk_context(30)
        for pl, out in zip(cs.polylines, report["polylines"]):
            # point 0 is the saddle, printed from its full-precision value
            values = [raw(pl.saddle), *pl.points[1:]]
            assert out["points"] == [
                [wrap_real(v.real, ctx30).to_str(),
                 wrap_real(v.imag, ctx30).to_str()] for v in values]
        assert report["polylines"][2]["points"][-1][1] == \
            "0." + "0" * 29 + "e+00@30"


class TestBmJson:
    def test_schema(self):
        report = cmd_bm(6)
        assert report["order"] == 6
        assert [e["m"] for e in report["entries"]] == list(range(7))
        by_m = {e["m"]: e for e in report["entries"]}
        assert by_m[3]["numerator"] == "1463"
        assert by_m[3]["denominator"] == "6480"
        assert by_m[2]["contributes"] is False
        assert by_m[5]["contributes"] is False
        checked = {m for m, e in by_m.items() if e["cross_checked"]}
        assert checked == {0, 1, 3, 4, 6}

    def test_zero_order(self):
        report = cmd_bm(0)
        assert len(report["entries"]) == 1
        assert report["entries"][0] == {"m": 0, "numerator": "1",
                                        "denominator": "1",
                                        "contributes": True,
                                        "cross_checked": True}

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cmd_bm(-1)


class TestMain:
    def test_success_and_stdout(self, capsys):
        rc = main(["bm", "--max", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 3

    def test_bm_takes_out_but_not_digits(self, tmp_path, capsys):
        # the coefficients are exact rationals: no precision to set
        target = tmp_path / "bm.json"
        assert main(["bm", "--max", "2", "--out", str(target)]) == 0
        assert json.loads(target.read_text()) == cmd_bm(2)
        with pytest.raises(SystemExit) as exc:
            main(["bm", "--digits", "5", "--max", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digits" in capsys.readouterr().err

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        rc = main(["table1", "--n", "12", "--m", "0", "--digits", "40"])
        assert rc == 0
        streamed = capsys.readouterr().out
        target = tmp_path / "t1.csv"
        rc = main(["table1", "--n", "12", "--m", "0", "--digits", "40",
                   "--out", str(target)])
        assert rc == 0
        assert target.read_bytes().decode() == streamed

    @pytest.mark.parametrize("argv", [
        ["eval", "--n", "1", "--xi", "1.0"],
        ["table1", "--digits", "10", "--n", "12", "--m", "0"],
        ["bm", "--max", "-1"],
        ["contours", "--xi", "1", "--step", "-1", "--digits", "40"],
        ["table1", "--n", ","],
        ["table1", "--m", ","],
        ["table2", "--n", ","],
        ["bm", "--max", str(MAX_ORDER + 1)],
        ["table1", "--m=-1"],
        ["table1", "--m=-1,0"],
        ["table1", "--n", "50", "--m", f"0,{MAX_ORDER + 1}"],
    ])
    def test_domain_errors_exit_2(self, argv, capsys):
        # refused before any row or coefficient is built
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1
        assert "touchard: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("xi", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("command", [
        ["table2", "--xi"], ["eval", "--n", "100", "--xi"], ["contours", "--xi"],
        ["contours", "--xi", "1", "--step"],
        ["contours", "--xi", "1", "--max-len"]])
    def test_xi_not_a_finite_number_exits_2(self, command, xi, capsys):
        # xi, or a contour's step or max_len: refused before any layer runs,
        # with the value in the message
        *head, option = command
        start = time.monotonic()
        assert main([*head, f"{option}={xi}"]) == 2
        assert time.monotonic() - start < 1
        assert f"touchard: error: expected a finite number, got {xi!r}" in \
            capsys.readouterr().err

    def test_row_beyond_size_limit_exits_2_at_once(self, capsys):
        # n - 1 = N_MAX_LIMIT + 1: refused before any sum is made
        start = time.monotonic()
        assert main(["eval", "--n", str(N_MAX_LIMIT + 2), "--xi", "1"]) == 2
        assert time.monotonic() - start < 1
        assert str(N_MAX_LIMIT) in capsys.readouterr().err

    def test_contour_beyond_size_limit_exits_2_at_once(self, capsys):
        # max_len/step = 4e7: refused before any path is traced
        start = time.monotonic()
        assert main(["contours", "--xi", "1", "--step", "1e-6"]) == 2
        assert time.monotonic() - start < 1
        assert str(MAX_LEN_OVER_STEP) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["contours", "--xi", "0.1"],
        ["eval", "--n", "100", "--xi", "0.02"],
        ["eval", "--n", "100", "--xi", "1e-40"],
    ])
    def test_far_below_coalescence_succeeds(self, argv, capsys):
        # the conjugate saddles far from xi = 1 certify at 120 digits
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        if argv[0] == "eval":
            assert "error" not in payload["saddles"]
            assert payload["saddles"]["kind"] == "conjugate_pair"
        else:
            assert payload["saddle_kind"] == "conjugate_pair"

    def test_exhaustion_exit_3(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise PrecisionExhaustedError("no agreement")
        monkeypatch.setattr("touchard.cli.cmd_table1", boom)
        assert main(["table1"]) == 3

    def test_consistency_exit_4(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise InternalConsistencyError("cross-check failed")
        monkeypatch.setattr("touchard.cli.cmd_bm", boom)
        assert main(["bm"]) == 4


class TestRowHelpers:
    def test_zero_exact_rejected(self):
        ctx = mk_context(40)
        zero = real_from(0, ctx)
        one = real_from(1, ctx)
        with pytest.raises(DomainError):
            make_row(5, one, zero, one)
