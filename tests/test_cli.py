"""Command-line interface: exit codes, JSON output, determinism."""

import importlib
import inspect
import json

import numpy as np
import pytest

import capreq.cli as cli
import capreq.riskmeasure as rm
from capreq import CapreqError
from capreq.cli import main
from capreq.linprog import NumericalBreakdown

MODULES = ("acceptance", "cli", "directional", "linprog", "market", "riskmeasure", "verify")

MARKET = {
    "states": [{"label": "u", "prob": 0.5}, {"label": "d", "prob": 0.5}],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1, 1]},
        {"name": "stock", "price": 1.0, "payoff": [2, 0.5]},
    ],
}

HALFPLANE_MARKET = {
    "states": [{"label": "u", "prob": 0.5}, {"label": "d", "prob": 0.5}],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1, 1]},
        {"name": "arrow", "price": 0.5, "payoff": [1, 0]},
    ],
}

RANK_DEFICIENT = {
    "states": [{"label": "u", "prob": 0.5}, {"label": "d", "prob": 0.5}],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1, 1]},
        {"name": "copy", "price": 2.0, "payoff": [2, 2]},
    ],
}


THREE_STATE_TWO_ASSETS = {
    "states": [{"label": f"s{i}", "prob": 1 / 3} for i in range(3)],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1, 1, 1]},
        {"name": "stock", "price": 1.0, "payoff": [2, 1, 0.5]},
    ],
}

SEVENTEEN_STATES = {
    "states": [{"label": f"s{i}", "prob": 1 / 17} for i in range(17)],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1] * 17},
        {"name": "stock", "price": 1.0, "payoff": [0.5 + 0.0625 * i for i in range(17)]},
    ],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("market", MARKET), ("halfplane_market", HALFPLANE_MARKET),
                      ("rank_deficient", RANK_DEFICIENT),
                      ("three_state", THREE_STATE_TWO_ASSETS),
                      ("seventeen", SEVENTEEN_STATES)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    for name, doc in (("poscone", {"type": "positive_cone"}),
                      ("halfplane", {"type": "halfspace", "normal": [1, 0]}),
                      ("avar", {"type": "avar", "alpha": 0.5}),
                      ("var", {"type": "var", "alpha": 0.1})):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    for name, text in (("broken", "{not json"),
                       ("inf_normal", '{"type": "halfspace", "normal": [1e400, 0]}'),
                       ("huge_normal", '{"type": "halfspace", "normal": [1e308, 0]}')):
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_error(result, exit_code):
    """Exit code as given, empty stdout, one JSON error object on stderr; returns its text."""
    code, out, err = result
    assert code == exit_code
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert set(doc) == {"error"}
    return doc["error"]


class TestValidate:
    def test_clean_market(self, files, capsys):
        code, out, _ = run(capsys, ["validate", files["market"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["arbitrage"] == "none"
        assert doc["state_prices"] == pytest.approx([1 / 3, 2 / 3], abs=1e-7)

    def test_rank_deficient_exits_one(self, files, capsys):
        code, _, err = run(capsys, ["validate", files["rank_deficient"]])
        assert code == 1
        assert "RankDeficient" in err

    def test_malformed_json_exits_two(self, files, capsys):
        code, _, _ = run(capsys, ["validate", files["broken"]])
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, ["validate", "/nonexistent/market.json"])
        assert code == 2

    def test_fewer_assets_than_states(self, files, capsys):
        code, out, _ = run(capsys, ["validate", files["three_state"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["states"] == 3 and doc["assets"] == 2
        assert doc["monotone_pricing"] is True


class TestRequirement:
    def test_binding_value(self, files, capsys):
        code, out, _ = run(capsys, ["requirement", files["market"], files["poscone"],
                                    "--position=-3,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.0)
        assert doc["attained"] is True

    def test_degenerate_minus_inf(self, files, capsys):
        code, out, _ = run(capsys, ["requirement", files["halfplane_market"],
                                    files["halfplane"], "--position=1,1"])
        assert code == 0
        assert json.loads(out)["value"] == "-inf"

    def test_acceptable_position_nonpositive(self, files, capsys):
        code, out, _ = run(capsys, ["requirement", files["market"], files["poscone"],
                                    "--position=1,1"])
        assert code == 0
        assert json.loads(out)["value"] <= 0

    def test_wrong_length_position(self, files, capsys):
        code, _, _ = run(capsys, ["requirement", files["market"], files["poscone"],
                                  "--position=1,2,3"])
        assert code == 2


class TestErrorContract:
    def test_enumeration_refusal_exits_one(self, files, capsys):
        code, out, err = run(capsys, ["requirement", files["seventeen"], files["var"],
                                      "--position=" + ",".join(["-1"] * 17)])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"].startswith("EnumerationTooLarge")

    @pytest.mark.parametrize("exc", [rm.EnumerationTooLarge, rm.DegenerateAcceptance,
                                     rm.NotPolyhedral, NumericalBreakdown])
    def test_solver_refusals_exit_one(self, files, capsys, monkeypatch, exc):
        def refuse(*args, **kwargs):
            raise exc("refused")

        monkeypatch.setattr(cli, "solve_rho", refuse)
        code, _, err = run(capsys, ["requirement", files["market"], files["poscone"],
                                    "--position=-3,0"])
        assert code == 1
        assert json.loads(err) == {"error": f"{exc.__name__}: refused"}

    def test_every_exception_is_a_capreq_error(self):
        classes = [cls for name in MODULES
                   for _, cls in inspect.getmembers(importlib.import_module(f"capreq.{name}"),
                                                    inspect.isclass)
                   if issubclass(cls, Exception) and cls.__module__ == f"capreq.{name}"]
        assert len(classes) >= 15
        assert [c for c in classes if not issubclass(c, CapreqError)] == []

    def test_price_off_span_exits_one(self, files, capsys):
        error = assert_json_error(run(capsys, ["price", files["three_state"],
                                               "--payoff", "1,0,0"]), 1)
        assert error.startswith("NotInSpan")

    def test_infinite_halfspace_normal_exits_two(self, files, capsys):
        error = assert_json_error(run(capsys, ["requirement", files["market"],
                                               files["inf_normal"], "--position=-3,0"]), 2)
        assert error.startswith("AcceptanceParseError")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_halfspace_normal_exits_one(self, files, capsys):
        assert_json_error(run(capsys, ["requirement", files["market"], files["huge_normal"],
                                       "--position=-3,0"]), 1)

    @pytest.mark.parametrize("argv", [["-h"], ["requirement", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: capreq")


class TestUsageErrors:
    """Bad arguments, argparse's too, and bad point files: exit 2, one JSON error."""

    @pytest.mark.parametrize("argv", [
        ["requirement", "@market", "@poscone", "--position=-3,0", "--tol", "0"],
        ["requirement", "@market", "@poscone", "--position=-3,0", "--tol", "-1"],
        ["requirement", "@market", "@poscone", "--position=-3,0", "--tol", "nan"],
        ["requirement", "@market", "@poscone", "--position=-3,0", "--bracket-max", "0"],
        ["requirement", "@market", "@poscone", "--position=-3,0", "--bracket-max", "inf"],
        ["levelset", "@market", "@poscone", "--grid", "-1"],
        ["levelset", "@market", "@poscone", "--lo", "nan"],
        ["levelset", "@market", "@poscone", "--hi", "inf"],
        ["levelset", "@market", "@poscone", "--level", "nan"],
        ["properties", "@market", "@poscone", "--trials", "-3"],
        ["properties", "@market", "@poscone", "--trials", "3", "--seed", "-1"],
        ["levelset", "@market", "@poscone", "--grid", "abc"],
        ["requirement", "@market", "@poscone"],
        ["frobnicate", "@market"],
    ], ids=["tol-zero", "tol-negative", "tol-nan", "bracket-max-zero", "bracket-max-inf",
            "grid-negative", "lo-nan", "hi-inf", "level-nan", "trials-negative",
            "seed-negative", "grid-not-an-integer", "position-missing", "unknown-command"])
    def test_bad_option_value(self, files, capsys, argv):
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        assert_json_error(run(capsys, argv), 2)

    @pytest.mark.parametrize("text", [
        "[[1, 2], [3",
        "[[1, 2], [3, 4, 5]]",
        "[[1, \"x\"]]",
        "[[1, NaN]]",
        "[[1, 1" + "0" * 400 + "]]",
        "{\"points\": []}",
    ], ids=["not-json", "wrong-length", "not-a-number", "not-finite", "beyond-float-range",
            "not-a-list"])
    def test_bad_points_file(self, files, capsys, tmp_path, text):
        path = tmp_path / "points.json"
        path.write_text(text)
        assert_json_error(run(capsys, ["levelset", files["market"], files["poscone"],
                                       "--points", str(path)]), 2)

    def test_points_file(self, files, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text("[[-3, 0], [1, 1]]")
        code, out, _ = run(capsys, ["levelset", files["market"], files["poscone"],
                                    "--points", str(path)])
        assert code == 0
        assert [p["tag"] for p in json.loads(out)["points"]] == ["above", "below"]


class TestPortfolio:
    def test_weights_replicate(self, files, capsys):
        code, out, _ = run(capsys, ["portfolio", files["market"], files["poscone"],
                                    "--position=-3,0"])
        assert code == 0
        doc = json.loads(out)
        weights = np.asarray(doc["weights"])
        payoff = np.asarray(doc["payoff"])
        market = np.array([[1.0, 1.0], [2.0, 0.5]])
        assert market.T @ weights == pytest.approx(payoff, abs=1e-7)
        assert doc["cost"] == pytest.approx(doc["value"], abs=1e-6)


class TestPriceAndArbitrage:
    def test_price(self, files, capsys):
        code, out, _ = run(capsys, ["price", files["market"], "--payoff", "2,0.5"])
        assert code == 0
        assert json.loads(out)["price"] == pytest.approx(1.0)

    def test_price_not_in_span(self, files, capsys):
        # three-entry payoff is a usage error; non-span payoff is domain error
        code, _, _ = run(capsys, ["price", files["market"], "--payoff", "1,2,3"])
        assert code == 2

    def test_arbitrage_reports_prices(self, files, capsys):
        code, out, _ = run(capsys, ["arbitrage", files["market"]])
        assert code == 0
        assert json.loads(out)["kind"] == "none"


class TestLevelset:
    def test_boundary_line(self, files, capsys):
        code, out, _ = run(capsys, ["levelset", files["market"], files["poscone"],
                                    "--level", "0", "--grid", "9"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 81
        tags = {p["tag"] for p in doc["points"]}
        assert {"below", "above"} <= tags

    def test_translation_of_level(self, files, capsys):
        # classifications at level m, probed at x, match level 0 at x + m * u
        _, out0, _ = run(capsys, ["levelset", files["market"], files["poscone"],
                                  "--level", "0", "--grid", "5",
                                  "--lo", "-2", "--hi", "2"])
        _, out1, _ = run(capsys, ["levelset", files["market"], files["poscone"],
                                  "--level", "1", "--grid", "5",
                                  "--lo", "-3", "--hi", "1"])
        doc0, doc1 = json.loads(out0), json.loads(out1)
        tags1 = {tuple(p["point"]): p["tag"] for p in doc1["points"]}
        for p in doc0["points"]:
            shifted = tuple(np.asarray(p["point"]) - 1.0)
            assert tags1[shifted] == p["tag"]

    def test_degenerate_all_below(self, files, capsys):
        code, out, _ = run(capsys, ["levelset", files["halfplane_market"],
                                    files["halfplane"], "--level", "0", "--grid", "5"])
        assert code == 0
        assert all(p["tag"] == "below" for p in json.loads(out)["points"])

    def test_grid_too_large(self, files, capsys):
        code, _, _ = run(capsys, ["levelset", files["market"], files["poscone"],
                                  "--grid", "1001"])
        assert code == 2


class TestProperties:
    def test_all_suites_pass(self, files, capsys):
        code, out, _ = run(capsys, ["properties", files["market"], files["poscone"],
                                    "--suite", "all", "--trials", "25"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {r["property_id"] for r in doc["reports"]} == {
            "risk_measure_axioms", "levelset_theorem", "domain_theorem",
            "degeneracy_lemmas"}

    def test_degenerate_halfplane_passes(self, files, capsys):
        code, out, _ = run(capsys, ["properties", files["halfplane_market"],
                                    files["halfplane"], "--suite", "levelsets",
                                    "--trials", "7"])
        assert code == 0

    def test_broken_oracle_exits_one(self, files, capsys, monkeypatch):
        from capreq.acceptance import oracle_acceptance

        def broken_loader(text, space):
            return oracle_acceptance(
                space.n, lambda x: bool(x[0] >= -1e-9 and x[1] <= 2.0), [-1.0, 0.0])

        monkeypatch.setattr(cli, "load_acceptance", broken_loader)
        code, out, _ = run(capsys, ["properties", files["market"], files["poscone"],
                                    "--suite", "axioms", "--trials", "40"])
        assert code == 1
        assert json.loads(out)["violations"] >= 1


class TestOutputMechanics:
    def test_byte_identical_runs(self, files, capsys):
        _, out1, _ = run(capsys, ["requirement", files["market"], files["poscone"],
                                  "--position=-3,0"])
        _, out2, _ = run(capsys, ["requirement", files["market"], files["poscone"],
                                  "--position=-3,0"])
        assert out1 == out2

    def test_table_format(self, files, capsys):
        code, out, _ = run(capsys, ["validate", files["market"], "--format", "table"])
        assert code == 0
        assert "arbitrage: none" in out

    def test_unknown_command_exits_two(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2
