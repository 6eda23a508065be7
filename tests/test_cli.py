import json
import math
import os
import tempfile
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from diffwedge import cli, symexpr
from diffwedge.bundle import eval_vector
from diffwedge.cli import ConfigError, load_config, main, render_report, run
from diffwedge.clifford import CliffordAlgebra, blade_mul
from diffwedge.symexpr import ExprSyntaxError, Verdict

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_check_passes_on_shipped_configs(capsys):
    for name in ("two_planes.json", "wedge_dirac.json"):
        assert main(["check", cfg_path(name)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["failed"] == []


def test_check_fails_on_incompatible_scale(capsys):
    assert main(["check", cfg_path("incompatible.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "metric-glue-compatibility" in report["failed"]


def test_missing_config_is_exit_two(capsys):
    assert main(["check", "/nonexistent/nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_expression_reports_column(tmp_path, capsys):
    p = write_cfg(tmp_path, {"charts": [{"id": "a", "h": "x^^2"}]})
    assert main(["check", p]) == 2
    err = capsys.readouterr().err
    assert "column 3" in err


def test_bad_json_is_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 2


def test_json_int_beyond_the_digit_limit_is_exit_two(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text('{"charts": [{"id": "a"}, {"id": "b"}], "gluings": [{"points":'
                 ' [["a", 0], ["b", 0]], "scale": ' + "1" * 5000 + "}]}")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error: config is not valid JSON: " in err
    assert "Traceback" not in err


GLUED = {"charts": [{"id": "a"}, {"id": "b"}],
         "gluings": [{"points": [["a", 0], ["b", 0]]}]}
DIRAC_AT_POLE = {"charts": [{"id": "a", "h": "1/(x-1/7)^2"},
                            {"id": "b", "h": "49"}],
                 "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}]}


@pytest.mark.parametrize("command, data, pointer", [
    ("check", {"tol": "abc"}, "/tol"),
    ("check", {"charts": [{"id": "c1"}, {"id": "c2"}],
               "gluings": [{"points": [["c1"], ["c2", 0]]}]},
     "/gluings/0/points/0"),
    ("check", {"charts": [{"id": "a", "h": "(" * 3000 + "x" + ")" * 3000}]},
     "/charts/0/h"),
    ("check", {"charts": [{"id": "a", "h": "+".join(["x"] * 3000)}]},
     "/charts/0/h"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"a": ["x"], "b": ["1", "x"]}],
                                  "points": [["a", 1]]}},
     "/dirac/sections/0/a"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"a": ["x", "1"]}],
                                  "points": [["a", 0]]}},
     "/dirac/points/0"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"a": ["x", "1"],
                                                "b": ["x", "1"]}],
                                  "points": [["a", 1], ["z", 0]]}},
     "/dirac/points/1"),
    ("check", {"charts": {"id": "a"}}, "/charts"),
    ("check", {"charts": [{"id": "a"}, {"id": "b"}],
               "gluings": {"points": [["a", 0], ["b", 0]]}}, "/gluings"),
    ("dirac", {**GLUED, "dirac": {"sections": {"a": ["x", "1"]}}},
     "/dirac/sections"),
    ("check", {"charts": [{"id": "a", "h": "x"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 1], ["b", 0]]}]}, "/charts/0/h"),
    ("check", {"charts": [{"id": "a", "h": "1/x"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}]},
     "/charts/0/h"),
    ("check", {"charts": [{"id": "a", "h": "1/(x-1)^2"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}]},
     "/charts/0/h"),
    ("check", {"charts": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
               "gluings": [{"points": [["a", 0], ["b", 0]]}]}, "/charts/2"),
    # h is bad at x = 1/5, on the checkers' grid but not on lambda1's
    ("check", {"charts": [{"id": "a", "h": "1/(x-1/5)^2"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 5}]},
     "/charts/0/h"),
    ("check", {"charts": [{"id": "a", "h": "(x-1/5)^2+0*x"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": "1/5"}]},
     "/charts/0/h"),
    # ... and at x = 1/3 of chart b, a point of the Dirac splitting check
    ("check", {"charts": [{"id": "a", "h": "1"}, {"id": "b", "h": "1/(x-1/3)^2"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": "1/3"}]},
     "/charts/1/h"),
    # h divides by zero at a configured Dirac point that no checker samples
    ("dirac", {**DIRAC_AT_POLE, "dirac": {
        "sections": [{"a": ["x", "1"], "b": ["1", "x"]}],
        "points": [["a", "1"], ["a", "1/7"]]}},
     "/dirac/points/1: division by zero at x=1/7"),
    ("report", {**DIRAC_AT_POLE, "dirac": {
        "sections": [{"a": ["x", "1"], "b": ["1", "x"]}],
        "points": [["a", "1/7"]]}},
     "/dirac/points/0: division by zero at x=1/7"),
    # h = exp(700) is a float, but a checker's h^2 overflows
    ("check", {"charts": [{"id": "a", "h": "exp(x)"}, {"id": "b", "h": "exp(x)"}],
               "gluings": [{"points": [["a", "700"], ["b", "700"]]}]},
     "/charts/0/h"),
    # h is a NaN (inf - inf) from x = 3/5 on, on the checkers' grid
    ("check", {"charts": [{"id": "a", "h": "exp(x)*10^308-exp(x)*10^308+1"},
                          {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}]},
     "/charts/0/h: metric coefficient on chart 'a' is not positive at 3/5"),
    # h(2) = 7.4e307 is a float, but the exact rank-1 product 3 h(2) is not
    ("check", {"charts": [{"id": "a", "h": "10^307*exp(x)"},
                          {"id": "b", "h": "10^307*exp(x)"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}]},
     "/charts/0/h: integer division result too large for a float at x=2"),
    # a JSON value of the wrong type where the config needs another
    ("check", {"charts": [5]}, "/charts/0: must be an object"),
    ("check", {"charts": [{"id": ["a"]}]}, "/charts/0/id: must be a string"),
    ("check", {"gluings": [5]}, "/gluings/0: must be an object"),
    ("check", {"fibre": 5}, "/fibre: must be an object"),
    ("check", {"fibre": {"dim": 2, "nonsmooth": [5]}},
     "/fibre/nonsmooth/0: must be a list"),
    ("check", {"fibre": {"dim": 3, "metric": [5, 5, 5]}},
     "/fibre/metric/0: must be a list"),
    ("dirac", {**GLUED, "dirac": 5}, "/dirac: must be an object"),
    ("check", {"charts": [{"id": "a", "h": ["x"]}]}, "/charts/0/h: must be"),
    ("check", {"charts": [{"id": "a", "h": None}]}, "/charts/0/h: must be"),
    # every rational value names where it is
    ("check", {**GLUED, "gluings": [{"points": [["a", 0], ["b", 0]],
                                     "scale": "abc"}]},
     "/gluings/0/scale: not a rational number: 'abc'"),
    ("check", {**GLUED, "gluings": [{"points": [["a", 0], ["b", "abc"]]}]},
     "/gluings/0/points/1/1: not a rational number"),
    ("check", {"fibre": {"dim": 2, "nonsmooth": [[0, "abc"]]}},
     "/fibre/nonsmooth/0/1: not a rational number"),
    ("check", {"fibre": {"dim": 2, "metric": [[1, 0], ["abc", 1]]}},
     "/fibre/metric/1/0: not a rational number"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"a": ["x", "1"],
                                                "b": ["x", "1"]}],
                                  "points": [["a", "abc"]]}},
     "/dirac/points/0/1: not a rational number"),
    ("check", {"fibre": {"dim": True, "nonsmooth": [[1]]}},
     "/fibre/dim: must be a positive integer"),
    # an exponent beyond the int digit limit, which Fraction would expand
    ("check", {**GLUED, "gluings": [{"points": [["a", 0], ["b", 0]],
                                     "scale": "1e999999999999"}]},
     "/gluings/0/scale: more than 4300 digits: '1e999999999999'"),
    ("check", {**GLUED, "gluings": [{"points": [["a", "-1E-999999999999"],
                                                ["b", 0]]}]},
     "/gluings/0/points/0/1: more than 4300 digits"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"a": ["x", "1"],
                                                "b": ["x", "1"]}],
                                  "points": [["a", "1.5e+1_000_000"]]}},
     "/dirac/points/0/1: more than 4300 digits"),
    # the first error in section order, then point order: section 1 fails
    # at a point before the one where section 0 fails
    ("dirac", {**GLUED, "dirac": {
        "sections": [{"a": ["1/(x-2/5)", "1"], "b": ["1", "x"]},
                     {"a": ["1/(x-1/5)", "1"], "b": ["x", "1"]}],
        "points": [["a", 0], ["a", "1/5"], ["a", "2/5"]]}},
     "/dirac/points/2: division by zero at x=2/5"),
    # one chart glued to itself is no wedge of two legs
    *[(command, {"charts": [{"id": "a"}],
                 "gluings": [{"points": [["a", 0], ["a", 1]]}],
                 "dirac": {"sections": [{"a": ["x", "1"]}],
                           "points": [["a", 1]]}},
       "/gluings/0: glues chart 'a' to itself")
      for command in ("check", "report", "dirac")],
    # the glued suites take exactly one gluing of two charts
    ("check", {"charts": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
               "gluings": [{"points": [["a", 0], ["b", 0]]},
                           {"points": [["b", 1], ["c", 0]]}]},
     "/gluings: exactly one gluing is supported"),
    ("dirac", {"charts": [{"id": "a"}],
               "dirac": {"sections": [{"a": ["x", "1"]}],
                         "points": [["a", 1]]}},
     "/gluings: exactly one gluing is supported"),
    ("check", {"charts": [{"h": "1"}]}, "/charts/0: missing id"),
    ("check", {"fibre": {"dim": 2, "nonsmooth": [[1, 0, 0]]}},
     "/fibre/nonsmooth: wrong vector length"),
    ("check", {"fibre": {"dim": 2, "metric": [[1, 0]]}},
     "/fibre/metric: wrong shape"),
    # exact powers of (x^2+1)^100000 would take minutes per sample point
    *[(command, {"charts": [{"id": "a", "h": "(x^2+1)^100000"}, {"id": "b"}],
                 "gluings": [{"points": [["a", 0], ["b", 0]]}],
                 "dirac": {"sections": [{"a": ["x", "1"], "b": ["x", "1"]}],
                           "points": [["a", 1]]}},
       "/charts/0/h: degree bound 200000 above 4096")
      for command in ("check", "report", "dirac")],
    # and so would the exact powers of a constant in (3/2)^100000000
    *[(command, {"charts": [{"id": "a", "h": "1+(3/2)^100000000"},
                            {"id": "b"}],
                 "gluings": [{"points": [["a", 0], ["b", 0]]}],
                 "dirac": {"sections": [{"a": ["x", "1"], "b": ["x", "1"]}],
                           "points": [["a", 1]]}},
       "/charts/0/h: degree bound 100000000 above 4096")
      for command in ("check", "report", "dirac")],
    # JSON's NaN and Infinity are floats with no rational value
    ("check", {"charts": [{"id": "a", "h": float("nan")}]},
     "/charts/0/h: not a finite number"),
    ("check", {"charts": [{"id": "a", "h": float("inf")}]},
     "/charts/0/h: not a finite number"),
    ("check", {**GLUED, "gluings": [{"points": "ab"}]},
     "/gluings/0: needs [from, to] points"),
    ("dirac", {**GLUED, "dirac": {"sections": [{"z": ["x", "1"]}],
                                  "points": [["a", 0]]}},
     "/dirac/sections/0: unknown chart z"),
], ids=["tol", "glue-point", "nested-parentheses", "long-sum",
        "one-component-section", "point-section-lacks", "point-unknown-chart",
        "charts-object", "gluings-object", "sections-object",
        "h-not-positive", "h-zero-divisor-at-glue-point",
        "h-zero-divisor-on-sample-grid", "chart-outside-gluing",
        "h-zero-divisor-on-checker-grid", "h-zero-on-checker-grid",
        "h-zero-divisor-at-splitting-point", "h-zero-divisor-at-dirac-point",
        "h-zero-divisor-at-dirac-point-in-report", "h-squared-overflows",
        "h-nan-on-checker-grid", "clifford-product-overflows",
        "chart-not-object", "chart-id-list", "gluing-not-object",
        "fibre-not-object", "nonsmooth-row-not-list", "metric-row-not-list",
        "dirac-not-object", "h-list", "h-null", "scale-not-rational",
        "glue-coordinate-not-rational", "nonsmooth-entry-not-rational",
        "metric-entry-not-rational", "dirac-point-not-rational", "dim-true",
        "scale-exponent", "glue-coordinate-exponent", "dirac-point-exponent",
        "dirac-error-in-section-order", "self-glued-chart-check",
        "self-glued-chart-report", "self-glued-chart-dirac", "two-gluings",
        "dirac-without-gluing", "chart-without-id",
        "nonsmooth-vector-length", "metric-shape", "h-degree-check",
        "h-degree-report", "h-degree-dirac", "h-constant-power-check",
        "h-constant-power-report", "h-constant-power-dirac", "h-nan",
        "h-infinity", "gluing-points-string", "section-unknown-chart"])
def test_malformed_values_exit_two(tmp_path, capsys, command, data, pointer):
    assert main([command, write_cfg(tmp_path, data)]) == 2
    assert pointer in capsys.readouterr().err


def _shipped(name, **changes):
    with open(cfg_path(name)) as fh:
        return {**json.load(fh), **changes}


@pytest.mark.parametrize("tol, argv", [
    (-1, []), (float("nan"), []), (float("inf"), []), ("nan", []),
    ("-inf", []), ("1e400", []), (True, []), (False, []),
    (None, ["--tol", "nan"]), (None, ["--tol", "-1"]), (None, ["--tol", "inf"]),
], ids=["negative", "nan", "inf", "nan-string", "minus-inf-string",
        "overflowing-string", "true", "false", "option-nan", "option-negative",
        "option-inf"])
def test_unusable_tol_exits_two(tmp_path, capsys, tol, argv):
    data = _shipped("two_planes.json", **({} if tol is None else {"tol": tol}))
    assert main(["check", write_cfg(tmp_path, data), *argv]) == 2
    err = capsys.readouterr().err
    assert "/tol: " in err and "Traceback" not in err


def test_zero_and_string_tol_are_usable(tmp_path, capsys):
    p = write_cfg(tmp_path, _shipped("wedge_dirac.json", tol="1e-10"))
    assert main(["check", p]) == 0
    assert main(["check", p, "--tol", "0"]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, data, pointer", [
    ("check", {"charts": [{"id": "a", "h": "exp(x)"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", "1e400"], ["b", 0]]}]},
     "/charts/0/h"),
    # the metric-glue gate's difference and its witness overflow
    ("check", {"charts": [{"id": "a", "h": "x^2+1"}, {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", "1e200"], ["b", 0]]}]},
     "/gluings/0"),
    ("check", {"charts": [{"id": "a", "h": "x^2+1"}, {"id": "b", "h": "x^2+1"}],
               "gluings": [{"points": [["a", "1e200"], ["b", "1e200"]]}]},
     "/gluings/0"),
    ("check", {"charts": [{"id": "a"}, {"id": "b"}],
               "gluings": [{"points": [["a", 0], ["b", 0]], "scale": "1e400"}]},
     "/gluings/0"),
    # h is inf or nan at the glue point, values with no rational to compare
    ("check", {"charts": [{"id": "a", "h": "exp(x)*exp(x)"}, {"id": "b"}],
               "gluings": [{"points": [["a", 400], ["b", 0]]}]},
     "/gluings/0"),
    ("check", {"charts": [{"id": "a", "h": "exp(x)*exp(x)-exp(x)*exp(x)+1"},
                          {"id": "b"}],
               "gluings": [{"points": [["a", 400], ["b", 0]]}]},
     "/gluings/0"),
    # lambda1's positivity grid reaches x = 2, where h overflows
    ("check", {"charts": [{"id": "a", "h": "exp(exp(exp(x)))"},
                          {"id": "b", "h": "1"}],
               "gluings": [{"points": [["a", 0], ["b", 0]]}]},
     "/charts/0/h"),
    ("dirac", {**_shipped("wedge_dirac.json"),
               "dirac": {**_shipped("wedge_dirac.json")["dirac"],
                         "points": [["c1", "0"], ["c1", "1e400"]]}},
     "/dirac/points/1"),
    # h is exact on the sample grid, but 2^1100 has no float for unitarity
    ("check", {"charts": [{"id": "c1", "h": "x^1100+1"},
                          {"id": "c2", "h": "x^1100+1"}],
               "gluings": [{"points": [["c1", 0], ["c2", 0]]}]},
     "/charts/0/h"),
    # ... and 1/(2^1100 + 1) rounds to the float 0.0
    ("check", {"charts": [{"id": "c1", "h": "1/(x^1100+1)"},
                          {"id": "c2", "h": "1/(x^1100+1)"}],
               "gluings": [{"points": [["c1", 0], ["c2", 0]]}]},
     "/charts/0/h"),
], ids=["h-at-glue-point", "gate-difference", "gate-witness", "scale",
        "gate-h-inf", "gate-h-nan", "h-on-lambda1-grid", "dirac-point",
        "exact-h-beyond-floats", "exact-h-below-floats"])
def test_float_overflow_is_a_config_error(tmp_path, capsys, command, data,
                                          pointer):
    assert main([command, write_cfg(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {pointer}: " in err and "Traceback" not in err
    assert " at x=" in err or pointer.startswith(("/gluings", "/dirac"))


def test_config_validation_paths(tmp_path):
    with pytest.raises(ConfigError, match="/fibre/dim"):
        load_config(write_cfg(tmp_path, {"fibre": {"dim": 0}}))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_cfg(tmp_path,
                              {"charts": [{"id": "a"}, {"id": "a"}]}))
    with pytest.raises(ConfigError, match="unknown chart"):
        load_config(write_cfg(
            tmp_path, {"charts": [{"id": "a"}],
                       "gluings": [{"points": [["a", 0], ["z", 0]]}]}))


@pytest.mark.parametrize("value", ["1e999999999999", "-1E-999999999999",
                                   "1.5e+1_000_000", "1e4301"])
@pytest.mark.parametrize("where", ["scale", "coordinate", "dirac-point"])
def test_huge_exponents_are_rejected_at_once(tmp_path, where, value):
    # Fraction would build 10**exp: "1e1000000" alone takes about 0.4 s
    data = {**GLUED, "dirac": {"sections": [{"a": ["x", "1"], "b": ["x", "1"]}],
                               "points": [["a", "1/2"]]}}
    if where == "scale":
        data["gluings"] = [{"points": [["a", 0], ["b", 0]], "scale": value}]
    elif where == "coordinate":
        data["gluings"] = [{"points": [["a", value], ["b", 0]]}]
    else:
        data["dirac"]["points"] = [["a", value]]
    path = write_cfg(tmp_path, data)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="more than 4300 digits"):
        load_config(path)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("where, expr, degree", [
    ("h", "(x^2+1)^100000", 200000),
    ("h", "((x^2+1)^100)^100", 20000),
    ("h", "(3/2)^100000000", 100000000),
    ("section", "x^5000", 5000),
])
def test_high_degree_expressions_are_rejected_at_once(tmp_path, where, expr,
                                                      degree):
    # the exact value of (x^2+1)^100000 at x = 1/5 has about 470,000 bits
    # in numerator and denominator, computed at every sample point
    data = {**GLUED, "dirac": {"sections": [{"a": ["x", "1"], "b": ["x", "1"]}],
                               "points": [["a", "1/2"]]}}
    if where == "h":
        data["charts"] = [{"id": "a", "h": expr}, {"id": "b", "h": expr}]
        pointer = "/charts/0/h"
    else:
        data["dirac"]["sections"][0]["b"] = ["1", expr]
        pointer = "/dirac/sections/0/b"
    path = write_cfg(tmp_path, data)
    start = time.perf_counter()
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert time.perf_counter() - start < 1
    assert str(err.value) == f"{pointer}: degree bound {degree} above 4096"


def test_degree_bound_rules():
    cases = {"7": 0, "2^3": 3, "(1/2)^-5 * x": 6, "x": 1, "-x^3": 3, "x^2 + x^5": 5, "x^2 * x^3": 5,
             "x^2 / (x^3 + 1)": 5, "x^-4": 4, "(x^2 + 1)^3": 6,
             "exp(x^3) * sin(x) + cos(x^2)": 4, "x^4096": 4096}
    for text, degree in cases.items():
        assert cli._degree(symexpr.parse_expr(text)) == degree, text


def test_exponents_within_the_digit_limit_load(tmp_path):
    data = {**GLUED, "dirac": {"sections": [{"a": ["x", "1"], "b": ["x", "1"]}],
                               "points": [["a", "1e-3"], ["a", "25E-1"],
                                          ["a", "1e4300"]]}}
    cfg = load_config(write_cfg(tmp_path, data))
    assert [p[1] for p in cfg["dirac"]["points"]] == [
        Fraction(1, 1000), Fraction(5, 2), Fraction(10) ** 4300]


def test_report_is_byte_stable(tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["check", cfg_path("wedge_dirac.json"), "--json", out1]) == 0
    assert main(["check", cfg_path("wedge_dirac.json"), "--json", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_seed_changes_random_data_but_not_verdicts(capsys):
    assert main(["check", cfg_path("wedge_dirac.json"), "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 5
    assert report["failed"] == []


def test_dual_metric_values(capsys):
    assert main(["dual-metric", cfg_path("two_planes.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["dual_basis"] == [["1", "0", "0"],
                                              ["0", "1", "-1"]]
    assert report["values"]["dual_metric"] == [["2/3", "-1/3"],
                                               ["-1/3", "2/3"]]
    assert "sometimes-quoted" in report["values"]["note"]
    names = [v["name"] for v in report["verdicts"]]
    assert "dual-metric-defining-identity" in names


def test_clifford_table_command(tmp_path, capsys):
    p = write_cfg(tmp_path, {"fibre": {"dim": 2,
                                       "metric": [[1, 0], [0, 1]]}})
    assert main(["clifford-table", p]) == 0
    report = json.loads(capsys.readouterr().out)
    table = report["values"]["clifford_table"]
    assert table["e1 . e1"] == {"1": "-1"}
    (name, coeff), = table["e1 . e2"].items()
    assert name == "e1^e2" and str(coeff) == "1"
    p2 = write_cfg(tmp_path, {"charts": []}, "nofibre.json")
    assert main(["clifford-table", p2]) == 2


def test_dirac_command_values(capsys):
    assert main(["dirac", cfg_path("wedge_dirac.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["values"]["dirac"]
    assert rows, "dirac block should produce values"
    for row in rows:
        for key, val in row.items():
            assert len(val) == 2


def test_dirac_builds_each_chart_value_once(tmp_path, monkeypatch):
    # D s is built once per (section, chart), then evaluated at each point
    from diffwedge import cli, dirac
    built = Counter()
    apply = dirac.apply_dirac_chart
    monkeypatch.setattr(dirac, "apply_dirac_chart", lambda d, comps, cid:
                        built.update([(id(comps), cid)]) or apply(d, comps, cid))
    data = {"charts": [{"id": "a", "h": "1+x^2"}, {"id": "b", "h": "1/(1+x^2)"}],
            "gluings": [{"points": [["a", 0], ["b", 0]]}],
            "dirac": {"sections": [{"a": [f"x^2+{k}", "x-1"], "b": ["1", f"{k}*x"]}
                                   for k in range(3)],
                      "points": [[cid, f"{i}/7"] for cid in "ab"
                                 for i in range(1, 21)]}}
    cfg = load_config(write_cfg(tmp_path, data))
    report, code = run("dirac", cfg)
    assert code == 0 and len(report["values"]["dirac"]) == 3
    assert sorted(built.values()) == [1] * 6
    d = dirac.dirac(cli._build_module(cfg)[1])
    for comp, row in zip(cfg["dirac"]["sections"], report["values"]["dirac"]):
        for cid, x in cfg["dirac"]["points"]:
            assert row[f"{cid}@{x}"] == eval_vector(apply(d, comp, cid), x)


def test_run_report_command():
    cfg = load_config(cfg_path("two_planes.json"))
    report, code = run("report", cfg)
    assert code == 0
    assert "clifford_table" in report["values"]
    assert render_report(report).endswith("\n")


def test_report_includes_only_the_blocks_present(capsys):
    # wedge_dirac.json has no fibre block; report must not require one
    assert main(["report", cfg_path("wedge_dirac.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["dirac"]
    assert "dual_metric" not in report["values"]
    assert "clifford_table" not in report["values"]
    assert report["failed"] == []


def test_block_commands_still_require_their_block(capsys):
    assert main(["dual-metric", cfg_path("wedge_dirac.json")]) == 2
    assert "needs a fibre block" in capsys.readouterr().err
    assert main(["clifford-table", cfg_path("wedge_dirac.json")]) == 2
    assert main(["dirac", cfg_path("two_planes.json")]) == 2


def test_report_runs_the_fibre_suite_once(monkeypatch):
    from diffwedge import cli
    calls = []
    suite = cli._fibre_suite
    monkeypatch.setattr(cli, "_fibre_suite",
                        lambda cfg: calls.append(cfg) or suite(cfg))
    report, code = run("report", load_config(cfg_path("two_planes.json")))
    assert code == 0 and len(calls) == 1
    names = [v["name"] for v in report["verdicts"]]
    assert names.count("dual-metric-defining-identity") == 1


@pytest.mark.parametrize("command", ["report", "dirac"])
def test_exterior_module_is_built_once(monkeypatch, command):
    # report's Dirac block reuses the module its glued suite built
    from diffwedge import cli
    calls = Counter()
    for name in ("lambda1", "exterior_module"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=real:
                            calls.update([_name]) or _real(*a))
    report, code = run(command, load_config(cfg_path("wedge_dirac.json")))
    assert code == 0 and report["values"]["dirac"]
    assert calls == Counter(lambda1=2, exterior_module=1)


def test_check_builds_one_dirac_chart_per_section_pair(monkeypatch):
    # the splitting check values the glued side at the glue point and the
    # representative leg's D s there: one chart build for each of its five
    # section pairs
    from diffwedge import dirac
    built = []
    apply = dirac.apply_dirac_chart
    monkeypatch.setattr(dirac, "apply_dirac_chart", lambda d, comps, cid:
                        built.append(cid) or apply(d, comps, cid))
    report, code = run("check", load_config(cfg_path("two_planes.json")))
    assert code == 0
    assert built == ["c2"] * 5


# the verdicts of `check` on two_planes.json and the record fields of each
CHECK_VERDICTS = [
    ("metric-glue-compatibility", ["witness"]),
    ("action-equivariance", ["witness"]),
    ("algebra-morphism", ["witness"]),
    ("glued-clifford-product", ["residual"]),
    ("one-form-fibre-dimensions", []),
    ("dual-metric-coincidence", ["witness"]),
    ("leibniz", ["residual"]),
    ("metric-compatibility", ["residual", "witness"]),
    ("torsion-free", []),
    ("koszul", ["residual"]),
    ("clifford-connection", ["residual"]),
    ("unitarity", ["residual"]),
    ("dirac-splitting", []),
    ("pseudo-metric", ["rank", "reason"]),
    ("dual-metric-defining-identity", []),
]


@pytest.mark.parametrize("checker, name", [
    ("check_action_compatibility", "action-equivariance"),
    ("dual_metric_identity_check", "dual-metric-coincidence"),
    ("check_leibniz", "leibniz"),
    ("check_unitarity", "unitarity"),
    ("verify_splitting", "dirac-splitting"),
])
def test_a_planted_failure_fails_only_its_verdict(monkeypatch, checker, name):
    from diffwedge import cli
    monkeypatch.setattr(cli, checker,
                        lambda *a: Verdict(False, 0.5, "planted"))
    report, code = run("check", load_config(cfg_path("two_planes.json")))
    assert code == 1 and report["failed"] == [name]
    got = [(v["name"], sorted(set(v) - {"name", "pass"}))
           for v in report["verdicts"]]
    # dirac-splitting writes its residual only when it fails
    want = [(n, ["residual"] if n == name == "dirac-splitting" else f)
            for n, f in CHECK_VERDICTS]
    assert got == want
    failed = next(v for v in report["verdicts"] if v["name"] == name)
    assert failed["pass"] is False
    assert failed.get("residual", 0.5) == 0.5
    assert failed.get("witness", "planted") == "planted"


def test_an_overflow_in_any_glued_check_names_its_chart(tmp_path, monkeypatch,
                                                        capsys):
    from diffwedge import cli

    def overflow(*a):
        exc = OverflowError("math range error at x=0")
        exc.key = "c2"
        raise exc

    monkeypatch.setattr(cli, "check_action_compatibility", overflow)
    assert main(["check", cfg_path("two_planes.json")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: /charts/1/h: math range error at x=0\n"


def test_dual_metric_validates_the_metric_once(monkeypatch):
    from diffwedge import clifford, cli, dvspace
    calls = Counter()
    real = dvspace.is_pseudo_metric
    for mod in (cli, clifford, dvspace):
        monkeypatch.setattr(mod, "is_pseudo_metric",
                            lambda *a: calls.update(["is_pseudo_metric"])
                            or real(*a))
    assert main(["dual-metric", cfg_path("two_planes.json")]) == 0
    assert calls == Counter(is_pseudo_metric=1)


def test_dual_metric_eliminates_six_times(tmp_path, monkeypatch):
    # one elimination each for K's basis, the dual basis (twice: once for
    # the report, once cached on the model), the smooth forms, the inverse
    # in dual_metric and the pairing map of all e_i; the fibre is
    # perfbench.workloads.fibre_config(random.Random(1), 8, 2)
    from diffwedge import linalg
    fibre = {"dim": 8,
             "nonsmooth": [[-1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, -1, 0, 0, 1, 2]],
             "metric": [[2, 0, 1, -1, 0, 0, 1, -1],
                        [0, 6, -6, 0, 6, -3, 0, 0],
                        [1, -6, 10, -1, -10, 3, 1, -1],
                        [-1, 0, -1, 3, -1, -4, 1, 1],
                        [0, 6, -10, -1, 13, 1, -3, 1],
                        [0, -3, 3, -4, 1, 11, -4, 0],
                        [1, 0, 1, 1, -3, -4, 3, -1],
                        [-1, 0, -1, 1, 1, 0, -1, 1]]}
    path = write_cfg(tmp_path, {"fibre": fibre})
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda m: calls.append(len(m)) or real(m))
    report, code = run("dual-metric", load_config(path))
    assert code == 0 and report["failed"] == []
    assert len(calls) == 6


@pytest.mark.parametrize("command", ["clifford-table", "report", "check"])
def test_metric_that_is_not_a_pseudo_metric_fails_its_verdict(tmp_path, capsys,
                                                              command):
    # every command reports the failed verdict; no Clifford table is built
    p = write_cfg(tmp_path, {"fibre": {"dim": 3, "metric": [[0, 1, 0], [1, 0, 2],
                                                            [0, 2, 0]]}})
    assert main([command, p]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == [{"name": "pseudo-metric", "pass": False,
                                   "rank": 0,
                                   "reason": "not positive semidefinite"}]
    assert report["failed"] == ["pseudo-metric"]
    assert "clifford_table" not in report["values"]


@pytest.mark.parametrize("command", ["dual-metric", "check", "report"])
def test_zero_dimensional_dual(tmp_path, capsys, command):
    # every direction non-smooth: the dual is 0-dimensional, its metric 0x0
    p = write_cfg(tmp_path, {"fibre": {"dim": 2, "nonsmooth": [[1, 0], [0, 1]],
                                       "metric": [[0, 0], [0, 0]]}})
    assert main([command, p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["dual_metric"] == []
    passed = {v["name"]: v["pass"] for v in report["verdicts"]}
    assert passed["dual-metric-defining-identity"]


@pytest.mark.parametrize("command", ["dirac", "report"])
def test_failed_metric_glue_gate_is_a_verdict(tmp_path, capsys, command):
    # h_a(0) = 1/49 but scale^2 h_b(0) = 1: the Dirac block reports the
    # failed gate, as check does, instead of raising from the gluing
    p = write_cfg(tmp_path, {
        "charts": [{"id": "a", "h": "(x-1/7)^2+0*x"}, {"id": "b", "h": "1"}],
        "gluings": [{"points": [["a", 0], ["b", 0]], "scale": 1}],
        "dirac": {"sections": [{"a": ["x", "1"], "b": ["1", "x"]}],
                  "points": [["a", "1"]]}})
    assert main(["check", p]) == 1
    gate = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["name"] for v in gate] == ["metric-glue-compatibility"]
    assert main([command, p]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err and err == ""
    report = json.loads(out)
    assert report["verdicts"] == gate
    assert report["failed"] == ["metric-glue-compatibility"]
    assert "dirac" not in report["values"]


def test_float_metric_glue_within_tolerance(tmp_path, capsys):
    # 5/3 exp(0) is a float next to the exact 5/3 of the other chart
    p = write_cfg(tmp_path, {"charts": [{"id": "a", "h": "5/3*exp(x)"},
                                        {"id": "b", "h": "5/3"}],
                             "gluings": [{"points": [["a", 0], ["b", 0]],
                                          "scale": 1}]})
    assert main(["check", p]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == []


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("ha, hb, code", [
    ("exp(x)", "exp(x)", 0),
    # rational metrics are compared exactly, however near they are
    ("1", "1+1/10000000000000", 1),
], ids=["float-equal", "rational-near-miss"])
def test_metric_glue_gate(tmp_path, capsys, command, ha, hb, code):
    p = write_cfg(tmp_path, {"charts": [{"id": "a", "h": ha},
                                        {"id": "b", "h": hb}],
                             "gluings": [{"points": [["a", 0], ["b", 0]],
                                          "scale": 1}]})
    assert main([command, p]) == code
    out, err = capsys.readouterr()
    assert err == ""
    failed = json.loads(out)["failed"]
    assert failed == ([] if code == 0 else ["metric-glue-compatibility"])


@pytest.mark.parametrize("c", ["1", "10^10", "10^60"])
def test_verdicts_are_invariant_under_rescaling_h(tmp_path, capsys, c):
    # float residuals grow with c; relative to the sides they stay < 1e-13
    p = write_cfg(tmp_path, {"charts": [{"id": "a", "h": f"{c}*exp(x)"},
                                        {"id": "b", "h": f"{c}*exp(x)"}],
                             "gluings": [{"points": [["a", 0], ["b", 0]],
                                          "scale": 1}]})
    assert main(["check", p]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == []


def test_zero_tol_reaches_every_sampled_verdict(capsys):
    assert main(["check", cfg_path("two_planes.json"), "--tol", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == [
        "leibniz", "metric-compatibility", "torsion-free", "koszul",
        "clifford-connection", "unitarity"]


def test_gate_and_glue_fibre_verdicts_agree_at_the_tolerance_edge(
        tmp_path, capsys):
    # exp(1) as a float against a rational 4e-13 above it: a 9-fold gap in
    # the products of algebra-morphism is still within tol of their size
    p = write_cfg(tmp_path, {
        "charts": [{"id": "a", "h": "exp(x)"},
                   {"id": "b", "h": "2718281828459445/1000000000000000"}],
        "gluings": [{"points": [["a", 1], ["b", 0]], "scale": 1}]})
    assert main(["check", p]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["pass"] for v in verdicts[:3]] == [True] * 3
    assert [v["name"] for v in verdicts[:4]] == [
        "metric-glue-compatibility", "action-equivariance",
        "algebra-morphism", "glued-clifford-product"]


def test_unitarity_is_relative_to_the_metric(tmp_path, capsys):
    # h = 1e300 + 1 on both legs: a float residual near 1e284 is 1e-16 of h
    p = write_cfg(tmp_path, {"charts": [{"id": "a", "h": "x^2+1"},
                                        {"id": "b", "h": "x^2+1"}],
                             "gluings": [{"points": [["a", "1e150"],
                                                     ["b", "1e150"]],
                                          "scale": "1"}]})
    assert main(["check", p]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert {"name": "unitarity", "pass": True,
            "residual": "1.4870169084777831e+284"} in verdicts


def _canon(v):
    """The canonical form that render_report once passed to json.dumps."""
    if isinstance(v, bool) or v is None or isinstance(v, (str, int)):
        return v
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, symexpr.Expr):
        return symexpr.to_str(v)
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    return str(v)


LEAVES = st.one_of(
    st.text(), st.sampled_from(["", "\x00\n\t\"\\", "\u00e9\u2202\U0001d53c"]),
    st.integers(), st.booleans(), st.none(), st.fractions(),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.sampled_from([symexpr.parse_expr(t) for t in ("x^2+1", "exp(x)/2")]),
    st.sampled_from([range(2), frozenset()]))
REPORTS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.integers(), st.fractions()), kids,
                    max_size=4)), max_leaves=25)


@given(REPORTS)
@example({1: "a", "1": "b"})
@example({"1": "b", 1: "a", "z": {}, "y": [], "x": ()})
@example([{"e1 . e2": {"e1^e2": 1}, "1 . 1": {"1": Fraction(1)}}])
def test_render_report_matches_json_dumps(report):
    assert render_report(report) == json.dumps(
        _canon(report), sort_keys=True, indent=2) + "\n"


# Diagonals of a Clifford algebra as build_algebra makes them (Fractions)
# and as a caller may pass them (ints, floats, -0.0), mixed.
TABLE_DIAGONALS = st.lists(st.one_of(
    st.integers(-3, 3), st.fractions(max_denominator=7),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0])), max_size=5)


@given(TABLE_DIAGONALS)
@example([1, Fraction(1), -0.0, 0.0, 2.5])
@example([])
def test_clifford_table_renders_as_the_old_dict(diag):
    # the report once held {"a . b": {c: coeff}}, built in mask order
    alg = CliffordAlgebra(len(diag), (), tuple(diag))
    names = [alg.blade_name(m) for m in range(alg.dim)]
    table = {}
    for sa, sb in product(range(alg.dim), repeat=2):
        mask, coeff = blade_mul(sa, sb, alg._factors)
        table[f"{names[sa]} . {names[sb]}"] = {names[mask]: coeff}
    cfg = {"name": "diag", "tol": 1e-10, "charts": [], "gluings": [],
           "fibre": {"model": None, "metric": [[0]]}, "dirac": None}
    with mock.patch.object(cli, "build_algebra", lambda model, g: alg):
        report, code = run("clifford-table", cfg)
    assert code == 0
    old = {**report, "values": {"clifford_table": table}}
    assert render_report(report) == json.dumps(
        _canon(old), sort_keys=True, indent=2) + "\n"


def test_table_text_is_keyed_by_object_not_value():
    # equal coefficients that render apart, and two equal Fraction objects
    half, other_half = Fraction(1, 2), Fraction(2, 4)
    coeffs = [1, Fraction(1), 1.0, -1, Fraction(-1), 0.0, -0.0, Fraction(0),
              half, other_half, 1, -0.0]
    rows = sorted(((f"e{i}", "e1", "1", x) for i, x in enumerate(coeffs)),
                  key=lambda r: f"{r[0]} . {r[1]}")
    report = {"values": {"clifford_table": cli._Table((rows,))}}
    old = {"values": {"clifford_table": {f"{a} . {b}": {c: x}
                                         for a, b, c, x in rows}}}
    assert render_report(report) == json.dumps(
        _canon(old), sort_keys=True, indent=2) + "\n"


@given(st.fractions())
@example(Fraction(0))
@example(Fraction(-7))
@example(Fraction(-3, 4))
def test_scalar_writes_a_fraction_as_p_over_q(v):
    old = f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
        else str(v.numerator)
    assert cli._scalar(v) == json.dumps(old)


def _standard_fibre(dim):
    return {"name": "big", "fibre": {
        "dim": dim, "metric": [[int(i == j) for j in range(dim)]
                               for i in range(dim)]}}


class _Built(Exception):
    pass


def _refuse(*args):
    raise _Built(args[0].n if len(args) == 1 else args)


@pytest.mark.parametrize("command", ["clifford-table", "report"])
def test_a_fibre_above_dim_ten_has_no_table(tmp_path, capsys, command):
    # dim 11 is 4^11 rows; refused before any suite runs or a table is built
    p = write_cfg(tmp_path, {**GLUED, **_standard_fibre(11)})
    with mock.patch.object(cli, "multiplication_table", _refuse), \
            mock.patch.object(cli, "_glued_suite", _refuse), \
            mock.patch.object(cli, "_fibre_suite", _refuse):
        assert main([command, p]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: /fibre/dim: 11 above 10, too large for a "
                   "Clifford table of 4^dim rows\n")
    # dim 10 is still tabled, and dual-metric has no table to bound
    cfg = load_config(write_cfg(tmp_path, _standard_fibre(10)))
    with mock.patch.object(cli, "multiplication_table", _refuse):
        with pytest.raises(_Built, match="10"):
            run(command, cfg)
    assert run("dual-metric", load_config(p))[1] == 0


# ---------------------------------------------------------------------------
# config fuzzer: one node of a shipped config given a value of another type

def _load_shipped(name):
    with open(cfg_path(name)) as fh:
        return json.load(fh)


SHIPPED = {name: _load_shipped(name) for name in sorted(os.listdir(CONFIGS))
           if name.endswith(".json")}


def _paths(v, path=()):
    """The path of every node of the JSON value v, the root's () first."""
    yield path
    if isinstance(v, dict):
        items = v.items()
    elif isinstance(v, list):
        items = enumerate(v)
    else:
        items = ()
    for k, x in items:
        yield from _paths(x, path + (k,))


def _kind(v):
    """The JSON type of v: a bool is no int, an int no float."""
    return "bool" if isinstance(v, bool) else type(v).__name__


def _retyped(v, path, new):
    """A copy of v with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    v = json.loads(json.dumps(v))
    parent = v
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = new
    return v


NODES = [(name, path) for name, raw in SHIPPED.items() for path in _paths(raw)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=6)


@given(st.sampled_from(NODES), JSON_VALUES)
@example(("two_planes.json", ("charts", 0)), 5)
@example(("two_planes.json", ("charts", 0, "id")), ["a"])
@example(("two_planes.json", ("gluings", 0)), 5)
@example(("two_planes.json", ("fibre",)), 5)
@example(("two_planes.json", ("fibre", "nonsmooth", 0)), 5)
@example(("two_planes.json", ("fibre", "metric", 0)), 5)
@example(("wedge_dirac.json", ("dirac",)), 5)
@example(("two_planes.json", ("charts", 0, "h")), ["x"])
@example(("two_planes.json", ("charts", 0, "h")), None)
@example(("two_planes.json", ("fibre", "dim")), True)
@example(("two_planes.json", ("tol",)), 10 ** 400)
def test_retyped_config_node_loads_or_is_a_config_error(node, new):
    name, path = node
    raw = SHIPPED[name]
    old = raw
    for k in path:
        old = old[k]
    assume(_kind(new) != _kind(old))
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, name)
        with open(p, "w") as fh:
            json.dump(_retyped(raw, path, new), fh)
        try:
            load_config(p)
        except (ConfigError, ExprSyntaxError):
            pass
