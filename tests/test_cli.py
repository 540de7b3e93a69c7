import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from msgrav import catalog, cli
from msgrav.errors import DomainError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_passing_metric_exits_zero(capsys):
    code, out, err = run(
        ["check", "--model", "eh", "--metric", "minkowski",
         "--points", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["metric"] == "minkowski"


def test_check_failing_metric_exits_one(capsys):
    code, out, _ = run(
        ["check", "--model", "eh", "--metric", "flrw",
         "--points", "3"], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "fail"
    fams = {f["family"]: f["pass"] for f in obj["families"]}
    assert fams["einstein-constraint"] is False


def test_check_never_imports_the_series():
    # the jets come from the jet program, so a check of either model, in
    # a fresh interpreter, leaves `msgrav.series` unimported
    script = ("import contextlib, io, sys\n"
              "from msgrav import cli\n"
              "for model in ('eh', 'ep'):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        cli.main(['check', '--model', model, '--metric',\n"
              "                  'schwarzschild', '--points', '2'])\n"
              "print('msgrav.series' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout == "False\n"


def test_check_tolerance_override(capsys):
    argv = ["check", "--model", "eh", "--metric", "flrw", "--points", "2",
            "--tol", "einstein-constraint=10",
            "--tol", "einstein-constraint-derivative=10",
            "--tol", "field-equation=10"]
    code, out, _ = run(argv, capsys)
    assert code == 0


@pytest.mark.parametrize("model,family", [
    ("eh", "einstien-constraint"), ("eh", "torsion")])
def test_check_unknown_tolerance_family_exits_two(capsys, model, family):
    code, out, err = run(
        ["check", "--model", model, "--metric", "flrw", "--points", "2",
         "--tol", f"{family}=0.1"], capsys)
    assert code == 2 and out == ""
    assert family in err and "Traceback" not in err


def test_check_csv_format(capsys):
    code, out, _ = run(
        ["check", "--model", "ep", "--metric", "minkowski",
         "--points", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,points,max_resid,mean_resid,tol,pass"


def test_check_writes_output_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(
        ["check", "--model", "eh", "--metric", "minkowski",
         "--points", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text(encoding="utf-8"))["verdict"] == "pass"


def test_bad_output_path_is_config_error(tmp_path, capsys):
    code, _, err = run(
        ["check", "--model", "eh", "--metric", "minkowski", "--points", "2",
         "--out", str(tmp_path / "no" / "dir.json")], capsys)
    assert code == 2
    assert "error" in err


def test_unknown_metric_is_config_error(capsys):
    code, _, err = run(
        ["check", "--model", "eh", "--metric", "nosuch"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_bad_param_is_config_error(capsys):
    code, _, _ = run(
        ["check", "--model", "eh", "--metric", "schwarzschild",
         "--param", "mass=2"], capsys)
    assert code == 2


def test_check_negative_seed_exits_two(capsys):
    code, out, err = run(
        ["check", "--model", "eh", "--metric", "minkowski", "--seed", "-1",
         "--points", "2"], capsys)
    assert code == 2 and out == ""
    assert "seed" in err and "Traceback" not in err


def test_check_too_many_points_exits_two_at_once(monkeypatch, capsys):
    # every point is drawn before the first chunk, so an unbounded count
    # would run on without output until memory runs out; drawing any
    # point fails here instead
    from msgrav import report

    def drawn(spec, n, seed):
        raise AssertionError(f"{n} points were drawn")

    monkeypatch.setattr(report, "sample_points", drawn)
    start = time.perf_counter()
    code, out, err = run(
        ["check", "--model", "eh", "--metric", "minkowski", "--points",
         "100000000000000000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "sample points" in err and "Traceback" not in err


def test_check_infinite_tolerance_exits_two(capsys):
    code, out, err = run(
        ["check", "--model", "eh", "--metric", "flrw", "--points", "2",
         "--tol", "einstein-constraint=inf"], capsys)
    assert code == 2 and out == ""
    assert "einstein-constraint" in err


@pytest.mark.parametrize("argv", [
    ["check", "--model", "eh", "--points", "2"],
    ["jets", "--at", "0,0,0,0"]])
def test_param_with_a_metric_file_is_config_error(tmp_path, capsys, argv):
    # a file sets its parameters in [params]; --param would be ignored
    path = tmp_path / "flat.ini"
    path.write_text("[metric]\ng 0 0 = -1\ng 1 1 = 1\ng 2 2 = 1\n"
                    "g 3 3 = 1\n", encoding="utf-8")
    code, out, err = run(argv + ["--metric", str(path), "--param", "m=5"],
                         capsys)
    assert code == 2 and out == ""
    assert "--param" in err
    assert run(argv + ["--metric", str(path)], capsys)[0] == 0


def test_metric_file_source(tmp_path, capsys):
    path = tmp_path / "flat.ini"
    path.write_text("[metric]\nname = flat-file\ng 0 0 = -1\ng 1 1 = 1\n"
                    "g 2 2 = 1\ng 3 3 = 1\n", encoding="utf-8")
    code, out, _ = run(
        ["check", "--model", "ep", "--metric", str(path),
         "--points", "2"], capsys)
    assert code == 0
    assert json.loads(out)["metric"] == "flat-file"


def test_catalog_list(capsys):
    code, out, _ = run(["catalog", "list"], capsys)
    assert code == 0
    assert "schwarzschild" in out
    assert "vacuum=yes" in out


def test_jets_dump(capsys):
    code, out, _ = run(
        ["jets", "--metric", "schwarzschild", "--at", "0,3,1.5707963,1"],
        capsys)
    assert code == 0
    assert "g[00] = -0.333333" in out


def test_jets_leaves_numpy_print_options_alone(capsys):
    import numpy as np
    before = np.get_printoptions()
    code, _, _ = run(
        ["jets", "--metric", "kasner", "--at", "1.5,0.2,-0.3,0.4"], capsys)
    assert code == 0
    assert np.get_printoptions() == before


def test_jets_out_of_domain_exits_three(capsys):
    code, _, err = run(
        ["jets", "--metric", "schwarzschild", "--at", "0,2,1,0"], capsys)
    assert code == 3
    assert "domain" in err


def test_jets_malformed_point(capsys):
    code, _, _ = run(["jets", "--metric", "minkowski", "--at", "0,1"],
                     capsys)
    assert code == 2
    code, _, _ = run(["jets", "--metric", "minkowski", "--at", "a,b,c,d"],
                     capsys)
    assert code == 2


# finite on a metric's 3^4 check grid, beyond float range between its points
OVERFLOW = "(x1-1)*(x1+1)*x1*1e308*10"


# metric file lines after g00, g22 and g33, each with the reason its
# check's stderr names
NUMERIC_FAILURES = {
    "g 1 1 = 1 + ln(x1)\n": "cannot be evaluated",
    "g 1 1 = 1 + 0.1/x1\n[domain]\nx1 = 0..1\n": "cannot be evaluated",
    # the sample points are skipped, and the error says why the first was
    f"g 1 1 = 1 + {OVERFLOW}\n": "g block is not finite",
    # a finite metric whose second derivatives are beyond float range
    "g 1 1 = 2 + sin(1e200*x1)\n": "d2g block is not finite",
    # a connection beyond float range, which only ep reads
    f"g 1 1 = 1\n[connection]\nGamma 1 0 0 = {OVERFLOW}\n":
        "Gamma block is not finite",
}


@pytest.mark.parametrize("extra", list(NUMERIC_FAILURES))
def test_numeric_failure_in_metric_file_exits_three(tmp_path, capsys, extra):
    path = tmp_path / "bad.ini"
    path.write_text("[metric]\ng 0 0 = -1\ng 2 2 = 1\ng 3 3 = 1\n" + extra,
                    encoding="utf-8")
    for model in ("eh", "ep"):
        # the failure is reported, not preceded by numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(["check", "--model", model, "--metric",
                                str(path), "--points", "4"], capsys)
        if model == "eh" and "[connection]" in extra:
            assert code == 0, err
        else:
            assert code == 3, (model, err)
            assert "domain error" in err, (model, err)
            assert NUMERIC_FAILURES[extra] in err, (model, err)


def test_skipped_points_error_is_quiet(tmp_path, capsys):
    # every point's d2g (-2k) overflows; the first skipped point is rebuilt
    # to name its reason, and `jets` builds its point, under the numpy
    # error state of the chunks, so no warning precedes exit 3
    path = tmp_path / "k.ini"
    path.write_text("[metric]\ng 0 0 = -1 - k*x1^2\ng 1 1 = 1\ng 2 2 = 1\n"
                    "g 3 3 = 1\n[params]\nk = 1e308\n", encoding="utf-8")
    for argv in (["check", "--model", "eh", "--points", "4"],
                 ["check", "--model", "ep", "--points", "4"],
                 ["jets", "--at", "0,0.5,0,0"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(argv + ["--metric", str(path)], capsys)
        assert code == 3 and out == "", argv
        assert "d2g block is not finite" in err, argv


def test_huge_metric_values_are_a_domain_error(tmp_path, capsys):
    # finite components whose determinant overflows: rejected quietly
    path = tmp_path / "huge.ini"
    path.write_text("[metric]\ng 0 0 = -1e308\ng 1 1 = 1e308\n"
                    "g 2 2 = 1e308\ng 3 3 = 1e308\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            catalog.load_metric_file(str(path))
        code, _, err = run(["check", "--model", "eh", "--metric", str(path),
                            "--points", "1"], capsys)
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("g22", ["1e12", "1e299", "1 + 0.1*1e300"])
def test_huge_determinant_runs_without_warnings(tmp_path, capsys, g22):
    # |det g| beyond 3e205: the second-order factor of sqrt(|det g|) would
    # overflow if it were formed where no mixed term reads it; and the
    # metric is flat, so every family passes, projectability too, whose
    # residuals are relative to the magnitudes of the terms they cancel
    path = tmp_path / "huge.ini"
    path.write_text(f"[metric]\ng 0 0 = -1\ng 1 1 = 1\ng 2 2 = {g22}\n"
                    "g 3 3 = 1\n", encoding="utf-8")
    for model in ("eh", "ep"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(["check", "--model", model, "--metric",
                                str(path), "--points", "4"], capsys)
        assert code == 0, (model, err)


def test_infinite_exponent_in_metric_file_exits_two(tmp_path, capsys):
    path = tmp_path / "inf.ini"
    path.write_text("[metric]\ng 0 0 = -1\ng 1 1 = 1 + 0*x1^1e999\n"
                    "g 2 2 = 1\ng 3 3 = 1\n", encoding="utf-8")
    code, _, err = run(
        ["check", "--model", "eh", "--metric", str(path), "--points", "1"],
        capsys)
    assert code == 2
    assert "exponent" in err


@pytest.mark.parametrize("text, reason", [
    ("[domain]\nx1 = -inf..inf\n",
     "line 7: domain interval -inf..inf is empty or not finite"),
    ("[metric]\nvacuum = maybe\n", "line 7: bad vacuum flag 'maybe'"),
], ids=["box", "vacuum-flag"])
def test_bad_box_or_vacuum_flag_names_its_line(tmp_path, capsys, text,
                                               reason):
    path = tmp_path / "bad.ini"
    path.write_text("[metric]\ng 0 0 = -1\ng 1 1 = 1\ng 2 2 = 1\n"
                    "g 3 3 = 1\n" + text, encoding="utf-8")
    for model in ("eh", "ep"):
        code, out, err = run(["check", "--model", model, "--metric",
                              str(path), "--points", "1"], capsys)
        assert code == 2 and out == "", (model, err)
        assert reason in err, (model, err)


def test_infinite_literal_in_metric_file_exits_two(tmp_path, capsys):
    path = tmp_path / "inf.ini"
    path.write_text("[metric]\ng 0 0 = -1\ng 1 1 = 1 + 1/1e999\n"
                    "g 2 2 = 1\ng 3 3 = 1\n", encoding="utf-8")
    for model in ("eh", "ep"):
        code, out, err = run(["check", "--model", model, "--metric",
                              str(path), "--points", "1"], capsys)
        assert code == 2 and not out
        assert "not finite" in err


def _check_file(tmp_path, capsys, model, g11, name=None, points=4,
                tail=""):
    """Run a check of a flat metric file with g11 as its g 1 1 and tail
    after its components, warnings as errors: (exit code, stdout,
    stderr)."""
    path = tmp_path / "m.ini"
    head = f"[metric]\nname = {name}\n" if name else "[metric]\n"
    path.write_text(head + f"g 0 0 = -1\ng 1 1 = {g11}\ng 2 2 = 1\n"
                    "g 3 3 = 1\n" + tail, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run(["check", "--model", model, "--metric", str(path),
                    "--points", str(points)], capsys)


def test_nonfinite_residual_exits_three_quietly(tmp_path, capsys):
    # a fuzz find: eh's field-equation covector is NaN at a sample point,
    # so eh exits 3 naming holonomy, the first family in report order that
    # reads it; ep's residuals are all finite (up to about 9e279), so it
    # reports them and exits 1
    g11 = "1 + 0.1*((cos(1e-300))^3*1e300*x0^40)"
    code, out, err = _check_file(tmp_path, capsys, "eh", g11)
    assert code == 3 and out == ""
    assert "holonomy residual is not finite at (" in err
    code, out, err = _check_file(tmp_path, capsys, "ep", g11)
    assert code == 1 and err == ""
    assert "null" not in out
    assert json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_overflowing_float_power_names_the_math_error(tmp_path, capsys,
                                                      model):
    # fuzz seed 14: a constant power beyond float range is one `math.pow`
    # call, whose reason is "math range error", not Python's errno tuple
    g11 = "1 + 0.1*(exp(((1e300)^3)^-1) * (cos(cos(x0)) + 1e-300))"
    code, out, err = _check_file(tmp_path, capsys, model, g11)
    assert code == 3 and out == ""
    assert "cannot be evaluated: math range error" in err
    assert "(34," not in err


def test_overflowing_mean_residual_exits_three(tmp_path, capsys):
    # a fuzz find: this connection gives finite ep pre-metricity residuals
    # whose mean overflows; eh does not read a connection
    tail = "[connection]\nGamma 1 0 0 = 1e308\n"
    code, out, err = _check_file(tmp_path, capsys, "ep", "1", tail=tail)
    assert code == 3 and out == ""
    assert "pre-metricity residuals are finite, but their mean overflows" \
        in err
    assert _check_file(tmp_path, capsys, "eh", "1", tail=tail)[0] == 0


def test_control_characters_in_metric_name_give_valid_json(tmp_path,
                                                           capsys):
    code, out, _ = _check_file(tmp_path, capsys, "eh", "1", "a\tb\x01c",
                               points=2)
    assert code == 0
    assert json.loads(out)["metric"] == "a\tb\x01c"


@pytest.mark.parametrize("depth", [
    "(" * 200 + "x1" + ")" * 200,
    "-" * 1000 + "x1",
    "sin(" * 150 + "x1" + ")" * 150], ids=["parentheses", "minuses", "calls"])
def test_deeply_nested_expression_exits_two(tmp_path, capsys, depth):
    code, out, err = _check_file(tmp_path, capsys, "eh", f"1 + 0.1*{depth}")
    assert code == 2 and out == ""
    assert "nested deeper than 100 levels" in err


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_long_sum_runs(tmp_path, capsys, model):
    # a generated metric may be a long flat sum; its tree is a left spine
    # 3000 deep, and it compiles and runs like a short one
    g11 = "1 + 1e-5*(" + "+".join(["x1"] * 3000) + ")"
    code, out, err = _check_file(tmp_path, capsys, model, g11)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "pass"
