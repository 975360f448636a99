import json
import sys
from importlib import resources

import pytest
from mpmath import mp

from multiroots import FamilyOverflowError, cli, solver
from multiroots.cli import main
from multiroots.precision import parse_real
from multiroots.report_io import load_problem, load_report
from conftest import (BAD_LIST_EDITS, REPORT_KEY_EDITS, REPORT_LISTS,
                      break_report_list, cut_trace_list, edit_report_key,
                      padded, reference_format, reference_parse)


def run(*argv):
    return main([str(a) for a in argv])


class TestSolveCommand:
    def test_bundled_example1_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        report = load_report(out)
        assert report.termination == "converged"
        # 18 correct decimal digits by the 4th sweep, straight off the trace
        assert max(report.trace[4].errors) <= mp.mpf("1e-18")
        assert "report written" in capsys.readouterr().out

    def test_bundled_example2_reaches_18_digits_by_iteration_5(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example2", "-o", out) == 0
        report = load_report(out)
        assert any(
            entry.k <= 5 and max(entry.errors) <= mp.mpf("1e-18")
            for entry in report.trace
        )

    def test_bundled_example3_reaches_18_digits_by_iteration_4(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example3", "-o", out) == 0
        report = load_report(out)
        assert max(report.trace[4].errors) <= mp.mpf("1e-18")

    def test_default_output_is_written_in_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("solve", "example2") == 0
        out = tmp_path / "example2.report.json"
        assert load_report(out).termination == "converged"
        assert f"report written to {out}" in capsys.readouterr().out

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "family": "algebraic",
            "representation": "coefficients",
            "coefficients": [0, -1],
            "multiplicities": [1, 1],
            "initial": [0.5],
        }))
        assert run("solve", bad) == 2

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integer_max_iterations_exits_2(self, tmp_path, capsys, count):
        bad = tmp_path / "bad.json"
        data = json.loads(
            (resources.files("multiroots.problems") / "example1.json").read_text())
        data["settings"] = {"max_iterations": count}
        bad.write_text(json.dumps(data))
        assert run("solve", bad, "-o", tmp_path / "r.json") == 2
        assert "max_iterations" in capsys.readouterr().err

    def test_precision_override_on_non_object_file_exits_2(self, tmp_path,
                                                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert run("solve", bad, "--precision-bits", 64) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_problem_exits_2(self):
        assert run("solve", "no-such-problem") == 2

    def test_non_convergence_exits_1_with_partial_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out, "--max-iterations", 2) == 1
        report = load_report(out)
        assert report.termination == "max_iterations"
        assert len(report.trace) == 3

    def test_failed_solve_reports_no_order(self, tmp_path, capsys):
        # x_1 two-cycles 0.0136 from x_2 modulo 2 pi without progress until
        # max_iterations; an order read off that trace would claim too much
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        assert run("generate", "--family", "trigonometric",
                   "--roots=-2.4399:3,-0.0208:2,2.5601:1",
                   "--precision-bits", 192, "-o", problem) == 0
        capsys.readouterr()
        assert run("solve", problem, "-o", out) == 1
        assert "estimated order" not in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["termination"] == "max_iterations"
        assert data["estimated_order"] is None

    def test_theorem_flag_embeds_verdict(self, tmp_path):
        out = tmp_path / "r.json"
        code = run("solve", "example1", "-o", out,
                   "--theorems", "--c", "0.1", "--q", "0.5")
        assert code == 0
        data = json.loads(out.read_text())
        assert data["conditions"]["passed"] is True
        assert any(c["name"] == "d - 2c > 0" for c in data["conditions"]["clauses"])

    def test_sweep_and_precision_flags(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out, "--sweep", "sequential",
                   "--precision-bits", 256) == 0
        assert load_report(out).precision_bits == 256

    def test_tolerance_flag_controls_stopping(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out, "--tolerance", "1e-11") == 0
        report = load_report(out)
        assert report.termination == "converged"
        assert report.iterations_used <= 5

    def test_per_sweep_lines_name_their_precision(self, tmp_path, capsys):
        assert run("solve", "example1", "-o", tmp_path / "r.json") == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.lstrip().startswith("k=")]
        assert len(lines) == 7
        assert all("  bits=192  " in line for line in lines)

    def test_kappa_on_non_trig_problem_exits_2(self, tmp_path):
        code = run("solve", "example1", "-o", tmp_path / "r.json",
                   "--theorems", "--c", "0.1", "--q", "0.5", "--kappa", "1.0")
        assert code == 2


EXAMPLE1 = json.loads(
    (resources.files("multiroots.problems") / "example1.json").read_text())


@pytest.mark.parametrize("change, argv, named", [
    ({}, ["solve", "example1", "--tolerance", "zz"], "--tolerance"),
    ({}, ["solve", "example1", "--theorems", "--c", "zz", "--q", "0.5"], "--c"),
    ({}, ["solve", "example2", "--theorems", "--c", "0.05", "--q", "0.5",
          "--kappa", "zz"], "--kappa"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:x"], "--roots"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,abc"],
     "--roots"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,3",
          "--initial", "1,zz"], "--initial"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,3",
          "--scale", "zz"], "--scale"),
    ({}, ["verify", "example1", "REPORT", "--tolerance", "zz"], "--tolerance"),
    ({"settings": {"correction_tolerance": "zz"}}, ["solve", "PROBLEM"],
     ".settings.correction_tolerance"),
    ({"representation": "roots", "roots": ["2", "3", "5"], "scale": "zz"},
     ["solve", "PROBLEM"], ".scale"),
    ({"family": "exponential",
      "coefficients": {"a0": "zz", "ch": ["1", "0", "0"],
                       "sh": ["0", "0", "0"]}},
     ["solve", "PROBLEM"], ".coefficients.a0"),
], ids=["solve --tolerance", "solve --c", "solve --kappa",
        "generate --roots multiplicity", "generate --roots root",
        "generate --initial", "generate --scale", "verify --tolerance",
        "settings.correction_tolerance", "scale", "coefficients.a0"])
def test_unparseable_real_exits_2_naming_its_source(tmp_path, capsys, change,
                                                     argv, named):
    _assert_exits_2_naming(tmp_path, capsys, change, argv, named)


@pytest.mark.parametrize("change, argv, named", [
    ({}, ["solve", "example1", "--tolerance", "1/0"], "--tolerance"),
    ({"initial": ["1/0", "3.5", "8"]}, ["solve", "PROBLEM"], ".initial[0]"),
], ids=["solve --tolerance", "problem initial"])
def test_division_by_zero_real_exits_2_naming_its_source(tmp_path, capsys,
                                                          change, argv, named):
    # a decimal string "p/q" is read as a quotient; q = 0 once escaped as a
    # ZeroDivisionError traceback with exit 1, which claims non-convergence
    _assert_exits_2_naming(tmp_path, capsys, change, argv, named)


def test_misspelt_problem_key_exits_2_naming_it(tmp_path, capsys):
    # once ignored: the solve ran at the default precision and exited 0
    _assert_exits_2_naming(tmp_path, capsys, {"precison_bits": 1024},
                           ["solve", "PROBLEM"], ".precison_bits")


def test_division_by_zero_report_value_exits_2_naming_it(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run("solve", "example1", "-o", report) == 0
    data = json.loads(report.read_text())
    data["trace"][2]["corrections"][1] = "0/0"
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("order", report) == 2
    assert f"{report}.trace[2].corrections[1]" in capsys.readouterr().err


def test_every_termination_has_an_exit_code():
    # a termination without one would end `solve` in a KeyError
    assert set(cli._TERMINATION_EXIT) == set(solver.TERMINATIONS)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_good_command_runs_after_a_rejected_argv(self, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit) as exc:
            run("solve", "example1", "--sweep", "sideways")
        assert exc.value.code == 2
        assert run("solve", "example1", "-o", tmp_path / "r.json") == 0
        assert "termination: converged" in capsys.readouterr().out

    def test_solve_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "--sweep", "sequential", "-o", out) == 0
        assert "sweep: sequential" in capsys.readouterr().out
        assert run("solve", "example1", "-o", out) == 0
        assert "sweep: simultaneous" in capsys.readouterr().out

    def test_verify_defaults_do_not_leak_between_calls(self, tmp_path,
                                                       monkeypatch):
        report = tmp_path / "r.json"
        assert run("solve", "example1", "-o", report) == 0
        tolerances = []

        def recording(poly, claimed, tolerance, bits, verify=cli.verify_roots):
            tolerances.append(tolerance)
            return verify(poly, claimed, tolerance, bits=bits)

        monkeypatch.setattr(cli, "verify_roots", recording)
        assert run("verify", "example1", report, "--tolerance", "1e-3") == 0
        assert run("verify", "example1", report) == 0
        bits = EXAMPLE1["precision_bits"]
        assert tolerances == [parse_real("1e-3", bits),
                              parse_real("1e-12", bits)]


@pytest.mark.parametrize("change, argv, named", [
    ({"coefficients": ["-18", True, "-506", "1071", "-1188", "540"]},
     ["solve", "PROBLEM"], ".coefficients[1]"),
    ({"coefficients": ["-18", "132", "inf", "1071", "-1188", "540"]},
     ["solve", "PROBLEM"], ".coefficients[2]"),
    ({"initial": ["nan", "3.5", "8"]}, ["solve", "PROBLEM"], ".initial[0]"),
    ({}, ["solve", "example1", "--tolerance", "inf"], "--tolerance"),
    ({}, ["solve", "example1", "--theorems", "--c", "nan", "--q", "0.5"],
     "--c"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,inf"],
     "--roots"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,3",
          "--initial", "nan,1"], "--initial"),
    ({}, ["generate", "--family", "algebraic", "--roots", "2:2,3",
          "--scale=-inf"], "--scale"),
], ids=["boolean coefficient", "inf coefficient", "nan initial",
        "solve --tolerance inf", "solve --c nan", "generate --roots inf",
        "generate --initial nan", "generate --scale -inf"])
def test_boolean_or_non_finite_real_exits_2_naming_its_source(
        tmp_path, capsys, change, argv, named):
    _assert_exits_2_naming(tmp_path, capsys, change, argv, named)


@pytest.mark.parametrize("tolerance", ["-1", "0"])
def test_non_positive_verify_tolerance_exits_2_naming_it(tmp_path, capsys,
                                                          tolerance):
    # every check would compare against a bound <= 0 and fail: bad input,
    # not a failed verification
    _assert_exits_2_naming(
        tmp_path, capsys, {},
        ["verify", "example1", "REPORT", "--tolerance", tolerance],
        "--tolerance")


@pytest.mark.parametrize("argv, named", [
    (["solve", "example1", "--tolerance", "-1"], "--tolerance"),
    (["solve", "example1", "--tolerance", "0"], "--tolerance"),
    (["solve", "example1", "--max-iterations", "0"], "--max-iterations"),
    (["solve", "example1", "--precision-bits", "40"], "--precision-bits"),
], ids=["solve --tolerance -1", "solve --tolerance 0",
        "solve --max-iterations 0", "solve --precision-bits 40"])
def test_out_of_range_solve_flag_exits_2_naming_it(tmp_path, capsys, argv,
                                                   named):
    _assert_exits_2_naming(tmp_path, capsys, {}, argv, named)


@pytest.mark.parametrize("family, roots, more, named", [
    ("algebraic", "2:0,3", [], "--roots"),
    ("algebraic", "2:1,2", [], "--roots"),
    ("trigonometric", "1:1", [], "--roots"),
    ("algebraic", "1,2", ["--scale", "0"], "--scale"),
    ("algebraic", "1,2", ["--scale", "2"], "--scale"),
    ("algebraic", "1,2", ["--initial", "1"], "--initial"),
    # solve would reject the file, naming no location
    ("algebraic", "1,2", ["--initial", "0.5,0.5"], "--initial"),
], ids=["zero multiplicity", "coincident roots", "odd trigonometric total",
        "zero scale", "scaled algebraic", "initial count",
        "coincident initial"])
def test_structural_generate_error_exits_2_naming_its_flag(
        tmp_path, capsys, family, roots, more, named):
    argv = ["generate", "--family", family, "--roots", roots, *more]
    _assert_exits_2_naming(tmp_path, capsys, {}, argv, named)


THEOREMS = ["--theorems", "--c", "0.1", "--q", "0.5"]


@pytest.mark.parametrize("change, argv", [
    ({}, ["solve", "example2", *THEOREMS]),
    ({}, ["solve", "example1", *THEOREMS, "--kappa", "1"]),
    ({"coefficients": ["-2"], "multiplicities": [1], "initial": ["2.25"],
      "true_roots": ["2"]}, ["solve", "PROBLEM", *THEOREMS]),
], ids=["trigonometric without kappa", "kappa off trigonometric", "one root"])
def test_rejected_condition_params_exit_2_naming_theorems(tmp_path, capsys,
                                                           change, argv):
    _assert_exits_2_naming(tmp_path, capsys, change, argv, "--theorems:")


@pytest.mark.parametrize("change, argv, named", [
    ({"true_roots": None}, ["solve", "PROBLEM", *THEOREMS],
     "needs the true root configuration"),
    ({}, ["solve", "example1", "--theorems"], "requires --c and --q"),
    ({}, ["generate", "--family", "algebraic", "--roots", ","], "--roots"),
], ids=["theorems without the truth", "theorems without c and q",
        "generate without roots"])
def test_incomplete_input_exits_2_naming_what_is_missing(tmp_path, capsys,
                                                         change, argv, named):
    _assert_exits_2_naming(tmp_path, capsys, change, argv, named)


def test_generate_skips_an_empty_roots_chunk(tmp_path):
    out = tmp_path / "p.json"
    assert run("generate", "--family", "algebraic", "--roots", "2:1,,3",
               "-o", out) == 0
    assert load_problem(out).true_roots == (2, 3)


def test_order_on_a_missing_report_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run("order", missing) == 2
    assert str(missing) in capsys.readouterr().err


def test_a_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a MultirootsError that is not an input error is a numeric one
    def overflow(form):
        raise FamilyOverflowError(form.family, 0, "forced")

    monkeypatch.setattr(cli, "expand_from_roots", overflow)
    assert run("generate", "--family", "algebraic", "--roots", "2:1,3",
               "-o", tmp_path / "p.json") == 3
    assert capsys.readouterr().err.startswith("numeric error: ")


def test_verify_exits_3_where_its_oracle_cannot_expand_the_form(tmp_path,
                                                                capsys):
    # the factored form solves, but the oracle's derivative ladder expands
    # it, and at 53 bits its 13 roots far apart fail the round trip
    roots = (-930, -619, -611, -513, -477, -444, -228, -45, 116, 151, 279,
             354, 620)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "family": "algebraic", "representation": "roots",
        "roots": [str(r) for r in roots],
        "multiplicities": [1, 2, 1, 6, 1, 1, 5, 5, 5, 2, 3, 6, 3],
        "initial": [str(r + 0.5) for r in roots], "precision_bits": 53}))
    report = tmp_path / "r.json"
    assert run("solve", problem, "-o", report) == 0
    capsys.readouterr()
    assert run("verify", problem, report) == 3
    assert capsys.readouterr().err.startswith(
        "numeric error: algebraic expansion failed round-trip")


def _assert_exits_2_naming(tmp_path, capsys, change, argv, named):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(dict(EXAMPLE1, **change)))
    report = tmp_path / "r.json"
    if "REPORT" in argv:
        assert run("solve", "example1", "-o", report) == 0
    argv = [{"PROBLEM": problem, "REPORT": report}.get(a, a) for a in argv]
    output = ["-o", tmp_path / "out.json"] if argv[0] != "verify" else []
    capsys.readouterr()
    assert run(*argv, *output) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "example1"],
    ["generate", "--family", "algebraic", "--roots", "2:2,3:1"]],
    ids=["solve", "generate"])
def test_unwritable_output_exits_2_naming_the_flag(tmp_path, capsys, argv):
    # exit 1 would claim that the solve did not converge
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    assert run(*argv, "-o", target) == 2
    err = capsys.readouterr().err
    assert "-o" in err and str(target) in err
    assert "Traceback" not in err


class TestGenerateCommand:
    def test_algebraic_roundtrip_through_solve(self, tmp_path):
        problem_path = tmp_path / "p.json"
        assert run("generate", "--family", "algebraic",
                   "--roots", "2:2,3:3,5:1", "-o", problem_path) == 0
        problem = load_problem(problem_path)
        assert [int(mp.mpf(c)) for c in problem.polynomial().coeffs] == \
            [-18, 132, -506, 1071, -1188, 540]
        out = tmp_path / "r.json"
        assert run("solve", problem_path, "-o", out) == 0
        report = load_report(out)
        for got, want in zip(report.final, (2, 3, 5)):
            assert abs(got - want) <= mp.mpf("1e-18")

    def test_exponential_matches_factored_coefficients(self, tmp_path):
        problem_path = tmp_path / "p.json"
        # values starting with a dash need the = form
        assert run("generate", "--family", "exponential",
                   "--roots=-2:2,3:2", "--initial=-1,4",
                   "-o", problem_path) == 0
        problem = load_problem(problem_path)
        poly = problem.polynomial()
        with mp.workprec(problem.precision_bits):
            x = mp.mpf("0.7")
            want = mp.sinh((x + 2) / 2) ** 2 * mp.sinh((x - 3) / 2) ** 2
            from multiroots import evaluate
            assert abs(evaluate(poly, x) - want) <= mp.mpf("1e-40")

    @pytest.mark.parametrize("flag, code, bits", [
        ([], 0, 192), (["--precision-bits", "64"], 0, 64),
        (["--precision-bits", "0"], 2, None),
        (["--precision-bits", "40"], 2, None)])
    def test_precision_bits_default_and_floor(self, tmp_path, capsys, flag,
                                              code, bits):
        problem_path = tmp_path / "p.json"
        assert run("generate", "--family", "algebraic", "--roots", "2:2,3:1",
                   *flag, "-o", problem_path) == code
        if bits is None:
            assert "--precision-bits" in capsys.readouterr().err
            assert not problem_path.exists()
        else:
            assert load_problem(problem_path).precision_bits == bits

    def test_odd_trig_sum_refused(self, tmp_path):
        code = run("generate", "--family", "trigonometric",
                   "--roots", "1:1,2:2", "-o", tmp_path / "p.json")
        assert code == 2


class TestVerifyCommand:
    @pytest.fixture
    def solved(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        return out

    def test_good_report_verifies(self, solved):
        assert run("verify", "example1", solved) == 0

    def test_perturbed_approximation_fails(self, solved, tmp_path):
        data = json.loads(solved.read_text())
        # the last entry's approximations with it, which `final` must equal
        x0 = mp.mpf(data["final"][0]) + mp.mpf("1e-6")
        data["final"][0] = data["trace"][-1]["approximations"][0] = \
            mp.nstr(x0, 40)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert run("verify", "example1", tampered) == 1

    def test_truncated_report_exits_2(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"final": ["2"]')
        assert run("verify", "example1", broken) == 2

    def test_scaled_algebraic_factored_form_verifies(self, tmp_path):
        # the algebraic expansion is monic; verify once refused scale 2
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        problem.write_text(json.dumps({
            "family": "algebraic", "representation": "roots",
            "roots": ["1", "3"], "multiplicities": [2, 1], "scale": "2",
            "initial": ["0.8", "3.3"], "precision_bits": 192}))
        assert run("solve", problem, "-o", out) == 0
        assert run("verify", problem, out) == 0

    def test_coincident_reported_roots_exit_2_naming_them(self, solved,
                                                          tmp_path, capsys):
        # the last entry's approximations are edited with `final`, so the
        # report loads and the coincidence is found by `verify` itself
        data = json.loads(solved.read_text())
        for roots in (data["final"], data["trace"][-1]["approximations"]):
            roots[1] = roots[0]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", "example1", tampered) == 2
        err = capsys.readouterr().err
        assert f"{tampered}.final" in err and "coincide" in err


class TestOrderCommand:
    def test_reestimates_from_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out, "--precision-bits", 256) == 0
        assert run("order", out) == 0
        printed = capsys.readouterr().out
        assert "estimated order" in printed
        value = mp.mpf(printed.rsplit(":", 1)[1])
        assert mp.mpf("2.6") <= value <= mp.mpf("3.4")

    def test_warns_on_a_report_that_did_not_converge(self, tmp_path, capsys):
        # the gen58 two-cycle ends max_iterations; the order is still
        # printed and exits as before, with a warning on stderr only
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        assert run("generate", "--family", "trigonometric",
                   "--roots=-2.4399:3,-0.0208:2,2.5601:1",
                   "--precision-bits", 192, "-o", problem) == 0
        assert run("solve", problem, "-o", out) == 1
        capsys.readouterr()
        assert run("order", out) == 0
        printed = capsys.readouterr()
        assert "estimated order" in printed.out
        assert "warning" not in printed.out
        assert printed.err == ("warning: report terminated max_iterations; "
                               "the order below is not a convergence order\n")
        assert run("solve", "example1", "-o", out) == 0
        capsys.readouterr()
        assert run("order", out) == 0
        assert capsys.readouterr().err == ""

    def test_an_order_on_a_failed_solve_exits_2_naming_it(self, tmp_path,
                                                           capsys):
        # only a converged solve carries an estimated order
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        data = json.loads(out.read_text())
        assert data["estimated_order"] is not None
        data["termination"] = "max_iterations"
        out.write_text(json.dumps(data))
        for argv in (["order", out], ["verify", "example1", out]):
            capsys.readouterr()
            assert run(*argv) == 2
            assert f"{out}.estimated_order: " in capsys.readouterr().err

    def test_the_order_is_the_traces_whatever_the_file_says(self, tmp_path,
                                                            capsys):
        # the file's order is checked, then read off the trace like `final`
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        want = load_report(out).estimated_order
        data = json.loads(out.read_text())
        assert parse_real(data["estimated_order"], 192) == want
        data["estimated_order"] = "9"
        out.write_text(json.dumps(data))
        assert load_report(out).estimated_order == want
        capsys.readouterr()
        assert run("order", out) == 0
        printed = capsys.readouterr().out
        assert f"estimated order: {mp.nstr(want, 6)}\n" in printed

    def test_a_trace_too_short_exits_1(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "--max-iterations", 2, "-o", out) == 1
        capsys.readouterr()
        assert run("order", out) == 1
        assert "order: insufficient data" in capsys.readouterr().err

    @pytest.mark.parametrize("truth, change, named", [
        (True, "errors cut to one value", "trace[0].errors"),
        (True, "errors empty", "trace[1].errors"),
        (False, "corrections cut to one value", "trace[2].corrections"),
        (True, "approximations cut to two values", "trace[1].approximations"),
    ], ids=["errors cut", "errors empty", "corrections cut",
            "approximations cut"])
    def test_a_trace_list_that_does_not_match_final_exits_2_naming_it(
            self, tmp_path, capsys, truth, change, named):
        # exit 1 would claim non-convergence, and exit 0 an order read off
        # lists that no longer describe one solve
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        problem.write_text(json.dumps(
            EXAMPLE1 if truth else dict(EXAMPLE1, true_roots=None)))
        assert run("solve", problem, "-o", out) == 0
        data = json.loads(out.read_text())
        cut_trace_list(data, change)
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("order", out) == 2
        err = capsys.readouterr().err
        assert f"{out}.{named}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change", sorted(REPORT_KEY_EDITS))
    def test_a_key_no_solve_writes_exits_2_naming_it(
            self, tmp_path, capsys, change):
        out = tmp_path / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        data = json.loads(out.read_text())
        named = edit_report_key(data, change)
        out.write_text(json.dumps(data))
        for argv in (["order", out], ["verify", "example1", out]):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert f"{out}.{named}: " in err
            assert "Traceback" not in err

    def test_trigonometric_solve_one_period_away(self, tmp_path, capsys):
        # started near r - 2pi, the solve converges to the roots one period
        # below the stated ones; errors are measured modulo 2pi, so they
        # still fall and the order is estimated
        roots, mults = ("-1.3", "-0.2", "0.9", "1.8"), (1, 2, 3, 2)
        with mp.workprec(192):
            shifted = [mp.mpf(r) - 2 * mp.pi for r in roots]
            initial = [x + (-1) ** i * mp.mpf("0.2")
                       for i, x in enumerate(shifted)]
        problem = tmp_path / "p.json"
        assert run("generate", "--family", "trigonometric",
                   "--roots=" + ",".join(f"{r}:{a}" for r, a in zip(roots, mults)),
                   "--initial=" + ",".join(mp.nstr(x, 60) for x in initial),
                   "-o", problem) == 0
        out = tmp_path / "r.json"
        assert run("solve", problem, "-o", out) == 0
        report = load_report(out)
        assert report.termination == "converged"
        for x, want in zip(report.final, shifted):
            assert abs(x - want) <= mp.mpf("1e-15")
        errors = [max(entry.errors) for entry in report.trace]
        assert errors[-1] <= mp.mpf("1e-15") * errors[0]
        assert report.estimated_order is not None
        assert run("order", out) == 0

    def test_a_root_frozen_early_leaves_the_window_alone(self, tmp_path,
                                                         capsys):
        # the triple root freezes at k = 5 while the simple one, which jumped
        # about four periods at k = 3, still converges cubically to k = 8:
        # each coordinate leaves the error sequence at its own freeze
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        assert run("generate", "--family", "trigonometric",
                   "--roots=-2.6695:3,0.2620:2,2.3305:1",
                   "--precision-bits", 192, "-o", problem) == 0
        assert run("solve", problem, "-o", out) == 0
        assert load_report(out).termination == "converged"
        assert run("verify", problem, out) == 0
        capsys.readouterr()
        assert run("order", out) == 0
        printed = capsys.readouterr().out
        assert "window entries 2..7" in printed
        value = mp.mpf(printed.rsplit(":", 1)[1])
        assert mp.mpf("2.6") <= value <= mp.mpf("3.4")


class TestReportsCheckedAtLoad:
    """Every rule of a report holds at load, whatever the command then
    reads: `verify` reads only `final`, yet a bad trace list exits 2."""

    @pytest.fixture(scope="class")
    def example1_report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("solved") / "r.json"
        assert run("solve", "example1", "-o", out) == 0
        return out.read_text()

    @pytest.mark.parametrize("bad", sorted(BAD_LIST_EDITS))
    @pytest.mark.parametrize("named", REPORT_LISTS)
    def test_a_bad_list_exits_2_naming_it(self, tmp_path, capsys,
                                          example1_report, named, bad):
        out = tmp_path / "r.json"
        data = json.loads(example1_report)
        key = break_report_list(data, named, bad)
        out.write_text(json.dumps(data))
        for argv in (["order", out], ["verify", "example1", out]):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert f"{out}.{key}: " in err
            assert "Traceback" not in err

    def test_final_in_other_text_for_the_same_values_runs(
            self, tmp_path, capsys, example1_report):
        plain, out = tmp_path / "plain.json", tmp_path / "r.json"
        plain.write_text(example1_report)
        data = json.loads(example1_report)
        data["final"] = [padded(v) for v in data["final"]]
        out.write_text(json.dumps(data))
        for argv in (["order", "REPORT"], ["verify", "example1", "REPORT"]):
            capsys.readouterr()
            assert run(*[plain if a == "REPORT" else a for a in argv]) == 0
            want = capsys.readouterr().out
            assert run(*[out if a == "REPORT" else a for a in argv]) == 0
            assert capsys.readouterr().out == want

    def test_plain_json_numbers_in_a_trace_list_run(self, tmp_path,
                                                    example1_report):
        out = tmp_path / "r.json"
        data = json.loads(example1_report)
        data["trace"][1]["errors"] = [float(v)
                                      for v in data["trace"][1]["errors"]]
        out.write_text(json.dumps(data))
        assert run("order", out) == 0
        assert run("verify", "example1", out) == 0


# generate and solve --theorems arguments for one problem of each family
SESSION_FAMILIES = {
    "algebraic": ("--roots=-1.1:2,0.4:1,1.7:3", ()),
    "trigonometric": ("--roots=-1.2:2,0.3:1,1.5:1", ("--kappa", "1.0")),
    "exponential": ("--roots=-1.1:2,0.2:1,1.4:3", ()),
}


def _reference_conversions(monkeypatch):
    """Give every multiroots module that holds `format_real`, `parse_real`
    or `format_digits` the conversion mpmath makes under `workprec`."""
    reference = {"format_real": reference_format,
                 "parse_real": reference_parse, "format_digits": mp.nstr}
    for name, module in list(sys.modules.items()):
        if name == "multiroots" or name.startswith("multiroots."):
            for attr, conversion in reference.items():
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, conversion)


def _session(workdir, capsys):
    """generate, solve --theorems, verify and order for each family at 192
    bits, and solve of example1-3 at 192 and 1024 bits, run in `workdir`:
    each command's exit code and output, then every file it left."""
    commands = []
    for family, (roots, kappa) in SESSION_FAMILIES.items():
        problem, report = f"{family}.json", f"{family}.report.json"
        commands += [
            ["generate", "--family", family, roots, "--precision-bits", "192",
             "-o", problem],
            ["solve", problem, "--theorems", "--c", "0.1", "--q", "0.5",
             *kappa, "-o", report],
            ["verify", problem, report],
            ["order", report]]
    for example in ("example1", "example2", "example3"):
        for bits in ("192", "1024"):
            commands.append(["solve", example, "--precision-bits", bits,
                             "-o", f"{example}.{bits}.json"])
    seen = []
    for argv in commands:
        capsys.readouterr()
        code = main(argv)
        seen.append((argv, code, capsys.readouterr()))
    return seen, {path.name: path.read_bytes()
                  for path in sorted(workdir.iterdir())}


def test_a_session_writes_the_bytes_of_the_reference_conversions(
        tmp_path, capsys, monkeypatch):
    """Every file and every line a session writes is what it writes with
    mpmath's own conversions in place of `format_real`, `parse_real` and
    `format_digits`, at 192 and 1024 bits."""
    for side in ("ref", "int"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "int")
    shipped = _session(tmp_path / "int", capsys)
    with monkeypatch.context() as patch:
        _reference_conversions(patch)
        patch.chdir(tmp_path / "ref")
        reference = _session(tmp_path / "ref", capsys)
    assert len(shipped[1]) == 3 * 2 + 6
    assert [code for _, code, _ in shipped[0]] == [0] * 18
    assert shipped == reference
