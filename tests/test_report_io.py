import json
import random
from importlib import resources

import pytest
from mpmath import mp

from multiroots import SchemaError, solve
from multiroots.precision import decimal_digits, format_real, parse_real
from multiroots import report_io
from multiroots.report_io import (
    load_problem,
    load_report,
    problem_from_dict,
    problem_to_dict,
    report_to_dict,
    save_problem,
    save_report,
)
from multiroots.solver import SolveReport, TraceEntry
from conftest import (BAD_LIST_EDITS, REPORT_KEY_EDITS, REPORT_LISTS,
                      break_report_list, count_calls, count_trace_orders,
                      cut_trace_list, edit_report_key, padded)

GOOD_PROBLEM = {
    "label": "t",
    "family": "algebraic",
    "representation": "coefficients",
    "precision_bits": 192,
    "coefficients": ["-18", "132", "-506", "1071", "-1188", "540"],
    "multiplicities": [2, 3, 1],
    "initial": ["0.4", "3.5", "8"],
    "true_roots": ["2", "3", "5"],
}


class TestRealSerialization:
    @pytest.mark.parametrize("bits", [53, 128, 192, 256])
    def test_roundtrip_is_exact(self, bits):
        rng = random.Random(bits)
        with mp.workprec(bits):
            values = [mp.mpf(rng.uniform(-10, 10)) * mp.mpf(3) ** -rng.randint(0, 40)
                      for _ in range(50)]
            values += [mp.mpf(0), mp.mpf("1e-300"), -mp.pi]
        for v in values:
            assert parse_real(format_real(v, bits), bits) == v

    def test_digit_count_rule(self):
        assert decimal_digits(53) == 20
        assert decimal_digits(192) == 61

    @pytest.mark.parametrize("bits", [53, 64, 128, 192, 256, 1024, 4096])
    def test_same_text_and_bits_as_the_context_reference(self, bits):
        # the reference: the conversions made under workprec(bits)
        def reference_format(x):
            with mp.workprec(bits):
                x = mp.mpf(x)
                if not mp.isfinite(x):
                    return str(x)
                return mp.nstr(x, decimal_digits(bits), strip_zeros=True)

        def reference_parse(text):
            with mp.workprec(bits):
                return mp.mpf(text)._mpf_

        rng = random.Random(bits)
        specials = [mp.mpf(0), -mp.mpf(0), mp.inf, -mp.inf, mp.nan, 0, 0.0,
                    -0.0, float("inf"), float("nan")]
        # mantissas wider than `bits`, binary exponents to about 10^+-3000
        wide = [mp.mpf((rng.choice((-1, 1)) * rng.getrandbits(bits + 40),
                        rng.randint(-10000, 10000)))
                for _ in range(60)]
        values = (specials + wide
                  + [rng.uniform(-1e3, 1e3) for _ in range(10)]
                  + [rng.randint(-2 ** (bits + 9), 2 ** (bits + 9))
                     for _ in range(10)])
        for x in values:
            assert format_real(x, bits) == reference_format(x)

        texts = [format_real(x, bits) for x in wide]
        # decimals with more digits than `bits` holds
        texts += [mp.nstr(x, decimal_digits(bits) + 20) for x in wide[:20]]
        texts += [f"{rng.randint(1, 9)}.{rng.getrandbits(64)}e{e}"
                  for e in (-3000, -301, -1, 0, 17, 300, 3000)]
        texts += ["1.5E+300", "-2.5E-7", "INF", "-Inf", "NaN", "+inf",
                  " 2.5 ", "\t-7\n", "1_000", "-12_345.6_7", "1/3", "-7/9",
                  "0", "-0", "+0.0", "-0.0e5", "0.1", "1e-3000", "-1e3000"]
        # JSON numbers: ints wider than `bits`, and floats
        texts += [rng.randint(-2 ** (bits + 9), 2 ** (bits + 9))
                  for _ in range(10)]
        texts += [rng.uniform(-1e3, 1e3) for _ in range(10)]
        texts += [0, -1, 1e-300, 1.7976931348623157e308, 5e-324, -0.0]
        for text in texts:
            assert parse_real(text, bits)._mpf_ == reference_parse(text), text


class TestProblemFiles:
    def test_roundtrip(self, tmp_path):
        problem = problem_from_dict(GOOD_PROBLEM)
        path = tmp_path / "p.json"
        save_problem(problem, path)
        again = load_problem(path)
        assert again.family == problem.family
        assert again.initial == problem.initial
        assert again.polynomial() == problem.polynomial()
        assert again.true_roots == problem.true_roots
        # the file holds only keys the loader accepts, settings included
        assert problem_to_dict(again) == problem_to_dict(problem)

    def test_mismatched_lengths_rejected(self):
        bad = dict(GOOD_PROBLEM, initial=["0.4", "3.5"])
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert "initial" in str(err.value)

    def test_unknown_family_rejected(self):
        with pytest.raises(SchemaError):
            problem_from_dict(dict(GOOD_PROBLEM, family="rational"))

    def test_odd_trig_multiplicities_rejected(self):
        bad = {
            "family": "trigonometric",
            "representation": "roots",
            "precision_bits": 53,
            "roots": ["1", "2"],
            "multiplicities": [1, 2],
            "initial": ["0.9", "2.2"],
        }
        with pytest.raises(SchemaError):
            problem_from_dict(bad)

    @pytest.mark.parametrize("family, coefficients, multiplicities", [
        # x^2 - 3x + 2 has two roots, not three
        ("algebraic", ["-3", "2"], [2, 1]),
        # a degree-1 series has two roots, not four
        ("exponential", {"a0": "0", "ch": ["1"], "sh": ["0.5"]}, [2, 2]),
    ])
    def test_multiplicities_must_sum_to_the_root_count(
            self, family, coefficients, multiplicities):
        bad = {
            "family": family,
            "representation": "coefficients",
            "coefficients": coefficients,
            "multiplicities": multiplicities,
            "initial": ["0.9", "2.2"],
        }
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert "problem.multiplicities" in str(err.value)

    def test_boolean_multiplicity_rejected(self):
        # JSON true is a Python int subclass; it must not stand for 1
        bad = dict(GOOD_PROBLEM, coefficients=["-3", "2"],
                   multiplicities=[True, 1], initial=["0.9", "2.2"],
                   true_roots=None)
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert "problem.multiplicities" in str(err.value)

    def test_boolean_real_rejected(self):
        # JSON true must not stand for the coefficient 1
        bad = dict(GOOD_PROBLEM, coefficients=["-3", True],
                   multiplicities=[1, 1], initial=["0.2", "2.1"],
                   true_roots=None)
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert "problem.coefficients[1]" in str(err.value)

    @pytest.mark.parametrize("change, location", [
        ({"coefficients": ["-3", "inf"]}, "problem.coefficients[1]"),
        ({"coefficients": ["-3", float("nan")]}, "problem.coefficients[1]"),
        ({"initial": ["nan", "2.1"]}, "problem.initial[0]"),
        ({"true_roots": ["-inf", "2.6"]}, "problem.true_roots[0]"),
        ({"settings": {"correction_tolerance": "inf"}},
         "problem.settings.correction_tolerance"),
    ], ids=["inf coefficient", "JSON NaN coefficient", "nan initial",
            "-inf true root", "inf tolerance"])
    def test_non_finite_real_rejected(self, change, location):
        bad = dict(GOOD_PROBLEM, coefficients=["-3", "1"],
                   multiplicities=[1, 1], initial=["0.2", "2.1"],
                   true_roots=None)
        bad.update(change)
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert location in str(err.value)
        assert "non-finite" in str(err.value)

    @pytest.mark.parametrize("change, location", [
        ({"roots": ["1", "1"]}, "problem.roots"),
        ({"scale": "0"}, "problem.scale"),
        ({"representation": "coefficients",
          "coefficients": {"a0": "0", "ch": ["1"], "sh": ["0.5", "1"]}},
         "problem.coefficients"),
    ], ids=["duplicate roots", "zero scale", "unequal series lengths"])
    def test_polynomial_is_checked_at_load(self, change, location):
        bad = dict({
            "family": "exponential",
            "representation": "roots",
            "roots": ["-1", "1"],
            "multiplicities": [1, 1],
            "initial": ["-0.9", "1.2"],
        }, **change)
        with pytest.raises(SchemaError) as err:
            problem_from_dict(bad)
        assert location in str(err.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"family": "algebraic",\n  "oops"\n')
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert ":2:" in str(err.value) or ":3:" in str(err.value)

    def test_coincident_initial_values_rejected_at_load(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(GOOD_PROBLEM,
                                        initial=["0.4", "8", "0.4"])))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert f"{path}.initial" in str(err.value)
        assert "coincide" in str(err.value)

    @pytest.mark.parametrize("key", ["max_iterations", "sweep_mode"])
    @pytest.mark.parametrize("value", ["x", 2.5, [1], {"a": 1}, None, True],
                             ids=["string", "float", "list", "object", "null",
                                  "true"])
    def test_ill_typed_setting_rejected_naming_the_settings(self, tmp_path,
                                                            key, value):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(GOOD_PROBLEM,
                                        settings={key: value})))
        with pytest.raises(SchemaError) as err:
            load_problem(path)
        assert f"{path}.settings" in str(err.value)

    @pytest.mark.parametrize("key", ["max_iteration", "precision_bits",
                                     "tolerance"])
    def test_unknown_setting_rejected_naming_it(self, key):
        # a misspelt setting would otherwise leave its default in force
        with pytest.raises(SchemaError) as err:
            problem_from_dict(dict(GOOD_PROBLEM, settings={key: 2}))
        assert f"problem.settings.{key}: " in str(err.value)

    @pytest.mark.parametrize("key", ["precison_bits", "true_root", "setting"])
    def test_unknown_top_level_key_rejected_naming_it(self, key):
        # a misspelt key would otherwise leave its default in force
        with pytest.raises(SchemaError) as err:
            problem_from_dict(dict(GOOD_PROBLEM, **{key: 1024}))
        assert f"problem.{key}: " in str(err.value)

    def test_keys_of_the_other_representation_accepted(self):
        # the README's template lists the keys of both representations
        problem = problem_from_dict(dict(GOOD_PROBLEM, roots=["2", "3", "5"],
                                         scale="1"))
        assert problem.poly == problem_from_dict(GOOD_PROBLEM).poly

    @pytest.mark.parametrize("label", [5, ["a"], {"x": 1}, None, True],
                             ids=["number", "list", "object", "null", "true"])
    def test_label_that_is_not_a_string_rejected(self, label):
        with pytest.raises(SchemaError) as err:
            problem_from_dict(dict(GOOD_PROBLEM, label=label))
        assert "problem.label: " in str(err.value)

    def test_plain_json_numbers_accepted(self):
        data = dict(GOOD_PROBLEM, initial=[0.4, 3.5, 8],
                    coefficients=[-18, 132, -506, 1071, -1188, 540])
        problem = problem_from_dict(data)
        assert problem.initial[2] == 8


class TestReports:
    def test_trace_roundtrip_preserves_error_sequence_exactly(self, tmp_path):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        loaded = load_report(path)
        assert loaded.termination == report.termination
        assert len(loaded.trace) == len(report.trace)
        for got, want in zip(loaded.trace, report.trace):
            assert got.approximations == want.approximations
            assert got.errors == want.errors
            if want.corrections is None:
                assert got.corrections is None
            else:
                assert got.corrections == want.corrections

    def test_files_are_the_indented_json_text(self, tmp_path):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        problem_path, report_path = tmp_path / "p.json", tmp_path / "r.json"
        save_problem(problem, problem_path)
        save_report(report, problem, report_path)
        for path, data in ((problem_path, problem_to_dict(problem)),
                           (report_path, report_to_dict(report, problem))):
            assert path.read_text() == json.dumps(data, indent=2) + "\n"

    @pytest.mark.parametrize("value", [mp.nan, mp.inf, -mp.inf])
    def test_a_nonfinite_report_is_rejected(self, tmp_path, value):
        # no solve writes nan or inf, and none ends `nonfinite`
        problem = problem_from_dict(GOOD_PROBLEM)
        bits = problem.precision_bits
        start = TraceEntry(0, problem.initial, (mp.mpf(1),) * 3, None, None,
                           bits)
        last = TraceEntry(1, (value, mp.mpf(3), mp.mpf(4)),
                          (value, mp.mpf(0), mp.mpf(1)),
                          (value, mp.mpf("0.5"), mp.mpf(1)), None, bits)
        path = tmp_path / "r.json"
        save_report(SolveReport("max_iterations", (start, last)), problem,
                    path)
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.final[0]: non-finite real" in str(err.value)
        data = json.loads(path.read_text())
        data["termination"] = "nonfinite"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.termination: " in str(err.value)

    def test_truncated_report_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"termination": "converged"}')
        with pytest.raises(SchemaError):
            load_report(path)

    def test_ladder_report_loads_into_the_solve_report(self, tmp_path):
        # above 256 bits the early sweeps run at lower rungs, and each
        # entry's precision survives the round trip
        problem = load_problem(
            resources.files("multiroots.problems") / "example1.json",
            precision_override=1024)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        assert min(e.precision_bits for e in report.trace) == 256
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        assert [e["precision_bits"] for e in data["trace"]] == \
            [e.precision_bits for e in report.trace]
        assert load_report(path) == report

    def test_report_without_entry_precision_loads_at_the_reports(self,
                                                                  tmp_path):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        for entry in data["trace"]:
            del entry["precision_bits"]
        path.write_text(json.dumps(data))
        assert load_report(path) == report

    @pytest.mark.parametrize("value", [True, 40, 193, "192"])
    def test_bad_entry_precision_rejected(self, tmp_path, value):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings)
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        data["trace"][1]["precision_bits"] = value
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert "trace[1].precision_bits" in str(err.value)

    @pytest.mark.parametrize("truth, change, named, message", [
        (True, "errors cut to one value", "trace[0].errors",
         "expected 3 values"),
        (True, "errors empty", "trace[1].errors", "nonempty list"),
        (False, "corrections cut to one value", "trace[2].corrections",
         "expected 3 values"),
        (True, "approximations cut to two values",
         "trace[1].approximations", "expected 3 values"),
        (True, "errors null in one entry", "trace[2].errors",
         "every trace entry or in none"),
    ], ids=["errors cut", "errors empty", "corrections cut",
            "approximations cut", "errors null in one entry"])
    def test_trace_list_that_does_not_match_final_rejected(
            self, tmp_path, truth, change, named, message):
        # such a trace no longer describes one solve: `order` would crash
        # on it or estimate an order from it
        problem = problem_from_dict(
            GOOD_PROBLEM if truth else dict(GOOD_PROBLEM, true_roots=None))
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        cut_trace_list(data, change)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.{named}: " in str(err.value)
        assert message in str(err.value)

    @pytest.mark.parametrize("change", sorted(REPORT_KEY_EDITS))
    def test_a_key_no_solve_writes_rejected(self, tmp_path, change):
        # `order` would read a freeze test, an index or a verdict off keys
        # that no solve wrote together
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        assert report.iterations_used >= 3
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        named = edit_report_key(data, change)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.{named}: " in str(err.value)

    @pytest.mark.parametrize("termination", [
        "max_iterations", "collision", "diverged", "nonfinite"])
    def test_an_order_on_a_failed_solve_rejected(self, tmp_path, termination):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings)
        assert report.estimated_order is not None
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        data["termination"] = termination
        path.write_text(json.dumps(data))
        # no solve ends `nonfinite`: its termination fails before its order
        named = ("termination" if termination == "nonfinite"
                 else "estimated_order")
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.{named}: " in str(err.value)
        data["estimated_order"] = None
        path.write_text(json.dumps(data))
        if termination == "nonfinite":
            with pytest.raises(SchemaError, match="termination must be one"):
                load_report(path)
        else:
            assert load_report(path).termination == termination

    def test_a_loaded_report_reads_its_order_off_the_trace(self, tmp_path,
                                                           monkeypatch):
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        calls = count_trace_orders(monkeypatch)
        loaded = load_report(path)
        assert calls == []
        assert loaded.estimated_order == report.estimated_order
        assert calls == [loaded.trace]

    def test_report_without_residuals_loads(self, tmp_path):
        # the top-level residuals repeat the last entry's and may be left out
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings)
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        del data["residuals"]
        path.write_text(json.dumps(data))
        assert load_report(path) == report

    def test_report_without_k_or_iterations_used_loads(self, tmp_path):
        # each defaults to what the trace says
        problem = problem_from_dict(GOOD_PROBLEM)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings)
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        data = json.loads(path.read_text())
        del data["iterations_used"]
        for entry in data["trace"]:
            del entry["k"]
        path.write_text(json.dumps(data))
        assert load_report(path) == report

    @pytest.mark.parametrize("source", ["example1", "example2", "example3",
                                        "no true roots"])
    def test_report_loads_into_the_solve_report(self, tmp_path, source):
        if source == "no true roots":
            problem = problem_from_dict(dict(GOOD_PROBLEM, true_roots=None))
        else:
            problem = load_problem(
                resources.files("multiroots.problems") / f"{source}.json")
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, problem.settings,
                       true_roots=problem.truth())
        path = tmp_path / "r.json"
        save_report(report, problem, path)
        assert load_report(path) == report


def saved_example(path, name="example1", bits=None):
    """(the SolveReport of bundled `name` at `bits`, or at its own
    precision, and its report's JSON data, saved at `path`)."""
    problem = load_problem(
        resources.files("multiroots.problems") / f"{name}.json", bits)
    report = solve(problem.polynomial(), problem.multiplicities,
                   problem.initial, problem.settings,
                   true_roots=problem.truth())
    save_report(report, problem, path)
    return report, json.loads(path.read_text())


class TestLoadOnRead:
    """`load_report` checks every rule at load, and a trace list in the
    form `format_real` writes is parsed on its first read."""

    @pytest.mark.parametrize("bad", sorted(BAD_LIST_EDITS))
    @pytest.mark.parametrize("named", REPORT_LISTS)
    def test_a_bad_list_is_rejected_at_load(self, tmp_path, named, bad):
        path = tmp_path / "r.json"
        report, data = saved_example(path)
        assert report.iterations_used >= 3
        key = break_report_list(data, named, bad)
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert f"{path}.{key}: " in str(err.value)

    def test_loading_parses_nothing_until_a_list_is_read(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "r.json"
        report, _ = saved_example(path)
        calls = count_calls(monkeypatch, report_io, "parse_real")
        loaded = load_report(path)
        assert calls == []
        # `verify` reads only `final`: the last entry's approximations
        assert loaded.final == report.final
        assert len(calls) == len(report.final)
        assert loaded.trace[-1].approximations == report.final
        assert len(calls) == len(report.final)
        assert loaded == report

    def test_the_order_parses_no_approximations_but_the_last(self, tmp_path,
                                                             monkeypatch):
        path = tmp_path / "r.json"
        report, _ = saved_example(path)
        calls = count_calls(monkeypatch, report_io, "_parse_reals")
        loaded = load_report(path)
        assert loaded.estimated_order == report.estimated_order
        parsed = [location for _, _, location in calls
                  if location.endswith(".approximations")]
        last = len(report.trace) - 1
        assert parsed == [f"{path}.trace[{last}].approximations"]

    @pytest.mark.parametrize("bits", [None, 1024])
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_a_loaded_report_equals_its_solve(self, tmp_path, name, bits):
        # `==` reads every field of every entry, the rungs' included
        path = tmp_path / "r.json"
        report, _ = saved_example(path, name, bits)
        assert load_report(path) == report

    def test_final_in_other_text_for_the_same_values_loads(self, tmp_path):
        path = tmp_path / "r.json"
        report, data = saved_example(path)
        data["final"] = [padded(v) for v in data["final"]]
        data["residuals"] = [padded(v) for v in data["residuals"]]
        path.write_text(json.dumps(data))
        assert load_report(path) == report
        data["trace"][-1]["approximations"][0] = "0.5"
        data["final"][0] = "0.50"
        path.write_text(json.dumps(data))
        assert load_report(path).final[0] == mp.mpf("0.5")

    def test_plain_json_numbers_in_a_trace_list_load(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "r.json"
        report, data = saved_example(path)
        data["trace"][1]["errors"] = [0.5, 1, 2.5]
        path.write_text(json.dumps(data))
        calls = count_calls(monkeypatch, report_io, "parse_real")
        loaded = load_report(path)
        # parsed at load, as any list in another form
        assert len(calls) == 3
        assert loaded.trace[1].errors == (0.5, 1, 2.5)
        assert loaded.trace[2] == report.trace[2]
