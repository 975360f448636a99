import json
import math
import random
import sys
from dataclasses import replace
from importlib import resources

import pytest
from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    AlgebraicPoly,
    CollisionError,
    DegenerateDenominatorError,
    FactoredForm,
    InvalidConfigurationError,
    RootConfiguration,
    SolveSettings,
    classical_ehrlich_step,
    evaluate,
    evaluation_noise,
    expand_from_roots,
    initial_state,
    simple_root_reduction_residual,
    log_derivative_sum,
    solve,
    step,
)
from multiroots import cli, polynomials, solver
from multiroots.polynomials import gaps, root_offset
from multiroots.precision import to_mpf, ulps_apart
from multiroots.report_io import load_problem, save_report
from conftest import (count_calls, count_family_calls, count_passes,
                      count_trace_orders, random_configuration,
                      random_simple_roots)

EX1 = dict(roots=("2", "3", "5"), mults=(2, 3, 1), initial=("0.4", "3.5", "8"))
EX2 = dict(roots=("1", "2", "2.5"), mults=(3, 2, 1), initial=("0.2", "1.7", "3"))
EX3 = dict(roots=("-2", "3"), mults=(2, 2), initial=("-1", "4"))


def factored(family, case, bits):
    cfg = RootConfiguration(case["roots"], case["mults"], precision_bits=bits)
    return FactoredForm(family, cfg, precision_bits=bits)


def expanded(family, case, bits):
    return expand_from_roots(factored(family, case, bits))


class TestStep:
    def test_single_root_newton_with_multiplicity_is_exact(self):
        # no coupling: x - alpha f/f' lands exactly on a pure power's root
        poly = AlgebraicPoly((-4, 4))  # (x - 2)^2
        settings = SolveSettings()
        state = initial_state(poly, (3,), settings)
        advanced = step(poly, (2,), state, settings)
        assert advanced.approximations[0] == 2

    def test_all_simple_matches_classical_step(self):
        poly = AlgebraicPoly((0, -1))  # x^2 - 1
        settings = SolveSettings()
        state = initial_state(poly, ("0.9", "-1.2"), settings)
        ours = step(poly, (1, 1), state, settings).approximations
        theirs = classical_ehrlich_step(poly, ("0.9", "-1.2"))
        for a, b in zip(ours, theirs):
            assert ulps_apart(a, b, 53) <= 4

    def test_example1_reaches_18_digits_in_four_sweeps(self):
        bits = 192
        poly = expanded(ALGEBRAIC, EX1, bits)
        report = solve(poly, EX1["mults"], EX1["initial"],
                       SolveSettings(precision_bits=bits),
                       true_roots=EX1["roots"])
        assert max(report.trace[4].errors) <= mp.mpf("1e-18")

    def test_hand_driven_loop_takes_string_truths_as_solve_does(self):
        # initial_state and step once subtracted the strings from mpf values
        bits = 192  # below FLOOR: every sweep of the solve is a `step`
        poly = expanded(ALGEBRAIC, EX1, bits)
        settings = SolveSettings(precision_bits=bits)
        report = solve(poly, EX1["mults"], EX1["initial"], settings,
                       true_roots=EX1["roots"])
        entries = [initial_state(poly, EX1["initial"], settings,
                                 true_roots=EX1["roots"])]
        while len(entries) < len(report.trace):
            entries.append(step(poly, EX1["mults"], entries[-1], settings,
                                true_roots=EX1["roots"]))
        assert tuple(entries) == report.trace

    def test_degenerate_denominator_raises(self):
        poly = AlgebraicPoly((0, -1))  # x^2 - 1, f'(0) = 0
        settings = SolveSettings()
        state = initial_state(poly, (0,), settings)
        with pytest.raises(DegenerateDenominatorError):
            step(poly, (1,), state, settings)

    def test_collision_carries_both_indices(self):
        poly = AlgebraicPoly((0, -1))
        settings = SolveSettings()
        x1 = 1 + mp.mpf(2) ** -40
        state = initial_state(poly, (1, x1), settings)
        with pytest.raises(CollisionError) as err:
            step(poly, (1, 1), state, settings)
        assert err.value.i is not None
        assert err.value.j is not None

    def test_collision_names_the_partner_after_the_updated_index(self):
        poly = AlgebraicPoly((0, 0, -1))  # x^3 - 1
        settings = SolveSettings()
        state = initial_state(poly, ("0.3", 5, 5 + mp.mpf(2) ** -40), settings)
        with pytest.raises(CollisionError) as err:
            step(poly, (1, 1, 1), state, settings)
        assert {err.value.i, err.value.j} == {1, 2}


class TestFactoredSweepFailures:
    """`_fixed_sweep`'s own failures, on the roots -1 and 1 at 128 bits."""

    bits = 128

    def case(self, family):
        cfg = RootConfiguration((-1, 1), (1, 1), precision_bits=self.bits)
        return (FactoredForm(family, cfg, precision_bits=self.bits),
                SolveSettings(precision_bits=self.bits))

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_two_close_starts_collide(self, family):
        poly, settings = self.case(family)
        with mp.workprec(self.bits):
            starts = (mp.mpf("0.5"), mp.mpf("0.5") + mp.mpf(2) ** -70)
        state = initial_state(poly, starts, settings)
        with pytest.raises(CollisionError) as err:
            step(poly, (1, 1), state, settings)
        assert {err.value.i, err.value.j} == {0, 1}
        assert abs(err.value.distance) < polynomials.collision_threshold(
            self.bits)
        report = solve(poly, (1, 1), starts, settings)
        assert report.termination == "collision"
        assert report.trace == (state,)

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_a_start_where_the_root_terms_cancel_is_degenerate(self, family):
        # S = h(0 + 1) + h(0 - 1) = 0: the only path where the sweep reads f
        poly, settings = self.case(family)
        state = initial_state(poly, (0,), settings)
        with pytest.raises(DegenerateDenominatorError) as err:
            step(poly, (1,), state, settings)
        assert err.value.index == 0
        assert err.value.denominator == 0
        assert solve(poly, (1,), (0,), settings).termination == "diverged"


class TestStartsAndTruths:
    """`solve`, `initial_state` and `step` take the starts and the true
    roots as finite reals, one true root per approximation, and raise
    InvalidConfigurationError naming the value before any sweep runs."""

    BAD_TRUTHS = {
        "one too few": (("1", "2"), "2 values for 3 approximations"),
        "one too many": (("1", "2", "3.5", "4"),
                         "4 values for 3 approximations"),
        "nan": (("1", "nan", "3.5"), r"true_roots\[1\] is not finite"),
        "inf": (("1", "inf", "3.5"), r"true_roots\[1\] is not finite"),
        "not a number": (("1", "2", "x"), r"true_roots\[2\] is not a real"),
    }

    @staticmethod
    def case(monkeypatch):
        """(poly, multiplicities, initial, settings, k = 0 entry) of a solve
        whose sweeps fail the test if they run."""
        poly = FactoredForm(ALGEBRAIC, RootConfiguration(
            ("1", "2", "3.5"), (1, 2, 1), precision_bits=128))
        settings = SolveSettings(precision_bits=128)
        initial = ("1.1", "1.9", "3.6")
        start = initial_state(poly, initial, settings)

        def no_sweep(*args):
            pytest.fail("a sweep ran")
        monkeypatch.setattr(solver, "_sweep", no_sweep)
        return poly, (1, 2, 1), initial, settings, start

    @pytest.mark.parametrize("call", ["solve", "initial_state", "step"])
    @pytest.mark.parametrize("bad", BAD_TRUTHS)
    def test_bad_true_roots_raise_before_any_sweep(self, monkeypatch, bad,
                                                   call):
        poly, mults, initial, settings, start = self.case(monkeypatch)
        truths, message = self.BAD_TRUTHS[bad]
        with pytest.raises(InvalidConfigurationError, match=message):
            if call == "solve":
                solve(poly, mults, initial, settings, true_roots=truths)
            elif call == "initial_state":
                initial_state(poly, initial, settings, true_roots=truths)
            else:
                step(poly, mults, start, settings, true_roots=truths)

    @pytest.mark.parametrize("call", ["solve", "initial_state"])
    def test_a_start_that_is_not_a_number_is_named(self, monkeypatch, call):
        poly, mults, _, settings, _ = self.case(monkeypatch)
        initial = ("1.1", "x", "3.6")
        with pytest.raises(InvalidConfigurationError,
                           match="initial approximation 1 is not a real"):
            if call == "solve":
                solve(poly, mults, initial, settings)
            else:
                initial_state(poly, initial, settings)


class TestSolve:
    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_each_point_pass_runs_once_per_solve(self, monkeypatch, name,
                                                 bits):
        # the solve's copy of the polynomial runs every pass, at every rung
        # of the ladder, and its memo serves them all.  A factored form
        # (example2 and example3) takes its residuals on first read: inside
        # the solve it runs only lookups at its stored roots, which may
        # repeat, and its other points run once each when they are read
        calls, held = count_passes(monkeypatch)
        problem = load_problem(
            resources.files("multiroots.problems") / f"{name}.json", bits)
        poly = problem.polynomial()
        stored = (set() if not isinstance(poly, FactoredForm)
                  else {r._mpf_ for r in poly.config.roots})
        report = solve(poly, problem.multiplicities, problem.initial,
                       problem.settings)
        assert report.termination == "converged"
        assert not stored or all(x in stored for _, x, _ in calls)
        for entry in report.trace:
            entry.residuals
        points = {key: n for key, n in calls.items() if key[1] not in stored}
        assert points and max(points.values()) == 1
        assert len(held) == 1
        rungs = {prec for _, _, prec in points}
        assert (min(rungs), max(rungs)) == (min(bits, solver.FLOOR), bits)

    def test_example2_converges_within_five_sweeps(self):
        bits = 192
        poly = factored(TRIGONOMETRIC, EX2, bits)
        report = solve(poly, EX2["mults"], EX2["initial"],
                       SolveSettings(precision_bits=bits,
                                     correction_tolerance="1e-11"),
                       true_roots=EX2["roots"])
        assert report.termination == "converged"
        assert report.iterations_used <= 5
        assert max(report.trace[-1].errors) <= mp.mpf("1e-18")

    def test_example3_converges_within_four_sweeps(self):
        bits = 192
        poly = factored(EXPONENTIAL, EX3, bits)
        report = solve(poly, EX3["mults"], EX3["initial"],
                       SolveSettings(precision_bits=bits,
                                     correction_tolerance="1e-11"),
                       true_roots=EX3["roots"])
        assert report.termination == "converged"
        assert report.iterations_used <= 4
        assert max(report.trace[-1].errors) <= mp.mpf("1e-18")

    def test_exact_initial_converges_immediately(self):
        poly = factored(ALGEBRAIC, EX1, 53)
        report = solve(poly, EX1["mults"], EX1["roots"])
        assert report.termination == "converged"
        assert report.iterations_used <= 1
        assert max(report.trace[-1].corrections) <= SolveSettings().tolerance

    def test_default_settings_run_at_the_polynomial_precision(self):
        bits = 192
        poly = expanded(ALGEBRAIC, dict(roots=("1", "3"), mults=(2, 1)), bits)
        report = solve(poly, (2, 1), ("0.8", "3.3"))
        assert report.precision_bits == bits
        assert report == solve(poly, (2, 1), ("0.8", "3.3"),
                               SolveSettings(precision_bits=bits))
        assert abs(report.final[0] - 1) <= mp.mpf("1e-25")

    def test_length_mismatch_rejected(self):
        poly = AlgebraicPoly((0, -1))
        with pytest.raises(InvalidConfigurationError):
            solve(poly, (1, 1), (0.5,))

    @pytest.mark.parametrize("mults", [(0, 1), (-1, 1), (True, 1), (1.0, 1)],
                             ids=["zero", "negative", "bool", "float"])
    def test_non_positive_or_non_integer_multiplicity_rejected(self, mults):
        # (x - 1)(x - 2): with multiplicity 0 the solve once ended
        # `converged` with x_0 = 0.5, which is not a root
        poly = AlgebraicPoly((-3, 2))
        settings = SolveSettings()
        with pytest.raises(InvalidConfigurationError):
            solve(poly, mults, (0.5, 2.5))
        state = initial_state(poly, (0.5, 2.5), settings)
        with pytest.raises(InvalidConfigurationError):
            step(poly, mults, state, settings)

    def test_duplicate_initial_rejected(self):
        poly = AlgebraicPoly((0, -1))
        with pytest.raises(InvalidConfigurationError):
            solve(poly, (1, 1), (0.5, 0.5))

    def test_collision_terminates_with_trace(self):
        poly = AlgebraicPoly((0, -1))
        x1 = 1 + mp.mpf(2) ** -40
        report = solve(poly, (1, 1), (1, x1))
        assert report.termination == "collision"
        assert len(report.trace) >= 1

    def test_degenerate_denominator_surfaces_as_diverged(self):
        poly = AlgebraicPoly((0, -1))
        report = solve(poly, (1,), (0,))
        assert report.termination == "diverged"

    def test_factored_solve_skips_the_noise_bound(self, monkeypatch):
        # a factored bound is a fraction of |f| and can never freeze f != 0;
        # a factored sweep sums D_i / f itself, in fixed point, so it reads
        # neither f' nor the mpf coupling either
        names = ("evaluate_derivative", "evaluation_noise",
                 "log_derivative_sum")
        calls = set()

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                calls.add(name)
                return kernel(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(solver, name,
                                counted(name, getattr(solver, name)))
        # at 1024 bits the factored sweeps run on the fixed-point rungs
        for family, case in ((ALGEBRAIC, EX1), (TRIGONOMETRIC, EX2),
                             (EXPONENTIAL, EX3)):
            for bits in (192, 1024):
                for mode in ("simultaneous", "sequential"):
                    for build, want in ((factored, set()),
                                        (expanded, set(names))):
                        calls.clear()
                        report = solve(build(family, case, bits),
                                       case["mults"], case["initial"],
                                       SolveSettings(precision_bits=bits,
                                                     sweep_mode=mode))
                        assert report.termination == "converged"
                        assert calls == want, (family, bits, mode, build)

    @pytest.mark.parametrize("family, case", [(TRIGONOMETRIC, EX2),
                                              (EXPONENTIAL, EX3)])
    @pytest.mark.parametrize("build", [factored, expanded])
    def test_each_solve_computes_its_own_points(self, monkeypatch, family,
                                                case, build):
        # the point memo lives for one solve: neither an earlier solve of
        # the same object nor the caller's evaluations save a later solve
        # a transcendental call, on the ladder's rungs (512 bits) or not
        calls = count_family_calls(monkeypatch, family)
        for bits in (192, 512):
            poly = build(family, case, bits)
            settings = SolveSettings(precision_bits=bits)
            counts, reports = [], []
            for warm in (False, False, True):
                if warm:
                    for x in case["initial"]:
                        evaluate(poly, x)
                calls.clear()
                reports.append(solve(poly, case["mults"], case["initial"],
                                     settings))
                counts.append(dict(calls))
            assert reports[0].termination == "converged"
            assert reports[1] == reports[2] == reports[0]
            assert counts[1] == counts[2] == counts[0] != {}

    @pytest.mark.parametrize("family, case", [
        (TRIGONOMETRIC, dict(roots=("-1.3", "-0.2", "0.9", "1.8"),
                             mults=(1, 2, 3, 2))),
        (EXPONENTIAL, dict(roots=("-1.1", "0.2", "1.4"), mults=(2, 1, 3)))])
    def test_series_coefficient_form_at_2048_bits(self, family, case):
        # the series kernels' guard bits hold at high precision: each
        # alpha-fold root reaches the radius eps^(1/alpha) of the cluster that
        # rounding the coefficients splits it into
        bits = 2048
        poly = expanded(family, case, bits)
        with mp.workprec(bits):
            roots = [mp.mpf(r) for r in case["roots"]]
            gap = min(b - a for a, b in zip(roots, roots[1:]))
            initial = [r + (-1) ** i * gap * mp.mpf("0.12")
                       for i, r in enumerate(roots)]
            report = solve(poly, case["mults"], initial,
                           SolveSettings(precision_bits=bits))
            assert report.termination == "converged"
            for x, r, alpha in zip(report.final, roots, case["mults"]):
                bound = (mp.mpf(2) ** (32 - bits)) ** (mp.mpf(1) / alpha)
                assert abs(x - r) <= bound * max(abs(r), 1)

    def test_max_iterations_reached(self):
        bits = 192
        poly = expanded(ALGEBRAIC, EX1, bits)
        report = solve(poly, EX1["mults"], EX1["initial"],
                       SolveSettings(precision_bits=bits, max_iterations=2))
        assert report.termination == "max_iterations"
        assert report.iterations_used == 2


LADDER_CASES = ((ALGEBRAIC, EX1), (TRIGONOMETRIC, EX2), (EXPONENTIAL, EX3))

_FAILURES = {CollisionError: "collision", DegenerateDenominatorError: "diverged",
             ZeroDivisionError: "diverged"}


def step_loop(poly, multiplicities, initial, settings, true_roots=None):
    """(trace, termination) of `step` driven by hand at full precision."""
    bits = settings.precision_bits
    if true_roots is not None:
        true_roots = [to_mpf(r, bits) for r in true_roots]
    trace = [initial_state(poly, initial, settings, true_roots=true_roots)]
    for _ in range(settings.max_iterations):
        try:
            entry = step(poly, multiplicities, trace[-1], settings,
                         true_roots=true_roots)
        except tuple(_FAILURES) as exc:
            return trace, _FAILURES[type(exc)]
        trace.append(entry)
        assert entry.precision_bits == bits
        if max(entry.corrections) <= settings.tolerance:
            return trace, "converged"
    return trace, "max_iterations"


class TestPrecisionLadder:
    @pytest.mark.parametrize("bits", [1024, 2048, 4096])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_matches_the_full_precision_step_loop(self, family, case, mode,
                                                  bits):
        poly = expanded(family, case, bits)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        report = solve(poly, case["mults"], case["initial"], settings)
        _, termination = step_loop(poly, case["mults"], case["initial"],
                                   settings)
        assert report.termination == termination == "converged"
        rungs = [entry.precision_bits for entry in report.trace]
        assert rungs[0] == rungs[-1] == bits
        assert rungs[1] == solver.FLOOR
        with mp.workprec(bits):
            for x, r, alpha in zip(report.final, case["roots"], case["mults"]):
                r = mp.mpf(r)
                bound = (mp.mpf(2) ** (32 - bits)) ** (mp.mpf(1) / alpha)
                assert abs(x - r) <= bound * max(abs(r), 1)

    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_a_loose_tolerance_is_met_at_full_precision(self, family, case,
                                                        mode):
        # with tolerance 1e-10 a 256-bit rung sweep meets the tolerance while
        # its corrections still fit the rung; it must be redone at 1024 bits,
        # not over and over at the rung
        bits = 1024
        poly = expanded(family, case, bits)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode,
                                 correction_tolerance="1e-10")
        report = solve(poly, case["mults"], case["initial"], settings)
        _, termination = step_loop(poly, case["mults"], case["initial"],
                                   settings)
        assert report.termination == termination == "converged"
        assert report.trace[-1].precision_bits == bits
        assert solver.FLOOR in [e.precision_bits for e in report.trace]

    @pytest.mark.parametrize("bits", [192, 256])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_a_coefficient_form_at_or_below_the_floor_is_the_step_loop(
            self, family, case, mode, bits):
        # a factored form's loop is TestDeferredResiduals'
        poly = expanded(family, case, bits)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        report = solve(poly, case["mults"], case["initial"], settings,
                       true_roots=case["roots"])
        trace, termination = step_loop(poly, case["mults"], case["initial"],
                                       settings, true_roots=case["roots"])
        assert report.termination == termination == "converged"
        assert report.trace == tuple(trace)

    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_each_entry_is_evaluated_at_its_precision(self, family, case,
                                                      mode):
        # a rung entry's residuals and errors come from the polynomial
        # rounded to its rung, at the rung; every other entry's from the
        # full polynomial at full precision
        bits = 1024
        poly = expanded(family, case, bits)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        report = solve(poly, case["mults"], case["initial"], settings,
                       true_roots=case["roots"])
        assert report.termination == "converged"
        rungs = {entry.precision_bits for entry in report.trace}
        assert solver.FLOOR in rungs and bits in rungs
        for entry in report.trace:
            p = entry.precision_bits
            assert p <= bits
            at_p = poly if p == bits else replace(poly, precision_bits=p)
            with mp.workprec(p):
                assert entry.residuals == tuple(
                    abs(evaluate(at_p, x, p)) for x in entry.approximations)
                assert entry.errors == tuple(
                    abs(root_offset(family, x, to_mpf(r, bits)))
                    for x, r in zip(entry.approximations, case["roots"]))

    @pytest.mark.parametrize("bits", [128, 192, 1024])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    @pytest.mark.parametrize("representation", [expanded, factored])
    def test_every_entry_is_at_full_precision_or_on_a_rung(
            self, representation, family, case, mode, bits):
        # the only precisions below the solve's are FLOOR * 2**j, whatever
        # the representation
        rungs = {solver.FLOOR * 2 ** j for j in range(3)}
        poly = representation(family, case, bits)
        report = solve(poly, case["mults"], case["initial"],
                       SolveSettings(precision_bits=bits, sweep_mode=mode))
        assert report.termination == "converged"
        for entry in report.trace:
            assert (entry.precision_bits == bits
                    or entry.precision_bits in rungs
                    and entry.precision_bits < bits), entry.k

    @pytest.mark.parametrize("representation", [expanded, factored])
    def test_restart_from_converged_roots_redoes_at_full_precision(
            self, representation):
        bits = 4096
        poly = representation(TRIGONOMETRIC, EX2, bits)
        settings = SolveSettings(precision_bits=bits)
        first = solve(poly, EX2["mults"], EX2["initial"], settings)
        assert first.termination == "converged"
        again = solve(poly, EX2["mults"], first.final, settings)
        assert again.termination == "converged"
        assert again.iterations_used <= 2
        # the first sweep starts at the floor, whose corrections ask for
        # more bits than it has: the sweep is redone at full precision
        assert [e.precision_bits for e in again.trace] == \
            [bits] * len(again.trace)

    @pytest.mark.parametrize("representation, base, gap", [
        (expanded, 0, 150), (factored, 1, 300)],
        ids=["collision", "roots coincide"])
    def test_a_sweep_the_rung_cannot_carry_is_redone_at_full_precision(
            self, representation, base, gap):
        # at 256 bits, approximations 2**-150 apart collide (the threshold is
        # 2**-128), and so do a factored form's approximations about 2**-300
        # apart once rounded; at 1024 bits neither happens
        bits = 1024
        with mp.workprec(bits):
            delta = mp.mpf(2) ** -gap
            case = dict(roots=(base, base + delta), mults=(1, 1),
                        initial=(base - delta / 4, base + delta + delta / 4))
        poly = representation(ALGEBRAIC, case, bits)
        settings = SolveSettings(precision_bits=bits)
        report = solve(poly, case["mults"], case["initial"], settings)
        trace, termination = step_loop(poly, case["mults"], case["initial"],
                                       settings)
        assert report.termination == termination == "converged"
        assert report.trace[1] == trace[1]

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_a_rung_sweep_asking_for_more_is_redone_at_full_precision(
            self, family):
        # started 2**-100 from three simple roots, the first sweep runs at
        # the floor, and its corrections ask for 512 bits: the sweep is
        # redone at full precision, not at an intermediate rung
        bits = 4096
        case = dict(roots=("1", "2", "2.5"), mults=(1, 1, 1))
        poly = factored(family, case, bits)
        with mp.workprec(bits):
            initial = [mp.mpf(r) + (-1) ** i * mp.mpf(2) ** -100
                       for i, r in enumerate(case["roots"])]
        settings = SolveSettings(precision_bits=bits)
        report = solve(poly, case["mults"], initial, settings)
        assert report.termination == "converged"
        assert report.iterations_used == 5
        assert report.trace[1] == step(poly, case["mults"], report.trace[0],
                                       settings)

    def test_a_factored_rung_copy_keeps_its_roots(self):
        bits = 1024
        with mp.workprec(bits):
            thirds = (mp.mpf(1) / 3, mp.mpf(2) / 3)
        poly = factored(ALGEBRAIC, dict(roots=thirds, mults=(1, 2)), bits)
        rounded = replace(poly, precision_bits=solver.FLOOR)
        assert rounded.precision_bits == solver.FLOOR
        assert rounded.config == poly.config

    def test_roots_that_coincide_once_rounded_keep_the_floor(self):
        # roots 2**-300 apart coincide at FLOOR bits, but a factored sweep
        # reads the roots as they are, so the first sweep stays on the
        # lowest rung
        bits = 1024
        with mp.workprec(bits):
            roots = (1, 1 + mp.mpf(2) ** -300)
        poly = factored(ALGEBRAIC, dict(roots=roots, mults=(1, 1)), bits)
        report = solve(poly, (1, 1), ("0.5", "1.5"),
                       SolveSettings(precision_bits=bits, max_iterations=1))
        assert report.trace[1].precision_bits == solver.FLOOR


# (family, roots, multiplicities, starts, bits) of factored solves that
# start on a root or within 2**-50 of one
with mp.workprec(128):
    CLOSE_STARTS = {
        # x - r is about 2**-55
        "start on a root's 53-bit value": (
            ALGEBRAIC, (mp.mpf(1) / 3, 2), (2, 1),
            (to_mpf(mp.mpf(1) / 3, 53), "2.1"), 128),
        # x - r is 0: the coordinate freezes
        "start on a root": (TRIGONOMETRIC, ("0.5", 2), (2, 2),
                            ("0.5", "2.1"), 128),
        # the starts are 2**-58 apart, one 53-bit value
        "starts on one 53-bit value": (
            EXPONENTIAL, (1, 1 + mp.mpf(2) ** -50, 3), (1, 1, 2),
            (1 + mp.mpf(2) ** -51 - mp.mpf(2) ** -59,
             1 + mp.mpf(2) ** -51 + mp.mpf(2) ** -59, "3.1"), 128),
    }

LIBM = ("sin", "tan", "sinh", "tanh")


class TestFactoredLadder:
    """A factored solve climbs the ladder from FLOOR, as a coefficient
    form's does."""

    @pytest.mark.parametrize("bits", [128, 192])
    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_roots_far_from_zero_converge(self, family, bits):
        # the fixed-point scale grows with the iterates (`_fixed_scale`), so
        # roots near 1e15 and 2**20 converge as roots near 0 do
        for centre in ("1e15", "1048576"):
            with mp.workprec(bits):
                roots = [mp.mpf(centre) + mp.mpf(d) for d in ("0.3", "1.3")]
                initial = [roots[0] - mp.mpf("0.1"), roots[1] + mp.mpf("0.1")]
            cfg = RootConfiguration(roots, (2, 2), precision_bits=bits)
            poly = FactoredForm(family, cfg)
            for mode in ("simultaneous", "sequential"):
                settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
                report = solve(poly, (2, 2), initial, settings)
                assert report.termination == "converged", (centre, mode)

    @pytest.mark.parametrize("case", list(CLOSE_STARTS))
    def test_close_starts_are_the_step_loop(self, case):
        family, roots, mults, initial, bits = CLOSE_STARTS[case]
        cfg = RootConfiguration(roots, mults, precision_bits=bits)
        poly = FactoredForm(family, cfg)
        settings = SolveSettings(precision_bits=bits)
        report = solve(poly, mults, initial, settings)
        trace, termination = step_loop(poly, mults, initial, settings)
        assert report.termination == termination == "converged"
        assert report.trace == tuple(trace)

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_roots_that_share_a_53_bit_value_converge_apart(self, family):
        # a fixed-point sweep reads the roots as they are, so roots 1e-18
        # apart converge and are separated
        bits = 192
        poly = factored(family, dict(roots=("1", "1.000000000000000001"),
                                     mults=(1, 1)), bits)
        report = solve(poly, (1, 1), ("0.9", "1.1"),
                       SolveSettings(precision_bits=bits),
                       true_roots=poly.config.roots)
        assert report.termination == "converged"
        assert max(report.trace[-1].errors) <= mp.mpf(2) ** (32 - bits)

    def test_a_factored_report_reads_no_libm_trigonometry(
            self, monkeypatch, tmp_path):
        # Python's sin, tan, sinh and tanh come from the platform's libm,
        # which is not correctly rounded.  A factored solve of each family
        # writes the same report with them patched to raise, and makes no
        # call to them through a reference taken before the patch
        originals = {getattr(math, name) for name in LIBM}
        seen = []

        def watch(frame, event, arg):
            if event == "c_call" and arg in originals:
                seen.append(arg.__name__)

        def raising(name):
            def call(*args):
                raise AssertionError(f"math.{name} called")
            return call

        problem = tmp_path / "algebraic.json"
        problem.write_text(json.dumps(
            {"family": "algebraic", "representation": "roots",
             "roots": ["-1.5", "0.25", "2"], "multiplicities": [2, 3, 1],
             "initial": ["-1.2", "0.6", "2.5"], "precision_bits": 192}))
        for name in (str(problem), "example2", "example3"):
            plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
            assert cli.main(["solve", name, "-o", str(plain)]) == 0
            with monkeypatch.context() as libm:
                for function in LIBM:
                    libm.setattr(math, function, raising(function))
                sys.setprofile(watch)
                try:
                    assert cli.main(["solve", name, "-o", str(patched)]) == 0
                finally:
                    sys.setprofile(None)
            assert not seen, name
            assert patched.read_bytes() == plain.read_bytes(), name


class TestDeferredResiduals:
    """A factored form's trace entries take their residuals on first read
    (`solver._entry`), so a solve runs no value stage but lookups at the
    stored roots, and each residual read is the one an eager entry took."""

    @pytest.mark.parametrize("bits", [128, 1024])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_a_factored_solve_evaluates_only_its_stored_roots(
            self, monkeypatch, family, case, mode, bits):
        fresh = factored(family, case, bits)
        poly = factored(family, case, bits)
        stored = {r._mpf_ for r in poly.config.roots}
        calls, _ = count_passes(monkeypatch)
        report = solve(poly, case["mults"], case["initial"],
                       SolveSettings(precision_bits=bits, sweep_mode=mode))
        assert report.termination == "converged"
        assert all(x in stored for _, x, _ in calls)
        for entry in report.trace:
            p = entry.precision_bits
            with mp.workprec(p):
                want = [abs(evaluate(fresh, x, p))._mpf_
                        for x in entry.approximations]
            assert [r._mpf_ for r in entry.residuals] == want

    @pytest.mark.parametrize("read", ["==", "repr", "hash", "replace"])
    def test_reading_the_entry_takes_its_residuals(self, monkeypatch, read):
        bits = 128
        poly = factored(TRIGONOMETRIC, EX2, bits)
        settings = SolveSettings(precision_bits=bits)
        entry = initial_state(poly, EX2["initial"], settings)
        with mp.workprec(bits):
            eager = replace(entry, residuals=tuple(
                abs(evaluate(factored(TRIGONOMETRIC, EX2, bits), x, bits))
                for x in entry.approximations))
        reads = {"==": lambda e: e == eager, "repr": repr, "hash": hash,
                 "replace": lambda e: replace(e, k=1)}
        calls, _ = count_passes(monkeypatch)
        got = reads[read](entry)
        assert calls == {(id(poly), x._mpf_, bits): 1
                         for x in entry.approximations}
        assert got == reads[read](eager)

    @pytest.mark.parametrize("bits", [53, 192])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family, case", LADDER_CASES,
                             ids=[f for f, _ in LADDER_CASES])
    def test_a_hand_driven_loop_is_the_solve(self, family, case, mode, bits):
        # at or below FLOOR every sweep of the solve is a `step`: the loop's
        # deferred entries equal the solve's
        poly = factored(family, case, bits)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        report = solve(poly, case["mults"], case["initial"], settings,
                       true_roots=case["roots"])
        trace, termination = step_loop(poly, case["mults"], case["initial"],
                                       settings, true_roots=case["roots"])
        assert report.termination == termination == "converged"
        assert report.trace == tuple(trace)


class TestCoefficientResiduals:
    """A coefficient form's entry takes its residuals right after a sweep
    at its precision evaluated f at its points, and the solve takes the
    last entry's before it returns (`solver._sweep`).  The k = 0 entry
    above FLOOR bits, whose first sweep runs on a rung, and a rung entry
    before a climb wait for a reader, who runs each of their points'
    value stages once, unless a sequential sweep already ran them at the
    rung: each updated point but the last, which the coupling of the
    later coordinates read, and which the climb's sweeps push out of the
    point memo before the reader comes."""

    @pytest.mark.parametrize("read", ["residuals", "save_report"])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    def test_the_starts_wait_and_only_a_sequential_climb_reruns_points(
            self, monkeypatch, tmp_path, mode, read):
        bits = 1024
        path = tmp_path / "deep.json"
        assert cli.main(["generate", "--family", TRIGONOMETRIC,
                         "--roots=-1.2:2,0.3:1,1.5:1",
                         "--precision-bits", str(bits), "-o", str(path)]) == 0
        problem = load_problem(path)
        settings = replace(problem.settings, sweep_mode=mode)
        calls, held = count_passes(monkeypatch)
        report = solve(problem.polynomial(), problem.multiplicities,
                       problem.initial, settings)
        assert report.termination == "converged"
        starts = {x._mpf_ for x in report.trace[0].approximations}
        assert report.trace[0].precision_bits == bits
        assert report.trace[1].precision_bits == solver.FLOOR
        assert calls and not [key for key in calls
                              if key[1] in starts and key[2] == bits]
        if read == "save_report":
            save_report(report, problem, tmp_path / "report.json")
        else:
            for entry in report.trace:
                entry.residuals
        assert len(held) == 1
        (poly_id,) = held
        rerun = set() if mode == "simultaneous" else {
            (poly_id, x._mpf_, entry.precision_bits)
            for entry, after in zip(report.trace[1:], report.trace[2:])
            if after.precision_bits > entry.precision_bits
            for x in entry.approximations[:-1]}
        assert bool(rerun) == (mode == "sequential")
        assert {key: n for key, n in calls.items() if n > 1} == dict.fromkeys(
            rerun, 2)
        assert {key for key in calls if key[1] in starts and key[2] == bits}
        fresh = problem.polynomial()
        for entry in report.trace:
            p = entry.precision_bits
            with mp.workprec(p):
                want = [abs(evaluate(fresh, x, p))._mpf_
                        for x in entry.approximations]
            assert [r._mpf_ for r in entry.residuals] == want


def truth_case(source, bits=None):
    """(poly, multiplicities, initial, settings, true roots) of a bundled
    example at `bits`, or at its own precision, or for "wide", a wide
    factored form: eight drawn trigonometric roots at 128 bits, the size
    of the benchmark's smallest wide op."""
    if source == "wide":
        poly, mults, initial = drawn_case(random.Random(201), TRIGONOMETRIC,
                                          8, 128)
        return (poly, mults, initial, SolveSettings(precision_bits=128),
                poly.config.roots)
    problem = load_problem(
        resources.files("multiroots.problems") / f"{source}.json", bits)
    return (problem.polynomial(), problem.multiplicities, problem.initial,
            problem.settings, problem.truth())


TRUTH_SOURCES = ["example1", "example2", "example3", "wide"]


class TestTruthsOnce:
    """`solve` converts its true roots once; its entries take their errors
    on first read (`solver._entry`)."""

    @pytest.mark.parametrize("source", TRUTH_SOURCES)
    def test_a_solve_converts_its_true_roots_once(self, monkeypatch, source):
        poly, mults, initial, settings, truth = truth_case(source)
        calls = count_calls(monkeypatch, solver, "_truths")
        report = solve(poly, mults, initial, settings, true_roots=truth)
        assert len(calls) == 1
        assert report.termination == "converged"
        # at or below FLOOR every sweep of the solve is a `step`, which
        # converts them on each call
        trace, _ = step_loop(poly, mults, initial, settings, true_roots=truth)
        assert report.trace == tuple(trace)

    @pytest.mark.parametrize("source", TRUTH_SOURCES)
    def test_a_solve_takes_no_errors(self, monkeypatch, source):
        poly, mults, initial, settings, truth = truth_case(source)
        calls = count_calls(monkeypatch, solver, "_errors")
        report = solve(poly, mults, initial, settings, true_roots=truth)
        assert calls == []
        entry = report.trace[1]
        first = entry.errors
        assert len(calls) == 1
        assert entry.errors is first
        assert len(calls) == 1

    @pytest.mark.parametrize("prec", [53, 400])
    @pytest.mark.parametrize("source", ["example1", "example2", "example3"])
    def test_deferred_errors_are_the_eager_bits(self, source, prec):
        # on the ladder: each entry's errors at its own rung
        poly, mults, initial, settings, truth = truth_case(source, 1024)
        report = solve(poly, mults, initial, settings, true_roots=truth)
        truths = [to_mpf(r, 1024) for r in truth]
        eager = [[e._mpf_ for e in solver._errors(
            poly.family, entry.approximations, truths, entry.precision_bits)]
            for entry in report.trace]
        with mp.workprec(prec):
            lazy = [[e._mpf_ for e in entry.errors] for entry in report.trace]
        assert lazy == eager


def drawn_case(rng, family, m, bits):
    """Factored form of m seeded roots and starting points a tenth of the
    smallest gap off them, alternating sides."""
    cfg = random_configuration(rng, family, bits=bits, m_range=(m, m),
                               alpha_max=2 if m > 5 else 3,
                               gap_range=(0.35, 0.7))
    with mp.workprec(bits):
        nudge = gaps(cfg.roots)[0] / 10
        initial = [r + (-1) ** i * nudge for i, r in enumerate(cfg.roots)]
    return FactoredForm(family, cfg), cfg.multiplicities, initial


class TestPairMemo:
    """One sweep computes each pair's coupling term once: a factored sweep
    in its own dict of fixed-point terms, a coefficient form's through the
    dict of half-cotangents its coordinates share (`log_derivative_sum`'s
    `pairs`)."""

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_a_first_sweep_computes_each_pair_once(self, monkeypatch, family,
                                                   m):
        # the factored sweep needs m root terms per coordinate, and the
        # pairs' terms.  The algebraic family takes each from its
        # fixed-point entry.  A series family takes one basis per point:
        # each iterate's, each root's, and in sequential mode each moved
        # iterate's; the direct entry serves only the terms the bases do
        # not carry, and in simultaneous mode no pair's twice
        poly, mults, initial = drawn_case(random.Random(m), family, m, 128)
        calls = count_family_calls(monkeypatch, family)
        offsets = []
        real = polynomials.FAMILY[family].fixed_log_derivative  # counted

        def recorded(u, frac):
            offsets.append(u)
            return real(u, frac)

        monkeypatch.setitem(polynomials.FAMILY, family, replace(
            polynomials.FAMILY[family], fixed_log_derivative=recorded))
        for mode, pairs, moved in (("simultaneous", m * (m - 1) // 2, 0),
                                   ("sequential", m * (m - 1), m)):
            settings = SolveSettings(precision_bits=128, sweep_mode=mode)
            fresh = replace(poly)  # no root basis kept from the other mode
            state = initial_state(fresh, initial, settings)
            calls.clear()
            offsets.clear()
            entry = step(fresh, mults, state, settings)
            assert all(c > 0 for c in entry.corrections)  # none froze
            if family == ALGEBRAIC:
                assert "fixed_basis" not in calls
                assert calls["fixed_log_derivative"] == m * m + pairs, mode
                continue
            assert calls["fixed_basis"] == 2 * m + moved, mode
            assert calls["fixed_log_derivative"] < m * m + pairs, mode
            if mode == "simultaneous":
                assert not {-u for u in offsets} & set(offsets)

    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("bits", [128, 1024])
    def test_a_second_solve_makes_the_same_calls(self, monkeypatch, family,
                                                 bits):
        poly, mults, initial = drawn_case(random.Random(bits), family, 4, bits)
        calls = count_family_calls(monkeypatch, family)
        counts, reports = [], []
        for _ in range(2):
            calls.clear()
            reports.append(solve(poly, mults, initial,
                                 SolveSettings(precision_bits=bits)))
            counts.append(calls["fixed_log_derivative"])
        assert reports[0].termination == "converged"
        assert reports[1] == reports[0]
        assert counts[1] == counts[0] > 0

    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    def test_each_sweep_has_its_own_dict_at_one_precision(self, monkeypatch,
                                                          mode):
        # an entry is keyed by the difference alone: read in another sweep,
        # or at another rung, it would carry the bits of another precision
        sweeps, seen = [], []
        real_sweep, real_sum = solver._sweep, solver.log_derivative_sum

        def counted_sweep(*args):
            sweeps.append(args[3])  # the sweep's bits
            return real_sweep(*args)

        def recorded_sum(*args, pairs=None, poly=None):
            seen.append((len(sweeps) - 1, pairs, args[-1]))
            return real_sum(*args, pairs=pairs, poly=poly)

        monkeypatch.setattr(solver, "_sweep", counted_sweep)
        monkeypatch.setattr(solver, "log_derivative_sum", recorded_sum)
        # the coefficient form: the factored form's sweeps hold no dict of
        # mpf terms
        poly, mults, initial = drawn_case(random.Random(3), TRIGONOMETRIC, 4,
                                          1024)
        report = solve(expand_from_roots(poly), mults, initial,
                       SolveSettings(precision_bits=1024, sweep_mode=mode))
        assert report.termination == "converged"
        assert {entry.precision_bits for entry in report.trace} == {256, 1024}
        owner = {}  # `seen` holds every dict, so no id is reused
        for sweep, pairs, bits in seen:
            assert type(pairs) is dict and bits == sweeps[sweep]
            assert owner.setdefault(id(pairs), sweep) == sweep
        assert len(owner) == len({sweep for sweep, _, _ in seen}) > 1

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("form", ["factored", "coefficients"])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    def test_a_solve_has_the_bits_of_one_without_the_dict(
            self, monkeypatch, family, form, mode):
        rng = random.Random(f"{family}:{form}:{mode}")
        cases = []
        for m in range(2, 9):
            bits = (53, 128, 1024, 4096)[m % 4]
            poly, mults, initial = drawn_case(rng, family, m, bits)
            if form == "coefficients":
                poly = expand_from_roots(poly)
            cases.append((poly, mults, initial, SolveSettings(
                precision_bits=bits, max_iterations=8, sweep_mode=mode)))
        shared = [solve(*case) for case in cases]
        real = solver.log_derivative_sum
        monkeypatch.setattr(solver, "log_derivative_sum",
                            lambda *args, pairs=None, poly=None:
                            real(*args, poly=poly))
        assert [solve(*case) for case in cases] == shared


class TestSeriesCoupling:
    """A series coefficient form's sweep forms each coupling term from the
    basis pairs of the point memo (`log_derivative_sum`'s `poly`), and
    calls the family's half_cotangent only where they cancel."""

    @pytest.mark.parametrize("bits", [128, 1024])
    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    def test_one_basis_call_per_point_and_no_tangent(self, monkeypatch,
                                                     family, mode, bits):
        form, mults, initial = drawn_case(random.Random(bits), family, 4,
                                          bits)
        poly = expand_from_roots(form)
        calls = count_family_calls(monkeypatch, family)
        passes, _ = count_passes(monkeypatch)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        state = initial_state(poly, initial, settings)
        entry = step(poly, mults, state, settings)
        # the step took the incoming residuals; a simultaneous one leaves
        # the new entry's to this read
        entry.residuals
        assert all(c > 0 for c in entry.corrections)  # none froze
        points = set(state.approximations) | set(entry.approximations)
        assert len(points) == 2 * len(initial)
        assert calls == {"basis_pair": len(points)}
        assert len(passes) == len(points) and max(passes.values()) == 1

    @pytest.mark.parametrize("mode", ["simultaneous", "sequential"])
    def test_a_pair_near_a_half_period_calls_the_tangent_once(
            self, monkeypatch, mode):
        # x_1 - x_0 is 2**-14 past pi, where sin u cancels; in sequential
        # mode x_0's update of about 0.1 takes the next pair out of reach
        bits = 192
        with mp.workprec(bits):
            cfg = RootConfiguration(("0.3", mp.mpf("0.4") + mp.pi, "-1.2"),
                                    (1, 1, 2), precision_bits=bits)
            initial = (mp.mpf("0.4"), cfg.roots[1] + mp.mpf(2) ** -14,
                       mp.mpf("-1.25"))
        poly = expand_from_roots(FactoredForm(TRIGONOMETRIC, cfg))
        calls = count_family_calls(monkeypatch, TRIGONOMETRIC)
        settings = SolveSettings(precision_bits=bits, sweep_mode=mode)
        state = initial_state(poly, initial, settings)
        state.residuals  # the starts' basis calls, before the count
        calls.clear()
        entry = step(poly, cfg.multiplicities, state, settings)
        entry.residuals
        assert all(c > 0 for c in entry.corrections)
        assert calls == {"basis_pair": 3, "half_cotangent": 1}
        report = solve(poly, cfg.multiplicities, initial, settings,
                       true_roots=cfg.roots)
        assert report.termination == "converged"
        # an alpha-fold root in coefficient form is good to eps^(1/alpha)
        for error, alpha in zip(report.trace[-1].errors, cfg.multiplicities):
            assert error <= mp.mpf(2) ** ((32 - bits) / alpha)


class TestProperties:
    def test_fixed_point_at_exact_roots(self):
        bits = 53
        third = mp.mpf(1) / 3
        cfg = RootConfiguration((third, 2, 4), (2, 1, 1), precision_bits=bits)
        poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg))
        settings = SolveSettings(precision_bits=bits)
        state = initial_state(poly, cfg.roots, settings)
        advanced = step(poly, cfg.multiplicities, state, settings)
        for before, after in zip(cfg.roots, advanced.approximations):
            assert abs(after - before) <= mp.mpf(2) ** (-(bits - 10))

    def test_simple_root_reduction_100_states(self):
        # executable form of the simple-root collapse: the coupled step with
        # all multiplicities 1 equals the classical step to a few ulp
        rng = random.Random(1234)
        for _ in range(100):
            m = rng.randint(2, 5)
            roots = random_simple_roots(rng, m)
            cfg = RootConfiguration(roots, [1] * m)
            poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg))
            approx = [r + rng.uniform(-0.1, 0.1) for r in roots]
            settings = SolveSettings()
            state = initial_state(poly, approx, settings)
            ours = step(poly, [1] * m, state, settings).approximations
            theirs = classical_ehrlich_step(poly, approx)
            for a, b in zip(ours, theirs):
                assert ulps_apart(a, b, 53) <= 4

    def test_translation_equivariance(self):
        bits = 192
        settings = SolveSettings(precision_bits=bits)
        base_cfg = RootConfiguration(EX1["roots"], EX1["mults"],
                                     precision_bits=bits)
        base_poly = expand_from_roots(FactoredForm(ALGEBRAIC, base_cfg))
        base = solve(base_poly, EX1["mults"], EX1["initial"], settings)
        for t in (1, -3):
            cfg = RootConfiguration([r + t for r in base_cfg.roots],
                                    EX1["mults"], precision_bits=bits)
            poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg))
            shifted = solve(poly, EX1["mults"],
                            [mp.mpf(x) + t for x in map(mp.mpf, (0.4, 3.5, 8))],
                            settings)
            for k in range(5):
                for a, b in zip(base.trace[k].approximations,
                                shifted.trace[k].approximations):
                    assert abs(b - (a + t)) <= mp.mpf("1e-12")

    def test_permutation_equivariance_simultaneous(self):
        bits = 128
        poly = expanded(ALGEBRAIC, EX1, bits)
        settings = SolveSettings(precision_bits=bits, max_iterations=4)
        perm = (2, 0, 1)
        initial = [mp.mpf(v) for v in (0.4, 3.5, 8.0)]
        base = solve(poly, EX1["mults"], initial, settings)
        permuted = solve(poly,
                         [EX1["mults"][p] for p in perm],
                         [initial[p] for p in perm], settings)
        for eb, ep in zip(base.trace, permuted.trace):
            for slot, p in enumerate(perm):
                assert ep.approximations[slot] == eb.approximations[p]

    def test_cubic_order_on_the_three_examples(self):
        bits = 192
        cases = (
            (expanded(ALGEBRAIC, EX1, bits), EX1),
            (factored(TRIGONOMETRIC, EX2, bits), EX2),
            (factored(EXPONENTIAL, EX3, bits), EX3),
        )
        for poly, case in cases:
            report = solve(poly, case["mults"], case["initial"],
                           SolveSettings(precision_bits=bits),
                           true_roots=case["roots"])
            assert report.estimated_order is not None
            assert mp.mpf("2.6") <= report.estimated_order <= mp.mpf("3.4")


class TestOrderErrorSequence:
    @staticmethod
    def entry(k, corrections, errors, residuals=(1, 1)):
        return solver.TraceEntry(
            k, (0, 0), tuple(map(mp.mpf, residuals)),
            None if corrections is None else tuple(map(mp.mpf, corrections)),
            tuple(map(mp.mpf, errors)), 53)

    def test_each_coordinate_leaves_at_its_own_freeze(self):
        trace = [self.entry(0, None, ("1e-1", "1")),
                 self.entry(1, ("1e-1", "1"), ("1e-3", "1e-1")),
                 self.entry(2, ("0", "1e-1"), ("1e-3", "1e-3")),
                 self.entry(3, ("0", "1e-3"), ("1e-3", "1e-9")),
                 self.entry(4, ("0", "0"), ("1e-3", "1e-9"))]
        # coordinate 0 froze at k = 2, coordinate 1 at k = 4
        sequence, kind, cut = solver.order_error_sequence(trace)
        assert kind == "error"
        assert sequence[:cut] == [mp.mpf(e) for e in ("1", "1e-1")]
        assert sequence == [mp.mpf(e) for e in ("1", "1e-1", "1e-3", "1e-9")]

    def test_a_moving_coordinates_residual_is_never_read(self):
        # a factored form's residuals are taken on first read; only a
        # coordinate whose correction is 0 needs its own
        class Guarded:
            def __init__(self, corrections):
                self.corrections = corrections

            def __getitem__(self, i):
                if self.corrections[i] != 0:
                    pytest.fail(f"residual {i} read at a nonzero correction")
                return mp.mpf(1)

        trace = [self.entry(0, None, ("1e-1", "1")),
                 self.entry(1, ("1e-1", "1"), ("1e-3", "1e-1")),
                 self.entry(2, ("0", "1e-1"), ("1e-3", "1e-3")),
                 self.entry(3, ("0", "0"), ("1e-3", "1e-9"))]
        guarded = [trace[0]] + [replace(e, residuals=Guarded(e.corrections))
                                for e in trace[1:]]
        assert (solver.order_error_sequence(guarded)
                == solver.order_error_sequence(trace))

    def test_an_exact_zero_is_not_a_freeze(self):
        trace = [self.entry(0, None, ("1", "1")),
                 self.entry(1, ("0", "1e-2"), ("0", "1e-2"), residuals=(0, 1))]
        sequence, _, cut = solver.order_error_sequence(trace)
        assert sequence[:cut] == sequence == [1, mp.mpf("1e-2")]

    def test_without_the_truth_corrections_stand_in(self):
        trace = [self.entry(k, c, ("1", "1")) for k, c in enumerate(
            (None, ("1e-1", "1"), ("0", "1e-2"), ("0", "0")))]
        trace = [replace(e, errors=None) for e in trace]
        sequence, kind, cut = solver.order_error_sequence(trace)
        assert (sequence[:cut], kind) == ([1], "correction")
        assert sequence == [1, mp.mpf("1e-2")]

    @staticmethod
    def two_walks(trace, past_first_freeze=False):
        """The sequence as two walks of the trace once gave it: the first
        stopped at the first freeze, the second went on past it."""
        kind = "error" if trace[0].errors is not None else "correction"
        live = set(range(len(trace[0].approximations)))
        sequence = []
        for entry in trace:
            if entry.corrections is not None:
                frozen = {i for i, (c, r) in enumerate(
                    zip(entry.corrections, entry.residuals))
                    if c == 0 and r > 0}
                if frozen and not past_first_freeze:
                    break
                live -= frozen
            if not live:
                break
            if kind == "error":
                sequence.append(max(entry.errors[i] for i in live))
            elif entry.corrections is not None:
                sequence.append(max(entry.corrections[i] for i in live))
        return sequence, kind

    def test_one_walk_gives_both_sequences_of_seeded_solves(self):
        rng, froze = random.Random(20261019), 0
        for family in (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL):
            for _ in range(4):
                cfg = random_configuration(rng, family, bits=128)
                poly = expand_from_roots(FactoredForm(family, cfg))
                with mp.workprec(128):
                    initial = [r + mp.mpf("0.05") * (-1) ** i
                               for i, r in enumerate(cfg.roots)]
                report = solve(poly, cfg.multiplicities, initial,
                               SolveSettings(precision_bits=128),
                               true_roots=cfg.roots)
                froze += any(c == 0 and r > 0 for e in report.trace[1:-1]
                             for c, r in zip(e.corrections, e.residuals))
                for trace in (report.trace, [replace(e, errors=None)
                                             for e in report.trace]):
                    sequence, kind, cut = solver.order_error_sequence(trace)
                    assert self.two_walks(trace) == (sequence[:cut], kind)
                    assert self.two_walks(trace, True) == (sequence, kind)
        assert froze >= 6  # a freeze before the last sweep, in most solves


class TestOrderPrecision:
    def test_the_order_does_not_depend_on_the_callers_precision(self):
        problem = load_problem(
            resources.files("multiroots.problems") / "example1.json")
        args = (problem.poly, problem.multiplicities, problem.initial,
                problem.settings)
        report = solve(*args, true_roots=problem.truth())
        with mp.workprec(400):
            again = solve(*args, true_roots=problem.truth())
            # the report takes its order on this first read
            order = again.estimated_order
            estimate, kind = solver.trace_order(report.trace)
        assert again.trace == report.trace
        assert order == report.estimated_order
        assert estimate.order == report.estimated_order
        assert (estimate, kind) == solver.trace_order(report.trace)


class TestDerivedOrder:
    """A report's order is its trace's (`trace_order`), taken on its first
    read and kept: `solve` never estimates one."""

    @staticmethod
    def solves():
        """(label, solve arguments, true roots): the bundled examples and a
        factored form of 8 roots at 128 bits."""
        for name in ("example1", "example2", "example3"):
            problem = load_problem(
                resources.files("multiroots.problems") / f"{name}.json")
            yield name, (problem.poly, problem.multiplicities, problem.initial,
                         problem.settings), problem.truth()
        poly, mults, initial = drawn_case(random.Random(8), ALGEBRAIC, 8, 128)
        yield "factored m=8", (poly, mults, initial,
                               SolveSettings(precision_bits=128)), None

    def test_the_first_read_estimates_and_the_next_reuses(self, monkeypatch):
        calls = count_trace_orders(monkeypatch)
        for label, args, truth in self.solves():
            report = solve(*args, true_roots=truth)
            assert report.termination == "converged", label
            assert calls == [], label
            order = report.estimated_order
            assert calls == [report.trace], label
            assert report.estimated_order is order
            assert mp.mpf("2.6") <= order <= mp.mpf("3.4"), label
            calls.clear()

    def test_a_failed_solve_reads_none_without_an_estimate(self, monkeypatch):
        calls = count_trace_orders(monkeypatch)
        bits = 192
        report = solve(expanded(ALGEBRAIC, EX1, bits), EX1["mults"],
                       EX1["initial"],
                       SolveSettings(precision_bits=bits, max_iterations=2))
        assert report.termination == "max_iterations"
        assert report.estimated_order is None
        assert calls == []

    def test_a_solve_too_short_for_a_window_reads_none(self):
        poly = factored(ALGEBRAIC, EX1, 128)
        report = solve(poly, EX1["mults"], EX1["roots"])
        assert report.termination == "converged"
        assert report.iterations_used == 1
        assert report.estimated_order is None

    def test_equality_reads_only_the_two_fields(self):
        poly = factored(TRIGONOMETRIC, EX2, 128)
        report = solve(poly, EX2["mults"], EX2["initial"])
        again = replace(report)
        assert report.estimated_order is not None
        assert report == again and hash(report) == hash(again)
        assert "estimated_order" not in repr(report)
        assert again.estimated_order == report.estimated_order


class TestSimpleRootReductionResidual:
    def test_two_knots_forced_arithmetic(self):
        assert simple_root_reduction_residual((0, 1), 0) == 0

    def test_three_knots(self):
        res = simple_root_reduction_residual((1, 2, 5), 1)
        assert abs(res) <= mp.mpf("1e-12")

    def test_repeated_knots_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            simple_root_reduction_residual((1, 1, 2), 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="out of range"):
            simple_root_reduction_residual((1, 2), 2)

    def test_random_four_knot_configurations(self):
        rng = random.Random(99)
        for _ in range(20):
            roots = random_simple_roots(rng, 4)
            for i in range(4):
                res = simple_root_reduction_residual(roots, i)
                lds = log_derivative_sum(
                    ALGEBRAIC,
                    [r for j, r in enumerate(roots) if j != i],
                    [1] * 3,
                    roots[i],
                    53,
                )
                scale = max(abs(2 * lds), mp.mpf(1))
                assert abs(res) <= mp.mpf("1e-10") * scale
