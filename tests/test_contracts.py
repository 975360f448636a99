"""Constructor and settings contracts that the numeric tests lean on."""

import re

import pytest
from mpmath import mp

from multiroots import (
    AlgebraicPoly,
    ExpPoly,
    FactoredForm,
    InvalidConfigurationError,
    RootConfiguration,
    SolveSettings,
    TrigPoly,
    expand_from_roots,
    solve,
)
from multiroots.polynomials import gaps
from multiroots.precision import require_bits


class TestTypeValidation:
    def test_precision_floor(self):
        with pytest.raises(ValueError):
            require_bits(52)
        with pytest.raises(ValueError):
            AlgebraicPoly((1,), precision_bits=32)

    def test_empty_algebraic_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            AlgebraicPoly(())

    def test_trig_leading_coefficients_not_both_zero(self):
        with pytest.raises(InvalidConfigurationError):
            TrigPoly(1, (1, 0), (0, 0))
        TrigPoly(1, (1, 0), (0, 2))  # fine: b_2 != 0

    def test_exp_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ExpPoly(0, (1, 2), (1,))

    def test_root_configuration_validation(self):
        with pytest.raises(InvalidConfigurationError):
            RootConfiguration((1, 1), (1, 1))  # coincident roots
        with pytest.raises(InvalidConfigurationError):
            RootConfiguration((1, 2), (1, 0))  # zero multiplicity
        with pytest.raises(InvalidConfigurationError):
            RootConfiguration((1, 2), (1,))    # length mismatch
        cfg = RootConfiguration((1, 2, 4), (2, 1, 1))
        assert cfg.total_multiplicity == 4
        assert gaps(cfg.roots) == (1, 3)

    @pytest.mark.parametrize("alpha", [2.5, True, "2"])
    def test_root_configuration_multiplicity_must_be_an_int(self, alpha):
        # once silently truncated to 2, 1 and 2
        with pytest.raises(InvalidConfigurationError):
            RootConfiguration((1, 2), (1, alpha))

    @pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, "nan", "-inf"])
    def test_a_non_finite_algebraic_coefficient_is_named(self, bad):
        with pytest.raises(InvalidConfigurationError,
                           match=r"coefficient coeffs\[1\] is not finite"):
            AlgebraicPoly((1, bad, 3))

    @pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, "nan"])
    @pytest.mark.parametrize("series", [TrigPoly, ExpPoly])
    @pytest.mark.parametrize("name", ["a0", "even[1]", "odd[0]"])
    def test_a_non_finite_series_coefficient_is_named(self, series, name,
                                                      bad):
        values = {"a0": 1, "even[0]": 2, "even[1]": 3, "odd[0]": 4,
                  "odd[1]": 5}
        values[name] = bad
        message = re.escape(f"coefficient {name} is not finite")
        with pytest.raises(InvalidConfigurationError, match=message):
            series(values["a0"], (values["even[0]"], values["even[1]"]),
                   (values["odd[0]"], values["odd[1]"]))

    def test_factored_form_zero_scale_rejected(self):
        cfg = RootConfiguration((1, 2), (1, 1))
        with pytest.raises(InvalidConfigurationError):
            FactoredForm("algebraic", cfg, scale=0)
        with pytest.raises(InvalidConfigurationError):
            FactoredForm("polynomial", cfg)


class TestSolveSettings:
    def test_defaults(self):
        s = SolveSettings()
        assert s.precision_bits == 53
        assert s.max_iterations == 50
        assert s.sweep_mode == "simultaneous"
        assert s.tolerance == mp.mpf(2) ** -45

    def test_explicit_tolerance_parsed_at_precision(self):
        s = SolveSettings(precision_bits=192, correction_tolerance="1e-40")
        with mp.workprec(192):
            assert s.tolerance == mp.mpf("1e-40")

    def test_rejections(self):
        with pytest.raises(InvalidConfigurationError):
            SolveSettings(max_iterations=0)
        with pytest.raises(InvalidConfigurationError):
            SolveSettings(sweep_mode="chaotic")
        # an infinite tolerance once ended a solve `converged` after one
        # sweep, and a nan one ran every sweep to `max_iterations`
        for tol in (0, "nan", "inf", float("nan"), float("inf")):
            with pytest.raises(InvalidConfigurationError):
                SolveSettings(precision_bits=64, correction_tolerance=tol)

    @pytest.mark.parametrize("count", [2.5, True, "3"])
    def test_max_iterations_must_be_an_int(self, count):
        with pytest.raises(InvalidConfigurationError):
            SolveSettings(max_iterations=count)


class TestInitialApproximations:
    @pytest.mark.parametrize("start", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("representation", ["roots", "coefficients"])
    def test_a_start_that_is_not_finite_is_rejected(self, representation,
                                                    start):
        # once a FamilyOverflowError out of the k = 0 residuals
        poly = FactoredForm("algebraic", RootConfiguration(("1", "2"), (1, 1)))
        if representation == "coefficients":
            poly = expand_from_roots(poly)
        with pytest.raises(InvalidConfigurationError,
                           match="initial approximation 0 is not finite"):
            solve(poly, (1, 1), (start, "2.1"))


class TestTerminationEdges:
    def test_error_before_any_step_is_raised(self):
        # a non-finite coefficient fails where the polynomial is built, so
        # no solve starts on it, and with finite coefficients f is finite
        with pytest.raises(InvalidConfigurationError,
                           match=r"coefficient coeffs\[0\] is not finite"):
            AlgebraicPoly((mp.nan, 1))

    def test_a_kernel_error_during_iteration_escapes_the_solve(self,
                                                               monkeypatch):
        # no sweep on finite points meets a non-finite value, so a
        # FamilyOverflowError out of a sweep is no termination of the
        # solve's: it propagates
        import multiroots.solver as solver_mod
        from multiroots import FamilyOverflowError

        poly = AlgebraicPoly((0, -1))
        real_eval = solver_mod.evaluate
        calls = {"n": 0}

        def flaky(p, x, bits=None):
            calls["n"] += 1
            if calls["n"] >= 2:  # from the first sweep's second evaluation on
                raise FamilyOverflowError(p.family, x)
            return real_eval(p, x, bits)

        monkeypatch.setattr(solver_mod, "evaluate", flaky)
        with pytest.raises(FamilyOverflowError):
            solve(poly, (1, 1), ("0.9", "-1.2"))
        assert calls["n"] == 2

    def test_escaping_the_bounding_radius_becomes_diverged(self, monkeypatch):
        import multiroots.solver as solver_mod
        from multiroots import evaluate, evaluate_derivative

        # a coupling within 1e-9 of f'/f leaves a denominator of 1e-9 f':
        # not degenerate, but the correction throws x far past 10**6
        def near_pole(family, others, mults, x, bits, pairs=None, poly=None):
            ratio = evaluate_derivative(poly, x, bits) / evaluate(poly, x, bits)
            return ratio * (1 - mp.mpf("1e-9"))

        poly = AlgebraicPoly((0, -1))
        monkeypatch.setattr(solver_mod, "log_derivative_sum", near_pole)
        report = solve(poly, (1, 1), ("0.9", "-1.2"))
        assert report.termination == "diverged"
        assert len(report.trace) == 2
        assert max(abs(x) for x in report.trace[-1].approximations) > 10 ** 6

    def test_sequential_sweep_solves_the_sextic(self):
        from multiroots import expand_from_roots

        bits = 192
        cfg = RootConfiguration(("2", "3", "5"), (2, 3, 1), precision_bits=bits)
        poly = expand_from_roots(FactoredForm("algebraic", cfg))
        report = solve(poly, (2, 3, 1), ("0.4", "3.5", "8"),
                       SolveSettings(precision_bits=bits,
                                     sweep_mode="sequential"),
                       true_roots=cfg.roots)
        assert report.termination == "converged"
        assert max(report.trace[4].errors) <= mp.mpf("1e-18")
