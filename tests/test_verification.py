import pytest
from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    AlgebraicPoly,
    CollisionError,
    DegenerateDerivativeError,
    FactoredForm,
    InvalidConfigurationError,
    RootConfiguration,
    SolveSettings,
    classical_ehrlich_step,
    estimate_order,
    expand_from_roots,
    newton_with_multiplicity,
    verify_roots,
)
from multiroots.precision import ulps_apart
from conftest import random_configuration

EX1_ROOTS, EX1_MULTS = ("2", "3", "5"), (2, 3, 1)


def ex1_poly(bits=53):
    cfg = RootConfiguration(EX1_ROOTS, EX1_MULTS, precision_bits=bits)
    return expand_from_roots(FactoredForm(ALGEBRAIC, cfg, precision_bits=bits))


class TestNewtonWithMultiplicity:
    def test_pure_square_is_one_step(self):
        poly = AlgebraicPoly((-4, 4))  # (x - 2)^2
        trace = newton_with_multiplicity(poly, 2, 3, SolveSettings())
        assert trace.converged
        assert trace.approximations[-1] == 2
        assert len(trace.approximations) == 2

    def test_quadratic_order_with_matching_multiplicity(self):
        bits = 256
        poly = ex1_poly(bits)
        settings = SolveSettings(precision_bits=bits, max_iterations=40)
        trace = newton_with_multiplicity(poly, 2, "2.2", settings)
        errors = trace.errors_against(mp.mpf(2))
        floor = mp.mpf(2) ** (8 - bits) * 4
        order = estimate_order(errors, floor=floor).order
        assert mp.mpf("1.7") <= order <= mp.mpf("2.3")

    def test_linear_order_with_mismatched_multiplicity(self):
        bits = 256
        poly = ex1_poly(bits)
        settings = SolveSettings(precision_bits=bits, max_iterations=40)
        trace = newton_with_multiplicity(poly, 1, "2.2", settings)  # alpha lies
        errors = trace.errors_against(mp.mpf(2))
        floor = mp.mpf(2) ** (8 - bits) * 4
        order = estimate_order(errors, floor=floor).order
        assert mp.mpf("0.8") <= order <= mp.mpf("1.2")

    def test_stops_once_a_correction_is_within_the_tolerance(self):
        # x^2 - 2 from 1.5: f(x) never rounds to 0, so the tolerance stops it
        settings = SolveSettings()
        trace = newton_with_multiplicity(AlgebraicPoly((0, -2)), 1, "1.5",
                                         settings)
        assert trace.converged
        assert len(trace.corrections) == 5
        last, before = trace.corrections[-1], trace.corrections[-2]
        assert last <= settings.tolerance < before
        assert abs(last - mp.mpf("1.6e-16")) <= mp.mpf("1e-17")
        assert abs(trace.approximations[-1] - mp.sqrt(2)) <= mp.mpf("1e-15")

    def test_derivative_underflow_raises(self):
        poly = AlgebraicPoly((0, -1))  # x^2 - 1, f'(0) = 0
        with pytest.raises(DegenerateDerivativeError):
            newton_with_multiplicity(poly, 1, 0, SolveSettings())

    @pytest.mark.parametrize("multiplicity", [True, 2.5])
    def test_non_integer_multiplicity_rejected(self, multiplicity):
        # True would silently mean 1, and 2.5 is no multiplicity
        poly = AlgebraicPoly((-4, 4))
        with pytest.raises(InvalidConfigurationError):
            newton_with_multiplicity(poly, multiplicity, 3, SolveSettings())


class TestVerifyRoots:
    def test_exact_roots_pass(self):
        bits = 192
        poly = ex1_poly(bits)
        claimed = RootConfiguration(EX1_ROOTS, EX1_MULTS, precision_bits=bits)
        outcome = verify_roots(poly, claimed, "1e-18", bits=bits)
        assert outcome.passed
        assert all(r == 0 for r in outcome.residuals)

    def test_overclaimed_multiplicity_fails_on_inverted_zero_check(self):
        poly = ex1_poly(192)
        claimed = RootConfiguration(EX1_ROOTS, (3, 3, 1), precision_bits=192)
        outcome = verify_roots(poly, claimed, "1e-18", bits=192)
        assert not outcome.passed
        bad = [rec for rec in outcome.details if not rec.passed]
        # f''(2) = 6 violates the j = 2 zero requirement of the alpha=3 claim
        assert any(rec.root_index == 0 and rec.derivative_order == 2
                   and rec.want_zero for rec in bad)

    def test_perturbed_root_fails_on_residual(self):
        bits = 192
        poly = ex1_poly(bits)
        with mp.workprec(bits):
            roots = (mp.mpf(2) + mp.mpf("1e-6"), mp.mpf(3), mp.mpf(5))
        claimed = RootConfiguration(roots, EX1_MULTS, precision_bits=bits)
        outcome = verify_roots(poly, claimed, "1e-18", bits=bits)
        assert not outcome.passed
        bad = [rec for rec in outcome.details if not rec.passed]
        assert any(rec.root_index == 0 and rec.derivative_order == 0
                   for rec in bad)

    def test_undercount_detected_by_exactness_check(self):
        # claiming a simple root where the polynomial has a double one
        bits = 128
        cfg = RootConfiguration((2, 5), (2, 1), precision_bits=bits)
        poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg, precision_bits=bits))
        claimed = RootConfiguration((2, 5), (1, 1), precision_bits=bits)
        outcome = verify_roots(poly, claimed, "1e-10", bits=bits)
        assert not outcome.passed
        bad = [rec for rec in outcome.details if not rec.passed]
        assert any(rec.root_index == 0 and not rec.want_zero for rec in bad)

    def test_random_roundtrip_configurations(self, rng):
        # verify(expand(C), C) passes across the random corpus
        bits = 128
        for family in (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL):
            for _ in range(5):
                cfg = random_configuration(rng, family, bits=bits)
                poly = expand_from_roots(
                    FactoredForm(family, cfg, precision_bits=bits))
                outcome = verify_roots(poly, cfg, "1e-10", bits=bits)
                assert outcome.passed, str(outcome)

    @pytest.mark.parametrize("scale", ["1", "2", "-2.5", "0.75"])
    @pytest.mark.parametrize("family, roots, mults", [
        (ALGEBRAIC, ("1", "3"), (2, 1)),
        (TRIGONOMETRIC, ("1", "2", "2.5"), (3, 2, 1)),
        (EXPONENTIAL, ("-2", "3"), (2, 2))],
        ids=[ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_factored_forms_verify_at_any_scale(self, family, roots, mults,
                                                scale):
        # the factored form is expanded inside the oracle; an algebraic
        # expansion is monic and takes the scale on its coefficients
        bits = 192
        cfg = RootConfiguration(roots, mults, precision_bits=bits)
        poly = FactoredForm(family, cfg, scale=scale, precision_bits=bits)
        assert verify_roots(poly, cfg, "1e-30", bits=bits).passed
        wrong = RootConfiguration(roots, (mults[0] + 1,) + mults[1:],
                                  precision_bits=bits)
        outcome = verify_roots(poly, wrong, "1e-30", bits=bits)
        assert not outcome.passed
        assert any(rec.root_index == 0 and not rec.passed
                   for rec in outcome.details)

    @pytest.mark.parametrize("tolerance", [
        "nan", "inf", "-inf", float("nan"), float("inf"), float("-inf")],
        ids=repr)
    def test_a_tolerance_that_is_not_finite_is_rejected(self, tolerance):
        # nan fails every check, +inf every exactness check, and -inf is
        # below 0, so none of them could pass a correct claim
        bits = 64
        cfg = RootConfiguration(("1", "2"), (1, 2), precision_bits=bits)
        poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg))
        assert verify_roots(poly, cfg, "1e-10", bits=bits).passed
        with pytest.raises(InvalidConfigurationError, match="finite"):
            verify_roots(poly, cfg, tolerance, bits=bits)


class TestClassicalEhrlichStep:
    def test_single_approximation_is_newton(self):
        poly = AlgebraicPoly((0, -1))  # x^2 - 1
        (got,) = classical_ehrlich_step(poly, (3,))
        assert got == 3 - mp.mpf(8) / 6

    def test_exact_roots_unmoved(self):
        poly = AlgebraicPoly((0, -1))
        assert classical_ehrlich_step(poly, (1, -1)) == (1, -1)

    def test_agrees_with_coupled_step_on_simple_roots(self):
        from multiroots import initial_state, step

        poly = AlgebraicPoly((0, -1))
        settings = SolveSettings()
        state = initial_state(poly, ("0.9", "-1.2"), settings)
        ours = step(poly, (1, 1), state, settings).approximations
        theirs = classical_ehrlich_step(poly, ("0.9", "-1.2"))
        for a, b in zip(ours, theirs):
            assert ulps_apart(a, b, 53) <= 4

    def test_sequential_mode_uses_updated_values(self):
        poly = AlgebraicPoly((0, -1))
        sim = classical_ehrlich_step(poly, ("0.9", "-1.2"), mode="simultaneous")
        seq = classical_ehrlich_step(poly, ("0.9", "-1.2"), mode="sequential")
        assert sim[0] == seq[0]
        assert sim[1] != seq[1]

    def test_close_approximations_raise_a_collision_naming_both(self):
        points = (mp.mpf(1), mp.mpf(1) + mp.mpf(2) ** -40)
        with pytest.raises(CollisionError) as err:
            classical_ehrlich_step(AlgebraicPoly((-3, 2)), points)
        assert (err.value.i, err.value.j) == (1, 0)
        assert "approximations 1 and 0" in str(err.value)

    def test_unknown_mode_rejected(self):
        # anything but "sequential" would otherwise run the Jacobi sweep
        poly = AlgebraicPoly((0, -1))
        with pytest.raises(InvalidConfigurationError):
            classical_ehrlich_step(poly, ("0.9", "-1.2"), mode="bogus")


class TestBaselineSeparation:
    def test_coupling_buys_at_least_0p7_orders_on_repeated_roots(self):
        from multiroots import solve

        bits = 256
        poly = ex1_poly(bits)
        settings = SolveSettings(precision_bits=bits)
        coupled = solve(poly, EX1_MULTS, ("0.4", "3.5", "8"), settings,
                        true_roots=EX1_ROOTS)
        baseline = newton_with_multiplicity(
            poly, 2, "2.2", SolveSettings(precision_bits=bits, max_iterations=40))
        floor = mp.mpf(2) ** (8 - bits) * 4
        base_order = estimate_order(baseline.errors_against(mp.mpf(2)),
                                    floor=floor).order
        assert coupled.estimated_order - base_order >= mp.mpf("0.7")
