import random
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
from multiroots.report_io import load_problem
from multiroots.verification import (CheckRecord, VerificationOutcome,
                                     _leading_scale,
                                     _predicted_alpha_derivative)
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


# the term-by-term reference: one call of each basis function per term,
# derivative order and point
REF_PAIR = {TRIGONOMETRIC: (mp.cos, mp.sin, -1),
            EXPONENTIAL: (mp.cosh, mp.sinh, 1)}


def ref_ladder(poly, up_to):
    """(value, scale) functions of x for f, f', ..., f^(up_to)."""
    lead = 1
    if isinstance(poly, FactoredForm):
        if poly.family == ALGEBRAIC:
            lead, poly = poly.scale, replace(poly, scale=1)
        poly = expand_from_roots(poly)
    ladder = []
    if poly.family == ALGEBRAIC:
        coeffs = [lead * c for c in (mp.mpf(1),) + poly.coeffs]
        for _ in range(up_to + 1):
            ladder.append((
                lambda x, cs=coeffs: mp.polyval(cs, x),
                lambda x, cs=coeffs: mp.polyval([abs(c) for c in cs], abs(x))))
            n = len(coeffs) - 1
            coeffs = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
        return ladder
    even, odd, sign = REF_PAIR[poly.family]

    def value(x, a0, a, b):
        terms = [a0 / 2]
        for l in range(1, len(a) + 1):
            terms += [a[l - 1] * even(l * x), b[l - 1] * odd(l * x)]
        return mp.fsum(terms)

    def scale(x, a0, a, b):
        terms = [abs(a0) / 2]
        for l in range(1, len(a) + 1):
            term = abs(a[l - 1]) + abs(b[l - 1])
            terms.append(term * even(l * x) if sign > 0 else term)
        return mp.fsum(terms)

    a0, a, b = poly.a0, list(poly.even), list(poly.odd)
    for _ in range(up_to + 1):
        ladder.append((lambda x, t=(a0, a, b): value(x, *t),
                       lambda x, t=(a0, a, b): scale(x, *t)))
        a0, a, b = (mp.mpf(0), [l * v for l, v in enumerate(b, 1)],
                    [sign * l * v for l, v in enumerate(a, 1)])
    return ladder


def ref_verify(poly, claimed, tolerance, bits):
    """`verify_roots` on the reference ladder: each check evaluates its
    derivative order at the root afresh."""
    with mp.workprec(bits):
        tolerance = mp.mpf(tolerance)
        ladder = ref_ladder(poly, max(claimed.multiplicities))
        lead = _leading_scale(poly, claimed, ladder[0][0])
        details = []
        for i, (r, a) in enumerate(zip(claimed.roots, claimed.multiplicities)):
            for j in range(a + 1):
                value_fn, scale_fn = ladder[j]
                value = abs(value_fn(r))
                if j < a:
                    bound = tolerance * max(scale_fn(r), mp.mpf(1))
                    passed = value <= bound
                else:
                    bound = tolerance * _predicted_alpha_derivative(
                        poly.family, claimed, i, lead)
                    passed = value > bound
                details.append(CheckRecord(i, j, value, bound, j < a, passed))
        return VerificationOutcome(
            tuple(rec.value for rec in details if rec.derivative_order == 0),
            all(rec.passed for rec in details), tuple(details))


def assert_same_outcome(poly, claimed, tolerance, bits):
    got = verify_roots(poly, claimed, tolerance, bits=bits)
    want = ref_verify(poly, claimed, tolerance, bits)
    assert str(got) == str(want)
    assert got.passed == want.passed
    assert [r._mpf_ for r in got.residuals] == \
        [r._mpf_ for r in want.residuals]
    for g, w in zip(got.details, want.details, strict=True):
        assert (g.root_index, g.derivative_order, g.want_zero, g.passed) == \
            (w.root_index, w.derivative_order, w.want_zero, w.passed)
        assert (g.value._mpf_, g.bound._mpf_) == (w.value._mpf_, w.bound._mpf_)


class TestVerifyRootsReference:
    """verify_roots shares one basis per point among its derivative orders
    and one periodic scale per order; every record keeps the bits of the
    term-by-term evaluation."""

    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_bundled_examples(self, name, bits):
        problem = load_problem(
            resources.files("multiroots.problems") / f"{name}.json", bits)
        claimed = RootConfiguration(problem.truth(), problem.multiplicities,
                                    precision_bits=bits)
        assert_same_outcome(problem.poly, claimed, "1e-18", bits)

    @pytest.mark.parametrize("bits", [192, 1024])
    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    def test_random_series_problems(self, family, bits):
        rng = random.Random(bits + len(family))
        for k in range(8):
            cfg = random_configuration(rng, family, bits=bits)
            form = FactoredForm(family, cfg, precision_bits=bits)
            poly = expand_from_roots(form) if k % 4 else form
            roots, mults = list(cfg.roots), list(cfg.multiplicities)
            # the exact claim, a moved root, and a multiplicity too many
            if k % 3 == 1:
                with mp.workprec(bits):
                    roots[k % len(roots)] += mp.mpf("1e-12")
            elif k % 3 == 2:
                mults[0] += 1
                mults[-1] += 1
            claimed = RootConfiguration(roots, mults, precision_bits=bits)
            assert_same_outcome(poly, claimed, mp.mpf(2) ** (40 - bits), bits)


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
