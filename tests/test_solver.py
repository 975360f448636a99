import random

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
    evaluation_noise,
    expand_from_roots,
    initial_state,
    simple_root_reduction_residual,
    log_derivative_sum,
    solve,
    step,
)
from multiroots import solver
from multiroots.precision import ulps_apart
from conftest import random_simple_roots

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


class TestSolve:
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

    def test_length_mismatch_rejected(self):
        poly = AlgebraicPoly((0, -1))
        with pytest.raises(InvalidConfigurationError):
            solve(poly, (1, 1), (0.5,))

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
        # a factored bound is a fraction of |f| and can never freeze f != 0
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluation_noise(*args)

        monkeypatch.setattr(solver, "evaluation_noise", counted)
        bits = 192
        for poly, want in ((factored(ALGEBRAIC, EX1, bits), False),
                           (expanded(ALGEBRAIC, EX1, bits), True)):
            calls.clear()
            report = solve(poly, EX1["mults"], EX1["initial"],
                           SolveSettings(precision_bits=bits))
            assert report.termination == "converged"
            assert bool(calls) == want

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


class TestSimpleRootReductionResidual:
    def test_two_knots_forced_arithmetic(self):
        assert simple_root_reduction_residual((0, 1), 0) == 0

    def test_three_knots(self):
        res = simple_root_reduction_residual((1, 2, 5), 1)
        assert abs(res) <= mp.mpf("1e-12")

    def test_repeated_knots_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            simple_root_reduction_residual((1, 1, 2), 0)

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
