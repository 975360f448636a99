import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from mpmath import mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpf_cos_sin, mpf_exp,
                          mpf_ln2, mpf_neg, mpf_pi, to_fixed)
from mpmath.libmp.libelefun import (cos_sin_fixed, exp_fixed, ln2_fixed,
                                    pi_fixed)

from multiroots import polynomials
from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    AlgebraicPoly,
    CollisionError,
    ExpPoly,
    FactoredForm,
    FamilyOverflowError,
    InvalidConfigurationError,
    RootConfiguration,
    SeriesPoly,
    TrigPoly,
    evaluate,
    evaluate_derivative,
    evaluation_noise,
    expand_from_roots,
    log_derivative_sum,
    magnitude_scale,
)
from multiroots.precision import to_mpf
from multiroots.polynomials import root_offset
from conftest import (assert_close, count_calls, count_family_calls,
                      count_passes, count_stages, random_configuration)
from test_campaign import TIER1_DRAWS, draw as campaign_draw

# independently computed with the factored product at 256 bits
T3_AT_0P2 = "0.03307453734398724732237873591725980805875002968812298335351705923076569"
E2_AT_0P7 = "6.533705295059523862838456301556128947030223439858272241371154964797447"

EX1_CONFIG = (("2", "3", "5"), (2, 3, 1))
EX2_CONFIG = (("1", "2", "2.5"), (3, 2, 1))
EX3_CONFIG = (("-2", "3"), (2, 2))


def ex_factored(family, config, bits):
    roots, mults = config
    cfg = RootConfiguration(roots, mults, precision_bits=bits)
    return FactoredForm(family, cfg, precision_bits=bits)


class TestEvaluate:
    def test_pure_square(self):
        poly = AlgebraicPoly((0, 0))
        assert evaluate(poly, 3) == 9

    def test_factored_root_annihilates(self):
        form = ex_factored(ALGEBRAIC, EX1_CONFIG, 53)
        assert evaluate(form, 2) == 0

    def test_factored_trig_matches_product_oracle(self):
        form = ex_factored(TRIGONOMETRIC, EX2_CONFIG, 256)
        got = evaluate(form, "0.2")
        assert_close(got, mp.mpf(T3_AT_0P2), rel=mp.mpf("1e-65"))

    def test_factored_exp_matches_product_oracle(self):
        form = ex_factored(EXPONENTIAL, EX3_CONFIG, 256)
        got = evaluate(form, "0.7")
        assert_close(got, mp.mpf(E2_AT_0P7), rel=mp.mpf("1e-65"))

    def test_trig_coefficient_form(self):
        # cos x alone: a0 = 0, a_1 = 1, b_1 = 0
        poly = TrigPoly(0, (1,), (0,))
        assert_close(evaluate(poly, 0), 1, rel=mp.mpf("1e-15"))
        assert_close(evaluate(poly, "1.1"), mp.cos(mp.mpf("1.1")),
                     rel=mp.mpf("1e-15"))

    def test_overflow_error_names_family(self):
        poly = ExpPoly(1, (1,), (0,))
        with pytest.raises(FamilyOverflowError) as err:
            evaluate(poly, mp.inf)
        assert err.value.family == EXPONENTIAL

    @pytest.mark.parametrize("x", [mp.nan, mp.inf, -mp.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("poly", [
        AlgebraicPoly((-3, 2)), TrigPoly(1, (1,), (2,)),
        ExpPoly(1, (1,), (2,)), ex_factored(EXPONENTIAL, EX3_CONFIG, 53)],
        ids=lambda poly: type(poly).__name__)
    @pytest.mark.parametrize("kernel", [
        evaluate, evaluate_derivative, magnitude_scale, evaluation_noise],
        ids=lambda kernel: kernel.__name__)
    def test_every_kernel_refuses_a_non_finite_point(self, kernel, poly, x):
        # magnitude_scale and evaluation_noise once gave +inf at +inf
        with pytest.raises(FamilyOverflowError) as err:
            kernel(poly, x)
        assert err.value.family == poly.family
        assert not poly._memo


@pytest.mark.parametrize("not_a_poly", [
    RootConfiguration(("1", "2"), (1, 1)), ("1", "2"), None])
@pytest.mark.parametrize("kernel", [
    evaluate, evaluate_derivative, magnitude_scale, evaluation_noise])
def test_kernels_reject_a_non_polynomial(kernel, not_a_poly):
    with pytest.raises(TypeError, match="not a polynomial representation"):
        kernel(not_a_poly, "0.5", 64)


@pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
@pytest.mark.parametrize("representation", ["coefficients", "roots"])
def test_a_kernel_at_a_rung_reads_the_values_rounded_to_it(family,
                                                           representation):
    # a kernel asked for fewer bits than the polynomial holds gives the bits
    # of the copy built at those bits, which rounds every stored coefficient
    # and the scale; one third keeps every mantissa full at 1024 bits
    bits, rung = 1024, 256
    with mp.workprec(bits):
        third = mp.mpf(1) / 3
        cfg = RootConfiguration((third, 2, "2.5"), (3, 2, 1),
                                precision_bits=bits)
    if representation == "coefficients":
        poly = expand_from_roots(FactoredForm(family, cfg))
    else:
        poly = FactoredForm(family, cfg, scale=third)
    rounded = replace(poly, precision_bits=rung)
    for x in ("0.3", "1.7", third + mp.mpf(2) ** -40, "3.1"):
        for kernel in (evaluate, evaluate_derivative, magnitude_scale,
                       evaluation_noise):
            assert kernel(poly, x, rung)._mpf_ == \
                kernel(rounded, x, rung)._mpf_, (kernel.__name__, x)


class TestSeriesBasis:
    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    def test_each_series_kernel_makes_one_basis_call(self, monkeypatch,
                                                     family):
        calls = count_family_calls(monkeypatch, family)
        cls = TrigPoly if family == TRIGONOMETRIC else ExpPoly
        poly = cls("0.5", [k / 3 for k in range(1, 9)],
                   [1 - k / 5 for k in range(1, 9)], precision_bits=128)
        kernels = (evaluate, evaluate_derivative, magnitude_scale,
                   evaluation_noise)
        # one pass computes f, f' and the magnitude together, so each
        # kernel on a fresh instance makes the point's one basis call
        for kernel in kernels:
            calls.clear()
            kernel(replace(poly), "0.3")
            assert calls["basis_pair"] == 1, kernel.__name__
        # one instance computes the basis once per point and precision
        calls.clear()
        for kernel in kernels:
            kernel(poly, "0.3")
        assert calls["basis_pair"] == 1
        for x, bits in (("0.7", None), ("0.3", 192)):
            calls.clear()
            for kernel in kernels:
                kernel(poly, x, bits)
            assert calls["basis_pair"] == 1, (x, bits)

    @pytest.mark.parametrize("build", ["algebraic", "series", "factored"])
    def test_the_point_memo_keeps_its_limit_first_in_first_out(
            self, monkeypatch, build):
        # the limit is twice the root count: 2n for an algebraic polynomial
        # of degree n, 2 * 2n for a series of degree n, twice the distinct
        # roots of a factored form
        calls, _ = count_passes(monkeypatch)
        if build == "algebraic":  # degree 4
            poly, limit = AlgebraicPoly((1, -2, 3, -4)), 8
        elif build == "series":  # degree 3
            poly, limit = ExpPoly("0.5", [1, 2, 3], [3, 2, 1]), 12
        else:  # three distinct roots
            poly = FactoredForm(EXPONENTIAL, RootConfiguration(
                ["-1", "0.5", "2"], [1, 2, 3], precision_bits=128))
            limit = 6
        points = [k / 7 for k in range(10 * limit)]
        for x in points:
            evaluate(poly, x)
        assert len(poly._memo) == limit
        # the last `limit` points are kept, the earlier ones are gone
        calls.clear()
        for x in points[-limit:]:
            evaluate_derivative(poly, x)
            evaluation_noise(poly, x)
        assert not calls
        evaluate_derivative(poly, points[-limit - 1])
        assert sum(calls.values()) == 1
        assert len(poly._memo) == limit

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC,
                                        EXPONENTIAL])
    @pytest.mark.parametrize("representation", ["coefficients", "roots"])
    def test_evaluate_runs_the_value_stage_alone(self, monkeypatch, family,
                                                 representation):
        # f' and the magnitude are later stages: each runs once, on the
        # first kernel that reads it, from what the value stage kept, with
        # no second basis_pair or factor_pair call
        poly = ex_factored(family, EX1_CONFIG if family == ALGEBRAIC
                           else EX2_CONFIG, 192)
        if representation == "coefficients":
            poly = expand_from_roots(poly)
        stages = count_stages(monkeypatch)
        calls = count_family_calls(monkeypatch, family)

        def ran():
            return Counter(name for name, *_ in stages.elements())

        for x in ("0.3", "1.7"):
            stages.clear()
            evaluate(poly, x)
            evaluate(poly, x)
            assert ran() == {"_pass": 1}
            first = sum(calls.values())
            for kernel, stage in (
                    (evaluate_derivative, "_slope"),
                    (evaluation_noise, "_magnitude"),
                    (magnitude_scale, None), (evaluate_derivative, None),
                    (evaluate, None)):
                before = ran()
                kernel(poly, x)
                assert ran() - before == ({stage: 1} if stage else {})
            assert sum(calls.values()) == first
            assert ran() == {"_pass": 1, "_slope": 1, "_magnitude": 1}

    @pytest.mark.parametrize("bits", [53, 4096])
    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    def test_zero_gives_exact_one_and_zero(self, family, bits):
        basis = polynomials._series_basis(family, fzero, 16, bits)
        assert basis == [(fone, fzero)] * 16


class TestEvaluateDerivative:
    def test_pure_square(self):
        assert evaluate_derivative(AlgebraicPoly((0, 0)), 3) == 6

    def test_pure_cos_at_zero(self):
        assert evaluate_derivative(TrigPoly(0, (1,), (0,)), 0) == 0

    def test_trig_factored_against_central_difference(self):
        bits = 192
        form = ex_factored(TRIGONOMETRIC, EX2_CONFIG, bits)
        with mp.workprec(bits):
            x = mp.mpf("1.7")
            h = mp.mpf(2) ** (-bits // 3)
            oracle = (evaluate(form, x + h) - evaluate(form, x - h)) / (2 * h)
        got = evaluate_derivative(form, x)
        assert_close(got, oracle, rel=mp.mpf("1e-10"))

    def test_factored_form_calls_each_factor_once(self, monkeypatch):
        # O(m) per point: one factor_pair call per root, shared by the
        # value, the derivative and the magnitude, and no other factor call
        calls = count_family_calls(monkeypatch, EXPONENTIAL)
        m = 12
        cfg = RootConfiguration([k / 4 for k in range(m)], [1, 2, 3] * 4,
                                precision_bits=128)
        form = FactoredForm(EXPONENTIAL, cfg)
        for kernel in (evaluate, evaluate_derivative, magnitude_scale):
            kernel(form, "0.3")
        assert calls == {"factor_pair": m}

    def test_coefficient_forms_against_central_difference(self, rng):
        # away from roots, 53-bit analytic derivatives match finite differences
        for family, config in ((ALGEBRAIC, EX1_CONFIG),
                               (TRIGONOMETRIC, EX2_CONFIG),
                               (EXPONENTIAL, EX3_CONFIG)):
            poly = expand_from_roots(ex_factored(family, config, 53))
            checked = 0
            while checked < 6:
                x = mp.mpf(rng.uniform(-3.0, 3.0))
                if abs(evaluate(poly, x)) <= mp.mpf("1e-3"):
                    continue
                h = mp.mpf(2) ** -18
                oracle = (evaluate(poly, x + h) - evaluate(poly, x - h)) / (2 * h)
                scale = max(abs(oracle), abs(evaluate(poly, x)))
                assert abs(evaluate_derivative(poly, x) - oracle) <= \
                    mp.mpf("1e-6") * scale
                checked += 1


FAMILY_CONFIGS = ((ALGEBRAIC, EX1_CONFIG), (TRIGONOMETRIC, EX2_CONFIG),
                  (EXPONENTIAL, EX3_CONFIG))
POINT_KERNELS = (evaluate, evaluate_derivative, magnitude_scale,
                 evaluation_noise)


class TestRootLookup:
    """A factored form's value stage at one of its stored roots is a lookup:
    the product holds an exact zero factor, so f is 0 without a factor."""

    @pytest.mark.parametrize("family, config", FAMILY_CONFIGS)
    def test_evaluate_at_a_root_is_zero_without_a_factor_call(
            self, monkeypatch, family, config):
        # and so are the magnitude and the noise bound, which read f alone
        form = ex_factored(family, config, 192)
        calls = count_family_calls(monkeypatch, family)
        for r in form.config.roots:
            for kernel in (evaluate, magnitude_scale, evaluation_noise):
                assert kernel(form, r)._mpf_ == fzero, kernel.__name__
        assert not calls

    @pytest.mark.parametrize("family, config", FAMILY_CONFIGS)
    def test_kernels_at_a_root_give_the_same_bits_in_every_order(
            self, monkeypatch, family, config):
        # f' there is the product rule's, whose stage builds the factor
        # pairs the lookup skipped; the magnitude reads f alone
        form = ex_factored(family, config, 192)
        m = len(form.config.roots)
        calls = count_family_calls(monkeypatch, family)
        for r in form.config.roots:
            results = []
            for order in itertools.permutations(POINT_KERNELS):
                fresh = replace(form)
                calls.clear()
                results.append({kernel: kernel(fresh, r)._mpf_
                                for kernel in order})
                assert calls == {"factor_pair": m}
                assert results[-1] == results[0], (
                    r, [k.__name__ for k in order])

    @pytest.mark.parametrize("family, config", FAMILY_CONFIGS)
    def test_a_point_an_ulp_off_a_root_runs_the_full_pass(
            self, monkeypatch, family, config):
        bits = 192
        form = ex_factored(family, config, bits)
        m = len(form.config.roots)
        calls = count_family_calls(monkeypatch, family)
        for r in form.config.roots:
            with mp.workprec(bits):
                x = r + mp.ldexp(1, mp.mag(r) - bits)
            assert x != r and to_mpf(x, bits) == x
            calls.clear()
            assert evaluate(form, x) != 0
            assert calls == {"factor_pair": m}
            assert evaluate_derivative(form, x) != 0
            assert calls == {"factor_pair": m}


class TestExpandFromRoots:
    def test_single_simple_root(self):
        cfg = RootConfiguration((5,), (1,))
        poly = expand_from_roots(FactoredForm(ALGEBRAIC, cfg))
        assert poly.coeffs == (mp.mpf(-5),)

    def test_repeated_roots_sextic(self):
        bits = 192
        form = ex_factored(ALGEBRAIC, EX1_CONFIG, bits)
        poly = expand_from_roots(form)
        # (x-2)^2 (x-3)^3 (x-5): integer convolution, forced arithmetic
        assert [int(c) for c in poly.coeffs] == [-18, 132, -506, 1071, -1188, 540]
        assert evaluate(poly, 0) == 540
        for r in form.config.roots:
            assert abs(evaluate(poly, r)) <= mp.mpf(2) ** (-(bits - 12)) * 540

    @pytest.mark.parametrize("bits", [53, 192, 1024])
    def test_algebraic_expansion_is_the_descending_convolution(self, rng,
                                                                bits):
        def reference(roots, mults):
            # highest power first: nxt[k] = c_k - c_(k-1) r, with c r rounded
            coeffs = [mp.mpf(1)]
            for r, a in zip(roots, mults):
                for _ in range(a):
                    nxt = [mp.mpf(0)] * (len(coeffs) + 1)
                    for k, c in enumerate(coeffs):
                        nxt[k] += c
                        nxt[k + 1] -= c * r
                    coeffs = nxt
            return tuple(coeffs[1:])

        for _ in range(8):
            base = random_configuration(rng, ALGEBRAIC)
            # thirds fill every bit; roots carrying more bits than the form
            # round only in c r
            for root_bits in (bits, bits + 100):
                with mp.workprec(root_bits):
                    roots = [r / 3 for r in base.roots]
                cfg = RootConfiguration(roots, base.multiplicities,
                                        precision_bits=root_bits)
                form = FactoredForm(ALGEBRAIC, cfg, precision_bits=bits)
                with mp.workprec(bits):
                    want = reference(cfg.roots, cfg.multiplicities)
                got = expand_from_roots(form).coeffs
                assert [c._mpf_ for c in got] == [c._mpf_ for c in want]

    def test_exp_expansion_matches_product(self, rng):
        bits = 256
        form = ex_factored(EXPONENTIAL, EX3_CONFIG, bits)
        poly = expand_from_roots(form)
        assert poly.degree == 2
        for _ in range(20):
            x = mp.mpf(rng.uniform(-4.0, 5.0))
            want = evaluate(form, x)
            got = evaluate(poly, x)
            scale = max(abs(want), mp.mpf(1))
            assert abs(want - got) <= mp.mpf("1e-20") * scale

    def test_trig_expansion_has_expected_degree(self):
        poly = expand_from_roots(ex_factored(TRIGONOMETRIC, EX2_CONFIG, 128))
        assert poly.degree == 3

    def test_odd_total_multiplicity_refused(self):
        cfg = RootConfiguration((1, 2), (1, 2))
        with pytest.raises(InvalidConfigurationError):
            expand_from_roots(FactoredForm(TRIGONOMETRIC, cfg))

    def test_scaled_algebraic_refused(self):
        cfg = RootConfiguration((1, 2), (1, 1))
        with pytest.raises(InvalidConfigurationError):
            expand_from_roots(FactoredForm(ALGEBRAIC, cfg, scale=2))

    def test_factored_expanded_agreement_random(self, rng):
        bits = 128
        tol = mp.mpf(2) ** (-(bits - 12))
        for family in (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL):
            for _ in range(5):
                cfg = random_configuration(rng, family, bits=bits)
                form = FactoredForm(family, cfg, precision_bits=bits)
                poly = expand_from_roots(form)
                lo, hi = min(cfg.roots), max(cfg.roots)
                for _ in range(50):
                    x = mp.mpf(rng.uniform(float(lo) - 1.5, float(hi) + 1.5))
                    diff = abs(evaluate(form, x, bits) - evaluate(poly, x, bits))
                    scale = max(magnitude_scale(poly, x, bits), mp.mpf(1))
                    assert diff <= tol * scale


def session_configuration(rng, index):
    """A configuration like those a CLI session generates: the family in
    turn, 2-4 roots with four decimals spread over 6, 5 or 4 at gaps within
    a factor 2, and multiplicities 1, 2, 3, ... in a drawn order, evened
    for a series, at 192 bits."""
    family = (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL)[index % 3]
    m = 2 + index // 3 % 3
    span = {ALGEBRAIC: 6.0, TRIGONOMETRIC: 5.0, EXPONENTIAL: 4.0}[family]
    steps = [rng.uniform(1.0, 2.0) for _ in range(m - 1)]
    roots = [rng.uniform(-0.5, 0.5) - span / 2]
    for step in steps:
        roots.append(roots[-1] + step * span / sum(steps))
    mults = [1 + i % 3 for i in range(m)]
    if family != ALGEBRAIC and sum(mults) % 2:
        mults[-1] += 1 if mults[-1] < 3 else -1
    rng.shuffle(mults)
    cfg = RootConfiguration([f"{r:.4f}" for r in roots], mults,
                            precision_bits=192)
    return FactoredForm(family, cfg)


def campaign_forms():
    """The factored forms that the first TIER1_DRAWS draws of the
    honest-termination campaign's random class expand."""
    forms = []
    for index in range(TIER1_DRAWS):
        family, poly, cfg, _, _ = campaign_draw(index)
        if not isinstance(poly, FactoredForm):
            forms.append(FactoredForm(family, cfg))
    return forms


class TestExpansionBound:
    """`expand_from_roots` certifies an expansion by its rounding bound
    where it can, and evaluates both forms at the probes only where it
    cannot; either way an expansion's outcome and bits stay those of the
    probe check."""

    @pytest.mark.parametrize("draws", ["campaign", "session"])
    def test_common_expansions_evaluate_nothing(self, monkeypatch, draws):
        evaluations = count_calls(monkeypatch, polynomials, "evaluate")
        magnitudes = count_calls(monkeypatch, polynomials, "magnitude_scale")
        if draws == "campaign":
            forms = campaign_forms()  # expanded inside the draws
        else:
            rng = random.Random(20261021)
            forms = [session_configuration(rng, i) for i in range(60)]
        expanded = [expand_from_roots(form) for form in forms]
        assert len(forms) >= 60
        assert not evaluations and not magnitudes
        monkeypatch.undo()
        # the probe check passes too: it keeps the regroupings checked
        for form, poly in zip(forms, expanded):
            polynomials._certify_roundtrip(form, poly, form.precision_bits)

    def test_a_fringe_form_the_probes_accept_keeps_its_coefficients(self):
        roots, mults = (-37, -5, 5, 11, 29), (3, 4, 4, 3, 4)
        form = FactoredForm(ALGEBRAIC, RootConfiguration(roots, mults, 128))
        # the integer coefficients, all below 2**65, are exact at 128 bits
        exact = [1]
        for r, a in zip(roots, mults):
            for _ in range(a):
                exact = [c - r * p for c, p in zip(exact + [0], [0] + exact)]
        assert expand_from_roots(form).coeffs == tuple(exact[1:])

    def test_thirteen_roots_far_apart_still_fail_the_round_trip(self):
        cfg = RootConfiguration(
            (-930, -619, -611, -513, -477, -444, -228, -45, 116, 151, 279,
             354, 620), (1, 2, 1, 6, 1, 1, 5, 5, 5, 2, 3, 6, 3), 53)
        with pytest.raises(FamilyOverflowError,
                           match="expansion failed round-trip"):
            expand_from_roots(FactoredForm(ALGEBRAIC, cfg))


class TestLogDerivativeSum:
    def test_single_other_root(self):
        assert log_derivative_sum(ALGEBRAIC, (0,), (1,), 2, 53) == mp.mpf("0.5")

    def test_two_other_roots_forced_arithmetic(self):
        got = log_derivative_sum(ALGEBRAIC, (0, 4), (2, 1), 2, 53)
        assert got == mp.mpf("0.5")  # 2/2 + 1/(-2)

    def test_trig_against_finite_difference_on_product(self):
        bits = 53

        def product(x):
            return (mp.sin((x - 2) / 2) ** 2
                    * mp.sin((x - mp.mpf("2.5")) / 2))

        x = mp.mpf("0.2")
        h = mp.mpf(2) ** -17
        oracle = (mp.log(abs(product(x + h))) - mp.log(abs(product(x - h)))) / (2 * h)
        got = log_derivative_sum(TRIGONOMETRIC, (2, "2.5"), (2, 1), x, bits)
        assert_close(got, oracle, rel=mp.mpf("1e-8"))

    def test_exp_against_finite_difference_on_product(self):
        def product(x):
            return mp.sinh((x + 2) / 2) ** 2 * mp.sinh((x - 3) / 2) ** 2

        x = mp.mpf("0.7")
        h = mp.mpf(2) ** -17
        oracle = (mp.log(abs(product(x + h))) - mp.log(abs(product(x - h)))) / (2 * h)
        got = log_derivative_sum(EXPONENTIAL, (-2, 3), (2, 2), x, 53)
        assert_close(got, oracle, rel=mp.mpf("1e-8"))

    def test_collision_identifies_other_index(self):
        with pytest.raises(CollisionError) as err:
            log_derivative_sum(ALGEBRAIC, (0, 1), (1, 1), 1 + mp.mpf(2) ** -40, 53)
        assert err.value.j == 1

    def test_multiplicity_doubling_scales_exactly(self, rng):
        for family in (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL):
            cfg = random_configuration(rng, family)
            x = max(cfg.roots) + mp.mpf("0.77")
            base = log_derivative_sum(family, cfg.roots, cfg.multiplicities, x, 53)
            doubled = log_derivative_sum(
                family, cfg.roots, [2 * a for a in cfg.multiplicities], x, 53)
            assert doubled == 2 * base


def _outcome(call):
    """call()'s raw value, or the CollisionError's (j, distance, threshold)."""
    try:
        return call()._mpf_
    except CollisionError as exc:
        return exc.j, exc.distance._mpf_, exc.threshold._mpf_


def _sweep_couplings(family, points, mults, bits, pairs):
    """log_derivative_sum at every coordinate of a Jacobi sweep, in order,
    each call given `pairs`."""
    return [_outcome(lambda i=i: log_derivative_sum(
                family, points[:i] + points[i + 1:], mults[:i] + mults[i + 1:],
                points[i], bits, pairs=pairs))
            for i in range(len(points))]


class TestPairMemo:
    """A sweep's shared dict of half-cotangents changes no bit: each
    family's half-cotangent is odd by construction."""

    @pytest.mark.parametrize("bits", [53, 128, 1024, 4096])
    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_shared_pairs_give_the_bits_of_separate_calls(self, family, bits):
        rng = random.Random(f"pairs:{family}:{bits}")
        with mp.workprec(bits):
            threshold = mp.mpf(2) ** (-mp.mpf(bits) / 2)
            for m in range(2, 9):
                points = [mp.mpf(rng.uniform(-2.5, 2.5)) for _ in range(m)]
                # a pair just above the collision threshold
                points[1] = points[0] + threshold * mp.mpf("1.0625")
                mults = [rng.randint(1, 4) for _ in range(m)]
                want = _sweep_couplings(family, points, mults, bits, None)
                assert all(type(w) is tuple and len(w) == 4 for w in want)
                assert _sweep_couplings(family, points, mults, bits,
                                        {}) == want, m
                # and one below it: the same CollisionError at each end
                points[1] = points[0] + threshold * mp.mpf("0.9375")
                want = _sweep_couplings(family, points, mults, bits, None)
                assert want[0][0] == 0 and want[1][0] == 0
                assert _sweep_couplings(family, points, mults, bits,
                                        {}) == want, m

    # u/2, a 53-bit value, and a precision at which libmp's tanh(-u/2) and
    # -tanh(u/2) differ at prec + 10 bits
    @pytest.mark.parametrize("half_u, bits", [
        ("0.042594241063546908754", 64), ("0.82943915604985563039", 128),
        ("0.59424387886861063102", 128), ("2.4405103533025616080", 256)])
    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    def test_half_cotangent_is_odd_where_tanh_is_not(self, family, half_u,
                                                     bits):
        u = 2 * to_mpf(half_u, 53)
        half_cotangent = polynomials.FAMILY[family].half_cotangent
        assert half_cotangent(mpf_neg(u._mpf_), bits) \
            == mpf_neg(half_cotangent(u._mpf_, bits))
        points, mults = [mp.mpf(0), u], [1, 1]
        assert _sweep_couplings(family, points, mults, bits, {}) \
            == _sweep_couplings(family, points, mults, bits, None)


class TestInvariants:
    def test_trig_periodicity(self, rng):
        bits = 128
        poly = expand_from_roots(ex_factored(TRIGONOMETRIC, EX2_CONFIG, bits))
        with mp.workprec(bits):
            period = 2 * mp.pi
            for _ in range(10):
                x = mp.mpf(rng.uniform(-3.0, 3.0))
                diff = abs(evaluate(poly, x) - evaluate(poly, x + period))
                scale = max(magnitude_scale(poly, x), mp.mpf(1))
                assert diff <= mp.mpf(2) ** (-(bits - 12)) * scale

    @pytest.mark.parametrize("bits", [53, 128, 1024])
    def test_root_offset_reduces_only_past_three(self, bits):
        # below 3 in size u / 2 pi rounds to 0, so skipping the reduction
        # keeps every bit; past it the reduction runs as before
        rng = random.Random(bits)
        with mp.workprec(bits):
            period = 2 * mp.pi
            for _ in range(200):
                r = mp.mpf(rng.uniform(-4, 4))
                x = r + mp.mpf(rng.choice([rng.uniform(-3.2, 3.2),
                                           rng.uniform(-20, 20)]))
                u = x - r
                want = u - period * mp.nint(u / period)
                got = root_offset(TRIGONOMETRIC, x, r)
                assert got._mpf_ == want._mpf_, (x, r)
                assert root_offset(EXPONENTIAL, x, r)._mpf_ == u._mpf_
            for x in (mp.mpf(3), -mp.mpf(3), 3 - mp.eps, mp.pi):
                want = x - period * mp.nint(x / period)
                assert root_offset(TRIGONOMETRIC, x, 0)._mpf_ == want._mpf_

    def test_noise_floor_orders(self):
        # coefficient forms floor absolutely; factored forms floor relatively
        bits = 128
        expanded = expand_from_roots(ex_factored(ALGEBRAIC, EX1_CONFIG, bits))
        factored = ex_factored(ALGEBRAIC, EX1_CONFIG, bits)
        with mp.workprec(bits):
            near_root = mp.mpf("3.00000000000000000001")  # 1e-20 off the root
            true_value = abs(evaluate(factored, near_root))
        assert evaluation_noise(expanded, near_root) > true_value
        assert evaluation_noise(factored, near_root) < true_value


class TestFixedPoint:
    """The fixed-point terms of the solver's factored sweep, and the mpmath
    routines they are built on."""

    @pytest.mark.parametrize("bits", [53, 128, 192, 1024])
    def test_the_libelefun_routines_match_the_public_functions(self, bits):
        # `libelefun` is not mpmath's public API, and pyproject allows any
        # mpmath >= 1.3: each routine the sweep reads is pinned to within
        # 16 units of 2**-bits of the public libmp functions, times the
        # argument's size for cos and sin (the reduction by pi/2 held to
        # the scale) and the value's for exp.  mpmath 1.3.0 stays within 11
        rng = random.Random(f"libelefun {bits}")
        ref = bits + 40

        def fixed(raw):
            return to_fixed(raw, bits)

        assert abs(pi_fixed(bits) - fixed(mpf_pi(ref))) <= 2
        assert abs(ln2_fixed(bits) - fixed(mpf_ln2(ref))) <= 2
        sizes = (bits // 2, bits - 3, bits, bits + 2, bits + 11)
        for x in [1, 2, 3] + [rng.getrandbits(n) for n in sizes
                              for _ in range(8)]:
            point = from_man_exp(x, -bits)
            c, s = cos_sin_fixed(x, bits)
            want_c, want_s = map(fixed, mpf_cos_sin(point, ref))
            units = 16 * max(1, x >> bits)
            assert abs(c - want_c) <= units and abs(s - want_s) <= units, x
            if x >> bits < 8:
                want = fixed(mpf_exp(point, ref))
                assert (abs(exp_fixed(x, bits) - want)
                        <= 16 * max(1, want >> bits)), x

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("frac", [77, 152, 1048])
    def test_each_entry_is_odd_and_within_a_few_units(self, family, frac):
        # h(u) = g'(u)/g(u) at u * 2**frac against h at 3 frac bits, for
        # offsets u from 2**(2 - frac) to 32: below 1 within 2 units of
        # 2**-frac and 2**(12 - frac) relative, so a correction of any size
        # keeps its bits; above it within 2 units times u (the reduction)
        # and 1 + |h'(u)| (an offset held to a unit, near a trigonometric
        # pole)
        entry = polynomials.FAMILY[family].fixed_log_derivative
        rng = random.Random(f"fixed entry {family} {frac}")
        with mp.workprec(3 * frac):
            for _ in range(40):
                u = rng.getrandbits(frac + rng.randint(2 - frac, 5)) or 1
                assert entry(-u, frac) == -entry(u, frac)
                v = mp.ldexp(u, -frac)
                if family == ALGEBRAIC:
                    want, slope = 1 / v, 1 / v ** 2
                elif family == TRIGONOMETRIC:
                    want, slope = (mp.cot(v / 2) / 2,
                                   1 / (4 * mp.sin(v / 2) ** 2))
                else:
                    want, slope = (mp.coth(v / 2) / 2,
                                   1 / (4 * mp.sinh(v / 2) ** 2))
                error = abs(entry(u, frac) - mp.ldexp(want, frac))
                if v < 1:
                    assert error <= 2 + 2 ** 12 * abs(want), u
                else:
                    assert error <= 2 * v * (1 + slope), u
        if family == EXPONENTIAL:
            # past (frac + 2) ln 2 the term is 1/2 outright
            assert entry(10 ** 6 << frac, frac) == 1 << (frac - 1)

    @pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("frac", [77, 152, 1048])
    def test_each_basis_is_the_half_offset_pair_within_a_few_units(
            self, family, frac):
        # sweep_basis(family, u, frac) holds (E, O)(v/2), v = u * 2**-frac,
        # at the scale 2**(frac + BASIS_GUARD), each within 16 units times
        # |v/2| (the reduction) and E (the value), as the libelefun pins
        # allow, and the bit length of the larger.  It has none from
        # 2**BASIS_REACH on, where a sweep takes direct terms, and none for
        # the algebraic family
        scale = frac + polynomials.BASIS_GUARD
        reach = 1 << (frac + polynomials.BASIS_REACH)
        rng = random.Random(f"fixed basis {family} {frac}")
        with mp.workprec(3 * frac):
            for _ in range(40):
                u = rng.choice((-1, 1)) * rng.randrange(
                    1 << rng.randint(frac // 2, frac + polynomials.BASIS_REACH))
                e, o, top = polynomials.sweep_basis(family, u, frac)
                half = mp.ldexp(u, -frac - 1)
                want = ((mp.cos(half), mp.sin(half)) if family == TRIGONOMETRIC
                        else (mp.cosh(half), mp.sinh(half)))
                for got, value in zip((e, o), want):
                    assert (abs(got - mp.ldexp(value, scale))
                            <= 16 * max(1, abs(half)) * max(1, want[0])), u
                assert top == max(abs(e), abs(o)).bit_length()
        for u in (reach, -reach, 10 ** 6 << frac):
            assert polynomials.sweep_basis(family, u, frac) is None
        assert polynomials.sweep_basis(ALGEBRAIC, 1 << frac, frac) is None

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("frac", [77, 152, 1048])
    def test_each_term_is_odd_and_from_bases_within_two_units(
            self, family, frac):
        # fixed_term(family, frac) at seeded pairs x, y within the reach of
        # a centre 0, each with or without its basis: h(y - x) from the
        # swapped bases is -h(x - y) bit for bit.  Without both bases, or
        # where their denominator O_x E_y - E_x O_y lies more than
        # BASIS_LOSS bits below the products, the term is the direct
        # entry; elsewhere it is within 2 units of h at 3 frac bits.  That
        # is tighter than the direct entry, which its own test lets stray
        # 2 |u| (1 + |h'(u)|) units above |u| = 1
        term = polynomials.fixed_term(family, frac)
        entry = polynomials.FAMILY[family].fixed_log_derivative
        rng = random.Random(f"fixed term {family} {frac}")
        reach = frac + polynomials.BASIS_REACH
        from_bases = 0
        with mp.workprec(3 * frac):
            for _ in range(60):
                x, y = (rng.choice((-1, 1)) * rng.randrange(1 << reach)
                        for _ in range(2))
                if x == y:
                    continue
                u = x - y
                bx, by = (polynomials.sweep_basis(family, v, frac)
                          if rng.random() < 0.8 else None for v in (x, y))
                t = term(u, bx, by)
                assert term(-u, by, bx) == -t, (x, y)
                if bx and by:
                    (ex, ox, tx), (ey, oy, ty) = bx, by
                    loss = tx + ty - (ox * ey - ex * oy).bit_length()
                if not (bx and by) or loss > polynomials.BASIS_LOSS:
                    assert t == entry(u, frac), (x, y)
                    continue
                half = mp.ldexp(u, -frac - 1)
                h = (mp.cot(half) if family == TRIGONOMETRIC
                     else mp.coth(half)) / 2
                assert abs(t - mp.ldexp(h, frac)) <= 2, (x, y)
                from_bases += 1
        assert (from_bases > 0) == (family != ALGEBRAIC)

    def test_a_form_keeps_its_roots_bases_per_scale_first_in_first_out(
            self, monkeypatch):
        # each root floored to the scale with its basis about the middle of
        # the roots, which `basis` takes any point's about, one basis call
        # per root and scale while the scale is kept; the form keeps as
        # many scales as its point memo keeps points
        calls = count_family_calls(monkeypatch, EXPONENTIAL)
        form = FactoredForm(EXPONENTIAL, RootConfiguration(
            ["-1", "0.5", "2"], [1, 2, 3], precision_bits=128))
        limit = 6
        fracs = range(150, 150 + 3 * limit)
        for frac in fracs:
            roots, basis, _ = form.fixed_roots(frac)
            fixed = [to_fixed(r._mpf_, frac) for r in form.config.roots]
            centre = (fixed[0] + fixed[-1]) >> 1
            for x in fixed + [centre, centre - (3 << frac), 7 << frac]:
                assert basis(x) == polynomials.sweep_basis(
                    EXPONENTIAL, x - centre, frac)
            assert roots == [
                (r, a, polynomials.sweep_basis(EXPONENTIAL, r - centre, frac))
                for r, a in zip(fixed, form.config.multiplicities)]
        assert len(form._fixed) == limit
        calls.clear()
        for frac in fracs[-limit:]:
            form.fixed_roots(frac)
        assert not calls
        form.fixed_roots(fracs[-limit - 1])
        assert calls["fixed_basis"] == 3


class TestRejectedInput:
    def test_a_configuration_needs_a_root(self):
        with pytest.raises(InvalidConfigurationError, match="at least one"):
            RootConfiguration((), ())

    @pytest.mark.parametrize("root", ["inf", "-inf", "nan"])
    def test_a_factored_form_needs_finite_roots(self, root):
        # once accepted, and a solve from 1.1 then escaped with a
        # FamilyOverflowError out of the k = 0 residuals
        cfg = RootConfiguration(("1.1", root), (1, 2), precision_bits=64)
        with pytest.raises(InvalidConfigurationError,
                           match="root 1 is not finite"):
            FactoredForm(ALGEBRAIC, cfg)

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_a_factored_form_needs_a_finite_scale(self, scale):
        cfg = RootConfiguration(("1", "2"), (1, 2), precision_bits=64)
        with pytest.raises(InvalidConfigurationError,
                           match="scale must be finite"):
            FactoredForm(ALGEBRAIC, cfg, scale=scale)

    def test_series_poly_is_abstract(self):
        with pytest.raises(TypeError, match="abstract"):
            SeriesPoly(1, (1,), (0,))

    def test_only_a_factored_form_expands(self):
        with pytest.raises(TypeError, match="FactoredForm"):
            expand_from_roots(AlgebraicPoly((1,)))

    def test_log_derivative_sum_rejects_a_series_of_another_family(self):
        poly = ExpPoly(0, (1,), (0,))
        with pytest.raises(InvalidConfigurationError, match="basis pairs"):
            log_derivative_sum(TRIGONOMETRIC, (1,), (1,), 0, 53, poly=poly)

    def test_log_derivative_sum_rejects_an_unknown_family(self):
        with pytest.raises(InvalidConfigurationError, match="bogus"):
            log_derivative_sum("bogus", (1,), (1,), 0, 53)

    @pytest.mark.parametrize("family", [ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    @pytest.mark.parametrize("mults, match", [
        ((2,), "1 multiplicities for 2 roots"),  # zip would drop root 4
        ((2, 0), "got 0"),
        ((True, 1), "got True"),
        ((1.5, 1), "got 1.5"),
    ])
    def test_log_derivative_sum_rejects_bad_multiplicities(self, family,
                                                           mults, match):
        with pytest.raises(InvalidConfigurationError, match=match):
            log_derivative_sum(family, (0, 4), mults, 2, 53)

    def test_an_expansion_that_misses_its_form_fails_the_round_trip(self):
        # the form is x^2 - 3x + 2; the wrong expansion is x^2 - 3x + 2.5
        form = FactoredForm(ALGEBRAIC, RootConfiguration((1, 2), (1, 1)))
        wrong = AlgebraicPoly((-3, "2.5"))
        with pytest.raises(FamilyOverflowError,
                           match="expansion failed round-trip") as err:
            polynomials._certify_roundtrip(form, wrong, 64)
        # every value it names is finite
        assert "non-finite" not in str(err.value)
