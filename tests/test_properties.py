"""Property tests of the per-family kernels against independent evaluations.

Each test draws factored configurations of one family and compares what the
`FAMILY` table drives (factor, derivative, coupling, basis, derivative sign
and what the sign decides: the envelope and the period, roots per degree)
and the problem-file keys `report_io` holds with a computation that does
not read either table: the coefficient ladder of `verification`, the
quotient F'/F of a factored form, and the problem-file layout the README
documents.
The kernels compute on raw libmp values; two tests hold them to the mpf
arithmetic they replace, bit for bit and at any ambient precision, and one
holds the per-point memo to the bits a fresh instance gives.  Two more pin
the form of the reals a report holds, which `load_report` parses on first
read.  One draws coefficient forms whose coefficients lie between 1e-300
and 1e300 in size, and holds their kernels finite at points as far out
as 1e6.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_neg, to_fixed

from multiroots import solver
from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    FAMILIES,
    TRIGONOMETRIC,
    AlgebraicPoly,
    CollisionError,
    ExpPoly,
    FactoredForm,
    FamilyOverflowError,
    RootConfiguration,
    SchemaError,
    SeriesPoly,
    TrigPoly,
    evaluate,
    evaluate_derivative,
    evaluation_noise,
    expand_from_roots,
    log_derivative_sum,
    magnitude_scale,
)
from multiroots.polynomials import (_coefficient_bounds, _expand,
                                    _series_basis, _stored)
from multiroots.precision import (decimal_digits, format_digits, format_real,
                                  parse_real, ulps_apart)
from multiroots.report_io import (_CANONICAL, checked_real, problem_from_dict,
                                  problem_to_dict)
from multiroots.verification import _derivative_ladder
from conftest import count_family_calls, reference_format, reference_parse

# the coefficient keys of a series problem file, as the README states them
FILE_KEYS = {TRIGONOMETRIC: ("cos", "sin"), EXPONENTIAL: ("ch", "sh")}

FEW = settings(max_examples=15, deadline=None)


@st.composite
def configurations(draw, family, precisions=(53, 96, 160, 256)):
    """(factored form, point at least 0.1 away from every root).

    Roots stay inside [-2.4, 1.7], within one period of the trigonometric
    factor, and the series families get an even total multiplicity.
    """
    bits = draw(st.sampled_from(precisions))
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    if family != ALGEBRAIC and sum(mults) % 2:
        mults[-1] += 1
    roots = [draw(st.floats(-2.4, -1.0))]
    for _ in mults[1:]:
        roots.append(roots[-1] + draw(st.floats(0.3, 0.9)))
    scale = 1 if family == ALGEBRAIC else draw(st.sampled_from([1, -2.5, 0.75]))
    form = FactoredForm(family, RootConfiguration(roots, mults, bits),
                        scale=scale)
    x = draw(st.floats(roots[0] - 0.6, roots[-1] + 0.6).filter(
        lambda x: min(abs(x - r) for r in roots) > 0.1))
    return form, mp.mpf(x)


def tolerance(bits):
    return mp.mpf(2) ** (24 - bits)


@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_kernels_match_the_coefficient_ladder(family, data):
    form, x = data.draw(configurations(family))
    bits = form.precision_bits
    expanded = expand_from_roots(form)
    with mp.workprec(bits):
        ladder = _derivative_ladder(expanded, 1)
        for (value, scale), kernel in zip(ladder, (evaluate, evaluate_derivative)):
            bound = tolerance(bits) * max(scale(x), 1)
            for poly in (form, expanded):
                assert abs(kernel(poly, x) - value(x)) <= bound
        abs_value = ladder[0][1](x)
        assert abs(magnitude_scale(expanded, x) - abs_value) \
            <= tolerance(bits) * abs_value


@pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
@settings(max_examples=40, deadline=None)
@example(n=16, bits=4096, mantissa=2**4096 - 1, exponent=-4000, sign=1)
@example(n=16, bits=53, mantissa=2**53 - 1, exponent=20, sign=-1)
@example(n=16, bits=1024, mantissa=3**600, exponent=7, sign=1)
@given(n=st.integers(1, 16), bits=st.sampled_from([53, 64, 192, 1024, 4096]),
       mantissa=st.integers(1, 2**4096 - 1), exponent=st.integers(-80, 20),
       sign=st.sampled_from([1, -1]))
def test_series_basis_matches_mpmath(family, n, bits, mantissa, exponent,
                                     sign):
    """The angle-addition basis at x = sign * 0.mantissa * 2**exponent, with
    the mantissa cut to `bits`, against mpmath's E(lx) and O(lx) at twice
    the precision, where l*x is exact: within a few ulp, absolute for the
    bounded trigonometric basis and relative for the hyperbolic one.  x = 0
    is exact and tested in test_polynomials."""
    mantissa >>= max(0, mantissa.bit_length() - bits)
    with mp.workprec(bits):
        x = sign * mp.ldexp(mantissa, exponent - mantissa.bit_length())
    basis = [tuple(map(mp.make_mpf, pair))
             for pair in _series_basis(family, x._mpf_, n, bits)]
    if family == TRIGONOMETRIC:
        even, odd = mp.cos, mp.sin
    else:
        even, odd = mp.cosh, mp.sinh
    with mp.workprec(2 * bits):
        few_ulp = 4 * mp.mpf(2) ** -bits
        for l, got in enumerate(basis, start=1):
            for value, want in zip(got, (even(l * x), odd(l * x))):
                scale = 1 if family == TRIGONOMETRIC else abs(want)
                assert abs(value - want) <= few_ulp * scale, (l, value, want)


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_factored_derivative_on_a_root(family, alpha, data):
    """x exactly on root k of multiplicity alpha, where g(x - r_k) = 0: f' is
    the product of the other roots' factors (alpha = 1) or 0 (alpha >= 2)."""
    form, _ = data.draw(configurations(family))
    roots = list(form.config.roots)
    mults = list(form.config.multiplicities)
    k = data.draw(st.integers(0, len(roots) - 1))
    mults[k] = alpha
    if family != ALGEBRAIC and sum(mults) % 2:
        roots.append(roots[0] - mp.mpf("0.5"))
        mults.append(1)
    bits = form.precision_bits
    form = FactoredForm(family, RootConfiguration(roots, mults, bits),
                        scale=form.scale)
    x = roots[k]
    got = evaluate_derivative(form, x)
    with mp.workprec(bits):
        value, scale = _derivative_ladder(expand_from_roots(form), 1)[1]
        assert abs(got - value(x)) <= tolerance(bits) * max(scale(x), 1)
    if alpha > 1:
        assert got == 0


@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_coupling_is_the_log_derivative_of_the_other_roots(family, data):
    form, x = data.draw(configurations(family))
    bits = form.precision_bits
    cfg = form.config
    others = FactoredForm(family, cfg)
    got = log_derivative_sum(family, cfg.roots, cfg.multiplicities, x, bits)
    with mp.workprec(bits):
        want = evaluate_derivative(others, x) / evaluate(others, x)
        size = sum(abs(log_derivative_sum(family, [r], [a], x, bits))
                   for r, a in zip(cfg.roots, cfg.multiplicities))
        assert abs(got - want) <= tolerance(bits) * (1 + size)


@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_coefficient_problem_files_roundtrip(family, data):
    """Both representations: the expanded coefficients and the factored
    roots and scale."""
    form, _ = data.draw(configurations(family))
    bits = form.precision_bits
    expanded = expand_from_roots(form)
    fmt = lambda values: [format_real(v, bits) for v in values]
    if family == ALGEBRAIC:
        coefficients = fmt(expanded.coeffs)
    else:
        even, odd = FILE_KEYS[family]
        coefficients = {"a0": format_real(expanded.a0, bits),
                        even: fmt(expanded.even), odd: fmt(expanded.odd)}
    factored = {"roots": fmt(form.config.roots),
                "scale": format_real(form.scale, bits)}
    for representation, fields, poly in (
            ("coefficients", {"coefficients": coefficients}, expanded),
            ("roots", factored, form)):
        problem = problem_from_dict({
            "family": family,
            "representation": representation,
            "precision_bits": bits,
            "multiplicities": list(form.config.multiplicities),
            "initial": fmt(form.config.roots),
            **fields,
        })
        assert problem.polynomial() == poly
        assert problem_from_dict(problem_to_dict(problem)).polynomial() == poly


@settings(max_examples=60, deadline=None)
@example(k=2, bits=53, alpha=1, x=0.0)
@example(k=6, bits=4096, alpha=3, x=0.0)
@given(k=st.integers(1, 6), bits=st.integers(53, 4096),
       alpha=st.integers(1, 3), x=st.floats(-3, 3))
def test_trigonometric_coupling_a_multiple_of_pi_away_is_finite(k, bits,
                                                                alpha, x):
    """Approximations k pi apart, at the working precision, put tan(u/2)
    near 0 or near a pole, but it is never 0 or infinite and mpf exponents
    are unbounded: the coupling is finite and nothing is raised."""
    with mp.workprec(bits):
        x = mp.mpf(x)
        other = x + k * mp.pi
    got = log_derivative_sum(TRIGONOMETRIC, [other], [alpha], x, bits)
    assert type(got) is mp.mpf and mp.isfinite(got)


# The kernels as mpf arithmetic at the working precision, each operation the
# one the raw libmp kernels must reproduce: the reference for bit identity.
REF_FACTOR = {
    ALGEBRAIC: lambda u: u,
    TRIGONOMETRIC: lambda u: mp.sin(u / 2),
    EXPONENTIAL: lambda u: mp.sinh(u / 2),
}


def _ref_sin_pair(u):
    c, s = mp.cos_sin(u / 2)
    return s, c / 2


REF_FACTOR_PAIR = {
    ALGEBRAIC: lambda u: (u, mp.mpf(1)),
    TRIGONOMETRIC: _ref_sin_pair,
    EXPONENTIAL: lambda u: (mp.sinh(u / 2), mp.cosh(u / 2) / 2),
}
REF_COUPLING = {
    ALGEBRAIC: lambda a, u: a / u,
    TRIGONOMETRIC: lambda a, u: a * mp.cot(u / 2) / 2,
    EXPONENTIAL: lambda a, u: a * mp.coth(u / 2) / 2,
}
REF_BASIS = {TRIGONOMETRIC: (mp.cos_sin, -1),
             EXPONENTIAL: (lambda x: (mp.cosh(x), mp.sinh(x)), 1)}


def ref_basis(family, x, n):
    pair, sign = REF_BASIS[family]
    with mp.workprec(mp.prec + n.bit_length() + 10):
        e1, o1 = pair(x)
        so1 = sign * o1
        e, o = e1, o1
        pairs = [(e, o)]
        for _ in range(n - 1):
            e, o = e * e1 + o * so1, o * e1 + e * o1
            pairs.append((e, o))
    return pairs


def ref_factored_value(form, x):
    v = form.scale
    for r, a in zip(form.config.roots, form.config.multiplicities):
        v *= REF_FACTOR[form.family](x - r) ** a
    return v


def ref_evaluate(poly, x, bits):
    with mp.workprec(bits):
        x = mp.mpf(x)
        if isinstance(poly, AlgebraicPoly):
            v = mp.mpf(1)
            for c in poly.coeffs:
                v = v * x + c
            return v
        if isinstance(poly, SeriesPoly):
            terms = [poly.a0 / 2]
            for a, b, (e, o) in zip(poly.even, poly.odd,
                                    ref_basis(poly.family, x, poly.degree)):
                terms += [a * e, b * o]
            return mp.fsum(terms)
        return ref_factored_value(poly, x)


def ref_evaluate_derivative(poly, x, bits):
    with mp.workprec(bits):
        x = mp.mpf(x)
        if isinstance(poly, AlgebraicPoly):
            v, dv = mp.mpf(1), mp.mpf(0)
            for c in poly.coeffs:
                dv = dv * x + v
                v = v * x + c
            return dv
        if isinstance(poly, SeriesPoly):
            sign = REF_BASIS[poly.family][1]
            terms = []
            for l, (a, b, (e, o)) in enumerate(zip(
                    poly.even, poly.odd,
                    ref_basis(poly.family, x, poly.degree)), start=1):
                terms += [l * b * e, sign * l * a * o]
            return mp.fsum(terms)
        return ref_product_rule(poly, x)


def ref_factor_pairs(form, x):
    return [REF_FACTOR_PAIR[form.family](x - r) for r in form.config.roots]


def ref_product_rule(form, x):
    """f' of a factored form by the product rule at the working precision,
    as the kernel forms it."""
    terms, powers = [], []
    for (g, dg), a in zip(ref_factor_pairs(form, x),
                          form.config.multiplicities):
        terms.append(a * dg * g ** (a - 1))
        powers.append(g ** a)
    prefix = mp.mpf(1)
    for k, p in enumerate(powers):
        terms[k] *= prefix
        prefix *= p
    suffix = mp.mpf(1)
    for k in range(len(powers) - 1, -1, -1):
        terms[k] *= suffix
        suffix *= powers[k]
    return form.scale * mp.fsum(terms)


def ref_magnitude_scale(poly, x, bits):
    with mp.workprec(bits):
        x = mp.mpf(x)
        if isinstance(poly, AlgebraicPoly):
            v = mp.mpf(1)
            for c in poly.coeffs:
                v = v * abs(x) + abs(c)
            return v
        if isinstance(poly, SeriesPoly):
            pairs = zip(poly.even, poly.odd)
            if poly.family == TRIGONOMETRIC:
                return abs(poly.a0) / 2 + mp.fsum(
                    abs(a) + abs(b) for a, b in pairs)
            basis = ref_basis(poly.family, x, poly.degree)
            return mp.fsum([abs(poly.a0) / 2] + [
                (abs(a) + abs(b)) * e for (a, b), (e, _) in zip(pairs, basis)])
        return abs(ref_factored_value(poly, x))


def ref_evaluation_noise(poly, x, bits):
    with mp.workprec(bits):
        if isinstance(poly, AlgebraicPoly):
            ops = 2 * (poly.degree + 1)
        elif isinstance(poly, SeriesPoly):
            ops = 4 * poly.degree + 4
        else:
            ops = 3 * (poly.config.total_multiplicity + 1)
        return ops * mp.mpf(2) ** (-bits) * ref_magnitude_scale(poly, x, bits)


def ref_log_derivative_sum(family, roots, mults, x, bits):
    with mp.workprec(bits):
        x = mp.mpf(x)
        threshold = mp.mpf(2) ** (mp.mpf(-bits) / 2)
        terms = []
        for j, (r, a) in enumerate(zip(roots, mults)):
            u = x - mp.mpf(r)
            if abs(u) < threshold:
                raise CollisionError(j, u, threshold)
            terms.append(REF_COUPLING[family](a, u))
        return mp.fsum(terms)


def outcome(kernel, *args):
    """The kernel's mpf, or the collision it raised."""
    try:
        return kernel(*args)
    except CollisionError as exc:
        return ("collision", exc.j, exc.distance, exc.threshold)


@st.composite
def kernel_cases(draw, family):
    """(factored form or its expansion, points): a point on a root, 0, one
    near the roots and, for the exponential family, one near +-20."""
    form, near = draw(configurations(family, (53, 128, 192, 1024, 4096)))
    poly = draw(st.sampled_from([form, expand_from_roots(form)]))
    points = [near, mp.mpf(0), draw(st.sampled_from(form.config.roots))]
    if family == EXPONENTIAL:
        points.append(mp.mpf(draw(st.sampled_from([1, -1]))
                             * draw(st.floats(18, 22))))
    return poly, points


KERNELS = ((evaluate, ref_evaluate),
           (evaluate_derivative, ref_evaluate_derivative),
           (magnitude_scale, ref_magnitude_scale),
           (evaluation_noise, ref_evaluation_noise))


def signed_values(bits, signs, mantissas, exponents):
    """+-mantissa * 10**exponent for each triple, at `bits`."""
    with mp.workprec(bits):
        return [sign * mp.mpf(m) * mp.mpf(10) ** e
                for sign, m, e in zip(signs, mantissas, exponents)]


def coefficient_forms(family, n, bits, coefficients):
    """The coefficient form of `family` and degree n at `bits` whose
    coefficients are the (sign, mantissa, exponent) triples' values, in
    order: the algebraic c_1..c_n, a series' a0, even and odd."""
    values = signed_values(bits, *zip(*coefficients))
    if family == ALGEBRAIC:
        return AlgebraicPoly(values[:n], precision_bits=bits)
    series = TrigPoly if family == TRIGONOMETRIC else ExpPoly
    return series(values[0], values[1:n + 1], values[n + 1:2 * n + 1],
                  precision_bits=bits)


def factored_forms(family, n, bits, coefficients):
    """The factored form of `family` at `bits` whose roots are the
    distinct values among the first n triples', with multiplicities 1, 2,
    3 in turn, and whose scale is the last triple's value."""
    values = signed_values(bits, *zip(*coefficients))
    roots = list(dict.fromkeys(values[:n]))
    config = RootConfiguration(roots, [1 + i % 3 for i in range(len(roots))],
                               precision_bits=bits)
    return FactoredForm(family, config, scale=values[-1])


COEFFICIENTS = st.lists(st.tuples(st.sampled_from([-1, 1]),
                                  st.floats(1, 9.99),
                                  st.integers(-300, 300)),
                        min_size=13, max_size=13)
# triples whose values spread from 1e-300 to 1e300 in both signs
SPREAD = [(1, 9.99, 300), (-1, 1, -300), (1, 2.5, 0), (-1, 7, 150),
          (1, 3, -150), (-1, 9.99, 300)] * 2 + [(1, 9.99, 300)]


@FEW
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 6),
       bits=st.sampled_from([53, 192, 1024]), coefficients=COEFFICIENTS,
       x=st.floats(-1e6, 1e6), form=st.sampled_from([coefficient_forms,
                                                      factored_forms]))
@example(family=EXPONENTIAL, n=6, bits=1024,
         coefficients=[(1, 9.99, 300)] * 13, x=1e6, form=coefficient_forms)
@example(family=EXPONENTIAL, n=6, bits=53,
         coefficients=[(-1, 1, -300)] * 13, x=-1e6, form=coefficient_forms)
@example(family=ALGEBRAIC, n=6, bits=53,
         coefficients=[(1, 9.99, 300)] * 13, x=-1e6, form=coefficient_forms)
# a diverged entry's iterate has no bound: |x| = 1e300 at either end of
# the precisions, in every family and representation
@example(family=ALGEBRAIC, n=6, bits=53, coefficients=SPREAD, x=1e300,
         form=coefficient_forms)
@example(family=TRIGONOMETRIC, n=6, bits=1024, coefficients=SPREAD,
         x=-1e300, form=coefficient_forms)
@example(family=EXPONENTIAL, n=6, bits=1024, coefficients=SPREAD, x=1e300,
         form=coefficient_forms)
@example(family=EXPONENTIAL, n=6, bits=53, coefficients=SPREAD, x=-1e300,
         form=coefficient_forms)
@example(family=ALGEBRAIC, n=6, bits=1024, coefficients=SPREAD, x=-1e300,
         form=factored_forms)
@example(family=TRIGONOMETRIC, n=6, bits=53, coefficients=SPREAD, x=1e300,
         form=factored_forms)
@example(family=EXPONENTIAL, n=3, bits=1024, coefficients=SPREAD, x=-1e300,
         form=factored_forms)
@example(family=EXPONENTIAL, n=6, bits=53, coefficients=SPREAD, x=1e300,
         form=factored_forms)
def test_finite_coefficients_give_a_finite_value(family, n, bits,
                                                 coefficients, x, form):
    # libmp exponents do not overflow, so a form with finite coefficients,
    # or finite roots and scale, is finite at every finite point, however
    # large the terms: a solve's residuals can wait for a reader without
    # a raise
    poly = form(family, n, bits, coefficients)
    assert mp.isfinite(evaluate(poly, x))
    assert mp.isfinite(evaluate_derivative(poly, x))
    assert mp.isfinite(evaluation_noise(poly, x))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernels_are_bit_identical_to_mpf_arithmetic(family, data):
    """At the poly's own precision and at overrides below and above it.
    Below it the kernels read the stored values rounded to the override,
    as the copy built at that precision holds them."""
    poly, points = data.draw(kernel_cases(family))
    for x in points:
        for bits in (None, 53, 192, 2 * poly.precision_bits):
            prec = bits or poly.precision_bits
            at_prec = (replace(poly, precision_bits=prec)
                       if prec < poly.precision_bits else poly)
            for kernel, reference in KERNELS:
                got = kernel(poly, x, bits)
                assert type(got) is mp.mpf
                assert got == reference(at_prec, x, prec), (kernel.__name__, x,
                                                         bits)
            cfg = (poly if isinstance(poly, FactoredForm)
                   else FactoredForm(family, RootConfiguration(
                       [x + 1, x - mp.mpf("0.75")], [2, 2], prec))).config
            args = (family, cfg.roots, cfg.multiplicities, x, prec)
            assert outcome(log_derivative_sum, *args) == \
                outcome(ref_log_derivative_sum, *args)


@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_kernels_ignore_the_ambient_precision(family, data):
    poly, points = data.draw(kernel_cases(family))
    for x in points:
        cfg = FactoredForm(family, RootConfiguration(
            [x + 1, x - mp.mpf("0.75")], [1, 3], 128)).config
        calls = [(kernel, (poly, x)) for kernel, _ in KERNELS]
        calls.append((log_derivative_sum,
                      (family, cfg.roots, cfg.multiplicities, x, 128)))
        for kernel, args in calls:
            values = []
            for ambient in (53, 4096):
                with mp.workprec(ambient):
                    values.append(kernel(*args))
                    assert mp.prec == ambient
            assert all(type(v) is mp.mpf for v in values)
            assert values[0] == values[1], kernel.__name__


@st.composite
def factored_points(draw, family):
    """(factored form with 2-8 roots at 53, 128 or 1024 bits, point rounded
    to its bits and off its roots): a point 2**-1, 2**-20, 2**-60 or
    2**-(bits-4) times max(|r|, 1) from a root r, or anywhere in [-3, 3]."""
    bits = draw(st.sampled_from([53, 128, 1024]))
    mults = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    roots = [draw(st.floats(-2.4, -1.0))]
    for _ in mults[1:]:
        roots.append(roots[-1] + draw(st.floats(0.3, 0.9)))
    scale = 1 if family == ALGEBRAIC else draw(st.sampled_from([1, -2.5, 0.75]))
    form = FactoredForm(family, RootConfiguration(roots, mults, bits),
                        scale=scale)
    with mp.workprec(bits):
        if draw(st.booleans()):
            x = mp.mpf(draw(st.floats(-3, 3)))
        else:
            r = draw(st.sampled_from(form.config.roots))
            shift = draw(st.sampled_from([1, 20, 60, bits - 4]))
            x = r + draw(st.sampled_from([1, -1])) * mp.ldexp(
                max(abs(r), 1), -shift)
    assume(x not in form.config.roots)
    return form, x


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factored_derivative_is_within_its_rounding_bound(family, data):
    """f' from the kernel and by the product rule, both at the form's p
    bits, against the product rule at 3p + 50 bits: each within
    3 (sum(a) + 1) 2**-p |f| sum_k a_k |h_k|, h_k = g'_k / g_k."""
    form, x = data.draw(factored_points(family))
    bits, mults = form.precision_bits, form.config.multiplicities
    got = evaluate_derivative(form, x)
    with mp.workprec(bits):
        product_rule = ref_product_rule(form, x)
    with mp.workprec(3 * bits + 50):
        want = ref_product_rule(form, x)
        size = sum(a * abs(dg / g) for (g, dg), a in zip(
            ref_factor_pairs(form, x), mults))
        bound = (3 * (sum(mults) + 1) * mp.mpf(2) ** -bits
                 * abs(ref_factored_value(form, x)) * size)
        assert abs(got - want) <= bound, (x, got, want)
        assert abs(product_rule - want) <= bound, (x, product_rule, want)


# how far out the stress forms' roots lie, and how far apart: mixed signs,
# and exponential roots about a centre far enough out that sigma = sum(a r)
# reaches hundreds and e^(-r) spans 2**170
STRESS_CENTRE = {ALGEBRAIC: 0, TRIGONOMETRIC: 0, EXPONENTIAL: 56}
STRESS_SPREAD = {ALGEBRAIC: 40, TRIGONOMETRIC: 3, EXPONENTIAL: 4}


@st.composite
def expansion_forms(draw, family):
    """A factored form at 53 to 1024 bits: one of `configurations`, or
    up to 4 distinct roots within STRESS_SPREAD of a centre within
    STRESS_CENTRE of 0, multiplicities 1-3 and, for a series, a scale of
    either sign from 1e-30 to 1e30.  Each has a rounding bound: its
    floats stay in range."""
    if draw(st.booleans()):
        return draw(configurations(family, (53, 96, 256, 1024)))[0]
    bits = draw(st.sampled_from([53, 64, 128, 256, 1024]))
    reach, spread = STRESS_CENTRE[family], STRESS_SPREAD[family]
    centre = draw(st.floats(-reach, reach))
    # no root within 1e-3 of 0 but 0 itself, whose factor's bound, e.g.
    # prod (1 + |r| z), would need floats below 2**-1000
    roots = draw(st.lists(st.floats(-spread, spread).map(
        lambda r: centre + r).filter(lambda r: r == 0 or abs(r) > 1e-3),
        min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(roots),
                          max_size=len(roots)))
    if family != ALGEBRAIC and sum(mults) % 2:
        mults[-1] += 1
    scale = 1
    if family != ALGEBRAIC:
        scale = draw(st.sampled_from([1, -1])) * 10 ** draw(
            st.floats(-30, 30))
    return FactoredForm(family, RootConfiguration(roots, mults, bits),
                        scale=scale)


@settings(max_examples=120, deadline=None)
# far exponential roots of one sign at 53 bits, where sigma = sum(a r)
# rounds and the lead's error outweighs the products' own
@example(form=FactoredForm(EXPONENTIAL, RootConfiguration(
    (30.2, 56.1), (3, 3), 53)))
@example(form=FactoredForm(EXPONENTIAL, RootConfiguration(
    (51.3, 55.9), (3, 3), 53)))
@given(form=st.sampled_from(FAMILIES).flatmap(expansion_forms))
def test_expanded_coefficients_lie_within_their_rounding_bound(form):
    """Each coefficient the expansion stores lies within its bound of the
    same expansion at 2 bits + 64 bits, which in turn lies within its own
    bound of the exact one.  The expansion is taken before its round
    trip is certified, so that forms whose round trip fails count too."""
    bits = form.precision_bits
    deep = replace(form, precision_bits=2 * bits + 64)
    expanded, reference = _expand(form), _expand(deep)
    bounds = _coefficient_bounds(form, expanded)[0]
    deep_bounds = _coefficient_bounds(deep, reference)[0]
    with mp.workprec(4 * bits + 200):
        for i, (got, want, bound, deep_bound) in enumerate(zip(
                _stored(expanded), _stored(reference), bounds, deep_bounds)):
            allowed = (mp.ldexp(bound, -bits)
                       + mp.ldexp(deep_bound, -deep.precision_bits))
            assert abs(got - want) <= allowed, (i, got, want, bound)


@pytest.mark.parametrize("family", FAMILIES)
def test_coupling_rounds_as_the_mpf_functions_do(family):
    """cot and coth round twice, at prec + 10 and then at prec; a double
    rounding differs from a single one about once in 2**10 draws, too rarely
    for the drawn examples above to show.  One other root at 0 makes the
    sum one coupling term at u, formed as the solver forms it."""
    rng = random.Random(7)
    with mp.workprec(53):
        for _ in range(4000):
            u = mp.mpf(rng.uniform(-3, 3))
            a = rng.randint(1, 3)
            assert log_derivative_sum(family, [0], [a], u, 53) \
                == REF_COUPLING[family](a, u), (a, u)


@pytest.mark.parametrize("family", FAMILIES)
@FEW
@given(data=st.data())
def test_the_stages_give_the_eager_bits_in_any_order(family, data):
    """Each point's value, derivative and magnitude stages, run in a drawn
    order of the four kernels on a fresh instance, give the bits of the
    mpf arithmetic that computes all of them at once."""
    poly, points = data.draw(kernel_cases(family))
    order = data.draw(st.permutations(KERNELS))
    prec = poly.precision_bits
    for x in points:
        fresh = replace(poly)
        for kernel, reference in order:
            assert kernel(fresh, x)._mpf_ == reference(poly, x, prec)._mpf_, \
                (kernel.__name__, x)


def raw_outcome(kernel, poly, x, bits):
    """The kernel's raw value, or the type of what it raised."""
    try:
        return kernel(poly, x, bits)._mpf_
    except FamilyOverflowError:
        return FamilyOverflowError


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_point_memo_never_changes_a_bit(family, data):
    """Kernel calls interleaved on one instance and its copies at other
    precisions: first the four kernels in a drawn order at one point, so
    that the stages of a point run in any order, then repeated and new
    points, `bits` overrides and enough points to evict.  Each gives what
    the same call gives on a fresh instance."""
    form, near = data.draw(configurations(family, (53, 128, 192, 1024)))
    poly = form
    if family != ALGEBRAIC:
        poly = data.draw(st.sampled_from([form, expand_from_roots(form)]))
    points = [near, mp.mpf(0), data.draw(st.sampled_from(form.config.roots))]
    points += [mp.mpf(x) for x in data.draw(
        st.lists(st.floats(-3, 3), min_size=0, max_size=10))]
    instances = {None: poly}
    order = data.draw(st.permutations([k for k, _ in KERNELS]))
    for step in range(len(order) + data.draw(st.integers(5, 40))):
        if step < len(order):
            copy_bits, kernel, x, bits = None, order[step], near, None
        else:
            copy_bits = data.draw(st.sampled_from([None, None, 53, 192]))
            kernel = data.draw(st.sampled_from([k for k, _ in KERNELS]))
            x = data.draw(st.sampled_from(points))
            bits = data.draw(st.sampled_from([None, None, 53, 192]))
        if copy_bits not in instances:
            instances[copy_bits] = replace(poly, precision_bits=copy_bits)
        target = instances[copy_bits]
        assert raw_outcome(kernel, target, x, bits) == \
            raw_outcome(kernel, replace(target), x, bits), \
            (kernel.__name__, copy_bits, x, bits)


def _bits_number(rng, bits, low, high):
    """A number in [low, high) that fills `bits` bits of mantissa."""
    with mp.workprec(bits):
        return low + (high - low) * mp.ldexp(rng.getrandbits(bits), -bits)


@st.composite
def stored_coefficient_forms(draw):
    """A coefficient form of each family at 4096 bits, or a degree-1
    algebraic one, whose memo limit of 2 evicts, and its points: every
    coefficient and point fills its 4096 bits, so that 192 and 1024 bits
    round each one."""
    kind = draw(st.sampled_from([ALGEBRAIC, "linear", TRIGONOMETRIC,
                                 EXPONENTIAL]))
    n = 1 if kind == "linear" else draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**64)))
    c = [_bits_number(rng, 4096, -2, 2) for _ in range(2 * n + 1)]
    if kind in (ALGEBRAIC, "linear"):
        poly = AlgebraicPoly(c[:n], precision_bits=4096)
    else:
        cls = TrigPoly if kind == TRIGONOMETRIC else ExpPoly
        poly = cls(c[0], c[1:n + 1], c[n + 1:], precision_bits=4096)
    return poly, [_bits_number(rng, 4096, -2, 2) for _ in range(6)]


@settings(max_examples=30, deadline=None)
@given(case=stored_coefficient_forms())
def test_no_constant_crosses_precisions(case):
    """The mpf stages keep their constants per precision, beside the
    fixed-point stages kept per scale.  One instance read at 192, 1024,
    4096, 1024 and 192 bits, at a point every visit reads and one new to
    it, with a fixed-point stage taken at a scale equal to the precision
    first, gives the raw bits of a fresh instance at every kernel."""
    poly, points = case
    for visit, bits in enumerate((192, 1024, 4096, 1024, 192)):
        poly.fixed_stage(bits)
        for x in (points[0], points[visit + 1]):
            for kernel, _ in KERNELS:
                assert kernel(poly, x, bits)._mpf_ == \
                    kernel(replace(poly), x, bits)._mpf_, \
                    (kernel.__name__, visit, bits)


@st.composite
def coupling_pairs(draw, family):
    """(bits, a series of `family` and degree 1-12 at bits, x_i, x_j): any
    pair, a pair just above the collision threshold, for the
    trigonometric family a pair within 2**-20 of u = +-pi or +-2pi, and for
    the exponential one a pair with |x| up to 40."""
    bits = draw(st.sampled_from([128, 192, 256, 1024, 4096]))
    n = draw(st.integers(1, 12))
    cls = TrigPoly if family == TRIGONOMETRIC else ExpPoly
    poly = cls(0, [0] * (n - 1) + [1], [0] * n, precision_bits=bits)
    kind = draw(st.sampled_from(["any", "any", "collision",
                                 "pi" if family == TRIGONOMETRIC else "far"]))
    rng = random.Random(draw(st.integers(0, 2**64)))
    reach = 40 if kind == "far" else 4
    x = _bits_number(rng, bits, -reach, reach)
    with mp.workprec(bits):
        if kind == "collision":
            other = x + mp.mpf(2) ** (-mp.mpf(bits) / 2) * _bits_number(
                rng, 53, 1.0625, 4) * draw(st.sampled_from([1, -1]))
        elif kind == "pi":
            offset = mp.ldexp(draw(st.sampled_from([1, -1])),
                              -draw(st.integers(20, bits // 2 - 2)))
            other = x + draw(st.sampled_from([1, -1, 2, -2])) * mp.pi + offset
        else:
            other = _bits_number(rng, bits, -reach, reach)
    return bits, poly, x, other


@pytest.mark.parametrize("family", [TRIGONOMETRIC, EXPONENTIAL])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_product_coupling_is_within_an_ulp_of_the_half_cotangent(family,
                                                                      data):
    """The series coupling term formed from the two points' basis pairs
    (log_derivative_sum given the polynomial): within 1 ulp at `bits` of
    mp.cot or mp.coth of the exact half difference at twice the precision,
    or, where the family's half_cotangent is called, bit-equal to the term
    without the polynomial; and odd in the pair bit for bit.  With one
    other root of multiplicity 2 the term is c itself."""
    bits, poly, x, other = data.draw(coupling_pairs(family))
    if x == other:
        return
    with pytest.MonkeyPatch.context() as patch:
        calls = count_family_calls(patch, family)
        try:
            got = log_derivative_sum(family, [other], [2], x, bits, poly=poly)
        except CollisionError:
            with pytest.raises(CollisionError):
                log_derivative_sum(family, [other], [2], x, bits)
            return
        fallback = calls["half_cotangent"]
        back = log_derivative_sum(family, [x], [2], other, bits, poly=poly)
    assert back._mpf_ == mpf_neg(got._mpf_)
    if fallback:
        assert got._mpf_ == log_derivative_sum(family, [other], [2], x,
                                               bits)._mpf_
        return
    with mp.workprec(2 * bits):
        half = mp.fsub(x, other, exact=True) / 2
        want = mp.cot(half) if family == TRIGONOMETRIC else mp.coth(half)
    assert ulps_apart(got, want, bits) <= 1, (x, other)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_the_fixed_point_stage_is_the_mpf_ratio(family, data):
    """A coefficient form's `fixed_stage` at a sweep's scale 2**frac, at
    256 and 512 bits: at a point away from the roots, G = f'/f * 2**frac
    within 4 units and 2**(16 - bits) |G| of the mpf kernels' ratio at 2
    bits; and at a point near a root, where |f| crosses its rounding
    bound, None exactly where |f| <= `evaluation_noise` at bits, wherever
    |f| lies outside a factor of 4 of that bound."""
    form, away = data.draw(configurations(family, precisions=(256, 512)))
    bits = form.precision_bits
    poly = expand_from_roots(form)
    k = data.draw(st.integers(0, len(form.config.roots) - 1))
    alpha = form.config.multiplicities[k]
    e = data.draw(st.integers(bits // alpha - 24, bits // alpha + 24))
    with mp.workprec(bits):
        near = form.config.roots[k] + data.draw(st.sampled_from([-1, 1])) \
            * mp.ldexp(1, -e)
    for x in (away, near):
        frac = solver._fixed_scale([x._mpf_], bits)
        basis, _, ratio = poly.fixed_stage(frac)
        point = to_fixed(x._mpf_, frac)
        got = ratio(point, basis(point), bits)
        with mp.workprec(bits):
            f, bound = evaluate(poly, x, bits), evaluation_noise(poly, x, bits)
            if abs(f) > 4 * bound:
                assert got is not None, (x, f, bound)
            elif 4 * abs(f) < bound:
                assert got is None, (x, f, bound)
        if x is away:
            with mp.workprec(2 * bits):
                want = mp.ldexp(evaluate_derivative(poly, x, 2 * bits)
                                / evaluate(poly, x, 2 * bits), frac)
                assert abs(got - want) <= 4 + mp.ldexp(abs(want), 16 - bits)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(53, 4096), x=st.one_of(
    st.sampled_from([mp.nan, mp.inf, -mp.inf]),
    st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
              st.integers(-2**300, 2**300), st.integers(-4000, 4000))))
@example(bits=53, x=mp.mpf(0))
@example(bits=4096, x=mp.nan)
@example(bits=4096, x=mp.inf)
@example(bits=53, x=-mp.inf)
@example(bits=4096, x=mp.ldexp(1, -1400))  # a decimal exponent below -400
@example(bits=4096, x=mp.ldexp(-3, 1400))  # and one above 400
def test_format_real_writes_the_canonical_form(bits, x):
    """Every finite real `format_real` writes, at any precision, is a
    string in the form `load_report` parses on first read (`_CANONICAL`),
    and parses back to the value.  A nan or infinite one is not in that
    form, and `checked_real` refuses it."""
    text = format_real(x, bits)
    if not mp.isfinite(x):
        assert not _CANONICAL.fullmatch(text), text
        with pytest.raises(SchemaError, match="x: non-finite real"):
            checked_real(text, bits, "x")
        return
    assert _CANONICAL.fullmatch(text), text
    assert (checked_real(text, bits, "x")._mpf_
            == mp.mpf(x, prec=bits)._mpf_)


# the canonical form with an exponent of up to six digits
BOUNDED = _CANONICAL.pattern.replace("[0-9]+)?", "[0-9]{1,6})?")
assert BOUNDED != _CANONICAL.pattern


@settings(max_examples=100, deadline=None)
@given(text=st.from_regex(BOUNDED, fullmatch=True),
       bits=st.sampled_from([53, 192, 1024, 4096]))
def test_every_canonical_string_parses(text, bits):
    """A report's list in the canonical form is parsed on first read, so
    no string of that form may fail: each parses to a finite real."""
    assert _CANONICAL.fullmatch(text)
    checked_real(text, bits, "x")


def read_as_reference(text, bits):
    """`parse_real(text, bits)`, which must give the bits mpmath's own
    reader gives."""
    value = parse_real(text, bits)
    assert value._mpf_ == reference_parse(text, bits)._mpf_, (text, bits)
    return value


def assert_reference_conversions(x, bits):
    """`x` written and read back as mpmath's own conversions do, and its
    six-digit text as mp.nstr gives it."""
    text = format_real(x, bits)
    assert text == reference_format(x, bits), (x, bits)
    read_as_reference(text, bits)
    if isinstance(x, mp.mpf):
        assert format_digits(x, 6) == mp.nstr(x, 6), x


@st.composite
def digit_edge_reals(draw):
    """A real whose |exp + bc| is 3499, 3500 or 3501: either side of where
    libmp stops taking its digits in exact integer arithmetic."""
    man = draw(st.integers(1, 2 ** 4200))
    lead = draw(st.sampled_from((-1, 1))) * draw(st.integers(3499, 3501))
    sign = draw(st.sampled_from((-1, 1)))
    return mp.make_mpf(from_man_exp(sign * man, lead - man.bit_length()))


@st.composite
def nines(draw, bits):
    """9.99...9d * 10**e, with about as many nines as one of the digit
    counts holds: rounding carries to a new leading digit, near both ends
    of the fixed-point layout."""
    dps = draw(st.sampled_from((decimal_digits(bits), 6)))
    run = max(dps + draw(st.integers(-3, 2)), 0)
    last = draw(st.sampled_from("0123456789"))
    # zero, and the ends of the fixed-point layout
    base = draw(st.sampled_from((0, min(-(dps // 3), -5), dps)))
    power = base + draw(st.integers(-3, 2))
    return f"9.{'9' * run}{last}e{power:+d}"


@st.composite
def decimal_edge_texts(draw):
    """Canonical strings whose decimal exponent, after the fraction digits
    are counted, is 0, -1 or lies on either side of +-400, where libmp's
    reader stops rounding in exact integer arithmetic; with leading zeros,
    trailing zeros and a sign."""
    sign = draw(st.sampled_from(("", "-")))
    whole = "0" * draw(st.integers(0, 3)) + draw(st.from_regex(
        r"[0-9]{1,40}", fullmatch=True))
    fraction = draw(st.from_regex(r"[0-9]{1,40}", fullmatch=True))
    fraction += "0" * draw(st.integers(0, 3))
    power = draw(st.sampled_from((-401, -400, -399, 399, 400, 401, 0, -1)))
    exponent = power + len(fraction.rstrip("0"))
    return f"{sign}{whole}.{fraction}" + (f"e{exponent:+d}" if exponent
                                          else "")


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(53, 4096), x=digit_edge_reals())
def test_format_real_at_the_digit_edge(bits, x):
    assert_reference_conversions(x, bits)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(53, 4096), data=st.data())
@example(bits=53, data=None)
def test_format_real_carries_through_nines(bits, data):
    texts = (["9.99999996", "99.999996", "9.9999996e-6", "9.999996e+5"]
             if data is None else [data.draw(nines(bits))])
    for text in texts:
        assert_reference_conversions(read_as_reference(text, bits), bits)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(53, 4096), text=decimal_edge_texts())
@example(bits=53, text="2.500")
@example(bits=192, text="007.5")
@example(bits=192, text="-0.0")
@example(bits=4096, text="-000.000e-400")
# decimal exponents 401 and -401, where libmp's reader rounds twice and
# misses the nearest value; with a trailing zero, 401 still
@example(bits=53, text="2.798767490390833221e+419")
@example(bits=53, text="2.7987674903908332210e+419")
@example(bits=53, text="1.5469648559226313571e-382")
def test_parse_real_at_the_exponent_edge(bits, text):
    assert_reference_conversions(read_as_reference(text, bits), bits)


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(53, 4096), x=st.one_of(
    st.integers(-2 ** 4200, 2 ** 4200),
    st.floats(allow_nan=False, allow_infinity=False)))
def test_json_numbers_take_the_reference_conversions(bits, x):
    """An int or float is written, and read as a JSON number, as mpmath's
    own conversions do."""
    assert format_real(x, bits) == reference_format(x, bits)
    assert_reference_conversions(read_as_reference(x, bits), bits)
