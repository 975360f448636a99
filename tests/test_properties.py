"""Property tests of the per-family kernels against independent evaluations.

Each test draws factored configurations of one family and compares what the
`FAMILY` table drives (factor, derivative, coupling, basis, derivative sign,
envelope, roots per degree, problem-file keys) with a computation that does
not read the table: the coefficient ladder of `verification`, the quotient
F'/F of a factored form, and the problem-file layout the README documents.
"""

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    FAMILIES,
    TRIGONOMETRIC,
    FactoredForm,
    RootConfiguration,
    evaluate,
    evaluate_derivative,
    expand_from_roots,
    log_derivative_sum,
    magnitude_scale,
)
from multiroots.polynomials import _series_basis
from multiroots.precision import format_real
from multiroots.report_io import problem_from_dict, problem_to_dict
from multiroots.verification import _derivative_ladder

# the coefficient keys of a series problem file, as the README states them
FILE_KEYS = {TRIGONOMETRIC: ("cos", "sin"), EXPONENTIAL: ("ch", "sh")}

FEW = settings(max_examples=15, deadline=None)


@st.composite
def configurations(draw, family):
    """(factored form, point at least 0.1 away from every root).

    Roots stay inside [-2.4, 1.7], within one period of the trigonometric
    factor, and the series families get an even total multiplicity.
    """
    bits = draw(st.sampled_from([53, 96, 160, 256]))
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
        basis = _series_basis(family, x, n)
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
