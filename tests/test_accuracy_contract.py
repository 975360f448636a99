"""The accuracy contract: what a solve guarantees beyond its own bits.

Each part runs on seeded `random_configuration` samples of every family,
in factored form and, where the part covers it, coefficient form, at 128
bits and at 1024 bits, where the precision ladder runs the early sweeps
below full precision.
"""

import random
import time

import pytest
from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    ConvergenceParams,
    FactoredForm,
    RootConfiguration,
    SolveSettings,
    expand_from_roots,
    feasible_point_trigonometric,
    max_feasible_c,
    solve,
)
from multiroots import polynomials
from multiroots.polynomials import gaps
from multiroots.precision import working
from multiroots.solver import (CONVERGED, MAX_ITERATIONS, SEQUENTIAL,
                               SIMULTANEOUS, _sweep)
from conftest import random_configuration

FAMILIES = (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL)
PRECISIONS = (128, 1024)
Q = "0.5"


def forms(family, cfg, bits):
    """The configuration's factored form and its coefficient expansion."""
    factored = FactoredForm(family, cfg, precision_bits=bits)
    return {"factored": factored, "coefficients": expand_from_roots(factored)}


def feasible_c(family, cfg, bits):
    """A c that passes the family's condition at q = Q: the largest by
    bisection, or the trigonometric search's."""
    if family == TRIGONOMETRIC:
        return feasible_point_trigonometric(cfg.roots, cfg.multiplicities, Q,
                                            bits=bits).c
    return max_feasible_c(ConvergenceParams(
        family=family, c="0.001", q=Q, roots=cfg.roots,
        multiplicities=cfg.multiplicities, precision_bits=bits))


def raw(values):
    return None if values is None else tuple(v._mpf_ for v in values)


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_errors_stay_within_the_a_priori_bound(family, bits):
    # the paper: from starts within c*q of the roots, the largest error
    # after sweep k is at most c*q**(3**k).  Rounding ends the descent at a
    # floor: about 2**-bits for a factored form, and about eps**(1/alpha)
    # for a coefficient form, where an alpha-fold root freezes
    rng = random.Random(f"a-priori bound {family} {bits}")
    violations, worst = [], 0
    for sample in range(10):
        cfg = random_configuration(rng, family, bits)
        c = feasible_c(family, cfg, bits)
        with working(bits):
            q = mp.mpf(Q)
            initial = [r + mp.mpf(rng.uniform(-1, 1)) * c * q
                       for r in cfg.roots]
            for form, poly in forms(family, cfg, bits).items():
                floor = mp.mpf(2) ** (40 - bits)
                if form == "coefficients":
                    floor **= mp.mpf(1) / max(cfg.multiplicities)
                bounds = []
                while c * q ** (3 ** (len(bounds) + 1)) > floor:
                    bounds.append(c * q ** (3 ** (len(bounds) + 1)))
                for mode in (SIMULTANEOUS, SEQUENTIAL):
                    report = solve(poly, cfg.multiplicities, initial,
                                   SolveSettings(precision_bits=bits,
                                                 max_iterations=len(bounds),
                                                 sweep_mode=mode),
                                   true_roots=cfg.roots)
                    assert report.termination in (CONVERGED, MAX_ITERATIONS)
                    for entry, bound in zip(report.trace[1:], bounds):
                        ratio = max(entry.errors) / bound
                        worst = max(worst, ratio)
                        if ratio > 1:
                            violations.append((sample, form, mode, entry.k,
                                               mp.nstr(ratio, 3)))
    assert not violations, f"worst error/bound {mp.nstr(worst, 3)}"


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_simultaneous_solve_commutes_with_a_permutation(family, bits):
    # every sweep reads the same incoming approximations and sums the
    # coupling terms with one rounding, so the roots' order is a label
    rng = random.Random(f"permutation {family} {bits}")
    for _ in range(5):
        cfg = random_configuration(rng, family, bits)
        m = len(cfg.roots)
        order = list(range(m))
        while order == sorted(order):
            rng.shuffle(order)

        def permuted(values):
            return None if values is None else tuple(values[i] for i in order)

        with working(bits):
            initial = [r + mp.mpf(rng.uniform(-0.1, 0.1)) for r in cfg.roots]
        settings = SolveSettings(precision_bits=bits)
        for poly in forms(family, cfg, bits).values():
            report = solve(poly, cfg.multiplicities, initial, settings,
                           true_roots=cfg.roots)
            other = solve(poly, permuted(cfg.multiplicities),
                          permuted(initial), settings,
                          true_roots=permuted(cfg.roots))
            assert ((other.termination, other.iterations_used)
                    == (report.termination, report.iterations_used))
            assert raw(other.final) == raw(permuted(report.final))
            assert other.estimated_order == report.estimated_order
            for a, b in zip(report.trace, other.trace):
                assert b.precision_bits == a.precision_bits
                for key in ("approximations", "residuals", "corrections",
                            "errors"):
                    assert raw(getattr(b, key)) == raw(
                        permuted(getattr(a, key))), (a.k, key)


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_factored_sweep_is_within_an_ulp_of_the_sweep_at_twice_the_bits(
        family, bits):
    # a factored form keeps a small relative error in f and f', so the
    # sweep from any iterates a solve reaches rounds its new iterates
    # within 1 ulp of max(|x|, 1) of the same sweep at 2 * bits; its last
    # bits may move, this far and no further
    rng = random.Random(f"sweep at twice the bits {family} {bits}")
    violations, worst = [], 0
    for sample in range(10):
        cfg = random_configuration(rng, family, bits)
        form = FactoredForm(family, cfg, precision_bits=bits)
        fine = FactoredForm(family, cfg, precision_bits=2 * bits)
        with working(bits):
            gap = gaps(cfg.roots)[0]
            initial = [r + mp.mpf(rng.uniform(-0.3, 0.3)) * gap
                       for r in cfg.roots]
        for mode in (SIMULTANEOUS, SEQUENTIAL):
            report = solve(form, cfg.multiplicities, initial,
                           SolveSettings(precision_bits=bits, sweep_mode=mode))
            for entry in report.trace:
                got, _ = _sweep(form, cfg.multiplicities,
                                entry.approximations, bits, mode)
                want, _ = _sweep(fine, cfg.multiplicities,
                                 entry.approximations, 2 * bits, mode)
                with working(2 * bits):
                    for i, (a, b) in enumerate(zip(got, want)):
                        ulp = mp.mpf(2) ** (mp.mag(max(abs(b), 1)) - bits)
                        ratio = abs(a - b) / ulp
                        worst = max(worst, ratio)
                        if ratio > 1:
                            violations.append((sample, mode, entry.k, i,
                                               mp.nstr(ratio, 3)))
    assert not violations, f"worst {mp.nstr(worst, 3)} ulp"


def ulps_off(got, want, bits):
    """The largest |a - b| over the pairs, in ulps of max(|b|, 1) at
    `bits`, with the index where it falls."""
    with working(2 * bits):
        ratios = [abs(a - b) / mp.mpf(2) ** (mp.mag(max(abs(b), 1)) - bits)
                  for a, b in zip(got, want)]
    worst = max(ratios)
    return worst, ratios.index(worst)


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_factored_sweep_from_close_iterates_is_within_an_ulp(family, bits):
    # two iterates 2**-26 to 2**-60 apart couple by a term near 1/d, far
    # above the others: the fixed-point sweep sums its terms exactly, so
    # the pair costs no bits, and each new iterate still rounds within 1
    # ulp of max(|x|, 1) of the same sweep at 2 * bits from the same
    # inputs.  A sequential coordinate reads the entries updated before
    # it, rounded to `bits`, and a rounding of 2**-bits in a partner d
    # away moves its term by 2**-bits / d: so its reference is the 2 * bits
    # sweep of that coordinate from those entries
    rng = random.Random(f"close iterates {family} {bits}")
    violations, worst = [], 0
    for sample in range(20):
        cfg = random_configuration(rng, family, bits)
        form = FactoredForm(family, cfg, precision_bits=bits)
        fine = FactoredForm(family, cfg, precision_bits=2 * bits)
        i, j = rng.sample(range(len(cfg.roots)), 2)
        with working(bits):
            gap = gaps(cfg.roots)[0]
            start = [r + mp.mpf(rng.uniform(-0.3, 0.3)) * gap
                     for r in cfg.roots]
            apart = mp.mpf(2) ** -rng.randint(26, 60)
            start[j] = start[i] + rng.choice((-1, 1)) * apart
        for mode in (SIMULTANEOUS, SEQUENTIAL):
            got, _ = _sweep(form, cfg.multiplicities, start, bits, mode)
            if mode == SIMULTANEOUS:
                want, _ = _sweep(fine, cfg.multiplicities, start, 2 * bits,
                                 mode)
            else:
                want = [_sweep(fine, cfg.multiplicities,
                               got[:k] + tuple(start[k:]), 2 * bits,
                               SIMULTANEOUS)[0][k] for k in range(len(got))]
            ratio, k = ulps_off(got, want, bits)
            worst = max(worst, ratio)
            if ratio > 1:
                violations.append((sample, mode, k, mp.nstr(ratio, 3)))
    assert not violations, f"worst {mp.nstr(worst, 3)} ulp"


@pytest.mark.parametrize("bits", PRECISIONS)
def test_an_exponential_sweep_with_a_far_iterate(monkeypatch, bits):
    # an iterate 10**6 from every root, inside a solve's escape radius,
    # takes its coupling terms as 1/2 outright rather than from e^u, an
    # integer of 1.44e6 bits: no exp_fixed call sees an argument past its
    # scale's bit count, the sweep takes milliseconds, and it rounds within
    # 1 ulp of the same sweep at 2 * bits
    largest = []
    real = polynomials.exp_fixed

    def recorded(x, prec):
        largest.append((x >> prec) / prec)
        return real(x, prec)

    monkeypatch.setattr(polynomials, "exp_fixed", recorded)
    cfg = RootConfiguration(("-1.1", "0.2", "1.4"), (2, 1, 3),
                            precision_bits=bits)
    form = FactoredForm(EXPONENTIAL, cfg, precision_bits=bits)
    fine = FactoredForm(EXPONENTIAL, cfg, precision_bits=2 * bits)
    with working(bits):
        start = [mp.mpf("-1.05"), mp.mpf("0.27"), mp.mpf(10) ** 6]
    for mode in (SIMULTANEOUS, SEQUENTIAL):
        begun = time.perf_counter()
        got, _ = _sweep(form, cfg.multiplicities, start, bits, mode)
        assert time.perf_counter() - begun < 1
        want, _ = _sweep(fine, cfg.multiplicities, start, 2 * bits, mode)
        assert ulps_off(got, want, bits)[0] <= 1, mode
    assert largest and max(largest) < 1
