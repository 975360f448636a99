"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions are the binding gate either way.
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
    check_conditions,
    classical_ehrlich_step,
    estimate_order,
    expand_from_roots,
    feasible_point_trigonometric,
    initial_state,
    max_feasible_c,
    newton_with_multiplicity,
    simple_root_reduction_residual,
    solve,
    step,
    verify_roots,
    log_derivative_sum,
)
from multiroots.polynomials import gaps
from multiroots.precision import ulps_apart
from conftest import random_configuration, random_simple_roots

EXAMPLES = {
    ALGEBRAIC: dict(roots=("2", "3", "5"), mults=(2, 3, 1),
                    initial=("0.4", "3.5", "8"), within=4),
    TRIGONOMETRIC: dict(roots=("1", "2", "2.5"), mults=(3, 2, 1),
                        initial=("0.2", "1.7", "3"), within=5),
    EXPONENTIAL: dict(roots=("-2", "3"), mults=(2, 2),
                      initial=("-1", "4"), within=4),
}

BASELINE_TARGETS = {
    ALGEBRAIC: ("2", 2, "2.2"),       # root, multiplicity, start
    TRIGONOMETRIC: ("1", 3, "1.2"),
    EXPONENTIAL: ("-2", 2, "-1.7"),
}


def example_poly(family, bits, expanded=None):
    case = EXAMPLES[family]
    cfg = RootConfiguration(case["roots"], case["mults"], precision_bits=bits)
    form = FactoredForm(family, cfg, precision_bits=bits)
    if expanded is None:
        expanded = family == ALGEBRAIC  # criterion 1 solves the expanded form
    return expand_from_roots(form) if expanded else form


def _passfail(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("family,criterion", [
    (ALGEBRAIC, "criterion 1 (algebraic example, 18 digits in 4 sweeps)"),
    (TRIGONOMETRIC, "criterion 2 (trigonometric example, 18 digits in 5 sweeps)"),
    (EXPONENTIAL, "criterion 3 (exponential example, 18 digits in 4 sweeps)"),
])
def test_bundled_example_reproduction(family, criterion):
    bits = 192
    case = EXAMPLES[family]
    poly = example_poly(family, bits)
    started = time.perf_counter()
    report = solve(poly, case["mults"], case["initial"],
                   SolveSettings(precision_bits=bits),
                   true_roots=case["roots"])
    elapsed = time.perf_counter() - started
    k = case["within"]
    worst = max(report.trace[k].errors)
    ok = (worst <= mp.mpf("1e-18") and report.termination == "converged"
          and elapsed < 1.0)
    _passfail(criterion, ok,
              f"max error {mp.nstr(worst, 4)} at sweep {k}, "
              f"{report.termination} in {elapsed:.2f}s")


def test_cubic_order_and_quadratic_baseline():
    bits = 256
    lines = []
    ok = True
    for family, case in EXAMPLES.items():
        poly = example_poly(family, bits)
        report = solve(poly, case["mults"], case["initial"],
                       SolveSettings(precision_bits=bits),
                       true_roots=case["roots"])
        order = report.estimated_order
        ok &= order is not None and mp.mpf("2.6") <= order <= mp.mpf("3.4")

        root, mult, start = BASELINE_TARGETS[family]
        trace = newton_with_multiplicity(
            poly, mult, start,
            SolveSettings(precision_bits=bits, max_iterations=40))
        errors = trace.errors_against(mp.mpf(root))
        floor = mp.mpf(2) ** (8 - bits) * 8
        base = estimate_order(errors, floor=floor).order
        ok &= mp.mpf("1.7") <= base <= mp.mpf("2.3")
        lines.append(f"{family}: coupled {mp.nstr(order, 4)}, "
                     f"baseline {mp.nstr(base, 4)}")
    _passfail("criterion 4 (cubic order vs quadratic baseline at 256 bits)",
              ok, "; ".join(lines))


def test_simple_root_reduction_suite():
    rng = random.Random(42)
    worst_residual = mp.mpf(0)
    for _ in range(100):
        m = rng.randint(2, 5)
        roots = random_simple_roots(rng, m)
        i = rng.randrange(m)
        res = simple_root_reduction_residual(roots, i, bits=53)
        lds = log_derivative_sum(
            ALGEBRAIC, [r for j, r in enumerate(roots) if j != i],
            [1] * (m - 1), roots[i], 53)
        rel = abs(res) / max(abs(2 * lds), mp.mpf(1))
        worst_residual = max(worst_residual, rel)
    ok = worst_residual <= mp.mpf("1e-10")

    worst_ulps = 0.0
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
            worst_ulps = max(worst_ulps, float(ulps_apart(a, b, 53)))
    ok &= worst_ulps <= 4
    _passfail("criterion 5 (simple-root reduction suite)", ok,
              f"worst identity residual {mp.nstr(worst_residual, 3)} rel, "
              f"worst step disagreement {worst_ulps:.2f} ulp")


def test_condition_predicates_match_behavior():
    bits = 128
    q = mp.mpf("0.5")
    rng = random.Random(777)
    lines = []
    ok = True
    for family, case in EXAMPLES.items():
        if family == TRIGONOMETRIC:
            params = feasible_point_trigonometric(
                case["roots"], case["mults"], q, bits=bits)
        else:
            probe = ConvergenceParams(
                family=family, c="0.001", q=q, roots=case["roots"],
                multiplicities=case["mults"], precision_bits=bits)
            c_max = max_feasible_c(probe)
            params = ConvergenceParams(
                family=family, c=c_max, q=q, roots=case["roots"],
                multiplicities=case["mults"], precision_bits=bits)
        verdict = check_conditions(params)
        ok &= verdict.passed

        poly = example_poly(family, bits, expanded=True)
        cfg_roots = params.roots
        violations = 0
        worst_ratio = mp.mpf(0)
        for _ in range(20):
            initial = [r + mp.mpf(rng.uniform(-1, 1)) * params.c * q
                       for r in cfg_roots]
            report = solve(poly, case["mults"], initial,
                           SolveSettings(precision_bits=bits,
                                         max_iterations=3),
                           true_roots=cfg_roots)
            for k in (1, 2, 3):
                bound = params.c * q ** (3 ** k)
                err = max(report.trace[k].errors)
                worst_ratio = max(worst_ratio, err / bound)
                if err > bound:
                    violations += 1
        ok &= violations == 0
        lines.append(f"{family}: c={mp.nstr(params.c, 4)}, "
                     f"worst err/bound {mp.nstr(worst_ratio, 3)}")
    _passfail("criterion 6 (condition predicates vs observed contraction)",
              ok, "; ".join(lines))


def test_roundtrip_oracle_equivalence():
    bits = 128
    tolerance = mp.mpf(10) ** -10  # 10^-ceil(0.302*bits/4)
    failures = []
    for offset, family in enumerate((ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL)):
        rng = random.Random(555 + offset)
        for case_idx in range(50):
            cfg = random_configuration(rng, family, bits=bits)
            poly = expand_from_roots(FactoredForm(family, cfg,
                                                  precision_bits=bits))
            d = gaps(cfg.roots)[0]
            perturbed = [r + mp.mpf(rng.uniform(-1, 1)) * d / 10
                         for r in cfg.roots]
            report = solve(poly, cfg.multiplicities, perturbed,
                           SolveSettings(precision_bits=bits),
                           true_roots=cfg.roots)
            if report.termination != "converged":
                failures.append(f"{family}#{case_idx}: {report.termination}")
                continue
            claimed = RootConfiguration(report.final, cfg.multiplicities,
                                        precision_bits=bits)
            outcome = verify_roots(poly, claimed, tolerance, bits=bits)
            if not outcome.passed:
                failures.append(f"{family}#{case_idx}: verification failed")
    _passfail("criterion 7 (expand-solve-verify round trip, 150 configs)",
              not failures, "; ".join(failures) or "all converged and verified")
