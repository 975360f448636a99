import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    ConvergenceParams,
    InsufficientDataError,
    InvalidConfigurationError,
    check_conditions,
    estimate_order,
    feasible_point_trigonometric,
    max_feasible_c,
)
from multiroots import convergence
from multiroots.convergence import GRID, MIN_WINDOW
from multiroots.precision import working
from conftest import random_configuration

EX1 = dict(roots=("2", "3", "5"), mults=(2, 3, 1))
EX2 = dict(roots=("1", "2", "2.5"), mults=(3, 2, 1))
EX3 = dict(roots=("-2", "3"), mults=(2, 2))


def params(family, case, c, q="0.5", kappa=None, bits=53):
    return ConvergenceParams(family=family, c=c, q=q, roots=case["roots"],
                             multiplicities=case["mults"], kappa=kappa,
                             precision_bits=bits)


class TestAlgebraicCondition:
    def test_zero_c_fails_strict_positivity(self):
        verdict = check_conditions(params(ALGEBRAIC, EX1, 0))
        assert not verdict.passed
        failing = {c.name for c in verdict.failing}
        assert any(name.startswith("0 < c^2") for name in failing)

    def test_separation_clause_named_on_failure(self):
        # d = 1 here, so c = 0.5 kills d - 2c > 0 with otherwise-benign values
        verdict = check_conditions(params(ALGEBRAIC, EX1, "0.5"))
        assert not verdict.passed
        assert "d - 2c > 0" in {c.name for c in verdict.failing}

    def test_max_feasible_c_matches_closed_form(self):
        # binding clause is the simple root: 3c^2 + 8c < 1, c* = (-4 + sqrt(19))/3
        p = params(ALGEBRAIC, EX1, "0.01")
        c_max = max_feasible_c(p)
        c_star = (-4 + mp.sqrt(19)) / 3
        assert abs(c_max - c_star) <= mp.mpf("1e-6")
        assert check_conditions(params(ALGEBRAIC, EX1, c_max)).passed
        above = c_max * mp.mpf("1.01")
        assert not check_conditions(params(ALGEBRAIC, EX1, above)).passed

    def test_monotone_in_c_below_feasible_maximum(self):
        p = params(ALGEBRAIC, EX1, "0.01")
        c_max = max_feasible_c(p)
        for k in range(1, 11):
            c = c_max * k / 10
            assert check_conditions(params(ALGEBRAIC, EX1, c)).passed

    def test_boolean_multiplicity_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            params(ALGEBRAIC, dict(EX1, mults=(2, True, 1)), "0.1")


class TestTrigCondition:
    def test_kappa_not_above_2c_fails(self):
        verdict = check_conditions(
            params(TRIGONOMETRIC, EX2, "0.1", kappa="0.2"))
        assert not verdict.passed
        assert "2c < kappa" in {c.name for c in verdict.failing}

    def test_grid_search_finds_feasible_point(self):
        best = feasible_point_trigonometric(EX2["roots"], EX2["mults"], "0.5")
        verdict = check_conditions(best)
        assert verdict.passed
        assert "A" in verdict.computed
        assert verdict.computed["A"] > 0

    def test_wide_spread_fails_max_gap_clause(self):
        wide = dict(roots=("0", "3"), mults=(1, 1))
        verdict = check_conditions(
            params(TRIGONOMETRIC, wide, "0.1", kappa="1.7"))
        assert not verdict.passed
        assert "max gap < 2 pi - 2 kappa" in {c.name for c in verdict.failing}

    def test_kappa_required(self):
        with pytest.raises(InvalidConfigurationError):
            params(TRIGONOMETRIC, EX2, "0.1")  # no kappa
        with pytest.raises(InvalidConfigurationError):
            params(ALGEBRAIC, EX1, "0.1", kappa="1.0")


def grid_reference(roots, multiplicities, q, bits=53):
    """The full GRID x GRID search over (c, kappa): at each c, largest
    first, every kappa on the grid, largest first."""
    probe = ConvergenceParams(
        family=TRIGONOMETRIC, c="0.001", q=q, roots=roots,
        multiplicities=multiplicities, kappa="0.01", precision_bits=bits)
    with working(bits):
        kappa_hi = mp.pi - probe.max_gap / 2
        for ic in range(GRID, 0, -1):
            c = probe.d / 2 * ic / (GRID + 1)
            for ik in range(GRID, 0, -1):
                kappa = 2 * c + (kappa_hi - 2 * c) * ik / (GRID + 1)
                if kappa <= 0:
                    continue
                trial = replace(probe, c=c, kappa=kappa)
                if check_conditions(trial).passed:
                    return trial
    raise InvalidConfigurationError("no feasible (c, kappa) on the search grid")


def search_outcome(search, *args, **kwargs):
    try:
        found = search(*args, **kwargs)
    except InvalidConfigurationError as exc:
        return str(exc)
    return found.c._mpf_, found.kappa._mpf_


def seeded_trigonometric_cases():
    rng = random.Random(2101)
    for q, bits in [("0.1", 53), ("0.5", 53), ("0.9", 53), ("0.1", 192),
                    ("0.5", 192), ("0.9", 192)]:
        cfg = random_configuration(rng, TRIGONOMETRIC, bits,
                                   gap_range=(0.3, 1.5))
        yield pytest.param(cfg.roots, cfg.multiplicities, q, bits,
                           id=f"seeded-q{q}-{bits}")


class TestTrigonometricScan:
    """`feasible_point_trigonometric` checks one kappa per c: the grid's
    largest, which decides the whole kappa column."""

    @pytest.mark.parametrize("roots, mults, q, bits", [
        pytest.param(EX2["roots"], EX2["mults"], "0.5", 53, id="example2-53"),
        pytest.param(EX2["roots"], EX2["mults"], "0.5", 128,
                     id="example2-128"),
        pytest.param(("0", "10"), (1, 1), "0.5", 53, id="infeasible"),
        *seeded_trigonometric_cases(),
    ])
    def test_same_point_as_the_full_grid(self, roots, mults, q, bits):
        assert (search_outcome(feasible_point_trigonometric, roots, mults, q,
                               bits=bits)
                == search_outcome(grid_reference, roots, mults, q, bits=bits))

    @pytest.mark.parametrize("roots, mults, checks", [
        (EX2["roots"], EX2["mults"], 38),
        (("0", "10"), (1, 1), GRID),
    ], ids=["example2", "infeasible"])
    def test_at_most_one_check_per_c(self, monkeypatch, roots, mults, checks):
        calls = []

        def counted(params):
            calls.append(params)
            return check_conditions(params)

        monkeypatch.setattr(convergence, "check_conditions", counted)
        search_outcome(feasible_point_trigonometric, roots, mults, "0.5")
        assert len(calls) == checks <= GRID


class TestExpCondition:
    def test_degenerate_separation_fails(self):
        # d = 5; c = 2.5 makes S = 0 and the per-root bound's right side 0
        verdict = check_conditions(params(EXPONENTIAL, EX3, "2.5"))
        assert not verdict.passed
        assert verdict.computed["S"] == 0
        failing = {c.name for c in verdict.failing}
        assert any("S^2" in name for name in failing)

    def test_bisection_boundary(self):
        p = params(EXPONENTIAL, EX3, "0.01")
        c_max = max_feasible_c(p)
        assert check_conditions(params(EXPONENTIAL, EX3, c_max)).passed
        above = c_max * mp.mpf("1.02")
        verdict = check_conditions(params(EXPONENTIAL, EX3, above))
        assert not verdict.passed
        # the constructed failure names a per-root inequality
        assert any("a_" in c.name for c in verdict.failing)


def log_ratio_orders(errors, window):
    # p_k = log(e_{k+1} / e_k) / log(e_k / e_{k-1}) across the window
    e = [mp.mpf(v) for v in errors]
    a, b = window
    return tuple(mp.log(e[k + 1] / e[k]) / mp.log(e[k] / e[k - 1])
                 for k in range(a + 1, b))


class TestEstimateOrder:
    def test_exact_cubic_sequence(self):
        est = estimate_order(["1e-1", "1e-3", "1e-9", "1e-27"])
        assert abs(est.order - 3) <= mp.mpf("1e-12")
        assert est.window == (0, 3)
        assert len(est.per_step_orders) == 2

    def test_exact_quadratic_sequence(self):
        est = estimate_order(["1e-1", "1e-2", "1e-4", "1e-8"])
        assert abs(est.order - 2) <= mp.mpf("1e-12")

    def test_scaling_invariance(self):
        errors = ["0.3", "0.02", "1.1e-5", "4e-14", "7e-40"]
        base = estimate_order(errors)
        scaled = estimate_order([mp.mpf(e) * mp.mpf("1e7") for e in errors])
        for a, b in zip(base.per_step_orders, scaled.per_step_orders):
            assert abs(a - b) <= mp.mpf("1e-12")

    def test_non_monotone_raises(self):
        with pytest.raises(InsufficientDataError):
            estimate_order(["1e-1", "1e-3", "1e-2", "1e-4"])

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            estimate_order(["1e-1", "1e-3", "1e-9"])

    def test_floor_saturated_tail_excluded(self):
        errors = ["1e-1", "1e-3", "1e-9", "1e-27", "3e-60", "2e-60"]
        est = estimate_order(errors, floor=mp.mpf("1e-55"))
        assert est.window == (0, 3)
        assert abs(est.order - 3) <= mp.mpf("1e-12")

    def test_zero_entries_never_enter_window(self):
        errors = ["1e-1", "1e-3", "1e-9", "1e-27", "0"]
        est = estimate_order(errors)
        assert est.window == (0, 3)

    @pytest.mark.parametrize("errors, floor, window", [
        (["1e-2", "1", "1e-1", "1e-3", "1e-9"], None, (1, 4)),
        (["1", "1e-1", "1e-3", "1e-9", "1e-9"], None, (0, 3)),
        (["1", "1e-1", "1e-3", "1e-9", "1", "1e-2", "1e-6", "1e-18", "1e-54"],
         None, (4, 8)),
        (["1", "1e-1", "1e-3", "1e-9", "1e-27", "1", "1e-2", "1e-6"], None,
         (0, 4)),
        (["1", "1e-1", "1e-3", "nan", "1e-4", "1e-8", "1e-16", "1e-32"], None,
         (4, 7)),
        (["1", "1e-1", "1e-3", "1e-9", "1e-20", "1e-20"], "1e-20", (0, 3)),
        ([f"1e-{3 ** k}" for k in range(MIN_WINDOW)], None,
         (0, MIN_WINDOW - 1)),
    ], ids=["one run to the end", "a tie at the end", "the last of two runs",
            "a shorter run after", "split by nan", "entries at the floor",
            "exactly MIN_WINDOW"])
    def test_window(self, errors, floor, window):
        est = estimate_order(errors, floor=floor)
        assert est.window == window
        orders = log_ratio_orders(errors, window)
        assert len(est.per_step_orders) == window[1] - window[0] - 1
        assert est.per_step_orders == orders
        assert est.order == orders[-1]

    @pytest.mark.parametrize("errors", [
        ["1", "1e-1", "1e-3", "1", "1e-1", "1e-3"], []],
        ids=["no run of MIN_WINDOW", "empty"])
    def test_no_window_raises(self, errors):
        with pytest.raises(InsufficientDataError):
            estimate_order(errors)


def last_run(values, floor):
    """(start, end) of the last maximal run of strictly decreasing entries
    above `floor` that holds at least MIN_WINDOW entries, or None."""
    runs, start = [], 0
    for k, v in enumerate(values):
        if not (v > floor and k and values[k - 1] > floor
                and v < values[k - 1]):
            start = k
        if v > floor and k - start + 1 >= MIN_WINDOW:
            if runs and runs[-1][0] == start:
                runs.pop()
            runs.append((start, k))
    return runs[-1] if runs else None


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(1, 2**53),
                                  st.integers(-120, 4)), max_size=14),
       floor=st.sampled_from([None, "1e-40", "1e-120"]))
def test_estimate_order_takes_the_two_log_formula(entries, floor):
    """Each per-step order reuses the log of the step before it as its
    denominator, and gives the bits of the formula that takes both logs at
    every step, on the last decreasing run above the floor."""
    errors, exponent = [], 0
    for mantissa, step in entries:
        exponent += step
        errors.append(mp.ldexp(mantissa, exponent - 53))
    window = last_run(errors, mp.mpf(0 if floor is None else floor))
    if window is None:
        with pytest.raises(InsufficientDataError):
            estimate_order(errors, floor=floor)
        return
    est = estimate_order(errors, floor=floor)
    orders = log_ratio_orders(errors, window)
    assert est.window == window
    assert est.per_step_orders == orders
    assert est.order == orders[-1]


BASE = ["q > 0", "q < 1", "c > 0", "d - 2c > 0"]


class TestConditionSchema:
    """Clause names and `computed` keys are written into reports: their
    order is part of the file format."""

    @pytest.mark.parametrize("family, case, kappa, names, keys", [
        (ALGEBRAIC, EX1, None,
         BASE + ["0 < c^2(n - 3a_0) + c(n + (3d - 1)a_0)",
                 "c^2(n - 3a_0) + c(n + (3d - 1)a_0) < d^2 a_0",
                 "0 < c^2(n - 3a_1) + c(n + (3d - 1)a_1)",
                 "c^2(n - 3a_1) + c(n + (3d - 1)a_1) < d^2 a_1",
                 "0 < c^2(n - 3a_2) + c(n + (3d - 1)a_2)",
                 "c^2(n - 3a_2) + c(n + (3d - 1)a_2) < d^2 a_2"],
         ["d", "n"]),
        (TRIGONOMETRIC, EX2, "1.0",
         BASE + ["kappa > 0", "2c < kappa", "max gap < 2 pi - 2 kappa"]
         + ["c^2(4n + a_0(9A^2/8 - 2)) < A^2 a_0",
            "c^2(4n + a_1(9A^2/8 - 2)) < A^2 a_1",
            "c^2(4n + a_2(9A^2/8 - 2)) < A^2 a_2"],
         ["A", "d", "n"]),
        (EXPONENTIAL, EX3, None,
         BASE + ["c^2(4n + (S^2 - 2)a_0) < S^2 a_0",
                 "c^2(4n + (S^2 - 2)a_1) < S^2 a_1"],
         ["S", "d", "n"]),
    ], ids=[ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL])
    def test_clause_names_and_computed_keys_in_order(self, family, case,
                                                      kappa, names, keys):
        verdict = check_conditions(
            params(family, case, "0.1", kappa=kappa, bits=192))
        assert [c.name for c in verdict.clauses] == names
        assert list(verdict.computed) == keys


class TestInfeasibleAndInvalidParams:
    def test_max_feasible_c_raises_when_tiny_c_fails(self):
        with pytest.raises(InvalidConfigurationError,
                           match="condition fails even at tiny c"):
            max_feasible_c(params(ALGEBRAIC, EX1, "0.01", q="1.5"))

    def test_grid_search_raises_when_no_point_is_feasible(self):
        with pytest.raises(InvalidConfigurationError,
                           match=r"no feasible \(c, kappa\) on the search grid"):
            feasible_point_trigonometric(("0", "10"), (1, 1), "0.5")

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="unknown family"):
            params("hyperbolic", EX1, "0.1")

    def test_single_root_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="need >= 2 roots"):
            params(ALGEBRAIC, dict(roots=("2",), mults=(1,)), "0.1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["c", "q"])
    def test_a_non_finite_c_or_q_is_named(self, name, value):
        fields = dict(c="0.1", q="0.5")
        fields[name] = value
        with pytest.raises(InvalidConfigurationError,
                           match=rf"^{name} must be finite, got \+?{value}$"):
            params(ALGEBRAIC, EX1, **fields)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_kappa_is_named(self, value):
        case = dict(roots=("1", "3"), mults=(1, 1))
        with pytest.raises(InvalidConfigurationError,
                           match=rf"^kappa must be finite, got \+?{value}$"):
            params(TRIGONOMETRIC, case, "0.1", kappa=value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_root_is_named(self, value):
        case = dict(roots=(value, "3"), mults=(1, 1))
        with pytest.raises(InvalidConfigurationError,
                           match=rf"^roots\[0\] must be finite, got \+?{value}$"):
            params(ALGEBRAIC, case, "0.1")
