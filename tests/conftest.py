"""Shared test helpers: seeded random root configurations per family."""

import random

import pytest
from mpmath import mp

from multiroots import ALGEBRAIC, EXPONENTIAL, RootConfiguration


def random_configuration(rng, family, bits=53, m_range=(2, 5), alpha_max=4,
                         gap_range=(0.35, 0.9)):
    """Distinct separated roots with desk-scale multiplicities.

    Gaps stay >= 0.35, spans stay inside one period for the trigonometric
    family and inside [-2.5, 2.5] for the exponential one; trig/exp total
    multiplicities come out even.
    """
    m = rng.randint(*m_range)
    while True:
        alphas = [rng.randint(1, alpha_max) for _ in range(m)]
        total = sum(alphas)
        if family == ALGEBRAIC:
            if total <= 10:
                break
        elif total % 2 == 0 and total <= 12:
            break
    if family == EXPONENTIAL:
        start = rng.uniform(-2.4, -1.4)
    else:
        start = rng.uniform(-3.0, -1.0)
    roots = [start]
    for _ in range(m - 1):
        roots.append(roots[-1] + rng.uniform(*gap_range))
    return RootConfiguration(roots, alphas, precision_bits=bits)


def random_simple_roots(rng, m, gap_range=(0.35, 1.1)):
    roots = [rng.uniform(-3.0, -1.0)]
    for _ in range(m - 1):
        roots.append(roots[-1] + rng.uniform(*gap_range))
    return roots


def cut_trace_list(report, change):
    """Edit a report's JSON data in place so that its trace lists no longer
    describe one solve; `change` names the edit."""
    trace = report["trace"]
    if change == "errors cut to one value":
        for entry in trace:
            if entry["errors"] is not None:
                entry["errors"] = entry["errors"][:1]
    elif change == "errors empty":
        trace[1]["errors"] = []
    elif change == "corrections cut to one value":
        trace[2]["corrections"] = trace[2]["corrections"][:1]
    elif change == "approximations cut to two values":
        trace[1]["approximations"] = trace[1]["approximations"][:2]
    elif change == "errors null in one entry":
        trace[2]["errors"] = None
    else:
        raise ValueError(change)


@pytest.fixture
def rng():
    return random.Random(20260810)


def max_abs(values):
    return max(abs(v) for v in values)


def assert_close(actual, expected, rel, abs_floor=0):
    actual, expected = mp.mpf(actual), mp.mpf(expected)
    tol = mp.mpf(rel) * max(abs(expected), mp.mpf(abs_floor))
    assert abs(actual - expected) <= tol, (
        f"|{actual} - {expected}| = {abs(actual - expected)} > {tol}"
    )
