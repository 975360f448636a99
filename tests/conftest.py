"""Shared test helpers: seeded random root configurations per family."""

import random
from collections import Counter
from dataclasses import replace

import pytest
from mpmath import mp

from multiroots import (ALGEBRAIC, EXPONENTIAL, RootConfiguration,
                        polynomials, solver)
from multiroots.precision import decimal_digits


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


def count_family_calls(monkeypatch, family):
    """A Counter, by name, of the `basis_pair`, `factor_pair`,
    `half_cotangent`, `fixed_log_derivative` and `fixed_basis` calls
    through `family`'s FAMILY entry until monkeypatch undoes it.  A field the family leaves
    None stays None."""
    calls = Counter()
    fam = polynomials.FAMILY[family]

    def counted(name):
        if getattr(fam, name) is None:
            return None

        def wrapper(*args):
            calls[name] += 1
            return getattr(fam, name)(*args)
        return wrapper

    monkeypatch.setitem(polynomials.FAMILY, family, replace(fam, **{
        name: counted(name)
        for name in ("basis_pair", "factor_pair", "half_cotangent",
                     "fixed_log_derivative", "fixed_basis")}))
    return calls


def count_trace_orders(monkeypatch):
    """A list of the traces `solver.trace_order` is called on, the order
    estimate of `SolveReport.estimated_order`, until monkeypatch undoes it."""
    calls, run = [], solver.trace_order

    def counted(trace):
        calls.append(trace)
        return run(trace)
    monkeypatch.setattr(solver, "trace_order", counted)
    return calls


def count_passes(monkeypatch):
    """A Counter of the representations' `_pass` runs by (id(poly), raw x,
    prec) until monkeypatch undoes it, and a dict id -> poly that holds
    every instance seen, so that no later instance can reuse a counted id."""
    calls, held = Counter(), {}
    for cls in (polynomials.AlgebraicPoly, polynomials.SeriesPoly,
                polynomials.FactoredForm):
        def counted(poly, x, prec, run=cls._pass):
            held[id(poly)] = poly
            calls[id(poly), x, prec] += 1
            return run(poly, x, prec)
        monkeypatch.setattr(cls, "_pass", counted)
    return calls, held


def count_stages(monkeypatch):
    """A Counter of the representations' stage runs by (stage name, id(poly),
    raw x, prec) until monkeypatch undoes it: `_pass` (the value stage),
    `_slope` and `_magnitude`.  It holds every instance it counts, so that
    no later instance can reuse a counted id."""
    calls, held = Counter(), []
    for cls in (polynomials.AlgebraicPoly, polynomials.SeriesPoly,
                polynomials.FactoredForm):
        def value(poly, x, prec, run=cls._pass):
            held.append(poly)
            calls["_pass", id(poly), x, prec] += 1
            return run(poly, x, prec)

        def stage(name, run):
            def counted(poly, point):
                held.append(poly)
                calls[name, id(poly), point.x, point.prec] += 1
                return run(poly, point)
            return counted

        monkeypatch.setattr(cls, "_pass", value)
        for name in ("_slope", "_magnitude"):
            monkeypatch.setattr(cls, name, stage(name, getattr(cls, name)))
    return calls


# edits to a report's JSON data that give a key a value no solve writes
# beside the others, each with the key the SchemaError must name
REPORT_KEY_EDITS = {
    "termination not a name": ("termination", 42),
    "termination unknown": ("termination", "finished"),
    "k not the index": ("trace[2].k", 5),
    "k not an int": ("trace[1].k", 1.0),
    "k boolean": ("trace[1].k", True),
    "iterations_used not the last k": ("iterations_used", 1),
    "iterations_used a string": ("iterations_used", "3"),
    "corrections null past the first": ("trace[1].corrections", None),
    "residuals null past the first": ("trace[2].residuals", None),
    "corrections in the initial entry": ("trace[0].corrections",
                                         ["0", "0", "0"]),
    "initial entry below the report's precision": ("trace[0].precision_bits",
                                                   53),
    "estimated_order false": ("estimated_order", False),
    "estimated_order empty": ("estimated_order", ""),
    "final not the last approximations": ("final", ["1.5", "2.5", "4.5"]),
    "residuals not the last residuals": ("residuals", ["7", "7", "7"]),
}


def edit_report_key(report, change):
    """Set the key REPORT_KEY_EDITS names for `change` in a report's
    JSON data; returns that key."""
    named, value = REPORT_KEY_EDITS[change]
    if named.startswith("trace["):
        entry, key = named.split(".")
        report["trace"][int(entry[6:-1])][key] = value
    else:
        report[named] = value
    return named


# the lists of a report that `load_report` checks, each in entry 2 of the
# trace or at the top level, and the edits that put a value there that no
# solve writes: three values `parse_real` cannot take, and a list one
# value short
REPORT_LISTS = ("trace[2].approximations", "trace[2].residuals",
                "trace[2].corrections", "trace[2].errors", "residuals")
BAD_LIST_EDITS = {"zz": "zz", "0/0": "0/0", "true": True,
                  "wrong length": None}


def break_report_list(report, named, bad):
    """Make the BAD_LIST_EDITS edit `bad` to the list `named`, one of
    REPORT_LISTS, of a report's JSON data; returns the key the SchemaError
    must name."""
    if named.startswith("trace["):
        entry, key = named.split(".")
        record = report["trace"][int(entry[6:-1])]
    else:
        record, key = report, named
    if bad == "wrong length":
        record[key] = record[key][:-1]
        return named
    record[key][0] = BAD_LIST_EDITS[bad]
    return f"{named}[0]"


def padded(text):
    """The text of a real in the form `format_real` writes, with one more
    zero after its mantissa: the same value in other text."""
    mantissa, e, exponent = text.partition("e")
    return mantissa + "0" + e + exponent


def reference_format(x, bits):
    """The text `format_real` writes: mpmath's nstr under workprec(bits)."""
    with mp.workprec(bits):
        return mp.nstr(mp.mpf(x), decimal_digits(bits), strip_zeros=True)


def reference_parse(text, bits):
    """The value `parse_real` reads: mpmath's mpf under workprec(bits)."""
    with mp.workprec(bits):
        return mp.mpf(text)


def count_calls(monkeypatch, owner, name):
    """A list of the argument tuples of the calls of `owner.name` until
    monkeypatch undoes it."""
    calls, run = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


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
