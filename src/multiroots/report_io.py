"""Problem-file and report-file schema: JSON with decimal-string reals.

Real values are serialized as decimal strings carrying
ceil(precision_bits * 0.302) + 3 significant digits, which round-trip
exactly at the file's stated precision; plain JSON numbers are accepted on
input for convenience.  A report's trace lists in the form `format_real`
writes are parsed on first read (`load_report`).  The layout is documented
in the README.
"""

import json
from dataclasses import dataclass

from mpmath import mp

from .errors import SchemaError
from .polynomials import (
    ALGEBRAIC,
    EXPONENTIAL,
    FAMILIES,
    TRIGONOMETRIC,
    AlgebraicPoly,
    ExpPoly,
    FactoredForm,
    RootConfiguration,
    TrigPoly,
    degree_of,
    require_distinct,
    require_multiplicities,
)
from .precision import (MIN_PRECISION_BITS, _CANONICAL, format_real,
                        parse_real, require_bits)
from .solver import (CONVERGED, TERMINATIONS, SolveReport, SolveSettings,
                     TraceEntry, _Deferred)

REPRESENTATIONS = ("coefficients", "roots")
# the TraceEntry fields a report stores as lists of reals, in file order
_TRACE_LISTS = ("approximations", "residuals", "corrections", "errors")
# a series family's class and its problem-file keys for the even and odd
# coefficients
_SERIES = {TRIGONOMETRIC: (TrigPoly, "cos", "sin"),
           EXPONENTIAL: (ExpPoly, "ch", "sh")}
_SETTINGS = ("max_iterations", "correction_tolerance", "sweep_mode")
# the top-level problem-file keys, both representations' (as in the README)
_PROBLEM_KEYS = ("label", "family", "representation", "precision_bits",
                 "multiplicities", "initial", "coefficients", "roots", "scale",
                 "true_roots", "settings")


def _require(condition, message, location=None):
    if not condition:
        raise SchemaError(message, location)


def located(location, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a value it rejects an input error at
    `location`: a ValueError it raises (InvalidConfigurationError is one)
    becomes a SchemaError naming `location`.  Callers parse every real
    before the call, so `build` itself never raises a SchemaError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc), location)


def checked_real(value, bits, location):
    """Parse one real from outside the program (a JSON value or a CLI flag);
    a value that is not a real, or is nan or infinite, raises a SchemaError
    naming `location`."""
    # bool is an int subclass, and true would silently mean 1
    _require(type(value) is not bool and isinstance(value, (str, int, float)),
             f"expected number or decimal string, got {type(value).__name__}",
             location)
    try:
        real = parse_real(value, bits)
    # "p/0" parses as a division by zero
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"unparseable real {value!r}", location)
    _require(mp.isfinite(real), f"non-finite real {value!r}", location)
    return real


def _parse_reals(values, bits, location):
    _require(isinstance(values, list) and values, "expected a nonempty list",
             location)
    return tuple(checked_real(v, bits, f"{location}[{idx}]")
                 for idx, v in enumerate(values))


def _canonical(value):
    """Whether `value` is a string in the form `format_real` writes."""
    return type(value) is str and _CANONICAL.fullmatch(value) is not None


def _reals_on_read(values, bits, location):
    """A report's list `values` as reals at `bits`: a `_Deferred` parse
    where every value is a string in the form `format_real` writes, which
    parses, and otherwise parsed now.  Either way a list that would not
    parse raises its SchemaError naming `location` here."""
    _require(isinstance(values, list) and values, "expected a nonempty list",
             location)
    if all(map(_canonical, values)):
        return _Deferred(_parse_reals, values, bits, location)
    return _parse_reals(values, bits, location)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(str(exc), str(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          f"{path}:{exc.lineno}:{exc.colno}")


def _precision_bits(data, location):
    return located(f"{location}.precision_bits", require_bits,
                   data.get("precision_bits", 53))


@dataclass
class Problem:
    poly: object  # AlgebraicPoly, TrigPoly, ExpPoly or FactoredForm
    multiplicities: tuple
    initial: tuple
    label: str = ""
    true_roots: tuple = None
    settings: SolveSettings = None

    @property
    def family(self):
        return self.poly.family

    @property
    def precision_bits(self):
        return self.poly.precision_bits

    def polynomial(self):
        """The polynomial this problem solves."""
        return self.poly

    def truth(self):
        """True roots when known: explicit metadata, else the factored roots."""
        if self.true_roots is not None:
            return self.true_roots
        if isinstance(self.poly, FactoredForm):
            return self.poly.config.roots
        return None


def _polynomial(data, family, representation, mults, bits, location):
    """Build the problem's polynomial from its roots or coefficients."""
    if representation == "roots":
        loc = f"{location}.roots"
        roots = _parse_reals(data.get("roots"), bits, loc)
        cfg = located(loc, RootConfiguration, roots, mults, precision_bits=bits)
        loc = f"{location}.scale"
        scale = checked_real(data.get("scale", 1), bits, loc)
        return located(loc, FactoredForm, family, cfg, scale=scale)
    c = data.get("coefficients")
    loc = f"{location}.coefficients"
    if family == ALGEBRAIC:
        return AlgebraicPoly(_parse_reals(c, bits, loc), precision_bits=bits)
    _require(isinstance(c, dict), "expected an object", loc)
    series, even, odd = _SERIES[family]
    _require("a0" in c and even in c and odd in c,
             f"needs keys a0, {even}, {odd}", loc)
    return located(loc, series, checked_real(c["a0"], bits, f"{loc}.a0"),
                   _parse_reals(c[even], bits, f"{loc}.{even}"),
                   _parse_reals(c[odd], bits, f"{loc}.{odd}"),
                   precision_bits=bits)


def problem_from_dict(data, location="problem"):
    _require(isinstance(data, dict), "problem file must be a JSON object",
             location)
    for key in data:
        _require(key in _PROBLEM_KEYS,
                 f"problem keys are {', '.join(_PROBLEM_KEYS)}",
                 f"{location}.{key}")
    label = data.get("label", "")
    _require(isinstance(label, str), "label must be a string",
             f"{location}.label")
    family = data.get("family")
    _require(family in FAMILIES, f"family must be one of {FAMILIES}",
             f"{location}.family")
    representation = data.get("representation")
    _require(representation in REPRESENTATIONS,
             f"representation must be one of {REPRESENTATIONS}",
             f"{location}.representation")
    bits = _precision_bits(data, location)
    mults = data.get("multiplicities")
    loc = f"{location}.multiplicities"
    _require(isinstance(mults, list) and mults,
             "multiplicities must be a nonempty list", loc)
    located(loc, require_multiplicities, mults, len(mults))
    degree = located(loc, degree_of, family, mults)
    loc = f"{location}.initial"
    initial = _parse_reals(data.get("initial"), bits, loc)
    _require(len(initial) == len(mults),
             f"{len(initial)} initial values vs {len(mults)} multiplicities",
             loc)
    located(loc, require_distinct, initial, "initial approximations")

    poly = _polynomial(data, family, representation, mults, bits, location)
    if representation == "coefficients":
        _require(degree == poly.degree,
                 f"multiplicities sum to {sum(mults)}, which is not the root "
                 f"count of a degree-{poly.degree} {family} polynomial",
                 f"{location}.multiplicities")

    true_roots = None
    if data.get("true_roots") is not None:
        true_roots = _parse_reals(data["true_roots"], bits,
                                  f"{location}.true_roots")
        _require(len(true_roots) == len(mults),
                 "true_roots length must match multiplicities",
                 f"{location}.true_roots")

    raw_settings = data.get("settings", {})
    loc = f"{location}.settings"
    _require(isinstance(raw_settings, dict), "settings must be an object", loc)
    kwargs = dict(raw_settings)
    for key, value in kwargs.items():
        _require(key in _SETTINGS, f"settings are {', '.join(_SETTINGS)}",
                 f"{loc}.{key}")
        if key == "correction_tolerance":
            kwargs[key] = checked_real(value, bits, f"{loc}.{key}")
    settings = located(loc, SolveSettings, precision_bits=bits, **kwargs)

    return Problem(
        poly=poly,
        multiplicities=tuple(mults),
        initial=initial,
        label=label,
        true_roots=true_roots,
        settings=settings,
    )


def load_problem(path, precision_override=None):
    """Parse a problem file; `precision_override` replaces the file's
    precision_bits before any real value is parsed, so no digits are lost."""
    data = _read_json(path)
    # a file that is not an object is left for problem_from_dict to reject
    if precision_override is not None and isinstance(data, dict):
        data["precision_bits"] = precision_override
    return problem_from_dict(data, location=str(path))


def problem_to_dict(problem):
    poly = problem.poly
    bits = problem.precision_bits
    factored = isinstance(poly, FactoredForm)
    data = {
        "label": problem.label,
        "family": problem.family,
        "representation": "roots" if factored else "coefficients",
        "precision_bits": bits,
        "multiplicities": list(problem.multiplicities),
        "initial": [format_real(v, bits) for v in problem.initial],
    }
    if factored:
        data["roots"] = [format_real(v, bits) for v in poly.config.roots]
        data["scale"] = format_real(poly.scale, bits)
    elif problem.family == ALGEBRAIC:
        data["coefficients"] = [format_real(v, bits) for v in poly.coeffs]
    else:
        _, even, odd = _SERIES[problem.family]
        data["coefficients"] = {
            "a0": format_real(poly.a0, bits),
            even: [format_real(v, bits) for v in poly.even],
            odd: [format_real(v, bits) for v in poly.odd],
        }
    if problem.true_roots is not None:
        data["true_roots"] = [format_real(v, bits) for v in problem.true_roots]
    s = problem.settings
    if s is not None:
        data["settings"] = {
            "max_iterations": s.max_iterations,
            "correction_tolerance": format_real(s.tolerance, bits),
            "sweep_mode": s.sweep_mode,
        }
    return data


def _write_json(data, path):
    # one write: json.dump would issue one per encoder chunk
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def save_problem(problem, path):
    _write_json(problem_to_dict(problem), path)


def _verdict_to_dict(verdict, bits):
    return {
        "passed": verdict.passed,
        "computed": {k: format_real(v, bits) if not isinstance(v, int) else v
                     for k, v in verdict.computed.items()},
        "clauses": [
            {
                "name": c.name,
                "passed": c.passed,
                "lhs": format_real(c.lhs, bits),
                "rhs": format_real(c.rhs, bits),
            }
            for c in verdict.clauses
        ],
    }


def report_to_dict(report, problem, verdict=None):
    bits = problem.precision_bits
    fmt = lambda v: format_real(v, bits)
    fmts = lambda values: None if values is None else [fmt(v) for v in values]
    data = {
        "label": problem.label,
        "family": problem.family,
        "precision_bits": bits,
        "multiplicities": list(problem.multiplicities),
        "termination": report.termination,
        "iterations_used": report.iterations_used,
        "final": fmts(report.final),
        "residuals": fmts(report.trace[-1].residuals),
        "estimated_order": (fmt(report.estimated_order)
                            if report.estimated_order is not None else None),
        "true_roots": fmts(problem.truth()),
        "trace": [dict(k=entry.k, precision_bits=entry.precision_bits,
                       **{key: fmts(getattr(entry, key))
                          for key in _TRACE_LISTS})
                  for entry in report.trace],
    }
    if verdict is not None:
        data["conditions"] = _verdict_to_dict(verdict, bits)
    return data


def save_report(report, problem, path, verdict=None):
    _write_json(report_to_dict(report, problem, verdict=verdict), path)


def load_report(path):
    """Parse a report file back into the SolveReport it was written from.

    Every list in a trace entry holds one value per entry of `final`,
    `residuals` and `corrections` are in every entry past the first,
    `corrections` is not in the first, and `errors` is in every entry or in
    none.  Entry 0's `precision_bits` is the report's, and every other
    entry's lies between MIN_PRECISION_BITS and it.  `termination` is one
    of the solver's TERMINATIONS, entry i's `k` is i, and `iterations_used`
    is the last entry's `k`; a missing `k` or `iterations_used` takes that
    value.  Every real is finite.  `final` and `residuals`, when present,
    are the last entry's, and `estimated_order` is a real or null, and
    null unless `termination` is converged.  The report it returns reads
    its order off the trace (`SolveReport.estimated_order`), not off the
    file.
    A report that breaks a rule no longer describes one solve and is a
    SchemaError naming the key, raised here, whatever its reader then reads.

    A trace list in the form `format_real` writes is converted on its
    entry's first read of it (`_reals_on_read`), so `verify` parses only
    the last entry's approximations; any other list is parsed here.
    `final` and `residuals` are compared with the last entry's as text
    first, and converted only where the text differs, and an order in
    that form is not parsed at all."""
    data = _read_json(path)
    location = str(path)
    _require(isinstance(data, dict), "report must be a JSON object", location)
    bits = _precision_bits(data, location)
    for key in ("termination", "final", "trace"):
        _require(key in data, f"missing key {key!r}", location)
    _require(data["termination"] in TERMINATIONS,
             f"termination must be one of {', '.join(TERMINATIONS)}, "
             f"got {data['termination']!r}", f"{location}.termination")
    _require(isinstance(data["trace"], list) and data["trace"],
             "trace must be a nonempty list", f"{location}.trace")
    final = _reals_on_read(data["final"], bits, f"{location}.final")
    count = len(data["final"])

    def optional(record, key, loc):
        values = record.get(key)
        if values is None:
            return None
        reals = _reals_on_read(values, bits, f"{loc}.{key}")
        _require(len(values) == count,
                 f"expected {count} values, one per entry of final, "
                 f"got {len(values)}", f"{loc}.{key}")
        return reals

    trace = []
    for idx, entry in enumerate(data["trace"]):
        loc = f"{location}.trace[{idx}]"
        _require(isinstance(entry, dict) and entry.get("approximations"),
                 "trace entries need approximations", loc)
        k = entry.get("k", idx)
        _require(type(k) is int and k == idx,
                 f"k must be the entry's index {idx}, got {k!r}", f"{loc}.k")
        # only the initial entry has no sweep behind it
        for key in ("residuals", "corrections") if idx else ():
            _require(entry.get(key) is not None,
                     "every entry after the first needs it", f"{loc}.{key}")
        _require(idx or entry.get("corrections") is None,
                 "the initial entry has no sweep behind it",
                 f"{loc}.corrections")
        # the initial entry is taken at the report's precision and a sweep
        # at any rung up to it; reports written before the precision ladder
        # ran every sweep at the report's precision and carry no per-entry key
        swept_at = entry.get("precision_bits", bits)
        lowest = MIN_PRECISION_BITS if idx else bits
        _require(type(swept_at) is int and lowest <= swept_at <= bits,
                 f"precision_bits must be an integer in {lowest}..{bits}",
                 f"{loc}.precision_bits")
        trace.append(TraceEntry(k, **{
            key: optional(entry, key, loc) for key in _TRACE_LISTS},
            precision_bits=swept_at))
        _require((entry.get("errors") is None)
                 == (data["trace"][0].get("errors") is None),
                 "errors must be in every trace entry or in none",
                 f"{loc}.errors")
    used = data.get("iterations_used", trace[-1].k)
    _require(type(used) is int and used == trace[-1].k,
             f"iterations_used must be the last entry's k {trace[-1].k}, "
             f"got {used!r}", f"{location}.iterations_used")
    last = data["trace"][-1]

    def taken(reals):
        return reals() if type(reals) is _Deferred else reals

    # files this program writes repeat the last entry's text
    _require(data["final"] == last["approximations"]
             or taken(final) == trace[-1].approximations,
             "final must be the last entry's approximations",
             f"{location}.final")
    _require("residuals" not in data
             or data["residuals"] == last.get("residuals")
             or taken(optional(data, "residuals", location))
             == trace[-1].residuals,
             "residuals must be the last entry's", f"{location}.residuals")
    order = data.get("estimated_order")
    loc = f"{location}.estimated_order"
    _require(order is None or data["termination"] == CONVERGED,
             "only a converged solve carries an order", loc)
    # the order is checked, not kept: a canonical one parses
    if order is not None and not _canonical(order):
        checked_real(order, bits, loc)
    return SolveReport(data["termination"], tuple(trace))
