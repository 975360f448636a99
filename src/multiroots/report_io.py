"""Problem-file and report-file schema: JSON with decimal-string reals.

Real values are serialized as decimal strings carrying
ceil(precision_bits * 0.302) + 3 significant digits, which round-trip
exactly at the file's stated precision; plain JSON numbers are accepted on
input for convenience.  The layout is documented in the README.
"""

import json
from dataclasses import dataclass, field

from .errors import InvalidConfigurationError, SchemaError
from .polynomials import (
    ALGEBRAIC,
    FAMILIES,
    FAMILY,
    TRIGONOMETRIC,
    AlgebraicPoly,
    ExpPoly,
    FactoredForm,
    RootConfiguration,
    TrigPoly,
    degree_of,
)
from .precision import format_real, parse_real, require_bits
from .solver import SolveSettings

REPRESENTATIONS = ("coefficients", "roots")


def _require(condition, message, location=None):
    if not condition:
        raise SchemaError(message, location)


def _parse_reals(values, bits, location):
    _require(isinstance(values, list) and values, "expected a nonempty list",
             location)
    out = []
    for idx, v in enumerate(values):
        _require(isinstance(v, (str, int, float)),
                 f"expected number or decimal string, got {type(v).__name__}",
                 f"{location}[{idx}]")
        try:
            out.append(parse_real(v, bits))
        except ValueError:
            raise SchemaError(f"unparseable real {v!r}", f"{location}[{idx}]")
    return tuple(out)


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
    try:
        return require_bits(data.get("precision_bits", 53))
    except ValueError as exc:
        raise SchemaError(str(exc), f"{location}.precision_bits")


@dataclass
class Problem:
    family: str
    representation: str
    precision_bits: int
    multiplicities: tuple
    initial: tuple
    label: str = ""
    roots: tuple = None          # representation == "roots"
    scale: object = 1
    coefficients: object = None  # representation == "coefficients"
    true_roots: tuple = None
    settings: SolveSettings = field(default=None)

    def polynomial(self):
        """Build the polynomial object this problem solves."""
        bits = self.precision_bits
        if self.representation == "roots":
            cfg = RootConfiguration(self.roots, self.multiplicities,
                                    precision_bits=bits)
            return FactoredForm(self.family, cfg, scale=self.scale,
                                precision_bits=bits)
        c = self.coefficients
        if self.family == ALGEBRAIC:
            return AlgebraicPoly(c, precision_bits=bits)
        even, odd = FAMILY[self.family].keys
        series = TrigPoly if self.family == TRIGONOMETRIC else ExpPoly
        return series(c["a0"], c[even], c[odd], precision_bits=bits)

    def truth(self):
        """True roots when known: explicit metadata, else the factored roots."""
        if self.true_roots is not None:
            return self.true_roots
        if self.representation == "roots":
            return self.roots
        return None


def problem_from_dict(data, location="problem"):
    _require(isinstance(data, dict), "problem file must be a JSON object",
             location)
    family = data.get("family")
    _require(family in FAMILIES, f"family must be one of {FAMILIES}",
             f"{location}.family")
    representation = data.get("representation")
    _require(representation in REPRESENTATIONS,
             f"representation must be one of {REPRESENTATIONS}",
             f"{location}.representation")
    bits = _precision_bits(data, location)
    mults = data.get("multiplicities")
    _require(isinstance(mults, list) and mults
             and all(isinstance(a, int) and a >= 1 for a in mults),
             "multiplicities must be a nonempty list of integers >= 1",
             f"{location}.multiplicities")
    try:
        degree = degree_of(family, mults)
    except InvalidConfigurationError as exc:
        raise SchemaError(str(exc), f"{location}.multiplicities")
    initial = _parse_reals(data.get("initial"), bits, f"{location}.initial")
    _require(len(initial) == len(mults),
             f"{len(initial)} initial values vs {len(mults)} multiplicities",
             f"{location}.initial")

    roots = None
    scale = 1
    coefficients = None
    if representation == "roots":
        roots = _parse_reals(data.get("roots"), bits, f"{location}.roots")
        _require(len(roots) == len(mults),
                 f"{len(roots)} roots vs {len(mults)} multiplicities",
                 f"{location}.roots")
        if "scale" in data:
            scale = parse_real(data["scale"], bits)
    else:
        c = data.get("coefficients")
        loc = f"{location}.coefficients"
        if family == ALGEBRAIC:
            coefficients = _parse_reals(c, bits, loc)
            size = len(coefficients)
        else:
            _require(isinstance(c, dict), "expected an object", loc)
            key_a, key_b = FAMILY[family].keys
            _require("a0" in c and key_a in c and key_b in c,
                     f"needs keys a0, {key_a}, {key_b}", loc)
            coefficients = {
                "a0": parse_real(c["a0"], bits),
                key_a: _parse_reals(c[key_a], bits, f"{loc}.{key_a}"),
                key_b: _parse_reals(c[key_b], bits, f"{loc}.{key_b}"),
            }
            size = len(coefficients[key_a])
        _require(degree == size,
                 f"multiplicities sum to {sum(mults)}, which is not the root "
                 f"count of a degree-{size} {family} polynomial",
                 f"{location}.multiplicities")

    true_roots = None
    if data.get("true_roots") is not None:
        true_roots = _parse_reals(data["true_roots"], bits,
                                  f"{location}.true_roots")
        _require(len(true_roots) == len(mults),
                 "true_roots length must match multiplicities",
                 f"{location}.true_roots")

    raw_settings = data.get("settings", {})
    _require(isinstance(raw_settings, dict), "settings must be an object",
             f"{location}.settings")
    kwargs = {"precision_bits": bits}
    if "max_iterations" in raw_settings:
        kwargs["max_iterations"] = raw_settings["max_iterations"]
    if "correction_tolerance" in raw_settings:
        kwargs["correction_tolerance"] = parse_real(
            raw_settings["correction_tolerance"], bits)
    if "sweep_mode" in raw_settings:
        kwargs["sweep_mode"] = raw_settings["sweep_mode"]
    try:
        settings = SolveSettings(**kwargs)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc), f"{location}.settings")

    return Problem(
        family=family,
        representation=representation,
        precision_bits=bits,
        multiplicities=tuple(mults),
        initial=initial,
        label=data.get("label", ""),
        roots=roots,
        scale=scale,
        coefficients=coefficients,
        true_roots=true_roots,
        settings=settings,
    )


def load_problem(path, precision_override=None):
    """Parse a problem file; `precision_override` replaces the file's
    precision_bits before any real value is parsed, so no digits are lost."""
    data = _read_json(path)
    if precision_override is not None:
        data["precision_bits"] = precision_override
    return problem_from_dict(data, location=str(path))


def problem_to_dict(problem):
    bits = problem.precision_bits
    data = {
        "label": problem.label,
        "family": problem.family,
        "representation": problem.representation,
        "precision_bits": bits,
        "multiplicities": list(problem.multiplicities),
        "initial": [format_real(v, bits) for v in problem.initial],
    }
    if problem.representation == "roots":
        data["roots"] = [format_real(v, bits) for v in problem.roots]
        data["scale"] = format_real(problem.scale, bits)
    else:
        c = problem.coefficients
        if problem.family == ALGEBRAIC:
            data["coefficients"] = [format_real(v, bits) for v in c]
        else:
            key_a, key_b = FAMILY[problem.family].keys
            data["coefficients"] = {
                "a0": format_real(c["a0"], bits),
                key_a: [format_real(v, bits) for v in c[key_a]],
                key_b: [format_real(v, bits) for v in c[key_b]],
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


def save_problem(problem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


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
    trace = []
    for entry in report.trace:
        record = {
            "k": entry.k,
            "approximations": [fmt(v) for v in entry.approximations],
            "residuals": [fmt(v) for v in entry.residuals],
            "corrections": ([fmt(v) for v in entry.corrections]
                            if entry.corrections is not None else None),
            "errors": ([fmt(v) for v in entry.errors]
                       if entry.errors is not None else None),
        }
        trace.append(record)
    data = {
        "label": problem.label,
        "family": problem.family,
        "precision_bits": bits,
        "multiplicities": list(problem.multiplicities),
        "termination": report.termination,
        "iterations_used": report.iterations_used,
        "final": [fmt(v) for v in report.final],
        "residuals": [fmt(v) for v in report.trace[-1].residuals],
        "estimated_order": (fmt(report.estimated_order)
                            if report.estimated_order is not None else None),
        "true_roots": ([fmt(v) for v in problem.truth()]
                       if problem.truth() is not None else None),
        "trace": trace,
    }
    if verdict is not None:
        data["conditions"] = _verdict_to_dict(verdict, bits)
    return data


def save_report(report, problem, path, verdict=None):
    with open(path, "w") as fh:
        json.dump(report_to_dict(report, problem, verdict=verdict), fh, indent=2)
        fh.write("\n")


def load_report(path):
    """Parse a report file back into mpf-valued dicts (for verify/order)."""
    data = _read_json(path)
    location = str(path)
    _require(isinstance(data, dict), "report must be a JSON object", location)
    bits = _precision_bits(data, location)
    for key in ("termination", "final", "trace"):
        _require(key in data, f"missing key {key!r}", location)
    out = {
        "label": data.get("label", ""),
        "family": data.get("family"),
        "precision_bits": bits,
        "multiplicities": data.get("multiplicities"),
        "termination": data["termination"],
        "iterations_used": data.get("iterations_used"),
        "final": _parse_reals(data["final"], bits, f"{location}.final"),
        "estimated_order": (parse_real(data["estimated_order"], bits)
                            if data.get("estimated_order") else None),
        "true_roots": (_parse_reals(data["true_roots"], bits,
                                    f"{location}.true_roots")
                       if data.get("true_roots") else None),
    }
    trace = []
    _require(isinstance(data["trace"], list) and data["trace"],
             "trace must be a nonempty list", f"{location}.trace")
    for idx, entry in enumerate(data["trace"]):
        loc = f"{location}.trace[{idx}]"
        _require(isinstance(entry, dict) and "approximations" in entry,
                 "trace entries need approximations", loc)
        trace.append({
            "k": entry.get("k", idx),
            "approximations": _parse_reals(entry["approximations"], bits,
                                           f"{loc}.approximations"),
            "residuals": (_parse_reals(entry["residuals"], bits,
                                       f"{loc}.residuals")
                          if entry.get("residuals") else None),
            "corrections": (_parse_reals(entry["corrections"], bits,
                                         f"{loc}.corrections")
                            if entry.get("corrections") else None),
            "errors": (_parse_reals(entry["errors"], bits, f"{loc}.errors")
                       if entry.get("errors") else None),
        })
    out["trace"] = trace
    return out
