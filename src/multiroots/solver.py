"""Simultaneous refinement of all roots with known multiplicities.

One step updates every approximation x_i by a multiplicity-weighted Newton
correction whose denominator couples in the other approximations through the
family's log-derivative sum:

    D_i = f'(x_i) - f(x_i) * L_i(x_i),   L_i = sum over j != i of the
                                         per-root log-derivative terms
    x_i <- x_i - alpha_i * f(x_i) / D_i

The coupling term lifts the quadratic multiplicity-aware Newton baseline to
cubic convergence.  `simultaneous` sweeps read only the incoming vector
(Jacobi); `sequential` sweeps reuse already-updated entries (Gauss-Seidel).
"""

from dataclasses import dataclass

from mpmath import mp

from .convergence import estimate_order
from .errors import (
    CollisionError,
    DegenerateDenominatorError,
    FamilyOverflowError,
    InsufficientDataError,
    InvalidConfigurationError,
)
from .polynomials import (
    FactoredForm,
    evaluate,
    evaluate_derivative,
    evaluation_noise,
    log_derivative_sum,
    require_distinct,
)
from .precision import eps, require_bits, to_mpf, working

SIMULTANEOUS = "simultaneous"
SEQUENTIAL = "sequential"

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
COLLISION = "collision"
DIVERGED = "diverged"
NONFINITE = "nonfinite"


@dataclass(frozen=True)
class SolveSettings:
    precision_bits: int = 53
    max_iterations: int = 50
    correction_tolerance: object = None  # default: 2**-(precision_bits - 8)
    sweep_mode: str = SIMULTANEOUS

    def __post_init__(self):
        require_bits(self.precision_bits)
        # bool is an int subclass, and True would silently mean 1
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise InvalidConfigurationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if self.sweep_mode not in (SIMULTANEOUS, SEQUENTIAL):
            raise InvalidConfigurationError(f"unknown sweep_mode {self.sweep_mode!r}")
        if self.correction_tolerance is not None:
            tol = to_mpf(self.correction_tolerance, self.precision_bits)
            if tol <= 0:
                raise InvalidConfigurationError("correction_tolerance must be > 0")
            object.__setattr__(self, "correction_tolerance", tol)

    @property
    def tolerance(self):
        if self.correction_tolerance is not None:
            return self.correction_tolerance
        return mp.mpf(2) ** (-(self.precision_bits - 8))


@dataclass(frozen=True)
class TraceEntry:
    k: int
    approximations: tuple
    residuals: tuple
    corrections: tuple  # None for the initial entry
    errors: tuple       # vs. true roots, when known; else None


@dataclass(frozen=True)
class SolveReport:
    final: tuple
    iterations_used: int
    termination: str
    trace: tuple
    estimated_order: object = None
    precision_bits: int = 53


def _entry(poly, approximations, k, bits, corrections=None, true_roots=None):
    with working(bits):
        residuals = tuple(abs(evaluate(poly, x, bits)) for x in approximations)
        errors = None
        if true_roots is not None:
            errors = tuple(
                abs(x - r) for x, r in zip(approximations, true_roots)
            )
    return TraceEntry(k, tuple(approximations), residuals, corrections, errors)


def initial_state(poly, initial, settings, true_roots=None):
    """The k=0 TraceEntry at the initial approximations."""
    bits = settings.precision_bits
    x0 = tuple(to_mpf(v, bits) for v in initial)
    require_distinct(x0, "initial approximations")
    return _entry(poly, x0, 0, bits, true_roots=true_roots)


def step(poly, multiplicities, entry, settings, true_roots=None):
    """One sweep over the approximations of `entry`; returns the next
    TraceEntry.

    Raises CollisionError / DegenerateDenominatorError / FamilyOverflowError
    on the corresponding per-root failures; `solve` maps these to termination
    reasons.
    """
    bits = settings.precision_bits
    if len(multiplicities) != len(entry.approximations):
        raise InvalidConfigurationError(
            f"{len(multiplicities)} multiplicities vs "
            f"{len(entry.approximations)} approximations"
        )
    family = poly.family
    factored = isinstance(poly, FactoredForm)
    with working(bits):
        current = list(entry.approximations)
        new = list(entry.approximations)
        corrections = [mp.mpf(0)] * len(current)
        degenerate_floor = mp.mpf(2) ** (-(bits - 4))
        for i, xi in enumerate(current):
            fi = evaluate(poly, xi, bits)
            # freeze the coordinate once |f| is below the evaluation's
            # rounding bound: past that point the residual is cancellation
            # noise and a correction computed from it walks away from the root.
            # A factored form's bound is 3(sum(alpha) + 1) 2**-bits |f|, below
            # |f| whenever f != 0, so only f == 0 can freeze it.
            if fi == 0 or (not factored
                           and abs(fi) <= evaluation_noise(poly, xi, bits)):
                continue
            fpi = evaluate_derivative(poly, xi, bits)
            # `new` holds the updated entries before i and the incoming ones
            # after it
            source = new if settings.sweep_mode == SEQUENTIAL else current
            others = [j for j in range(len(current)) if j != i]
            try:
                coupling = log_derivative_sum(
                    family, [source[j] for j in others],
                    [multiplicities[j] for j in others], xi, bits)
            except CollisionError as exc:
                # exc.j indexes `others`; report the approximation's own index
                raise CollisionError(others[exc.j], exc.distance,
                                     exc.threshold, i=i) from None
            denom = fpi - fi * coupling
            if denom == 0 or abs(denom) < degenerate_floor * abs(fpi):
                raise DegenerateDenominatorError(i, denom, fpi)
            correction = multiplicities[i] * fi / denom
            if not mp.isfinite(correction):
                raise FamilyOverflowError(family, xi, detail="non-finite correction")
            new[i] = xi - correction
            corrections[i] = abs(correction)
        return _entry(poly, new, entry.k + 1, bits,
                      corrections=tuple(corrections), true_roots=true_roots)


def order_error_sequence(trace):
    """Per-iteration max error (or max correction, when the truth is not in
    the trace) suitable for order estimation.

    The sequence is truncated at the first iteration where any coordinate
    froze on the evaluation noise floor (correction 0 with a nonzero
    residual): from that point on, stale frozen errors pollute the ratios.
    Returns (sequence, kind) with kind in {"error", "correction"}.
    """
    cutoff = len(trace)
    for idx, entry in enumerate(trace):
        if entry.corrections is None or entry.residuals is None:
            continue
        if any(c == 0 and r > 0
               for c, r in zip(entry.corrections, entry.residuals)):
            cutoff = idx
            break
    usable = trace[:cutoff]
    if usable and usable[0].errors is not None:
        return [max(e.errors) for e in usable], "error"
    return ([max(e.corrections) for e in usable if e.corrections is not None],
            "correction")


def trace_order(trace, bits, final):
    """(OrderEstimate, kind) of a trace's `order_error_sequence`.

    Errors below 2**8 ulp at the magnitude of the final approximations (at
    least 1) are roundoff, and the estimate leaves them out.  Raises
    InsufficientDataError when no window of the sequence qualifies.
    """
    sequence, kind = order_error_sequence(trace)
    scale = max([mp.mpf(1)] + [abs(x) for x in final])
    floor = mp.mpf(2) ** 8 * eps(bits) * scale
    return estimate_order(sequence, floor=floor), kind


def solve(poly, multiplicities, initial, settings=None, true_roots=None):
    """Iterate `step` until every correction is within tolerance.

    Termination reasons: `converged` (all corrections <= tolerance),
    `max_iterations`, `collision` (two approximations closer than the
    collision threshold), `diverged` (degenerate denominator or the
    approximations left a generous bounding radius), `nonfinite`.
    """
    settings = settings or SolveSettings()
    bits = settings.precision_bits
    if len(initial) != len(multiplicities):
        raise InvalidConfigurationError(
            f"{len(initial)} initial values vs {len(multiplicities)} multiplicities"
        )
    if true_roots is not None:
        true_roots = tuple(to_mpf(r, bits) for r in true_roots)
    trace = [initial_state(poly, initial, settings, true_roots=true_roots)]
    with working(bits):
        escape_radius = mp.mpf(10) ** 6 * (
            1 + max(abs(x) for x in trace[0].approximations)
        )
    termination = MAX_ITERATIONS
    for _ in range(settings.max_iterations):
        try:
            entry = step(poly, multiplicities, trace[-1], settings,
                         true_roots=true_roots)
        except CollisionError:
            termination = COLLISION
            break
        except (DegenerateDenominatorError, ZeroDivisionError):
            termination = DIVERGED
            break
        except FamilyOverflowError:
            termination = NONFINITE
            break
        trace.append(entry)
        if any(not mp.isfinite(x) for x in entry.approximations):
            termination = NONFINITE
            break
        if max(abs(x) for x in entry.approximations) > escape_radius:
            termination = DIVERGED
            break
        if max(entry.corrections) <= settings.tolerance:
            termination = CONVERGED
            break
    last = trace[-1]
    try:
        order = trace_order(trace, bits, last.approximations)[0].order
    except InsufficientDataError:
        order = None
    return SolveReport(
        final=last.approximations,
        iterations_used=last.k,
        termination=termination,
        trace=tuple(trace),
        estimated_order=order,
        precision_bits=bits,
    )
