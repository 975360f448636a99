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

Above FLOOR bits, `solve` climbs a precision ladder: cubic convergence
triples the correct bits per sweep, so each sweep runs at the smallest rung
FLOOR * 2**j that the previous corrections say it needs, or is redone at
full precision when its own corrections show too few bits (`_ladder_step`).
"""

from dataclasses import dataclass, replace

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
    evaluate,
    evaluate_derivative,
    evaluation_noise,
    log_derivative_sum,
    require_distinct,
    require_multiplicities,
    root_offset,
)
from .precision import eps, require_bits, to_mpf, working

SIMULTANEOUS = "simultaneous"
SEQUENTIAL = "sequential"

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
COLLISION = "collision"
DIVERGED = "diverged"
NONFINITE = "nonfinite"
TERMINATIONS = (CONVERGED, MAX_ITERATIONS, COLLISION, DIVERGED, NONFINITE)

# What `solve` reports when a sweep raises one of these; `_ladder_step`
# retries a rung's sweep at full precision on the same ones.
FAILURES = {
    CollisionError: COLLISION,
    DegenerateDenominatorError: DIVERGED,
    ZeroDivisionError: DIVERGED,
    FamilyOverflowError: NONFINITE,
}

# The lowest rung of the precision ladder; a solve at or below it never
# climbs one.  GUARD bits are kept beyond what the error estimate asks for.
FLOOR = 256
GUARD = 32


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
    precision_bits: int  # bits the sweep, residuals and errors ran at


@dataclass(frozen=True)
class SolveReport:
    """A solve's record: its trace, which holds the roots it ended on, the
    sweeps it ran and its precision, how it ended, and the order it saw."""
    termination: str
    trace: tuple
    estimated_order: object = None

    @property
    def final(self):
        return self.trace[-1].approximations

    @property
    def iterations_used(self):
        return self.trace[-1].k

    @property
    def precision_bits(self):
        return self.trace[0].precision_bits


def _entry(poly, approximations, k, bits, corrections=None, true_roots=None):
    with working(bits):
        residuals = tuple(abs(evaluate(poly, x, bits)) for x in approximations)
        errors = None
        if true_roots is not None:
            errors = tuple(abs(root_offset(poly.family, x, r))
                           for x, r in zip(approximations, true_roots))
    return TraceEntry(k, tuple(approximations), residuals, corrections, errors,
                      bits)


def _truths(true_roots, bits):
    """The true roots, when known, converted as `solve` converts them."""
    if true_roots is None:
        return None
    return tuple(to_mpf(r, bits) for r in true_roots)


def initial_state(poly, initial, settings, true_roots=None):
    """The k=0 TraceEntry at the initial approximations.  `true_roots`
    takes what `solve` takes."""
    bits = settings.precision_bits
    x0 = tuple(to_mpf(v, bits) for v in initial)
    require_distinct(x0, "initial approximations")
    return _entry(poly, x0, 0, bits, true_roots=_truths(true_roots, bits))


def step(poly, multiplicities, entry, settings, true_roots=None):
    """One sweep over the approximations of `entry`; returns the next
    TraceEntry.  `true_roots` takes what `solve` takes.

    Raises CollisionError / DegenerateDenominatorError / FamilyOverflowError
    on the corresponding per-root failures; `solve` maps these to termination
    reasons (FAILURES).
    """
    bits = settings.precision_bits
    multiplicities = require_multiplicities(multiplicities,
                                            len(entry.approximations))
    new, corrections = _sweep(poly, multiplicities, entry.approximations,
                              bits, settings.sweep_mode)
    return _entry(poly, new, entry.k + 1, bits, corrections=corrections,
                  true_roots=_truths(true_roots, bits))


def _sweep(poly, multiplicities, approximations, bits, sweep_mode):
    """(new approximations, |corrections|) of one sweep at `bits`."""
    with working(bits):
        current = list(approximations)
        new = list(approximations)
        corrections = [mp.mpf(0)] * len(current)
        degenerate_floor = mp.mpf(2) ** (-(bits - 4))
        # half-cotangents stored for the partner pair: one dict per sweep,
        # so no sweep reads another's differences or precision
        pairs = {}
        for i, xi in enumerate(current):
            fi = evaluate(poly, xi, bits)
            # freeze the coordinate once |f| is below the evaluation's
            # rounding bound: past that point the residual is cancellation
            # noise and a correction computed from it walks away from the root.
            # A representation whose bound never floors skips it.
            if fi == 0 or (poly.noise_floors
                           and abs(fi) <= evaluation_noise(poly, xi, bits)):
                continue
            fpi = evaluate_derivative(poly, xi, bits)
            # `new` holds the updated entries before i and the incoming ones
            # after it
            source = new if sweep_mode == SEQUENTIAL else current
            try:
                coupling = log_derivative_sum(
                    poly.family, source[:i] + source[i + 1:],
                    multiplicities[:i] + multiplicities[i + 1:], xi, bits,
                    pairs=pairs)
            except CollisionError as exc:
                # exc.j indexes the others; report the approximation's own index
                raise CollisionError(exc.j + (exc.j >= i), exc.distance,
                                     exc.threshold, i=i) from None
            denom = fpi - fi * coupling
            if denom == 0 or abs(denom) < degenerate_floor * abs(fpi):
                raise DegenerateDenominatorError(i, denom, fpi)
            # finite: f is (`evaluate`), denom is and is nonzero, and mpf
            # exponents are unbounded
            correction = multiplicities[i] * fi / denom
            new[i] = xi - correction
            corrections[i] = abs(correction)
        return tuple(new), tuple(corrections)


def _rung(multiplicities, corrections, sweeps, bits):
    """The smallest FLOOR * 2**j, capped at `bits`, that holds
    max_i (alpha_i + 2) * sweeps * log2(1/c_i) + GUARD bits: FLOOR without
    corrections, and `bits` once a coordinate froze (c_i = 0; mp.mag(0) is
    -inf).  log2(1/c) is taken as -mp.mag(c), at most one bit low, which
    GUARD covers.

    At an error e from an alpha-fold root a coefficient form's f carries a
    relative error of about 2**-bits / e**alpha, and the correction needs a
    relative accuracy of e**2: a sweep whose incoming errors are about e
    needs (alpha + 2) log2(1/e) bits.  A sweep's corrections track its
    incoming errors, and the next sweep's errors are about their cube, so
    `sweeps` = 3 sizes the next sweep and 1 checks the sweep itself.
    """
    need = FLOOR if corrections is None else GUARD + sweeps * max(
        (a + 2) * -mp.mag(c) for a, c in zip(multiplicities, corrections))
    rung = FLOOR
    while rung < min(need, bits):
        rung *= 2
    return min(rung, bits)


def _ladder_step(poly, multiplicities, entry, settings, true_roots):
    """`step` from `entry`, swept at the lowest rung that keeps its accuracy.

    The rung covers three times the bits of the previous corrections (cubic
    convergence); the first sweep has none and takes FLOOR.  One sweep runs
    on the polynomial and the approximations rounded to the rung.  It is
    kept only if it raised nothing in FAILURES and its corrections are all
    nonzero, the largest above the tolerance, and all within the rung
    (`_rung` with sweeps=1); otherwise the sweep is redone at full
    precision by `step`.  So freezes, the converging sweep and any failure
    are decided at full precision.  A kept sweep's entry takes its
    residuals and errors at the rung, from the same polynomial.
    """
    bits = settings.precision_bits
    # at or below FLOOR the rung is `bits`: every sweep runs at full precision
    rung = _rung(multiplicities, entry.corrections, 3, bits)
    if rung < bits:
        try:
            new, corrections = _sweep(
                poly, multiplicities,
                [to_mpf(x, rung) for x in entry.approximations], rung,
                settings.sweep_mode)
        except tuple(FAILURES):
            pass  # a rung too coarse to tell apart what full precision can
        else:
            if (max(corrections) > settings.tolerance
                    and _rung(multiplicities, corrections, 1, bits) <= rung):
                return _entry(poly, new, entry.k + 1, rung,
                              corrections=corrections, true_roots=true_roots)
    return step(poly, multiplicities, entry, settings, true_roots=true_roots)


def order_error_sequence(trace):
    """Per-iteration max error (or max correction, when the truth is not in
    the trace) suitable for order estimation, from one walk of the trace.

    A coordinate that froze on the evaluation noise floor (correction 0 with
    a nonzero residual) no longer converges, and its stale error would
    pollute the ratios.  Each coordinate leaves at its own freeze, entry k
    is the max over the coordinates not yet frozen at k, and the sequence
    ends when every coordinate has frozen.  `cut` counts its entries before
    the first iteration where any coordinate froze.
    Returns (sequence, kind, cut) with kind in {"error", "correction"}.
    """
    kind = "error" if trace and trace[0].errors is not None else "correction"
    live = set(range(len(trace[0].approximations))) if trace else set()
    sequence, cut = [], None
    for entry in trace:
        if entry.corrections is not None and entry.residuals is not None:
            frozen = {i for i, (c, r) in enumerate(
                zip(entry.corrections, entry.residuals)) if c == 0 and r > 0}
            if frozen and cut is None:
                cut = len(sequence)
            live -= frozen
        if not live:
            break
        if kind == "error":
            sequence.append(max(entry.errors[i] for i in live))
        elif entry.corrections is not None:
            sequence.append(max(entry.corrections[i] for i in live))
    return sequence, kind, len(sequence) if cut is None else cut


def trace_order(trace):
    """(OrderEstimate, kind) of a trace's `order_error_sequence`, computed
    at 53 bits whatever the caller's `mp.prec`.

    The window before the first freeze, `sequence[:cut]`, where every
    coordinate still converges, is preferred.  When it is too short (a
    multiple root froze early while another coordinate went on converging),
    the whole sequence is used.  Errors below 2**8 ulp at the trace's
    precision and the magnitude of the last entry's approximations (at
    least 1) are roundoff, and the estimate leaves them out.  Raises
    InsufficientDataError when no window of either sequence qualifies.
    """
    sequence, kind, cut = order_error_sequence(trace)
    with working(53):
        scale = max([mp.mpf(1)] + [abs(x) for x in trace[-1].approximations])
        floor = mp.mpf(2) ** 8 * eps(trace[0].precision_bits) * scale
        try:
            return estimate_order(sequence[:cut], floor=floor), kind
        except InsufficientDataError:
            return estimate_order(sequence, floor=floor), kind


def solve(poly, multiplicities, initial, settings=None, true_roots=None):
    """Iterate `step` until every correction is within tolerance, each sweep
    above FLOOR bits on the precision ladder (`_ladder_step`).  Without
    `settings` the solve runs at the polynomial's precision.

    Termination reasons: `converged` (all corrections <= tolerance),
    `max_iterations`, `collision` (two approximations closer than the
    collision threshold), `diverged` (degenerate denominator or the
    approximations left a generous bounding radius), `nonfinite` (see
    FAILURES).  Only a converged solve carries an `estimated_order`.
    """
    settings = settings or SolveSettings(precision_bits=poly.precision_bits)
    # a copy with an empty point memo, which serves every rung of this
    # solve: no solve reads the points another solve or the caller evaluated
    poly = replace(poly)
    bits = settings.precision_bits
    multiplicities = require_multiplicities(multiplicities, len(initial))
    true_roots = _truths(true_roots, bits)
    trace = [initial_state(poly, initial, settings, true_roots=true_roots)]
    with working(bits):
        escape_radius = mp.mpf(10) ** 6 * (
            1 + max(abs(x) for x in trace[0].approximations)
        )
    termination = MAX_ITERATIONS
    for _ in range(settings.max_iterations):
        try:
            entry = _ladder_step(poly, multiplicities, trace[-1], settings,
                                 true_roots)
        except tuple(FAILURES) as exc:
            termination = FAILURES[type(exc)]
            break
        trace.append(entry)
        if max(abs(x) for x in entry.approximations) > escape_radius:
            termination = DIVERGED
            break
        if max(entry.corrections) <= settings.tolerance:
            termination = CONVERGED
            break
    order = None
    if termination == CONVERGED:
        try:
            order = trace_order(trace)[0].order
        except InsufficientDataError:
            pass
    return SolveReport(termination, tuple(trace), order)
