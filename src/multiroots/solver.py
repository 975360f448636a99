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

A factored form's sweep needs neither f nor f': D_i / f(x_i) is one sum
of the family's log-derivative terms over the roots and the other
approximations, which `_fixed_sweep` forms exactly in Python ints at one
fixed-point scale per sweep.  A coefficient form's rung sweeps up to
FIXED_RUNGS bits run in the same loop, with f'/f from the form's integer
stage (extended Horner, or the series recurrence) in place of the root
sum; its other sweeps read f, f', the rounding bound and the coupling
from the mpf kernels (`_sweep`).

Above FLOOR bits, `solve` climbs a precision ladder: cubic convergence
triples the correct bits per sweep, so each sweep runs at the smallest rung
FLOOR * 2**j that the previous corrections say it needs, or is redone at
full precision when its own corrections show too few bits (`_ladder_step`).
Coefficient and factored forms climb the same rungs; a factored form's
sweeps run in fixed point on each, and a coefficient form's up to
FIXED_RUNGS bits.

Each sweep's TraceEntry records the residuals |f(x_i)| at its precision,
and the errors |x_i - r_i| when the true roots are known.  Any list of an
entry may be taken on its first read (`_OnRead`), and a solve's entries
take both so (`_entry`): no sweep decides anything on them.  But a
coefficient form's mpf sweep at the incoming entry's precision evaluates
f at its points, so that entry takes its residuals right after the
sweep, from the point memo (`_sweep`), and a solve that converged or ran
out of iterations takes its last entry's before it returns (`solve`).
So only the entries whose points no mpf sweep evaluates at their
precision wait for a reader: the k = 0 entry above FLOOR bits, whose
first sweep runs on a rung, every entry of a rung up to FIXED_RUNGS
bits, whose sweeps run in fixed point and leave no point memo, a higher
rung's entry before a climb, the last entry of a failed solve, and
every entry of a factored form, whose sweeps read no f.  The
report's order (`SolveReport.estimated_order`) reads the errors, on its
first read, and the residuals only at an entry where a coordinate stood
still (`order_error_sequence`); an iterate on a stored root reads f = 0
there by lookup.  A loaded report's entries take their lists on first
read as well (`load_report`).

A sweep fails in three ways of its own (`FAILURES`): two approximations
collide, a correction's denominator degenerates, or a factored sweep
meets a pole of its fixed-point terms.  Every container refuses a
non-finite coefficient, root or scale, and `solve` a non-finite start,
so every point a sweep reads is finite, and so is f there.
"""

import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .convergence import estimate_order
from .errors import (
    CollisionError,
    DegenerateDenominatorError,
    InsufficientDataError,
    InvalidConfigurationError,
)
from .polynomials import (
    FactoredForm,
    _top,
    collision_threshold,
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
TERMINATIONS = (CONVERGED, MAX_ITERATIONS, COLLISION, DIVERGED)

# What `solve` reports when a sweep raises one of these; `_ladder_step`
# retries a rung's sweep at full precision on the same ones.
FAILURES = {
    CollisionError: COLLISION,
    DegenerateDenominatorError: DIVERGED,
    ZeroDivisionError: DIVERGED,
}

# The lowest rung of the precision ladder; a solve at or below it never
# climbs one.  GUARD bits are kept beyond what the error estimate asks for.
FLOOR = 256
GUARD = 32

# A coefficient form's rung sweeps run in fixed point up to FIXED_RUNGS
# bits (`_fixed_sweep`), and above it on the mpf kernels.  At 256 and 512
# bits the interpreter, not the arithmetic, sets the cost of a libmp call
# per operation.  On `deep_coeffs` (seeds 201-203, in-process, best of
# 3) a cap of 2048 bits gave no further gain over this one.
FIXED_RUNGS = 2 * FLOOR

# A factored sweep's fixed-point scale holds FIXED_GUARD bits beyond the
# `bits` of its largest value (`_fixed_scale`); RND rounds its results.
FIXED_GUARD = 24
RND = round_nearest


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
            if not (mp.isfinite(tol) and tol > 0):
                raise InvalidConfigurationError(
                    f"correction_tolerance must be finite and > 0, got {tol}")
            object.__setattr__(self, "correction_tolerance", tol)

    @property
    def tolerance(self):
        if self.correction_tolerance is not None:
            return self.correction_tolerance
        return mp.mpf(2) ** (-(self.precision_bits - 8))


class _Deferred(partial):
    """A conversion not yet made: a `TraceEntry` list field holding one is
    taken on its first read (`_OnRead`).  `_entry` defers a solve's
    residuals and errors; `load_report` defers the parse of a report's
    trace lists."""


class _OnRead:
    """A list field of `TraceEntry`: the value the entry was built with,
    or, for a `_Deferred` one, its tuple, taken on the first read and
    kept.  Equality, hashing, `repr` and `dataclasses.replace` read the
    field, so they take it too.  It has no class-level value, so the
    dataclass gives the field no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, entry, owner=None):
        if entry is None:
            raise AttributeError(self.name)
        value = entry.__dict__[self.name]
        if type(value) is _Deferred:
            value = entry.__dict__[self.name] = value()
        return value

    def __set__(self, entry, value):
        entry.__dict__[self.name] = value


@dataclass(frozen=True)
class TraceEntry:
    """One entry of a solve's trace.  Its lists may be `_Deferred` and
    taken on first read (`_OnRead`): a solve's residuals and errors
    (`_entry`; a coefficient form's residuals are mostly taken inside the
    solve, see `_sweep`), and a loaded report's lists in the form
    `format_real` writes (`load_report`)."""
    k: int
    approximations: tuple = _OnRead()
    residuals: tuple = _OnRead()
    corrections: tuple = _OnRead()  # None for the initial entry
    errors: tuple = _OnRead()       # vs. true roots, when known; else None
    precision_bits: int  # bits the sweep, residuals and errors ran at


@dataclass(frozen=True)
class SolveReport:
    """A solve's record: how it ended, and its trace, which holds the roots
    it ended on, the sweeps it ran, its precision and the order it saw."""
    termination: str
    trace: tuple

    @cached_property
    def estimated_order(self):
        """The trace's order (`trace_order`), taken on the first read and
        kept.  Only a converged solve carries one, and only where a window
        of its trace qualifies; otherwise None."""
        if self.termination != CONVERGED:
            return None
        try:
            return trace_order(self.trace)[0].order
        except InsufficientDataError:
            return None

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
    """The TraceEntry of `approximations`, with their residuals and errors
    at `bits`.

    Both are deferred (`_Deferred`) and taken on the entry's first read of
    them: no sweep decides anything on them, so only a reader (the order,
    `save_report`) pays for them.  Where a coefficient form's sweep
    evaluated f at the points at `bits`, the solver reads the residuals
    right after it, from the point memo (`_sweep`).  The coefficients and
    the points are finite, and so is f at them: a late read raises
    nothing."""
    approximations = tuple(approximations)
    residuals = _Deferred(_residuals, poly, approximations, bits)
    errors = (None if true_roots is None
              else _Deferred(_errors, poly.family, approximations, true_roots,
                             bits))
    return TraceEntry(k, approximations, residuals, corrections, errors, bits)


def _residuals(poly, approximations, bits):
    """|f(x)| at each of `approximations`, at `bits`."""
    with working(bits):
        return tuple(abs(evaluate(poly, x, bits)) for x in approximations)


def _errors(family, approximations, true_roots, bits):
    """|x_i - r_i| at `bits`, modulo the period."""
    with working(bits):
        return tuple(abs(root_offset(family, x, r))
                     for x, r in zip(approximations, true_roots))


def _reals(values, bits, name):
    """`values` as finite mpf at `bits`; InvalidConfigurationError names
    `name`.format(index) of a value that is not a finite real."""
    reals = []
    for i, v in enumerate(values):
        try:
            x = to_mpf(v, bits)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidConfigurationError(
                f"{name.format(i)} is not a real: {v!r}") from None
        if not mp.isfinite(x):
            raise InvalidConfigurationError(
                f"{name.format(i)} is not finite: {x}")
        reals.append(x)
    return tuple(reals)


def _truths(true_roots, bits, count):
    """The true roots, when known, converted as `solve` converts them: one
    finite real per approximation, of which there are `count`."""
    if true_roots is None:
        return None
    truths = _reals(true_roots, bits, "true_roots[{}]")
    if len(truths) != count:
        raise InvalidConfigurationError(
            f"true_roots has {len(truths)} values for {count} approximations")
    return truths


def _starts(initial, bits):
    """The initial approximations as `solve` converts them: distinct
    finite reals at `bits`."""
    x0 = _reals(initial, bits, "initial approximation {}")
    require_distinct(x0, "initial approximations")
    return x0


def initial_state(poly, initial, settings, true_roots=None):
    """The k=0 TraceEntry at the initial approximations.  `true_roots`
    takes what `solve` takes."""
    bits = settings.precision_bits
    x0 = _starts(initial, bits)
    return _entry(poly, x0, 0, bits,
                  true_roots=_truths(true_roots, bits, len(x0)))


def step(poly, multiplicities, entry, settings, true_roots=None):
    """One sweep over the approximations of `entry`; returns the next
    TraceEntry.  `true_roots` takes what `solve` takes.

    Raises CollisionError / DegenerateDenominatorError on the
    corresponding per-root failures, and a factored sweep
    ZeroDivisionError at a pole (`_fixed_sweep`); `solve` maps these to
    termination reasons (FAILURES).  A coefficient form's `entry` takes
    its residuals after the sweep, where it ran at the entry's precision
    (`_sweep`).
    """
    bits = settings.precision_bits
    count = len(entry.approximations)
    return _step(poly, require_multiplicities(multiplicities, count), entry,
                 settings, _truths(true_roots, bits, count))


def _step(poly, multiplicities, entry, settings, true_roots):
    """`step` on multiplicities already checked and true roots already
    converted (`_truths`): `solve` converts them once, not once a sweep."""
    bits = settings.precision_bits
    new, corrections = _sweep(poly, multiplicities, entry.approximations,
                              bits, settings.sweep_mode, entry)
    return _entry(poly, new, entry.k + 1, bits, corrections=corrections,
                  true_roots=true_roots)


def _sweep(poly, multiplicities, approximations, bits, sweep_mode,
           entry=None):
    """(new approximations, |corrections|) of one sweep at `bits`: a
    factored form's in fixed point (`_fixed_sweep`), a coefficient form's
    from the mpf kernels.

    `entry` is the TraceEntry the sweep starts from.  An mpf sweep at the
    entry's precision evaluated f at each of its points, so the entry
    takes its residuals after it, from the point memo, which holds every
    point the sweep read; an entry that no sweep evaluates at its
    precision waits for a reader (`_entry`)."""
    if isinstance(poly, FactoredForm):
        return _fixed_sweep(poly, multiplicities, approximations, bits,
                            sweep_mode)
    with working(bits):
        current = list(approximations)
        new = list(approximations)
        corrections = [mp.mpf(0)] * len(current)
        degenerate_floor = mp.mpf(2) ** (-(bits - 4))
        # half-cotangents stored for the partner pair: one dict per sweep,
        # so no sweep reads another's points or precision
        pairs = {}
        for i, xi in enumerate(current):
            fi = evaluate(poly, xi, bits)
            # freeze the coordinate once |f| is below the evaluation's
            # rounding bound: past that point the residual is cancellation
            # noise and a correction computed from it walks away from the root
            if fi == 0 or abs(fi) <= evaluation_noise(poly, xi, bits):
                continue
            fpi = evaluate_derivative(poly, xi, bits)
            # `new` holds the updated entries before i and the incoming ones
            # after it
            source = new if sweep_mode == SEQUENTIAL else current
            # a series coefficient form lends the coupling the basis pairs
            # its point memo holds
            try:
                coupling = log_derivative_sum(
                    poly.family, source[:i] + source[i + 1:],
                    multiplicities[:i] + multiplicities[i + 1:], xi, bits,
                    pairs=pairs, poly=poly)
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
    if entry is not None and bits == entry.precision_bits:
        entry.residuals  # the read takes them (`_OnRead`)
    return tuple(new), tuple(corrections)


def _fixed_scale(values, bits):
    """The fraction bits of a fixed-point sweep at `bits` over the raw
    `values`: bits + FIXED_GUARD + log2 of the largest |value| above 1."""
    return bits + FIXED_GUARD + max(0, _top(*values))


def _fixed_sweep(poly, multiplicities, approximations, bits, sweep_mode):
    """(new approximations, |corrections|) of one sweep of `poly` at
    `bits`, summed in Python ints at one scale 2**frac (`_fixed_scale`).
    With h = g'/g the family's log-derivative,

        S_i = D_i / f(x_i) = G_i - sum_{j != i} alpha_j h(x_i - x_j),
        G_i = f'(x_i) / f(x_i),

    and x_i moves by alpha_i / S_i, the quotient floored at the scale, or
    finer where it would keep fewer than bits + 2 bits; the new iterate
    and |correction| are each rounded once to `bits`.  The approximations,
    and a factored form's roots, enter the scale floored, exactly where
    they have no bits below 2**-frac.  Every coupling term h(x - y) is the
    family's `fixed_term` of the offset and the two points' bases, and
    G_i comes from the representation's `fixed_stage`, which hands the
    sweep both: for a factored form the sum of a_k h(x_i - r_k) over its
    roots, terms each within a few units of 2**-frac, or about 2**-frac
    relative where |x_i - r_k| is below 1, so no cancellation in S_i
    costs bits; for a coefficient form f' / f from extended Horner or the
    series recurrence on its coefficients floored to the scale.

    A coordinate freezes where the stage gives no G_i: where x_i is a root
    of a factored form at this scale (f = 0 there, or x_i within 2**-frac
    of a root that carries more bits), and where a coefficient form's f is
    0 or within its rounding bound, the mpf sweep's rule, or its point lies
    beyond the basis reach.  The other rules of the mpf sweep hold on the
    ints: a collision where a raw |x_i - x_j| is below
    `collision_threshold(bits)`, and a degenerate denominator where |S_i|
    < 2**(4 - bits) |G_i|, which is |D_i| < 2**(4 - bits) |f'(x_i)|.  Only
    that error evaluates f, to report D_i and f'(x_i) as the mpf sweep
    does.  In `simultaneous` mode each pair's h is computed once, for the
    partner as -h; `sequential` mode reads the updated entries, each with
    a basis of its own.  A trigonometric term within 2**-frac of a pole
    (an iterate a period from a root or from another) raises
    ZeroDivisionError.
    """
    raws = [to_mpf(x, bits)._mpf_ for x in approximations]
    frac = _fixed_scale(raws + list(poly._roots), bits)
    basis, term, ratio = poly.fixed_stage(frac)
    threshold = collision_threshold(bits)
    near = to_fixed(threshold._mpf_, frac)
    current = [to_fixed(x, frac) for x in raws]
    bases = [basis(x) for x in current]
    sequential = sweep_mode == SEQUENTIAL
    # the updated entries before i and the incoming ones after it
    source = list(current) if sequential else current
    source_bases = list(bases) if sequential else bases
    new = list(approximations)
    corrections = [mp.mpf(0)] * len(current)
    pairs = {}  # h(x_j - x_i) for the pair (j, i), in simultaneous mode
    for i, xi in enumerate(current):
        bx = bases[i]
        own = ratio(xi, bx, bits)
        if own is None:
            continue
        coupling = 0
        for j, xj in enumerate(source):
            if j == i:
                continue
            u = xi - xj
            if abs(u) < near:
                raise CollisionError(
                    j, mp.make_mpf(from_man_exp(u, -frac, bits, RND)),
                    threshold, i=i)
            t = pairs.pop((i, j), None)
            if t is None:
                t = term(u, bx, source_bases[j])
                if not sequential:
                    pairs[j, i] = -t
            coupling += multiplicities[j] * t
        denom = own - coupling
        if denom == 0 or abs(denom) << (bits - 4) < abs(own):
            f = evaluate(poly, approximations[i], bits)
            with working(bits):
                raise DegenerateDenominatorError(
                    i, f * mp.make_mpf(from_man_exp(denom, -frac)),
                    f * mp.make_mpf(from_man_exp(own, -frac)))
        # the quotient at frac + extra bits keeps bits + 2 of a small one
        extra = max(0, bits + 2 + abs(denom).bit_length() - 2 * frac
                    - multiplicities[i].bit_length())
        correction = (multiplicities[i] << (2 * frac + extra)) // denom
        moved = from_man_exp((xi << extra) - correction, -(frac + extra),
                             bits, RND)
        new[i] = mp.make_mpf(moved)
        corrections[i] = mp.make_mpf(
            from_man_exp(abs(correction), -(frac + extra), bits, RND))
        if sequential:
            source[i] = to_fixed(moved, frac)
            source_bases[i] = basis(source[i])
    return tuple(new), tuple(corrections)


def _need(multiplicities, corrections, sweeps):
    """The bits a sweep needs: max_i (alpha_i + 2) * sweeps *
    log2(1/c_i) + GUARD, infinite once a correction is 0 (mp.mag(0) is
    -inf).  log2(1/c) is taken as -mp.mag(c), at most one bit low, which
    GUARD covers.

    At an error e from an alpha-fold root a coefficient form's f carries a
    relative error of about 2**-bits / e**alpha, and the correction needs a
    relative accuracy of e**2: a sweep whose incoming errors are about e
    needs (alpha + 2) log2(1/e) bits.  A sweep's corrections track its
    incoming errors, and the next sweep's errors are about their cube, so
    `sweeps` = 3 sizes the next sweep and 1 checks the sweep itself.
    """
    return GUARD + sweeps * max(
        (a + 2) * -mp.mag(c) for a, c in zip(multiplicities, corrections))


def _rung(multiplicities, corrections, sweeps, bits):
    """The smallest FLOOR * 2**j, capped at `bits`, that holds `_need`:
    FLOOR without corrections, and `bits` once a coordinate froze."""
    need = (FLOOR if corrections is None
            else _need(multiplicities, corrections, sweeps))
    rung = FLOOR
    while rung < min(need, bits):
        rung *= 2
    return min(rung, bits)


def _ladder_step(poly, multiplicities, entry, settings, true_roots):
    """`_step` from `entry`, swept at the lowest rung that keeps its accuracy.

    The rung is the one that covers three times the bits of the previous
    corrections (`_rung`; the first sweep has none and takes FLOOR), tried
    where it lies below full precision.  Its sweep runs on the
    approximations rounded to it.  It is kept only if it raised nothing in
    FAILURES, moved every approximation (a correction below half an ulp
    leaves its iterate where it was, and the next sweep would repeat this
    one), the largest of its corrections is above the tolerance, and all
    are within the rung (`_need` with sweeps=1).  Otherwise the sweep is
    redone at full precision by `_step`.  So freezes, the converging sweep
    and any failure are decided at full precision.  A kept sweep's entry
    takes its residuals and errors at the rung, from the same polynomial.

    Every representation's rung sweep runs in fixed point (`_fixed_sweep`)
    up to FIXED_RUNGS bits, and a coefficient form's above it on the mpf
    kernels (`_sweep`).  A coordinate the fixed-point sweep freezes keeps
    correction 0, so the rung is refused, as it is where a point lies
    beyond the reach of the sweep's bases.
    """
    bits = settings.precision_bits
    # at or below FLOOR the rung from `_rung` is `bits`: no rung below it
    rung = _rung(multiplicities, entry.corrections, 3, bits)
    if rung < bits:
        start = [to_mpf(x, rung) for x in entry.approximations]
        try:
            if rung <= FIXED_RUNGS:
                new, corrections = _fixed_sweep(poly, multiplicities, start,
                                                rung, settings.sweep_mode)
            else:
                new, corrections = _sweep(poly, multiplicities, start, rung,
                                          settings.sweep_mode, entry)
        except tuple(FAILURES):
            pass  # a rung too coarse to carry what full precision can
        else:
            if (_need(multiplicities, corrections, 1) <= rung
                    and max(corrections) > settings.tolerance
                    and all(map(operator.ne, new, start))):
                return _entry(poly, new, entry.k + 1, rung, corrections,
                              true_roots)
    return _step(poly, multiplicities, entry, settings, true_roots)


def order_error_sequence(trace):
    """Per-iteration max error (or max correction, when the truth is not in
    the trace) suitable for order estimation, from one walk of the trace.

    A coordinate that froze on the evaluation noise floor (correction 0 with
    a nonzero residual) no longer converges, and its stale error would
    pollute the ratios.  Only a coordinate whose correction is 0 has its
    residual read, so a deferred entry (`_entry`) where every coordinate
    moved never takes its residuals; of the approximations only the last
    entry's are read, for their count.  Each coordinate leaves at its own
    freeze, entry k is the max over the coordinates not yet frozen at k,
    and the sequence ends when every coordinate has frozen.  `cut` counts
    its entries before the first iteration where any coordinate froze.
    Returns (sequence, kind, cut) with kind in {"error", "correction"}.
    """
    kind = "error" if trace and trace[0].errors is not None else "correction"
    live = set(range(len(trace[-1].approximations))) if trace else set()
    sequence, cut = [], None
    for entry in trace:
        still = [i for i, c in enumerate(entry.corrections or ()) if c == 0]
        if still and entry.residuals is not None:
            frozen = {i for i in still if entry.residuals[i] > 0}
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
    """Iterate `step` until every correction is within tolerance, above
    FLOOR bits on the precision ladder (`_ladder_step`), and return the
    SolveReport of the termination and the trace.  Without `settings` the
    solve runs at the polynomial's precision.

    Termination reasons: `converged` (all corrections <= tolerance),
    `max_iterations`, `collision` (two approximations closer than the
    collision threshold), `diverged` (degenerate denominator, a pole of a
    factored sweep, or the approximations left a generous bounding
    radius).  Starts or true roots that are not finite reals, or true
    roots that are not one per start, raise InvalidConfigurationError
    before any sweep.

    A coefficient form's last entry takes its residuals before a solve
    that converged or ran out of iterations returns: its points are the
    last sweep's, where that sweep moved nothing, and a reader that takes
    the earlier deferred entries first would find them dropped from the
    point memo.  A failed solve's last entry waits for a reader, as a
    rung entry does: its termination is already decided.
    """
    settings = settings or SolveSettings(precision_bits=poly.precision_bits)
    # a copy with an empty point memo, which serves every rung of this
    # solve: no solve reads the points another solve or the caller evaluated
    poly = replace(poly)
    bits = settings.precision_bits
    multiplicities = require_multiplicities(multiplicities, len(initial))
    true_roots = _truths(true_roots, bits, len(initial))
    trace = [_entry(poly, _starts(initial, bits), 0, bits,
                    true_roots=true_roots)]
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
    if (termination in (CONVERGED, MAX_ITERATIONS)
            and not isinstance(poly, FactoredForm)):
        trace[-1].residuals  # the read takes them (`_OnRead`)
    return SolveReport(termination, tuple(trace))
