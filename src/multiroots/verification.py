"""Independent verification paths: baseline iterations and residual checks.

Everything here is deliberately written as a second implementation, not a
call into the solver's code paths: the baseline isolates the value of the
coupling term, the classical simple-root step cross-checks the reduction
identity, and root verification differentiates coefficient forms with its
own local routines and evaluates the algebraic ones with mpmath's
`polyval`.  Its only knowledge of the series families is `_BASIS`,
its own table of each family's basis pair and derivative sign; the input
rules (multiplicities, distinct knots, precision) are the package's.
"""

from dataclasses import dataclass, replace

from mpmath import mp

from .errors import (
    CollisionError,
    DegenerateDerivativeError,
    InvalidConfigurationError,
)
from .polynomials import (
    EXPONENTIAL,
    TRIGONOMETRIC,
    AlgebraicPoly,
    FactoredForm,
    SeriesPoly,
    evaluate,
    evaluate_derivative,
    expand_from_roots,
    require_distinct,
    require_multiplicities,
)
from .precision import require_bits, to_mpf, working

# a series family's basis pair (E, O) and the sign s in d/dx E(lx) = s l O(lx)
_BASIS = {TRIGONOMETRIC: (mp.cos, mp.sin, -1),
          EXPONENTIAL: (mp.cosh, mp.sinh, 1)}


@dataclass(frozen=True)
class NewtonTrace:
    approximations: tuple   # x_0 ... x_k
    corrections: tuple      # |x_{j+1} - x_j|
    converged: bool

    def errors_against(self, root):
        return tuple(abs(x - root) for x in self.approximations)


def newton_with_multiplicity(poly, multiplicity, initial, settings):
    """Multiplicity-aware Newton baseline on a single root:
    x <- x - alpha * f(x) / f'(x) until the correction is within tolerance.

    Quadratic when alpha matches the root's multiplicity, linear when it
    does not; no coupling to other roots.  Raises
    DegenerateDerivativeError if f' underflows to zero away from a root.
    """
    (multiplicity,) = require_multiplicities((multiplicity,), 1)
    bits = settings.precision_bits
    with working(bits):
        x = to_mpf(initial, bits)
        approximations = [x]
        corrections = []
        converged = False
        for _ in range(settings.max_iterations):
            f = evaluate(poly, x, bits)
            if f == 0:
                converged = True
                break
            fp = evaluate_derivative(poly, x, bits)
            if fp == 0:
                raise DegenerateDerivativeError(
                    f"derivative underflow at x={x}"
                )
            correction = multiplicity * f / fp
            x = x - correction
            approximations.append(x)
            corrections.append(abs(correction))
            if abs(correction) <= settings.tolerance:
                converged = True
                break
        return NewtonTrace(tuple(approximations), tuple(corrections), converged)


# --- analytic coefficient differentiation, local to this module -------------

def _alg_derive(coeffs):
    n = len(coeffs) - 1
    return [c * (n - k) for k, c in enumerate(coeffs[:-1])]


def _series_eval(a0, a, b, family, x):
    even, odd, _ = _BASIS[family]
    terms = [a0 / 2]
    for l in range(1, len(a) + 1):
        terms.append(a[l - 1] * even(l * x))
        terms.append(b[l - 1] * odd(l * x))
    return mp.fsum(terms)


def _series_abs_eval(a0, a, b, family, x):
    # |E| <= 1 bounds a periodic (s < 0) term; cosh(lx) weighs the others
    even, _, sign = _BASIS[family]
    terms = [abs(a0) / 2]
    for l in range(1, len(a) + 1):
        term = abs(a[l - 1]) + abs(b[l - 1])
        terms.append(term * even(l * x) if sign > 0 else term)
    return mp.fsum(terms)


def _derivative_ladder(poly, up_to):
    """Evaluators for f, f', ..., f^(up_to) from coefficient recurrences; a
    factored form is expanded, its monic algebraic expansion times its scale."""
    lead = 1
    if isinstance(poly, FactoredForm):
        if poly.family not in _BASIS:
            lead, poly = poly.scale, replace(poly, scale=1)
        poly = expand_from_roots(poly)
    evals = []
    if isinstance(poly, AlgebraicPoly):
        # descending coefficients including the implicit leading 1
        coeffs = [mp.mpf(1)] + list(poly.coeffs)
        if lead != 1:
            coeffs = [lead * c for c in coeffs]
        for _ in range(up_to + 1):
            evals.append((
                lambda x, cs=coeffs: mp.polyval(cs, x),
                lambda x, cs=coeffs: mp.polyval([abs(c) for c in cs], abs(x)),
            ))
            coeffs = _alg_derive(coeffs)
    elif isinstance(poly, SeriesPoly):
        family = poly.family
        sign = _BASIS[family][2]
        a0, a, b = poly.a0, list(poly.even), list(poly.odd)
        for _ in range(up_to + 1):
            evals.append((
                lambda x, t=(a0, a, b): _series_eval(*t, family, x),
                lambda x, t=(a0, a, b): _series_abs_eval(*t, family, x),
            ))
            # one analytic derivative in coefficient space: l b_l onto E(lx),
            # s l a_l onto O(lx)
            a0, a, b = (mp.mpf(0), [l * v for l, v in enumerate(b, 1)],
                        [sign * l * v for l, v in enumerate(a, 1)])
    else:
        raise TypeError(f"not a polynomial representation: {poly!r}")
    return evals


@dataclass(frozen=True)
class CheckRecord:
    root_index: int
    derivative_order: int
    value: object
    bound: object
    want_zero: bool
    passed: bool


def _claim_factor(family, u):
    if family in _BASIS:
        return _BASIS[family][1](u / 2)
    return u


def _claimed_shape(family, claimed, x):
    v = mp.mpf(1)
    for r, a in zip(claimed.roots, claimed.multiplicities):
        v *= _claim_factor(family, x - r) ** a
    return v


def _leading_scale(poly, claimed, value_fn):
    # recover the overall multiplicative constant of the claimed factorization
    # at the probe point farthest from every claimed root
    if poly.family not in _BASIS:
        # a factored form leads with its scale; a coefficient form is monic
        return poly.scale if isinstance(poly, FactoredForm) else mp.mpf(1)
    lo, hi = min(claimed.roots), max(claimed.roots)
    candidates = [hi + mp.mpf("0.9"), lo - mp.mpf("0.7"), (lo + hi) / 2 + mp.mpf("1.3")]
    probe = max(candidates, key=lambda x: min(abs(x - r) for r in claimed.roots))
    return value_fn(probe) / _claimed_shape(poly.family, claimed, probe)


def _predicted_alpha_derivative(family, claimed, i, lead):
    """Magnitude the claimed structure itself predicts for |f^(a_i)(r_i)|:
    a_i! * lead * (1/2)^{a_i} [trig/exp] * prod over other factors at r_i."""
    r_i, a_i = claimed.roots[i], claimed.multiplicities[i]
    v = mp.factorial(a_i) * abs(lead)
    if family in _BASIS:
        v /= mp.mpf(2) ** a_i
    for j, (r, a) in enumerate(zip(claimed.roots, claimed.multiplicities)):
        if j != i:
            v *= abs(_claim_factor(family, r_i - r)) ** a
    return v


@dataclass(frozen=True)
class VerificationOutcome:
    residuals: tuple  # per root, |f(r_i)|
    passed: bool
    details: tuple    # CheckRecord per individual check

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        lines = [f"verification: {status}"]
        for rec in self.details:
            mark = "ok" if rec.passed else "FAIL"
            rel = "= 0" if rec.want_zero else "!= 0"
            lines.append(
                f"  [{mark}] root {rec.root_index}: |f^({rec.derivative_order})| "
                f"{rel} within {rec.bound} (got {rec.value})"
            )
        return "\n".join(lines)


def verify_roots(poly, claimed, tolerance, bits=None):
    """Check each claimed root's multiplicity structure analytically.

    For root r with claimed multiplicity a, the first a derivatives must
    vanish and the a-th must not:

    - zero checks, j = 0..a-1: |f^(j)(r)| <= tolerance * scale_j, where
      scale_j is the j-th derivative's absolute-coefficient evaluation at r
      (the roundoff-attainable magnitude, so the check is scale-free);
    - exactness check: |f^(a)(r)| > tolerance * predicted_a, where
      predicted_a is the magnitude the claimed factorization itself implies
      for the a-th derivative at r.  At a correct claim the ratio is near 1,
      so the check separates cleanly from the zero checks at any precision.

    All derivative values come from analytic coefficient differentiation.
    Failures are recorded in the outcome, never raised; a tolerance that
    is not finite and > 0 raises InvalidConfigurationError: one <= 0 or nan
    would fail every zero check, and +inf every exactness check.
    """
    bits = require_bits(bits or getattr(poly, "precision_bits", 53))
    tolerance = to_mpf(tolerance, bits)
    if not (mp.isfinite(tolerance) and tolerance > 0):
        raise InvalidConfigurationError("tolerance must be finite and > 0")
    family = poly.family
    with working(bits):
        ladder = _derivative_ladder(poly, max(claimed.multiplicities))
        lead = _leading_scale(poly, claimed, ladder[0][0])
        details = []
        for i, (r, a) in enumerate(zip(claimed.roots, claimed.multiplicities)):
            for j in range(a + 1):
                value_fn, scale_fn = ladder[j]
                value = abs(value_fn(r))
                want_zero = j < a
                if want_zero:
                    bound = tolerance * max(scale_fn(r), mp.mpf(1))
                    passed = value <= bound
                else:
                    bound = tolerance * _predicted_alpha_derivative(
                        family, claimed, i, lead)
                    passed = value > bound
                details.append(
                    CheckRecord(i, j, value, bound, want_zero, passed)
                )
        return VerificationOutcome(
            residuals=tuple(rec.value for rec in details
                            if rec.derivative_order == 0),
            passed=all(rec.passed for rec in details),
            details=tuple(details),
        )


def classical_ehrlich_step(poly, approximations, mode="simultaneous", bits=None):
    """One classical simple-root simultaneous step, written independently of
    the solver: x_i <- x_i - f(x_i) / (f'(x_i) - f(x_i) * sum_j 1/(x_i - x_j)).

    All multiplicities are implicitly 1.  A single approximation degenerates
    to a plain Newton step.  `mode` is "simultaneous" (Jacobi) or
    "sequential" (Gauss-Seidel); anything else raises
    InvalidConfigurationError.
    """
    if mode not in ("simultaneous", "sequential"):
        raise InvalidConfigurationError(f"unknown mode {mode!r}")
    bits = require_bits(bits or getattr(poly, "precision_bits", 53))
    with working(bits):
        x = [to_mpf(v, bits) for v in approximations]
        threshold = mp.mpf(2) ** (mp.mpf(-bits) / 2)
        out = list(x)
        for i in range(len(x)):
            fi = evaluate(poly, x[i], bits)
            if fi == 0:
                continue
            fpi = evaluate_derivative(poly, x[i], bits)
            acc = mp.mpf(0)
            for j in range(len(x)):
                if j == i:
                    continue
                xj = out[j] if (mode == "sequential" and j < i) else x[j]
                dx = x[i] - xj
                if abs(dx) < threshold:
                    raise CollisionError(j, dx, threshold, i=i)
                acc += 1 / dx
            out[i] = x[i] - fi / (fpi - fi * acc)
        return tuple(out)


def _expand_simple(roots):
    # descending coefficients of prod (x - r), leading 1
    coeffs = [mp.mpf(1)]
    for r in roots:
        nxt = [mp.mpf(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c
            nxt[k + 1] -= c * r
        coeffs = nxt
    return coeffs


def simple_root_reduction_residual(simple_roots, index, bits=53):
    """Residual of the identity that collapses the coupled denominator to its
    classical simple-root form, evaluated at knot `index`.

    With Q(x) = prod_j (x - x_j) over distinct knots and Q_i = Q / (x - x_i),
    returns Q''(x_i)/Q'(x_i) - 2 Q_i'(x_i)/Q_i(x_i), computed from explicit
    coefficient expansion (an independent path from `log_derivative_sum`).
    Zero up to roundoff whenever all knots are distinct.
    """
    require_bits(bits)
    with working(bits):
        roots = [mp.mpf(r) for r in simple_roots]
        require_distinct(roots, "knots")
        if not 0 <= index < len(roots):
            raise InvalidConfigurationError(f"index {index} out of range")
        x = roots[index]
        full = _expand_simple(roots)
        d1 = _alg_derive(full)
        d2 = _alg_derive(d1)
        lhs = mp.polyval(d2, x) / mp.polyval(d1, x)
        others = roots[:index] + roots[index + 1:]
        qi = _expand_simple(others)
        qi1 = _alg_derive(qi)
        rhs = 2 * mp.polyval(qi1, x) / mp.polyval(qi, x)
        return lhs - rhs
