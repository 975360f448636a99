"""Polynomial families: representation, evaluation, differentiation, expansion.

Three families share one calling convention: algebraic polynomials in monic
coefficient form, trigonometric polynomials as finite cos/sin series, and
exponential polynomials as finite cosh/sinh series.  Each family also has a
factored representation built from distinct roots with multiplicities; the
factored form is first-class, so solvers accept either representation.
What tells the families apart lives in one table, `FAMILY`, from which
`log_derivative_sum` forms each family's coupling term.

Containers hold mpmath mpf values and record the binary precision they were
built at.  The per-point kernels (`evaluate`, `evaluate_derivative`,
`magnitude_scale`, `evaluation_noise`, `log_derivative_sum`) take and return
mpf, but compute on raw `mpmath.libmp` values at an explicit precision,
making the very calls mpmath's operators and functions would make at that
precision, so they give the same bits without the cost of building an mpf
and reading the global context for every operation.  They neither read nor
change `mp.prec`.  The `FAMILY` callables take raw values and a precision.
Asked for fewer bits than a representation holds, a kernel reads its
stored coefficients and scale rounded to those bits; a factored form's
roots are read as they are, since x - r rounds once.

A coefficient-form sweep asks for f, f' and the noise bound at one point,
and the incoming trace entry then takes its residuals, f again, at the
points the sweep read.  So each representation class computes a point in
stages.  Its value stage, `_pass(x, prec)`, returns f at a raw point
together with the state its two later stages read: extended Horner's
partial values for the algebraic form, the series basis
(`_series_basis`) for a series, one `factor_pair` call per root for a
factored form, whose value stage at one of its stored roots is a lookup.
`_slope` (f') and `_magnitude` run from that state on the first kernel
that reads them, so a point whose f alone is read (the residuals of a
trace entry that no sweep reads at its precision) costs only its value
stage.  What does not depend on the point a coefficient form keeps once
per precision (`_constants`), beside the fixed-point stages it keeps per
scale (`_kept`): the coefficients rounded to the precision, a series'
slope coefficients and magnitude weights, the |c_k| of the algebraic
form and the whole magnitude of a trigonometric series.  So a stage makes
only its per-point calls.  The stages do the arithmetic one eager pass
would do, call for call, so every kernel keeps its bits.  The four point
kernels share the stages through a memo on the instance, keyed by (raw
x, prec), that holds one `_Point` per point.  The memo drops its oldest
point past twice the representation's root count (n for an algebraic
polynomial of degree n, 2n for a series of degree n, the distinct roots
of a factored form), so the points one sweep reads, the incoming and,
in sequential mode, the updated ones, are still there when the incoming
entry takes its residuals.  `solver.solve` runs on its own copy of the polynomial,
so a memo lives for one solve and spans every rung of its precision
ladder.  The kernels return the same bits either way.  A nan or
infinite point is a FamilyOverflowError where its value stage would
run; every stored value is finite, so at a finite point every kernel's
value is finite.

The memo of a series also serves `log_derivative_sum`: given the
polynomial, it forms each coupling term from the first basis pairs
(E(x), O(x)) the two points' value stages hold, by angle subtraction,
and calls the family's half-cotangent only where that cancels
(`_product_half_cotangent`).

The solver's fixed-point sweeps, every sweep of a factored form and a
coefficient form's low rungs, read no kernel here: they sum g'/g in
Python ints at one scale 2**frac per sweep, on mpmath's own fixed-point
elementary functions (`libelefun`).  A series term comes from the two
points' fixed-point bases (`sweep_basis`), by angle subtraction, or from
the family's direct entry `fixed_log_derivative` where that cancels
(`fixed_term`).  Each representation's `fixed_stage(frac)` hands a sweep
(basis, term, ratio): its points' basis rule, that term, and ratio(x,
bx, bits), G = f'(x)/f(x) * 2**frac at the int point x with basis bx,
or None where the coordinate freezes.  A factored form's G sums the
terms to its roots, which it keeps floored with their bases per scale
(`FactoredForm.fixed_roots`), and is None only on a root.  A coefficient
form's G runs its stages in ints on its coefficients floored to the
scale, kept per scale, and is None where f = 0 or |f| <= noise_ops *
2**-bits * magnitude, the rule of `evaluation_noise`, widened by the
stage's own floors, or where a series point has no basis.  Their trace
entries run the value stage of their residuals only when something
reads them.
"""

import math
from dataclasses import dataclass
from typing import Callable

from mpmath import mp
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos_sin,
    mpf_cosh_sinh,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
    mpf_sum,
    mpf_tan,
    mpf_tanh,
    normalize,
    round_nearest,
    to_fixed,
    to_float,
)
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed

from .errors import CollisionError, FamilyOverflowError, InvalidConfigurationError
from .precision import require_bits, to_mpf, working

ALGEBRAIC = "algebraic"
TRIGONOMETRIC = "trigonometric"
EXPONENTIAL = "exponential"
FAMILIES = (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL)

# mp's rounding mode; every raw operation below rounds to nearest at an
# explicit precision, as mpf arithmetic does at mp.prec
RND = round_nearest
TWO = from_int(2)
NONFINITE = (finf, fninf, fnan)


@dataclass(frozen=True)
class Family:
    """What distinguishes one family, with u = x - r the offset from a root:
    the pair (g(u), g'(u)) of the factor g from one call and the number of
    roots (with multiplicity) per unit of degree.  Series families add
    their basis pair x -> (E(x), O(x)) from one call and the sign s in
    d/dx E(lx) = s l O(lx), which is also the sign in E(a + b) =
    E(a) E(b) + s O(a) O(b).  s decides the rest: at s = -1 the basis is
    bounded by 1 and roots repeat every 2 pi (`root_offset`); at s = +1
    |E(lx)| and |O(lx)| are bounded by the envelope E(lx)
    (`magnitude_scale`).

    A series family's coupling term a g'(u)/g(u) is (a/2) c(u), with c the
    half-cotangent 1/tangent(u/2), odd by construction; `log_derivative_sum`
    forms the term from it and reads c(-u) of a sweep's partner pair as
    -c(u) (`pairs`).  The algebraic family has no half-cotangent: its term
    a/u is one rounded division, and 1/u times a would round twice.

    The callables work on raw libmp values: `factor_pair(u, prec)`,
    `basis_pair(x, prec)` and `half_cotangent(u, prec)`, each rounding to
    nearest at `prec`.  Two more work in fixed point, for the solver's
    factored sweeps.  `fixed_log_derivative(u, frac)` maps the int u *
    2**frac to h(u) * 2**frac, h = g'/g, odd by construction, for any
    nonzero u: within a few units of 2**-frac times |u| where |u| >= 1,
    and below 1 within a few units and 2**(12 - frac) relative, so that a
    term near its pole at 0 keeps its relative accuracy, as an mpf term
    does.  A series family's `fixed_basis(v, prec)` maps the int v *
    2**prec to the ints (E(v), O(v)) * 2**prec, each within a few units
    times its size (`sweep_basis` takes it at half offsets).
    """

    factor_pair: Callable
    roots_per_degree: int
    fixed_log_derivative: Callable
    basis_pair: Callable = None
    derivative_sign: int = None
    half_cotangent: Callable = None
    fixed_basis: Callable = None


def _half(u, prec):
    return mpf_div(u, TWO, prec, RND)


def _odd(h):
    """The fixed-point entry u -> sign(u) h(|u|) of `h`, defined for u > 0:
    odd by construction, whatever rounding h does."""
    def entry(u, frac):
        return -h(-u, frac) if u < 0 else h(u, frac)
    return entry


def _fixed_inverse(u, frac):
    # 1/u: 2**(2 frac) / u, floored
    return (1 << 2 * frac) // u


def _finer(u, frac):
    """The guard bits of a series term at u * 2**frac: none above 2**-8,
    and below it 4 and the bits u lacks below 1, so that its sine keeps
    its relative accuracy at a small u, as 1/u does."""
    short = frac - u.bit_length()
    return short + 4 if short > 8 else 0


def _fixed_half_cot(u, frac):
    # (1/2) cot(u/2): u read at frac + 1 + k bits is u/2 at that scale,
    # and the scale of the pair (cos, sin) cancels in their ratio
    k = _finer(u, frac)
    c, s = cos_sin_fixed(u << k, frac + 1 + k)
    return (c << (frac - 1)) // s


def _fixed_half_coth(u, frac):
    # (1/2) coth(u/2) = (e^u + 1) / (2 (e^u - 1)), with e^u at frac + 2 + k
    # bits so that e^u - 1 keeps its relative accuracy; past (frac + 2) ln 2,
    # e^-u is below 2**-(frac + 2) and the term is 1/2
    if u > (frac + 2) * ln2_fixed(frac):
        return 1 << (frac - 1)
    k = _finer(u, frac)
    one = 1 << (frac + k)
    e = exp_fixed(u << k, frac + k)
    return ((e + one) << (frac - 1)) // (e - one)


def _fixed_cosh_sinh(u, prec):
    # from e^|v|, which keeps its relative accuracy, and e^-|v| = 1/e^|v|
    p = exp_fixed(abs(u), prec)
    q = (1 << 2 * prec) // p
    s = (p - q) >> 1
    return (p + q) >> 1, -s if u < 0 else s


def _series_family(pair, tangent, sign, fixed, fixed_pair):
    """The series family of libmp `pair` (x -> (E, O)), `tangent` (O/E) and
    sign s: g(u) = O(u/2), and the half-cotangent 1/tangent(u/2) is formed
    as mp.cot and mp.coth form it, at prec + 10, then rounded to prec.
    libmp's sin and sinh take their value from the same cos_sin and
    cosh_sinh computation, so g from the pair has their bits.  `fixed` is
    the halved half-cotangent at a positive int u in fixed point, and
    `fixed_pair` the pair (E, O) in fixed point (`Family.fixed_basis`)."""
    def factor_pair(u, prec):
        even, o = pair(_half(u, prec), prec, RND)
        return o, _half(even, prec)

    def half_cotangent(u, prec):
        # odd by construction: libmp's tanh(-v) is not always -tanh(v)
        t = tangent(_half(mpf_abs(u), prec), prec + 10, RND)
        c = mpf_pos(mpf_div(fone, t, prec + 10, RND), prec, RND)
        return mpf_neg(c) if u[0] else c

    return Family(
        factor_pair=factor_pair, roots_per_degree=2,
        fixed_log_derivative=_odd(fixed),
        basis_pair=lambda x, prec: pair(x, prec, RND),
        derivative_sign=sign, half_cotangent=half_cotangent,
        fixed_basis=fixed_pair)


FAMILY = {
    ALGEBRAIC: Family(factor_pair=lambda u, prec: (u, fone),
                      roots_per_degree=1,
                      fixed_log_derivative=_odd(_fixed_inverse)),
    TRIGONOMETRIC: _series_family(mpf_cos_sin, mpf_tan, -1, _fixed_half_cot,
                                  cos_sin_fixed),
    EXPONENTIAL: _series_family(mpf_cosh_sinh, mpf_tanh, 1, _fixed_half_coth,
                                _fixed_cosh_sinh),
}

# A point's fixed-point basis is taken BASIS_GUARD bits below its sweep's
# scale, about a centre, and only within 2**BASIS_REACH of it
# (`sweep_basis`): so no basis exceeds the scale by more than about
# 2**(BASIS_REACH - 1) / ln 2 bits, and a far point takes direct terms.  A
# sweep forms a term from two bases only where their angle subtraction
# loses at most BASIS_LOSS bits: the term's error grows as 2**(2 * loss -
# BASIS_GUARD) units of the scale, so it stays within about a unit.
BASIS_GUARD = 20
BASIS_REACH = 4
BASIS_LOSS = 8


def sweep_basis(family, u, frac):
    """(E, O, t) of a point whose offset from its sweep's centre is the
    int u at the scale 2**frac: the family's basis pair (E, O) at half
    that offset, as ints at the scale 2**(frac + BASIS_GUARD), and t the
    bit length of the larger of |E| and |O|.  None for the algebraic
    family, which has no basis, and where the offset reaches
    2**BASIS_REACH."""
    pair = FAMILY[family].fixed_basis
    if pair is None or abs(u) >> (frac + BASIS_REACH):
        return None
    e, o = pair(u << (BASIS_GUARD - 1), frac + BASIS_GUARD)
    return e, o, max(abs(e), abs(o)).bit_length()


def fixed_term(family, frac):
    """The map (u, bx, by) -> h(u) * 2**frac of a fixed-point sweep at the
    scale 2**frac, with h = g'/g the family's log-derivative, u the int
    offset x - y of two points and bx, by their `sweep_basis` about the
    sweep's centre, or None.

    A series term comes from the two bases (E, O): with s the family's
    sign, h(x - y) = (1/2) (E_x E_y - s O_x O_y) / (O_x E_y - E_x O_y),
    floored at the scale with the denominator's sign, so that it is odd.
    It is kept where the denominator lies at most BASIS_LOSS bits below
    the larger products, which keeps it within about a unit of 2**-frac;
    elsewhere, and where a point has no basis, the term is the family's
    direct `fixed_log_derivative`: close pairs, trigonometric pairs near a
    multiple of 2 pi, exponential pairs far to one side of the centre, and
    far points.  The algebraic family has no basis: its terms are one
    division each."""
    fam = FAMILY[family]
    h, sign = fam.fixed_log_derivative, fam.derivative_sign

    def term(u, bx, by):
        if bx and by:
            ex, ox, tx = bx
            ey, oy, ty = by
            d = ox * ey - ex * oy
            if tx + ty - d.bit_length() <= BASIS_LOSS:
                q = ((ex * ey - sign * ox * oy) << (frac - 1)) // abs(d)
                return q if d > 0 else -q
        return h(u, frac)

    return term


def degree_of(family, multiplicities):
    """Degree of a `family` polynomial whose roots have these multiplicities."""
    total = sum(multiplicities)
    per_degree = FAMILY[family].roots_per_degree
    if total % per_degree:
        raise InvalidConfigurationError(
            f"{family} total multiplicity must be divisible by {per_degree}, "
            f"got {total}"
        )
    return total // per_degree


def root_offset(family, x, r):
    """x - r at the working precision, reduced to [-pi, pi] for the periodic
    (s = -1) family, where x and r + 2 pi k are the same root.  Below 3 in
    size, u / 2 pi rounds to a nearest integer of exactly 0, so u is
    already reduced and the reduction is skipped."""
    u = x - r
    if FAMILY[family].derivative_sign == -1 and not abs(u) < 3:
        period = 2 * mp.pi
        u -= period * mp.nint(u / period)
    return u


def require_distinct(values, what):
    """Raise InvalidConfigurationError if two of `values` are equal."""
    order = sorted(range(len(values)), key=values.__getitem__)
    for i, j in zip(order, order[1:]):
        if values[i] == values[j]:
            raise InvalidConfigurationError(
                f"{what} {i} and {j} coincide at {values[i]}"
            )


def require_multiplicities(values, count):
    """`values` as a tuple of `count` integers >= 1; InvalidConfigurationError
    otherwise.  bool is an int subclass, and True would silently mean 1."""
    values = tuple(values)
    if len(values) != count:
        raise InvalidConfigurationError(
            f"{len(values)} multiplicities for {count} roots")
    for a in values:
        if type(a) is not int or a < 1:
            raise InvalidConfigurationError(
                f"multiplicities must be integers >= 1, got {a!r}")
    return values


def gaps(values):
    """(smallest, largest) distance between two of at least two values.

    Neighbours in sorted order suffice: rounding is monotone, so no other
    pair's rounded difference can fall outside these two.
    """
    ordered = sorted(values)
    return (min(b - a for a, b in zip(ordered, ordered[1:])),
            ordered[-1] - ordered[0])


def _as_mpf_tuple(values, bits):
    return tuple(to_mpf(v, bits) for v in values)


def _require_finite(named):
    """InvalidConfigurationError naming the first coefficient of the
    (name, mpf) pairs `named` that is not finite.  With every coefficient
    finite, and the point too, no kernel's value is nan or infinite:
    libmp exponents do not overflow."""
    for name, value in named:
        if not mp.isfinite(value):
            raise InvalidConfigurationError(
                f"coefficient {name} is not finite: {value}")


@dataclass(frozen=True)
class RootConfiguration:
    """Distinct roots paired with positive integer multiplicities."""

    roots: tuple
    multiplicities: tuple
    precision_bits: int = 53

    def __post_init__(self):
        require_bits(self.precision_bits)
        roots = _as_mpf_tuple(self.roots, self.precision_bits)
        mults = require_multiplicities(self.multiplicities, len(roots))
        if not roots:
            raise InvalidConfigurationError("at least one root is required")
        require_distinct(roots, "roots")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "multiplicities", mults)

    @property
    def total_multiplicity(self):
        return sum(self.multiplicities)


@dataclass(frozen=True)
class AlgebraicPoly:
    """Monic polynomial x^n + c_1 x^(n-1) + ... + c_n; stores (c_1 ... c_n),
    which must be finite."""

    coeffs: tuple
    precision_bits: int = 53

    family = ALGEBRAIC
    _roots = frozenset()  # a coefficient form stores no roots

    def __post_init__(self):
        require_bits(self.precision_bits)
        coeffs = _as_mpf_tuple(self.coeffs, self.precision_bits)
        if not coeffs:
            raise InvalidConfigurationError("degree must be >= 1")
        _require_finite((f"coeffs[{i}]", c) for i, c in enumerate(coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fixed", {})

    @property
    def degree(self):
        return len(self.coeffs)

    @property
    def noise_ops(self):
        return 2 * (self.degree + 1)

    @property
    def _memo_limit(self):
        return 2 * self.degree

    def _constants(self, prec):
        """The coefficients rounded to `prec` and their absolute values,
        kept per precision (`_kept`)."""
        def make():
            coeffs = [_to_raw(c, prec) for c in self.coeffs]
            return coeffs, [mpf_abs(c, prec, RND) for c in coeffs]
        return _kept(self, (prec,), make)

    def _pass(self, x, prec):
        # extended Horner: the partial values v feed the derivative stage
        v, partials = fone, []
        for c in self._constants(prec)[0]:
            partials.append(v)
            v = mpf_add(mpf_mul(v, x, prec, RND), c, prec, RND)
        return v, partials

    def _slope(self, point):
        x, prec = point.x, point.prec
        dv = fzero
        for v in point.state:
            dv = mpf_add(mpf_mul(dv, x, prec, RND), v, prec, RND)
        return dv

    def _magnitude(self, point):
        # the same Horner on |x| and the |c_k|
        prec = point.prec
        ax = mpf_abs(point.x, prec, RND)
        mag = fone
        for c in self._constants(prec)[1]:
            mag = mpf_add(mpf_mul(mag, ax, prec, RND), c, prec, RND)
        return mag

    def fixed_stage(self, frac):
        """The `fixed_stage` of a sweep at the scale 2**frac: f, f' and the
        magnitude by extended Horner in ints, on the coefficients floored
        to the scale, kept per scale (`_kept`).  f starts exact and each
        step floors twice, so it lies within 2 sum_{j<n} |x|**j units of
        2**-frac: below 2n units where |x| < 1, which the bound's added
        unit per operation covers, and far below the bound elsewhere,
        where the magnitude is at least |x|**n."""
        def make():
            coeffs = [to_fixed(c._mpf_, frac) for c in self.coeffs]
            one, ops = 1 << frac, self.noise_ops

            def ratio(x, bx, bits):
                v, dv, mag, ax = one, 0, one, abs(x)
                for c in coeffs:
                    dv = (dv * x >> frac) + v
                    v = (v * x >> frac) + c
                    mag = (mag * ax >> frac) + abs(c)
                if abs(v) <= ops * ((mag >> bits) + 1):
                    return None
                return (dv << frac) // v
            return _coefficient_stage(self.family, frac, ratio)
        return _kept(self, frac, make)


@dataclass(frozen=True)
class SeriesPoly:
    """a0/2 + sum_{l=1..n} (even_l * E(lx) + odd_l * O(lx)), where (E, O) is
    the family's basis pair: (cos, sin) for TrigPoly, (cosh, sinh) for
    ExpPoly.  Every coefficient must be finite.  Subclasses only set
    `family`."""

    a0: object
    even: tuple
    odd: tuple
    precision_bits: int = 53

    family = None
    _roots = frozenset()  # a coefficient form stores no roots

    def __post_init__(self):
        if self.family is None:
            raise TypeError("SeriesPoly is abstract: build a TrigPoly or ExpPoly")
        require_bits(self.precision_bits)
        a0 = to_mpf(self.a0, self.precision_bits)
        even = _as_mpf_tuple(self.even, self.precision_bits)
        odd = _as_mpf_tuple(self.odd, self.precision_bits)
        _require_finite([("a0", a0)]
                        + [(f"even[{i}]", c) for i, c in enumerate(even)]
                        + [(f"odd[{i}]", c) for i, c in enumerate(odd)])
        if len(even) != len(odd) or not even:
            raise InvalidConfigurationError(
                "even and odd coefficient sequences must have equal nonzero length"
            )
        if even[-1] == 0 and odd[-1] == 0:
            raise InvalidConfigurationError(
                "leading even/odd coefficients are both zero; reduce the degree"
            )
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fixed", {})

    @property
    def degree(self):
        return len(self.even)

    @property
    def noise_ops(self):
        return 4 * self.degree + 4

    @property
    def _memo_limit(self):
        return 4 * self.degree  # a series of degree n has 2n roots

    def _constants(self, prec):
        """The mpf stages' constants at `prec`, kept per precision
        (`_kept`): a0/2 and the pairs (a_l, b_l) rounded to `prec`, the
        slope pairs (l b_l, s l a_l), and the magnitude: |a0|/2 + sum_l
        (|a_l| + |b_l|) for the trigonometric family, whose basis is
        bounded by 1, and otherwise the pair (|a0|/2, [|a_l| + |b_l|]) that
        a point's envelopes weigh."""
        def make():
            sign = FAMILY[self.family].derivative_sign
            a0 = _to_raw(self.a0, prec)
            pairs = [(_to_raw(a, prec), _to_raw(b, prec))
                     for a, b in zip(self.even, self.odd)]
            slopes = [(mpf_mul_int(b, l, prec, RND),
                       mpf_mul_int(a, sign * l, prec, RND))
                      for l, (a, b) in enumerate(pairs, start=1)]
            weights = [mpf_add(mpf_abs(a, prec, RND), mpf_abs(b, prec, RND),
                               prec, RND) for a, b in pairs]
            half_abs = _half(mpf_abs(a0, prec, RND), prec)
            if sign < 0:
                magnitude = mpf_add(half_abs, mpf_sum(weights, prec, RND),
                                    prec, RND)
            else:
                magnitude = half_abs, weights
            return _half(a0, prec), pairs, slopes, magnitude
        return _kept(self, (prec,), make)

    def _pass(self, x, prec):
        # the basis feeds the later stages and `log_derivative_sum`
        basis = _series_basis(self.family, x, self.degree, prec)
        half_a0, pairs, _, _ = self._constants(prec)
        values = [half_a0]
        for (a, b), (e, o) in zip(pairs, basis):
            values.append(mpf_mul(a, e, prec, RND))
            values.append(mpf_mul(b, o, prec, RND))
        return mpf_sum(values, prec, RND), basis

    def _slope(self, point):
        prec = point.prec
        slopes = []
        for (lb, sla), (e, o) in zip(self._constants(prec)[2], point.state):
            slopes.append(mpf_mul(lb, e, prec, RND))
            slopes.append(mpf_mul(sla, o, prec, RND))
        return mpf_sum(slopes, prec, RND)

    def _magnitude(self, point):
        prec = point.prec
        magnitude = self._constants(prec)[3]
        if FAMILY[self.family].derivative_sign < 0:  # one per precision
            return magnitude
        # term l weighs by its envelope E(lx)
        half_abs, weights = magnitude
        return mpf_sum([half_abs] + [mpf_mul(w, e, prec, RND) for w, (e, _)
                                     in zip(weights, point.state)],
                       prec, RND)

    def fixed_stage(self, frac):
        """The `fixed_stage` of a sweep at the scale 2**frac, on the
        coefficients floored to the scale, kept per scale (`_kept`).  The
        point's `sweep_basis` about 0, the pair at x/2, gives (E(x), O(x))
        by the double angle, and the recurrence of `_series_basis` the
        rest, `_basis_guard(n)` bits finer than the scale; f, f' and the
        magnitude then sum as the mpf stages do.  Each floored coefficient
        moves f by at most its basis entry, a unit of 2**-frac times the
        envelope max(E(nx), 1), which the bound adds per operation.  A
        point without a basis, beyond its reach, gives None."""
        def make():
            sign, ops = FAMILY[self.family].derivative_sign, self.noise_ops
            # the recurrence's scale, and the shift of a product of two
            # basis entries to it
            q = frac + _basis_guard(self.degree)
            shift = 2 * (frac + BASIS_GUARD) - q
            half_a0 = to_fixed(self.a0._mpf_, frac) << (q - 1)
            even = [to_fixed(c._mpf_, frac) for c in self.even]
            odd = [to_fixed(c._mpf_, frac) for c in self.odd]
            weights = [abs(a) + abs(b) for a, b in zip(even, odd)]
            # a trigonometric basis is bounded by 1, so its weights are 1
            weighed = sign > 0
            flat = abs(half_a0) + (0 if weighed else sum(weights) << q)

            def ratio(x, bx, bits):
                if bx is None:
                    return None
                eh, oh, _ = bx
                e1 = (eh * eh + sign * oh * oh) >> shift
                o1 = (eh * oh) >> (shift - 1)
                e, o = e1, o1
                value, slope, mag = half_a0, 0, flat
                for l, (a, b, w) in enumerate(zip(even, odd, weights), 1):
                    if l > 1:
                        e, o = ((e * e1 + sign * o * o1) >> q,
                                (o * e1 + e * o1) >> q)
                    value += a * e + b * o
                    slope += l * (b * e + sign * a * o)
                    if weighed:  # term l weighs by its envelope E(lx)
                        mag += w * e
                if abs(value) <= ops * ((mag >> bits) + max(e, 1 << q)):
                    return None
                return (slope << frac) // value
            return _coefficient_stage(self.family, frac, ratio)
        return _kept(self, frac, make)


class TrigPoly(SeriesPoly):
    """a0/2 + sum_{l=1..n} (a_l cos lx + b_l sin lx)."""

    family = TRIGONOMETRIC


class ExpPoly(SeriesPoly):
    """a0/2 + sum_{l=1..n} (a_l cosh lx + b_l sinh lx)."""

    family = EXPONENTIAL


@dataclass(frozen=True)
class FactoredForm:
    """scale * product of per-root factors raised to their multiplicities.

    Factors: (x - r) for algebraic, sin((x - r)/2) for trigonometric,
    sinh((x - r)/2) for exponential.  Roots and scale must be finite.
    """

    family: str
    config: RootConfiguration
    scale: object = 1
    precision_bits: int = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidConfigurationError(f"unknown family {self.family!r}")
        bits = self.precision_bits
        if bits is None:
            bits = self.config.precision_bits
        require_bits(bits)
        object.__setattr__(self, "precision_bits", bits)
        object.__setattr__(self, "scale", to_mpf(self.scale, bits))
        for i, r in enumerate(self.config.roots):
            if not mp.isfinite(r):
                raise InvalidConfigurationError(f"root {i} is not finite: {r}")
        if self.scale == 0 or not mp.isfinite(self.scale):
            raise InvalidConfigurationError(
                f"scale must be finite and nonzero, got {self.scale}")
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fixed", {})
        object.__setattr__(self, "_roots",
                           frozenset(r._mpf_ for r in self.config.roots))

    def fixed_roots(self, frac):
        """(roots, basis, term) of a sweep at the fixed-point scale
        2**frac: each root as (r, alpha, basis(r)), with r floored to the
        scale; basis(x) the `sweep_basis` of the int point x about the
        middle of the smallest and largest root; and the family's
        `fixed_term`.  Kept per scale (`_kept`), so the sweeps of a solve
        take each scale's once."""
        def make():
            fixed = [to_fixed(r._mpf_, frac) for r in self.config.roots]
            centre = (min(fixed) + max(fixed)) >> 1

            def basis(x):
                return sweep_basis(self.family, x - centre, frac)

            return ([(r, a, basis(r))
                     for r, a in zip(fixed, self.config.multiplicities)],
                    basis, fixed_term(self.family, frac))
        return _kept(self, frac, make)

    def fixed_stage(self, frac):
        """The `fixed_stage` of a sweep at the scale 2**frac, from
        `fixed_roots`: G = sum_k a_k h(x - r_k), each term the family's
        `fixed_term`, or None where x is a root at this scale."""
        roots, basis, term = self.fixed_roots(frac)

        def ratio(x, bx, bits):
            offsets = [x - r for r, _, _ in roots]
            if 0 in offsets:
                return None
            return sum(a * term(u, bx, rb)
                       for u, (_, a, rb) in zip(offsets, roots))
        return basis, term, ratio

    @property
    def noise_ops(self):
        return 3 * (self.config.total_multiplicity + 1)

    @property
    def _memo_limit(self):
        return 2 * len(self.config.roots)

    def _pairs(self, x, prec):
        pair = FAMILY[self.family].factor_pair
        return [pair(mpf_sub(x, r._mpf_, prec, RND), prec)
                for r in self.config.roots]

    def _pass(self, x, prec):
        # on a stored root the product holds an exact zero factor, and libmp
        # has one zero
        if x in self._roots:
            return fzero, None
        # the factor pairs feed the derivative stage
        pairs = self._pairs(x, prec)
        v = _to_raw(self.scale, prec)
        for (g, _), a in zip(pairs, self.config.multiplicities):
            v = mpf_mul(v, mpf_pow_int(g, a, prec, RND), prec, RND)
        return v, pairs

    def _slope(self, point):
        # the product rule, which divides by nothing: on a stored root, where
        # the lookup kept no factor pairs, they are formed here
        prec, mults = point.prec, self.config.multiplicities
        pairs = point.state or self._pairs(point.x, prec)
        powers = [mpf_pow_int(g, a, prec, RND) for (g, _), a in zip(pairs, mults)]
        terms = [mpf_mul(mpf_mul_int(dg, a, prec, RND),
                         mpf_pow_int(g, a - 1, prec, RND), prec, RND)
                 for (g, dg), a in zip(pairs, mults)]
        # times the other roots' powers: those before k, then those after
        prefix = fone
        for k, p in enumerate(powers):
            terms[k] = mpf_mul(terms[k], prefix, prec, RND)
            prefix = mpf_mul(prefix, p, prec, RND)
        suffix = fone
        for k in range(len(powers) - 1, -1, -1):
            terms[k] = mpf_mul(terms[k], suffix, prec, RND)
            suffix = mpf_mul(suffix, powers[k], prec, RND)
        return mpf_mul(_to_raw(self.scale, prec), mpf_sum(terms, prec, RND),
                       prec, RND)

    def _magnitude(self, point):
        # a product rounds alike for either sign: no cancellation
        return mpf_abs(point.value, point.prec, RND)


def _kept(poly, key, make):
    """make(), kept in the representation's dict of kept stages under
    `key`, which drops its oldest entry as the point memo drops its points.
    A fixed-point stage's key is its scale's int frac, and the mpf stages'
    constants at a precision prec are kept under the 1-tuple (prec,), which
    no int equals."""
    kept = poly._fixed.get(key)
    if kept is None:
        kept = poly._fixed[key] = make()
        if len(poly._fixed) > poly._memo_limit:
            del poly._fixed[next(iter(poly._fixed))]
    return kept


def _coefficient_stage(family, frac, ratio):
    """The `fixed_stage` triple of a coefficient form of `family` with the
    map `ratio`: its points' bases are taken about 0."""
    def basis(x):
        return sweep_basis(family, x, frac)
    return basis, fixed_term(family, frac), ratio


def _to_raw(value, prec):
    """The raw value of mp.mpf(value) at `prec`."""
    if type(value) is mp.mpf:
        raw = value._mpf_
        # an mpf is normalized: one that fits in prec bits is kept as is
        return raw if raw[3] <= prec else normalize(*raw, prec, RND)
    return mp.mpf(value, prec=prec)._mpf_


def _basis_guard(n):
    """The guard bits of a degree-n series basis above the kernel's
    precision."""
    return n.bit_length() + 10


def _series_basis(family, x, n, prec):
    """[(E(lx), O(lx)) for l = 1..n] of a series family at the raw point x,
    from one `basis_pair` call, by angle addition with s the family's sign:

        E((l+1)x) = E(lx) E(x) + s O(lx) O(x)
        O((l+1)x) = O(lx) E(x) + E(lx) O(x)

    The recurrence runs `_basis_guard(n)` bits above `prec` and its raw
    values are returned unrounded.  The trigonometric step is a rotation,
    so its absolute error grows by about one ulp per step; the hyperbolic
    terms share one sign and never cancel, so the relative error grows
    alike.  x = 0 gives E = 1 and O = 0 exactly.
    """
    fam = FAMILY[family]
    prec += _basis_guard(n)
    e1, o1 = fam.basis_pair(x, prec)
    so1 = mpf_mul_int(o1, fam.derivative_sign, prec, RND)
    e, o = e1, o1
    pairs = [(e, o)]
    for _ in range(n - 1):
        e, o = (mpf_add(mpf_mul(e, e1, prec, RND), mpf_mul(o, so1, prec, RND),
                        prec, RND),
                mpf_add(mpf_mul(o, e1, prec, RND), mpf_mul(e, o1, prec, RND),
                        prec, RND))
        pairs.append((e, o))
    return pairs


class _Point:
    """A representation's stages at one raw point x and precision: f from
    the value stage, the `state` the later stages read, and f' and the
    magnitude, None until a kernel first reads them."""

    __slots__ = ("x", "prec", "value", "state", "slope", "magnitude")

    def __init__(self, x, prec, value, state):
        self.x, self.prec, self.value, self.state = x, prec, value, state
        self.slope = self.magnitude = None


def _raw_point(poly, x, bits):
    """The `_Point` of the poly at x, at the poly's precision unless `bits`
    overrides it (`_memo_point`).  Below the poly's precision the stages
    read the stored values rounded to `bits`."""
    if not isinstance(poly, (AlgebraicPoly, SeriesPoly, FactoredForm)):
        raise TypeError(f"not a polynomial representation: {poly!r}")
    prec = require_bits(bits or poly.precision_bits)
    return _memo_point(poly, _to_raw(x, prec), prec)


def _memo_point(poly, x, prec):
    """The `_Point` of the poly at the raw x and `prec`, kept in its memo:
    its value stage runs on the first read.  A nan or infinite x is a
    FamilyOverflowError there, and enters no memo."""
    memo = poly._memo
    point = memo.get((x, prec))
    if point is None:
        if x in NONFINITE:
            raise FamilyOverflowError(poly.family, mp.make_mpf(x))
        point = memo[x, prec] = _Point(x, prec, *poly._pass(x, prec))
        if len(memo) > poly._memo_limit:
            del memo[next(iter(memo))]
    return point


def _magnitude_point(poly, x, bits):
    """The `_Point` of the poly at x with its magnitude stage run."""
    point = _raw_point(poly, x, bits)
    if point.magnitude is None:
        point.magnitude = poly._magnitude(point)
    return point


def evaluate(poly, x, bits=None):
    """Value of the polynomial at x, at the poly's precision unless overridden.

    A series of degree n costs one basis call per point and precision plus
    O(n) multiplications at a few guard bits (`_series_basis`); a factored
    form with m roots, m `factor_pair` calls and m powers, and at a point
    that is one of its stored roots none: there the product holds an exact
    zero factor, so the value is 0, found in a set of the roots' raw values.
    This is the value stage of the point: the derivative and the magnitude
    are later stages, run from what it keeps only when a kernel reads them.
    """
    return mp.make_mpf(_raw_point(poly, x, bits).value)


def evaluate_derivative(poly, x, bits=None):
    """First derivative at x, from the value stage's state at the point.

    Coefficient forms differentiate term by term: extended Horner for the
    algebraic family, and for a series of degree n the value's basis plus
    O(n) multiplications.  A factored form f = scale * prod_k g_k^a_k,
    with g_k = g(x - r_k), takes the product rule at every point, in O(m)
    for m roots: term k is a_k g'_k g_k^(a_k - 1) times the prefix product
    of the powers g_j^a_j with j < k and the suffix product of those with
    j > k (0**0 is 1), all summed with one rounding.  It divides by
    nothing, so it holds on a root too.  The value's `factor_pair` call per
    root gives g_k and g'_k; at a stored root, whose value is a lookup, the
    derivative stage makes those calls.
    """
    point = _raw_point(poly, x, bits)
    if point.slope is None:
        point.slope = poly._slope(point)
    return mp.make_mpf(point.slope)


def magnitude_scale(poly, x, bits=None):
    """Attainable-magnitude scale of evaluate(poly, x): same sum with every
    term replaced by its absolute value, from the value stage's state at
    the point.  Used to turn absolute evaluation discrepancies into
    scale-free ones.

    The weights |a0|/2 and |a_l| + |b_l| of a series, and the |c_k| of an
    algebraic polynomial, are kept once per precision.  An exponential
    series weighs term l by its envelope E(lx), from the value's basis
    plus O(n) multiplications; the trigonometric basis is bounded by 1, so
    its weights are 1 and its magnitude is one value per precision, the
    same at every x.  A factored form's magnitude is |f|.
    """
    return mp.make_mpf(_magnitude_point(poly, x, bits).magnitude)


def evaluation_noise(poly, x, bits=None):
    """A-priori rounding bound on evaluate(poly, x): roundoff times the
    attainable magnitude times the representation's `noise_ops`.

    Coefficient forms cancel near multiple roots, so their bound is an
    absolute floor below which the computed value carries no signal; it
    reads the point's `magnitude_scale`, whose weights, and for a
    trigonometric series whose whole value, are kept once per precision.
    Factored forms evaluate with small relative error, so their bound is
    proportional to the value itself and never floors: the solver's
    factored sweep freezes a coordinate only on a root.
    """
    point = _magnitude_point(poly, x, bits)
    prec = point.prec
    unit = mpf_mul_int(mpf_pow_int(TWO, -prec, prec, RND), poly.noise_ops,
                       prec, RND)
    return mp.make_mpf(mpf_mul(unit, point.magnitude, prec, RND))


def _times_linear(coeffs, a, b):
    """(a + b z) times the ascending-in-z polynomial `coeffs`: coefficient k
    is the one rounded sum a c_k + b c_(k-1) at the working precision."""
    return ([a * coeffs[0]]
            + [a * c + b * p for c, p in zip(coeffs[1:], coeffs)]
            + [b * coeffs[-1]])


def expand_from_roots(form):
    """Coefficient representation matching the factored form pointwise.

    One loop multiplies a linear factor in z per root and multiplicity.
    Algebraic: x - r = x (1 - r z) with z = 1/x, into a monic polynomial
    (scale must be 1: a monic form cannot absorb it).  Series, with z =
    e^{wx} and w*w = s the family's sign (w = i for cos/sin, 1 for
    cosh/sinh): g(x - r) = e^{wr/2} z^{-1/2} (-1 + e^{-wr} z) / (2w), so
    the product is s^n e^{w sigma/2} / 2^total z^-n sum_k c_k z^k, with
    sigma = sum(alpha r), regrouped into E/O coefficients of degree n.

    The result is accepted only if it reproduces the factored values at a
    fixed set of probe points, within 2^(12 - bits) times its magnitude
    there, floored at 1 (`_certify_roundtrip`).  An a-priori rounding bound
    proves that first where it can, from floats alone
    (`_bound_proves_roundtrip`): the bound on each stored coefficient's
    error (`_coefficient_bounds`), weighted by the basis at each probe,
    plus both forms' evaluation error there.  Only where it cannot, at
    roots far apart for their multiplicities, say, are both forms
    evaluated at the probes; an expansion they refuse is a
    FamilyOverflowError.
    """
    expanded = _expand(form)
    if not _bound_proves_roundtrip(form, expanded):
        with working(form.precision_bits):
            _certify_roundtrip(form, expanded, form.precision_bits)
    return expanded


def _expand(form):
    """The coefficient form of `expand_from_roots`, before its round trip
    is certified."""
    if not isinstance(form, FactoredForm):
        raise TypeError("expand_from_roots expects a FactoredForm")
    bits = form.precision_bits
    cfg = form.config
    total = cfg.total_multiplicity
    n = degree_of(form.family, cfg.multiplicities)
    algebraic = form.family == ALGEBRAIC
    if algebraic and form.scale != 1:
        raise InvalidConfigurationError(
            "algebraic expansion is monic; scale must be 1"
        )

    with working(bits):
        if algebraic:
            # -r exact, as the roots may carry more bits than the form
            factors = [(1, mp.fneg(r, exact=True)) for r in cfg.roots]
        else:
            s = FAMILY[form.family].derivative_sign
            w = mp.sqrt(s)
            factors = [(-1, mp.exp(-w * r)) for r in cfg.roots]
        coeffs = [mp.mpf(1)]
        for (a, b), alpha in zip(factors, cfg.multiplicities):
            for _ in range(alpha):
                coeffs = _times_linear(coeffs, a, b)

        if algebraic:
            return AlgebraicPoly(tuple(coeffs[1:]), precision_bits=bits)
        sigma = mp.fsum(r * a for r, a in zip(cfg.roots, cfg.multiplicities))
        lead = form.scale * s ** n * mp.exp(w * sigma / 2) / mp.mpf(2) ** total
        d = [lead * c for c in coeffs]  # d[m + n] multiplies e^{mwx}
        # the regroupings round differently, so each family keeps its
        # own; l = 0 gives a0
        if form.family == TRIGONOMETRIC:
            series = TrigPoly
            even = [2 * d[n + l].real for l in range(n + 1)]
            odd = [-2 * d[n + l].imag for l in range(1, n + 1)]
        else:
            series = ExpPoly
            even = [d[n + l] + d[n - l] for l in range(n + 1)]
            odd = [d[n + l] - d[n - l] for l in range(1, n + 1)]
        return series(even[0], even[1:], odd, precision_bits=bits)


# The rounding bound of an expansion is carried in floats, with every
# error in units of u = 2**-bits, so that no float need be as small as u.
# A run of roundings whose relative sizes add up to R u (a count R) moves
# a product by at most gamma(R) = R u / (1 - R u) (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 3.1).  Each float of the
# bound is a sum of products of nonnegative terms, at most a few thousand
# operations deep, each within 2**-52 relative (libm's exp, cosh and sin
# within an ulp or two), so none lies more than 2**-40 below the value it
# stands for; _SAFETY covers that, and the probe check's own roundings.
# A bound is taken only while every nonzero product it forms lies within
# 2**+-_RANGE_BITS, where floats neither overflow nor underflow.
_SAFETY = 1 + 2.0 ** -24
_RANGE_BITS = 1000
# 1 / (2 ln 2): e^(|r|/2) = 2**(|r| * _HALF_LOG2E)
_HALF_LOG2E = 0.5 / math.log(2)
# the probe check's tolerance is 2**(_ROUNDTRIP_BITS - bits)
_ROUNDTRIP_BITS = 12


def _unit(bits):
    """u = 2**-bits as a float, or 2**-_RANGE_BITS where that is larger:
    never below u."""
    return math.ldexp(1.0, -min(bits, _RANGE_BITS))


def _gamma(count, u):
    """gamma(count) in units of u, or inf from count u = 1/2 on."""
    return count / (1 - count * u) if count * u < 0.5 else math.inf


def _log2_span(raw):
    """An upper bound on |log2 |v|| for the raw mpf v, 0 for zero."""
    return abs(raw[2] + raw[3]) + 1 if raw[1] else 0


def _stored(poly):
    """The stored coefficients of a coefficient form: c_1 .. c_n of an
    algebraic polynomial, a0, even and odd of a series."""
    if isinstance(poly, AlgebraicPoly):
        return poly.coeffs
    return (poly.a0,) + poly.even + poly.odd


def _coefficient_bounds(form, expanded):
    """(bounds, sizes, span) for `expanded = _expand(form)`, or None where
    the bound's floats could leave their range.

    bounds[i] * 2**-bits bounds the distance of the i-th `_stored`
    coefficient from its value in the exact expansion of the form, and
    sizes[i] is that coefficient's absolute value as a float.  Every
    product behind the bounds lies within 2**+-span, and so does every
    size that does not underflow.

    Let c^ be the coefficients of prod_j (|a_j| + |b_j| z)^alpha_j, the
    expansion's factors taken in absolute value: binomials for the
    trigonometric family, prod (1 + |r| z) for the algebraic one and
    prod (1 + e^-r z) for the exponential one.  Each c_k is a sum of
    products, one per choice of a_j or b_j at each step, and each product
    carries the roundings of its own path: a step of `_times_linear`
    rounds the product b c_(k-1) and the sum once each (a = +-1 is
    exact; a complex part rounds once, so the pair lies within u of the
    complex value), and b_j = e^(-w r_j) is within an ulp of each part,
    2u, and |r_j| u more where r_j is rounded to the form's bits.  So
    |c~_k - c_k| <= gamma(kappa N) c^_k, with kappa N the count over all
    N steps.  A series multiplies by the lead, whose relative error
    counts sigma's (each alpha r and the sum round once: sum(alpha |r|)
    after the halving), its exp (2) and the product with the scale (1),
    plus the multiplication by it (1); its error weighs the computed d~_k
    themselves, which the stored coefficients give.  The exponential
    regrouping rounds once more.
    """
    cfg, bits, family = form.config, form.precision_bits, form.family
    mults, total = cfg.multiplicities, cfg.total_multiplicity
    raws = [r._mpf_ for r in cfg.roots]
    roots = [abs(to_float(r)) for r in raws]
    u = _unit(bits)
    # |log2| of each factor's nonzero entries below, in bits: |r| as a
    # float is within 2**-52 of it, so _HALF_LOG2E |r| + 2 bounds that of
    # e^(+-r/2) / 2 wherever it is below _RANGE_BITS
    if family == ALGEBRAIC:
        spans = [_log2_span(r) for r in raws]
    elif family == TRIGONOMETRIC:
        spans = [1] * len(raws)
    else:
        spans = [_HALF_LOG2E * r + 2 for r in roots]
    span = (sum(a * h for a, h in zip(mults, spans))
            + _log2_span(form.scale._mpf_) + total + 48)
    if not span <= _RANGE_BITS:
        return None
    sizes = [abs(to_float(c._mpf_)) for c in _stored(expanded)]

    if family == ALGEBRAIC:
        entries = [(1.0, r) for r in roots]
        steps = [2] * len(raws)
    else:
        # halved, so that the products carry |lead| / |scale| = |e^(w
        # sigma/2)| / 2**total; the trigonometric ones have |e^(-w r)| = 1
        if family == TRIGONOMETRIC:
            entries = [(0.5, 0.5)] * len(raws)
        else:
            entries = [(math.exp(to_float(r) / 2) / 2,
                        math.exp(-to_float(r) / 2) / 2) for r in raws]
        steps = [4 + (r if raw[3] > bits else 0)
                 for r, raw in zip(roots, raws)]
    c_hat = [1.0]
    for (a, b), alpha in zip(entries, mults):
        for _ in range(alpha):
            c_hat = _times_linear(c_hat, a, b)
    gc = _gamma(sum(a * k for a, k in zip(mults, steps)), u)
    if gc == math.inf:
        return None

    if family == ALGEBRAIC:
        bounds = [gc * c for c in c_hat[1:]]
    else:
        n = expanded.degree
        scale = abs(to_float(form.scale._mpf_))
        lc = [scale * c for c in c_hat]
        gl = _gamma(sum(a * r for a, r in zip(mults, roots)) + 4, u)
        if gl == math.inf:
            return None
        a0, even, odd = sizes[0], sizes[1:n + 1], sizes[n + 1:]
        if family == TRIGONOMETRIC:
            # a0 = 2 Re d_n, even_l = 2 Re d_(n+l) and odd_l = -2 Im
            # d_(n+l), each exact, so |d_(n+l)| <= (even_l + odd_l) / 2;
            # Im d_n, which is not stored, is at most d_n's own error
            pairs = [2 * gc * lc[n + l] + gl * (e + o)
                     for l, (e, o) in enumerate(zip(even, odd), 1)]
            bounds = ([(2 * gc * lc[n] + gl * a0) / (1 - gl * u)]
                      + pairs + pairs)
        else:
            # a0 = 2 d_n exactly; even_l and odd_l round d_(n+l) +- d_(n-l)
            # once, and the larger of the two sums is |d_(n+l)| + |d_(n-l)|
            g1 = _gamma(1, u)
            shared = [gc * (lc[n + l] + lc[n - l]) + gl * g1 * max(e, o)
                      for l, (e, o) in enumerate(zip(even, odd), 1)]
            bounds = ([2 * gc * lc[n] + gl * a0]
                      + [s + g1 * e for s, e in zip(shared, even)]
                      + [s + g1 * o for s, o in zip(shared, odd)])
    return [b * _SAFETY for b in bounds], sizes, span


_PROBE_OFFSETS = ("0.1043", "-0.4321", "0.8765", "-1.2345", "1.7321", "-2.4142", "2.7183")
_PROBE_FLOATS = tuple(float(off) for off in _PROBE_OFFSETS)


def _bound_proves_roundtrip(form, expanded):
    """True where `_coefficient_bounds` proves that `expanded = _expand(form)`
    passes `_certify_roundtrip` at every probe, without evaluating either
    form.

    At a probe x the check compares the two forms' computed values within
    2^(12 - bits) max(mag(x), 1).  Their distance is at most the stored
    coefficients' errors weighted by the basis (|x|^k, 1 or cosh lx), plus
    each form's evaluation error: Horner's gamma(2n) (Higham, 5.1) or a
    series' 3 roundings (the basis, at `_basis_guard` bits more, is within
    u/32), each times the magnitude; and the factored value's relative
    error, a count per root of alpha times that of its factor (1 for x -
    r; t/sin t + 2 and 1 + |t| + 2 for sin t and sinh t, t = (x - r)/2,
    which amplify the rounding of x - r) and 3 more for its power and
    product.  Points, roots and magnitudes are floats, so each is taken
    at the end of its interval that does not favour the bound.
    """
    found = _coefficient_bounds(form, expanded)
    if found is None:
        return False
    bounds, sizes, span = found
    family, bits, n = form.family, form.precision_bits, expanded.degree
    u = _unit(bits)
    # level j of the basis weighs |x|**j, E(jx) (1/2 for a0) or 1
    if family == ALGEBRAIC:
        errors, magnitudes = bounds[::-1] + [0.0], sizes[::-1] + [1.0]
        evaluation = _gamma(2 * n, u)
    else:
        errors = [bounds[0] / 2] + [e + o for e, o in
                                    zip(bounds[1:n + 1], bounds[n + 1:])]
        magnitudes = [sizes[0] / 2] + [e + o for e, o in
                                       zip(sizes[1:n + 1], sizes[n + 1:])]
        evaluation = _gamma(3, u)
    roots = [to_float(r._mpf_) for r in form.config.roots]
    mults = form.config.multiplicities
    lo, hi = min(roots), max(roots)
    centre = (lo + hi) / 2
    # past every float's distance from the point or root it stands for
    slack = math.ldexp(abs(lo) + abs(hi) + 3, -46)
    for off in _PROBE_FLOATS:
        x = centre + off
        near, far = max(abs(x) - slack, 0.0), abs(x) + slack
        if family == ALGEBRAIC:
            reach = n * abs(math.log2(far))
        elif family == EXPONENTIAL:
            reach = 2 * n * far + 1
        else:
            reach = 0
        if not span + reach <= _RANGE_BITS:
            return False
        upper, lower = _basis_weights(family, far, n), _basis_weights(
            family, near, n)
        count = 0
        for r, a in zip(roots, mults):
            t = abs(x - r) / 2 + slack
            if family == ALGEBRAIC:
                factor = 1
            elif family == EXPONENTIAL:
                factor = 3 + t
            elif t < 3:  # t / sin t grows without bound towards pi
                factor = 2 + t / math.sin(t)
            else:
                return False
            count += a * factor + 3
        coefficient = sum(e * w for e, w in zip(errors, upper))
        magnitude = sum(m * w for m, w in zip(magnitudes, upper))
        bound = (coefficient + evaluation * magnitude
                 + _gamma(count, u) * (magnitude + u * coefficient))
        floor = sum(m * w for m, w in zip(magnitudes, lower)) / _SAFETY
        tolerance = 2.0 ** _ROUNDTRIP_BITS * max(floor, 1.0)
        # 1 more covers the sizes that underflow, each below 2**-1022
        if not bound * _SAFETY + 1 <= tolerance:
            return False
    return True


def _basis_weights(family, x, n):
    """The basis weights |x|**j, cosh(jx) or 1 of levels j = 0..n at x >= 0,
    each increasing in x."""
    if family == ALGEBRAIC:
        weights = [1.0]
        for _ in range(n):
            weights.append(weights[-1] * x)
        return weights
    if family == EXPONENTIAL:
        return [1.0] + [math.cosh(j * x) for j in range(1, n + 1)]
    return [1.0] * (n + 1)


def _certify_roundtrip(form, expanded, bits):
    """Evaluate the factored form and its expansion at 7 probe points about
    the middle of the roots; FamilyOverflowError unless they agree within
    2^(12 - bits) times the expansion's magnitude there, floored at 1.
    `expand_from_roots` runs it only where its rounding bound cannot prove
    the same."""
    lo = min(form.config.roots)
    hi = max(form.config.roots)
    center = (lo + hi) / 2
    tol = mp.mpf(2) ** (_ROUNDTRIP_BITS - bits)
    for off in _PROBE_OFFSETS:
        x = center + mp.mpf(off)
        want = evaluate(form, x, bits)
        got = evaluate(expanded, x, bits)
        scale = max(magnitude_scale(expanded, x, bits), mp.mpf(1))
        if abs(want - got) > tol * scale:
            raise FamilyOverflowError(
                form.family,
                x,
                detail=f"expansion failed round-trip: |{want} - {got}| > {tol * scale}",
            )


def _top(*values):
    """The least integer t with |v| < 2**t for every v, the mantissa-less
    zero counting as below any."""
    return max(v[2] + v[3] if v[1] else -math.inf for v in values)


def _product_half_cotangent(sign, own, other, bits, guard):
    """c(x_i - x_j) rounded once to `bits`, from the basis pairs (E, O) of
    x_i (`own`) and x_j (`other`) rounded at bits + guard, or None where
    the angle subtraction cancels past what the guard covers.

    With s the family's sign, C = E_i E_j - s O_i O_j and S = O_i E_j -
    E_i O_j are cos u and sin u, or cosh u and sinh u, and c = (1 + C)/S
    when C >= 0 and S/(1 - C) otherwise, so neither 1 + C nor 1 - C
    cancels.  A difference that lies L bits below its larger operand
    carries the operands' relative error times less than 2**(L + 2).  With
    L at most guard - 6 for S and for 1 +- C against the products of C,
    c is within 0.4 ulp at `bits` before its one rounding, so within 1 ulp
    after it.  Close pairs exceed that, and so do trigonometric pairs near
    u = +-pi or +-2pi (unless the products are as small as S, as near a
    zero of cos or sin at both points), exponential pairs far from 0, and
    a zero S; 1 + C and 1 - C are at least 1 where they are formed.  The
    rule reads magnitudes that do not depend on the order of the pair, and
    S changes sign exactly with it, so c(x_j - x_i) is -c(x_i - x_j) bit
    for bit.
    """
    prec = bits + guard
    (ei, oi), (ej, oj) = own, other
    p, q = mpf_mul(oi, ej, prec, RND), mpf_mul(ei, oj, prec, RND)
    even, odd = mpf_mul(ei, ej, prec, RND), mpf_mul(oi, oj, prec, RND)
    sine = mpf_sub(p, q, prec, RND)
    cosine = (mpf_sub if sign > 0 else mpf_add)(even, odd, prec, RND)
    if cosine[0]:  # C < 0
        num = sine
        shifted = den = mpf_sub(fone, cosine, prec, RND)
    else:
        shifted = num = mpf_add(fone, cosine, prec, RND)
        den = sine
    if not sine[1]:  # S = 0
        return None
    limit = guard - 6
    if (_top(p, q) - _top(sine) > limit
            or _top(even, odd) - _top(shifted) > limit):
        return None
    return mpf_div(num, den, bits, RND)


def collision_threshold(bits):
    """2**(-bits/2) rounded to `bits`: two approximations closer than this
    collide at `bits`."""
    return mp.make_mpf(mpf_pow(TWO, mpf_div(from_int(-bits), TWO, bits, RND),
                               bits, RND))


def log_derivative_sum(family, other_roots, other_multiplicities, x, bits,
                       pairs=None, poly=None):
    """Logarithmic derivative of the product of the other roots' factors.

    Computed directly as a sum of per-root terms (the product itself is never
    formed, so high multiplicities cannot overflow):

        algebraic:      sum_j a_j / (x - x_j)
        trigonometric:  sum_j (a_j / 2) * cot((x - x_j) / 2)
        exponential:    sum_j (a_j / 2) * coth((x - x_j) / 2)

    Raises CollisionError when x is within 2**(-bits/2) of any x_j
    (`collision_threshold`).  Every term past that is finite (x a period
    from x_j too): mpf exponents are unbounded and tan(u/2) and tanh(u/2)
    vanish only at u = 0.  The multiplicities must be one integer >= 1 per
    other root (InvalidConfigurationError).

    A series term is (a_j/2) c(u) with c the half-cotangent.  Given `poly`,
    a coefficient-form series of `family`, c is formed from the first
    basis pairs of x and x_j that the poly's point memo holds at `bits`
    (`_product_half_cotangent`; `_memo_point` runs the value stage of a
    point not yet there), and the family's `half_cotangent` of the rounded
    difference u is called only where that product form cancels past its
    guard.  A solve's sweep passes the polynomial it solves.  Any other
    representation is ignored, and a series of another family is an
    InvalidConfigurationError.

    `pairs` is a dict that the calls of one sweep share, all at `bits`.  A
    series term stores its c, negated, under the pair (x_j, x), and a later
    call at x_j whose other point is x, the partner's, takes it instead of
    computing c(x_j - x): either way c is odd bit for bit, as x_j - x
    rounds to exactly -(x - x_j), the family's half-cotangent is odd by
    construction, and the product form is odd in the pair.  An entry is
    keyed by raw values alone, so a dict must not outlive one sweep or span
    two precisions.  The algebraic term a/u is one rounded division,
    formed here, and stores nothing.
    """
    require_bits(bits)
    if family not in FAMILY:
        raise InvalidConfigurationError(f"unknown family {family!r}")
    multiplicities = require_multiplicities(other_multiplicities,
                                            len(other_roots))
    fam = FAMILY[family]
    if not isinstance(poly, SeriesPoly):
        poly = None
    elif poly.family != family:
        raise InvalidConfigurationError(
            f"a {poly.family} polynomial cannot lend {family} basis pairs")
    if pairs is None:
        pairs = {}  # nothing shared: what the terms store goes unread
    x = _to_raw(x, bits)
    threshold = collision_threshold(bits)._mpf_
    own = None
    terms = []
    for j, (r, a) in enumerate(zip(other_roots, multiplicities)):
        r = _to_raw(r, bits)
        u = mpf_sub(x, r, bits, RND)
        if mpf_lt(mpf_abs(u, bits, RND), threshold):
            raise CollisionError(j, mp.make_mpf(u), mp.make_mpf(threshold))
        if fam.half_cotangent is None:
            terms.append(mpf_rdiv_int(a, u, bits, RND))
            continue
        c = pairs.pop((x, r), None)
        if c is None:
            if poly is not None:
                if own is None:
                    own = _memo_point(poly, x, bits).state[0]
                c = _product_half_cotangent(
                    fam.derivative_sign, own,
                    _memo_point(poly, r, bits).state[0], bits,
                    _basis_guard(poly.degree))
            if c is None:
                c = fam.half_cotangent(u, bits)
            pairs[r, x] = mpf_neg(c)
        terms.append(_half(mpf_mul_int(c, a, bits, RND), bits))
    return mp.make_mpf(mpf_sum(terms, bits, RND))
