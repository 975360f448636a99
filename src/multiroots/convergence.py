"""Executable convergence guarantees and empirical order estimation.

Each polynomial family has a sufficient condition under which the coupled
iteration converges cubically from initial guesses within c*q of the true
roots, with the error after k sweeps bounded by c*q**(3**k).  Each
condition is the clauses all families share and then the family's own;
`check_conditions` evaluates every clause on one path and reports each with
its computed sides, so feasibility searches and debugging see the margins.
"""

from dataclasses import dataclass, field, replace

from mpmath import mp

from .errors import InsufficientDataError, InvalidConfigurationError
from .polynomials import (ALGEBRAIC, EXPONENTIAL, FAMILIES, TRIGONOMETRIC,
                          RootConfiguration, degree_of, gaps)
from .precision import require_bits, to_mpf, working

BISECTIONS = 80  # steps of `max_feasible_c`
GRID = 48  # grid points per axis in `feasible_point_trigonometric`
MIN_WINDOW = 4  # the shortest run `estimate_order` accepts


@dataclass(frozen=True)
class Clause:
    """One inequality of a condition set, with its evaluated sides."""

    name: str
    passed: bool
    lhs: object
    rhs: object

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.lhs} vs {self.rhs}"


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    clauses: tuple
    computed: dict

    @property
    def failing(self):
        return tuple(c for c in self.clauses if not c.passed)

    def __str__(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}"]
        for key, value in self.computed.items():
            lines.append(f"  {key} = {value}")
        lines.extend(f"  {c}" for c in self.clauses)
        return "\n".join(lines)


@dataclass(frozen=True)
class ConvergenceParams:
    """Inputs to a family's convergence condition.

    `d` (the minimum pairwise root gap), `max_gap` and the degree `n` are
    derived from the supplied roots and multiplicities.  `kappa` is the
    auxiliary separation constant and is required exactly for the
    trigonometric family.
    """

    family: str
    c: object
    q: object
    roots: tuple
    multiplicities: tuple
    kappa: object = None
    precision_bits: int = 53
    n: int = field(init=False)
    d: object = field(init=False)
    max_gap: object = field(init=False)

    def __post_init__(self):
        require_bits(self.precision_bits)
        if self.family not in FAMILIES:
            raise InvalidConfigurationError(f"unknown family {self.family!r}")
        if (self.kappa is not None) != (self.family == TRIGONOMETRIC):
            raise InvalidConfigurationError(
                "kappa is required for the trigonometric family and "
                "disallowed otherwise")
        cfg = RootConfiguration(self.roots, self.multiplicities,
                                precision_bits=self.precision_bits)
        if len(cfg.roots) < 2:
            raise InvalidConfigurationError("need >= 2 roots")
        reals = {name: to_mpf(getattr(self, name), self.precision_bits)
                 for name in ("c", "q", "kappa")
                 if getattr(self, name) is not None}
        # a nan or inf would fail clauses, or the feasibility searches,
        # and blame the configuration
        for name, value in (*reals.items(),
                            *((f"roots[{i}]", r)
                              for i, r in enumerate(cfg.roots))):
            if not mp.isfinite(value):
                raise InvalidConfigurationError(
                    f"{name} must be finite, got {value}")
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", degree_of(self.family, cfg.multiplicities))
        with working(self.precision_bits):
            d, max_gap = gaps(cfg.roots)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "max_gap", max_gap)
        object.__setattr__(self, "roots", cfg.roots)
        object.__setattr__(self, "multiplicities", cfg.multiplicities)


def _algebraic(p):
    c, d, n = p.c, p.d, p.n
    clauses = []
    for i, a in enumerate(p.multiplicities):
        mid, bound = c**2 * (n - 3 * a) + c * (n + (3 * d - 1) * a), d**2 * a
        middle = f"c^2(n - 3a_{i}) + c(n + (3d - 1)a_{i})"
        clauses += [Clause(f"0 < {middle}", mid > 0, mid, mp.mpf(0)),
                    Clause(f"{middle} < d^2 a_{i}", mid < bound, mid, bound)]
    return {}, clauses


def _series_roots(p, k, l, name):
    """A series family's per-root clauses c^2 (4n + a_i (k - 2)) < l a_i."""
    clauses = []
    for i, a in enumerate(p.multiplicities):
        lhs, rhs = p.c**2 * (4 * p.n + a * (k - 2)), l * a
        clauses.append(Clause(name.format(i=i), lhs < rhs, lhs, rhs))
    return clauses


def _trigonometric(p):
    c, kappa = p.c, p.kappa
    A = min(abs(mp.sin(kappa / 2)), abs(mp.sin(p.d / 2 - c)))
    gap_bound = 2 * mp.pi - 2 * kappa
    return {"A": A}, [
        Clause("kappa > 0", kappa > 0, kappa, mp.mpf(0)),
        Clause("2c < kappa", 2 * c < kappa, 2 * c, kappa),
        Clause("max gap < 2 pi - 2 kappa",
               p.max_gap < gap_bound, p.max_gap, gap_bound),
        *_series_roots(p, 9 * A**2 / 8, A**2,
                       "c^2(4n + a_{i}(9A^2/8 - 2)) < A^2 a_{i}"),
    ]


def _exponential(p):
    S = mp.sinh((p.d - 2 * p.c) / 2)
    return {"S": S}, _series_roots(p, S**2, S**2,
                                   "c^2(4n + (S^2 - 2)a_{i}) < S^2 a_{i}")


_FAMILY_CLAUSES = {ALGEBRAIC: _algebraic, TRIGONOMETRIC: _trigonometric,
                   EXPONENTIAL: _exponential}


def check_conditions(params):
    """Clause-by-clause verdict of the params' family condition at their
    precision: the shared clauses (0 < q < 1, c > 0, d - 2c > 0), then the
    family's own from `_FAMILY_CLAUSES`, whose constant (A or S, if any)
    `computed` lists before d and n."""
    with working(params.precision_bits):
        c, d, q = params.c, params.d, params.q
        computed, own = _FAMILY_CLAUSES[params.family](params)
        clauses = (
            Clause("q > 0", q > 0, q, mp.mpf(0)),
            Clause("q < 1", q < 1, q, mp.mpf(1)),
            Clause("c > 0", c > 0, c, mp.mpf(0)),
            Clause("d - 2c > 0", d - 2 * c > 0, d - 2 * c, mp.mpf(0)),
            *own,
        )
        return ConditionVerdict(all(cl.passed for cl in clauses), clauses,
                                {**computed, "d": d, "n": params.n})


def max_feasible_c(params):
    """Largest c passing the family's condition at the params' fixed q
    (and kappa, for the trigonometric family), found by bisection on c.

    The condition passes at `lo` and fails at `hi` throughout.  `hi` starts
    at d/2, where d - 2c > 0 reads 0 > 0 (halving and doubling are exact in
    binary), so it never passes.  Returns the last `lo`: an mpf c at which
    the condition passes and fails at the bisection point above it.  Raises
    InvalidConfigurationError when even tiny c fails (the configuration is
    infeasible at this q/kappa).
    """
    with working(params.precision_bits):
        hi = params.d / 2
        lo = params.d * mp.mpf("1e-9")
        if not check_conditions(replace(params, c=lo)).passed:
            raise InvalidConfigurationError(
                "condition fails even at tiny c; configuration infeasible")
        for _ in range(BISECTIONS):
            mid = (lo + hi) / 2
            if check_conditions(replace(params, c=mid)).passed:
                lo = mid
            else:
                hi = mid
        return lo


def feasible_point_trigonometric(roots, multiplicities, q, bits=53):
    """Largest c on a grid passing the trigonometric condition.

    Scans GRID values of c in (0, d/2), largest first, each at the largest
    of GRID values of kappa in (2c, pi - max_gap/2): no clause that passes
    at a smaller kappa of that grid fails there (README, "Feasible
    constants"), so the scan finds the c the full (c, kappa) grid finds.
    Raises InvalidConfigurationError when every c fails.
    """
    probe = ConvergenceParams(
        family=TRIGONOMETRIC, c="0.001", q=q, roots=roots,
        multiplicities=multiplicities, kappa="0.01", precision_bits=bits,
    )
    with working(bits):
        d = probe.d
        kappa_hi = mp.pi - probe.max_gap / 2
        for ic in range(GRID, 0, -1):
            c = d / 2 * ic / (GRID + 1)
            kappa = 2 * c + (kappa_hi - 2 * c) * GRID / (GRID + 1)
            trial = replace(probe, c=c, kappa=kappa)
            if check_conditions(trial).passed:
                return trial
    raise InvalidConfigurationError("no feasible (c, kappa) on the search grid")


@dataclass(frozen=True)
class OrderEstimate:
    order: object
    window: tuple           # (start, end) inclusive trace indices used
    per_step_orders: tuple


def estimate_order(errors, floor=None):
    """Empirical convergence order from a decreasing error sequence.

    Walks back from the end to the last run of >= MIN_WINDOW consecutive,
    strictly decreasing, finite entries above `floor` (the roundoff floor,
    default 0), then computes the three-point log-ratio

        p_k = log(e_{k+1} / e_k) / log(e_k / e_{k-1})

    across the run and reports the final p_k, the run's index window and the
    full per-step sequence.  Raises InsufficientDataError when no such run
    exists.
    """
    floor = mp.mpf(0) if floor is None else mp.mpf(floor)
    values = [mp.mpf(e) for e in errors]
    valid = [mp.isfinite(v) and v > floor for v in values]

    b = len(values) - 1
    while b >= MIN_WINDOW - 1:
        a = b
        while valid[a] and a > 0 and valid[a - 1] and values[a] < values[a - 1]:
            a -= 1
        if valid[b] and b - a + 1 >= MIN_WINDOW:
            break
        b = a - 1
    else:
        raise InsufficientDataError(
            f"no strictly decreasing positive window of length >= {MIN_WINDOW}"
        )
    # log(e_k / e_{k-1}) for k = a+1 .. b: step k's denominator is step
    # k-1's numerator
    logs = [mp.log(values[k] / values[k - 1]) for k in range(a + 1, b + 1)]
    per_step = [num / den for den, num in zip(logs, logs[1:])]
    return OrderEstimate(per_step[-1], (a, b), tuple(per_step))
