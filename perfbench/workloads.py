"""Seeded workload inputs, one operation each, and the checks on their outputs.

A workload is a fixed list of operations (a "pass") drawn from the seed.  The
structure of a pass -- which families, root counts, precisions and sweep
modes occur, and how often -- is the same for every seed; the seed draws the
root positions and the order of the multiplicities.  Keeping the structure
fixed keeps the cost of a pass nearly the same from seed to seed, so the
spread between seeds measures the program rather than the draw.

Every operation is checked: a library solve must end ``converged`` with every
root within the accuracy tolerance of the known roots; a CLI command must exit
0, and a CLI ``solve`` is checked the same way through the report it wrote.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import multiroots as mr
import multiroots.cli  # noqa: F401  (CliOp calls mr.cli.main)
from mpmath import mp

FAMILIES = (mr.ALGEBRAIC, mr.TRIGONOMETRIC, mr.EXPONENTIAL)
SWEEP_MODES = ("simultaneous", "sequential")

# Accuracy tolerance, relative to max(|r|, 1): 2^(SLACK_BITS - bits) for a
# factored form, and its alpha-th root for an alpha-fold root in coefficient
# form, where rounding the coefficients splits the root into a cluster of
# radius about eps^(1/alpha).
SLACK_BITS = 32

# Root positions span this width; gaps vary by at most a factor of two.  The
# trigonometric span stays inside one period so the roots are distinct mod 2pi.
SPAN = {mr.ALGEBRAIC: 6.0, mr.TRIGONOMETRIC: 5.0, mr.EXPONENTIAL: 4.0}
WIDE_SPAN_PER_ROOT = {mr.ALGEBRAIC: 0.5, mr.TRIGONOMETRIC: 0.2,
                      mr.EXPONENTIAL: 0.5}

START_OFFSET = 0.12  # library starts at r +- START_OFFSET * (smallest gap)

# A pass is kept short (a few seconds) so that a timed run repeats every op
# many times and its per-op medians ride out the host's speed changes.  Each
# family meets a small and a large root count, and both sweep modes.
WIDE_BITS = 128
# Seven ops in a pass of a library workload: the median latency then falls in
# the middle of one op's durations and the 90th percentile inside the largest
# op's, not on the step between two ops.
WIDE_ROOT_COUNTS = (8, 11, 14, 17, 20, 22, 24)  # family rotates, sweep alternates
DEEP_OPS = ((1024, mr.ALGEBRAIC, 3), (1024, mr.TRIGONOMETRIC, 6),
            (1024, mr.EXPONENTIAL, 5), (2048, mr.ALGEBRAIC, 6),
            (2048, mr.TRIGONOMETRIC, 5), (4096, mr.TRIGONOMETRIC, 4),
            (4096, mr.EXPONENTIAL, 3))  # (bits, family, root count)
CLI_BITS = 192
CLI_ROOT_COUNTS = (2, 3, 4)
CLI_SESSIONS = 240
BUNDLED = ("example1", "example2", "example3")
THEOREM_ARGS = ("--theorems", "--c", "0.1", "--q", "0.5")
KAPPA_ARGS = {"example2": ("--kappa", "1.0")}


def draw_roots(rng, family, m, span):
    """m distinct sorted roots with gaps within a factor 2 of each other."""
    gaps = [rng.uniform(1.0, 2.0) for _ in range(m - 1)]
    unit = span / sum(gaps) if gaps else 0.0
    start = rng.uniform(-0.5, 0.5) - span / 2
    roots = [start]
    for g in gaps:
        roots.append(roots[-1] + g * unit)
    return [f"{r:.4f}" for r in roots]


def draw_multiplicities(rng, m, family):
    """A seeded order of the balanced pattern 1, 2, 3, 1, 2, 3, ...

    The multiset is fixed by m (and made even in total for the trigonometric
    and exponential families, whose expansion needs it); only the order is
    drawn, so the degree of a coefficient form does not depend on the seed.
    """
    mults = [1 + i % 3 for i in range(m)]
    if family != mr.ALGEBRAIC and sum(mults) % 2:
        mults[-1] += 1 if mults[-1] < 3 else -1
    rng.shuffle(mults)
    return mults


def start_points(roots, bits):
    with mp.workprec(bits):
        xs = [mp.mpf(r) for r in roots]
        gap = min(b - a for a, b in zip(xs, xs[1:]))
        return tuple(x + START_OFFSET * gap * (1 if i % 2 == 0 else -1)
                     for i, x in enumerate(xs))


def root_tolerances(multiplicities, bits, coefficient_form):
    """Per-root relative tolerance as stated in SLACK_BITS."""
    base = mp.mpf(2) ** (SLACK_BITS - bits)
    if not coefficient_form:
        return tuple(base for _ in multiplicities)
    return tuple(mp.root(base, a) for a in multiplicities)


def digits_cap(bits):
    return bits * math.log10(2)


def accuracy(family, final, truth, tolerances, bits):
    """(all roots within tolerance, fewest correct significant digits).

    Digits are -log10(|x - r| / max(|r|, 1)), capped at the precision's
    decimal digits.  A trigonometric polynomial with an even total
    multiplicity has period 2pi, so its roots are compared modulo 2pi.
    """
    cap = digits_cap(bits)
    ok = len(final) == len(truth)
    digits = cap
    with mp.workprec(bits):
        for x, r, tol in zip(final, truth, tolerances):
            error = x - r
            if family == mr.TRIGONOMETRIC:
                error -= 2 * mp.pi * mp.nint(error / (2 * mp.pi))
            rel = abs(error) / max(abs(r), 1)
            ok = ok and rel <= tol
            if rel > 0:
                digits = min(digits, float(-mp.log10(rel)))
    return ok, digits


def frozen_counts(trace):
    """(coordinate-sweeps skipped by the noise freeze, coordinate-sweeps).

    A sweep skips coordinate i when f at its incoming value is zero or below
    the rounding bound; the trace shows this as a zero correction after a
    nonzero residual.
    """
    frozen = attempted = 0
    for prev, entry in zip(trace, trace[1:]):
        for r, c in zip(prev["residuals"], entry["corrections"]):
            attempted += 1
            frozen += c == 0 and r > 0
    return frozen, attempted


def _trace_dicts(trace):
    return [{"residuals": e.residuals, "corrections": e.corrections}
            for e in trace]


@dataclass
class Outcome:
    """What one operation did, as the checks saw it."""

    ok: bool                  # the op succeeded and passed its checks
    wrong: bool = False       # the program claimed success but the check failed
    termination: str = None   # solve ops only
    sweeps: int = 0
    digits: float = None
    frozen: int = 0
    coordinate_sweeps: int = 0

    def fingerprint(self):
        """Everything that must repeat exactly when the op runs again."""
        return (self.ok, self.wrong, self.termination, self.sweeps,
                None if self.digits is None else repr(self.digits),
                self.frozen, self.coordinate_sweeps)


def _solve_outcome(family, termination, sweeps, final, truth, tolerances,
                   bits, trace):
    frozen, attempted = frozen_counts(trace)
    converged = termination == "converged"
    ok, digits = accuracy(family, final, truth, tolerances, bits)
    return Outcome(ok=converged and ok, wrong=converged and not ok,
                   termination=termination, sweeps=sweeps,
                   digits=digits if converged and ok else None,
                   frozen=frozen, coordinate_sweeps=attempted)


@dataclass
class SolveOp:
    """One library ``solve`` on a prebuilt polynomial."""

    label: str
    poly: object
    multiplicities: tuple
    initial: tuple
    settings: object
    truth: tuple
    tolerances: tuple

    def run(self):
        return mr.solve(self.poly, self.multiplicities, self.initial,
                        self.settings, true_roots=self.truth)

    def check(self, report):
        bits = self.settings.precision_bits
        return _solve_outcome(self.poly.family, report.termination,
                              report.iterations_used,
                              report.final, self.truth, self.tolerances, bits,
                              _trace_dicts(report.trace))


def library_op(rng, family, m, bits, coefficient_form, sweep_mode, span):
    roots = draw_roots(rng, family, m, span)
    mults = draw_multiplicities(rng, m, family)
    cfg = mr.RootConfiguration(roots, mults, precision_bits=bits)
    poly = mr.FactoredForm(family, cfg)
    if coefficient_form:
        poly = mr.expand_from_roots(poly)
    form = "coeffs" if coefficient_form else "factored"
    return SolveOp(
        label=f"{family}/{form}/m={m}/bits={bits}/{sweep_mode}",
        poly=poly,
        multiplicities=tuple(mults),
        initial=start_points(roots, bits),
        settings=mr.SolveSettings(precision_bits=bits, sweep_mode=sweep_mode),
        truth=cfg.roots,
        tolerances=root_tolerances(mults, bits, coefficient_form),
    )


def wide_factored(rng, size=None):
    """Factored forms, m = 8..24, 128 bits; the family rotates and the sweep
    mode alternates from one op to the next."""
    ops = []
    for k, m in enumerate(WIDE_ROOT_COUNTS):
        family = FAMILIES[k % 3]
        m = m if size is None else WIDE_ROOT_COUNTS[0]
        span = WIDE_SPAN_PER_ROOT[family] * m
        ops.append(library_op(rng, family, m, WIDE_BITS, False,
                              SWEEP_MODES[k % 2], span))
    return ops[:3] if size is not None else ops


def deep_coeffs(rng, size=None):
    """Coefficient forms from expand_from_roots, m = 3..6, 1024-4096 bits."""
    cells = DEEP_OPS if size is None else [
        (bits, family, 3) for bits, family, _ in DEEP_OPS[:3]]
    return [library_op(rng, family, m, bits, True, "simultaneous",
                       SPAN[family]) for bits, family, m in cells]


@dataclass
class CliOp:
    """One ``multiroots`` command run in-process through ``cli.main``."""

    label: str
    argv: list
    report: Path = None       # solve commands: the report to check
    truth: tuple = None
    tolerances: tuple = None

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return mr.cli.main(self.argv)

    def check(self, exit_code):
        if self.report is None:
            return Outcome(ok=exit_code == 0)
        data = json.loads(self.report.read_text())
        bits = data["precision_bits"]
        with mp.workprec(bits):
            final = tuple(mp.mpf(v) for v in data["final"])
            trace = [{"residuals": [mp.mpf(v) for v in e["residuals"]],
                      "corrections": [mp.mpf(v) for v in e["corrections"]]
                      if e["corrections"] is not None else None}
                     for e in data["trace"]]
        outcome = _solve_outcome(data["family"], data["termination"],
                                 data["iterations_used"],
                                 final, self.truth, self.tolerances, bits,
                                 trace)
        outcome.ok = outcome.ok and exit_code == 0
        outcome.wrong = outcome.wrong and exit_code == 0
        return outcome


def _bundled_truth(name):
    data = json.loads(
        (resources.files("multiroots.problems") / f"{name}.json").read_text())
    bits = data["precision_bits"]
    truth = data.get("true_roots") or data["roots"]
    with mp.workprec(bits):
        truth = tuple(mp.mpf(v) for v in truth)
    coefficient_form = data["representation"] == "coefficients"
    return truth, root_tolerances(data["multiplicities"], bits,
                                  coefficient_form)


def cli_session(rng, size, workdir):
    """User sessions: generate, solve (generated or bundled), verify, order."""
    ops = []
    sessions = CLI_SESSIONS if size is None else 4
    for s in range(sessions):
        family = FAMILIES[s % 3]
        m = CLI_ROOT_COUNTS[(s // 3) % len(CLI_ROOT_COUNTS)]
        roots = draw_roots(rng, family, m, SPAN[family])
        mults = draw_multiplicities(rng, m, family)
        problem = workdir / f"gen{s}.json"
        report = workdir / f"rep{s}.json"
        pairs = ",".join(f"{r}:{a}" for r, a in zip(roots, mults))
        ops.append(CliOp(f"generate/{family}/m={m}",
                         ["generate", "--family", family, f"--roots={pairs}",
                          "--precision-bits", str(CLI_BITS),
                          "-o", str(problem)]))
        if s % 2 == 0:
            target, extra = str(problem), ()
            with mp.workprec(CLI_BITS):
                truth = tuple(mp.mpf(r) for r in roots)
            tolerances = root_tolerances(mults, CLI_BITS, True)
        else:
            target = BUNDLED[(s // 2) % len(BUNDLED)]
            extra = THEOREM_ARGS + KAPPA_ARGS.get(target, ())
            truth, tolerances = _bundled_truth(target)
        ops.append(CliOp(f"solve/{Path(target).stem}",
                         ["solve", target, "-o", str(report), *extra],
                         report=report, truth=truth, tolerances=tolerances))
        ops.append(CliOp("verify", ["verify", target, str(report)]))
        ops.append(CliOp("order", ["order", str(report)]))
    return ops


def build_pass(name, seed, workdir, size=None):
    """The seeded list of operations one pass of workload `name` runs.

    `size="smoke"` gives the smallest pass with the same kinds of operation.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "cli_session":
        return cli_session(rng, size, Path(workdir))
    if name == "wide_factored":
        return wide_factored(rng, size)
    if name == "deep_coeffs":
        return deep_coeffs(rng, size)
    raise ValueError(f"unknown workload {name!r}")
