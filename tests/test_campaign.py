"""The honest-termination campaign: the random class, asserted, and the
period-shift class, counted.

Each draw of the random class is a `random_configuration` (families in
turn, m = 2-5, alpha <= 4) at 128 or 256 bits, solved in factored or
coefficient form in either sweep mode from starts r + U(-s, s) *
(smallest gap), s in {0.2, 0.35, 0.5}.  A draw is right when its solve
ends `converged` with every root within 2**(32 - bits) relative to
max(|r|, 1), or within its alpha-th root of that for an alpha-fold root of
a coefficient form, whose rounded coefficients split the root into a
cluster of about that radius.  Trigonometric roots are compared modulo
2 pi.

Draw n of the period-shift class is the n-th trigonometric draw of the
random class with start j set to start i + 2 pi k, at the solve's bits;
i != j and k = +-1 come from a seeded RNG of the class's own.  The two
starts are one point modulo the period, where the coupling term has a
pole, and no collision test sees it.  The class is counted, not
asserted, until the solver treats such starts as the one point they are.

Tier-1 runs the first TIER1_DRAWS draws of the random class and asserts
that every one is right.  Larger samples run as a script, with the number
of random draws and, optionally, of period-shift draws as its arguments:

    python tests/test_campaign.py 3000 300

It prints the count of each outcome per class and the random draws that
are not right, and exits 1 unless every solve of the random class
converged.  A wrong draw is counted, not failed, while the larger sample
holds one: draw 890, a simple root of an exponential coefficient form
beside a 4-fold one, where |f'(r)| is about 3e-6 and the root ends
5.0e-29 from the truth, 4 times its tolerance but within the 8.4e-29 that
the evaluation noise over |f'(r)| allows.  It also prints how many of the
coefficient-form expansions `expand_from_roots` certified by its rounding
bound alone and how many it evaluated at the probes: a count, not an
assertion.
"""
import random
import sys
from collections import Counter

from mpmath import mp

from multiroots import (
    ALGEBRAIC,
    EXPONENTIAL,
    TRIGONOMETRIC,
    FactoredForm,
    SolveSettings,
    expand_from_roots,
    solve,
)
from multiroots import polynomials
from multiroots.polynomials import gaps, root_offset
from multiroots.precision import working
from multiroots.solver import CONVERGED, SEQUENTIAL, SIMULTANEOUS
from conftest import random_configuration

FAMILIES = (ALGEBRAIC, TRIGONOMETRIC, EXPONENTIAL)
TIER1_DRAWS = 150
SLACK_BITS = 32
RIGHT, WRONG = "right", "wrong"


def draw(index):
    """The seeded problem of draw `index`: (family, polynomial,
    configuration, starts, settings)."""
    family = FAMILIES[index % len(FAMILIES)]
    rng = random.Random(f"campaign random {index}")
    bits = rng.choice((128, 256))
    cfg = random_configuration(rng, family, bits=bits)
    poly = FactoredForm(family, cfg)
    if rng.random() < 0.5:
        poly = expand_from_roots(poly)
    settings = SolveSettings(precision_bits=bits,
                             sweep_mode=rng.choice((SIMULTANEOUS, SEQUENTIAL)))
    spread = rng.choice((0.2, 0.35, 0.5))
    with working(bits):
        gap = gaps(cfg.roots)[0]
        starts = [r + rng.uniform(-spread, spread) * gap for r in cfg.roots]
    return family, poly, cfg, starts, settings


def period_draw(index):
    """The seeded problem of period-shift draw `index`, as `draw` gives
    it: the index-th trigonometric draw with one start moved to another
    start plus or minus 2 pi."""
    family, poly, cfg, starts, settings = draw(
        len(FAMILIES) * index + FAMILIES.index(TRIGONOMETRIC))
    rng = random.Random(f"campaign period shift {index}")
    i, j = rng.sample(range(len(starts)), 2)
    k = rng.choice((-1, 1))
    with working(settings.precision_bits):
        starts[j] = starts[i] + 2 * k * mp.pi
    return family, poly, cfg, starts, settings


CLASSES = {"random": draw, "period shift": period_draw}


def outcome(family, poly, cfg, starts, settings):
    """RIGHT, WRONG (converged with a root outside its tolerance) or the
    termination of a solve that did not converge."""
    report = solve(poly, cfg.multiplicities, starts, settings)
    if report.termination != CONVERGED:
        return report.termination
    bits = settings.precision_bits
    with working(bits):
        base = mp.mpf(2) ** (SLACK_BITS - bits)
        for x, r, a in zip(report.final, cfg.roots, cfg.multiplicities):
            tol = base if isinstance(poly, FactoredForm) else mp.root(base, a)
            if abs(root_offset(family, x, r)) > tol * max(abs(r), 1):
                return WRONG
    return RIGHT


def campaign(draws, problem=draw):
    """(Counter of outcomes, {index: outcome} of the draws not right) of the
    first `draws` problems of a class."""
    counts, misses = Counter(), {}
    for index in range(draws):
        result = outcome(*problem(index))
        counts[result] += 1
        if result != RIGHT:
            misses[index] = result
    return counts, misses


def test_every_random_draw_converges_to_its_roots():
    counts, misses = campaign(TIER1_DRAWS)
    assert not misses, (counts, misses)


def test_a_period_shift_draw_moves_one_start_by_a_period():
    for index in range(30):
        family, _, _, starts, settings = period_draw(index)
        unshifted = draw(3 * index + 1)[3]
        moved = [n for n, (x, y) in enumerate(zip(starts, unshifted))
                 if x != y]
        assert family == TRIGONOMETRIC and len(moved) == 1
        j = moved[0]
        with working(settings.precision_bits):
            assert any(starts[j] in (x + 2 * mp.pi, x - 2 * mp.pi)
                       for n, x in enumerate(starts) if n != j)


def count_certificates():
    """A Counter of the expansions `expand_from_roots` certifies from here
    on, by "bound" or by "probes"."""
    counts, prove = Counter(), polynomials._bound_proves_roundtrip

    def counted(form, expanded):
        proved = prove(form, expanded)
        counts["bound" if proved else "probes"] += 1
        return proved
    polynomials._bound_proves_roundtrip = counted
    return counts


if __name__ == "__main__":
    failed = False
    certificates = count_certificates()
    for (name, problem), draws in zip(CLASSES.items(), sys.argv[1:]):
        counts, misses = campaign(int(draws), problem)
        print(f"{name} class: {dict(counts)}")
        if problem is draw:  # the asserted class
            if misses:
                print(f"not right: {misses}")
            failed = counts[RIGHT] + counts[WRONG] < sum(counts.values())
    print(f"coefficient-form expansions: {certificates['bound']} certified by "
          f"the rounding bound, {certificates['probes']} at the probes")
    sys.exit(1 if failed else 0)
