"""The honest-termination campaign's random class, asserted.

Each draw is a `random_configuration` (families in turn, m = 2-5, alpha
<= 4) at 128 or 256 bits, solved in factored or coefficient form in
either sweep mode from starts r + U(-s, s) * (smallest gap), s in {0.2,
0.35, 0.5}.  A draw is right when its solve ends `converged` with every
root within 2**(32 - bits) relative to max(|r|, 1), or within its alpha-th
root of that for an alpha-fold root of a coefficient form, whose rounded
coefficients split the root into a cluster of about that radius.
Trigonometric roots are compared modulo 2 pi.

Tier-1 runs the first TIER1_DRAWS draws and asserts that every one is
right.  A larger sample runs as a script, with the number of draws as its
argument:

    python tests/test_campaign.py 3000

It prints the count of each outcome and the draws that are not right, and
exits 1 unless every solve converged.  A wrong draw is counted, not
failed, while the larger sample holds one: draw 890, a simple root of an
exponential coefficient form beside a 4-fold one, where |f'(r)| is about
3e-6 and the root ends 5.0e-29 from the truth, 4 times its tolerance but
within the 8.4e-29 that the evaluation noise over |f'(r)| allows.
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


def outcome(index):
    """RIGHT, WRONG (converged with a root outside its tolerance) or the
    termination of a solve that did not converge."""
    family, poly, cfg, starts, settings = draw(index)
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


def campaign(draws):
    """(Counter of outcomes, {index: outcome} of the draws not right)."""
    counts, misses = Counter(), {}
    for index in range(draws):
        result = outcome(index)
        counts[result] += 1
        if result != RIGHT:
            misses[index] = result
    return counts, misses


def test_every_random_draw_converges_to_its_roots():
    counts, misses = campaign(TIER1_DRAWS)
    assert not misses, (counts, misses)


if __name__ == "__main__":
    counts, misses = campaign(int(sys.argv[1]))
    print(f"random class: {dict(counts)}")
    if misses:
        print(f"not right: {misses}")
    sys.exit(1 if counts[RIGHT] + counts[WRONG] < sum(counts.values()) else 0)
