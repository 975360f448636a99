"""Fixed-binary-precision arithmetic helpers on top of mpmath.

Every operation in the package runs under an explicit precision in bits
(>= 53, where 53 reproduces IEEE double behavior).  Values are plain
``mpmath.mpf``; precision only matters while operating on them, so results
created inside a ``workprec`` block stay valid after it exits.
"""

import math

from mpmath import libmp, mp

MIN_PRECISION_BITS = 53


def require_bits(bits):
    if not isinstance(bits, int) or bits < MIN_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be an integer >= {MIN_PRECISION_BITS}, got {bits!r}"
        )
    return bits


def working(bits):
    """Context manager running the enclosed arithmetic at `bits` of precision."""
    return mp.workprec(require_bits(bits))


def to_mpf(value, bits):
    """Convert int/float/str/mpf to an mpf rounded at `bits`, as
    ``mp.mpf(value)`` does under ``workprec(bits)``."""
    return mp.mpf(value, prec=require_bits(bits))


def eps(bits):
    """Unit roundoff step at magnitude 1: 2**(1 - bits)."""
    return mp.mpf(2) ** (1 - require_bits(bits))


def ulps_apart(a, b, bits):
    """|a - b| measured in units in the last place of the larger magnitude.

    Returns an mpf; 0.0 when the values are identical (including both zero).
    """
    with working(bits + 16):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return mp.mpf(0)
        scale = max(abs(a), abs(b))
        # mp.mag(x) is the exponent e with 2**(e-1) <= |x| < 2**e
        one_ulp = mp.mpf(2) ** (mp.mag(scale) - bits)
        return abs(a - b) / one_ulp


def decimal_digits(bits):
    """Significant decimal digits that round-trip a `bits`-bit value."""
    return math.ceil(require_bits(bits) * 0.302) + 3


def format_real(x, bits):
    """Serialize an mpf as a decimal string that parses back exactly at `bits`.

    The value is rounded to `bits` once and written by the libmp call
    ``mp.nstr`` makes, so no ``workprec`` context is entered."""
    digits = decimal_digits(bits)
    return libmp.to_str(mp.mpf(x, prec=bits)._mpf_, digits, strip_zeros=True)


def parse_real(text, bits):
    """Parse a decimal string (or JSON number) back to an mpf at `bits`.

    The same conversion ``mp.mpf(text)`` makes under ``workprec(bits)``,
    rounded at `bits` without entering the context.  A string ``p/q`` is
    accepted and divided; ``q`` = 0 raises ZeroDivisionError."""
    return to_mpf(text, bits)
