"""Fixed-binary-precision arithmetic helpers on top of mpmath.

Every operation in the package runs under an explicit precision in bits
(>= 53, where 53 reproduces IEEE double behavior).  Values are plain
``mpmath.mpf``; precision only matters while operating on them, so results
created inside a ``workprec`` block stay valid after it exits.
"""

import functools
import math
import re

from mpmath import libmp, mp
from mpmath.libmp import normalize, numeral, round_nearest

MIN_PRECISION_BITS = 53

# the strings `format_real` writes, each of which `parse_real` takes: sign,
# integer digits, fraction digits and exponent
_CANONICAL = re.compile(r"(-?)([0-9]+)\.([0-9]+)(e[+-][0-9]+)?")
# libmp's `to_digits_exp` takes a value's digits in exact integer arithmetic
# where |exp + bc| <= 3500 and through an approximate power of ten beyond
_TO_DIGITS_EXACT = 3500
# libmp's `from_str` rounds a decimal exponent within +-400 correctly, as
# `from_int` or `from_rational`, and through an approximate power beyond
_FROM_STR_EXACT = 400
_LOG2_10 = math.log(10, 2)
_mpf = mp.mpf
# pow(base, k) for the powers of ten and five the conversions scale by,
# memoized: the values of a 192-bit CLI session take about 140 distinct ones
_power = functools.lru_cache(maxsize=512)(pow)


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


def _to_str(s, dps):
    """`libmp.to_str(s, dps)` for a raw mpf `s`, in plain ints where
    libmp's own digits are exact; libmp's call elsewhere."""
    sign, man, exp, bc = s
    if not man or abs(exp + bc) > _TO_DIGITS_EXACT:
        return libmp.to_str(s, dps)
    # to_digits_exp(s, dps + 3): |x| to fixed point, then to decimal, each
    # step a floor
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    fixed = fixed * _power(10, fixdps) >> fixprec
    # str() refuses ints past sys.get_int_max_str_digits(); numeral splits
    digits = str(fixed) if dps < 250 else numeral(fixed, 10, dps + 3)
    exponent = len(digits) - fixdps - 1
    # to_str: round half up on digit dps + 1 (a carry out of all nines
    # gives "1", one place up), and strip trailing zeros
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps].rstrip("9")
        if digits:
            digits = digits[:-1] + chr(ord(digits[-1]) + 1)
        else:
            digits, exponent = "1", exponent + 1
    else:
        digits = digits[:dps].rstrip("0")
    # fixed point when the leading digit's position lies strictly inside
    # (min(-(dps // 3), -5), dps), else one digit, the point and exponent
    if -max(dps // 3, 5) < exponent < 0:
        text = "0." + "0" * (-1 - exponent) + digits
    elif 0 <= exponent < dps:
        point = exponent + 1
        text = (digits[:point].ljust(point, "0") + "."
                + (digits[point:] or "0"))
    else:
        text = f"{digits[0]}.{digits[1:] or '0'}e{exponent:+d}"
    return "-" + text if sign else text


def format_real(x, bits):
    """Serialize a real as a decimal string that parses back exactly at
    `bits`: `decimal_digits(bits)` significant digits, trailing zeros
    stripped, the text ``mp.nstr`` gives under ``workprec(bits)``.

    An mpf is rounded to `bits` once.  Where |exp + bc| <= 3500 the digits
    and the layout are made in plain ints (`_to_str`), bit for bit what
    libmp does there; zero, nan, inf, larger magnitudes and values of
    other types go to libmp's ``to_str``."""
    dps = decimal_digits(bits)
    if type(x) is not _mpf:
        x = to_mpf(x, bits)
    s = x._mpf_
    if s[3] > bits:
        s = normalize(*s, bits, round_nearest)
    return _to_str(s, dps)


def format_digits(x, dps):
    """`mp.nstr(x, dps)`: `x` with `dps` significant digits, unrounded
    first, through the same int path as `format_real` for an mpf."""
    return _to_str(x._mpf_, dps) if type(x) is _mpf else mp.nstr(x, dps)


def parse_real(text, bits):
    """Parse a decimal string (or JSON number) back to an mpf at `bits`.

    The same conversion ``mp.mpf(text)`` makes under ``workprec(bits)``.
    A string in `format_real`'s canonical form whose decimal exponent,
    after its fraction digits are counted, lies within +-400 is rounded
    in plain ints, to nearest with ties to even, as libmp's ``from_str``
    does there.  Any other input (JSON numbers, other magnitudes, nan,
    inf, upper case, spaces, ``1_000``) goes to ``mp.mpf``.  A string
    ``p/q`` is accepted and divided; ``q`` = 0 raises ZeroDivisionError."""
    require_bits(bits)
    match = type(text) is str and _CANONICAL.fullmatch(text)
    if not match:
        return to_mpf(text, bits)
    sign, whole, fraction, exponent = match.groups()
    fraction = fraction.rstrip("0")
    power = (int(exponent[1:]) if exponent else 0) - len(fraction)
    if abs(power) > _FROM_STR_EXACT:
        return to_mpf(text, bits)
    man = int(whole + fraction)
    if power >= 0:
        man *= _power(10, power)
        exp = 0
    else:
        # man / 10**k = (man / 5**k) * 2**-k: a quotient of at least
        # bits + 3 bits and a sticky bit for a remainder round correctly
        den = _power(5, -power)
        shift = max(bits + 3 + den.bit_length() - man.bit_length(), 0)
        man, rem = divmod(man << shift, den)
        man = man << 1 | (rem != 0)
        exp = power - shift - 1
    return mp.make_mpf(normalize(1 if sign else 0, man, exp,
                                 man.bit_length(), bits, round_nearest))
