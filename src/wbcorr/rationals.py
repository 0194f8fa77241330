"""Exact rational arithmetic.

Every quantity in this package is an exact ``fractions.Fraction``;
nothing is ever evaluated in floating point, and there is no overflow
(Python integers are arbitrary precision).  Hot kernels keep numerators
and denominators as integers and build one rational at the end: the
generalized factorial, for one, is a single integer product over a power
of the denominator.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

#: Name of the rational type, recorded in benchmark metadata.
BACKEND = "fraction"


def Rational(*args):
    """Construct an exact rational from ints, rationals or ``p/q`` strings.

    A value that is already a ``Fraction`` is returned as is: it is
    immutable and reduced, and kernels convert their arguments at every
    entry point.  A function, not an alias of ``Fraction``, so that call
    counters wrapping this module's functions see every construction.
    """
    if len(args) == 1 and type(args[0]) is Fraction:
        return args[0]
    return Fraction(*args)


_INTEGER = r"[+-]?\d+"
_RATIONAL_RE = re.compile(rf"^{_INTEGER}(/\d+)?$")
_INTEGER_RE = re.compile(rf"^{_INTEGER}$")


def parse_rational(text: str):
    """Parse the ``p/q`` wire format (sign optional, ``/q`` optional).

    Raises ValueError for malformed input or a zero denominator.
    """
    s = str(text).strip().replace("−", "-")
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Rational(int(p), int(q))
    return Rational(int(s))


def _parse_int(value) -> int:
    """``int(value)`` for a JSON integer or an integer string.

    Package-internal, for the JSON readers.  A string must be, once stripped,
    an integer literal of the ``parse_rational`` wire format (an optional
    sign and digits); any other string, such as ``"1_0"``, which ``int``
    would take, raises ValueError.  Any other value, floats and bools
    included, which ``int`` would truncate or take, raises TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        if not _INTEGER_RE.match(value.strip()):
            raise ValueError(f"not an integer literal: {value!r}")
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def format_rational(q) -> str:
    """Serialize a rational as ``p/q``, omitting the denominator when 1.

    Exact at any size: an integer past the interpreter's int-to-str digit
    limit (``sys.get_int_max_str_digits``, left as the caller set it) is
    written through ``Decimal``, which converts exactly and has no limit.
    """
    q = Rational(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
        return num if den == "1" else f"{num}/{den}"


def floor_frac(q):
    """Split ``q`` into its integer floor and fractional part.

    Returns ``(n, f)`` with ``n`` the greatest integer <= q and
    ``f = q - n`` in ``[0, 1)``; the floor convention (not truncation)
    matters for negative arguments, e.g. ``-1/2 -> (-1, 1/2)``.  Both come
    from one integer ``divmod``, whose quotient floors.
    """
    q = Rational(q)
    n, rem = divmod(q.numerator, q.denominator)
    return n, Rational(rem, q.denominator)


def floor(q) -> int:
    return int(math.floor(Rational(q)))


def frac(q):
    return floor_frac(q)[1]


def gen_factorial_ints(p: int, q: int, m: int) -> tuple[int, int]:
    """Unreduced numerator and denominator of ``gen_factorial(p/q, m)``.

    The factors ``p/q - k`` share the denominator ``q``, so the product is
    ``p (p - q) ... (p - m q)`` over ``q^(m+1)``.  Needs plain ints with
    ``q >= 1`` and ``m >= -1``.  Package-internal integer kernel, shared by
    ``gen_factorial`` and ``invariants.h_invariant``; not exported.
    """
    if m < -1:
        raise ValueError(f"gen_factorial needs an integer m >= -1, got {m!r}")
    return math.prod(range(p, p - (m + 1) * q, -q)), q ** (m + 1)


def gen_factorial(c, m: int):
    """Descending product ``c (c-1) ... (c-m)`` over ``m + 1`` factors.

    ``m = -1`` gives the empty product 1.  For integer ``c = m`` this is the
    ordinary factorial; for non-integer ``c`` it is the generalized
    factorial ``c (c-1) ... (c-[c])`` used by the fiber invariant formula.
    With ``c = p/q`` it is computed as the integer product
    ``p (p - q) ... (p - m q)`` over ``q^(m+1)``, reduced once.
    """
    if m != int(m):
        raise ValueError(f"gen_factorial needs an integer m >= -1, got {m!r}")
    c = Rational(c)
    return Rational(*gen_factorial_ints(c.numerator, c.denominator, int(m)))
