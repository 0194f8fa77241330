"""Exact rational arithmetic.

Every quantity in this package is an exact rational; nothing is ever
evaluated in floating point, and there is no overflow (Python integers and
GMP integers are arbitrary precision).  Hot kernels keep numerators and
denominators as integers and build one rational at the end: the
generalized factorial, for one, is a single integer product over a power
of the denominator.

Two interchangeable backends provide the ``Rational`` constructor:

* ``gmpy2.mpq`` -- a compiled GMP extension, used automatically when gmpy2
  is importable (expected to be faster on the enumeration-heavy kernels;
  not measured, as the recorded benchmarks ran without gmpy2);
* ``fractions.Fraction`` -- the pure-Python stdlib fallback.

Both store values reduced with a positive denominator, print as ``p/q``
(``q`` omitted when 1), and hash equal for equal values, so objects from
the two backends mix safely in arithmetic and containers.  The default is
picked once at import; ``set_backend`` exists for the benchmark script and
backend-equivalence tests and is not thread-safe.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    _HAVE_GMP = True
except ImportError:  # pragma: no cover - environment without gmpy2
    _mpq = None
    _HAVE_GMP = False

_BACKENDS = {"fraction": Fraction}
if _HAVE_GMP:
    _BACKENDS["gmp"] = _mpq

#: Name of the active backend ("gmp" or "fraction").
BACKEND = "gmp" if _HAVE_GMP else "fraction"

_active = _BACKENDS[BACKEND]


def Rational(*args):
    """Construct an exact rational with the active backend.

    Accepts ints, rationals of either backend, or ``p/q`` strings.  A stable
    callable (rather than a class alias) so that ``set_backend`` takes
    effect everywhere, however the name was imported.  A value that is
    already of the active type is returned as is: it is immutable and
    reduced, and kernels convert their arguments at every entry point.
    """
    if len(args) == 1 and type(args[0]) is _active:
        return args[0]
    return _active(*args)


def rational_type():
    """The concrete class of the active backend."""
    return _active


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def set_backend(name: str):
    """Select the rational backend; returns the previous backend name.

    Benchmark/test hook only: values produced under different backends
    interoperate, but swapping mid-computation is not thread-safe.
    """
    global _active, BACKEND
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    previous = BACKEND
    BACKEND = name
    _active = _BACKENDS[name]
    return previous


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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


def format_rational(q) -> str:
    """Serialize a rational as ``p/q``, omitting the denominator when 1."""
    q = Rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_integral(q) -> bool:
    return Rational(q).denominator == 1


def floor_frac(q):
    """Split ``q`` into its integer floor and fractional part.

    Returns ``(n, f)`` with ``n`` the greatest integer <= q and
    ``f = q - n`` in ``[0, 1)``; the floor convention (not truncation)
    matters for negative arguments, e.g. ``-1/2 -> (-1, 1/2)``.
    """
    q = Rational(q)
    n = int(math.floor(q))
    return n, q - n


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
    return math.prod(range(p, p - (m + 1) * q, -q)), q ** (m + 1)


def gen_factorial(c, m: int):
    """Descending product ``c (c-1) ... (c-m)`` over ``m + 1`` factors.

    ``m = -1`` gives the empty product 1.  For integer ``c = m`` this is the
    ordinary factorial; for non-integer ``c`` it is the generalized
    factorial ``c (c-1) ... (c-[c])`` used by the fiber invariant formula.
    With ``c = p/q`` it is computed as the integer product
    ``p (p - q) ... (p - m q)`` over ``q^(m+1)``, reduced once.
    """
    if m != int(m) or m < -1:
        raise ValueError(f"gen_factorial needs an integer m >= -1, got {m!r}")
    c = Rational(c)
    return Rational(*gen_factorial_ints(int(c.numerator), int(c.denominator), int(m)))
