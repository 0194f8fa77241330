"""Closed-form fiber-class relative invariants and their oracles.

The descendent/hyperplane integral attached to a ranked label ``(R, d)``
has the closed form

    H(R, d) = (1/r) R^d  prod_u 1 / gfact(c_max_u, [tau(R, u)])

with ``gfact`` the generalized descending factorial and ``c_max`` the
contact-order upper bounds.  ``h_prime_oracle`` recomputes ``r H prod_u
gfact(c_max_u, ...)`` along the independent fixed-point route (automorphism
and weight factors over the label's preimage coordinates), and
``localization_sum`` provides the underlying exact fixed-point identity.
The full basis-paired invariant is ``r * delta_{ij} * H``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ImproperPairError, LabelError
from .local_model import LocalModel
from .ranking import c_bounds, c_to_Rd, require_fiber_label, sector_dim, tau_numerators
from .rationals import Rational, gen_factorial_ints

__all__ = [
    "ProperInsertionPair",
    "h_invariant",
    "h_prime_oracle",
    "localization_sum",
    "relative_invariant",
]


@dataclass(frozen=True)
class ProperInsertionPair:
    """Descendent power ``c`` at the origin, basis indices ``i, j``, H-power ``d``.

    ``d`` may be omitted (None); it is then derived from ``c``.  A supplied
    ``d`` that disagrees with the one determined by ``c`` makes the pair
    improper.
    """

    c: int
    i: int
    j: int
    d: int | None = None


def _check_d(model: LocalModel, R, d: int) -> int:
    ds = sector_dim(model, R)
    if not 0 <= d <= ds:
        raise LabelError(f"H-power {d} outside [0, {ds}] for label {R}")
    return ds


def h_invariant(model: LocalModel, R, d: int):
    """The closed-form integral ``(1/r) R^d prod_u 1/gfact(c_max_u, [tau_u])``.

    Never zero: every generalized-factorial factor is a product of strictly
    positive rationals (asserted).  With ``m_u = [tau(R, u)]`` and
    ``c_max_u = (beta_u + m_u r) / r``, numerator and denominator are
    accumulated as integers and reduced once.
    """
    require_fiber_label(model, R)
    R = Rational(R)
    _check_d(model, R, d)
    r = model.r
    taus, tau_den = tau_numerators(model, R)
    num, den = R.numerator**d, r * R.denominator**d
    for u, (b, t) in enumerate(zip(model.beta, taus), start=1):
        m = t // tau_den
        f_num, f_den = gen_factorial_ints(b + m * r, r, m)
        if f_num == 0:
            raise DomainError(f"vanishing factorial factor at coordinate {u}; inconsistent model")
        num *= f_den
        den *= f_num
    return Rational(num, den)


def h_prime_oracle(model: LocalModel, R, d: int):
    """Fixed-point-route value of ``r H prod_u gfact(c_max_u, ...)`` scaled by 1/r.

    For ``d = 0`` the moduli point count gives ``1/r`` outright.  For
    ``d >= 1`` the route multiplies the automorphism/weight factor
    ``1 / (r prod_{u in J} alpha_u) (1/R)^{|J| - d}`` by the product of the
    ``c_max`` bounds over the preimage coordinates ``J`` (each of which
    equals ``alpha_u R``); the localization identity collapses the
    fixed-point sum to 1.
    """
    pre = require_fiber_label(model, R)
    R = Rational(R)
    _check_d(model, R, d)
    if d == 0:
        return Rational(1, model.r)
    js = [j for j, _ in pre]
    _, cmax = c_bounds(model, R)
    alpha_prod = 1
    cmax_prod = Rational(1)
    for j in js:
        alpha_prod *= model.alpha[j - 1]
        if cmax[j - 1] != model.alpha[j - 1] * R:
            raise DomainError(f"contact bound at coordinate {j} is not alpha_j R; label bug")
        cmax_prod *= cmax[j - 1]
    h2 = Rational(1, model.r * alpha_prod) * (1 / R) ** (len(js) - d)
    return h2 * cmax_prod


def localization_sum(lambdas, d: int):
    """Exact fixed-point sum ``sum_k l_k^d / prod_{j != k} (l_k - l_j)``.

    Equals 0 for ``0 <= d <= m - 2`` and 1 for ``d = m - 1`` (Lagrange
    interpolation / Vandermonde expansion); the denominator convention is
    ``prod_{j != k} (l_k - l_j)``.
    """
    lams = [Rational(x) for x in lambdas]
    if not lams:
        raise DomainError("localization sum needs at least one weight")
    if len(set(lams)) != len(lams):
        raise DomainError("localization weights must be pairwise distinct")
    if d < 0:
        raise DomainError(f"power must be nonnegative, got {d}")
    total = Rational(0)
    for k, lk in enumerate(lams):
        denom = Rational(1)
        for j, lj in enumerate(lams):
            if j != k:
                denom *= lk - lj
        total += lk**d / denom
    return total


def relative_invariant(model: LocalModel, pair: ProperInsertionPair):
    """Basis-paired invariant ``r * delta_{i j} * H(R, d)`` for a proper pair.

    ``(R, d)`` is determined by ``pair.c``; a pair whose supplied ``d``
    disagrees is rejected as improper.  Off-diagonal basis indices give 0.
    """
    R, d = c_to_Rd(model, pair.c)
    if pair.d is not None and pair.d != d:
        raise ImproperPairError(
            f"H-power {pair.d} does not match the power {d} determined by c={pair.c}"
        )
    if pair.i < 1 or pair.j < 1:
        raise ImproperPairError("basis indices are 1-based positive integers")
    if pair.i != pair.j:
        return Rational(0)
    return model.r * h_invariant(model, R, d)
