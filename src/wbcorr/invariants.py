"""Closed-form fiber-class relative invariants and their oracles.

The descendent/hyperplane integral attached to a ranked label ``(R, d)``
has the closed form

    H(R, d) = (1/r) R^d  prod_u 1 / gfact(c_max_u, [tau(R, u)])

with ``gfact`` the generalized descending factorial and ``c_max`` the
contact-order upper bounds.  ``h_prime_oracle`` recomputes ``r H prod_u
gfact(c_max_u, ...)`` along the independent fixed-point route (automorphism
and weight factors over the label's preimage coordinates), and
``localization_sum`` provides the underlying exact fixed-point identity.
The full basis-paired invariant is ``r * delta_{ij} * H``; each pair is
ranked, checked and evaluated once, and ``relative_invariant`` and the
CLI's invariant entries read its ``(label, d, H, value)`` from that one pass.

``h_invariant`` and ``h_prime_oracle`` each check the label once, then run
a private kernel on the checked label, which reads the tau numerators the
check computed; the CLI hands the label of ``_ranked_invariant`` to the
oracle's kernel, so an entry's label is checked once for both routes.  Both
kernels accumulate numerator and denominator as integers and build one
rational for the value returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ImproperPairError
from .local_model import LocalModel
from .ranking import _contact_numerators, _require_ranked_label, c_to_Rd
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


def h_invariant(model: LocalModel, R, d: int):
    """The closed-form integral ``(1/r) R^d prod_u 1/gfact(c_max_u, [tau_u])``.

    Never zero: every generalized-factorial factor is a product of strictly
    positive rationals (asserted).  With ``m_u = [tau(R, u)]`` and
    ``c_max_u = (beta_u + m_u r) / r``, numerator and denominator are
    accumulated as integers and reduced once.
    """
    return _h_of_label(model, _require_ranked_label(model, R, d), d)


def _h_of_label(model: LocalModel, label, d: int):
    """``h_invariant`` at a label ``_require_ranked_label`` has checked."""
    R, taus, tau_den, _ = label
    r = model.r
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
    fixed-point sum to 1.  With ``R = p/q`` and ``c_max_u = C_u / r``, the
    value is ``q^(|J|-d) prod_J C_u`` over ``r^(|J|+1) p^(|J|-d) prod_J alpha_u``.
    """
    return _h_prime_of_label(model, _require_ranked_label(model, R, d), d)


def _h_prime_of_label(model: LocalModel, label, d: int):
    """``h_prime_oracle`` at a label ``_require_ranked_label`` has checked."""
    R, taus, tau_den, pre = label
    r = model.r
    if d == 0:
        return Rational(1, r)
    p, q = R.numerator, R.denominator
    cmax = _contact_numerators(model, taus, tau_den)
    num, den = 1, r
    for j, _ in pre:
        alpha, bound = model.alpha[j - 1], cmax[j - 1]
        if bound * q != alpha * p * r:  # c_max_j == alpha_j R
            raise DomainError(f"contact bound at coordinate {j} is not alpha_j R; label bug")
        num *= bound
        den *= alpha * r
    k = len(pre) - d
    return Rational(num * q**k, den * p**k)


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


def _ranked_invariant(model: LocalModel, pair: ProperInsertionPair):
    """``(label, d, H(R, d), value)`` of a proper pair, its label checked once.

    ``label`` is the ``(R, taus, den, preimages)`` of
    ``_require_ranked_label``, for the caller's other routes at the same
    label; ``relative_invariant`` returns ``value``.
    """
    R, d = c_to_Rd(model, pair.c)
    if pair.d is not None and pair.d != d:
        raise ImproperPairError(
            f"H-power {pair.d} does not match the power {d} determined by c={pair.c}"
        )
    if pair.i < 1 or pair.j < 1:
        raise ImproperPairError("basis indices are 1-based positive integers")
    label = _require_ranked_label(model, R, d)
    h = _h_of_label(model, label, d)
    return label, d, h, model.r * h if pair.i == pair.j else Rational(0)


def relative_invariant(model: LocalModel, pair: ProperInsertionPair):
    """Basis-paired invariant ``r * delta_{i j} * H(R, d)`` for a proper pair.

    ``(R, d)`` is determined by ``pair.c``; a pair whose supplied ``d``
    disagrees is rejected as improper.  Off-diagonal basis indices give 0.
    """
    return _ranked_invariant(model, pair)[3]
