"""Fiber-class label ladder and ranking combinatorics.

Fiber-class topological data of a local model are named by positive
rationals ``R = (beta_j + a r) / (alpha_j r)`` (the label function over
coordinate/cover pairs ``(j, a)``).  This module computes, exactly:

* the label function and its preimages,
* the two ranking functions (#labels strictly below / weakly below R),
* the window decomposition ``k < R <= k+1`` of the label ladder,
* the bijection between nonnegative integers ``c`` and ranked labels
  ``(R, d)``,
* the moduli dimension attached to a label, by two independent formulas,
* the per-coordinate contact-order bounds.

Everything is a pure function of (model, arguments); labels are plain
rationals and ranked labels plain ``(R, d)`` pairs.  Internally the work is
integer arithmetic: ``tau(R, j)`` as numerators over a common denominator,
the contact-order bounds as numerators over ``r``, and the window-0 ladder
cached on the model (``LocalModel.ladder``) as numerators over
``r lcm(alpha)``.  One label check computes the tau numerators once and
hands them back with the preimages, so the invariant kernels built on it
never recompute them.  Rationals are built only for the values returned.
"""

from __future__ import annotations

from .errors import LabelError
from .local_model import LocalModel
from .rationals import Rational, floor

__all__ = [
    "lambda_value",
    "lambda_preimages",
    "rk_pair",
    "sector_dim",
    "window",
    "rk_tilde",
    "c_to_Rd",
    "moduli_dim",
    "moduli_dim_oracle",
    "c_bounds",
]


def lambda_value(model: LocalModel, j: int, a: int):
    """Label of the pair ``(j, a)``: ``(beta_j + a r) / (alpha_j r)``, reduced."""
    model._check_coord(j)
    if a < 0:
        raise LabelError(f"cover index a={a} must be nonnegative")
    return Rational(model.beta[j - 1] + a * model.r, model.alpha[j - 1] * model.r)


def tau_numerators(model: LocalModel, R) -> tuple[list[int], int]:
    """``tau(R, j)`` for every coordinate as integer numerators over one denominator.

    With ``R = p/q`` the numerators are ``alpha_j r p - beta_j q`` over ``r q``,
    all plain ints.  Package-internal integer kernel behind the label check,
    the rankings and the CLI's ``c_max_factorial``; not exported.
    """
    p, q = R.numerator, R.denominator
    rp = model.r * p
    return [a * rp - b * q for b, a in zip(model.beta, model.alpha)], model.r * q


def _preimages(taus: list[int], den: int) -> list[tuple[int, int]]:
    # tau(R, j) equals a exactly when (j, a) is a preimage
    return [(j, t // den) for j, t in enumerate(taus, start=1) if t >= 0 and t % den == 0]


def lambda_preimages(model: LocalModel, R) -> list[tuple[int, int]]:
    """All pairs ``(j, a)`` with label R, in coordinate order."""
    return _preimages(*tau_numerators(model, Rational(R)))


def _fiber_label(model: LocalModel, R):
    """``(R, taus, den, preimages)`` of a fiber-class label ``R``; raises LabelError otherwise.

    ``taus`` over ``den`` are the ``tau_numerators`` the check computed,
    handed back so that its callers need not compute them again.
    """
    R = Rational(R)
    if R <= 0:
        raise LabelError(f"fiber-class label must be positive, got {R}")
    taus, den = tau_numerators(model, R)
    pre = _preimages(taus, den)
    if not pre:
        raise LabelError(f"{R} is not in the label image of this model")
    return R, taus, den, pre


def require_fiber_label(model: LocalModel, R):
    """Validate ``R`` as a fiber-class label; returns its preimage list."""
    return _fiber_label(model, R)[3]


def _require_ranked_label(model: LocalModel, R, d: int):
    """``_fiber_label(model, R)``, once ``(R, d)`` is checked as a ranked label."""
    R, _, _, pre = label = _fiber_label(model, R)
    if not 0 <= d < len(pre):
        raise LabelError(f"H-power {d} outside [0, {len(pre) - 1}] for label {R}")
    return label


def _contact_numerators(model: LocalModel, taus: list[int], den: int) -> list[int]:
    """Numerators over ``r`` of the bounds ``c_max_j = beta_j / r + [tau(R, j)]``.

    ``taus`` over ``den`` are the ``tau_numerators`` at the label, so each
    is ``beta_j + m_j r`` with ``m_j = tau_j // den``.  Package-internal
    integer kernel behind ``c_bounds``, ``invariants.h_prime_oracle`` and
    the CLI's ``c_max_factorial``; not exported.
    """
    r = model.r
    return [b + (t // den) * r for b, t in zip(model.beta, taus)]


def rk_pair(model: LocalModel, R) -> tuple[int, int]:
    """The rankings (#labels < R) + 1 and #labels <= R.

    Counted exactly per coordinate: pairs ``(j, a)`` with label <= R are
    those with ``0 <= a <= (R alpha_j r - beta_j) / r``.
    """
    R = Rational(R)
    if R <= 0:
        raise LabelError(f"ranking is defined for positive labels, got {R}")
    taus, den = tau_numerators(model, R)
    weak = 0
    ties = 0
    for t in taus:  # t / den bounds the covers a of coordinate j
        if t >= 0:
            weak += t // den + 1
            if t % den == 0:
                ties += 1
    return weak - ties + 1, weak


def sector_dim(model: LocalModel, R) -> int:
    """Dimension of the sector carrying label R: ``#preimages(R) - 1``."""
    return len(require_fiber_label(model, R)) - 1


def window(model: LocalModel, k: int) -> list[tuple[object, int]]:
    """Distinct labels in ``(k, k+1]`` with preimage counts, sorted.

    For each coordinate j the window holds exactly the covers
    ``a in [k alpha_j, (k+1) alpha_j)``, so the multiplicities total the sum
    of the blowup weights.
    """
    if k < 0:
        raise LabelError(f"window index must be nonnegative, got {k}")
    return model.ladder.window(k)


def rk_tilde(model: LocalModel, R, ell: int) -> int:
    """Rank of the ranked label ``(R, ell)``: ``rk_weak(R) - ell``."""
    _require_ranked_label(model, R, ell)
    return rk_pair(model, R)[1] - ell


def c_to_Rd(model: LocalModel, c: int):
    """The unique ranked label ``(R, d)`` of rank ``c + 1``.

    Total for every ``c >= 0``; the search is confined to window
    ``c // weight_total`` by the shift law: the windows below it carry
    exactly ``k * weight_total`` ranked labels, so the weak rank inside the
    window is a running sum of multiplicities.
    """
    if c < 0:
        raise LabelError(f"descendent power must be nonnegative, got {c}")
    return model.ladder.ranked_label(c)


def moduli_dim(model: LocalModel, R) -> int:
    """Moduli dimension of the label R: ``rk_weak(R) - 1 + d_top``."""
    require_fiber_label(model, R)
    return rk_pair(model, R)[1] - 1 + model.d_top()


def moduli_dim_oracle(model: LocalModel, R) -> int:
    """Independent dimension formula: ``sum_u [tau(R, u)] + n - 1 + d_top``.

    Computed without the ranking functions; agreement with ``moduli_dim``
    is the primary structural cross-check.
    """
    require_fiber_label(model, R)
    R = Rational(R)
    total = sum(floor(model.tau(R, u)) for u in range(1, model.n + 1))
    return total + model.n - 1 + model.d_top()


def c_bounds(model: LocalModel, R):
    """Per-coordinate contact-order bounds (c_min, c_max) at the label R.

    ``c_min_j = beta_j / r`` and ``c_max_j = beta_j / r + [tau(R, j)]``.
    """
    _, taus, den, _ = _fiber_label(model, R)
    c_min = [Rational(b, model.r) for b in model.beta]
    c_max = [Rational(num, model.r) for num in _contact_numerators(model, taus, den)]
    return c_min, c_max
