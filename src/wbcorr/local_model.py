"""Cyclic weighted-projective local models and their twisted sectors.

A local model is the germ of an isotropy-``Z_r`` action on ``C^n`` with
action weight ``beta`` together with a positive circle-action weight
``alpha`` (the blowup weight).  All sector combinatorics of the exceptional
divisor's local charts reduce to this data: isotropy groups of the
coordinate points, the index set of twisted sectors, fixed loci, and the
rational degree shifting.

Only the distinguished-generator case (``b = 1`` phases) is treated by the
downstream ranking and invariant machinery; callers whose distinguished
isotropy element is another generator must re-present the model with that
generator acting as ``exp(2 pi i / r)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .errors import SchemaError, SectorError
from .rationals import Rational, _parse_int, floor_frac, frac

__all__ = ["LabelLadder", "LocalModel", "SectorIndex"]


class LabelLadder(NamedTuple):
    """Window 0 of a model's label ladder, in integers.

    Every label ``(beta_j + a r) / (alpha_j r)`` is ``N / den`` with
    ``den = r lcm(alpha)``.  Window 0 holds the labels in ``(0, 1]``, from
    the covers ``0 <= a < alpha_j``; window ``k`` is window 0 shifted by
    ``k``, i.e. numerators shifted by ``k den``.  Rationals are built only
    for the labels returned.
    """

    den: int
    #: Distinct window-0 numerators ``N``, ascending.
    nums: list[int]
    #: Number of pairs ``(j, a)`` with label ``N / den``, per numerator.
    mults: list[int]
    #: Running sums of ``mults``: the weak rank of each label inside the window.
    ranks: list[int]

    def window(self, k: int) -> list[tuple[object, int]]:
        """The labels of window ``k`` with their multiplicities, ascending."""
        shift = k * self.den
        return [(Rational(num + shift, self.den), m) for num, m in zip(self.nums, self.mults)]

    def ranked_label(self, c: int):
        """The ranked label ``(R, d)`` of rank ``c + 1``, for ``c >= 0``.

        The windows below ``k = c // size`` (``size`` labels counted with
        multiplicity each) hold ranks ``1 .. k size``, so the label is the
        first of window 0 whose weak rank exceeds ``c mod size``, shifted
        by ``k``.
        """
        k, rest = divmod(c, self.ranks[-1])
        i = bisect_right(self.ranks, rest)
        return Rational(self.nums[i] + k * self.den, self.den), self.ranks[i] - rest - 1


@dataclass(frozen=True, order=True)
class SectorIndex:
    """A twisted-sector index: the pair (b mod r, phase mod 1).

    ``b`` selects the isotropy power ``exp(-2 pi i b / r)`` and ``R`` is the
    exact fractional circle phase in ``[0, 1)``.  Ordering is lexicographic
    on (b, R), which is the canonical order used for all sector listings.
    """

    b: int
    R: object  # exact rational in [0, 1)


@dataclass(frozen=True)
class LocalModel:
    """The model ``Z_r^beta`` acting on ``C^n`` with circle weight ``alpha``.

    Invariants: ``len(beta) == len(alpha) == n``, ``1 <= beta_u <= r`` (the
    weight range convention is [1, r], not [0, r-1]) and ``alpha_u >= 1``.
    Immutable and safe to share between threads.
    """

    r: int
    beta: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self):
        beta = tuple(int(b) for b in self.beta)
        alpha = tuple(int(a) for a in self.alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        if self.r < 1:
            raise SchemaError(f"isotropy order must be positive, got r={self.r}")
        if not beta or len(beta) != len(alpha):
            raise SchemaError("beta and alpha must be nonempty and of equal length")
        for u, b in enumerate(beta, start=1):
            if not 1 <= b <= self.r:
                raise SchemaError(f"beta[{u}]={b} outside [1, r]={self.r}")
        for u, a in enumerate(alpha, start=1):
            if a < 1:
                raise SchemaError(f"alpha[{u}]={a} must be >= 1")

    @property
    def n(self) -> int:
        return len(self.beta)

    @property
    def weight_total(self) -> int:
        """Sum of the blowup weights (the window size of the label ladder)."""
        return sum(self.alpha)

    @cached_property
    def ladder(self) -> LabelLadder:
        """Window 0 of the label ladder (see ``LabelLadder``), built once per model."""
        lcm = math.lcm(*self.alpha)
        counts = Counter(
            (b + a * self.r) * (lcm // al)
            for b, al in zip(self.beta, self.alpha)
            for a in range(al)
        )
        nums = sorted(counts)
        mults = [counts[num] for num in nums]
        return LabelLadder(self.r * lcm, nums, mults, list(accumulate(mults)))

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, doc) -> "LocalModel":
        if not isinstance(doc, dict):
            raise SchemaError("local model must be a JSON object")
        extra = set(doc) - {"r", "beta", "alpha"}
        if extra:
            raise SchemaError(f"unknown local-model keys: {sorted(extra)}")
        try:
            r = _parse_int(doc["r"])
            if not (isinstance(doc["beta"], list) and isinstance(doc["alpha"], list)):
                raise TypeError("beta and alpha must be arrays")
            beta = tuple(map(_parse_int, doc["beta"]))
            alpha = tuple(map(_parse_int, doc["alpha"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed local model: {exc}") from exc
        return cls(r=r, beta=beta, alpha=alpha)

    def to_json(self) -> dict:
        return {"r": self.r, "beta": list(self.beta), "alpha": list(self.alpha)}

    # -- sector combinatorics ---------------------------------------------

    def _check_coord(self, u: int):
        if not 1 <= u <= self.n:
            raise SectorError(f"coordinate index {u} outside [1, {self.n}]")

    def isotropy_group(self, i: int) -> set[SectorIndex]:
        """Isotropy group of the i-th coordinate point, as distinct sector pairs.

        The defining list ranges over ``0 <= b < r`` and ``0 <= a < alpha_i``
        with phase ``(b beta_i + a r) / (alpha_i r)``; coincident group
        elements are deduplicated (no downstream formula needs the
        multiplicity).
        """
        self._check_coord(i)
        out = set()
        for b in range(self.r):
            for a in range(self.alpha[i - 1]):
                phase = frac(Rational(b * self.beta[i - 1] + a * self.r, self.alpha[i - 1] * self.r))
                out.add(SectorIndex(b, phase))
        return out

    @cached_property
    def _supports(self) -> dict[SectorIndex, frozenset[int]]:
        """Each sector's support ``{i : delta in G_i}``, in canonical sector
        order; built once per model from the n isotropy groups."""
        supports = {}
        for i in range(1, self.n + 1):
            for delta in self.isotropy_group(i):
                supports.setdefault(delta, set()).add(i)
        return {delta: frozenset(supports[delta]) for delta in sorted(supports)}

    def sector_index_set(self) -> list[SectorIndex]:
        """All twisted-sector indices, canonically sorted.

        The index set is the union of the coordinate isotropy groups.
        """
        return list(self._supports)

    def sector_support(self, delta: SectorIndex) -> set[int]:
        """Coordinates fixed by the sector: ``I(delta) = {i : delta in G_i}``.

        Raises SectorError when ``delta`` is not a sector of this model
        (equivalently, when the support would be empty).
        """
        support = self._supports.get(delta)
        if support is None:
            raise SectorError(f"{delta} is not a twisted sector of this model")
        return set(support)

    def tau(self, R, u: int):
        """The shifted weight ``-beta_u / r + alpha_u R`` (exact)."""
        self._check_coord(u)
        return Rational(-self.beta[u - 1], self.r) + self.alpha[u - 1] * Rational(R)

    def degree_shift(self, b: int, R):
        """Rational grading shift of the sector ``(b, R)``.

        Sum over coordinates of the fractional part of
        ``-(b/r) beta_u + alpha_u R``; vanishing summands are exactly the
        coordinates fixed by the sector.
        """
        if not 0 <= b < self.r:
            raise SectorError(f"b={b} outside [0, {self.r})")
        R = Rational(R)
        total = Rational(0)
        for u in range(1, self.n + 1):
            total += frac(Rational(-b * self.beta[u - 1], self.r) + self.alpha[u - 1] * R)
        return total

    def d_top(self) -> int:
        """Dimension of the distinguished-generator sector: ``#{j : beta_j = r}``."""
        return sum(1 for b in self.beta if b == self.r)

    def conjugate(self) -> "LocalModel":
        """The model re-presented with the inverse generator distinguished."""
        beta = tuple(self.r if b == self.r else self.r - b for b in self.beta)
        return LocalModel(r=self.r, beta=beta, alpha=self.alpha)

    def distinguished_sector(self, phase) -> SectorIndex:
        """The b=1 sector with the given phase, normalized mod r."""
        ph = frac(Rational(phase))
        return SectorIndex(1 % self.r, ph)


def degree_shift_of_label(model: LocalModel, R):
    """Grading shift of the moduli sector attached to a label ``R > 0``.

    Equals ``degree_shift(1, R)`` plus the fractional part of ``R`` itself
    (the extra projectification coordinate); used as an independent route in
    the dimension cross-checks.
    """
    return model.degree_shift(1 % model.r, R) + floor_frac(R)[1]
