"""Formal models of a blown-up pair and the finite data living on them.

A ``FormalPairModel`` is a finite description of the geometry the
correspondence machinery needs and nothing more:

* a table of base twisted sectors ``t`` with an involution and an ordered
  homogeneous basis per sector (assumed self-dual: the dual of the j-th
  element of sector ``t`` is the j-th element of sector ``bar t``);
* a table of divisor twisted sectors ``s``, each projecting to a base
  sector, carrying an involution partner, a fractional contact phase and a
  local model presented with the distinguished generator of ``t``;
* an ordered list of ambient insertion labels (pullback classes);
* a rank-k class lattice with a fiber class ``F``, the pushed bubble fiber
  class ``FZ``, an integer divisor pairing and an integer pushforward
  matrix to a second lattice.

Classes of data are exact rational vectors over the lattice basis.  The
lattice records classes of the blown-up space; the bubble fiber class
pushes to zero there, so coherent models declare ``FZ = 0`` (validated to
pair to zero with the divisor and to push to zero).

Relative/absolute data are immutable multisets of connected components in
canonical (sorted) form, so equality is structural and values are
hashable.  Admissibility beyond the internally checkable constraints
(basis membership, label validity, contact-sum/class pairing consistency)
is asserted by the caller, not re-derived; the model carries no Chern data
to derive it from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, SchemaError
from .local_model import LocalModel
from .ranking import lambda_preimages, require_fiber_label, window
from .rationals import Rational, format_rational, frac, parse_rational

__all__ = [
    "AbsoluteMarking",
    "RelativeMarking",
    "SMarking",
    "ConnectedRelativeData",
    "RelativeData",
    "ConnectedAbsoluteData",
    "AbsoluteData",
    "NMinimalData",
    "FormalPairModel",
    "enumerate_relative_data",
]


# ---------------------------------------------------------------------------
# markings


@dataclass(frozen=True)
class AbsoluteMarking:
    """An ambient marking: free-form sector label, pullback insertion, psi power."""

    sector: str
    insertion: str
    psi: int = 0

    def sort_key(self):
        return (self.sector, self.insertion, self.psi)

    def to_json(self):
        return {"sector": self.sector, "insertion": self.insertion, "psi": self.psi}


@dataclass(frozen=True)
class RelativeMarking:
    """A divisor marking: z-sector, exact contact order, basis pair (j, ell)."""

    sector: str
    contact: object
    j: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "contact", Rational(self.contact))

    def sort_key(self):
        return (self.sector, self.contact, self.j, self.ell)

    def to_json(self):
        return {
            "sector": self.sector,
            "contact": format_rational(self.contact),
            "j": self.j,
            "ell": self.ell,
        }


@dataclass(frozen=True)
class SMarking:
    """A base-supported marking: base sector, basis index, descendent power."""

    sector: str
    j: int
    psi: int

    def sort_key(self):
        return (self.sector, self.j, self.psi)

    def to_json(self):
        return {"sector": self.sector, "j": self.j, "psi": self.psi}


def _marking_tuple(items, key=lambda m: m.sort_key()):
    return tuple(sorted(items, key=key))


# ---------------------------------------------------------------------------
# data


@dataclass(frozen=True)
class ConnectedRelativeData:
    """One connected relative datum: genus, class vector, marking lists."""

    genus: int
    cls: tuple
    absolute: tuple = ()
    relative: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise SchemaError(f"genus must be nonnegative, got {self.genus}")
        object.__setattr__(self, "cls", tuple(Rational(c) for c in self.cls))
        object.__setattr__(self, "absolute", _marking_tuple(self.absolute))
        object.__setattr__(self, "relative", _marking_tuple(self.relative))

    def sort_key(self):
        return (
            self.genus,
            self.cls,
            tuple(m.sort_key() for m in self.absolute),
            tuple(m.sort_key() for m in self.relative),
        )

    def contact_sum(self):
        return sum((m.contact for m in self.relative), Rational(0))

    def to_json(self):
        return {
            "genus": self.genus,
            "class": [format_rational(c) for c in self.cls],
            "absolute": [m.to_json() for m in self.absolute],
            "relative": [m.to_json() for m in self.relative],
        }


@dataclass(frozen=True)
class RelativeData:
    """A possibly disconnected relative datum: canonical multiset of components."""

    components: tuple = ()

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda c: c.sort_key()))
        object.__setattr__(self, "components", comps)

    def sort_key(self):
        return (len(self.components), tuple(c.sort_key() for c in self.components))

    def relative_markings(self):
        return [m for comp in self.components for m in comp.relative]

    def to_json(self):
        return {"kind": "relative", "components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, doc) -> "RelativeData":
        comps = []
        for c in _components_of(doc, "relative"):
            comps.append(
                ConnectedRelativeData(
                    genus=_int_field(c, "genus"),
                    cls=_class_field(c),
                    absolute=_absolute_field(c),
                    relative=tuple(
                        RelativeMarking(
                            sector=_str_field(m, "sector"),
                            contact=parse_rational(m.get("contact", "")),
                            j=_int_field(m, "j"),
                            ell=_int_field(m, "ell"),
                        )
                        for m in _list_field(c, "relative")
                    ),
                )
            )
        return cls(components=tuple(comps))


@dataclass(frozen=True)
class ConnectedAbsoluteData:
    """One connected absolute datum over the downstairs space."""

    genus: int
    cls: tuple
    absolute: tuple = ()
    s_markings: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise SchemaError(f"genus must be nonnegative, got {self.genus}")
        object.__setattr__(self, "cls", tuple(Rational(c) for c in self.cls))
        object.__setattr__(self, "absolute", _marking_tuple(self.absolute))
        object.__setattr__(self, "s_markings", _marking_tuple(self.s_markings))

    def sort_key(self):
        return (
            self.genus,
            self.cls,
            tuple(m.sort_key() for m in self.absolute),
            tuple(m.sort_key() for m in self.s_markings),
        )

    def to_json(self):
        return {
            "genus": self.genus,
            "class": [format_rational(c) for c in self.cls],
            "absolute": [m.to_json() for m in self.absolute],
            "s_markings": [m.to_json() for m in self.s_markings],
        }


@dataclass(frozen=True)
class AbsoluteData:
    components: tuple = ()

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda c: c.sort_key()))
        object.__setattr__(self, "components", comps)

    def sort_key(self):
        return (len(self.components), tuple(c.sort_key() for c in self.components))

    def to_json(self):
        return {"kind": "absolute", "components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, doc) -> "AbsoluteData":
        comps = []
        for c in _components_of(doc, "absolute"):
            comps.append(
                ConnectedAbsoluteData(
                    genus=_int_field(c, "genus"),
                    cls=_class_field(c),
                    absolute=_absolute_field(c),
                    s_markings=tuple(
                        SMarking(
                            sector=_str_field(m, "sector"),
                            j=_int_field(m, "j"),
                            psi=_int_field(m, "psi"),
                        )
                        for m in _list_field(c, "s_markings")
                    ),
                )
            )
        return cls(components=tuple(comps))


@dataclass(frozen=True)
class NMinimalData:
    """A minimal bubble datum: one (sector, contact, insertion) triple per
    component, each encoding a genus-zero fiber component with dual markings
    at the two ends.  May be empty (its invariant is 1)."""

    components: tuple = ()

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda m: m.sort_key()))
        object.__setattr__(self, "components", comps)

    def to_json(self):
        return {"kind": "n_minimal", "components": [m.to_json() for m in self.components]}


def load_data(doc):
    """Parse a data document, dispatching on its "kind" field."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError('data document must be an object with a "kind" field')
    kind = doc["kind"]
    if kind == "relative":
        return RelativeData.from_json(doc)
    if kind == "absolute":
        return AbsoluteData.from_json(doc)
    raise SchemaError(f"unknown data kind {kind!r}")


# -- small JSON helpers -----------------------------------------------------


def _components_of(doc, kind):
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise SchemaError(f'expected an object with "kind": "{kind}"')
    comps = doc.get("components")
    if not isinstance(comps, list):
        raise SchemaError('"components" must be a list')
    return comps


def _int_field(obj, name):
    try:
        v = obj[name]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing field {name!r}") from exc
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"field {name!r} must be an integer, got {v!r}")
    return v


def _str_field(obj, name):
    try:
        v = obj[name]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing field {name!r}") from exc
    if not isinstance(v, str):
        raise SchemaError(f"field {name!r} must be a string, got {v!r}")
    return v


def _list_field(obj, name):
    v = obj.get(name, [])
    if not isinstance(v, list):
        raise SchemaError(f"field {name!r} must be a list")
    return v


def _class_field(obj):
    try:
        return tuple(parse_rational(x) for x in _list_field(obj, "class"))
    except ValueError as exc:
        raise SchemaError(f"malformed class vector: {exc}") from exc


def _absolute_field(obj):
    return tuple(
        AbsoluteMarking(
            sector=_str_field(m, "sector"),
            insertion=_str_field(m, "insertion"),
            psi=_int_field(m, "psi"),
        )
        for m in _list_field(obj, "absolute")
    )


# ---------------------------------------------------------------------------
# exact linear algebra over the class lattice


def solve_exact(rows, rhs):
    """Solve ``rows . x = rhs`` over the rationals by Gaussian elimination.

    Returns the solution tuple, or None when the system is inconsistent.
    Raises DomainError when the system is consistent but underdetermined
    (the model then fails to determine a unique class).
    """
    m = len(rows)
    aug = [[Rational(x) for x in row] + [Rational(b)] for row, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1 if aug else 0
    pivots = []
    row_at = 0
    for col in range(ncols):
        pivot = next((r for r in range(row_at, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        lead = aug[row_at][col]
        aug[row_at] = [x / lead for x in aug[row_at]]
        for r in range(m):
            if r != row_at and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == m:
            break
    for r in range(row_at, m):
        if aug[r][-1] != 0:
            return None
    if len(pivots) < ncols:
        raise DomainError("class system is underdetermined; model does not fix the class")
    x = [Rational(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][-1]
    return tuple(x)


# ---------------------------------------------------------------------------
# sector tables


@dataclass(frozen=True)
class SSector:
    name: str
    bar: str
    basis: tuple  # ordered (label, degree) pairs


@dataclass(frozen=True)
class ZSector:
    name: str
    bar: str
    pi: str
    phase: object  # exact rational in [0, 1)
    local_model: LocalModel


@dataclass(frozen=True)
class FormalPairModel:
    s_sectors: tuple
    z_sectors: tuple
    k_classes: tuple
    rank: int
    f_class: tuple
    fz_class: tuple
    z_pairing: tuple
    kappa_push: tuple  # rows; maps rank-k vectors to rank-k2 vectors

    # -- construction -------------------------------------------------------

    def __post_init__(self):
        object.__setattr__(self, "_s_by_name", {s.name: s for s in self.s_sectors})
        object.__setattr__(self, "_z_by_name", {z.name: z for z in self.z_sectors})
        # ell_max per divisor sector, filled on first use: a sector is read
        # only once _validate has checked its phase
        object.__setattr__(self, "_ell_max", {})
        self._validate()

    @classmethod
    def from_json(cls, doc) -> "FormalPairModel":
        if not isinstance(doc, dict):
            raise SchemaError("pair model must be a JSON object")
        extra = set(doc) - {"s_sectors", "z_sectors", "k_classes", "lattice"}
        if extra:
            raise SchemaError(f"unknown pair-model keys: {sorted(extra)}")
        s_sectors = []
        for entry in _list_field(doc, "s_sectors"):
            basis = tuple(
                (_str_field(b, "name"), _int_field(b, "deg"))
                for b in _list_field(entry, "basis")
            )
            s_sectors.append(
                SSector(name=_str_field(entry, "name"), bar=_str_field(entry, "bar"), basis=basis)
            )
        z_sectors = []
        for entry in _list_field(doc, "z_sectors"):
            try:
                phase = parse_rational(entry.get("phase", ""))
            except ValueError as exc:
                raise SchemaError(f"z-sector phase: {exc}") from exc
            z_sectors.append(
                ZSector(
                    name=_str_field(entry, "name"),
                    bar=_str_field(entry, "bar"),
                    pi=_str_field(entry, "pi"),
                    phase=phase,
                    local_model=LocalModel.from_json(entry.get("local_model")),
                )
            )
        lattice = doc.get("lattice")
        if not isinstance(lattice, dict):
            raise SchemaError('"lattice" must be an object')
        extra = set(lattice) - {"rank", "F", "FZ", "Z_pairing", "kappa_push"}
        if extra:
            raise SchemaError(f"unknown lattice keys: {sorted(extra)}")
        rank = _int_field(lattice, "rank")
        k_classes = tuple(x for x in _list_field(doc, "k_classes"))
        if any(not isinstance(x, str) for x in k_classes):
            raise SchemaError("k_classes must be strings")
        return cls(
            s_sectors=tuple(s_sectors),
            z_sectors=tuple(z_sectors),
            k_classes=k_classes,
            rank=rank,
            f_class=tuple(Rational(int(x)) for x in _list_field(lattice, "F")),
            fz_class=tuple(Rational(int(x)) for x in _list_field(lattice, "FZ")),
            z_pairing=tuple(Rational(int(x)) for x in _list_field(lattice, "Z_pairing")),
            kappa_push=tuple(
                tuple(Rational(int(x)) for x in row) for row in _list_field(lattice, "kappa_push")
            ),
        )

    def _validate(self):
        if len(self._s_by_name) != len(self.s_sectors):
            raise SchemaError("duplicate base sector names")
        if len(self._z_by_name) != len(self.z_sectors):
            raise SchemaError("duplicate divisor sector names")
        if len(self.k_classes) != len(set(self.k_classes)):
            raise SchemaError("duplicate ambient class labels")
        for s in self.s_sectors:
            partner = self._s_by_name.get(s.bar)
            if partner is None or partner.bar != s.name:
                raise SchemaError(f"base sector involution broken at {s.name!r}")
            if len(partner.basis) != len(s.basis):
                raise SchemaError(f"dual basis size mismatch between {s.name!r} and {s.bar!r}")
        n_values = set()
        by_pi: dict[str, list[ZSector]] = {}
        for z in self.z_sectors:
            partner = self._z_by_name.get(z.bar)
            if partner is None or partner.bar != z.name:
                raise SchemaError(f"divisor sector involution broken at {z.name!r}")
            if z.pi not in self._s_by_name:
                raise SchemaError(f"divisor sector {z.name!r} projects to unknown {z.pi!r}")
            if partner.pi != self._s_by_name[z.pi].bar:
                raise SchemaError(f"projection does not intertwine the involutions at {z.name!r}")
            if not 0 <= z.phase < 1:
                raise SchemaError(f"phase of {z.name!r} must lie in [0, 1)")
            if frac(-z.phase) != partner.phase:
                raise SchemaError(f"phase of {z.bar!r} must be the negated phase of {z.name!r}")
            n_values.add(z.local_model.n)
            by_pi.setdefault(z.pi, []).append(z)
            delta = z.local_model.distinguished_sector(z.phase)
            if delta not in z.local_model.sector_index_set():
                raise SchemaError(f"phase of {z.name!r} is not a sector of its local model")
        for z in self.z_sectors:
            # only meaningful once every phase has been checked above
            if self.ell_max(z.name) != self.ell_max(z.bar):
                raise SchemaError(f"H-power ranges differ between {z.name!r} and {z.bar!r}")
        if len(n_values) > 1:
            raise SchemaError("all local models must share the same codimension")
        for t, group in by_pi.items():
            models = {g.local_model for g in group}
            if len(models) > 1:
                raise SchemaError(f"divisor sectors over {t!r} carry different local models")
            phases = [g.phase for g in group]
            if len(phases) != len(set(phases)):
                raise SchemaError(f"divisor sectors over {t!r} share a phase")
        # lattice shape
        for name, vec in (("F", self.f_class), ("FZ", self.fz_class), ("Z_pairing", self.z_pairing)):
            if len(vec) != self.rank:
                raise SchemaError(f"lattice vector {name} has length {len(vec)} != rank {self.rank}")
        if not self.kappa_push or any(len(row) != self.rank for row in self.kappa_push):
            raise SchemaError("kappa_push must be a nonempty matrix with rank-length rows")
        if any(x != 0 for x in self.push(self.f_class)):
            raise SchemaError("the fiber class F must push forward to zero")
        if any(x != 0 for x in self.push(self.fz_class)):
            raise SchemaError("the bubble fiber class FZ must push forward to zero")
        if self.zp(self.fz_class) != 0:
            raise SchemaError("the bubble fiber class FZ must pair to zero with the divisor")
        if all(x == 0 for x in self.z_pairing):
            raise SchemaError("the divisor pairing must be nonzero")
        if self.codim >= 2:
            if self.zp(self.f_class) <= 0:
                raise SchemaError("the fiber class must pair positively with the divisor")
            # the homogeneous system is consistent; its solution is unique
            # exactly when the stacked rows have full column rank
            stacked = [*self.kappa_push, self.z_pairing]
            try:
                solve_exact(stacked, [0] * len(stacked))
            except DomainError:
                raise SchemaError("pushforward and divisor pairing do not determine classes uniquely") from None

    def to_json(self) -> dict:
        return {
            "s_sectors": [
                {"name": s.name, "bar": s.bar, "basis": [{"name": n, "deg": d} for n, d in s.basis]}
                for s in self.s_sectors
            ],
            "z_sectors": [
                {
                    "name": z.name,
                    "bar": z.bar,
                    "pi": z.pi,
                    "phase": format_rational(z.phase),
                    "local_model": z.local_model.to_json(),
                }
                for z in self.z_sectors
            ],
            "k_classes": list(self.k_classes),
            "lattice": {
                "rank": self.rank,
                "F": [int(x) for x in self.f_class],
                "FZ": [int(x) for x in self.fz_class],
                "Z_pairing": [int(x) for x in self.z_pairing],
                "kappa_push": [[int(x) for x in row] for row in self.kappa_push],
            },
        }

    # -- lookups ------------------------------------------------------------

    @property
    def codim(self) -> int:
        return self.z_sectors[0].local_model.n if self.z_sectors else 0

    @property
    def push_rank(self) -> int:
        return len(self.kappa_push)

    def s_sector(self, name: str) -> SSector:
        try:
            return self._s_by_name[name]
        except KeyError:
            raise DomainError(f"unknown base sector {name!r}") from None

    def z_sector(self, name: str) -> ZSector:
        try:
            return self._z_by_name[name]
        except KeyError:
            raise DomainError(f"unknown divisor sector {name!r}") from None

    def bar_s(self, name: str) -> str:
        return self.s_sector(name).bar

    def bar_z(self, name: str) -> str:
        return self.z_sector(name).bar

    def sigma_size(self, t: str) -> int:
        return len(self.s_sector(t).basis)

    def local_model_over(self, t: str) -> LocalModel:
        for z in self.z_sectors:
            if z.pi == t:
                return z.local_model
        raise DomainError(f"no divisor sector projects to {t!r}")

    def z_sector_for(self, t: str, phase) -> ZSector:
        ph = frac(Rational(phase))
        for z in self.z_sectors:
            if z.pi == t and z.phase == ph:
                return z
        raise DomainError(f"no divisor sector over {t!r} with phase {format_rational(ph)}")

    def ell_max(self, s_name: str) -> int:
        """Largest H-power on a divisor sector: its support size less one."""
        if s_name not in self._ell_max:
            z = self.z_sector(s_name)
            delta = z.local_model.distinguished_sector(z.phase)
            self._ell_max[s_name] = len(z.local_model.sector_support(delta)) - 1
        return self._ell_max[s_name]

    def dual_marking(self, m: RelativeMarking) -> RelativeMarking:
        """The dual divisor marking: partner sector, same contact and basis pair."""
        return RelativeMarking(self.bar_z(m.sector), m.contact, m.j, m.ell)

    # -- lattice operations --------------------------------------------------

    def zp(self, cls):
        return sum((Rational(z) * Rational(c) for z, c in zip(self.z_pairing, cls)), Rational(0))

    @cached_property
    def unit_pairing(self) -> tuple:
        """The multiple of the divisor pairing vector that pairs to 1."""
        norm = self.zp(self.z_pairing)
        return tuple(z / norm for z in self.z_pairing)

    def push(self, cls) -> tuple:
        return tuple(
            sum((Rational(a) * Rational(c) for a, c in zip(row, cls)), Rational(0))
            for row in self.kappa_push
        )

    def solve_class(self, pushed, contact_sum):
        """The class with the given pushforward and divisor pairing, or None."""
        rows = [list(row) for row in self.kappa_push] + [list(self.z_pairing)]
        rhs = list(pushed) + [contact_sum]
        return solve_exact(rows, rhs)

    def lift(self, pushed):
        """The divisor-orthogonal lift of a downstairs class, or None."""
        return self.solve_class(pushed, Rational(0))

    # -- data validation -------------------------------------------------------

    def validate_relative_marking(self, m: RelativeMarking):
        z = self.z_sector(m.sector)
        if frac(m.contact) != z.phase:
            raise DomainError(
                f"contact order {format_rational(m.contact)} has the wrong phase for {m.sector!r}"
            )
        require_fiber_label(z.local_model, m.contact)
        if not 1 <= m.j <= self.sigma_size(z.pi):
            raise DomainError(f"basis index {m.j} outside the basis of {z.pi!r}")
        if not 0 <= m.ell <= self.ell_max(m.sector):
            raise DomainError(f"H-power {m.ell} outside [0, {self.ell_max(m.sector)}] on {m.sector!r}")

    def validate_relative_data(self, rd: RelativeData):
        for comp in rd.components:
            if len(comp.cls) != self.rank:
                raise DomainError(f"class vector length {len(comp.cls)} != lattice rank {self.rank}")
            for m in comp.absolute:
                if m.insertion not in self.k_classes:
                    raise DomainError(f"ambient insertion {m.insertion!r} not among the declared classes")
                if m.psi < 0:
                    raise DomainError("descendent powers must be nonnegative")
            for m in comp.relative:
                self.validate_relative_marking(m)
            if comp.contact_sum() != self.zp(comp.cls):
                raise DomainError(
                    "contact orders do not sum to the class/divisor pairing "
                    f"({format_rational(comp.contact_sum())} vs {format_rational(self.zp(comp.cls))})"
                )

    def validate_absolute_data(self, ad: AbsoluteData):
        for comp in ad.components:
            if len(comp.cls) != self.push_rank:
                raise DomainError(
                    f"class vector length {len(comp.cls)} != downstairs rank {self.push_rank}"
                )
            for m in comp.absolute:
                if m.insertion not in self.k_classes:
                    raise DomainError(f"ambient insertion {m.insertion!r} not among the declared classes")
                if m.psi < 0:
                    raise DomainError("descendent powers must be nonnegative")
            for m in comp.s_markings:
                if not 1 <= m.j <= self.sigma_size(m.sector):
                    raise DomainError(f"basis index {m.j} outside the basis of {m.sector!r}")
                if m.psi < 0:
                    raise DomainError("descendent powers must be nonnegative")


# ---------------------------------------------------------------------------
# data enumeration (deterministic; used by tests and examples)


def enumerate_relative_data(
    model: FormalPairModel,
    *,
    windows=(0,),
    genus_values=(0,),
    max_markings=2,
    abs_per_component=1,
    push_coeffs=(0, 1),
    components=1,
    limit=None,
):
    """Deterministically enumerate valid relative data over a model.

    Builds connected components from all divisor-marking multisets of size
    up to ``max_markings`` (contact orders drawn from the given label
    windows), ambient markings over the declared classes, and classes
    solving the contact-sum constraint for each pushforward target in
    ``push_coeffs^push_rank``.  ``components = 2`` additionally emits
    two-component data from consecutive pairs.  Stops after ``limit`` items.
    """
    from itertools import combinations_with_replacement, product

    marking_space = []
    for z in model.z_sectors:
        for k in windows:
            for R, _mult in window(z.local_model, k):
                if frac(R) != z.phase:
                    continue
                ds = len(lambda_preimages(z.local_model, R)) - 1
                for j in range(1, model.sigma_size(z.pi) + 1):
                    for ell in range(ds + 1):
                        marking_space.append(RelativeMarking(z.name, R, j, ell))
    abs_space = [AbsoluteMarking("ambient", name, 0) for name in model.k_classes]

    push_targets = [
        tuple(Rational(c) for c in combo)
        for combo in product(push_coeffs, repeat=model.push_rank)
    ]

    connected = []
    for size in range(max_markings + 1):
        for rel in combinations_with_replacement(marking_space, size):
            contact_sum = sum((m.contact for m in rel), Rational(0))
            for n_abs in range(abs_per_component + 1):
                for absm in combinations_with_replacement(abs_space, n_abs):
                    for target in push_targets:
                        cls = model.solve_class(target, contact_sum)
                        if cls is None:
                            continue
                        for g in genus_values:
                            connected.append(
                                ConnectedRelativeData(
                                    genus=g, cls=cls, absolute=absm, relative=rel
                                )
                            )

    seen = set()
    out = []

    def emit(rd):
        if rd not in seen:
            seen.add(rd)
            out.append(rd)
        return limit is not None and len(out) >= limit

    for comp in connected:
        if emit(RelativeData((comp,))):
            return out
    if components >= 2:
        for i, a in enumerate(connected):
            if i + 1 < len(connected) and emit(RelativeData((a, connected[i + 1]))):
                return out
    return out
