"""Data correspondence, partial order, and the triangular transfer system.

The pieces, all exact and deterministic:

* ``psi_forward`` / ``psi_inverse``: the bijection (injection in
  codimension 1) between relative data of the blown-up pair and absolute
  data downstairs with base-supported descendent markings.
* ``glue``: the formal gluing evaluator applying a bubble datum (a list of
  ``RPlusComponent``) to a relative datum along matched divisor markings.
* ``n_minimal_companion``: the unique minimal bubble datum gluing a datum
  to itself.
* ``precedes``: the degeneration partial order, decided by a bounded
  complete search over bubble witnesses.
* ``comparison_matrix``: the strict order on a list of data, each datum
  validated once and each ordered pair searched once.
* ``linear_extension`` / ``assemble_L`` / ``solve_lower_triangular``: the
  poset-indexed lower-triangular transfer matrix and its exact solve.

Formal gluing semantics
-----------------------
A bubble component carries a genus, a class vector in the model lattice
(recording its pushed ambient class), ambient markings, markings at the
infinity divisor (which must be duals of the host datum's markings) and
markings at the zero divisor (which become the glued datum's markings).
Gluing adds genera plus the first Betti number of the matching graph, adds
class vectors, and takes unions of markings per connected component.

Three standing constraints make the search sound:

* flux: a component's zero-contact sum minus its infinity-contact sum must
  equal its class/divisor pairing;
* effectivity: that flux is nonnegative (with the declared orientation of
  the divisor pairing, a contact-decreasing component would carry an
  anti-effective horizontal class);
* fiber rigidity: a genus-zero component with no ambient markings and
  exactly one marking at each divisor must have matching sector and
  contact at the two ends and carry the fiber class ``u * FZ``.  Such
  components are exactly the pre-minimal ones; a pre-minimal bubble datum
  glues without effect, and condition (P2) of the order demands it be
  minimal (dual insertions) whenever it is the whole witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from .errors import (
    DomainError,
    OutOfImageError,
    PosetCycleError,
    SearchLimitError,
    TriangularError,
)
from .invariants import ProperInsertionPair, relative_invariant
from .pair_model import (
    AbsoluteData,
    ConnectedAbsoluteData,
    ConnectedRelativeData,
    FormalPairModel,
    NMinimalData,
    RelativeData,
    RelativeMarking,
    SMarking,
)
from .ranking import c_to_Rd, rk_tilde
from .rationals import Rational, format_rational, frac

__all__ = [
    "RPlusComponent",
    "psi_forward",
    "psi_inverse",
    "n_minimal_companion",
    "companion_rplus",
    "glue",
    "precedes",
    "find_precedence_witness",
    "comparison_matrix",
    "linear_extension",
    "linear_extension_order",
    "default_coeff_rule",
    "assemble_L",
    "solve_lower_triangular",
]

DEFAULT_MAX_COMPONENTS = 16


# ---------------------------------------------------------------------------
# correspondence on data


def psi_forward(model: FormalPairModel, rd: RelativeData) -> AbsoluteData:
    """Map a relative datum to its absolute companion datum.

    Componentwise: each divisor marking ``(s, u, j, ell)`` becomes a
    base-supported marking ``(pi(s), j, c)`` with the descendent power ``c``
    of rank ``rk_tilde(u, ell)`` in the local model attached to ``s``; the
    class pushes forward; ambient markings pass through.
    """
    model.validate_relative_data(rd)
    out = []
    for comp in rd.components:
        s_markings = []
        for m in comp.relative:
            z = model.z_sector(m.sector)
            c = rk_tilde(z.local_model, m.contact, m.ell) - 1
            s_markings.append(SMarking(sector=z.pi, j=m.j, psi=c))
        out.append(
            ConnectedAbsoluteData(
                genus=comp.genus,
                cls=model.push(comp.cls),
                absolute=comp.absolute,
                s_markings=tuple(s_markings),
            )
        )
    return AbsoluteData(tuple(out))


def psi_inverse(model: FormalPairModel, ad: AbsoluteData) -> RelativeData:
    """Recover the unique relative preimage of an absolute datum.

    Each base-supported marking ``(t, j, c)`` determines a ranked label
    ``(R, d)`` in the local model over ``t`` and hence a divisor marking on
    the sector over ``t`` with phase ``{R}``.  The class is the unique
    lattice vector with the given pushforward whose divisor pairing is the
    recovered contact-order sum.

    Raises OutOfImageError when no such sector exists or when the class
    system is inconsistent (the codimension-1 obstruction).
    """
    model.validate_absolute_data(ad)
    out = []
    for comp in ad.components:
        rel = []
        contact_sum = Rational(0)
        for m in comp.s_markings:
            local = model.local_model_over(m.sector)
            R, d = c_to_Rd(local, m.psi)
            try:
                z = model.z_sector_for(m.sector, frac(R))
            except DomainError as exc:
                raise OutOfImageError(
                    f"no divisor sector over {m.sector!r} carries the label {format_rational(R)}"
                ) from exc
            rel.append(RelativeMarking(sector=z.name, contact=R, j=m.j, ell=d))
            contact_sum += R
        cls = model.solve_class(comp.cls, contact_sum)
        if cls is None:
            raise OutOfImageError(
                "no class matches both the pushforward and the recovered contact orders"
            )
        out.append(
            ConnectedRelativeData(
                genus=comp.genus, cls=cls, absolute=comp.absolute, relative=tuple(rel)
            )
        )
    return RelativeData(tuple(out))


# ---------------------------------------------------------------------------
# bubble data and gluing


@dataclass(frozen=True)
class RPlusComponent:
    """One connected bubble component of the self-degeneration piece."""

    genus: int
    cls: tuple
    absolute: tuple = ()
    infinity: tuple = ()  # markings matching the host datum (dual form)
    zero: tuple = ()  # markings surviving into the glued datum

    def __post_init__(self):
        object.__setattr__(self, "cls", tuple(Rational(c) for c in self.cls))
        object.__setattr__(self, "absolute", tuple(sorted(self.absolute, key=lambda m: m.sort_key())))
        object.__setattr__(self, "infinity", tuple(sorted(self.infinity, key=lambda m: m.sort_key())))
        object.__setattr__(self, "zero", tuple(sorted(self.zero, key=lambda m: m.sort_key())))


def _is_fiber_pattern(comp: RPlusComponent) -> bool:
    return (
        comp.genus == 0
        and not comp.absolute
        and len(comp.infinity) == 1
        and len(comp.zero) == 1
    )


def is_pre_minimal(model: FormalPairModel, comp: RPlusComponent) -> bool:
    """Fiber-pattern component with matched ends and fiber class."""
    if not _is_fiber_pattern(comp):
        return False
    inf, zero = comp.infinity[0], comp.zero[0]
    u = inf.contact
    fiber = tuple(u * x for x in model.fz_class)
    return (
        zero.sector == model.bar_z(inf.sector)
        and zero.contact == u
        and comp.cls == fiber
    )


def is_minimal(model: FormalPairModel, comp: RPlusComponent) -> bool:
    """Pre-minimal with dual insertions at the two ends."""
    if not is_pre_minimal(model, comp):
        return False
    inf, zero = comp.infinity[0], comp.zero[0]
    return zero.j == inf.j and zero.ell == inf.ell


def _validate_infinity_marking(model: FormalPairModel, m: RelativeMarking):
    # an infinity marking matches a host marking dually: equal contact order
    # at the inverse sector, so its contact fraction is the declared phase of
    # the partner sector, not its own
    z = model.z_sector(m.sector)
    if m.contact <= 0 or frac(m.contact) != frac(-z.phase):
        raise DomainError(
            f"contact order {format_rational(m.contact)} has the wrong phase for an "
            f"infinity marking on {m.sector!r}"
        )
    if not 1 <= m.j <= model.sigma_size(z.pi):
        raise DomainError(f"basis index {m.j} outside the basis of {z.pi!r}")
    if not 0 <= m.ell <= model.ell_max(m.sector):
        raise DomainError(f"H-power {m.ell} outside [0, {model.ell_max(m.sector)}] on {m.sector!r}")


def _validate_rplus_component(model: FormalPairModel, comp: RPlusComponent):
    if comp.genus < 0:
        raise DomainError("bubble component genus must be nonnegative")
    if len(comp.cls) != model.rank:
        raise DomainError("bubble component class has the wrong lattice rank")
    for m in comp.infinity:
        _validate_infinity_marking(model, m)
    for m in comp.zero:
        model.validate_relative_marking(m)
    flux = sum((m.contact for m in comp.zero), Rational(0)) - sum(
        (m.contact for m in comp.infinity), Rational(0)
    )
    if flux < 0:
        raise DomainError(
            "bubble component decreases contact (its horizontal class would be anti-effective)"
        )
    if model.zp(comp.cls) != flux:
        raise DomainError(
            "bubble component class pairing does not equal its contact flux "
            f"({format_rational(model.zp(comp.cls))} vs {format_rational(flux)})"
        )
    if _is_fiber_pattern(comp) and not is_pre_minimal(model, comp):
        raise DomainError(
            "a genus-zero two-point bubble component must have matched ends and fiber class"
        )


def n_minimal_companion(rd: RelativeData) -> NMinimalData:
    """The minimal bubble datum gluing ``rd`` to itself: one component per
    divisor marking, markings duplicated dually at the two ends.  Empty when
    the datum has no divisor markings."""
    return NMinimalData(tuple(rd.relative_markings()))


def companion_rplus(model: FormalPairModel, companion: NMinimalData) -> list[RPlusComponent]:
    """Realize a minimal bubble datum as gluable components."""
    comps = []
    for m in companion.components:
        fiber = tuple(m.contact * x for x in model.fz_class)
        comps.append(
            RPlusComponent(
                genus=0,
                cls=fiber,
                infinity=(model.dual_marking(m),),
                zero=(m,),
            )
        )
    return comps


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _glue_tagged(model, rd_comps, blocks):
    """Glue with explicit matching: blocks carry (comp_index, marking) tags.

    Each tag consumes one divisor marking of the named host component; the
    block's infinity slot for it is the dual marking.  Returns the glued
    RelativeData.
    """
    nodes = [("r", i) for i in range(len(rd_comps))] + [("b", k) for k in range(len(blocks))]
    uf = _UnionFind(nodes)
    for k, block in enumerate(blocks):
        for ci, _m in block["tags"]:
            uf.union(("r", ci), ("b", k))
    groups: dict = {}
    for node in nodes:
        groups.setdefault(uf.find(node), []).append(node)
    glued = []
    for members in groups.values():
        n_edges = sum(len(blocks[k]["tags"]) for kind, k in members if kind == "b")
        b1 = n_edges - len(members) + 1
        genus = b1
        cls = tuple(Rational(0) for _ in range(model.rank))
        absolute = []
        relative = []
        for kind, idx in members:
            if kind == "r":
                comp = rd_comps[idx]
                genus += comp.genus
                cls = tuple(a + b for a, b in zip(cls, comp.cls))
                absolute.extend(comp.absolute)
            else:
                block = blocks[idx]
                genus += block["genus"]
                cls = tuple(a + b for a, b in zip(cls, block["cls"]))
                absolute.extend(block["absolute"])
                relative.extend(block["zero"])
        glued.append(
            ConnectedRelativeData(genus=genus, cls=cls, absolute=tuple(absolute), relative=tuple(relative))
        )
    return RelativeData(tuple(glued))


def glue(model: FormalPairModel, rd: RelativeData, rplus) -> RelativeData:
    """Apply a bubble datum to a relative datum along matched markings.

    Every divisor marking of ``rd`` must be matched, dually, by exactly one
    infinity marking across ``rplus``; the glued datum's divisor markings
    are the bubble's zero markings.  When equal markings occur on several
    host components the matching is resolved in canonical order (this can
    only matter for the graph genus of exotic multi-edge gluings).
    """
    model.validate_relative_data(rd)
    rplus = list(rplus)
    for comp in rplus:
        _validate_rplus_component(model, comp)
    pool: dict = {}
    for ci, comp in enumerate(rd.components):
        for m in comp.relative:
            pool.setdefault(model.dual_marking(m), []).append((ci, m))
    for slots in pool.values():
        slots.sort()
    blocks = []
    for comp in rplus:
        tags = []
        for m in comp.infinity:
            slots = pool.get(m)
            if not slots:
                raise DomainError(f"unmatched bubble marking {m} (no dual host marking left)")
            tags.append(slots.pop(0))
        blocks.append(
            {
                "genus": comp.genus,
                "cls": comp.cls,
                "absolute": comp.absolute,
                "zero": comp.zero,
                "tags": tags,
            }
        )
    leftovers = [m for slots in pool.values() for m in slots]
    if leftovers:
        raise DomainError(f"{len(leftovers)} host divisor marking(s) left unmatched by the bubble datum")
    return _glue_tagged(model, rd.components, blocks)


# ---------------------------------------------------------------------------
# the partial order


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _unit_pairing_vector(model: FormalPairModel):
    norm = sum((z * z for z in model.z_pairing), Rational(0))
    return tuple(z / norm for z in model.z_pairing)


@dataclass
class _CellPlan:
    """A constructible bubble arrangement for one target component."""

    blocks: list  # dicts with keys: tags, zero, genus, absolute, cls
    all_pre_minimal: bool
    all_minimal: bool


def _cell_plans(model, comps1, p_indices, c2comp, want):
    """Enumerate bubble arrangements gluing the host components ``p_indices``
    into ``c2comp``.  Yields _CellPlan objects; ``want`` selects early exit
    ("summary" mode collects capability flags only)."""
    P = [comps1[i] for i in p_indices]
    # components without divisor markings cannot attach to anything
    if any(not p.relative for p in P):
        if len(P) == 1 and P[0] == c2comp:
            yield _CellPlan(blocks=[], all_pre_minimal=True, all_minimal=True)
        return
    if not P:
        # one standalone block carrying the whole target component
        if want == "all_a":
            return
        block = {
            "tags": [],
            "zero": list(c2comp.relative),
            "genus": c2comp.genus,
            "absolute": list(c2comp.absolute),
            "cls": c2comp.cls,
        }
        yield _CellPlan(blocks=[block], all_pre_minimal=False, all_minimal=False)
        return

    abs_host = Counter(m for p in P for m in p.absolute)
    abs_target = Counter(c2comp.absolute)
    if abs_host - abs_target:
        return
    abs_extra = list((abs_target - abs_host).elements())
    base_genus = sum(p.genus for p in P)
    cls_p = [sum(col) for col in zip(*(p.cls for p in P))]
    T = tuple(a - b for a, b in zip(c2comp.cls, cls_p))
    tagged = [(i, m) for i in p_indices for m in comps1[i].relative]
    zeros = list(c2comp.relative)
    unit = _unit_pairing_vector(model)
    zero_fz = all(x == 0 for x in model.fz_class)

    for partition in _set_partitions(tagged):
        q = len(partition)
        uf = _UnionFind([("r", i) for i in p_indices] + [("b", k) for k in range(q)])
        for k, block in enumerate(partition):
            for ci, _m in block:
                uf.union(("r", ci), ("b", k))
        roots = {uf.find(("r", i)) for i in p_indices} | {uf.find(("b", k)) for k in range(q)}
        if len(roots) != 1:
            continue
        b1 = len(tagged) - (len(p_indices) + q) + 1
        slack = c2comp.genus - base_genus - b1
        if slack < 0:
            continue
        for assign in product(range(q), repeat=len(zeros)):
            block_zeros = [[] for _ in range(q)]
            for z_idx, k in enumerate(assign):
                block_zeros[k].append(zeros[z_idx])
            # every block must weakly increase contact (effectivity cone)
            fluxes = [
                sum((z.contact for z in block_zeros[k]), Rational(0))
                - sum((m.contact for _ci, m in partition[k]), Rational(0))
                for k in range(q)
            ]
            if any(fx < 0 for fx in fluxes):
                continue
            # classify the (1 inf, 1 zero) blocks
            matched = [None] * q  # True/False for one-one blocks, None otherwise
            for k in range(q):
                if len(partition[k]) == 1 and len(block_zeros[k]) == 1:
                    (ci, src), z = partition[k][0], block_zeros[k][0]
                    matched[k] = z.sector == src.sector and z.contact == src.contact
            num_mm = sum(1 for x in matched if x is False)
            others = [k for k in range(q) if matched[k] is None]
            resources = slack + len(abs_extra)
            with_b_possible = bool(others or abs_extra or slack > 0) and num_mm <= resources
            # fiber classes of clean matched blocks
            fiber_total = tuple(Rational(0) for _ in range(model.rank))
            if not zero_fz:
                for k in range(q):
                    if matched[k] is True:
                        u = partition[k][0][1].contact
                        fiber_total = tuple(
                            a + u * x for a, x in zip(fiber_total, model.fz_class)
                        )
            all_a_possible = (
                not others
                and num_mm == 0
                and not abs_extra
                and slack == 0
                and T == fiber_total
            )
            if not (with_b_possible or all_a_possible):
                continue
            if want == "summary":
                all_min = all_a_possible and all(
                    block_zeros[k][0].j == partition[k][0][1].j
                    and block_zeros[k][0].ell == partition[k][0][1].ell
                    for k in range(q)
                )
                yield _CellPlan(blocks=[], all_pre_minimal=all_a_possible, all_minimal=all_min)
                continue
            if want == "all_a":
                if not all_a_possible:
                    continue
                blocks = []
                all_min = True
                for k in range(q):
                    (ci, src) = partition[k][0]
                    u = src.contact
                    z = block_zeros[k][0]
                    all_min = all_min and z.j == src.j and z.ell == src.ell
                    blocks.append(
                        {
                            "tags": list(partition[k]),
                            "zero": block_zeros[k],
                            "genus": 0,
                            "absolute": [],
                            "cls": tuple(u * x for x in model.fz_class),
                        }
                    )
                yield _CellPlan(blocks=blocks, all_pre_minimal=True, all_minimal=all_min)
                continue
            # want == "with_b": build a concrete arrangement with >= 1 free block
            if not with_b_possible:
                continue
            genus_extra = [0] * q
            abs_assign = [[] for _ in range(q)]
            slack_left = slack
            abs_left = list(abs_extra)
            ok = True
            for k in range(q):
                if matched[k] is False:
                    if slack_left > 0:
                        genus_extra[k] += 1
                        slack_left -= 1
                    elif abs_left:
                        abs_assign[k].append(abs_left.pop())
                    else:
                        ok = False
                        break
            if not ok:
                continue
            free = [
                k
                for k in range(q)
                if matched[k] is None
                or matched[k] is False
                or genus_extra[k]
                or abs_assign[k]
            ]
            if not free:
                # promote one matched block by giving it the leftovers
                if slack_left > 0:
                    genus_extra[0] += 1
                    slack_left -= 1
                elif abs_left:
                    abs_assign[0].append(abs_left.pop())
                else:
                    continue
                free = [0]
            sink = free[0]
            genus_extra[sink] += slack_left
            abs_assign[sink].extend(abs_left)
            blocks = []
            classes = []
            for k in range(q):
                is_free = k in free
                if is_free:
                    cls = tuple(fluxes[k] * x for x in unit)
                else:
                    u = partition[k][0][1].contact
                    cls = tuple(u * x for x in model.fz_class)
                classes.append(list(cls))
            remainder = [t - sum(col) for t, col in zip(T, zip(*classes))]
            classes[sink] = [c + r for c, r in zip(classes[sink], remainder)]
            for k in range(q):
                blocks.append(
                    {
                        "tags": list(partition[k]),
                        "zero": block_zeros[k],
                        "genus": genus_extra[k],
                        "absolute": abs_assign[k],
                        "cls": tuple(classes[k]),
                    }
                )
            yield _CellPlan(blocks=blocks, all_pre_minimal=False, all_minimal=False)


def _cell_summary(model, comps1, p_indices, c2comp):
    has_any = has_b = all_a = all_a_min = False
    for plan in _cell_plans(model, comps1, p_indices, c2comp, "summary"):
        has_any = True
        if plan.all_pre_minimal:
            all_a = True
            all_a_min = all_a_min or plan.all_minimal
        else:
            has_b = True
        if has_b and all_a_min:
            break
    return has_any, has_b, all_a, all_a_min


def find_precedence_witness(
    model: FormalPairModel,
    rd1: RelativeData,
    rd2: RelativeData,
    *,
    max_components: int = DEFAULT_MAX_COMPONENTS,
):
    """Search for a bubble datum gluing ``rd1`` into ``rd2``.

    Returns the witness components (possibly the empty list when the two
    data agree marking-free), or None when no witness exists.  The search
    is complete over the formal witness space described in the module
    docstring; condition (P2) rejects witnesses that are pre-minimal
    without being minimal.
    """
    model.validate_relative_data(rd1)
    model.validate_relative_data(rd2)
    return _search(model, rd1, rd2, max_components)


def _search(model, rd1, rd2, max_components):
    """The witness search of ``find_precedence_witness`` on validated data."""
    comps1, comps2 = rd1.components, rd2.components
    bound = len(rd1.relative_markings()) + len(comps2)
    if bound > max_components:
        raise SearchLimitError(
            f"comparison would need up to {bound} bubble components (cap {max_components})"
        )
    if sum(c.genus for c in comps1) > sum(c.genus for c in comps2):
        return None
    if Counter(m for c in comps1 for m in c.absolute) - Counter(
        m for c in comps2 for m in c.absolute
    ):
        return None
    if comps1 and not comps2:
        return None

    for f in product(range(len(comps2)), repeat=len(comps1)):
        preimages = [[] for _ in comps2]
        for i, target in enumerate(f):
            preimages[target].append(i)
        summaries = []
        feasible = True
        for c2_idx, comp2 in enumerate(comps2):
            s = _cell_summary(model, comps1, preimages[c2_idx], comp2)
            if not s[0]:
                feasible = False
                break
            summaries.append(s)
        if not feasible:
            continue
        any_b = any(s[1] for s in summaries)
        if not (any_b or all(s[3] for s in summaries)):
            continue
        # construct: if a free block exists anywhere, prefer free arrangements
        # (condition (P2) is then vacuous); otherwise build the all-minimal witness
        witness_blocks = []
        ok = True
        for c2_idx, comp2 in enumerate(comps2):
            _has_any, has_b, _all_a, _all_a_min = summaries[c2_idx]
            mode_order = ["with_b", "all_a"] if (any_b and has_b) else ["all_a"]
            plan = None
            for mode in mode_order:
                for cand in _cell_plans(model, comps1, preimages[c2_idx], comp2, mode):
                    if mode == "all_a" and not any_b and not cand.all_minimal:
                        continue
                    plan = cand
                    break
                if plan is not None:
                    break
            if plan is None:
                ok = False
                break
            witness_blocks.extend(plan.blocks)
        if not ok:
            continue
        glued = _glue_tagged(model, comps1, witness_blocks)
        if glued != rd2:
            raise AssertionError("constructed witness does not reproduce the target datum")
        witness = [
            RPlusComponent(
                genus=b["genus"],
                cls=b["cls"],
                absolute=tuple(b["absolute"]),
                infinity=tuple(model.dual_marking(m) for _ci, m in b["tags"]),
                zero=tuple(b["zero"]),
            )
            for b in witness_blocks
        ]
        for comp in witness:
            _validate_rplus_component(model, comp)
        return witness
    return None


def precedes(
    model: FormalPairModel,
    rd1: RelativeData,
    rd2: RelativeData,
    *,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> bool:
    """Whether ``rd1`` precedes ``rd2`` in the degeneration partial order."""
    return (
        find_precedence_witness(model, rd1, rd2, max_components=max_components) is not None
    )


# ---------------------------------------------------------------------------
# linear extension and the transfer matrix


def comparison_matrix(
    model: FormalPairModel, data, *, max_components: int = DEFAULT_MAX_COMPONENTS
) -> list[list[bool]]:
    """The strict order on ``data`` as an n x n matrix: ``[i][j]`` is True
    when ``data[i]`` precedes ``data[j]`` and the two differ.

    Validates each datum once, in input order, then searches each ordered
    pair of distinct data once, row by row; so an invalid datum raises
    before any search, and a pair over the cap raises SearchLimitError.
    """
    items = list(data)
    for rd in items:
        model.validate_relative_data(rd)
    return [
        [a != b and _search(model, a, b, max_components) is not None for b in items]
        for a in items
    ]


def order_from_matrix(items, strict) -> list[int]:
    """The linear extension of ``linear_extension_order`` for a strict
    comparison matrix of ``items`` (as from ``comparison_matrix``).

    Package-internal, shared with the CLI, which also reports the matrix;
    not exported.
    """
    remaining = set(range(len(items)))
    order = []
    while remaining:
        ready = [
            i
            for i in remaining
            if not any(j in remaining and strict[j][i] for j in remaining if j != i)
        ]
        if not ready:
            raise PosetCycleError("comparison relation contains a cycle")
        pick = min(ready, key=lambda i: (items[i].sort_key(), i))
        order.append(pick)
        remaining.remove(pick)
    return order


def linear_extension_order(
    model: FormalPairModel, data, *, max_components: int = DEFAULT_MAX_COMPONENTS
) -> list[int]:
    """Indices of ``data`` in a deterministic linear extension of the order.

    Strict predecessors always come first; ties break on the canonical
    structural key, then on input position.  Raises PosetCycleError if the
    comparison relation is cyclic (which would signal an ordering bug).
    """
    items = list(data)
    return order_from_matrix(items, comparison_matrix(model, items, max_components=max_components))


def linear_extension(
    model: FormalPairModel, data, *, max_components: int = DEFAULT_MAX_COMPONENTS
):
    """The data themselves, reordered by ``linear_extension_order``."""
    items = list(data)
    return [items[i] for i in linear_extension_order(model, items, max_components=max_components)]


def default_coeff_rule(rd: RelativeData):
    """Default gluing coefficient: the product of contact orders (1 if none)."""
    out = Rational(1)
    for m in rd.relative_markings():
        out *= m.contact
    return out


def assemble_L(
    model: FormalPairModel,
    basis,
    offdiag=None,
    coeff_rule=None,
    *,
    max_components: int = DEFAULT_MAX_COMPONENTS,
):
    """Assemble the transfer matrix over an ordered basis of relative data.

    Diagonal entries multiply the gluing coefficient of the basis datum by
    the closed-form invariant of each component of its minimal companion;
    off-diagonal entries are supplied (they are inputs, not computable from
    the model) and are admitted only at strictly preceding (row, column)
    pairs.  The strict upper triangle is identically zero.
    """
    basis = list(basis)
    rule = coeff_rule if coeff_rule is not None else default_coeff_rule
    n = len(basis)
    L = [[Rational(0)] * n for _ in range(n)]
    for idx, rd in enumerate(basis):
        model.validate_relative_data(rd)
        value = Rational(rule(rd))
        for m in n_minimal_companion(rd).components:
            local = model.z_sector(m.sector).local_model
            c = rk_tilde(local, m.contact, m.ell) - 1
            value *= relative_invariant(local, ProperInsertionPair(c=c, i=m.j, j=m.j))
        if value == 0:
            raise TriangularError(f"zero diagonal entry at basis position {idx}")
        L[idx][idx] = value
    for (row, col), entry in (offdiag or {}).items():
        if not (0 <= col < n and 0 <= row < n):
            raise TriangularError(f"off-diagonal position ({row}, {col}) out of range")
        if col >= row:
            raise TriangularError(
                f"off-diagonal entry at ({row}, {col}) is not strictly below the diagonal"
            )
        if basis[col] == basis[row] or not precedes(
            model, basis[col], basis[row], max_components=max_components
        ):
            raise TriangularError(
                f"off-diagonal entry at ({row}, {col}) supplied for a non-preceding pair"
            )
        L[row][col] = Rational(entry)
    return L


def solve_lower_triangular(L, v):
    """Exact forward substitution for a lower-triangular system."""
    n = len(L)
    if any(len(row) != n for row in L):
        raise TriangularError("matrix is not square")
    if len(v) != n:
        raise TriangularError(f"vector length {len(v)} does not match matrix size {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if Rational(L[i][j]) != 0:
                raise TriangularError(f"nonzero entry above the diagonal at ({i}, {j})")
        if Rational(L[i][i]) == 0:
            raise TriangularError(f"zero diagonal entry at position {i}")
    x = [Rational(0)] * n
    for i in range(n):
        acc = Rational(v[i])
        for j in range(i):
            acc -= Rational(L[i][j]) * x[j]
        x[i] = acc / Rational(L[i][i])
    return x
