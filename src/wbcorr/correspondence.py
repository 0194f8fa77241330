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

The witness search
------------------
A search tries each map from host components to target components.  A map
splits the problem into cells: the hosts sent to one target component,
glued into it by bubble blocks.  One pass over a cell's arrangements
(partitions of the host markings into blocks, then assignments of the
target markings to blocks) records the first arrangement of each kind the
search can use: one with a free block, one of pre-minimal blocks only, and
one of minimal blocks only.  The pass reads contacts as integers over the
cell's common denominator; classes, as ``Fraction`` vectors, are written
only when the chosen arrangements are built into a witness.  A cell record
depends only on the content of its components, so ``comparison_matrix``
keeps one memo of records for the searches of its call; nothing is cached
across calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

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


class _Arrangement(NamedTuple):
    """Bubble blocks of one cell: ``parts[k]`` lists the positions (in the
    cell's host-marking list) of block k's infinity tags, and ``assign[z]``
    is the block that takes the cell's z-th zero marking."""

    parts: tuple
    assign: tuple


class _CellRecord(NamedTuple):
    """The first arrangement of a cell of each kind the search can use, or
    None: with at least one free block, all pre-minimal, all minimal."""

    with_b: _Arrangement | None
    pre_minimal: _Arrangement | None
    minimal: _Arrangement | None


_NO_BLOCKS = _Arrangement((), ())


def _host_tags(P):
    """The cell's host divisor markings as (position in ``P``, marking)."""
    return [(pos, m) for pos, p in enumerate(P) for m in p.relative]


def _class_gap(P, c2comp):
    """The class the blocks of a cell must supply: target minus hosts."""
    return tuple(c - sum(p.cls[i] for p in P) for i, c in enumerate(c2comp.cls))


def _cell_record(model, P, c2comp) -> _CellRecord:
    """Enumerate, in one pass, the bubble arrangements gluing the host
    components ``P`` (a tuple, in host order) into the target component
    ``c2comp``, and record the first of each kind.

    Arrangements run over set partitions of the host markings into blocks,
    then over assignments of the target markings to blocks, in a fixed
    order.  Contacts are integers over the cell's common denominator, so the
    effectivity test never builds a ``Fraction``.  Stops at the first free
    or the first all-minimal arrangement, since a cell never has both: an
    all-pre-minimal arrangement exists only at the all-singleton partition
    of a single host with slack 0, where every block needs exactly one zero
    marking, so no block is free; every coarser partition has slack < 0.
    """
    # components without divisor markings cannot attach to anything
    if any(not p.relative for p in P):
        if len(P) == 1 and P[0] == c2comp:
            return _CellRecord(None, _NO_BLOCKS, _NO_BLOCKS)
        return _CellRecord(None, None, None)
    zeros = c2comp.relative
    if not P:
        # one standalone block carrying the whole target component
        return _CellRecord(_Arrangement(((),), (0,) * len(zeros)), None, None)

    abs_host = Counter(m for p in P for m in p.absolute)
    abs_target = Counter(c2comp.absolute)
    if abs_host - abs_target:
        return _CellRecord(None, None, None)
    n_abs_extra = (abs_target - abs_host).total()
    base_genus = sum(p.genus for p in P)
    tags = _host_tags(P)
    # contacts as integers over one common denominator
    contacts = [m.contact for _, m in tags] + [m.contact for m in zeros]
    denom = math.lcm(*(c.denominator for c in contacts))
    scaled = [c.numerator * (denom // c.denominator) for c in contacts]
    tag_int, zero_int = scaled[: len(tags)], scaled[len(tags) :]
    tag_bit = [1 << pos for pos, _ in tags]
    everyone = (1 << len(P)) - 1
    n_zeros = len(zeros)
    fiber_fits = None  # whether the class gap is the fiber class of all tags

    with_b = pre_minimal = minimal = None
    for parts in _set_partitions(list(range(len(tags)))):
        q = len(parts)
        # the hosts and blocks must form one connected component: grow the
        # set of hosts reached from the first block, one block at a time
        hosts = [sum({tag_bit[t] for t in part}) for part in parts]  # bit masks
        reach, grown = hosts[0], True
        while grown:
            grown = False
            for bits in hosts:
                if bits & reach and bits | reach != reach:
                    reach, grown = reach | bits, True
        if reach != everyone:
            continue
        b1 = len(tags) - (len(P) + q) + 1
        slack = c2comp.genus - base_genus - b1
        if slack < 0:
            continue
        resources = slack + n_abs_extra
        inf_sums = [-sum(tag_int[t] for t in part) for part in parts]
        singles = [len(part) == 1 for part in parts]
        for assign in product(range(q), repeat=n_zeros):
            flux = inf_sums[:]
            for z, k in enumerate(assign):
                flux[k] += zero_int[z]
            # every block must weakly increase contact (effectivity cone)
            if min(flux) < 0:
                continue
            # classify the (1 inf, 1 zero) blocks
            others = num_mm = 0
            dual = True
            for k in range(q):
                if not singles[k] or assign.count(k) != 1:
                    others += 1
                    continue
                t, z = parts[k][0], assign.index(k)
                src, zm = tags[t][1], zeros[z]
                if zero_int[z] != tag_int[t] or zm.sector != src.sector:
                    num_mm += 1
                elif zm.j != src.j or zm.ell != src.ell:
                    dual = False
            if with_b is None and (others or resources) and num_mm <= resources:
                with_b = _Arrangement(parts, assign)
            if (
                minimal is None
                and (dual or pre_minimal is None)
                and not (others or num_mm or resources)
            ):
                if fiber_fits is None:
                    total = sum((m.contact for _, m in tags), Rational(0))
                    fiber_fits = _class_gap(P, c2comp) == tuple(total * x for x in model.fz_class)
                if fiber_fits:
                    if pre_minimal is None:
                        pre_minimal = _Arrangement(parts, assign)
                    if dual:
                        minimal = _Arrangement(parts, assign)
            if with_b is not None or minimal is not None:
                return _CellRecord(with_b, pre_minimal, minimal)
    return _CellRecord(with_b, pre_minimal, minimal)


def _cell_blocks(model, comps1, p_indices, c2comp, arrangement, free):
    """Build the bubble blocks of one cell arrangement (dicts with keys
    tags, zero, genus, absolute, cls; tags name host indices).  With
    ``free`` the arrangement is a free one of ``_cell_record``, and classes,
    genera and extra ambient markings are spread over its blocks; otherwise
    every block is pre-minimal and carries its fiber class."""
    P = [comps1[i] for i in p_indices]
    tags = [(p_indices[pos], m) for pos, m in _host_tags(P)]
    parts = [[tags[t] for t in part] for part in arrangement.parts]
    block_zeros = [[] for _ in parts]
    for z, k in zip(c2comp.relative, arrangement.assign):
        block_zeros[k].append(z)
    if not free:
        return [
            {
                "tags": part,
                "zero": zeros,
                "genus": 0,
                "absolute": [],
                "cls": tuple(part[0][1].contact * x for x in model.fz_class),
            }
            for part, zeros in zip(parts, block_zeros)
        ]
    q = len(parts)
    b1 = len(tags) - (len(P) + q) + 1
    slack_left = c2comp.genus - sum(p.genus for p in P) - b1
    abs_host = Counter(m for p in P for m in p.absolute)
    abs_left = list((Counter(c2comp.absolute) - abs_host).elements())
    # True/False for one-one blocks (matched ends or not), None otherwise
    matched = [
        zeros[0].sector == part[0][1].sector and zeros[0].contact == part[0][1].contact
        if len(part) == 1 and len(zeros) == 1
        else None
        for part, zeros in zip(parts, block_zeros)
    ]
    genus_extra = [0] * q
    abs_assign = [[] for _ in range(q)]
    for k in range(q):
        # a mismatched one-one block needs genus or an ambient marking
        if matched[k] is False:
            if slack_left > 0:
                genus_extra[k] += 1
                slack_left -= 1
            else:
                abs_assign[k].append(abs_left.pop())
    free_blocks = [k for k in range(q) if not matched[k] or genus_extra[k] or abs_assign[k]]
    if not free_blocks:
        # promote one matched block by giving it the leftovers
        if slack_left > 0:
            genus_extra[0] += 1
            slack_left -= 1
        else:
            abs_assign[0].append(abs_left.pop())
        free_blocks = [0]
    sink = free_blocks[0]
    genus_extra[sink] += slack_left
    abs_assign[sink].extend(abs_left)
    classes = []
    for k in range(q):
        if k in free_blocks:
            flux = sum((z.contact for z in block_zeros[k]), Rational(0)) - sum(
                (m.contact for _ci, m in parts[k]), Rational(0)
            )
            classes.append([flux * x for x in model.unit_pairing])
        else:
            classes.append([parts[k][0][1].contact * x for x in model.fz_class])
    remainder = [t - sum(col) for t, col in zip(_class_gap(P, c2comp), zip(*classes))]
    classes[sink] = [c + r for c, r in zip(classes[sink], remainder)]
    return [
        {
            "tags": parts[k],
            "zero": block_zeros[k],
            "genus": genus_extra[k],
            "absolute": abs_assign[k],
            "cls": tuple(classes[k]),
        }
        for k in range(q)
    ]


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


def _search(model, rd1, rd2, max_components, memo=None):
    """The witness search of ``find_precedence_witness`` on validated data.

    ``memo``, when given, is ``(records, keys1, keys2)``: a dict of cell
    records shared by the searches of one request, and the components of
    ``rd1`` and ``rd2`` interned to small ints by content (see
    ``comparison_matrix``).
    """
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
        records = []
        for c2_idx, (hosts, comp2) in enumerate(zip(preimages, comps2)):
            if memo is None:
                rec = _cell_record(model, tuple(comps1[i] for i in hosts), comp2)
            else:
                cells, keys1, keys2 = memo
                key = (tuple(keys1[i] for i in hosts), keys2[c2_idx])
                rec = cells.get(key)
                if rec is None:
                    rec = cells[key] = _cell_record(model, tuple(comps1[i] for i in hosts), comp2)
            if rec.with_b is None and rec.pre_minimal is None:
                break
            records.append(rec)
        if len(records) < len(comps2):
            continue
        any_b = any(rec.with_b is not None for rec in records)
        if not (any_b or all(rec.minimal is not None for rec in records)):
            continue
        # construct: if a free block exists anywhere, prefer free arrangements
        # (condition (P2) is then vacuous); otherwise build the all-minimal witness
        witness_blocks = []
        for hosts, comp2, rec in zip(preimages, comps2, records):
            free = any_b and rec.with_b is not None
            arrangement = rec.with_b if free else rec.pre_minimal if any_b else rec.minimal
            witness_blocks += _cell_blocks(model, comps1, hosts, comp2, arrangement, free)
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
    The searches share one memo of cell records, which lives as long as
    this call; components are interned by content once, up front.
    """
    items = list(data)
    for rd in items:
        model.validate_relative_data(rd)
    ids: dict = {}
    keys = [tuple(ids.setdefault(c, len(ids)) for c in rd.components) for rd in items]
    cells: dict = {}
    return [
        [
            a != b and _search(model, a, b, max_components, (cells, ka, kb)) is not None
            for b, kb in zip(items, keys)
        ]
        for a, ka in zip(items, keys)
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
