"""Data correspondence, degeneration order, and the triangular transfer system.

The pieces, all exact and deterministic:

* ``psi_forward`` / ``psi_inverse``: the correspondence between relative
  data of the blown-up pair and absolute data downstairs with
  base-supported descendent markings: an injection in codimension 1, and
  otherwise a bijection onto the data whose labels carry a phase of a
  divisor sector over their base sector.
* ``glue``: the formal gluing evaluator applying a bubble datum (a list of
  ``RPlusComponent``, each with its host matching) to a relative datum
  along matched divisor markings.
* ``n_minimal_companion``: the unique minimal bubble datum of a datum, one
  fiber block per divisor marking; ``companion_rplus`` matches each block
  to its marking, and so glues the datum to itself.
* ``precedes``: the one-step degeneration relation (some bubble datum
  glues one datum into the other), decided by a bounded complete search
  over bubble witnesses.  It is reflexive and antisymmetric, but not a
  partial order: it is not transitive on some models.  The linear
  extension and the transfer matrix need only its strict part to have no
  cycle, which ``order_from_matrix`` checks.
* ``comparison_matrix``: the strict relation on a list of data, each datum
  validated once and each ordered pair decided at most once, without
  building a witness.
* ``linear_extension`` / ``assemble_L`` / ``solve_lower_triangular``: the
  poset-indexed lower-triangular transfer matrix and its exact solve.

Formal gluing semantics
-----------------------
A bubble component carries a genus, a class vector in the model lattice
(recording its pushed ambient class), ambient markings, markings at the
infinity divisor (which must be duals of the host datum's markings) and
markings at the zero divisor (which become the glued datum's markings).
The matching is part of the bubble datum: each component comes with the
host index of each infinity marking, and every host divisor marking must
meet exactly one dual infinity marking.  Gluing adds genera plus the first
Betti number of the matching graph, adds class vectors, and takes unions
of markings per connected component.

Three standing constraints make the search sound:

* flux: a component's zero-contact sum minus its infinity-contact sum must
  equal its class/divisor pairing;
* effectivity: that flux is nonnegative (with the declared orientation of
  the divisor pairing, a contact-decreasing component would carry an
  anti-effective horizontal class);
* fiber rigidity: a genus-zero component with no ambient markings and
  exactly one marking at each divisor must have matching sector and
  contact at the two ends and carry the zero class.  Such
  components are exactly the pre-minimal ones; a pre-minimal bubble datum
  glues without effect, and condition (P2) of the order demands it be
  minimal (dual insertions) whenever it is the whole witness.

The witness search
------------------
Before any search, each datum gets a signature: its number of divisor
markings, total genus, multiset of ambient markings, whether it is empty,
and total contact.  Gluing never lowers total genus, never removes an
ambient marking and never empties a datum.  Nor does it lower total
contact: each host divisor marking meets exactly one infinity marking of
equal contact, each target divisor marking is the zero marking of exactly
one block, so the change in total contact is the sum of the blocks'
fluxes, and effectivity makes each flux nonnegative.  A pair whose
signatures break one of these rules has no witness and is never searched;
the cap on bubble components is checked before that, so SearchLimitError
does not depend on it.  A comparer holds each total contact as an integer
over its data's common denominator, so these tests build no ``Fraction``.

A search tries each map from host components to target components.  A map
splits the problem into cells: the hosts sent to one target component,
glued into it by bubble blocks.  One pass over a cell's arrangements
(partitions of the host markings into blocks, then assignments of the
target markings to blocks) records the first arrangement of each kind the
search can use: one with a free block, one of pre-minimal blocks only, and
one of minimal blocks only.  The pass reads contacts as integers over the
cell's common denominator, and two integer tests can skip it.  The blocks'
fluxes sum to the cell's total flux, so a negative total leaves nothing to
find.  And the number q of blocks is bounded: q blocks partition the host
markings, each block needs a zero marking (its infinity contact is
positive), and the blocks' genus, the cell's genus slack plus q, must be
nonnegative.  The partitions come in a fixed order filtered to that range,
so the first arrangement of each kind is the one the unbounded pass would
record.  The search decides: it stops at the first map
whose cell records admit a witness, and builds nothing, so
``comparison_matrix`` decides every pair from cell records alone.  Only
``find_precedence_witness`` (and ``precedes`` through it) builds the
chosen arrangements into a witness, as ``RPlusComponent``s paired with the
host index of each infinity marking.  Each block starts as a fiber block,
as in ``companion_rplus``; in a free arrangement the blocks
``is_pre_minimal`` rejects take the cell budget the pass reads too (genus
slack and extra ambient markings) and a class of their ``Fraction`` flux.
The witness is checked through ``glue``, which validates each component.

A cell record depends only on content, so each search reads and fills a
memo of cell records.  Every search runs through a comparer over data
already validated, and the comparer holds one memo: one per
``find_precedence_witness`` or ``comparison_matrix`` call, which does not
outlive it.  ``assemble_L`` checks each off-diagonal pair with
``precedes``, so each such check has a memo of its own and builds its
witness.  The divisor markings that passed validation are kept longer, in
a set on their ``FormalPairModel``, so a marking is checked once per
model; one that fails is never recorded.
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
from .invariants import h_invariant
from .pair_model import (
    AbsoluteData,
    ConnectedAbsoluteData,
    ConnectedRelativeData,
    FormalPairModel,
    NMinimalData,
    RelativeData,
    RelativeMarking,
    SMarking,
    _Canonical,
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
    recovered contact-order sum.  Outside codimension 1, ``psi_forward`` is
    a bijection onto the data whose labels carry a phase of a divisor
    sector over their base sector, and this is its inverse there.

    Raises OutOfImageError when no divisor sector over ``t`` carries the
    phase ``{R}`` (a model may carry only some phases), or when the class
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
class RPlusComponent(_Canonical):
    """One connected bubble component of the self-degeneration piece, in the
    canonical form of ``pair_model._Canonical``.  Its genus is checked by
    validation against a model, not here."""

    genus: int
    cls: tuple
    absolute: tuple = ()
    infinity: tuple = ()  # markings matching the host datum (dual form)
    zero: tuple = ()  # markings surviving into the glued datum

    _markings = ("absolute", "infinity", "zero")


def _is_fiber_pattern(comp: RPlusComponent) -> bool:
    return (
        comp.genus == 0
        and not comp.absolute
        and len(comp.infinity) == 1
        and len(comp.zero) == 1
    )


def is_pre_minimal(model: FormalPairModel, comp: RPlusComponent) -> bool:
    """Fiber-pattern component with matched ends and the zero class."""
    if not _is_fiber_pattern(comp):
        return False
    inf, zero = comp.infinity[0], comp.zero[0]
    return (
        zero.sector == model.bar_z(inf.sector)
        and zero.contact == inf.contact
        and not any(comp.cls)
    )


def is_minimal(model: FormalPairModel, comp: RPlusComponent) -> bool:
    """Pre-minimal with dual insertions at the two ends."""
    if not is_pre_minimal(model, comp):
        return False
    inf, zero = comp.infinity[0], comp.zero[0]
    return zero.j == inf.j and zero.ell == inf.ell


def _flux(comp: RPlusComponent):
    """A component's zero-contact sum less its infinity-contact sum."""
    return sum((m.contact for m in comp.zero), Rational(0)) - sum(
        (m.contact for m in comp.infinity), Rational(0)
    )


def _validate_rplus_component(model: FormalPairModel, comp: RPlusComponent):
    if comp.genus < 0:
        raise DomainError("bubble component genus must be nonnegative")
    if len(comp.cls) != model.rank:
        raise DomainError("bubble component class has the wrong lattice rank")
    # an infinity marking matches a host marking dually, so it is valid
    # exactly when its dual is a valid divisor marking
    for m in comp.infinity:
        try:
            model.validate_relative_marking(model.dual_marking(m))
        except DomainError as exc:
            raise DomainError(f"infinity marking on {m.sector!r}: {exc}") from exc
    for m in comp.zero:
        model.validate_relative_marking(m)
    flux = _flux(comp)
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
    """The minimal bubble datum of ``rd``: one component per divisor
    marking, markings duplicated dually at the two ends.  Empty when the
    datum has no divisor markings.  ``companion_rplus`` realizes it as a
    witness matched to ``rd``, which glues ``rd`` to itself."""
    return NMinimalData(tuple(rd.relative_markings()))


def _fiber_block(model: FormalPairModel, host_markings, zero) -> RPlusComponent:
    """The genus-zero block of the zero class without ambient markings that
    meets ``host_markings`` dually at infinity and carries ``zero``."""
    infinity = [model.dual_marking(m) for m in host_markings]
    return RPlusComponent(0, [0] * model.rank, (), infinity, zero)


def companion_rplus(model: FormalPairModel, rd: RelativeData) -> list:
    """The minimal companion of ``rd`` as a witness for ``glue``: one
    ``(fiber block, (ci,))`` per divisor marking of component ``ci``."""
    comps = enumerate(rd.components)
    return [(_fiber_block(model, (m,), (m,)), (ci,)) for ci, c in comps for m in c.relative]


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


def glue(model: FormalPairModel, rd: RelativeData, witness) -> RelativeData:
    """Apply a bubble datum to a relative datum along an explicit matching.

    ``witness`` lists ``(component, hosts)`` pairs: ``hosts[i]`` is the
    index in ``rd.components`` of the host component whose divisor marking
    ``component.infinity[i]`` meets, in the component's canonical infinity
    order.  Every divisor marking of ``rd`` must be met, dually, by exactly
    one infinity marking on its own component; the glued datum's divisor
    markings are the bubble's zero markings.
    """
    model.validate_relative_data(rd)
    witness = [(comp, tuple(hosts)) for comp, hosts in witness]
    for comp, _ in witness:
        _validate_rplus_component(model, comp)
    n = len(rd.components)
    # each host marking left to meet, as its component and its dual
    hosted = [(ci, m) for ci, c in enumerate(rd.components) for m in c.relative]
    left = Counter((ci, model.dual_marking(m)) for ci, m in hosted)
    for comp, hosts in witness:
        if len(hosts) != len(comp.infinity):
            raise DomainError(f"{len(hosts)} host(s) for {len(comp.infinity)} infinity marking(s)")
        for m, ci in zip(comp.infinity, hosts):
            if not 0 <= ci < n:
                raise DomainError(f"host index {ci} out of range for {n} host component(s)")
            if not left[ci, m]:
                raise DomainError(f"unmatched bubble marking {m} (no dual host marking left)")
            left[ci, m] -= 1
    leftovers = left.total()
    if leftovers:
        raise DomainError(f"{leftovers} host divisor marking(s) left unmatched by the bubble datum")
    nodes = [("r", i) for i in range(n)] + [("b", k) for k in range(len(witness))]
    uf = _UnionFind(nodes)
    for k, (_, hosts) in enumerate(witness):
        for ci in hosts:
            uf.union(("r", ci), ("b", k))
    groups: dict = {}
    for node in nodes:
        groups.setdefault(uf.find(node), []).append(node)
    glued = []
    for members in groups.values():
        n_edges = sum(len(witness[k][1]) for kind, k in members if kind == "b")
        genus = n_edges - len(members) + 1  # first Betti number of the matching graph
        cls = tuple(Rational(0) for _ in range(model.rank))
        absolute = []
        relative = []
        for kind, idx in members:
            comp = rd.components[idx] if kind == "r" else witness[idx][0]
            genus += comp.genus
            cls = tuple(a + b for a, b in zip(cls, comp.cls))
            absolute.extend(comp.absolute)
            if kind == "b":
                relative.extend(comp.zero)
        glued.append(
            ConnectedRelativeData(genus=genus, cls=cls, absolute=tuple(absolute), relative=tuple(relative))
        )
    return RelativeData(tuple(glued))


# ---------------------------------------------------------------------------
# the degeneration order


def _set_partitions(items, lo, hi):
    """The partitions of ``items`` into q blocks with ``lo <= q <= hi``, in
    the order of the unbounded recursion."""
    if not items:
        if lo <= 0 <= hi:
            yield []
        return
    first, rest = items[0], items[1:]
    # a partition of the rest with b blocks gives one of b + 1 blocks, then b of b
    for part in _set_partitions(rest, lo - 1, hi):
        if len(part) < hi:
            yield [[first]] + part
        if len(part) >= lo:
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


def _cell_budget(P, c2comp):
    """``(slack0, extra)`` of hosts ``P`` glued into ``c2comp``, or None when
    the hosts carry an ambient marking the target lacks.  With q blocks the
    blocks' genus is ``slack0 + q`` (the target's genus less the hosts' and
    the matching graph's first Betti number); ``extra`` lists the target's
    ambient markings that no host carries."""
    n_tags = sum(len(p.relative) for p in P)
    slack0 = c2comp.genus - sum(p.genus for p in P) - n_tags + len(P) - 1
    if not any(p.absolute for p in P):
        return slack0, list(c2comp.absolute)
    abs_host = Counter(m for p in P for m in p.absolute)
    abs_target = Counter(c2comp.absolute)
    if abs_host - abs_target:
        return None
    return slack0, list((abs_target - abs_host).elements())


def _cell_record(model, P, c2comp) -> _CellRecord:
    """Enumerate, in one pass, the bubble arrangements gluing the host
    components ``P`` (a tuple, in host order) into the target component
    ``c2comp``, and record the first of each kind.

    Arrangements run over set partitions of the host markings into blocks,
    then over assignments of the target markings to blocks, in a fixed
    order.  Contacts are integers over the cell's common denominator, so the
    effectivity test never builds a ``Fraction``.  A cell with negative
    total flux or an empty block-count range is rejected before any
    partition, and only partitions within the range are read.  Stops at
    the first free or the first all-minimal arrangement, since a cell never
    has both: an all-pre-minimal arrangement exists only at the
    all-singleton partition of a single host with slack 0, where every
    block needs exactly one zero marking, so no block is free; every
    coarser partition has slack < 0.
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

    tags = _host_tags(P)
    # contacts as integers over one common denominator
    contacts = [m.contact for _, m in tags] + [m.contact for m in zeros]
    denom = math.lcm(*(c.denominator for c in contacts))
    scaled = [c.numerator * (denom // c.denominator) for c in contacts]
    tag_int, zero_int = scaled[: len(tags)], scaled[len(tags) :]
    # the blocks' fluxes sum to the total flux, and none may be negative
    if sum(zero_int) < sum(tag_int):
        return _CellRecord(None, None, None)
    budget = _cell_budget(P, c2comp)
    if budget is None:
        return _CellRecord(None, None, None)
    slack0, n_abs_extra = budget[0], len(budget[1])
    n_zeros = len(zeros)
    # q blocks partition the tags; each has positive infinity contact, so it
    # needs a zero marking, and the blocks' genus slack0 + q is nonnegative
    lo, hi = max(1, -slack0), min(len(tags), n_zeros)
    if lo > hi:
        return _CellRecord(None, None, None)
    tag_bit = [1 << pos for pos, _ in tags]
    everyone = (1 << len(P)) - 1
    gap_is_zero = None  # whether the hosts already carry the target class

    with_b = pre_minimal = minimal = None
    for parts in _set_partitions(list(range(len(tags))), lo, hi):
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
        resources = slack0 + q + n_abs_extra
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
                if gap_is_zero is None:
                    gap_is_zero = not any(_class_gap(P, c2comp))
                if gap_is_zero:
                    if pre_minimal is None:
                        pre_minimal = _Arrangement(parts, assign)
                    if dual:
                        minimal = _Arrangement(parts, assign)
            if with_b is not None or minimal is not None:
                return _CellRecord(with_b, pre_minimal, minimal)
    return _CellRecord(with_b, pre_minimal, minimal)


def _cell_blocks(model, comps1, p_indices, c2comp, arrangement, free):
    """Build the bubble blocks of one cell arrangement as ``(component,
    hosts)`` pairs for ``glue``.  Each block's tags are taken in the
    canonical order of their duals, so its hosts line up with its
    ``infinity``.  Every block starts as a fiber block, pre-minimal unless
    ``free``; in a free arrangement of ``_cell_record`` the blocks that are
    not pre-minimal (else block 0) take the cell's genus, extra ambient
    markings and class."""
    P = [comps1[i] for i in p_indices]
    tags = _host_tags(P)
    parts = [
        sorted(part, key=lambda t: model.dual_marking(tags[t][1]).sort_key())
        for part in arrangement.parts
    ]
    hosts = [tuple(p_indices[tags[t][0]] for t in part) for part in parts]
    block_zeros = [[] for _ in arrangement.parts]
    for z, k in zip(c2comp.relative, arrangement.assign):
        block_zeros[k].append(z)
    blocks = [
        _fiber_block(model, [tags[t][1] for t in part], zeros)
        for part, zeros in zip(parts, block_zeros)
    ]
    if not free:
        return list(zip(blocks, hosts))
    slack0, abs_left = _cell_budget(P, c2comp)
    slack_left = slack0 + len(blocks)
    pre_minimal = [is_pre_minimal(model, block) for block in blocks]
    genus_extra = [0] * len(blocks)
    abs_assign = [[] for _ in blocks]
    for k, block in enumerate(blocks):
        # a fiber-pattern block with mismatched ends needs genus or an ambient marking
        if _is_fiber_pattern(block) and not pre_minimal[k]:
            if slack_left > 0:
                genus_extra[k] += 1
                slack_left -= 1
            else:
                abs_assign[k].append(abs_left.pop())
    # if every block is pre-minimal, block 0 takes the leftovers a free arrangement has
    free_blocks = [k for k in range(len(blocks)) if not pre_minimal[k]] or [0]
    sink = free_blocks[0]
    genus_extra[sink] += slack_left
    abs_assign[sink].extend(abs_left)
    classes = [
        [_flux(block) * x for x in model.unit_pairing] if k in free_blocks else block.cls
        for k, block in enumerate(blocks)
    ]
    remainder = [t - sum(col) for t, col in zip(_class_gap(P, c2comp), zip(*classes))]
    classes[sink] = [c + r for c, r in zip(classes[sink], remainder)]
    blocks = [
        RPlusComponent(genus_extra[k], classes[k], abs_assign[k], block.infinity, block.zero)
        for k, block in enumerate(blocks)
    ]
    return list(zip(blocks, hosts))


def find_precedence_witness(
    model: FormalPairModel,
    rd1: RelativeData,
    rd2: RelativeData,
    *,
    max_components: int = DEFAULT_MAX_COMPONENTS,
):
    """Search for a bubble datum gluing ``rd1`` into ``rd2``.

    Returns the witness as ``glue`` takes it, a list of ``(component,
    hosts)`` pairs carrying the matching (the empty list when the two data
    agree marking-free), or None when no witness exists.  The search is
    complete over the formal witness space described in the module
    docstring; condition (P2) rejects witnesses that are pre-minimal
    without being minimal.  The witness is built from the search's
    decision and glued, which validates each component, and the result is
    checked against ``rd2``.
    """
    model.validate_relative_data(rd1)
    model.validate_relative_data(rd2)
    decision = _comparer(model, [rd1, rd2], max_components)(0, 1)
    return None if decision is None else _build_witness(model, rd1, rd2, *decision)


class _Signature(NamedTuple):
    """What the early exits of the order read from one datum."""

    markings: int  # divisor markings
    genus: int  # total genus
    ambient: Counter  # ambient markings
    nonempty: bool
    contact: int  # total contact, over the common denominator of the data compared


def _signatures(items) -> list[_Signature]:
    """The signatures of the data ``items``, their total contacts integers
    over the common denominator of every contact in ``items``."""
    contacts = [[m.contact for c in rd.components for m in c.relative] for rd in items]
    denom = math.lcm(*(x.denominator for xs in contacts for x in xs))
    return [
        _Signature(
            len(xs),
            sum(c.genus for c in rd.components),
            Counter(m for c in rd.components for m in c.absolute),
            bool(rd.components),
            sum(x.numerator * (denom // x.denominator) for x in xs),
        )
        for rd, xs in zip(items, contacts)
    ]


def _check_cap(sig1: _Signature, rd2: RelativeData, max_components: int):
    """Raise SearchLimitError when comparing into ``rd2`` could need more
    bubble components than ``max_components``."""
    bound = sig1.markings + len(rd2.components)
    if bound > max_components:
        raise SearchLimitError(
            f"comparison would need up to {bound} bubble components (cap {max_components})"
        )


def _rules_out(sig1: _Signature, sig2: _Signature) -> bool:
    """Whether the signatures alone show that no witness glues the first
    datum into the second: gluing never lowers total genus or total
    contact, never removes an ambient marking, and never empties a datum.
    The ``Counter`` test runs last, and only when the first datum has an
    ambient marking."""
    return (
        sig1.genus > sig2.genus
        or sig1.contact > sig2.contact
        or (sig1.nonempty and not sig2.nonempty)
        or bool(sig1.ambient and sig1.ambient - sig2.ambient)
    )


def _comparer(model, items, max_components):
    """``decide(i, j)`` over the validated data ``items``: the decision of
    ``_search`` for gluing ``items[i]`` into ``items[j]``, or None.  Checks
    the cap, then the signatures, then searches; all searches share one
    memo of cell records."""
    sigs = _signatures(items)
    ids: dict = {}
    keys = [tuple(ids.setdefault(c, len(ids)) for c in rd.components) for rd in items]
    cells: dict = {}

    def decide(i, j):
        _check_cap(sigs[i], items[j], max_components)
        if _rules_out(sigs[i], sigs[j]):
            return None
        return _search(model, items[i], items[j], (cells, keys[i], keys[j]))

    return decide


def _search(model, rd1, rd2, memo):
    """Decide, on validated data within the cap that the signatures do not
    rule out, whether a witness glues ``rd1`` into ``rd2``.

    Returns ``(preimages, records)`` for the first map from host to target
    components whose cells admit a witness (``preimages[t]`` lists the
    hosts sent to target component t, ``records[t]`` is that cell's
    record), or None.  Builds nothing: ``_build_witness`` turns the
    decision into bubble components.

    ``memo`` is ``(cells, keys1, keys2)``: a dict of cell records and one
    hashable key per component of ``rd1`` and ``rd2``, equal exactly when
    the components are equal.  A record depends only on content, so the
    searches of one comparer share them.
    """
    comps1, comps2 = rd1.components, rd2.components
    cells, keys1, keys2 = memo
    for f in product(range(len(comps2)), repeat=len(comps1)):
        preimages = [[] for _ in comps2]
        for i, target in enumerate(f):
            preimages[target].append(i)
        records = []
        for hosts, comp2, key2 in zip(preimages, comps2, keys2):
            key = (tuple(keys1[i] for i in hosts), key2)
            rec = cells.get(key)
            if rec is None:
                rec = cells[key] = _cell_record(model, tuple(comps1[i] for i in hosts), comp2)
            if rec.with_b is None and rec.pre_minimal is None:
                break
            records.append(rec)
        if len(records) < len(comps2):
            continue
        if any(rec.with_b is not None for rec in records) or all(
            rec.minimal is not None for rec in records
        ):
            return preimages, records
    return None


def _build_witness(model, rd1, rd2, preimages, records):
    """The witness of a decision of ``_search``: the bubble blocks of each
    cell, glued into ``rd2`` through ``glue`` as a check."""
    # if a free block exists anywhere, prefer free arrangements (condition
    # (P2) is then vacuous); otherwise build the all-minimal witness
    any_b = any(rec.with_b is not None for rec in records)
    witness = []
    for hosts, comp2, rec in zip(preimages, rd2.components, records):
        free = any_b and rec.with_b is not None
        arrangement = rec.with_b if free else rec.pre_minimal if any_b else rec.minimal
        witness += _cell_blocks(model, rd1.components, hosts, comp2, arrangement, free)
    if glue(model, rd1, witness) != rd2:
        raise AssertionError("constructed witness does not reproduce the target datum")
    return witness


def precedes(
    model: FormalPairModel,
    rd1: RelativeData,
    rd2: RelativeData,
    *,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> bool:
    """Whether some bubble datum glues ``rd1`` into ``rd2``.

    This one-step degeneration relation is reflexive (through the minimal
    companion) and antisymmetric, but not a partial order: it is not
    transitive on some models, where fiber rigidity forbids the composite
    witness.
    """
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

    Validates each datum once, in input order, then takes each ordered
    pair of distinct data once, row by row: a pair over the cap raises
    SearchLimitError, and a pair the signatures do not rule out is searched.
    So an invalid datum raises before any search.  The searches share one
    comparer's memo, which lives as long as this call, and only decide:
    no witness is built, glued or validated.
    """
    items = list(data)
    for rd in items:
        model.validate_relative_data(rd)
    decide = _comparer(model, items, max_components)
    pairs = list(enumerate(items))
    return [[a != b and decide(i, j) is not None for j, b in pairs] for i, a in pairs]


def order_from_matrix(items, strict) -> list[int]:
    """The linear extension of ``linear_extension_order`` for a strict
    comparison matrix of ``items`` (as from ``comparison_matrix``).

    Package-internal, shared with the CLI, which also reports the matrix;
    not exported.
    """
    # by canonical key, then input position; pick the first with no strict predecessor left
    remaining = sorted(range(len(items)), key=lambda i: (items[i].sort_key(), i))
    order = []
    while remaining:
        pick = next(
            (i for i in remaining if not any(strict[j][i] for j in remaining if j != i)), None
        )
        if pick is None:
            raise PosetCycleError("comparison relation contains a cycle")
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
            # the invariant r H(R, ell) of the pair (i, i) at the marking's own label
            value *= local.r * h_invariant(local, m.contact, m.ell)
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
