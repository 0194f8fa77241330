"""A brute-force oracle for the degeneration order on tiny data.

It decides whether ``rd1`` precedes ``rd2`` by enumerating bubble data
directly from the gluing rules in the ``correspondence`` module docstring,
gluing each one with the public ``glue`` and comparing the result with
``rd2``.  It shares no code with the witness search: no cells, no maps of
components, no feasibility summaries.

A bubble datum is enumerated as

* a set partition of the host's divisor markings into attached blocks
  (each block's infinity markings are the duals of its part, and the
  matching sends each to the host component that carries its part's
  marking),
* as many standalone blocks (no infinity markings) as the glued datum
  still lacks components,
* an assignment of every target divisor marking to a block as a zero
  marking, of every ambient marking the target has beyond the host to a
  block, and of the leftover genus to the blocks,
* classes: a fiber-pattern block (genus 0, no ambient markings, one
  marking at each end) gets the zero class; every other block
  is free, and its class only has to pair to its flux, so the free blocks
  of a glued component get ``flux * e`` (``e`` pairs to 1), and the last
  one takes whatever the component's target class still needs.

``glue`` then checks flux, effectivity and fiber rigidity, and condition
(P2) rejects a datum whose components are all pre-minimal unless all are
minimal.  Data are kept tiny (at most 3 divisor markings, genus at most 1,
at most 2 components), so the enumeration stays small.

The last tests hold the search's shortcuts to an unbounded reference
enumeration of one cell (the hosts sent to one target component): a cell
the search rejects before enumerating must have no arrangement at all, and
every other cell must record the same first arrangements.
"""

import functools
import random
from collections import Counter
from itertools import permutations, product

import pytest

from wbcorr import (
    DomainError,
    FormalPairModel,
    comparison_matrix,
    enumerate_relative_data,
    find_precedence_witness,
    glue,
    precedes,
)
from wbcorr import correspondence as corr
from wbcorr.correspondence import (
    RPlusComponent,
    _rules_out,
    _set_partitions,
    _signatures,
    is_minimal,
    is_pre_minimal,
)
from wbcorr.pair_model import ConnectedRelativeData, RelativeData, RelativeMarking
from wbcorr.rationals import Rational as Q

from conftest import PAIR_MODEL_B, PAIR_MODEL_C, random_pair_model


def set_partitions(items):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def compositions(total, parts):
    """Every way to write ``total`` as an ordered sum of ``parts`` naturals."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def glued_groups(n_host, attached):
    """Connected groups of host components and attached blocks: lists of
    ("r", host index) and ("b", block index) nodes."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n_host):
        find(("r", i))
    for k, part in enumerate(attached):
        for ci, _m in part:
            a, b = find(("r", ci)), find(("b", k))
            if a != b:
                parent[a] = b
    groups = {}
    for node in list(parent):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def oracle_witnesses(model, rd1, rd2):
    """Yield every enumerated bubble datum (a list of ``(RPlusComponent,
    hosts)`` pairs, as ``glue`` takes it) that glues ``rd1`` into ``rd2``
    and satisfies (P2)."""
    host, target = rd1.components, rd2.components
    tagged = [(ci, m) for ci, comp in enumerate(host) for m in comp.relative]
    zeros = rd2.relative_markings()
    host_abs = Counter(m for comp in host for m in comp.absolute)
    target_abs = Counter(m for comp in target for m in comp.absolute)
    if host_abs - target_abs:
        return  # gluing only adds ambient markings
    extra_abs = list((target_abs - host_abs).elements())
    pairing = model.z_pairing
    axis = next(i for i, z in enumerate(pairing) if z != 0)
    e = tuple(Q(1) / pairing[i] if i == axis else Q(0) for i in range(model.rank))

    for attached in set_partitions(tagged):
        groups = glued_groups(len(host), attached)
        n_standalone = len(target) - len(groups)
        if n_standalone < 0:
            continue
        n_blocks = len(attached) + n_standalone
        b1 = sum(len(part) for part in attached) - len(host) - len(attached) + len(groups)
        slack = sum(c.genus for c in target) - sum(c.genus for c in host) - b1
        if slack < 0:
            continue
        groups += [[("b", len(attached) + s)] for s in range(n_standalone)]
        # each part in the canonical order of its duals, so that its hosts
        # line up with the block's infinity markings
        parts = [
            sorted(part, key=lambda tag: model.dual_marking(tag[1]).sort_key()) for part in attached
        ]
        infinity = [[model.dual_marking(m) for _ci, m in part] for part in parts]
        infinity += [[] for _ in range(n_standalone)]
        hosts = [tuple(ci for ci, _m in part) for part in parts] + [()] * n_standalone
        blocks = range(n_blocks)
        for zero_of in product(blocks, repeat=len(zeros)):
            block_zeros = [[z for z, k in zip(zeros, zero_of) if k == b] for b in blocks]
            for abs_of in product(blocks, repeat=len(extra_abs)):
                block_abs = [[a for a, k in zip(extra_abs, abs_of) if k == b] for b in blocks]
                for genera in compositions(slack, n_blocks):
                    yield from _with_classes(
                        model, rd1, rd2, groups, infinity, hosts, block_zeros, block_abs, genera, e
                    )


def _with_classes(model, rd1, rd2, groups, infinity, hosts, block_zeros, block_abs, genera, e):
    host, target = rd1.components, rd2.components
    n_blocks = len(infinity)
    fiber = [
        genera[b] == 0 and not block_abs[b] and len(infinity[b]) == 1 and len(block_zeros[b]) == 1
        for b in range(n_blocks)
    ]
    flux = [
        sum((z.contact for z in block_zeros[b]), Q(0)) - sum((m.contact for m in infinity[b]), Q(0))
        for b in range(n_blocks)
    ]
    seen = set()
    for image in permutations(range(len(target)), len(groups)):
        cls = [None] * n_blocks
        for group, t in zip(groups, image):
            need = list(target[t].cls)
            free = []
            for kind, idx in group:
                if kind == "r":
                    add = host[idx].cls
                elif fiber[idx]:
                    cls[idx] = (Q(0),) * model.rank
                    continue
                else:
                    free.append(idx)
                    continue
                need = [a - b for a, b in zip(need, add)]
            for idx in free[:-1]:
                cls[idx] = tuple(flux[idx] * x for x in e)
                need = [a - b for a, b in zip(need, cls[idx])]
            if free:
                cls[free[-1]] = tuple(need)
        witness = [
            (
                RPlusComponent(
                    genus=genera[b],
                    cls=cls[b],
                    absolute=tuple(block_abs[b]),
                    infinity=tuple(infinity[b]),
                    zero=tuple(block_zeros[b]),
                ),
                hosts[b],
            )
            for b in range(n_blocks)
        ]
        key = tuple(witness)
        if key in seen:
            continue
        seen.add(key)
        try:
            glued = glue(model, rd1, witness)
        except DomainError:
            continue  # flux, effectivity or fiber rigidity fails
        if glued != rd2:
            continue
        if all(is_pre_minimal(model, c) for c, _ in witness) and not all(
            is_minimal(model, c) for c, _ in witness
        ):
            continue  # (P2)
        yield witness


def oracle_precedes(model, rd1, rd2):
    return next(oracle_witnesses(model, rd1, rd2), None) is not None


@functools.cache
def oracle_pool(name):
    """Tiny data over a fixture model, with the oracle's pairwise matrix.

    Labels come from window 0.  The pool holds single components with up to
    2 divisor markings, genus 0 and 1; two-component data with 2 and with 3
    markings; each 3-marking datum merged into one genus-1 component; and
    some singles with a markingless component added.  Those two kinds are
    preceded by what they were built from, so the pool has comparable pairs
    across component counts.  Last, some components next to a copy with the
    basis index of one marking swapped: only a pre-minimal bubble datum that
    is not minimal glues one into the other, so (P2) decides those pairs.
    """
    model = FormalPairModel.from_json({"b": PAIR_MODEL_B, "c": PAIR_MODEL_C}[name])
    everything = enumerate_relative_data(
        model, windows=(0,), genus_values=(0, 1), max_markings=2, components=2
    )
    singles = [rd for rd in everything if len(rd.components) == 1]
    flat = [rd.components[0] for rd in singles if rd.components[0].genus == 0]
    ones = [c for c in flat if len(c.relative) == 1]
    twos = [c for c in flat if len(c.relative) == 2]
    bare = next(c for c in flat if not c.relative)
    data = singles[:: len(singles) // 6][:6]
    data += [rd for rd in everything if len(rd.components) == 2][1::40][:2]
    for a, b in zip(ones[:: len(ones) // 3], twos[5 :: len(twos) // 3][:3]):
        data.append(RelativeData((a, b)))
        data.append(
            RelativeData(
                (
                    ConnectedRelativeData(
                        genus=1,
                        cls=tuple(x + y for x, y in zip(a.cls, b.cls)),
                        absolute=a.absolute + b.absolute,
                        relative=a.relative + b.relative,
                    ),
                )
            )
        )
    for rd in singles[1 :: len(singles) // 3][:3]:
        data += [rd, RelativeData(rd.components + (bare,))]
    two_element_basis = [
        c for c in ones + twos if model.sigma_size(model.z_sector(c.relative[0].sector).pi) == 2
    ]
    for c in two_element_basis[::40][:3]:
        m = c.relative[0]
        swapped = (RelativeMarking(m.sector, m.contact, 3 - m.j, m.ell),) + c.relative[1:]
        data += [
            RelativeData((c,)),
            RelativeData((ConnectedRelativeData(c.genus, c.cls, c.absolute, swapped),)),
        ]
    data = list(dict.fromkeys(data))
    assert all(
        len(rd.relative_markings()) <= 3
        and len(rd.components) <= 2
        and all(c.genus <= 1 for c in rd.components)
        for rd in data
    )
    oracle = [[oracle_precedes(model, a, b) for b in data] for a in data]
    return model, data, oracle


@pytest.mark.parametrize("name", ["b", "c"])
def test_precedes_matches_the_oracle(name):
    model, data, oracle = oracle_pool(name)
    n = len(data)
    assert n >= 16
    assert sum(map(sum, oracle)) > 2 * n  # more than the diagonal and its extensions
    for i, a in enumerate(data):
        for j, b in enumerate(data):
            assert precedes(model, a, b) == oracle[i][j], (i, j)


@pytest.mark.parametrize("name", ["b", "c"])
def test_comparison_matrix_matches_the_oracle(name):
    model, data, oracle = oracle_pool(name)
    strict = [[oracle[i][j] and a != b for j, b in enumerate(data)] for i, a in enumerate(data)]
    assert comparison_matrix(model, data) == strict


@pytest.mark.parametrize("name", ["b", "c"])
def test_search_witnesses_glue_into_the_target(name):
    model, data, oracle = oracle_pool(name)
    for i, a in enumerate(data):
        for j, b in enumerate(data):
            if oracle[i][j]:
                witness = find_precedence_witness(model, a, b)
                assert glue(model, a, witness) == b, (i, j)


@pytest.mark.parametrize("name", ["b", "c"])
def test_signature_rules_out_no_oracle_pair(name):
    """The prefilter is sound: the oracle finds no witness for any pair it
    rules out.  The pool has pairs that total contact alone rules out."""
    _, data, oracle = oracle_pool(name)
    sigs = _signatures(data)
    by_contact = 0
    for i in range(len(data)):
        for j in range(len(data)):
            if oracle[i][j]:
                assert not _rules_out(sigs[i], sigs[j]), (i, j)
            elif sigs[i].contact > sigs[j].contact and not _rules_out(
                sigs[i], sigs[j]._replace(contact=sigs[i].contact)
            ):
                by_contact += 1  # ruled out by total contact alone
    assert by_contact > len(data)


def test_bounded_partitions_filter_the_unbounded_order():
    # the search reads the first arrangement of each kind, so bounding the
    # block count may drop partitions but must not reorder the rest
    for n in range(8):
        items = list(range(n))
        every = list(set_partitions(items))
        for lo in range(n + 2):
            for hi in range(lo, n + 2):
                expected = [part for part in every if lo <= len(part) <= hi]
                assert list(_set_partitions(items, lo, hi)) == expected, (n, lo, hi)


def reference_arrangements(P, c2comp):
    """Every arrangement of the hosts ``P`` glued into ``c2comp`` that the
    unbounded enumeration admits, in its order: a set partition of the host
    markings into blocks, then an assignment of the target markings to
    blocks, kept when hosts and blocks connect, the blocks' genus is
    nonnegative and no block's flux is negative.  Yields ``(parts, assign,
    resources)``: ``resources`` is that genus plus the number of the
    target's ambient markings that no host carries."""
    tags = [(pos, m) for pos, p in enumerate(P) for m in p.relative]
    zeros = c2comp.relative
    host_abs = Counter(m for p in P for m in p.absolute)
    target_abs = Counter(c2comp.absolute)
    if host_abs - target_abs:
        return
    extra = sum((target_abs - host_abs).values())
    for parts in set_partitions(list(range(len(tags)))):
        if len(glued_groups(len(P), [[tags[t] for t in part] for part in parts])) != 1:
            continue
        b1 = len(tags) - len(P) - len(parts) + 1
        genus = c2comp.genus - sum(p.genus for p in P) - b1
        if genus < 0:
            continue
        for assign in product(range(len(parts)), repeat=len(zeros)):
            flux = [
                sum((z.contact for z, b in zip(zeros, assign) if b == k), Q(0))
                - sum((tags[t][1].contact for t in part), Q(0))
                for k, part in enumerate(parts)
            ]
            if min(flux) >= 0:
                yield parts, assign, genus + extra


def reference_record(P, c2comp):
    """The first reference arrangement of each kind, ``(free, pre-minimal,
    minimal)``, read up to the first free or all-minimal one."""
    tags = [m for p in P for m in p.relative]
    zeros = c2comp.relative
    gap_is_zero = all(c == sum(p.cls[i] for p in P) for i, c in enumerate(c2comp.cls))
    free = pre_minimal = minimal = None
    for parts, assign, resources in reference_arrangements(P, c2comp):
        arrangement = (parts, assign)
        fiber = [len(part) == 1 and assign.count(k) == 1 for k, part in enumerate(parts)]
        ends = [(tags[part[0]], zeros[assign.index(k)]) for k, part in enumerate(parts) if fiber[k]]
        others = fiber.count(False)
        mismatched = sum(z.contact != t.contact or z.sector != t.sector for t, z in ends)
        if free is None and (others or resources) and mismatched <= resources:
            free = arrangement
        if gap_is_zero and not (others or mismatched or resources):
            pre_minimal = pre_minimal or arrangement
            if all(z.j == t.j and z.ell == t.ell for t, z in ends):
                minimal = arrangement
        if free is not None or minimal is not None:
            break
    return free, pre_minimal, minimal


@functools.cache
def cut_pools():
    """``(model, data)``: the two oracle pools, and data enumerated over
    drawn pair models."""
    pools = [oracle_pool(name)[:2] for name in ("b", "c")]
    rng = random.Random(11)
    for _ in range(12):
        model = FormalPairModel.from_json(random_pair_model(rng))
        data = enumerate_relative_data(
            model, windows=(0, 1), genus_values=(0, 1), max_markings=2, components=2, limit=30
        )
        pools.append((model, data))
    return pools


def test_cells_cut_before_enumeration_have_no_arrangement(monkeypatch):
    # every cell the comparisons read, with whether it reached the enumeration
    cells = []
    record, partitions = corr._cell_record, corr._set_partitions
    calls = [0]

    def counted(items, lo, hi):
        calls[0] += 1
        return partitions(items, lo, hi)

    def recorded(model, P, c2comp):
        before = calls[0]
        rec = record(model, P, c2comp)
        cells.append((P, c2comp, rec, calls[0] > before))
        return rec

    monkeypatch.setattr(corr, "_set_partitions", counted)
    monkeypatch.setattr(corr, "_cell_record", recorded)
    for model, data in cut_pools():
        comparison_matrix(model, data)
    cut = Counter()
    for P, c2comp, rec, enumerated in cells:
        if not P or any(not p.relative for p in P):
            continue  # decided before any cut
        assert tuple(rec) == reference_record(P, c2comp), (P, c2comp)
        if enumerated:
            cut["enumerated"] += 1
            continue
        assert next(reference_arrangements(P, c2comp), None) is None, (P, c2comp)
        zero_sum = sum((m.contact for m in c2comp.relative), Q(0))
        tag_sum = sum((m.contact for p in P for m in p.relative), Q(0))
        host_abs = Counter(m for p in P for m in p.absolute)
        if zero_sum < tag_sum:
            cut["flux"] += 1
        elif host_abs - Counter(c2comp.absolute):
            cut["ambient"] += 1
        else:
            cut["block count"] += 1
    # the pools reach both cuts and the enumeration
    assert min(cut["enumerated"], cut["flux"], cut["block count"]) > 20, cut


def test_integer_signatures_rule_out_what_fractions_do():
    fractional = 0
    for _, data in cut_pools():
        sigs = _signatures(data)
        exact = [
            sig._replace(contact=sum((m.contact for m in rd.relative_markings()), Q(0)))
            for sig, rd in zip(sigs, data)
        ]
        fractional += sum(sig.contact.denominator > 1 for sig in exact)
        for i in range(len(data)):
            for j in range(len(data)):
                assert _rules_out(sigs[i], sigs[j]) == _rules_out(exact[i], exact[j]), (i, j)
    assert fractional > 20
