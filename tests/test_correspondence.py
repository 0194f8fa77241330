import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import (
    DomainError,
    FormalPairModel,
    OutOfImageError,
    TriangularError,
    assemble_L,
    companion_rplus,
    comparison_matrix,
    default_coeff_rule,
    enumerate_relative_data,
    find_precedence_witness,
    glue,
    linear_extension,
    linear_extension_order,
    n_minimal_companion,
    precedes,
    psi_forward,
    psi_inverse,
    solve_lower_triangular,
)
from wbcorr import correspondence as corr
from wbcorr.correspondence import RPlusComponent, is_minimal, is_pre_minimal
from wbcorr.errors import PosetCycleError, SearchLimitError
from wbcorr.pair_model import (
    AbsoluteMarking,
    NMinimalData,
    ConnectedAbsoluteData,
    AbsoluteData,
    ConnectedRelativeData,
    RelativeData,
    RelativeMarking,
    SMarking,
)
from wbcorr.rationals import Rational as Q

from conftest import PAIR_MODEL_B, PAIR_MODEL_C, PAIR_MODEL_CODIM1


def rdata(*comps):
    return RelativeData(tuple(comps))


def comp(genus, cls, rel=(), absm=()):
    return ConnectedRelativeData(genus=genus, cls=cls, absolute=absm, relative=rel)


def mk(sector, contact, j=1, ell=0):
    return RelativeMarking(sector, contact, j, ell)


@pytest.fixture
def rd_one_marking():
    return rdata(
        comp(
            0,
            (Q(1), Q(1, 2)),
            rel=(mk("sa", Q(1, 2)),),
            absm=(AbsoluteMarking("amb", "one_X", 0),),
        )
    )


# -- psi ---------------------------------------------------------------------


def test_psi_forward_empty_relative_part(pm_b):
    rd = rdata(comp(2, (Q(5), Q(0)), absm=(AbsoluteMarking("amb", "H2_X", 0),)))
    ad = psi_forward(pm_b, rd)
    assert len(ad.components) == 1
    image = ad.components[0]
    assert image.genus == 2
    assert image.cls == (Q(5),)
    assert image.absolute == rd.components[0].absolute
    assert image.s_markings == ()


def test_psi_forward_one_marking_example(pm_b, rd_one_marking):
    ad = psi_forward(pm_b, rd_one_marking)
    assert ad.components[0].s_markings == (SMarking("t1", 1, 0),)
    assert ad.components[0].cls == (Q(1),)


def test_psi_respects_disjoint_union(pm_b):
    one = comp(0, (Q(0), Q(1, 2)), rel=(mk("sa", Q(1, 2)),))
    two = rdata(one, one)
    ad = psi_forward(pm_b, two)
    assert len(ad.components) == 2
    assert ad.components[0] == ad.components[1]


def test_psi_roundtrip_both_ways(pm_b):
    data = enumerate_relative_data(pm_b, windows=(0, 1), genus_values=(0, 1), limit=250)
    for rd in data:
        ad = psi_forward(pm_b, rd)
        assert psi_inverse(pm_b, ad) == rd
        assert psi_forward(pm_b, psi_inverse(pm_b, ad)) == ad


def test_psi_surjective_on_declared_absolute_data(pm_b):
    # codimension >= 2: every base-supported marking pattern has a preimage
    for t, j_range in [("t0", (1,)), ("t1", (1, 2))]:
        for j in j_range:
            for c in range(6):
                for push in (Q(0), Q(2)):
                    ad = AbsoluteData(
                        (
                            ConnectedAbsoluteData(
                                genus=0,
                                cls=(push,),
                                s_markings=(SMarking(t, j, c),),
                            ),
                        )
                    )
                    rd = psi_inverse(pm_b, ad)
                    pm_b.validate_relative_data(rd)
                    assert psi_forward(pm_b, rd) == ad


def test_psi_inverse_empty_case(pm_b):
    ad = AbsoluteData(
        (ConnectedAbsoluteData(genus=0, cls=(Q(4),), absolute=(), s_markings=()),)
    )
    rd = psi_inverse(pm_b, ad)
    assert rd.components[0].relative == ()
    assert rd.components[0].cls == (Q(4), Q(0))


def test_psi_inverse_recovers_spec_example(pm_b, rd_one_marking):
    ad = psi_forward(pm_b, rd_one_marking)
    assert psi_inverse(pm_b, ad) == rd_one_marking


def test_codim1_injectivity_and_out_of_image(pm_codim1):
    data = enumerate_relative_data(
        pm_codim1, windows=(0, 1), genus_values=(0,), push_coeffs=(0, 1, 2)
    )
    assert len(data) >= 5
    images = set()
    for rd in data:
        ad = psi_forward(pm_codim1, rd)
        assert psi_inverse(pm_codim1, ad) == rd
        images.add(ad)
    assert len(images) == len(data)
    # bumping the descendent power breaks the class/contact consistency
    rd = rdata(comp(0, (Q(1, 4),), rel=(mk("sHalf", Q(1, 2)),)))
    ad = psi_forward(pm_codim1, rd)
    marked = ad.components[0]
    bumped = AbsoluteData(
        (
            ConnectedAbsoluteData(
                genus=marked.genus,
                cls=marked.cls,
                absolute=marked.absolute,
                s_markings=(SMarking("t", 1, marked.s_markings[0].psi + 1),),
            ),
        )
    )
    with pytest.raises(OutOfImageError):
        psi_inverse(pm_codim1, bumped)


def test_psi_inverse_missing_sector_reported():
    import copy

    doc = copy.deepcopy(PAIR_MODEL_CODIM1)
    doc["z_sectors"] = [doc["z_sectors"][0]]  # drop the integer-phase sector
    model = FormalPairModel.from_json(doc)
    ad = AbsoluteData(
        (
            ConnectedAbsoluteData(
                genus=0, cls=(Q(1, 2),), s_markings=(SMarking("t", 1, 1),)
            ),
        )
    )
    with pytest.raises(OutOfImageError):
        psi_inverse(model, ad)


# -- companion and gluing ------------------------------------------------------


def test_companion_examples(pm_b, rd_one_marking):
    assert n_minimal_companion(rdata()).components == ()
    one = n_minimal_companion(rd_one_marking)
    assert one.components == (mk("sa", Q(1, 2)),)
    many = rdata(
        comp(0, (Q(0), Q(3, 2)), rel=(mk("sa", Q(1, 2)), mk("sb", Q(1)))),
        comp(0, (Q(0), Q(1)), rel=(mk("sb", Q(1)),)),
    )
    assert len(n_minimal_companion(many).components) == 3


def test_companion_law(pm_b, pm_a, pm_c):
    for model, kwargs in [
        (pm_b, dict(windows=(0,), genus_values=(0, 1), limit=60)),
        (pm_a, dict(windows=(0,), genus_values=(0,), limit=40)),
        (pm_c, dict(windows=(0,), genus_values=(0,), limit=40)),
    ]:
        for rd in enumerate_relative_data(model, **kwargs):
            witness = companion_rplus(model, rd)
            # one minimal block per marking of the minimal companion, matched
            # to the component that carries the marking
            for block, (ci,) in witness:
                assert is_minimal(model, block) and block.zero[0] in rd.components[ci].relative
            assert NMinimalData(tuple(c.zero[0] for c, _ in witness)) == n_minimal_companion(rd)
            assert glue(model, rd, witness) == rd


def test_companion_uniqueness_under_bounded_search(pm_b, rd_one_marking):
    rd = rd_one_marking
    base = n_minimal_companion(rd).components[0]
    # perturb each coordinate of the minimal triple; no perturbed minimal
    # datum can glue rd to itself
    candidates = [
        mk("sa", Q(1, 2), j=2),
        mk("sb", Q(1)),
        mk("s0", Q(1)),
        mk("sa", Q(3, 2)),
    ]
    for cand in candidates:
        assert cand != base
        blocks = companion_rplus(pm_b, rdata(comp(0, (Q(0), cand.contact), rel=(cand,))))
        with pytest.raises(DomainError):
            glue(pm_b, rd, blocks)


def minimal_block(model, m):
    """The minimal fiber block with ``m`` at zero and its dual at infinity."""
    return RPlusComponent(0, (Q(0),) * model.rank, infinity=(model.dual_marking(m),), zero=(m,))


def test_glue_rejects_bad_bubbles(pm_b, rd_one_marking):
    dual = pm_b.dual_marking(mk("sa", Q(1, 2)))
    # unmatched fiber-pattern ends
    with pytest.raises(DomainError):
        glue(
            pm_b,
            rd_one_marking,
            [
                (
                    RPlusComponent(
                        genus=0,
                        cls=(Q(0), Q(1, 2)),
                        infinity=(dual,),
                        zero=(mk("sb", Q(1)),),
                    ),
                    (0,),
                )
            ],
        )
    # contact-decreasing component
    with pytest.raises(DomainError):
        glue(
            pm_b,
            rd_one_marking,
            [(RPlusComponent(genus=0, cls=(Q(0), Q(-1, 2)), infinity=(dual,), zero=()), (0,))],
        )
    # flux/pairing mismatch
    with pytest.raises(DomainError):
        glue(
            pm_b,
            rd_one_marking,
            [
                (
                    RPlusComponent(
                        genus=1,
                        cls=(Q(0), Q(7)),
                        infinity=(dual,),
                        zero=(mk("sa", Q(1, 2)),),
                    ),
                    (0,),
                )
            ],
        )
    # leftover host marking
    with pytest.raises(DomainError, match="^1 host divisor marking"):
        glue(pm_b, rd_one_marking, [])
    # bad infinity markings: each is rejected by bubble validation, before
    # any matching is tried
    for bad, message in [
        (mk("sa", Q(1)), "phase"),
        (mk("sa", Q(1, 2), j=0), "basis index"),
        (mk("sa", Q(1, 2), j=3), "basis index"),
        (mk("sa", Q(1, 2), ell=pm_b.ell_max("sa") + 1), "H-power"),
        (mk("sz", Q(1, 2)), "unknown divisor sector"),
    ]:
        bubble = RPlusComponent(
            genus=0, cls=(Q(0), Q(0)), infinity=(bad,), zero=(mk("sa", Q(1, 2)),)
        )
        # the error names the marking as passed, not its dual
        with pytest.raises(DomainError, match=f"^infinity marking on {bad.sector!r}: .*{message}"):
            glue(pm_b, rd_one_marking, [(bubble, (0,))])
    # ambient markings: checked by the rule that validates data
    blk = minimal_block(pm_b, mk("sa", Q(1, 2)))

    def with_ambient(m):
        return [(RPlusComponent(blk.genus, blk.cls, (m,), blk.infinity, blk.zero), (0,))]

    pm_b.validate_relative_data(
        glue(pm_b, rd_one_marking, with_ambient(AbsoluteMarking("t1", "one_X", 0)))
    )
    for bad, message in [
        (AbsoluteMarking("t1", "bogus", 0), "^ambient insertion 'bogus' not among"),
        (AbsoluteMarking("t1", "one_X", -1), "^descendent powers must be nonnegative"),
    ]:
        with pytest.raises(DomainError, match=message):
            glue(pm_b, rd_one_marking, with_ambient(bad))
    # bad matchings: host 0 carries sa 1/2 and sb 1, host 1 carries sb 1
    sa, sb = mk("sa", Q(1, 2)), mk("sb", Q(1))
    rd = rdata(comp(0, (Q(0), Q(3, 2)), rel=(sa, sb)), comp(0, (Q(1), Q(1)), rel=(sb,)))
    assert rd.components[0].relative == (sa, sb)  # host indices follow canonical order
    minimal = {m: minimal_block(pm_b, m) for m in (sa, sb)}
    good = [(minimal[sa], (0,)), (minimal[sb], (0,)), (minimal[sb], (1,))]
    assert glue(pm_b, rd, good) == rd
    for witness, message in [
        # a hosts tuple of the wrong length
        ([(minimal[sa], ())] + good[1:], "^0 host"),
        ([(minimal[sa], (0, 0))] + good[1:], "^2 host"),
        # host indices out of range
        (good[:2] + [(minimal[sb], (2,))], "^host index 2 out of range"),
        (good[:2] + [(minimal[sb], (-1,))], "^host index -1 out of range"),
        # sa 1/2 sent to host 1, which has no sa marking
        ([(minimal[sa], (1,))] + good[1:], "^unmatched bubble marking"),
        # both sb blocks sent to host 0, which has one sb marking
        (good[:2] + [(minimal[sb], (0,))], "^unmatched bubble marking"),
        # host 1's sb marking left unmatched
        (good[:2], "^1 host divisor marking"),
    ]:
        with pytest.raises(DomainError, match=message):
            glue(pm_b, rd, witness)


def test_glue_follows_the_matching_not_the_block_order(pm_b):
    # two equal sb markings on different hosts: a genus-1 block and a minimal
    # block meet them, and the matching decides which host gains the genus
    sa, sb = mk("sa", Q(1, 2)), mk("sb", Q(1))
    rd = rdata(comp(0, (Q(0), Q(3, 2)), rel=(sa, sb)), comp(0, (Q(1), Q(1)), rel=(sb,)))
    assert rd.components[0].relative == (sa, sb)  # host indices follow canonical order
    minimal = {m: minimal_block(pm_b, m) for m in (sa, sb)}
    handle = RPlusComponent(genus=1, cls=(Q(0), Q(0)), infinity=(pm_b.dual_marking(sb),), zero=(sb,))
    expected = {
        0: rdata(comp(1, (Q(0), Q(3, 2)), rel=(sa, sb)), comp(0, (Q(1), Q(1)), rel=(sb,))),
        1: rdata(comp(0, (Q(0), Q(3, 2)), rel=(sa, sb)), comp(1, (Q(1), Q(1)), rel=(sb,))),
    }
    assert expected[0] != expected[1]
    for host, target in expected.items():
        witness = [(minimal[sa], (0,)), (handle, (host,)), (minimal[sb], (1 - host,))]
        # the same blocks in any order glue into the same datum
        for order in itertools.permutations(witness):
            assert glue(pm_b, rd, order) == target
        # and the search's witness carries a matching that glues into it
        assert glue(pm_b, rd, find_precedence_witness(pm_b, rd, target)) == target


def test_pre_minimal_splitting_law(pm_a):
    # factor a minimal fiber component across the self-degeneration: both
    # factors are pre-minimal, and if one of them is minimal alongside a
    # minimal composite, all coincide
    m = mk("s", Q(1), j=1, ell=1)
    composite, _ = companion_rplus(pm_a, rdata(comp(0, (Q(0), Q(1)), rel=(m,))))[0]
    assert is_minimal(pm_a, composite)
    middles = [
        RelativeMarking("s", Q(1), j, ell) for j in (1, 2) for ell in (0, 1)
    ]
    for middle in middles:
        minus = RPlusComponent(
            genus=0,
            cls=(Q(0), Q(0)),
            infinity=composite.infinity,
            zero=(middle,),
        )
        plus = RPlusComponent(
            genus=0,
            cls=(Q(0), Q(0)),
            infinity=(pm_a.dual_marking(middle),),
            zero=composite.zero,
        )
        assert is_pre_minimal(pm_a, minus)
        assert is_pre_minimal(pm_a, plus)
        if is_minimal(pm_a, minus) or is_minimal(pm_a, plus):
            assert minus == composite and plus == composite


# -- the partial order ---------------------------------------------------------


def test_precedes_reflexive(pm_a, pm_b, pm_c, pm_codim1):
    # the minimal companion glues every datum into itself
    for model in (pm_a, pm_b, pm_c, pm_codim1):
        for rd in enumerate_relative_data(model, windows=(0,), genus_values=(0, 1), limit=25):
            assert glue(model, rd, companion_rplus(model, rd)) == rd
            assert precedes(model, rd, rd)


def test_precedes_extra_component_example(pm_b, rd_one_marking):
    extra = comp(0, (Q(0), Q(1)), rel=(mk("sb", Q(1)),))
    bigger = RelativeData(rd_one_marking.components + (extra,))
    witness = find_precedence_witness(pm_b, rd_one_marking, bigger)
    assert witness is not None
    assert not precedes(pm_b, bigger, rd_one_marking)


def test_precedes_insertion_swap_unrelated(pm_b):
    a = rdata(comp(0, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2), j=1),)))
    b = rdata(comp(0, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2), j=2),)))
    assert not precedes(pm_b, a, b)
    assert not precedes(pm_b, b, a)


def test_precedes_genus_increase_only(pm_b):
    flat = rdata(comp(0, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)))
    bumpy = rdata(comp(1, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)))
    assert precedes(pm_b, flat, bumpy)
    assert not precedes(pm_b, bumpy, flat)


def test_precedes_search_cap(pm_b, rd_one_marking):
    with pytest.raises(SearchLimitError):
        precedes(pm_b, rd_one_marking, rd_one_marking, max_components=1)


def test_poset_axioms_on_enumerated_set(pm_b):
    data = enumerate_relative_data(pm_b, windows=(0,), genus_values=(0, 1), limit=30)
    n = len(data)
    mat = [[precedes(pm_b, a, b) for b in data] for a in data]
    for i in range(n):
        assert mat[i][i]
        for j in range(n):
            if mat[i][j] and mat[j][i]:
                assert data[i] == data[j]
            for k in range(n):
                if mat[i][j] and mat[j][k]:
                    assert mat[i][k]


# -- the comparison matrix -----------------------------------------------------


@functools.cache
def comparison_pool(name):
    """About 30 enumerated data over a fixture model, one- and two-component,
    genus 0 and 1, labels from two windows; with their pairwise matrix."""
    model = FormalPairModel.from_json({"b": PAIR_MODEL_B, "c": PAIR_MODEL_C}[name])
    data = enumerate_relative_data(model, windows=(0, 1), genus_values=(0, 1), components=2)
    data = data[:: len(data) // 30][:30]
    pairwise = [[a != b and precedes(model, a, b) for b in data] for a in data]
    return model, data, pairwise


@pytest.mark.parametrize("name", ["b", "c"])
def test_comparison_matrix_matches_pairwise_precedes(name):
    model, data, pairwise = comparison_pool(name)
    assert any(len(rd.components) == 2 for rd in data)
    assert any(map(any, pairwise))  # the pool is not an antichain
    assert comparison_matrix(model, data) == pairwise


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["b", "c"]), st.data())
def test_comparison_matrix_on_subsets(name, draw):
    model, data, pairwise = comparison_pool(name)
    picks = draw.draw(st.lists(st.integers(0, len(data) - 1), max_size=8))
    subset = [data[i] for i in picks]  # repeats allowed: equal data never compare
    assert comparison_matrix(model, subset) == [[pairwise[i][j] for j in picks] for i in picks]


def test_comparison_matrix_builds_no_witness(monkeypatch):
    pools = [comparison_pool(name) for name in ("b", "c")]  # pairwise matrices built first

    def refuse(*args):
        raise AssertionError("the matrix path built a witness")

    with monkeypatch.context() as patch:
        for name in ("_cell_blocks", "glue", "_validate_rplus_component"):
            patch.setattr(corr, name, refuse)
        for model, data, pairwise in pools:
            assert comparison_matrix(model, data) == pairwise

    # find_precedence_witness still validates every component it returns
    validated = []
    validate = corr._validate_rplus_component

    def counted(model, comp):
        validated.append(comp)
        return validate(model, comp)

    monkeypatch.setattr(corr, "_validate_rplus_component", counted)
    for model, data, pairwise in pools:
        for a, row in zip(data, pairwise):
            for b, strict in zip(data, row):
                if strict:
                    validated.clear()
                    witness = find_precedence_witness(model, a, b)
                    assert witness and validated == [c for c, _ in witness]


def test_witnesses_are_pinned_on_the_fixture_models(pm_a, pm_b, pm_c, pm_codim1):
    # every ordered pair of one enumeration per fixture model, recorded as the
    # repr of the witness's blocks and of its hosts, or the exception's type
    # name; one digest pins the blocks, one the matching
    digest, matching, pairs, witnesses = hashlib.sha256(), hashlib.sha256(), 0, 0
    for model in (pm_a, pm_b, pm_c, pm_codim1):
        data = enumerate_relative_data(
            model, windows=(0, 1), genus_values=(0, 1), max_markings=2, components=2, limit=30
        )
        for a in data:
            for b in data:
                try:
                    witness = find_precedence_witness(model, a, b, max_components=6)
                except Exception as exc:
                    record = hosts = type(exc).__name__
                else:
                    record = hosts = "None"
                    if witness is not None:
                        record = repr([c for c, _ in witness])
                        hosts = repr([h for _, h in witness])
                digest.update(record.encode())
                matching.update(hosts.encode())
                pairs += 1
                witnesses += record not in ("None", "SearchLimitError")
    assert (pairs, witnesses) == (3600, 616)
    assert digest.hexdigest() == "1bb656f8f7a45ca1647076bbab92412d376445c728461a852b518746111dc4ca"
    assert matching.hexdigest() == "6bacbb59465b3f79ec04739b2bba84150957dce97ef7b8f4da5e576d3282a4ea"


# -- linear extension and the matrix -------------------------------------------


def test_linear_extension_singleton(pm_b, rd_one_marking):
    assert linear_extension(pm_b, [rd_one_marking]) == [rd_one_marking]


def test_linear_extension_antichain_sorted(pm_b):
    a = rdata(comp(0, (Q(1), Q(0)), absm=(AbsoluteMarking("amb", "one_X", 0),)))
    b = rdata(comp(0, (Q(1), Q(0)), absm=(AbsoluteMarking("amb", "H2_X", 0),)))
    c = rdata(comp(0, (Q(2), Q(0)), absm=(AbsoluteMarking("amb", "one_X", 1),)))
    items = [c, b, a]
    for x in items:
        for y in items:
            if x != y:
                assert not precedes(pm_b, x, y)
    assert linear_extension(pm_b, items) == sorted(items, key=lambda d: d.sort_key())


def test_linear_extension_chain_reversed(pm_b):
    rd1 = rdata(comp(0, (Q(1), Q(0))))
    rd2 = RelativeData(rd1.components + (comp(0, (Q(0), Q(1)), rel=(mk("sb", Q(1)),)),))
    rd3 = RelativeData(rd2.components + (comp(0, (Q(0), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)),))
    assert precedes(pm_b, rd1, rd2) and precedes(pm_b, rd2, rd3)
    assert linear_extension(pm_b, [rd3, rd2, rd1]) == [rd1, rd2, rd3]
    assert linear_extension_order(pm_b, [rd3, rd2, rd1]) == [2, 1, 0]


class _Keyed:
    """An item of ``order_from_matrix`` that counts its ``sort_key`` calls."""

    calls = 0

    def __init__(self, key):
        self.key = key

    def sort_key(self):
        _Keyed.calls += 1
        return self.key


def _reference_order(items, strict):
    # the minimum by (key, position) among the items with no strict
    # predecessor left, round by round; None on a cycle
    remaining, order = set(range(len(items))), []
    while remaining:
        ready = [i for i in remaining if not any(strict[j][i] for j in remaining if j != i)]
        if not ready:
            return None
        order.append(min(ready, key=lambda i: (items[i].key, i)))
        remaining.remove(order[-1])
    return order


def test_order_from_matrix_keys_each_item_once():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(0, 7)
        items = [_Keyed(rng.randint(0, 3)) for _ in range(n)]
        density = rng.random() / 2
        strict = [[i != j and rng.random() < density for j in range(n)] for i in range(n)]
        expected = _reference_order(items, strict)
        _Keyed.calls = 0
        if expected is None:
            with pytest.raises(PosetCycleError):
                corr.order_from_matrix(items, strict)
        else:
            assert corr.order_from_matrix(items, strict) == expected
            assert _Keyed.calls == n


def test_default_coeff_rule_is_contact_product(pm_b):
    assert default_coeff_rule(rdata()) == 1
    rd = rdata(
        comp(0, (Q(0), Q(3, 2)), rel=(mk("sa", Q(1, 2)), mk("sb", Q(1)))),
    )
    assert default_coeff_rule(rd) == Q(1, 2)


def test_assemble_identity_structure_for_markingless_basis(pm_b):
    basis = [
        rdata(comp(0, (Q(1), Q(0)))),
        rdata(comp(0, (Q(2), Q(0)))),
        rdata(comp(1, (Q(1), Q(0)))),
    ]
    L = assemble_L(pm_b, basis)
    for i in range(3):
        assert L[i][i] == 1
        for j in range(3):
            if i != j:
                assert L[i][j] == 0


def test_assemble_single_marking_diagonal(pm_b):
    rd = rdata(comp(0, (Q(0), Q(1)), rel=(mk("sb", Q(1)),)))
    L = assemble_L(pm_b, [rd])
    assert L[0][0] == 2  # contact order 1 times the paired invariant 2
    L_one = assemble_L(pm_b, [rd], coeff_rule=lambda _rd: Q(1))
    assert L_one[0][0] == 2
    half = rdata(comp(0, (Q(0), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)))
    assert assemble_L(pm_b, [half])[0][0] == 1  # coefficient 1/2 times invariant 2
    assert assemble_L(pm_b, [half], coeff_rule=lambda _rd: Q(1))[0][0] == 2


def test_assemble_offdiag_validation(pm_b):
    rd1 = rdata(comp(0, (Q(1), Q(0))))
    rd2 = RelativeData(rd1.components + (comp(0, (Q(0), Q(1)), rel=(mk("sb", Q(1)),)),))
    basis = [rd1, rd2]
    L = assemble_L(pm_b, basis, offdiag={(1, 0): Q(7, 3)})
    assert L[1][0] == Q(7, 3)
    assert L[0][1] == 0
    with pytest.raises(TriangularError):
        assemble_L(pm_b, basis, offdiag={(0, 1): Q(1)})
    with pytest.raises(TriangularError):
        assemble_L(pm_b, [rd2, rd1], offdiag={(1, 0): Q(1)})  # rd2 does not precede rd1
    with pytest.raises(TriangularError):
        assemble_L(pm_b, basis, coeff_rule=lambda _rd: Q(0))


def test_assemble_offdiag_check_respects_the_cap(pm_b):
    flat = rdata(comp(0, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)))
    bumpy = rdata(comp(1, (Q(1), Q(1, 2)), rel=(mk("sa", Q(1, 2)),)))
    # the cap bounds only comparisons, so a basis without off-diagonals passes
    assert assemble_L(pm_b, [flat, bumpy], max_components=1)[1][0] == 0
    with pytest.raises(SearchLimitError):
        assemble_L(pm_b, [flat, bumpy], offdiag={(1, 0): Q(1)}, max_components=1)
    assert assemble_L(pm_b, [flat, bumpy], offdiag={(1, 0): Q(1)})[1][0] == 1


def test_solve_examples():
    v = [Q(3), Q(-1, 2), Q(7)]
    identity = [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]]
    assert solve_lower_triangular(identity, v) == v
    L = [[Q(2), Q(0)], [Q(3), Q(5)]]
    assert solve_lower_triangular(L, [Q(4), Q(1)]) == [Q(2), Q(-1)]


def test_solve_roundtrip(pm_b):
    L = [[Q(2), Q(0), Q(0)], [Q(1, 3), Q(-5), Q(0)], [Q(7), Q(1, 2), Q(9, 4)]]
    x = [Q(1, 7), Q(-3), Q(11, 5)]
    v = [sum(L[i][j] * x[j] for j in range(3)) for i in range(3)]
    assert solve_lower_triangular(L, v) == x


def test_solve_validation():
    with pytest.raises(TriangularError):
        solve_lower_triangular([[Q(0)]], [Q(1)])
    with pytest.raises(TriangularError):
        solve_lower_triangular([[Q(1), Q(0)], [Q(0), Q(1)]], [Q(1)])
    with pytest.raises(TriangularError):
        solve_lower_triangular([[Q(1), Q(2)], [Q(0), Q(1)]], [Q(1), Q(1)])
    with pytest.raises(TriangularError):
        solve_lower_triangular([[Q(1), Q(0)], [Q(1)]], [Q(1), Q(1)])
