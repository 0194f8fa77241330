"""The degeneration order on random pair models.

``comparison_matrix`` decides each pair from cell records and builds
nothing; ``find_precedence_witness`` builds the witness of the same
decision, glues it into the target and validates every component.  On
random models (codimension 1 and higher, ``FZ`` zero and nonzero) and
data enumerated over them, the two must agree pair by pair, every built
witness must glue, through the public ``glue``, into its target, and
``precedes`` must be antisymmetric and hold from a datum to its minimal
companion's image.  ``precedes`` is not a partial order: the image differs
from the datum when ``FZ`` is nonzero, and where ``a`` precedes ``b`` and
``b`` precedes ``c`` but not ``a`` precedes ``c``, the brute-force oracle
of ``test_witness_oracle``, which shares no code with the search, must find
no witness either.  On tiny data, ``precedes`` must agree with that oracle
on every pair.  The psi maps must round trip on the same models.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import (
    DomainError,
    FormalPairModel,
    OutOfImageError,
    RPlusComponent,
    c_to_Rd,
    companion_rplus,
    comparison_matrix,
    enumerate_relative_data,
    find_precedence_witness,
    glue,
    n_minimal_companion,
    precedes,
    psi_forward,
    psi_inverse,
)
from wbcorr.pair_model import (
    AbsoluteData,
    ConnectedAbsoluteData,
    ConnectedRelativeData,
    RelativeData,
    RelativeMarking,
    SMarking,
)
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import frac

from conftest import pair_model_docs
from test_witness_oracle import oracle_precedes


def fz_free(doc):
    """``doc`` without the lattice coordinate that only a nonzero ``FZ`` reaches."""
    lattice = doc["lattice"]
    if lattice["rank"] != 3:
        return doc
    twin = {key: lattice[key][:2] for key in ("F", "FZ", "Z_pairing")}
    twin.update(rank=2, kappa_push=[row[:2] for row in lattice["kappa_push"]])
    return {**doc, "lattice": twin}


def data_pool(doc):
    """Valid data over the model of ``doc``: single components and pairs of
    consecutive ones from ``enumerate_relative_data``.

    ``enumerate_relative_data`` solves for each class from its pushforward
    and pairing, which a nonzero ``FZ`` leaves undetermined.  On such a
    model the data are enumerated over the same model without the ``FZ``
    coordinate, and each component then comes twice: with that coordinate
    0, and shifted by its total contact times ``FZ`` (what a minimal
    bubble datum adds).
    """
    lattice = doc["lattice"]
    fz = lattice["FZ"][-1] if lattice["rank"] == 3 else 0
    model = FormalPairModel.from_json(fz_free(doc))
    data = enumerate_relative_data(model, windows=(0,), genus_values=(0, 1), components=2)
    if not fz:
        return data

    def shifted(rd, k):
        return RelativeData(
            tuple(
                ConnectedRelativeData(c.genus, c.cls + (k * fz * c.contact_sum(),), c.absolute, c.relative)
                for c in rd.components
            )
        )

    return [shifted(rd, k) for rd in data for k in (0, 1)]


@st.composite
def models_and_data(draw, max_picks=6):
    doc = draw(pair_model_docs)
    # data with divisor markings first, where small indices are drawn most
    pool = sorted(data_pool(doc), key=lambda rd: not rd.relative_markings())
    indices = st.integers(0, len(pool) - 1)
    picks = draw(st.lists(indices, min_size=1, max_size=max_picks, unique=True))
    data = []
    for i in picks:
        # a datum beside its neighbours in enumeration order, which differ
        # from it in genus, ambient markings or the FZ shift
        data += pool[i : i + 3]
    return FormalPairModel.from_json(doc), list(dict.fromkeys(data))


@settings(max_examples=60, deadline=None)
@given(models_and_data())
def test_comparison_matrix_matches_built_witnesses(drawn):
    model, data = drawn  # distinct data
    built = {(a, b): find_precedence_witness(model, a, b) for a in data for b in data if a != b}
    assert comparison_matrix(model, data) == [
        [built.get((a, b)) is not None for b in data] for a in data
    ]
    for (a, b), witness in built.items():
        if witness is not None:
            assert glue(model, a, witness) == b


def absolute_pool(model):
    """Absolute data over ``model``: one genus-0 component with each
    pushforward in 0..1 and no base-supported marking, or one at each base
    sector, basis index and descendent power in 0..3."""
    markings = [()] + [
        (SMarking(t.name, j, c),)
        for t in model.s_sectors
        for j in range(1, model.sigma_size(t.name) + 1)
        for c in range(4)
    ]
    return [
        AbsoluteData((ConnectedAbsoluteData(genus=0, cls=(Q(push),), s_markings=s),))
        for s in markings
        for push in (0, 1)
    ]


@settings(max_examples=30, deadline=None)
@given(pair_model_docs)
def test_psi_round_trips_on_drawn_models(doc):
    # over the FZ-free twin: psi_inverse undoes psi_forward on enumerated
    # relative data, and psi_forward undoes psi_inverse on enumerated
    # absolute data in its image
    twin = FormalPairModel.from_json(fz_free(doc))
    data = enumerate_relative_data(twin, windows=(0, 1), genus_values=(0, 1), components=2, limit=40)
    assert data
    images = []
    for rd in data:
        images.append(psi_forward(twin, rd))
        assert psi_inverse(twin, images[-1]) == rd
    for ad in images + absolute_pool(twin):
        try:
            rd = psi_inverse(twin, ad)
        except OutOfImageError:
            # in codimension >= 2 psi is onto the data whose labels have
            # the phase of a divisor sector; a drawn model may lack some
            (m,) = ad.components[0].s_markings
            R, _ = c_to_Rd(twin.local_model_over(m.sector), m.psi)
            phases = {z.phase for z in twin.z_sectors if z.pi == m.sector}
            assert twin.codim == 1 or frac(R) not in phases
            continue
        twin.validate_relative_data(rd)
        assert psi_forward(twin, rd) == ad
    if any(doc["lattice"]["FZ"]):
        # codimension 1 with a nonzero FZ: pushforward and pairing leave the
        # FZ coordinate free, so no class is recovered; the loader accepts
        # such models all the same
        model = FormalPairModel.from_json(doc)
        assert model.codim == 1
        for rd in data_pool(doc)[:10]:
            ad = psi_forward(model, rd)
            with pytest.raises(DomainError, match="class system is underdetermined"):
                psi_inverse(model, ad)


@settings(max_examples=20, deadline=None)
@given(models_and_data(max_picks=3))
def test_precedes_is_antisymmetric_and_oracle_checked_where_intransitive(drawn):
    model, data = drawn  # distinct data
    for a in data:
        # the minimal companion glues a datum into an equal copy of itself
        # when FZ = 0; a nonzero FZ shifts the copy's class by total contact
        # times FZ, so precedes(a, a) can fail
        image = glue(model, a, companion_rplus(model, n_minimal_companion(a)))
        assert precedes(model, a, image)
        assert image == a or any(model.fz_class)
    before = {(a, b) for a in data for b in data if a != b and precedes(model, a, b)}
    for a, b in before:
        assert (b, a) not in before  # antisymmetric
        for c in data:
            if (b, c) in before and (a, c) not in before:
                # not transitive here: no single bubble datum glues a into
                # c, and the oracle finds none either (fiber rigidity can
                # forbid the composite)
                assert not oracle_precedes(model, a, c)


def _glued_targets(model, host, markings):
    """The data that one bubble block, capping every divisor marking of
    ``host`` and carrying one zero marking from ``markings``, glues it into.

    Such a target has two divisor markings fewer than a 3-marking host, the
    most that gluing can drop on tiny data."""
    capped = host.relative_markings()
    total = sum((m.contact for m in capped), Q(0))
    axis = next(i for i, z in enumerate(model.z_pairing) if z != 0)
    for zero in markings:
        flux = zero.contact - total
        if flux < 0:
            continue
        cls = tuple(flux / model.z_pairing[i] if i == axis else Q(0) for i in range(model.rank))
        block = RPlusComponent(
            genus=0, cls=cls, infinity=tuple(model.dual_marking(m) for m in capped), zero=(zero,)
        )
        try:
            yield glue(model, host, [block])
        except DomainError:
            continue  # flux, effectivity or fiber rigidity fails


@st.composite
def tiny_models_and_data(draw):
    """An ``FZ``-free drawn model and up to 7 tiny data over it: at most 3
    divisor markings, 2 components and genus 1, as the oracle needs.

    Beside data drawn from the enumeration, a host of two genus-0
    components (2 and 1 divisor markings) comes with the targets that one
    block capping all three markings glues it into, so that pairs whose
    target has two divisor markings fewer are drawn too."""
    model = FormalPairModel.from_json(fz_free(draw(pair_model_docs)))
    everything = enumerate_relative_data(
        model, windows=(0,), genus_values=(0, 1), max_markings=2, components=2
    )
    tiny = [rd for rd in everything if len(rd.relative_markings()) <= 3]
    picks = draw(st.lists(st.sampled_from(tiny), min_size=1, max_size=3, unique=True))
    flat = [rd.components[0] for rd in everything if len(rd.components) == 1]
    flat = [c for c in flat if c.genus == 0 and not c.absolute]
    ones = [c for c in flat if len(c.relative) == 1]
    twos = [c for c in flat if len(c.relative) == 2]
    host = RelativeData((draw(st.sampled_from(twos)), draw(st.sampled_from(ones))))
    wide = enumerate_relative_data(model, windows=(0, 1, 2), max_markings=1, abs_per_component=0)
    markings = {m for rd in wide for m in rd.relative_markings()}
    markings = sorted(markings, key=RelativeMarking.sort_key)
    targets = list(dict.fromkeys(_glued_targets(model, host, markings)))
    if targets:
        picks += draw(st.lists(st.sampled_from(targets), max_size=3, unique=True))
    return model, list(dict.fromkeys(picks + [host]))


@settings(max_examples=25, deadline=None)
@given(tiny_models_and_data())
def test_precedes_matches_the_witness_oracle_on_tiny_data(drawn):
    model, data = drawn
    for a, b in product(data, repeat=2):
        assert precedes(model, a, b) == oracle_precedes(model, a, b)
