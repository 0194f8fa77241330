"""The degeneration order and the transfer system on random pair models.

``comparison_matrix`` decides each pair from cell records and builds
nothing; ``find_precedence_witness`` builds the witness of the same
decision, glues it into the target and validates every component.  On
random models (codimension 1 and higher) and data enumerated over them,
the two must agree pair by pair, every built witness must glue, through
the public ``glue``, into its target, and ``precedes`` must be reflexive
(the minimal companion glues a datum into itself) and antisymmetric.
``precedes`` is not a partial order: where ``a`` precedes ``b`` and ``b``
precedes ``c`` but not ``a`` precedes ``c``, the brute-force oracle of
``test_witness_oracle``, which shares no code with the search, must find
no witness either.  On tiny data, ``precedes`` must agree with that oracle
on every pair.  The psi maps must round trip on the same models, and
``assemble_L`` and ``solve_lower_triangular`` must agree with the order,
with a second route to the diagonal, and with the CLI.
"""

import contextlib
import io
import json
import math
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcorr import (
    DomainError,
    FormalPairModel,
    OutOfImageError,
    RPlusComponent,
    TriangularError,
    assemble_L,
    c_bounds,
    c_to_Rd,
    companion_rplus,
    comparison_matrix,
    enumerate_relative_data,
    find_precedence_witness,
    gen_factorial,
    glue,
    h_prime_oracle,
    linear_extension_order,
    n_minimal_companion,
    precedes,
    psi_forward,
    psi_inverse,
    solve_lower_triangular,
)
from wbcorr.cli import main
from wbcorr.pair_model import (
    AbsoluteData,
    ConnectedAbsoluteData,
    RelativeData,
    RelativeMarking,
    SMarking,
)
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import format_rational, frac

from conftest import pair_model_docs
from test_witness_oracle import oracle_precedes


@st.composite
def models_and_data(draw, max_picks=6):
    """A drawn model and distinct data over it: single components and pairs
    of consecutive ones from ``enumerate_relative_data``."""
    model = FormalPairModel.from_json(draw(pair_model_docs))
    pool = enumerate_relative_data(model, windows=(0,), genus_values=(0, 1), components=2)
    # data with divisor markings first, where small indices are drawn most
    pool.sort(key=lambda rd: not rd.relative_markings())
    indices = st.integers(0, len(pool) - 1)
    picks = draw(st.lists(indices, min_size=1, max_size=max_picks, unique=True))
    data = []
    for i in picks:
        # a datum beside its neighbours in enumeration order, which differ
        # from it in genus or ambient markings
        data += pool[i : i + 3]
    return model, list(dict.fromkeys(data))


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
    # psi_inverse undoes psi_forward on enumerated relative data, and
    # psi_forward undoes psi_inverse on enumerated absolute data in its image
    model = FormalPairModel.from_json(doc)
    data = enumerate_relative_data(model, windows=(0, 1), genus_values=(0, 1), components=2, limit=40)
    assert data
    images = []
    for rd in data:
        images.append(psi_forward(model, rd))
        assert psi_inverse(model, images[-1]) == rd
    for ad in images + absolute_pool(model):
        try:
            rd = psi_inverse(model, ad)
        except OutOfImageError:
            # in codimension >= 2 psi is onto the data whose labels carry
            # the phase of a divisor sector; a drawn model may lack some
            (m,) = ad.components[0].s_markings
            R, _ = c_to_Rd(model.local_model_over(m.sector), m.psi)
            phases = {z.phase for z in model.z_sectors if z.pi == m.sector}
            assert model.codim == 1 or frac(R) not in phases
            continue
        model.validate_relative_data(rd)
        assert psi_forward(model, rd) == ad


@settings(max_examples=20, deadline=None)
@given(models_and_data(max_picks=3))
def test_precedes_is_antisymmetric_and_oracle_checked_where_intransitive(drawn):
    model, data = drawn  # distinct data
    for a in data:
        # reflexive: the minimal companion glues a datum into itself
        assert glue(model, a, companion_rplus(model, a)) == a
        assert precedes(model, a, a)
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
    # the capped markings with their hosts, in the canonical order of their duals
    capped = sorted(
        ((ci, model.dual_marking(m)) for ci, c in enumerate(host.components) for m in c.relative),
        key=lambda tag: tag[1].sort_key(),
    )
    total = sum((m.contact for _, m in capped), Q(0))
    axis = next(i for i, z in enumerate(model.z_pairing) if z != 0)
    for zero in markings:
        flux = zero.contact - total
        if flux < 0:
            continue
        cls = tuple(flux / model.z_pairing[i] if i == axis else Q(0) for i in range(model.rank))
        block = RPlusComponent(genus=0, cls=cls, infinity=tuple(m for _, m in capped), zero=(zero,))
        try:
            yield glue(model, host, [(block, tuple(ci for ci, _ in capped))])
        except DomainError:
            continue  # flux, effectivity or fiber rigidity fails


@st.composite
def tiny_models_and_data(draw):
    """A drawn model and up to 7 tiny data over it: at most 3
    divisor markings, 2 components and genus 1, as the oracle needs.

    Beside data drawn from the enumeration, a host of two genus-0
    components (2 and 1 divisor markings) comes with the targets that one
    block capping all three markings glues it into, so that pairs whose
    target has two divisor markings fewer are drawn too."""
    model = FormalPairModel.from_json(draw(pair_model_docs))
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


# A drawn model and data on which the oracle and ``precedes`` once disagreed:
# a witness the search found glued into its target only under its own
# matching, while ``glue`` matched the two equal ``s1`` markings by block order.
MATCHING_DRAW_MODEL = {
    "s_sectors": [
        {"name": "t", "bar": "t", "basis": [{"name": "t_0", "deg": 0}, {"name": "t_1", "deg": 2}]}
    ],
    "z_sectors": [
        {"name": name, "bar": bar, "pi": "t", "phase": phase,
         "local_model": {"r": 1, "beta": [1], "alpha": [3]}}
        for name, bar, phase in [("s0", "s0", "0"), ("s1", "s1b", "1/3"), ("s1b", "s1", "2/3")]
    ],
    "k_classes": ["one_X", "H2_X"],
    "lattice": {"rank": 2, "F": [0, 1], "FZ": [0, 0], "Z_pairing": [0, 1], "kappa_push": [[1, 0]]},
}


def _component(cls, *markings):
    return {
        "genus": 0,
        "class": ["0", cls],
        "absolute": [],
        "relative": [{"sector": sector, "contact": c, "j": 1, "ell": 0} for sector, c in markings],
    }


MATCHING_DRAW_DATA = [
    {"kind": "relative", "components": [_component("4/3", ("s0", "1"), ("s1", "1/3"))]},
    {
        "kind": "relative",
        "components": [
            _component("1/3", ("s1", "1/3")),
            _component("1", ("s1", "1/3"), ("s1b", "2/3")),
        ],
    },
]


@settings(max_examples=25, deadline=None)
@given(tiny_models_and_data())
@example(
    (
        FormalPairModel.from_json(MATCHING_DRAW_MODEL),
        [RelativeData.from_json(doc) for doc in MATCHING_DRAW_DATA],
    )
)
def test_precedes_matches_the_witness_oracle_on_tiny_data(drawn):
    model, data = drawn
    for a, b in product(data, repeat=2):
        assert precedes(model, a, b) == oracle_precedes(model, a, b)


def diagonal_by_h_prime(model, rd):
    """The transfer-matrix diagonal entry of ``rd`` by a second route: the
    product of its contacts times, over its minimal companion's components
    ``(s, R, j, ell)``, ``r h'(R, ell) / prod_u gfact(c_max_u, [tau(R, u)])``
    in the local model of ``s``, with ``h'`` from ``h_prime_oracle``."""
    value = math.prod((m.contact for m in rd.relative_markings()), start=Q(1))
    for m in n_minimal_companion(rd).components:
        local = model.z_sector(m.sector).local_model
        _, c_max = c_bounds(local, m.contact)
        fact = math.prod(
            gen_factorial(c, math.floor(local.tau(m.contact, u))) for u, c in enumerate(c_max, 1)
        )
        value *= local.r * h_prime_oracle(local, m.contact, m.ell) / fact
    return value


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@settings(max_examples=25, deadline=None)
@given(models_and_data(max_picks=2), st.data())
def test_transfer_system_on_drawn_models(drawn, draw):
    model, data = drawn  # distinct data
    order = linear_extension_order(model, data)
    basis = [data[i] for i in order]
    strict = comparison_matrix(model, basis)
    n = len(basis)
    # an off-diagonal entry is admitted exactly where the column precedes
    # the row; a linear extension puts every such column left of its row
    offdiag = {}
    for row, col in product(range(n), repeat=2):
        entry = {(row, col): Q(row + 1, col + 2)}
        if strict[col][row]:
            assert col < row
            assert assemble_L(model, basis, entry)[row][col] == entry[row, col]
            offdiag.update(entry)
        else:
            with pytest.raises(TriangularError):
                assemble_L(model, basis, entry)
    L = assemble_L(model, basis, offdiag)
    for i, j in product(range(n), repeat=2):
        expected = diagonal_by_h_prime(model, basis[i]) if i == j else offdiag.get((i, j), 0)
        assert L[i][j] == expected
    x = draw.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    v = [sum((a * b for a, b in zip(row, x)), Q(0)) for row in L]
    assert solve_lower_triangular(L, v) == x
    # the CLI takes data and off-diagonal entries by input index
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"{name}.json") for name in ("pm", "data", "od", "L", "v")}
        docs = {
            "pm": model.to_json(),
            "data": [rd.to_json() for rd in data],
            "od": [[order[r], order[c], format_rational(e)] for (r, c), e in offdiag.items()],
            "L": [[format_rational(e) for e in row] for row in L],
            "v": [format_rational(e) for e in v],
        }
        for name, doc in docs.items():
            Path(paths[name]).write_text(json.dumps(doc))
        assembled = run_cli(
            "assemble", "--pair-model", paths["pm"], "--data", paths["data"],
            "--offdiag", paths["od"], "--format", "json",
        )
        assert assembled == {"order": order, "matrix": docs["L"]}
        solved = run_cli("solve", "--matrix", paths["L"], "--vector", paths["v"], "--format", "json")
        assert solved == {"solution": [format_rational(e) for e in x]}
