"""The comparison matrix against built witnesses on random pair models.

``comparison_matrix`` decides each pair from cell records and builds
nothing; ``find_precedence_witness`` builds the witness of the same
decision, glues it into the target and validates every component.  On
random models (codimension 1 and higher, ``FZ`` zero and nonzero) and
data enumerated over them, the two must agree pair by pair, and every
built witness must glue, through the public ``glue``, into its target.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import (
    FormalPairModel,
    comparison_matrix,
    enumerate_relative_data,
    find_precedence_witness,
    glue,
)
from wbcorr.pair_model import ConnectedRelativeData, RelativeData

from conftest import pair_model_docs


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
    if fz:
        twin = {key: lattice[key][:2] for key in ("F", "FZ", "Z_pairing")}
        twin.update(rank=2, kappa_push=[row[:2] for row in lattice["kappa_push"]])
        doc = {**doc, "lattice": twin}
    data = enumerate_relative_data(
        FormalPairModel.from_json(doc), windows=(0,), genus_values=(0, 1), components=2
    )
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
def models_and_data(draw):
    doc = draw(pair_model_docs)
    # data with divisor markings first, where small indices are drawn most
    pool = sorted(data_pool(doc), key=lambda rd: not rd.relative_markings())
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6, unique=True))
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
