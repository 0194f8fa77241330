import copy
import math
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import (
    DomainError,
    FormalPairModel,
    LocalModel,
    SchemaError,
    SectorError,
    enumerate_relative_data,
)
from wbcorr import pair_model
from wbcorr.correspondence import RPlusComponent
from wbcorr.pair_model import (
    AbsoluteData,
    AbsoluteMarking,
    ConnectedAbsoluteData,
    ConnectedRelativeData,
    NMinimalData,
    RelativeData,
    RelativeMarking,
    SMarking,
    load_data,
    solve_exact,
)
from wbcorr.ranking import lambda_preimages, sector_dim
from wbcorr.rationals import Rational as Q

from conftest import (
    PAIR_MODEL_A,
    PAIR_MODEL_B,
    PAIR_MODEL_C,
    PAIR_MODEL_CODIM1,
    random_local_model,
    random_pair_model,
)


def _variant(doc, mutate):
    out = copy.deepcopy(doc)
    mutate(out)
    return out


def test_model_roundtrip(pm_b):
    assert FormalPairModel.from_json(pm_b.to_json()).to_json() == pm_b.to_json()
    assert pm_b.codim == 2
    assert pm_b.push_rank == 1


def test_model_lookup_helpers(pm_b):
    assert pm_b.bar_s("t1") == "t1"
    assert pm_b.bar_z("sa") == "sa"
    assert pm_b.sigma_size("t1") == 2
    assert pm_b.ell_max("s0") == 1
    assert pm_b.ell_max("sa") == 0
    assert pm_b.z_sector_for("t1", Q(1, 2)).name == "sa"
    assert pm_b.z_sector_for("t1", Q(3, 2)).name == "sa"  # the phase is read mod 1
    assert pm_b.local_model_over("t1") == pm_b.z_sector("sa").local_model
    with pytest.raises(DomainError, match=r"^no divisor sector over 't1' with phase 1/3$"):
        pm_b.z_sector_for("t1", Q(1, 3))
    with pytest.raises(DomainError, match=r"^no divisor sector over 'nowhere' with phase 0$"):
        pm_b.z_sector_for("nowhere", 0)
    with pytest.raises(DomainError, match=r"^no divisor sector projects to 'nowhere'$"):
        pm_b.local_model_over("nowhere")
    with pytest.raises(DomainError, match=r"^unknown divisor sector 'nowhere'$"):
        pm_b.ell_max("nowhere")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["s_sectors"][0].update(bar="t1"),
        lambda d: d["z_sectors"][0].update(bar="sa"),
        lambda d: d["z_sectors"][1].update(pi="missing"),
        lambda d: d["z_sectors"][1].update(phase="1/3"),
        lambda d: d["z_sectors"][1]["local_model"].update(beta=[1, 1]),
        lambda d: d["lattice"].update(F=[1, 1]),
        lambda d: d["lattice"].update(FZ=[1, 0]),
        lambda d: d["lattice"].update(Z_pairing=[0, 0]),
        lambda d: d["lattice"].update(kappa_push=[[1, 0], [0, 1]]),
        lambda d: d["lattice"].update(rank=3),
        lambda d: d.update(k_classes=["one_X", "one_X"]),
        lambda d: d["lattice"].update(kappa_push=[[0, 0]]),  # rank 1 < 2 with Z_pairing
        lambda d: d["z_sectors"].append(5),
        lambda d: d["s_sectors"].append("t2"),
        lambda d: d["lattice"].update(F=[0, None]),
        lambda d: d["lattice"].update(kappa_push=[7]),
        lambda d: d["lattice"].update(kappa_push=["10"]),  # not read as [1, 0]
    ],
)
def test_model_validation_rejects(mutate):
    with pytest.raises(SchemaError):
        FormalPairModel.from_json(_variant(PAIR_MODEL_B, mutate))


def _h_power_mismatch(doc):
    # s over t has ell_max 1; its partner over tb, at the same phase 0 of a
    # model with the same codimension, has ell_max 0
    doc["s_sectors"] = [
        {"name": "t", "bar": "tb", "basis": [{"name": "p", "deg": 0}]},
        {"name": "tb", "bar": "t", "basis": [{"name": "q", "deg": 0}]},
    ]
    s, sb = doc["z_sectors"][0], copy.deepcopy(doc["z_sectors"][0])
    s.update(bar="sb")
    sb.update(name="sb", bar="s", pi="tb", local_model={"r": 2, "beta": [1, 2], "alpha": [1, 1]})
    doc["z_sectors"].append(sb)


@pytest.mark.parametrize(
    "mutate, message",
    [
        # the distinguished sector (1, 0) is not in Z_2 acting with weight 1
        (
            lambda d: d["z_sectors"][0].update(local_model={"r": 2, "beta": [1], "alpha": [1]}),
            r"^phase of 's' is not a sector of its local model$",
        ),
        (_h_power_mismatch, r"^H-power ranges differ between 's' and 'sb'$"),
    ],
)
def test_model_validation_messages(mutate, message):
    with pytest.raises(SchemaError, match=message):
        FormalPairModel.from_json(_variant(PAIR_MODEL_A, mutate))


@pytest.mark.parametrize(
    "fz, message",
    [
        # FZ pushes and pairs to zero, so nothing fixes its coordinate
        ([0, 1], "FZ must be zero"),
        # FZ = 0, but the lattice is still undetermined
        ([0, 0], "do not determine classes uniquely"),
    ],
)
def test_codim1_model_validation_rejects_undetermined_lattices(fz, message):
    lattice = {"rank": 2, "F": [0, 1], "FZ": fz, "Z_pairing": [2, 0], "kappa_push": [[1, 0]]}
    with pytest.raises(SchemaError, match=message):
        FormalPairModel.from_json({**PAIR_MODEL_CODIM1, "lattice": lattice})


def test_codim1_model_waives_fiber_positivity(pm_codim1):
    assert pm_codim1.codim == 1
    assert pm_codim1.zp(pm_codim1.f_class) == 0


# Z_2 acting with weight 1 on C: the distinguished sector (1, 0) is not a sector
M2_1 = {"r": 2, "beta": [1], "alpha": [1]}


def test_loading_never_builds_an_isotropy_group(monkeypatch):
    rng = random.Random(3)
    docs = [PAIR_MODEL_A, PAIR_MODEL_B, PAIR_MODEL_C, PAIR_MODEL_CODIM1]
    docs += [random_pair_model(rng) for _ in range(30)]  # drawing reads the sectors

    def isotropy_group(model, i):
        raise AssertionError("a pair model built an isotropy group")

    monkeypatch.setattr(LocalModel, "isotropy_group", isotropy_group)
    for doc in docs:
        model = FormalPairModel.from_json(doc)
        assert enumerate_relative_data(model, windows=(0, 1), limit=20)
    off_sector = _variant(PAIR_MODEL_A, lambda d: d["z_sectors"][0].update(local_model=M2_1))
    with pytest.raises(SchemaError, match="is not a sector of its local model"):
        FormalPairModel.from_json(off_sector)


def test_sector_support_is_the_label_preimages_on_drawn_models():
    # the loader's route (the preimages of the label in (0, 1] at the phase)
    # against the sector route, over every phase with the ladder's denominator
    rng = random.Random(5)
    for _ in range(60):
        local = random_local_model(rng)
        den = local.ladder.den
        for p in range(den):
            phase = Fraction(p, den)
            label = phase or 1
            try:
                support = local.sector_support(local.distinguished_sector(phase))
            except SectorError:
                assert lambda_preimages(local, label) == []
                continue
            assert sector_dim(local, label) == len(support) - 1


def test_lattice_operations(pm_b):
    assert pm_b.zp((Q(3), Q(1, 2))) == Q(1, 2)
    assert pm_b.push((Q(3), Q(1, 2))) == (Q(3),)
    assert pm_b.solve_class((Q(3),), Q(1, 2)) == (Q(3), Q(1, 2))
    assert pm_b.lift((Q(3),)) == (Q(3), Q(0))


def test_unit_pairing_is_memoised_per_model(pm_b, pm_codim1):
    for model in (pm_b, pm_codim1):
        unit = model.unit_pairing
        norm = model.zp(model.z_pairing)
        assert model.zp(unit) == 1
        assert tuple(u * norm for u in unit) == model.z_pairing  # along the pairing
        assert model.unit_pairing is unit


def test_marking_validation_is_memoised_per_model(monkeypatch):
    labels = []
    require = pair_model.require_fiber_label

    def counted(local_model, contact):
        labels.append(contact)
        return require(local_model, contact)

    monkeypatch.setattr(pair_model, "require_fiber_label", counted)
    good = RelativeMarking("sb", Q(1), 1, 0)
    bad = [
        RelativeMarking("sa", Q(-1, 2), 1, 0),  # fails the label check
        RelativeMarking("sa", Q(1, 2), 3, 0),  # fails after it: basis index
        RelativeMarking("sa", Q(1, 2), 1, 9),  # fails after it: H-power
    ]
    models = [FormalPairModel.from_json(PAIR_MODEL_B) for _ in range(2)]
    for model in models:
        for _ in range(3):
            model.validate_relative_marking(good)
            for m in bad:
                with pytest.raises(DomainError):
                    model.validate_relative_marking(m)
    # a valid marking reaches the label check once per model, and an
    # invalid one is checked, and raises, on every call
    assert labels.count(Q(1)) == len(models)
    assert labels.count(Q(-1, 2)) == 3 * len(models)
    assert labels.count(Q(1, 2)) == 2 * 3 * len(models)


def test_solve_exact_inconsistent_and_underdetermined():
    assert solve_exact([[1, 0], [0, 1]], [2, 3]) == (Q(2), Q(3))
    assert solve_exact([[1], [2]], [1, 3]) is None
    with pytest.raises(DomainError):
        solve_exact([[1, 1]], [1])
    with pytest.raises(DomainError):
        solve_exact([[1, 0], [2, 0]], [0, 0])


def _det(m):
    """Leibniz determinant of a square matrix."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(m, perm))
    return total


def _brute_rank(m):
    """Rank as the size of the largest nonzero minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(m, k):
            for cols in combinations(range(len(m[0])), k):
                if _det([[row[c] for c in cols] for row in rows]) != 0:
                    return k
    return 0


@st.composite
def linear_systems(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=n, max_size=n))
    values = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    if draw(st.booleans()):
        b = draw(st.lists(values, min_size=n, max_size=n))
    else:  # consistent by construction
        x0 = draw(st.lists(values, min_size=m, max_size=m))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    return A, b


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_exact_agrees_with_brute_force_ranks(system):
    A, b = system
    rank_a = _brute_rank(A)
    if rank_a < _brute_rank([row + [x] for row, x in zip(A, b)]):
        assert solve_exact(A, b) is None
    elif rank_a < len(A[0]):
        with pytest.raises(DomainError):
            solve_exact(A, b)
    else:
        x = solve_exact(A, b)
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


def test_data_canonicalization_and_hashing(pm_b):
    m1 = RelativeMarking("sa", Q(1, 2), 1, 0)
    m2 = RelativeMarking("sb", Q(1), 1, 0)
    a = ConnectedRelativeData(genus=0, cls=(Q(0), Q(3, 2)), relative=(m1, m2))
    b = ConnectedRelativeData(genus=0, cls=(Q(0), Q(3, 2)), relative=(m2, m1))
    assert a == b and hash(a) == hash(b)
    other = ConnectedRelativeData(genus=1, cls=(Q(0), Q(0)))
    assert RelativeData((a, other)) == RelativeData((other, b))


_AMBIENT = (AbsoluteMarking("amb", "one_X", 1), AbsoluteMarking("amb", "H2_X", 0))
_DIVISOR = (RelativeMarking("sb", 1, 1, 0), RelativeMarking("sa", Q(1, 2), 2, 0))
_BASE = (SMarking("t1", 2, 0), SMarking("t0", 1, 3))
_CRD = (
    ConnectedRelativeData(1, (0, 0)),
    ConnectedRelativeData(0, (0, Q(3, 2)), _AMBIENT, _DIVISOR),
)
_CAD = (ConnectedAbsoluteData(0, (2,), _AMBIENT, _BASE), ConnectedAbsoluteData(0, (1,)))

# each type with the keyword arguments before its marking or component
# lists, and those lists
_CANONICAL_CASES = {
    "ConnectedRelativeData": (
        partial(ConnectedRelativeData, genus=1, cls=(2, Q(1, 2))),
        {"absolute": _AMBIENT, "relative": _DIVISOR},
    ),
    "ConnectedAbsoluteData": (
        partial(ConnectedAbsoluteData, genus=0, cls=(3,)),
        {"absolute": _AMBIENT, "s_markings": _BASE},
    ),
    "RPlusComponent": (
        partial(RPlusComponent, genus=0, cls=(0, Q(1, 2))),
        {"absolute": _AMBIENT, "infinity": _DIVISOR, "zero": _DIVISOR[1:] + _DIVISOR},
    ),
    "RelativeData": (RelativeData, {"components": _CRD}),
    "AbsoluteData": (AbsoluteData, {"components": _CAD}),
    "NMinimalData": (NMinimalData, {"components": _DIVISOR}),
}


@pytest.mark.parametrize("make, lists", _CANONICAL_CASES.values(), ids=_CANONICAL_CASES)
def test_one_canonical_form_for_components_and_multisets(make, lists):
    a = make(**lists)
    b = make(**{name: list(reversed(items)) for name, items in lists.items()})
    assert a == b and hash(a) == hash(b)
    for name, items in lists.items():
        got = getattr(a, name)
        assert type(got) is tuple
        assert list(got) == sorted(items, key=lambda x: x.sort_key())
    components = a.components if hasattr(a, "components") else (a,)
    for comp in components:
        for c in getattr(comp, "cls", ()):
            assert type(c) is Fraction
        for m in getattr(comp, "relative", ()):
            assert type(m.contact) is Fraction


@pytest.mark.parametrize(
    "datum",
    [RelativeData(_CRD), AbsoluteData(_CAD), RelativeData(), AbsoluteData(), NMinimalData(_DIVISOR)],
    ids=["relative", "absolute", "empty-relative", "empty-absolute", "n-minimal"],
)
def test_data_from_json_inverts_to_json(datum):
    doc = datum.to_json()
    back = type(datum).from_json(doc)
    assert back == datum and hash(back) == hash(datum)
    assert back.to_json() == doc
    # a minimal bubble datum is written as a companion, never read as data
    if not isinstance(datum, NMinimalData):
        assert load_data(doc) == datum


def test_data_json_roundtrip(pm_b):
    rd = RelativeData(
        (
            ConnectedRelativeData(
                genus=1,
                cls=(Q(2), Q(1, 2)),
                absolute=(AbsoluteMarking("amb", "one_X", 0),),
                relative=(RelativeMarking("sa", Q(1, 2), 1, 0),),
            ),
        )
    )
    doc = rd.to_json()
    assert load_data(doc) == rd
    pm_b.validate_relative_data(rd)


def test_load_data_rejects_bad_documents():
    with pytest.raises(SchemaError):
        load_data({"components": []})
    with pytest.raises(SchemaError):
        load_data({"kind": "mystery", "components": []})
    with pytest.raises(SchemaError):
        load_data({"kind": "relative", "components": [{"genus": -1, "class": []}]})
    with pytest.raises(SchemaError):
        load_data(
            {
                "kind": "relative",
                "components": [
                    {
                        "genus": 0,
                        "class": ["0", "1/0"],
                        "absolute": [],
                        "relative": [],
                    }
                ],
            }
        )


def test_class_length_messages(pm_b):
    short = RelativeData((ConnectedRelativeData(0, (0,)),))
    with pytest.raises(DomainError, match=r"^class vector length 1 != lattice rank 2$"):
        pm_b.validate_relative_data(short)
    long = AbsoluteData((ConnectedAbsoluteData(0, (0, 0)),))
    with pytest.raises(DomainError, match=r"^class vector length 2 != downstairs rank 1$"):
        pm_b.validate_absolute_data(long)


def test_validate_relative_data_errors(pm_b):
    bad_insertion = RelativeData(
        (
            ConnectedRelativeData(
                genus=0,
                cls=(Q(0), Q(1, 2)),
                relative=(RelativeMarking("sa", Q(1, 2), 3, 0),),
            ),
        )
    )
    with pytest.raises(DomainError):
        pm_b.validate_relative_data(bad_insertion)
    wrong_phase = RelativeData(
        (
            ConnectedRelativeData(
                genus=0,
                cls=(Q(0), Q(1)),
                relative=(RelativeMarking("sa", Q(1), 1, 0),),
            ),
        )
    )
    with pytest.raises(DomainError):
        pm_b.validate_relative_data(wrong_phase)
    bad_contact_sum = RelativeData(
        (
            ConnectedRelativeData(
                genus=0,
                cls=(Q(0), Q(2)),
                relative=(RelativeMarking("sa", Q(1, 2), 1, 0),),
            ),
        )
    )
    with pytest.raises(DomainError):
        pm_b.validate_relative_data(bad_contact_sum)
    bad_k_class = RelativeData(
        (
            ConnectedRelativeData(
                genus=0,
                cls=(Q(0), Q(0)),
                absolute=(AbsoluteMarking("amb", "mystery", 0),),
            ),
        )
    )
    with pytest.raises(DomainError):
        pm_b.validate_relative_data(bad_k_class)


def test_enumeration_is_deterministic_and_valid(pm_b):
    once = enumerate_relative_data(pm_b, windows=(0,), genus_values=(0, 1), limit=100)
    twice = enumerate_relative_data(pm_b, windows=(0,), genus_values=(0, 1), limit=100)
    assert once == twice
    assert len(once) == len(set(once)) == 100
    for rd in once:
        pm_b.validate_relative_data(rd)


def test_enumeration_codim1(pm_codim1):
    data = enumerate_relative_data(
        pm_codim1, windows=(0, 1), genus_values=(0,), push_coeffs=(0, 1, 2)
    )
    assert data
    for rd in data:
        pm_codim1.validate_relative_data(rd)
