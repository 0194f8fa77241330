import copy
import math
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import DomainError, FormalPairModel, SchemaError, enumerate_relative_data
from wbcorr.pair_model import (
    AbsoluteMarking,
    ConnectedRelativeData,
    RelativeData,
    RelativeMarking,
    load_data,
    solve_exact,
)
from wbcorr.rationals import Rational as Q

from conftest import PAIR_MODEL_B


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
    with pytest.raises(DomainError):
        pm_b.z_sector_for("t1", Q(1, 3))
    with pytest.raises(DomainError):
        pm_b.local_model_over("nowhere")


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
    ],
)
def test_model_validation_rejects(mutate):
    with pytest.raises(SchemaError):
        FormalPairModel.from_json(_variant(PAIR_MODEL_B, mutate))


def test_codim1_model_waives_fiber_positivity(pm_codim1):
    assert pm_codim1.codim == 1
    assert pm_codim1.zp(pm_codim1.f_class) == 0


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
