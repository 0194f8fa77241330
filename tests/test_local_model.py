import random

import pytest

from wbcorr import LocalModel, SchemaError, SectorError, SectorIndex
from wbcorr.local_model import degree_shift_of_label
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import frac

from conftest import random_local_model

M2 = LocalModel(r=2, beta=(1, 2), alpha=(1, 1))
M1 = LocalModel(r=1, beta=(1,), alpha=(1,))


def s(b, num, den=1):
    return SectorIndex(b, Q(num, den))


def test_isotropy_group_examples():
    assert M1.isotropy_group(1) == {s(0, 0)}
    assert M2.isotropy_group(1) == {s(0, 0), s(1, 1, 2)}
    assert M2.isotropy_group(2) == {s(0, 0), s(1, 0)}


def test_isotropy_group_bad_index():
    with pytest.raises(SectorError):
        M2.isotropy_group(3)
    with pytest.raises(SectorError):
        M2.isotropy_group(0)


def test_sector_index_set_examples():
    assert set(M1.sector_index_set()) == {s(0, 0)}
    assert set(M2.sector_index_set()) == {s(0, 0), s(1, 0), s(1, 1, 2)}
    both = LocalModel(r=2, beta=(2, 2), alpha=(1, 1))
    assert set(both.sector_index_set()) == {s(0, 0), s(1, 0)}


def test_sector_index_set_sorted_canonically():
    listed = M2.sector_index_set()
    assert listed == sorted(listed)


def test_sector_support_examples():
    assert M2.sector_support(s(0, 0)) == {1, 2}
    assert M2.sector_support(s(1, 1, 2)) == {1}
    assert M2.sector_support(s(1, 0)) == {2}


def test_sector_support_rejects_foreign_sector():
    with pytest.raises(SectorError):
        M2.sector_support(s(1, 1, 3))


def test_support_membership_iff_in_some_group():
    rng = random.Random(11)
    drawn = [random_local_model(rng, max_r=12) for _ in range(40)]
    for model in [M2, LocalModel(r=3, beta=(1, 2, 3), alpha=(2, 1, 1)), *drawn]:
        groups = [model.isotropy_group(i) for i in range(1, model.n + 1)]
        assert model.sector_index_set() == sorted(set().union(*groups))
        for delta in model.sector_index_set():
            support = model.sector_support(delta)
            assert support
            assert support == {i for i in range(1, model.n + 1) if delta in groups[i - 1]}
            support.clear()  # a fresh set each call
            assert model.sector_support(delta)


def test_tau_examples():
    assert M2.tau(Q(1, 2), 1) == 0
    assert M2.tau(Q(1, 2), 2) == Q(-1, 2)
    assert M2.tau(0, 1) == Q(-1, 2)
    assert M2.tau(0, 2) == -1


def test_fixed_coordinate_condition():
    # u lies in the support of (1, {R}) exactly when tau(R, u) is an integer
    model = LocalModel(r=4, beta=(1, 2, 4), alpha=(3, 1, 2))
    for R in [Q(1, 12), Q(1, 2), Q(3, 4), Q(1), Q(7, 4)]:
        delta = SectorIndex(1, frac(R))
        taus = {u for u in range(1, 4) if model.tau(R, u).denominator == 1}
        if taus:
            assert model.sector_support(delta) == taus


def test_degree_shift_examples():
    assert M2.degree_shift(0, 0) == 0
    assert M2.degree_shift(1, Q(1, 2)) == Q(1, 2)
    assert M2.degree_shift(1, 0) == Q(1, 2)


def test_degree_shift_range_check():
    with pytest.raises(SectorError):
        M2.degree_shift(2, 0)
    with pytest.raises(SectorError):
        M2.degree_shift(-1, 0)


def test_d_top_examples():
    assert M1.d_top() == 1
    assert M2.d_top() == 1
    assert LocalModel(r=3, beta=(1, 2), alpha=(1, 1)).d_top() == 0


def test_label_degree_shift_adds_projectification_phase():
    model = LocalModel(r=3, beta=(1, 2, 3), alpha=(2, 1, 1))
    R = Q(1, 6)
    assert degree_shift_of_label(model, R) == model.degree_shift(1, R) + frac(R)


def test_conjugate_model():
    assert M2.conjugate() == LocalModel(r=2, beta=(1, 2), alpha=(1, 1))
    m = LocalModel(r=5, beta=(1, 2, 5), alpha=(1, 1, 3))
    assert m.conjugate() == LocalModel(r=5, beta=(4, 3, 5), alpha=(1, 1, 3))
    assert m.conjugate().conjugate() == m


def test_json_roundtrip_and_validation():
    doc = {"r": 2, "beta": [1, 2], "alpha": [1, 1]}
    assert LocalModel.from_json(doc) == M2
    assert M2.to_json() == doc
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 2, "beta": [0, 1], "alpha": [1, 1]})
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 2, "beta": [1, 3], "alpha": [1, 1]})
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 2, "beta": [1], "alpha": [1, 1]})
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 2, "beta": [1, 2], "alpha": [1, 0]})
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 0, "beta": [], "alpha": []})
    with pytest.raises(SchemaError):
        LocalModel.from_json({"r": 1, "beta": [1], "alpha": [1], "extra": 1})
