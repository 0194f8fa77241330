import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import LabelError, LocalModel
from wbcorr.local_model import degree_shift_of_label
from wbcorr.ranking import (
    c_bounds,
    c_to_Rd,
    lambda_preimages,
    lambda_value,
    moduli_dim,
    moduli_dim_oracle,
    rk_pair,
    rk_tilde,
    sector_dim,
    window,
)
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import floor, frac

from conftest import random_local_model

M2 = LocalModel(r=2, beta=(1, 2), alpha=(1, 1))
M11 = LocalModel(r=1, beta=(1, 1), alpha=(1, 1))
M1 = LocalModel(r=1, beta=(1,), alpha=(1,))
M_ALPHA2 = LocalModel(r=1, beta=(1,), alpha=(2,))

MODELS = [
    M2,
    M11,
    M1,
    M_ALPHA2,
    LocalModel(r=3, beta=(1, 2, 3), alpha=(2, 1, 1)),
    LocalModel(r=4, beta=(2, 4, 1), alpha=(1, 3, 2)),
    LocalModel(r=6, beta=(1, 6, 3, 2), alpha=(2, 1, 4, 1)),
]


def brute_ranked_labels(model, count):
    """Independent oracle for the rank bijection: list every label from a
    wide direct enumeration of (coordinate, cover) pairs, sorted by value,
    with the H-power running downward inside each label."""
    upper = count // model.weight_total + 2
    mults = {}
    for j in range(1, model.n + 1):
        for a in range(upper * model.alpha[j - 1]):
            value = lambda_value(model, j, a)
            mults[value] = mults.get(value, 0) + 1
    ranked = []
    for label in sorted(mults):
        for ell in reversed(range(mults[label])):
            ranked.append((label, ell))
    return ranked[:count]


def test_lambda_value_examples():
    assert lambda_value(M2, 1, 0) == Q(1, 2)
    assert lambda_value(M2, 2, 1) == 2
    assert lambda_value(M1, 1, 0) == 1


def test_lambda_value_validation():
    with pytest.raises(Exception):
        lambda_value(M2, 3, 0)
    with pytest.raises(LabelError):
        lambda_value(M2, 1, -1)


def test_rk_pair_examples():
    assert rk_pair(M2, Q(1, 2)) == (1, 1)
    assert rk_pair(M2, 1) == (2, 2)
    assert rk_pair(M11, 1) == (1, 2)


def test_window_examples():
    assert window(M2, 0) == [(Q(1, 2), 1), (Q(1), 1)]
    assert window(M11, 0) == [(Q(1), 2)]
    assert window(M_ALPHA2, 0) == [(Q(1, 2), 1), (Q(1), 1)]


def test_c_to_Rd_examples():
    assert c_to_Rd(M2, 0) == (Q(1, 2), 0)
    assert c_to_Rd(M11, 0) == (Q(1), 1)
    assert c_to_Rd(M11, 1) == (Q(1), 0)


def test_moduli_dim_examples():
    assert moduli_dim(M2, Q(1, 2)) == 1
    assert moduli_dim(M2, 1) == 2
    assert moduli_dim(M1, 1) == 1
    assert moduli_dim_oracle(M2, Q(1, 2)) == 1
    assert moduli_dim_oracle(M2, 1) == 2
    assert moduli_dim_oracle(M1, 2) == 2


def test_moduli_dim_rejects_non_labels():
    with pytest.raises(LabelError):
        moduli_dim(M2, Q(1, 3))
    with pytest.raises(LabelError):
        moduli_dim_oracle(M2, Q(1, 3))
    with pytest.raises(LabelError):
        moduli_dim(M2, Q(-1, 2))


def test_c_bounds_examples():
    assert c_bounds(M2, Q(1, 2)) == ([Q(1, 2), Q(1)], [Q(1, 2), Q(0)])
    assert c_bounds(M1, 1) == ([Q(1)], [Q(1)])
    assert c_bounds(M11, 1)[1] == [Q(1), Q(1)]


def test_rank_bijection_against_brute_oracle():
    for model in MODELS:
        expected = brute_ranked_labels(model, 60)
        for c in range(60):
            R, d = c_to_Rd(model, c)
            assert (R, d) == expected[c]
            assert rk_tilde(model, R, d) == c + 1


def test_window_multiplicities_total_weight():
    for model in MODELS:
        for k in range(4):
            assert sum(mult for _R, mult in window(model, k)) == model.weight_total


def test_shift_laws():
    for model in MODELS:
        for R, _mult in window(model, 0) + window(model, 1):
            assert rk_pair(model, R + 1)[1] == rk_pair(model, R)[1] + model.weight_total
            assert moduli_dim(model, R + 1) == moduli_dim(model, R) + model.weight_total


def test_dim_monotone_and_gap_law():
    for model in MODELS:
        labels = [R for k in range(3) for R, _m in window(model, k)]
        dims = [moduli_dim(model, R) for R in labels]
        assert dims == sorted(dims)
        assert len(set(dims)) == len(dims)
        for r1, r2 in zip(labels, labels[1:]):
            gap = len(lambda_preimages(model, r2))
            assert moduli_dim(model, r1) <= moduli_dim(model, r2) - gap


def test_oracle_agreement_and_third_route():
    rng = random.Random(20240811)
    for _ in range(60):
        model = random_local_model(rng)
        for k in range(3):
            for R, mult in window(model, k):
                direct = moduli_dim(model, R)
                assert direct == moduli_dim_oracle(model, R)
                # third route through the grading shift of the label sector
                shift = degree_shift_of_label(model, R)
                beta_sum = sum(Q(b, model.r) for b in model.beta)
                third = (
                    (1 + model.weight_total) * R
                    + model.n
                    - 1
                    - (beta_sum - model.d_top())
                    - shift
                    - floor(R)
                )
                assert third.denominator == 1 and int(third) == direct
                assert sector_dim(model, R) == mult - 1
                assert sector_dim(model, R) == rk_pair(model, R)[1] - rk_pair(model, R)[0]


def test_sector_dim_bookkeeping():
    # c derived from (R, d) satisfies c = dim - d_top - d
    for model in MODELS:
        for c in range(30):
            R, d = c_to_Rd(model, c)
            assert c == moduli_dim(model, R) - model.d_top() - d


def test_fractional_parts_constant_on_label_ladder():
    for model in MODELS:
        for R, _m in window(model, 0):
            assert frac(R + 1) == frac(R)
            assert lambda_preimages(model, R + 1) == [
                (j, a + model.alpha[j - 1]) for j, a in lambda_preimages(model, R)
            ]


# Random models with n <= 5, r <= 8, alpha <= 5, drawn through the shared helper.
local_models = st.randoms(use_true_random=False).map(
    lambda rng: random_local_model(rng, max_r=8, max_alpha=5)
)


def enumerated_pairs(model, upper):
    """Every ``(j, a)`` whose label is at most ``upper``, with that label,
    straight from ``lambda_value``."""
    out = []
    for j in range(1, model.n + 1):
        for a in range(math.ceil(upper) * model.alpha[j - 1] + 1):
            label = lambda_value(model, j, a)
            if label <= upper:
                out.append((j, a, label))
    return out


@settings(max_examples=60, deadline=None)
@given(local_models, st.integers(1, 60), st.integers(1, 12))
def test_integer_ladder_kernels_against_enumeration(model, p, q):
    windows = 3
    count = windows * model.weight_total
    expected = brute_ranked_labels(model, count)
    assert [c_to_Rd(model, c) for c in range(count)] == expected

    pairs = enumerated_pairs(model, max(windows, Q(p, q)) + 1)
    for k in range(windows):
        mults = {}
        for _j, _a, label in pairs:
            if k < label <= k + 1:
                mults[label] = mults.get(label, 0) + 1
        assert window(model, k) == sorted(mults.items())

    labels = sorted({label for _j, _a, label in pairs if label <= windows})
    probes = labels + [(x + y) / 2 for x, y in zip(labels, labels[1:])] + [Q(p, q)]
    for R in probes:
        below = [(j, a) for j, a, label in pairs if label < R]
        at = [(j, a) for j, a, label in pairs if label == R]
        assert rk_pair(model, R) == (len(below) + 1, len(below) + len(at))
        assert lambda_preimages(model, R) == sorted(at)
        if at:
            c_min, c_max = c_bounds(model, R)
            assert c_min == [Q(b, model.r) for b in model.beta]
            for j in range(1, model.n + 1):
                covers = sum(1 for i, _a, label in pairs if i == j and label <= R)
                assert c_max[j - 1] == c_min[j - 1] + covers - 1
