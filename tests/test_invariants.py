import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcorr import DomainError, ImproperPairError, LabelError, LocalModel, ProperInsertionPair
from wbcorr.cli import main
from wbcorr.invariants import h_invariant, h_prime_oracle, localization_sum, relative_invariant
from wbcorr.ranking import c_bounds, c_to_Rd, lambda_preimages, rk_tilde, sector_dim, window
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import floor, format_rational, gen_factorial

from conftest import random_local_model

M2 = LocalModel(r=2, beta=(1, 2), alpha=(1, 1))
M1 = LocalModel(r=1, beta=(1,), alpha=(1,))
M11 = LocalModel(r=1, beta=(1, 1), alpha=(1, 1))
M211 = LocalModel(r=2, beta=(1, 1), alpha=(1, 1))


def test_h_invariant_examples():
    assert h_invariant(M2, Q(1, 2), 0) == 1
    assert h_invariant(M1, 1, 0) == 1
    assert h_invariant(M1, 2, 0) == Q(1, 2)


def test_h_prime_oracle_examples():
    assert h_prime_oracle(M2, Q(1, 2), 0) == Q(1, 2)
    assert h_prime_oracle(M1, 1, 0) == 1
    assert h_prime_oracle(M11, 1, 1) == 1
    assert h_prime_oracle(M211, Q(1, 2), 1) == Q(1, 4)


def test_h_invariant_range_checks():
    with pytest.raises(DomainError):
        h_invariant(M2, Q(1, 3), 0)
    with pytest.raises(DomainError):
        h_invariant(M2, Q(1, 2), 1)  # sector dim is 0 there
    with pytest.raises(DomainError):
        h_prime_oracle(M11, 1, 2)


@pytest.mark.parametrize(
    "R, d, message",
    [
        (Q(1, 2), 1, "H-power 1 outside [0, 0] for label 1/2"),
        ("2/4", -1, "H-power -1 outside [0, 0] for label 1/2"),
        (1, 2, "H-power 2 outside [0, 1] for label 1"),
    ],
)
def test_h_power_range_check_reads_alike_everywhere(R, d, message):
    model = M11 if R == 1 else M2
    for fn in (rk_tilde, h_invariant, h_prime_oracle):
        with pytest.raises(LabelError) as excinfo:
            fn(model, R, d)
        assert str(excinfo.value) == message, fn.__name__


def test_localization_examples():
    assert localization_sum([1, 2], 0) == 0
    assert localization_sum([1, 2], 1) == 1
    assert localization_sum([1, 2, 3], 2) == 1


def test_localization_rejects_repeats_and_empty():
    with pytest.raises(DomainError):
        localization_sum([1, 1], 0)
    with pytest.raises(DomainError):
        localization_sum([], 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(lambda p, q: Q(p, q), st.integers(-40, 40), st.integers(1, 7)),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.integers(0, 7),
)
def test_localization_identity(lams, d):
    value = localization_sum(lams, d)
    m = len(lams)
    if d <= m - 2:
        assert value == 0
    elif d == m - 1:
        assert value == 1


def test_relative_invariant_examples():
    assert relative_invariant(M2, ProperInsertionPair(c=0, i=1, j=2)) == 0
    assert relative_invariant(M2, ProperInsertionPair(c=0, i=1, j=1)) == 2
    assert relative_invariant(M1, ProperInsertionPair(c=0, i=1, j=1)) == 1


def test_relative_invariant_rejects_improper_pair():
    # c = 0 on M11 determines d = 1; supplying d = 0 is a degree mismatch
    assert c_to_Rd(M11, 0) == (Q(1), 1)
    with pytest.raises(ImproperPairError):
        relative_invariant(M11, ProperInsertionPair(c=0, i=1, j=1, d=0))
    with pytest.raises(ImproperPairError):
        relative_invariant(M2, ProperInsertionPair(c=0, i=0, j=0))


def test_supplied_d_accepted_when_consistent():
    assert relative_invariant(M11, ProperInsertionPair(c=0, i=1, j=1, d=1)) == 1


def _factorial_product(model, R):
    out = Q(1)
    _, c_max = c_bounds(model, R)
    for u in range(1, model.n + 1):
        out *= gen_factorial(c_max[u - 1], floor(model.tau(R, u)))
    return out


def test_closed_form_identity_population():
    # r * H * prod c_max! == R^d, H never zero, oracle route agrees
    rng = random.Random(97531)
    for _ in range(50):
        model = random_local_model(rng)
        for k in range(2):
            for R, _mult in window(model, k):
                fact = _factorial_product(model, R)
                for d in range(sector_dim(model, R) + 1):
                    h = h_invariant(model, R, d)
                    assert h != 0
                    assert model.r * h * fact == R**d
                    assert h * fact == h_prime_oracle(model, R, d)
                    assert h_prime_oracle(model, R, d) == Q(1, model.r) * R**d


def _fraction_h_prime(model, R, d):
    """The fixed-point route of ``h_prime_oracle``, one Fraction per factor."""
    if d == 0:
        return Fraction(1, model.r)
    js = [j for j, _ in lambda_preimages(model, R)]
    alpha_prod, cmax_prod = 1, Fraction(1)
    for j in js:
        alpha_prod *= model.alpha[j - 1]
        cmax_prod *= Fraction(model.beta[j - 1], model.r) + floor(model.tau(R, j))
    return Fraction(1, model.r * alpha_prod) * (1 / R) ** (len(js) - d) * cmax_prod


def test_integer_routes_on_deep_labels(capsys, tmp_path):
    # the integer oracle and c_max_factorial against Fraction-valued routes,
    # on labels far past window 1
    rng = random.Random(2718)
    queries, labels = [], []
    for _ in range(80):
        model = random_local_model(rng)
        for c in (rng.randint(0, 60), rng.randint(61, 600)):
            R, d = c_to_Rd(model, c)
            h_prime = h_prime_oracle(model, R, d)
            assert h_prime == Q(1, model.r) * R**d
            assert h_prime == _fraction_h_prime(model, R, d)
            queries.append({"model": model.to_json(), "c": c, "i": 1, "j": 1})
            labels.append((model, R, d))
    assert sum(d >= 1 for _, _, d in labels) >= 20
    assert max(R for _, R, _ in labels) > 10
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    assert main(["invariant", "--data", str(qpath), "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["results"]
    for entry, (model, R, d) in zip(entries, labels, strict=True):
        assert (entry["R"], entry["d"]) == (format_rational(R), d)
        assert entry["c_max_factorial"] == format_rational(_factorial_product(model, R))


def test_contact_bound_ratio_on_preimages():
    # on preimage coordinates the top contact bound is alpha_j * R
    rng = random.Random(4242)
    for _ in range(30):
        model = random_local_model(rng)
        for R, _m in window(model, 0):
            _, c_max = c_bounds(model, R)
            for j, _a in lambda_preimages(model, R):
                assert c_max[j - 1] == model.alpha[j - 1] * R
