"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact (zero tolerance); the stated per-criterion time
budgets are asserted as well.
"""

import random
import time

import pytest

from wbcorr import (
    FormalPairModel,
    OutOfImageError,
    RPlusComponent,
    assemble_L,
    companion_rplus,
    enumerate_relative_data,
    glue,
    h_invariant,
    h_prime_oracle,
    linear_extension_order,
    localization_sum,
    n_minimal_companion,
    precedes,
    psi_forward,
    psi_inverse,
    solve_lower_triangular,
)
from wbcorr.local_model import LocalModel
from wbcorr.pair_model import (
    AbsoluteData,
    ConnectedAbsoluteData,
    ConnectedRelativeData,
    NMinimalData,
    RelativeData,
    RelativeMarking,
    SMarking,
)
from wbcorr.ranking import (
    c_bounds,
    c_to_Rd,
    moduli_dim,
    moduli_dim_oracle,
    rk_pair,
    rk_tilde,
    sector_dim,
    window,
)
from wbcorr.rationals import Rational as Q
from wbcorr.rationals import floor, gen_factorial

from conftest import (
    PAIR_MODEL_A,
    PAIR_MODEL_B,
    PAIR_MODEL_C,
    PAIR_MODEL_CODIM1,
    random_local_model,
)

_SUITE_START = time.perf_counter()


def _report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number}: {status} ({detail}; {elapsed:.2f}s < {budget}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def model_population():
    rng = random.Random(715)
    return [random_local_model(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def pair_models():
    return [
        FormalPairModel.from_json(doc)
        for doc in (PAIR_MODEL_A, PAIR_MODEL_B, PAIR_MODEL_C)
    ]


def test_criterion_1_dimension_oracle(model_population):
    start = time.perf_counter()
    checked = 0
    ok = True
    for model in model_population:
        for k in range(3):
            for R, _mult in window(model, k):
                checked += 1
                if moduli_dim(model, R) != moduli_dim_oracle(model, R):
                    ok = False
    _report(1, ok and checked > 0, f"{checked} labels on 200 models", time.perf_counter() - start, 5)


def test_criterion_2_window_and_shift_laws(model_population):
    start = time.perf_counter()
    ok = True
    for model in model_population:
        for k in range(4):
            if sum(m for _R, m in window(model, k)) != model.weight_total:
                ok = False
        labels = [R for k in range(3) for R, _m in window(model, k)]
        for R in labels:
            if rk_pair(model, R + 1)[1] != rk_pair(model, R)[1] + model.weight_total:
                ok = False
            if moduli_dim(model, R + 1) != moduli_dim(model, R) + model.weight_total:
                ok = False
        dims = [moduli_dim(model, R) for R in labels]
        if not all(a < b for a, b in zip(dims, dims[1:])):
            ok = False
    _report(2, ok, "window totals, shift laws, strict monotonicity", time.perf_counter() - start, 5)


def test_criterion_3_rank_bijection(model_population):
    start = time.perf_counter()
    ok = True
    for model in model_population:
        seen = set()
        for c in range(201):
            R, d = c_to_Rd(model, c)
            if rk_tilde(model, R, d) != c + 1:
                ok = False
            seen.add((R, d))
        if len(seen) != 201:
            ok = False
    _report(3, ok, "c in 0..200 on 200 models", time.perf_counter() - start, 5)


def test_criterion_4_localization_identity():
    start = time.perf_counter()
    rng = random.Random(929)
    ok = True
    checked = 0
    for m in range(1, 7):
        for _ in range(100):
            lams = set()
            while len(lams) < m:
                lams.add(Q(rng.randint(-60, 60), rng.randint(1, 9)))
            lams = sorted(lams)
            for d in range(m):
                checked += 1
                value = localization_sum(lams, d)
                expect = 1 if d == m - 1 else 0
                if value != expect:
                    ok = False
    _report(4, ok, f"{checked} localization sums", time.perf_counter() - start, 10)


def test_criterion_5_invariant_cross_check(model_population):
    start = time.perf_counter()
    ok = True
    checked = 0
    for model in model_population:
        for k in range(3):
            for R, _mult in window(model, k):
                fact = Q(1)
                _, cmax = c_bounds(model, R)
                for u in range(1, model.n + 1):
                    fact *= gen_factorial(cmax[u - 1], floor(model.tau(R, u)))
                for d in range(sector_dim(model, R) + 1):
                    checked += 1
                    h = h_invariant(model, R, d)
                    if h == 0 or model.r * h * fact != R**d:
                        ok = False
                    if h * fact != h_prime_oracle(model, R, d):
                        ok = False
    spot1 = h_invariant(LocalModel(r=2, beta=(1, 2), alpha=(1, 1)), Q(1, 2), 0)
    spot2 = h_invariant(LocalModel(r=1, beta=(1,), alpha=(1,)), Q(2), 0)
    ok = ok and spot1 == 1 and spot2 == Q(1, 2)
    _report(5, ok, f"{checked} invariants + 2 spot values", time.perf_counter() - start, 10)


def _enumeration_kwargs(index):
    return [
        dict(windows=(0, 1, 2), genus_values=(0, 1), components=2),
        dict(windows=(0, 1), genus_values=(0, 1), components=2),
        dict(windows=(0, 1), genus_values=(0, 1), components=2),
    ][index]


def test_criterion_6_correspondence_roundtrip(pair_models):
    start = time.perf_counter()
    ok = True
    counts = []
    for idx, model in enumerate(pair_models):
        data = enumerate_relative_data(model, limit=520, **_enumeration_kwargs(idx))
        counts.append(len(data))
        if len(data) < 500 or model.codim < 2:
            ok = False
        images = set()
        for rd in data:
            ad = psi_forward(model, rd)
            images.add(ad)
            if psi_inverse(model, ad) != rd:
                ok = False
            if psi_forward(model, psi_inverse(model, ad)) != ad:
                ok = False
        if len(images) != len(data):
            ok = False
    # codimension-1 model: injectivity only, plus a certified out-of-image datum
    gerbe = FormalPairModel.from_json(PAIR_MODEL_CODIM1)
    data = enumerate_relative_data(
        gerbe, windows=(0, 1), genus_values=(0, 1), push_coeffs=(0, 1, 2)
    )
    images = set()
    for rd in data:
        ad = psi_forward(gerbe, rd)
        images.add(ad)
        if psi_inverse(gerbe, ad) != rd:
            ok = False
    if len(images) != len(data) or not data:
        ok = False
    witness = RelativeData(
        (
            ConnectedRelativeData(
                genus=0,
                cls=(Q(1, 4),),
                relative=(RelativeMarking("sHalf", Q(1, 2), 1, 0),),
            ),
        )
    )
    marked = psi_forward(gerbe, witness).components[0]
    out_of_image = AbsoluteData(
        (
            ConnectedAbsoluteData(
                genus=0,
                cls=marked.cls,
                s_markings=(SMarking("t", 1, marked.s_markings[0].psi + 1),),
            ),
        )
    )
    try:
        psi_inverse(gerbe, out_of_image)
        ok = False
    except OutOfImageError:
        pass
    _report(
        6,
        ok,
        f"round trips on {counts} data + codim-1 injectivity/out-of-image",
        time.perf_counter() - start,
        30,
    )


def test_criterion_7_poset_axioms(pair_models):
    start = time.perf_counter()
    ok = True
    sizes = []
    for model in pair_models:
        data = enumerate_relative_data(model, windows=(0,), genus_values=(0, 1), limit=40)
        sizes.append(len(data))
        n = len(data)
        mat = [[precedes(model, a, b) for b in data] for a in data]
        for i in range(n):
            if not mat[i][i]:
                ok = False
            for j in range(n):
                if mat[i][j] and mat[j][i] and data[i] != data[j]:
                    ok = False
                if mat[i][j]:
                    for k in range(n):
                        if mat[j][k] and not mat[i][k]:
                            ok = False
        # companion law and uniqueness under bounded perturbation search
        for rd in data[:20]:
            companion = companion_rplus(model, rd)
            zeros = NMinimalData(tuple(block.zero[0] for block, _ in companion))
            if zeros != n_minimal_companion(rd) or glue(model, rd, companion) != rd:
                ok = False
            for perturbed in _perturbed_companions(model, companion):
                if perturbed == companion:
                    continue
                try:
                    same = glue(model, rd, perturbed) == rd
                except Exception:
                    continue
                if same:
                    ok = False
    _report(7, ok, f"poset axioms + companion on sets of sizes {sizes}", time.perf_counter() - start, 30)


def _perturbed_companions(model, companion):
    """The minimal companion with its first block's marking perturbed in
    basis index, H-power or contact, matched to the same host."""
    if not companion:
        return
    (block, hosts), rest = companion[0], companion[1:]
    (m,) = block.zero
    z = model.z_sector(m.sector)
    variants = [
        RelativeMarking(m.sector, m.contact, j, ell)
        for j in range(1, model.sigma_size(z.pi) + 1)
        for ell in range(model.ell_max(m.sector) + 1)
    ]
    variants.append(RelativeMarking(m.sector, m.contact + 1, m.j, m.ell))
    for variant in variants:
        fiber = RPlusComponent(
            genus=0, cls=block.cls, infinity=(model.dual_marking(variant),), zero=(variant,)
        )
        yield [(fiber, hosts)] + rest


def test_criterion_8_triangular_system(pair_models):
    start = time.perf_counter()
    rng = random.Random(31337)
    ok = True
    for model in pair_models:
        data = enumerate_relative_data(model, windows=(0,), genus_values=(0, 1), limit=10)
        order = linear_extension_order(model, data)
        basis = [data[i] for i in order]
        n = len(basis)
        strict = {
            (row, col)
            for row in range(n)
            for col in range(row)
            if basis[col] != basis[row] and precedes(model, basis[col], basis[row])
        }
        offdiag = {
            pos: Q(rng.randint(-9, 9), rng.randint(1, 5)) for pos in sorted(strict)
        }
        L = assemble_L(model, basis, offdiag=offdiag)
        for i in range(n):
            if L[i][i] == 0:
                ok = False
            for j in range(i + 1, n):
                if L[i][j] != 0:
                    ok = False
        for _ in range(100):
            x = [Q(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
            v = [sum((L[i][j] * x[j] for j in range(n)), Q(0)) for i in range(n)]
            if solve_lower_triangular(L, v) != x:
                ok = False
    _report(8, ok, "lower-triangular assembly + 300 exact solves", time.perf_counter() - start, 5)


def test_criterion_9_total_runtime():
    elapsed = time.perf_counter() - _SUITE_START
    _report(9, True, "acceptance suite wall time", elapsed, 60)
