import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from wbcorr import FormalPairModel, LocalModel

# Tier-1 draws the same examples on every run and keeps no example database,
# so one tree passes or fails the same way each time.  For sweeps,
# ``--hypothesis-profile wide`` draws fresh examples, seeded by
# ``--hypothesis-seed``.
settings.register_profile("gate", derandomize=True, database=None)
settings.register_profile("wide", database=None)
settings.load_profile("gate")

# Pair model over two base sectors: an untwisted one and an order-2 one
# whose normal model is the standard (r=2, beta=(1,2), alpha=(1,1)) chart.
PAIR_MODEL_B = {
    "s_sectors": [
        {"name": "t0", "bar": "t0", "basis": [{"name": "u0", "deg": 0}]},
        {"name": "t1", "bar": "t1", "basis": [{"name": "v1", "deg": 0}, {"name": "v2", "deg": 2}]},
    ],
    "z_sectors": [
        {
            "name": "s0",
            "bar": "s0",
            "pi": "t0",
            "phase": "0",
            "local_model": {"r": 1, "beta": [1, 1], "alpha": [1, 1]},
        },
        {
            "name": "sa",
            "bar": "sa",
            "pi": "t1",
            "phase": "1/2",
            "local_model": {"r": 2, "beta": [1, 2], "alpha": [1, 1]},
        },
        {
            "name": "sb",
            "bar": "sb",
            "pi": "t1",
            "phase": "0",
            "local_model": {"r": 2, "beta": [1, 2], "alpha": [1, 1]},
        },
    ],
    "k_classes": ["one_X", "H2_X"],
    "lattice": {"rank": 2, "F": [0, 1], "FZ": [0, 0], "Z_pairing": [0, 1], "kappa_push": [[1, 0]]},
}

# Trivial-isotropy model whose single label window is doubly covered, so the
# H-power range is nontrivial (two-dimensional sector over the base point).
PAIR_MODEL_A = {
    "s_sectors": [
        {"name": "t", "bar": "t", "basis": [{"name": "p1", "deg": 0}, {"name": "p2", "deg": 4}]}
    ],
    "z_sectors": [
        {
            "name": "s",
            "bar": "s",
            "pi": "t",
            "phase": "0",
            "local_model": {"r": 1, "beta": [1, 1], "alpha": [1, 1]},
        }
    ],
    "k_classes": ["one_X"],
    "lattice": {"rank": 2, "F": [0, 1], "FZ": [0, 0], "Z_pairing": [0, 1], "kappa_push": [[1, 0]]},
}

# Order-3 model with a non-self-inverse distinguished sector; the partner base
# sector carries the conjugate local model.
PAIR_MODEL_C = {
    "s_sectors": [
        {"name": "t1", "bar": "t1b", "basis": [{"name": "w1", "deg": 0}, {"name": "w2", "deg": 2}]},
        {"name": "t1b", "bar": "t1", "basis": [{"name": "w1d", "deg": 0}, {"name": "w2d", "deg": 2}]},
    ],
    "z_sectors": [
        {
            "name": "s1",
            "bar": "s1b",
            "pi": "t1",
            "phase": "1/6",
            "local_model": {"r": 3, "beta": [1, 2, 3], "alpha": [2, 1, 1]},
        },
        {
            "name": "s2",
            "bar": "s2b",
            "pi": "t1",
            "phase": "2/3",
            "local_model": {"r": 3, "beta": [1, 2, 3], "alpha": [2, 1, 1]},
        },
        {
            "name": "s3",
            "bar": "s3b",
            "pi": "t1",
            "phase": "0",
            "local_model": {"r": 3, "beta": [1, 2, 3], "alpha": [2, 1, 1]},
        },
        {
            "name": "s1b",
            "bar": "s1",
            "pi": "t1b",
            "phase": "5/6",
            "local_model": {"r": 3, "beta": [2, 1, 3], "alpha": [2, 1, 1]},
        },
        {
            "name": "s2b",
            "bar": "s2",
            "pi": "t1b",
            "phase": "1/3",
            "local_model": {"r": 3, "beta": [2, 1, 3], "alpha": [2, 1, 1]},
        },
        {
            "name": "s3b",
            "bar": "s3",
            "pi": "t1b",
            "phase": "0",
            "local_model": {"r": 3, "beta": [2, 1, 3], "alpha": [2, 1, 1]},
        },
    ],
    "k_classes": ["one_X"],
    "lattice": {"rank": 2, "F": [0, 1], "FZ": [0, 0], "Z_pairing": [0, 1], "kappa_push": [[1, 0]]},
}

# Codimension-1 model: rank-1 normal direction with weight-2 blowup; the
# fiber class is torsion downstairs and declared zero here.
PAIR_MODEL_CODIM1 = {
    "s_sectors": [{"name": "t", "bar": "t", "basis": [{"name": "q1", "deg": 0}]}],
    "z_sectors": [
        {
            "name": "sHalf",
            "bar": "sHalf",
            "pi": "t",
            "phase": "1/2",
            "local_model": {"r": 1, "beta": [1], "alpha": [2]},
        },
        {
            "name": "sInt",
            "bar": "sInt",
            "pi": "t",
            "phase": "0",
            "local_model": {"r": 1, "beta": [1], "alpha": [2]},
        },
    ],
    "k_classes": ["one_X"],
    "lattice": {"rank": 1, "F": [0], "FZ": [0], "Z_pairing": [2], "kappa_push": [[1]]},
}


@pytest.fixture(scope="session")
def pm_a():
    return FormalPairModel.from_json(PAIR_MODEL_A)


@pytest.fixture(scope="session")
def pm_b():
    return FormalPairModel.from_json(PAIR_MODEL_B)


@pytest.fixture(scope="session")
def pm_c():
    return FormalPairModel.from_json(PAIR_MODEL_C)


@pytest.fixture(scope="session")
def pm_codim1():
    return FormalPairModel.from_json(PAIR_MODEL_CODIM1)


def random_local_model(rng: random.Random, max_n=5, max_r=6, max_alpha=4) -> LocalModel:
    n = rng.randint(1, max_n)
    r = rng.randint(1, max_r)
    return LocalModel(
        r=r,
        beta=tuple(rng.randint(1, r) for _ in range(n)),
        alpha=tuple(rng.randint(1, max_alpha) for _ in range(n)),
    )


def random_pair_model(rng: random.Random) -> dict:
    """A random valid pair-model document over a ``random_local_model``.

    The divisor sectors sit over base sector ``t`` at 1 or 2 phases of the
    local model's distinguished generator.  Their partners sit over ``tb``
    with the conjugate model and the negated phases, or, when the model is
    its own conjugate, over ``t`` itself (a phase equal to its negation is
    then its own partner).  About two draws in three have codimension 1.
    The lattice is always rank 2 with ``FZ = 0``: the loader requires the
    bubble fiber class to be zero and the pushforward and pairing to fix
    each class, so a third coordinate that only a nonzero ``FZ`` reaches
    would not load.
    """
    local = random_local_model(rng, max_n=1 if rng.random() < 0.5 else 3, max_r=4, max_alpha=3)
    phases = sorted({s.R for s in local.sector_index_set() if s.b == 1 % local.r})
    chosen = rng.sample(phases, rng.randint(1, min(2, len(phases))))
    basis_size = rng.randint(1, 2)
    self_dual = local.conjugate() == local and rng.random() < 0.5
    bases = ["t"] if self_dual else ["t", "tb"]
    z_sectors = []

    def add(name, bar, pi, phase, model):
        z_sectors.append(
            {"name": name, "bar": bar, "pi": pi, "phase": str(phase), "local_model": model.to_json()}
        )

    for k, phase in enumerate(chosen):
        dual = (1 - phase) % 1
        if self_dual and dual == phase:
            add(f"s{k}", f"s{k}", "t", phase, local)
        elif self_dual:
            # a phase drawn with its negation gets one pair of sectors
            if not any(z["phase"] == str(dual) for z in z_sectors):
                add(f"s{k}", f"s{k}b", "t", phase, local)
                add(f"s{k}b", f"s{k}", "t", dual, local)
        else:
            add(f"s{k}", f"s{k}b", "t", phase, local)
            add(f"s{k}b", f"s{k}", "tb", dual, local.conjugate())
    z, f = rng.randint(1, 2), rng.randint(1, 2)
    lattice = {"rank": 2, "F": [0, f], "FZ": [0, 0], "Z_pairing": [0, z], "kappa_push": [[1, 0]]}
    return {
        "s_sectors": [
            {
                "name": t,
                "bar": bases[-1 - i],
                "basis": [{"name": f"{t}_{j}", "deg": 2 * j} for j in range(basis_size)],
            }
            for i, t in enumerate(bases)
        ],
        "z_sectors": z_sectors,
        "k_classes": ["one_X", "H2_X"][: rng.randint(1, 2)],
        "lattice": lattice,
    }


# random valid pair-model documents, drawn through a Hypothesis-controlled rng
pair_model_docs = st.randoms(use_true_random=False).map(random_pair_model)
