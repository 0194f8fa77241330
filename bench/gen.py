"""Seeded input generator for the wbcorr benchmark.

``generate(workload, seed, work_dir)`` writes every model, query, data,
offdiag, matrix and vector file a workload reads, and returns the request
list.  The same ``(workload, seed)`` always gives byte-identical files.
The program under test is never imported here, so inputs cannot drift when
it changes: the few label and class computations the generator needs are
done independently with ``fractions.Fraction``.

A request is ``{"argv": [...], "expect": exit_code, "check": {...}}``; the
check holds what ``worker.check_output`` needs to verify stdout for any
seed.  Requests come in rounds that hold a fixed mix of request kinds, so
every seed, and every prefix a time-limited run gets through, sees the same
mix; only the concrete inputs differ between seeds.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Why each workload exists; BENCHMARK.json carries the same text.
WORKLOADS = {
    "ladder": "invariant batches, window and rank queries on fresh random local models:"
    " label ladder, closed-form invariant and exact rational arithmetic",
    "poset": "order, assemble with off-diagonals, solve and inverse correspond over"
    " sets of 8-16 pair-model data: witness search, model loading and data validation",
}

#: Rounds in the request pool.  A run of the seed code uses a small part of
#: each pool, so no ladder model repeats inside a run; a faster program that
#: exhausts a pool starts it over.
POOL_ROUNDS = {"ladder": 150, "poset": 120}

#: Rounds run by ``--trace 1``: a fixed prefix, so that per-layer counts
#: repeat exactly between commits for one seed.
TRACE_ROUNDS = {"ladder": 20, "poset": 20}

# One ladder descendent power in DEEP_EVERY is deep (61-600); the rest are
# shallow (0-60).
DEEP_EVERY = 4

#: Invariant batch sizes and numbers of local-model components, taken in
#: turn, so every seed's batches have the same spread of sizes and shapes.
BATCH_SIZES = (30, 45, 60, 38, 53)
BATCH_COMPONENTS = (1, 2, 3, 4, 5)


def generate(workload: str, seed: int, work_dir: Path, rounds: int | None = None) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``work_dir``.

    ``rounds`` defaults to the whole pool; fewer rounds give a prefix of it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(work_dir)
    make = {"ladder": _ladder_round, "poset": _poset_round}[workload]
    state: dict = {}
    requests = []
    for idx in range(POOL_ROUNDS[workload] if rounds is None else rounds):
        requests += make(rng, files, idx, state)
    return requests


class _Files:
    """Writes numbered JSON input files into one directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, doc) -> str:
        self.count += 1
        path = self.root / f"{stem}{self.count}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)


def _q(x) -> str:
    """The CLI's ``p/q`` wire format."""
    return str(Fraction(x))


def load_pair_models() -> dict:
    """The four fixture pair models (A, B, C, codim1) of the test suite."""
    return json.loads((HERE / "pair_models.json").read_text())


# ---------------------------------------------------------------------------
# ladder


def _fresh_local_model(rng, seen, n: int | None = None) -> dict:
    """A local model not in ``seen``, with ``n`` components when given and
    enough models of that size are left."""
    tries = 0
    while True:
        tries += 1
        n_ = n if n is not None and tries <= 100 else rng.randint(1, 5)
        r = rng.randint(1, 6)
        beta = tuple(rng.randint(1, r) for _ in range(n_))
        alpha = tuple(rng.randint(1, 4) for _ in range(n_))
        if (r, beta, alpha) not in seen:
            seen.add((r, beta, alpha))
            return {"r": r, "beta": list(beta), "alpha": list(alpha)}


def _descendent_power(rng, deep: bool) -> int:
    return rng.randint(61, 600) if deep else rng.randint(0, 60)


def _stratified(rng, low: int, high: int, count: int) -> list[int]:
    """``count`` integers in ``[low, high]``, one drawn from each of ``count``
    equal slices of the range, so their spread does not depend on the seed."""
    width = (high - low + 1) / count
    return [low + int((k + rng.random()) * width) for k in range(count)]


def _invariant_batch(rng, files, seen, batch: int) -> dict:
    size = BATCH_SIZES[batch % len(BATCH_SIZES)]
    n = BATCH_COMPONENTS[batch // len(BATCH_SIZES) % len(BATCH_COMPONENTS)]
    model = _fresh_local_model(rng, seen, n)
    deep = size // DEEP_EVERY
    powers = _stratified(rng, 61, 600, deep) + _stratified(rng, 0, 60, size - deep)
    rng.shuffle(powers)
    queries = []
    for c in powers:
        i = rng.randint(1, 3)
        j = i if rng.random() < 0.75 else rng.choice([x for x in (1, 2, 3) if x != i])
        queries.append({"c": c, "i": i, "j": j})
    argv = ["invariant", "--model", files.write("m", model), "--data", files.write("q", queries)]
    return {
        "argv": argv + ["--format", "json"],
        "expect": 0,
        "check": {"kind": "invariant", "r": model["r"], "queries": len(queries)},
    }


def _ladder_round(rng, files, idx, state):
    # Batches are three in five requests, so the median falls among them.
    seen = state.setdefault("models", set())
    out = [_invariant_batch(rng, files, seen, 3 * idx + k) for k in range(3)]
    model = _fresh_local_model(rng, seen)
    weight_total = sum(model["alpha"])
    k = _descendent_power(rng, idx % DEEP_EVERY == 0) // weight_total
    out.append(
        {
            "argv": ["dims", "--model", files.write("m", model), "--k", str(k)],
            "expect": 0,
            "check": {"kind": "window", "weight_total": weight_total},
        }
    )
    model = _fresh_local_model(rng, seen)
    c = _descendent_power(rng, idx % DEEP_EVERY == 1)
    out.append(
        {
            "argv": ["rank", "--model", files.write("m", model), "--c", str(c)],
            "expect": 0,
            "check": {"kind": "rank", "c": c},
        }
    )
    return out


# ---------------------------------------------------------------------------
# pair-model data


def _labels(local: dict, phase: Fraction, windows: int = 2) -> list[tuple[Fraction, int]]:
    """Labels ``(beta_j + a r) / (alpha_j r)`` in ``(0, windows]`` with fractional
    part ``phase``, each with its preimage count."""
    r, beta, alpha = local["r"], local["beta"], local["alpha"]
    counts: dict[Fraction, int] = {}
    for b, a_j in zip(beta, alpha):
        for a in range(windows * a_j):
            label = Fraction(b + a * r, a_j * r)
            if label - math.floor(label) == phase:
                counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items())


def _solve(rows, rhs):
    """The exact solution of ``rows . x = rhs``, or None when inconsistent.

    The fixture lattices determine classes uniquely, so every column has a
    pivot.
    """
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next(i for i in range(col, len(aug)) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(len(aug)):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    if any(row[-1] != 0 for row in aug[ncols:]):
        return None
    return [aug[i][-1] for i in range(ncols)]


class _PairData:
    """Random valid relative and absolute data over one pair model."""

    def __init__(self, model: dict):
        self.model = model
        lattice = model["lattice"]
        self.class_rows = lattice["kappa_push"] + [lattice["Z_pairing"]]
        self.push_rank = len(lattice["kappa_push"])
        self.codim = len(model["z_sectors"][0]["local_model"]["beta"])
        self.basis = {s["name"]: len(s["basis"]) for s in model["s_sectors"]}
        self.markings = []  # (sector, contact, preimage count, basis size)
        for z in model["z_sectors"]:
            for label, count in _labels(z["local_model"], Fraction(z["phase"])):
                self.markings.append((z["name"], label, count, self.basis[z["pi"]]))

    def component(self, rng, n_markings: int, genus: int = 0, insertions=()) -> dict:
        """A connected relative component with ``n_markings`` divisor markings
        and an ambient marking per entry of ``insertions``."""
        rel = [rng.choice(self.markings) for _ in range(n_markings)]
        contact_sum = sum((m[1] for m in rel), Fraction(0))
        target = [rng.randint(0, 2) for _ in range(self.push_rank)]
        cls = _solve(self.class_rows, target + [contact_sum])
        if cls is None:
            # codimension 1: the divisor pairing alone fixes the class
            cls = _solve([self.model["lattice"]["Z_pairing"]], [contact_sum])
        return {
            "genus": genus,
            "class": [_q(x) for x in cls],
            "absolute": [{"sector": "ambient", "insertion": k, "psi": 0} for k in insertions],
            "relative": [
                {
                    "sector": sector,
                    "contact": _q(label),
                    "j": rng.randint(1, basis),
                    "ell": rng.randint(0, count - 1),
                }
                for sector, label, count, basis in rel
            ],
        }

    def absolute(self, rng, class_entries) -> dict:
        """A connected absolute component whose class entries are drawn from
        ``class_entries``."""
        names = sorted(self.basis)
        return {
            "genus": rng.randint(0, 1),
            "class": [str(rng.choice(class_entries)) for _ in range(self.push_rank)],
            "absolute": [
                {"sector": "ambient", "insertion": rng.choice(self.model["k_classes"]), "psi": 0}
                for _ in range(rng.randint(0, 1))
            ],
            "s_markings": [
                {"sector": t, "j": rng.randint(1, self.basis[t]), "psi": rng.randint(0, 20)}
                for t in (rng.choice(names) for _ in range(rng.randint(1, 2)))
            ],
        }


def _relative(*components) -> dict:
    return {"kind": "relative", "components": list(components)}


# ---------------------------------------------------------------------------
# poset

# Poset round i uses model i mod 4 and set size i mod 5 from this list, so
# every seed runs the same strata in the same order.
_SET_SIZES = (8, 10, 12, 14, 16)

# (divisor markings, components) of the i-th datum of a set, cyclically.
_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2))

_EXTENSION_PAIRS = 2


def _poset_set(rng, pdata: _PairData, n: int):
    """``n`` distinct data with 2-3 divisor markings each, and off-diagonal
    entries at pairs ``(X, X + extra component)``, where X strictly precedes."""
    data, seen, offdiag = [], set(), []

    def add(doc) -> int | None:
        key = json.dumps(doc, sort_keys=True)
        if key in seen:
            return None
        seen.add(key)
        data.append(doc)
        return len(data) - 1

    while len(offdiag) < _EXTENSION_PAIRS:
        base = pdata.component(rng, 2)
        low = add(_relative(base))
        high = add(_relative(base, pdata.component(rng, 1))) if low is not None else None
        if high is not None:
            offdiag.append([high, low, _q(_random_rational(rng, nonzero=True))])
    k_classes = pdata.model["k_classes"]
    while len(data) < n:
        # The witness search prunes on genus and ambient markings first, so
        # these follow the datum's position; only the markings are random.
        i = len(data)
        markings, components = _SHAPES[i % len(_SHAPES)]
        genus = i // len(_SHAPES) % 2
        insertions = [k_classes[i // 16 % len(k_classes)]] if i // 8 % 2 else []
        first = markings if components == 1 else rng.randint(1, markings - 1)
        comps = [pdata.component(rng, first, genus, insertions)]
        if components == 2:
            comps.append(pdata.component(rng, markings - first))
        add(_relative(*comps))
    return data, offdiag


def _random_rational(rng, low=-9, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(low, 9), rng.randint(1, 5))
        if value or not nonzero:
            return value


def _pair_model(files, state, idx) -> tuple[_PairData, list[str]]:
    """Round ``idx``'s fixture pair model and its ``--pair-model`` argv.

    The four models are written once per pool and taken in turn."""
    if "pair_models" not in state:
        state["pair_models"] = [
            (_PairData(doc), ["--pair-model", files.write(f"pm_{name}_", doc)])
            for name, doc in load_pair_models().items()
        ]
    return state["pair_models"][idx % len(state["pair_models"])]


def _poset_round(rng, files, idx, state):
    pdata, pm = _pair_model(files, state, idx)
    size = _SET_SIZES[idx % len(_SET_SIZES)]
    data, _ = _poset_set(rng, pdata, size)
    out = [
        {
            "argv": ["order"] + pm + ["--data", files.write("d", data)],
            "expect": 0,
            "check": {"kind": "order", "n": size},
        }
    ]
    data, offdiag = _poset_set(rng, pdata, size)
    out.append(
        {
            "argv": ["assemble"]
            + pm
            + ["--data", files.write("d", data), "--offdiag", files.write("od", offdiag)],
            "expect": 0,
            "check": {"kind": "assemble", "n": size, "offdiag": offdiag},
        }
    )
    # One cheap request per round keeps the median among order and assemble;
    # every model gets solve and inverse correspond rounds in turn.
    if idx // len(state["pair_models"]) % 2:
        out.append(_inverse_correspond(rng, files, pdata, pm))
    else:
        out.append(_solve_request(rng, files, size))
    return out


def _solve_request(rng, files, size: int) -> dict:
    matrix = [
        [
            _q(_random_rational(rng, nonzero=(col == row)) if col <= row else 0)
            for col in range(size)
        ]
        for row in range(size)
    ]
    vector = [_q(_random_rational(rng)) for _ in range(size)]
    return {
        "argv": ["solve", "--matrix", files.write("L", matrix), "--vector", files.write("v", vector)],
        "expect": 0,
        "check": {"kind": "solve", "matrix": matrix, "vector": vector},
    }


def _inverse_correspond(rng, files, pdata: _PairData, pm: list[str]) -> dict:
    """``correspond`` on absolute data; on the codimension-1 model the data
    lie outside the image and the request must exit 1."""
    if pdata.codim == 1:
        # a nonpositive class cannot match the positive contact sum
        datum, code = pdata.absolute(rng, [0, -1]), 1
    else:
        datum, code = pdata.absolute(rng, [0, 1, 2]), 0
    doc = {"kind": "absolute", "components": [datum]}
    return {"argv": ["correspond"] + pm + ["--data", files.write("d", doc)], "expect": code}
