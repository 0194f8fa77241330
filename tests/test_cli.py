import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcorr import (
    FormalPairModel,
    LocalModel,
    RelativeData,
    SearchLimitError,
    enumerate_relative_data,
    find_precedence_witness,
    precedes,
)
from wbcorr import correspondence as corr
from wbcorr import invariants as inv
from wbcorr import ranking as rank_ops
from wbcorr.cli import VERB_OPERATIONS, build_parser, main
from wbcorr.rationals import floor_frac, format_rational, gen_factorial

from conftest import (
    PAIR_MODEL_A,
    PAIR_MODEL_B,
    PAIR_MODEL_C,
    PAIR_MODEL_CODIM1,
    random_local_model,
)
from test_cli_fuzz import VERBS

M2_DOC = {"r": 2, "beta": [1, 2], "alpha": [1, 1]}

SPEC_OPERATIONS = [
    "floor_frac",
    "gen_factorial",
    "isotropy_group",
    "sector_index_set",
    "sector_support",
    "tau",
    "degree_shift",
    "d_top",
    "lambda_value",
    "rk_pair",
    "window",
    "c_to_Rd",
    "moduli_dim",
    "moduli_dim_oracle",
    "c_bounds",
    "h_invariant",
    "h_prime_oracle",
    "localization_sum",
    "relative_invariant",
    "psi_forward",
    "psi_inverse",
    "n_minimal_companion",
    "precedes",
    "comparison_matrix",
    "linear_extension",
    "assemble_L",
    "solve_lower_triangular",
]


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(M2_DOC))
    return str(path)


@pytest.fixture
def pair_model_path(tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(PAIR_MODEL_B))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_operation_reachable_from_a_verb():
    covered = {op for ops in VERB_OPERATIONS.values() for op in ops}
    missing = [op for op in SPEC_OPERATIONS if op not in covered]
    assert not missing, f"operations without a CLI verb: {missing}"


#: The private kernel through which a verb reaches a listed operation.
KERNELS = {
    "relative_invariant": "_ranked_invariant",
    "h_prime_oracle": "_h_prime_of_label",
    "linear_extension": "linear_extension_order",
}


def test_each_verb_calls_the_operations_it_lists(capsys, tmp_path, monkeypatch):
    # every binding of each listed name (or its kernel) is wrapped, and one
    # request per verb shape must call each name its verb lists
    shapes = dict(VERBS)
    shapes["rank-R"] = (["--R", "1/2"], VERBS["rank"][1])
    shapes["dims-R"] = (["--R", "1/2"], VERBS["dims"][1])
    names = {KERNELS.get(op, op) for ops in VERB_OPERATIONS.values() for op in ops}
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    methods = names & set(vars(LocalModel))
    for name in methods:
        monkeypatch.setattr(LocalModel, name, counted(name, vars(LocalModel)[name]))
    for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "wbcorr"]:
        for attr, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__name__", None) in names - methods:
                monkeypatch.setattr(module, attr, counted(value.__name__, value))
    reached = {verb: set() for verb in VERB_OPERATIONS}
    for shape, (fixed, files) in shapes.items():
        argv = [shape.split("-")[0], *fixed]
        for flag, doc in files:
            path = tmp_path / f"{shape}{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        called.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, (shape, err)
        reached[argv[0]] |= called
    for verb, ops in VERB_OPERATIONS.items():
        assert [op for op in ops if KERNELS.get(op, op) not in reached[verb]] == [], verb


#: The flags each verb reads, besides --format and --out.
VERB_FLAGS = {
    "sectors": "--model",
    "degshift": "--model --R --b",
    "rank": "--model --R --c",
    "dims": "--model --R --k",
    "invariant": "--model --data --c --i --j --d",
    "correspond": "--pair-model --data",
    "order": "--pair-model --data --max-components",
    "assemble": "--pair-model --data --offdiag --coeff --max-components",
    "solve": "--matrix --vector",
}


def test_each_verb_takes_only_the_flags_it_reads(capsys):
    every = {flag for flags in VERB_FLAGS.values() for flag in flags.split()}
    # 46 verb/flag pairs with --format and --out, of the 9 x 17 that every verb once took
    assert sum(len(flags.split()) + 2 for flags in VERB_FLAGS.values()) == 46
    for verb, flags in VERB_FLAGS.items():
        with pytest.raises(SystemExit) as stop:
            main([verb, "--help"])
        assert stop.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == {*flags.split(), "--format", "--out", "-h", "--help"}, verb
        # a flag of another verb, or a prefix of one of its own, is not read
        for flag in sorted(every - set(flags.split())) + ["--mod", "--form"]:
            code, out, err = run(capsys, verb, flag, "1")
            assert code == 2 and not out, (verb, flag)
            assert err == f"SchemaError: unrecognized arguments: {flag} 1\n", (verb, flag)


def test_a_malformed_command_line_is_one_schema_error(capsys, model_path, tmp_path):
    mpath, vpath = tmp_path / "L.json", tmp_path / "v.json"
    mpath.write_text(json.dumps([["1"]]))
    vpath.write_text(json.dumps(["1"]))
    for argv, message in (
        (["rank", "--model", model_path, "--c", "x"], "argument --c: invalid int value: 'x'"),
        (["sectors", "--model", model_path, "--foo", "1"], "unrecognized arguments: --foo 1"),
        (["sector", "--model", model_path], "argument verb: invalid choice: 'sector' "),
        ([], "the following arguments are required: verb"),
        # argparse reads -1/3 as a flag; a negative label is written --R=-1/3
        (["degshift", "--model", model_path, "--R", "-1/3"], "argument --R: expected one argument"),
        (
            ["solve", "--matrix", str(mpath), "--vector", str(vpath), "--model", model_path],
            f"unrecognized arguments: --model {model_path}",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.count("\n") == 1, argv
        assert err.startswith(f"SchemaError: {message}"), err
    code, out, _ = run(capsys, "degshift", "--model", model_path, "--R=-1/3", "--format", "json")
    assert code == 0 and json.loads(out)["R"] == "-1/3"


def test_sectors_builds_each_isotropy_group_once(capsys, tmp_path, monkeypatch):
    calls = Counter()
    isotropy_group = LocalModel.isotropy_group

    def counted(model, i):
        calls[i] += 1
        return isotropy_group(model, i)

    monkeypatch.setattr(LocalModel, "isotropy_group", counted)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"r": 4, "beta": [1, 2, 4], "alpha": [3, 1, 2]}))
    for fmt in ("tsv", "json"):
        calls.clear()
        code, _, _ = run(capsys, "sectors", "--model", str(path), "--format", fmt)
        assert code == 0 and calls == {1: 1, 2: 1, 3: 1}


def test_sectors_table(capsys, model_path):
    code, out, _ = run(capsys, "sectors", "--model", model_path)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b\tphase\tdegshift\tsupport"
    assert len(lines) == 4  # three sectors
    assert "1\t1/2\t1/2\t1" in lines


def test_invariant_single_value(capsys, model_path):
    code, out, _ = run(
        capsys, "invariant", "--model", model_path, "--c", "0", "--i", "1", "--j", "1"
    )
    assert code == 0
    assert out == "2\n"


def test_invariant_past_the_int_str_digit_limit(capsys, model_path):
    # c_max_factorial and value have over 4300 digits, CPython's default
    # int-to-str limit; the output is exact and the limit is left alone
    limit = sys.get_int_max_str_digits()
    args = ("invariant", "--model", model_path, "--c", "2000", "--i", "1", "--j", "1")
    code, out, err = run(capsys, *args, "--format", "json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)

    def exact(text):  # Decimal parses past the limit too
        num, _, den = text.partition("/")
        return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))

    assert len(doc["c_max_factorial"]) > 4300
    assert M2_DOC["r"] * exact(doc["h"]) * exact(doc["c_max_factorial"]) == exact(doc["R"]) ** doc["d"]
    code, tsv, _ = run(capsys, *args)
    assert code == 0 and tsv == doc["value"] + "\n"


def test_invariant_json_detail(capsys, model_path):
    code, out, _ = run(
        capsys,
        "invariant",
        "--model",
        model_path,
        "--c",
        "0",
        "--i",
        "1",
        "--j",
        "1",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc["value"] == "2"
    assert doc["R"] == "1/2"
    assert doc["h"] == "1"
    assert doc["h_prime"] == "1/2"


def test_invariant_batch(capsys, tmp_path, model_path):
    queries = [
        {"c": 0, "i": 1, "j": 1},
        {"c": 0, "i": 1, "j": 2},
        {"lambdas": ["1", "2", "3"], "d": 2},
        {"model": {"r": 1, "beta": [1], "alpha": [1]}, "c": 0, "i": 1, "j": 1},
    ]
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    code, out, _ = run(capsys, "invariant", "--model", model_path, "--data", str(qpath))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["index", "kind", "value", "detail"]
    values = [line.split("\t")[2] for line in lines[1:]]
    assert values == ["2", "0", "1", "1"]


def test_invariant_batch_evaluates_each_query_once(capsys, tmp_path, model_path, monkeypatch):
    queries = [
        {"c": 0, "i": 1, "j": 1},
        {"c": 3, "i": 1, "j": 2},  # off-diagonal: the value is 0, h is still reported
        {"c": 600, "i": 2, "j": 2},
        {"model": {"r": 1, "beta": [1, 1], "alpha": [1, 1]}, "c": 0, "i": 1, "j": 1, "d": 1},
    ]
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # counted where each name is looked up: invariants imports them by name;
    # h and the oracle at the kernels that run on the entry's checked label
    for module, name in [
        (rank_ops, "c_to_Rd"),
        (inv, "c_to_Rd"),
        (inv, "_h_of_label"),
        (inv, "_h_prime_of_label"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run(
        capsys, "invariant", "--model", model_path, "--data", str(qpath), "--format", "json"
    )
    assert code == 0
    assert [e["d"] for e in json.loads(out)["results"]] == [0, 0, 0, 1]
    n = len(queries)
    # the oracle is a second route, so it runs once per query as well
    assert calls == {"c_to_Rd": n, "_h_of_label": n, "_h_prime_of_label": n}


def test_invariant_batch_computes_the_tau_numerators_once_per_route(
    capsys, tmp_path, model_path, monkeypatch
):
    # one label check, so one tau_numerators call, per relative entry; and
    # one gen_factorial per distinct (beta_u, C_u) of the --model model in
    # the batch, and per distinct pair within each inline-model query
    queries = [
        {"c": 0, "i": 1, "j": 1},
        {"c": 3, "i": 1, "j": 2},
        {"c": 0, "i": 2, "j": 2},  # the bounds of the first query again
        {"c": 600, "i": 2, "j": 2},
        {"model": {"r": 3, "beta": [1, 2, 3], "alpha": [2, 1, 3]}, "c": 44, "i": 1, "j": 1},
        # equal beta_u and bounds in both coordinates
        {"model": {"r": 1, "beta": [1, 1], "alpha": [1, 1]}, "c": 0, "i": 1, "j": 1, "d": 1},
        {"model": M2_DOC, "c": 3, "i": 1, "j": 1},  # the --model model's doc, inline
        {"lambdas": ["1", "2", "3"], "d": 2},
    ]
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "wbcorr"]
    for name, fn in [
        ("tau_numerators", rank_ops.tau_numerators),
        ("_fiber_label", rank_ops._fiber_label),
        ("gen_factorial", gen_factorial),
    ]:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(name, fn))
    code, out, _ = run(
        capsys, "invariant", "--model", model_path, "--data", str(qpath), "--format", "json"
    )
    counts = dict(calls)
    assert code == 0
    relative = [e for e in json.loads(out)["results"] if e["kind"] == "relative"]
    assert [e["d"] for e in relative] == [0, 0, 0, 0, 2, 1, 0]
    assert counts["tau_numerators"] == counts["_fiber_label"] == len(relative)

    batch_keys, expected, bounds = set(), 0, 0
    for q, e in zip(queries, relative):
        local = LocalModel.from_json(q.get("model", M2_DOC))
        _, c_max = rank_ops.c_bounds(local, Fraction(e["R"]))
        keys = {(b, hi * local.r) for b, hi in zip(local.beta, c_max)}
        bounds += local.n
        if "model" in q:
            expected += len(keys)
        else:
            batch_keys |= keys
    expected += len(batch_keys)
    assert counts["gen_factorial"] == expected < bounds


def _reference_entry(model, c, i, j):
    """One invariant entry composed of the public calls, one route per field."""
    R, d = rank_ops.c_to_Rd(model, c)
    rfloor, rfrac = floor_frac(R)
    c_min, c_max = rank_ops.c_bounds(model, R)
    fact = Fraction(1)
    for lo, hi in zip(c_min, c_max):
        fact *= gen_factorial(hi, int(hi - lo))
    value = inv.relative_invariant(model, inv.ProperInsertionPair(c=c, i=i, j=j))
    return {
        "c": c,
        "i": i,
        "j": j,
        "kind": "relative",
        "R": format_rational(R),
        "R_floor": rfloor,
        "R_frac": format_rational(rfrac),
        "d": d,
        "h": format_rational(inv.h_invariant(model, R, d)),
        "h_prime": format_rational(inv.h_prime_oracle(model, R, d)),
        "c_max_factorial": format_rational(fact),
        "value": format_rational(value),
    }


def test_invariant_batch_matches_the_public_calls_on_random_models(capsys, tmp_path):
    rng = random.Random(12)
    queries, expected = [], []
    for _ in range(150):
        model = random_local_model(rng)
        for _ in range(3):
            c = rng.randint(0, 60) if rng.random() < 0.75 else rng.randint(61, 600)
            i, j = rng.randint(1, 3), rng.randint(1, 3)
            query = {"model": model.to_json(), "c": c, "i": i, "j": j}
            expected.append(_reference_entry(model, c, i, j))
            if rng.random() < 0.3:
                query["d"] = expected[-1]["d"]
            queries.append(query)
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    code, out, err = run(capsys, "invariant", "--data", str(qpath), "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["results"] == expected


localization_rows = st.builds(
    lambda lams, d: {"lambdas": [str(x) for x in lams], "d": d},
    st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True),
    st.integers(0, 4),
)


@st.composite
def relative_rows(draw):
    row = {"c": draw(st.integers(0, 80)), "i": draw(st.integers(1, 3)), "j": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        row["model"] = random_local_model(draw(st.randoms(use_true_random=False))).to_json()
    return row


@settings(max_examples=60, deadline=None)
@given(
    queries=st.lists(localization_rows | relative_rows(), max_size=6),
    past_the_limit=st.booleans(),
    to_file=st.booleans(),
)
@example(queries=[], past_the_limit=False, to_file=False)
@example(queries=[{"lambdas": ["1", "2"], "d": 1}], past_the_limit=False, to_file=True)
def test_invariant_batch_json_is_the_indent_2_dump(queries, past_the_limit, to_file):
    # the batch document goes through the C encoder entry by entry; its
    # bytes must be those of the indent-2 json.dumps of the same document
    limit = sys.get_int_max_str_digits()
    if past_the_limit:
        # c_max_factorial, h and value of c = 400 on M2_DOC have over 700 digits
        queries = queries + [{"c": 400, "i": 1, "j": 1}]
    with tempfile.TemporaryDirectory() as tmp:
        model, data, target = (Path(tmp) / name for name in ("m.json", "q.json", "out.json"))
        model.write_text(json.dumps(M2_DOC))
        data.write_text(json.dumps(queries))
        argv = ["invariant", "--model", str(model), "--data", str(data), "--format", "json"]
        if to_file:
            argv += ["--out", str(target)]
        out, err = io.StringIO(), io.StringIO()
        try:
            if past_the_limit:
                sys.set_int_max_str_digits(640)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and err.getvalue() == ""
        text = target.read_text() if to_file else out.getvalue()
        assert out.getvalue() == ("" if to_file else text)
    entries = json.loads(text)["results"]
    assert [e["kind"] for e in entries] == [
        "localization" if "lambdas" in q else "relative" for q in queries
    ]
    if past_the_limit:
        assert len(entries[-1]["c_max_factorial"]) > 640
    assert text == json.dumps({"results": entries}, indent=2, sort_keys=True) + "\n"


def test_invariant_batch_localization_detail_shows_the_parsed_d(capsys, tmp_path):
    queries = [{"lambdas": ["1", "2", "3"], "d": "02"}, {"lambdas": ["1", "2"], "d": " 1"}]
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(queries))
    code, out, _ = run(capsys, "invariant", "--data", str(qpath))
    assert code == 0
    details = [line.split("\t")[3] for line in out.strip().split("\n")[1:]]
    assert details == ["m=3,d=2", "m=2,d=1"]


def test_rank_and_dims(capsys, model_path):
    code, out, _ = run(capsys, "rank", "--model", model_path, "--c", "0", "--format", "json")
    assert code == 0 and json.loads(out) == {"c": 0, "R": "1/2", "d": 0, "rank": 1}
    code, out, _ = run(capsys, "rank", "--model", model_path, "--R", "1/2", "--format", "json")
    doc = json.loads(out)
    assert (doc["rk_strict"], doc["rk_weak"]) == (1, 1)
    code, out, _ = run(capsys, "dims", "--model", model_path, "--R", "1/2", "--format", "json")
    doc = json.loads(out)
    assert doc["dim"] == doc["dim_oracle"] == 1
    assert doc["c_max"] == ["1/2", "0"]
    code, out, _ = run(capsys, "dims", "--model", model_path, "--k", "0", "--format", "json")
    assert [e["R"] for e in json.loads(out)["window"]] == ["1/2", "1"]


def test_kernel_results_are_plain_ints(capsys, tmp_path):
    # every count the kernels return, and so every count the CLI emits, is a plain int
    model = LocalModel(r=3, beta=(1, 2, 3), alpha=(2, 1, 1))
    for c in range(3 * model.weight_total):
        R, d = rank_ops.c_to_Rd(model, c)
        counts = [d, rank_ops.rk_tilde(model, R, d), *rank_ops.rk_pair(model, R)]
        counts += [rank_ops.moduli_dim(model, R), rank_ops.sector_dim(model, R)]
        counts += [x for pair in rank_ops.lambda_preimages(model, R) for x in pair]
        assert all(type(x) is int for x in counts), (c, counts)
    assert all(type(m) is int for _R, m in rank_ops.window(model, 2))

    path = tmp_path / "m3.json"
    path.write_text(json.dumps(model.to_json()))
    for argv in (
        ["rank", "--c", "7"],
        ["rank", "--R", "5/3"],
        ["dims", "--k", "1"],
        ["dims", "--R", "5/3"],
        ["invariant", "--c", "7", "--i", "1", "--j", "1"],
    ):
        code, out, err = run(capsys, *argv, "--model", str(path), "--format", "json")
        assert code == 0 and not err, (argv, err)
        json.loads(out)


def test_degshift(capsys, model_path):
    code, out, _ = run(
        capsys, "degshift", "--model", model_path, "--b", "1", "--R", "0", "--format", "json"
    )
    assert code == 0 and json.loads(out)["degshift"] == "1/2"


def test_correspond_roundtrip(capsys, tmp_path, pair_model_path):
    rd_doc = {
        "kind": "relative",
        "components": [
            {
                "genus": 0,
                "class": ["1", "1/2"],
                "absolute": [{"sector": "amb", "insertion": "one_X", "psi": 0}],
                "relative": [{"sector": "sa", "contact": "1/2", "j": 1, "ell": 0}],
            }
        ],
    }
    rd_path = tmp_path / "rd.json"
    rd_path.write_text(json.dumps(rd_doc))
    code, out, _ = run(
        capsys,
        "correspond",
        "--pair-model",
        pair_model_path,
        "--data",
        str(rd_path),
        "--format",
        "json",
    )
    assert code == 0
    forward = json.loads(out)
    assert forward["direction"] == "forward"
    assert forward["image"]["components"][0]["s_markings"] == [
        {"sector": "t1", "j": 1, "psi": 0}
    ]
    ad_path = tmp_path / "ad.json"
    ad_path.write_text(json.dumps(forward["image"]))
    code, out, _ = run(
        capsys,
        "correspond",
        "--pair-model",
        pair_model_path,
        "--data",
        str(ad_path),
        "--format",
        "json",
    )
    assert code == 0
    inverse = json.loads(out)
    assert inverse["direction"] == "inverse"
    assert inverse["image"] == rd_doc


def _chain_docs():
    base = {"genus": 0, "class": ["1", "0"], "absolute": [], "relative": []}
    extra_b = {
        "genus": 0,
        "class": ["0", "1"],
        "absolute": [],
        "relative": [{"sector": "sb", "contact": "1", "j": 1, "ell": 0}],
    }
    extra_a = {
        "genus": 0,
        "class": ["0", "1/2"],
        "absolute": [],
        "relative": [{"sector": "sa", "contact": "1/2", "j": 1, "ell": 0}],
    }
    rd1 = {"kind": "relative", "components": [base]}
    rd2 = {"kind": "relative", "components": [base, extra_b]}
    rd3 = {"kind": "relative", "components": [base, extra_b, extra_a]}
    return [rd3, rd2, rd1]


def test_order_and_assemble(capsys, tmp_path, pair_model_path):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(_chain_docs()))
    code, out, _ = run(
        capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["order"] == [2, 1, 0]
    offdiag_path = tmp_path / "od.json"
    offdiag_path.write_text(json.dumps([[1, 2, "5/7"]]))  # input indices: rd2 over rd1
    code, out, _ = run(
        capsys,
        "assemble",
        "--pair-model",
        pair_model_path,
        "--data",
        str(data_path),
        "--offdiag",
        str(offdiag_path),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == [2, 1, 0]
    matrix = doc["matrix"]
    assert matrix[0][0] == "1"
    assert matrix[1][0] == "5/7"
    assert matrix[1][1] == "2"
    assert matrix[0][1] == "0" and matrix[0][2] == "0" and matrix[1][2] == "0"


def test_assemble_rejects_a_repeated_offdiag_position(capsys, tmp_path, pair_model_path):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(_chain_docs()))
    od_path = tmp_path / "od.json"
    # the same [row, col] twice, also when one index is written as a string
    for second in ([1, 2, "3"], ["1", 2, "5/7"]):
        od_path.write_text(json.dumps([[1, 2, "5/7"], second]))
        code, out, err = run(
            capsys, "assemble", "--pair-model", pair_model_path, "--data", str(data_path),
            "--offdiag", str(od_path),
        )
        assert code == 2 and not out and err.count("\n") == 1
        assert err.startswith(f"SchemaError: offdiag entry {second!r} repeats")


def test_cap_default_is_the_library_default():
    args = build_parser().parse_args(["order"])
    assert args.max_components == corr.DEFAULT_MAX_COMPONENTS


@pytest.mark.parametrize("doc", [PAIR_MODEL_B, PAIR_MODEL_C])
def test_order_reports_the_comparison_matrix(capsys, tmp_path, doc):
    model = FormalPairModel.from_json(doc)
    data = enumerate_relative_data(model, windows=(0, 1), genus_values=(0, 1), components=2)
    data = data[:: len(data) // 12][:12]
    pm_path, data_path = tmp_path / "pm.json", tmp_path / "data.json"
    pm_path.write_text(json.dumps(doc))
    data_path.write_text(json.dumps([rd.to_json() for rd in data]))
    code, out, _ = run(
        capsys, "order", "--pair-model", str(pm_path), "--data", str(data_path), "--format", "json"
    )
    assert code == 0
    pairwise = sum(a != b and precedes(model, a, b) for a in data for b in data)
    assert pairwise > 0
    assert json.loads(out) == {
        "order": corr.linear_extension_order(model, data),
        "strict_comparable_pairs": pairwise,
    }


def _unruled_pairs(docs):
    """Ordered index pairs of distinct data in ``docs`` that the datum
    signature does not rule out, read off the documents: along the order,
    total genus, ambient markings and total contact never decrease."""

    def signature(doc):
        comps = doc["components"]
        genus = sum(c["genus"] for c in comps)
        ambient = Counter(json.dumps(m, sort_keys=True) for c in comps for m in c["absolute"])
        contact = sum(Fraction(m["contact"]) for c in comps for m in c["relative"])
        return genus, ambient, contact

    sigs = [signature(doc) for doc in docs]
    return {
        (i, j)
        for i, (g1, a1, c1) in enumerate(sigs)
        for j, (g2, a2, c2) in enumerate(sigs)
        if docs[i] != docs[j] and g1 <= g2 and not a1 - a2 and c1 <= c2
    }


def test_order_searches_each_pair_once(capsys, tmp_path, pair_model_path, monkeypatch):
    docs = _chain_docs()
    docs.append(docs[1])  # equal data are never compared
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(docs))
    searches, validations = [], []
    search, validate = corr._search, FormalPairModel.validate_relative_data

    def counted_search(model, rd1, rd2, memo):
        searches.append((id(rd1), id(rd2)))  # the four loaded data stay alive
        return search(model, rd1, rd2, memo)

    def counted_validate(model, rd):
        validations.append(rd)
        return validate(model, rd)

    monkeypatch.setattr(corr, "_search", counted_search)
    monkeypatch.setattr(FormalPairModel, "validate_relative_data", counted_validate)
    code, out, _ = run(capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path))
    assert code == 0 and out.startswith("position")
    assert len(validations) == 4
    # data are validated once each, in input order
    position = {id(rd): i for i, rd in enumerate(validations)}
    searched = [(position[a], position[b]) for a, b in searches]
    assert len(searched) == len(set(searched))
    # of the 4 * 3 - 2 ordered pairs of distinct data, the 5 whose total
    # contact decreases are never searched
    assert set(searched) == _unruled_pairs(docs) and len(searched) == 5

    code, _, err = run(
        capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path),
        "--max-components", "1",
    )
    assert code == 1 and err.startswith("SearchLimitError") and err.count("\n") == 1


def test_order_enumerates_each_cell_once_per_request(
    capsys, tmp_path, pair_model_path, monkeypatch
):
    docs = _chain_docs()
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(docs))
    cells = []
    record = corr._cell_record

    def counted_record(model, hosts, target):
        cells.append((hosts, target))  # by content: tuples of frozen components
        return record(model, hosts, target)

    monkeypatch.setattr(corr, "_cell_record", counted_record)
    model = FormalPairModel.from_json(PAIR_MODEL_B)
    data = [RelativeData.from_json(doc) for doc in docs]
    for i, j in sorted(_unruled_pairs(docs)):
        precedes(model, data[i], data[j])  # each search has its own memo
    pairwise = list(cells)
    assert len(pairwise) > len(set(pairwise))

    per_request = []
    for _ in range(2):
        cells.clear()
        code, _, _ = run(capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path))
        assert code == 0
        assert len(cells) == len(set(cells)) and set(cells) == set(pairwise)
        per_request.append(list(cells))
    # the memo lives as long as one request: the second one starts afresh
    assert per_request[0] == per_request[1]


def test_cap_is_checked_before_the_signature(capsys, tmp_path, pair_model_path):
    # two markings of total contact 2 in one component, and the bare base
    # component: the pair into the base is ruled out by contact, but could
    # need 2 + 1 bubble components; the reverse pair needs at most 0 + 1
    marking = {"sector": "sb", "contact": "1", "j": 1, "ell": 0}
    heavy = {"genus": 0, "class": ["1", "2"], "absolute": [], "relative": [marking, marking]}
    rd_heavy, rd_base = {"kind": "relative", "components": [heavy]}, _chain_docs()[2]
    model = FormalPairModel.from_json(PAIR_MODEL_B)
    a, b = RelativeData.from_json(rd_heavy), RelativeData.from_json(rd_base)
    with pytest.raises(SearchLimitError):
        find_precedence_witness(model, a, b, max_components=2)
    assert find_precedence_witness(model, b, a, max_components=2) is None
    assert find_precedence_witness(model, a, b) is None
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps([rd_heavy, rd_base]))
    code, _, err = run(
        capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path),
        "--max-components", "2",
    )
    assert code == 1 and err.startswith("SearchLimitError") and err.count("\n") == 1
    assert "up to 3 bubble components (cap 2)" in err


def test_order_merges_twelve_markings_within_its_budget(capsys, tmp_path):
    # On model A, twelve divisor markings of contact 1 at genus 0 glue into
    # one marking of contact 12 at genus 12 only through the one-block
    # partition, the last one the unbounded partition order yields: without
    # the block-count range this order ran 42 s on a 2-core host.  The range
    # admits that partition alone, so 2 s leaves a wide margin.  Two more
    # families stay open for the search-time item of ROADMAP.md, its
    # assignment prunes and work budget: "split" (a genus-1 target with
    # k + 1 markings of contact 1) and "no witness" (k markings on s0 into
    # k markings on sb, model B).
    k = 12
    one = {"sector": "s", "contact": "1", "j": 1, "ell": 0}
    many = {"genus": 0, "class": ["0", str(k)], "absolute": [], "relative": [one] * k}
    merged = dict(many, genus=k, relative=[dict(one, contact=str(k))])
    model_path, data_path = tmp_path / "pm.json", tmp_path / "data.json"
    model_path.write_text(json.dumps(PAIR_MODEL_A))
    data_path.write_text(
        json.dumps([{"kind": "relative", "components": [c]} for c in (merged, many)])
    )
    start = time.perf_counter()
    code, out, err = run(
        capsys, "order", "--pair-model", str(model_path), "--data", str(data_path),
        "--format", "json",
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert json.loads(out) == {"order": [1, 0], "strict_comparable_pairs": 1}
    assert elapsed < 2, f"order took {elapsed:.2f} s"


def test_solve(capsys, tmp_path):
    mpath = tmp_path / "L.json"
    vpath = tmp_path / "v.json"
    mpath.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    vpath.write_text(json.dumps(["4", "-1/3"]))
    code, out, _ = run(capsys, "solve", "--matrix", str(mpath), "--vector", str(vpath))
    assert code == 0
    assert out == "4\n-1/3\n"
    mpath.write_text(json.dumps([["2", "0"], ["3", "5"]]))
    vpath.write_text(json.dumps(["4", "1"]))
    code, out, _ = run(capsys, "solve", "--matrix", str(mpath), "--vector", str(vpath))
    assert out == "2\n-1\n"


def test_byte_determinism(capsys, model_path, tmp_path, pair_model_path):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "sectors", "--model", model_path, "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(_chain_docs()))
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "assemble", "--pair-model", pair_model_path, "--data", str(data_path)
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _drawn_label(rng, model):
    """A ladder label ``(beta_j + a r) / (alpha_j r)``, possibly with ``a = -1``,
    or a small fraction that is usually off the label image."""
    if rng.random() < 0.3:
        return format_rational(Fraction(rng.randint(-2, 9), rng.randint(1, 5)))
    j = rng.randrange(model.n)
    a = rng.randint(-1, 2 * model.alpha[j])
    return format_rational(Fraction(model.beta[j] + a * model.r, model.alpha[j] * model.r))


def test_model_verbs_are_pinned_on_drawn_models(capsys, tmp_path):
    # the verbs the benchmark does not run, in both formats, error exits
    # included; the digest was taken before the TSV tables were derived from
    # the JSON documents
    rng, digest, runs = random.Random(5), hashlib.sha256(), 0
    path = tmp_path / "m.json"
    for _ in range(50):
        model = random_local_model(rng)
        path.write_text(json.dumps(model.to_json()))
        R1, R2, R3 = (_drawn_label(rng, model) for _ in range(3))
        c, k, b = rng.randint(-1, 3 * model.weight_total), rng.randint(0, 2), rng.randint(0, model.r)
        for argv in (
            ["sectors"],
            ["degshift", f"--R={R1}"],
            ["degshift", f"--R={R1}", "--b", str(b)],
            ["rank", f"--c={c}"],
            ["rank", f"--R={R2}"],
            ["dims", "--k", str(k)],
            ["dims", f"--R={R3}"],
            ["rank"],
            ["dims"],
        ):
            for fmt in ("tsv", "json"):
                code, out, err = run(capsys, *argv, "--model", str(path), "--format", fmt)
                digest.update(repr((argv, fmt, code, out, err)).encode())
                runs += 1
    assert runs == 900
    assert digest.hexdigest()[:16] == "6573075d658146ef"


def test_out_file(capsys, model_path, tmp_path):
    target = tmp_path / "result.tsv"
    code, _, _ = run(
        capsys, "invariant", "--model", model_path, "--c", "0", "--i", "1", "--j", "1",
        "--out", str(target),
    )
    assert code == 0
    assert target.read_text() == "2\n"


def test_exit_codes(capsys, model_path, tmp_path, pair_model_path):
    # missing file: parse/IO error
    code, _, err = run(capsys, "sectors", "--model", str(tmp_path / "absent.json"))
    assert code == 2 and err
    # schema violation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 2, "beta": [0], "alpha": [1]}))
    code, _, err = run(capsys, "sectors", "--model", str(bad))
    assert code == 2 and "SchemaError" in err
    # domain error: invariant off the label image
    code, _, err = run(capsys, "dims", "--model", model_path, "--R", "1/3")
    assert code == 1 and "LabelError" in err
    # domain error: improper pair
    code, _, err = run(
        capsys, "invariant", "--model", model_path, "--c", "0", "--i", "1", "--j", "1",
        "--d", "1",
    )
    assert code == 1 and "ImproperPairError" in err
    # malformed batch rows and off-diagonal entries: one-line schema errors
    qpath = tmp_path / "q.json"
    for rows in ([5], [{"c": None, "i": 1, "j": 1}], [{"lambdas": 3, "d": 1}]):
        qpath.write_text(json.dumps(rows))
        code, _, err = run(capsys, "invariant", "--model", model_path, "--data", str(qpath))
        assert code == 2 and err.startswith("SchemaError") and err.count("\n") == 1
    # a batch row's H-power parses like its other fields
    for d, expected in (("0", 0), ("x", 2)):
        qpath.write_text(json.dumps([{"c": 0, "i": 1, "j": 1, "d": d}]))
        code, _, err = run(capsys, "invariant", "--model", model_path, "--data", str(qpath))
        assert code == expected and err.count("\n") == expected // 2
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(_chain_docs()))
    od_path = tmp_path / "od.json"
    for entries in ([5], [[1, 2]], [[1, 2, "5/7", 0]], [[1, None, "5/7"]], [[1, 9, "5/7"]]):
        od_path.write_text(json.dumps(entries))
        code, _, err = run(
            capsys, "assemble", "--pair-model", pair_model_path, "--data", str(data_path),
            "--offdiag", str(od_path),
        )
        assert code == 2 and err.startswith("SchemaError") and err.count("\n") == 1
    # top-level documents that are not arrays are malformed input
    data_path.write_text(json.dumps(_chain_docs()))
    od_path.write_text(json.dumps([]))
    obj_path = tmp_path / "obj.json"
    obj_path.write_text(json.dumps({}))
    for argv in (
        ["invariant", "--model", model_path, "--data", str(obj_path)],
        ["order", "--pair-model", pair_model_path, "--data", str(obj_path)],
        ["assemble", "--pair-model", pair_model_path, "--data", str(obj_path)],
        ["assemble", "--pair-model", pair_model_path, "--data", str(data_path),
         "--offdiag", str(obj_path)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("SchemaError") and err.count("\n") == 1, argv
    # every datum is validated, even when no pair is compared
    bad = {
        "kind": "relative",
        "components": [
            {"genus": 0, "class": ["0", "1"],
             "relative": [{"sector": "sb", "contact": "1", "j": 1, "ell": 99}]}
        ],
    }
    for docs in ([bad], [bad, bad]):
        data_path.write_text(json.dumps(docs))
        code, out, err = run(capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path))
        assert code == 1 and not out and "H-power 99" in err and err.count("\n") == 1
    # solve takes an array of arrays and an array
    mpath, vpath = tmp_path / "L.json", tmp_path / "v.json"
    for matrix, vector in ((5, ["1"]), ([1, 2], ["1", "2"]), ({"12": 1}, ["1"]), ([["1"]], 5)):
        mpath.write_text(json.dumps(matrix))
        vpath.write_text(json.dumps(vector))
        code, out, err = run(capsys, "solve", "--matrix", str(mpath), "--vector", str(vpath))
        assert code == 2 and not out and err.startswith("SchemaError") and err.count("\n") == 1
    # a float or bool where an integer is expected, an integer string outside
    # the p/q wire format ("1_0"), or lambdas that are not an array, is
    # malformed input: int() would truncate or take it silently
    argvs = []
    for i, doc in enumerate(
        [{"r": 2.0, "beta": [1, 2], "alpha": [1, 1]}, {"r": 2, "beta": [1.9, 2], "alpha": [1, 1]},
         {"r": 2, "beta": [1, 2], "alpha": [1, True]}, {"r": "1_0", "beta": [1, 2], "alpha": [1, 1]}]
    ):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["sectors", "--model", str(path)])
    for i, row in enumerate(
        [{"c": 1.7, "i": 1, "j": 1}, {"c": 0, "i": True, "j": 1}, {"c": 0, "i": 1, "j": 1, "d": 0.0},
         {"lambdas": "123", "d": 2}, {"lambdas": ["1", "2"], "d": 1.0}, {"c": "1_0", "i": 1, "j": 1},
         {"c": 0, "i": "1.0", "j": 1}, {"lambdas": ["1", "2"], "d": "1_0"}, {"lambdas": ["1_0"], "d": 1}]
    ):
        path = tmp_path / f"q{i}.json"
        path.write_text(json.dumps([row]))
        argvs.append(["invariant", "--model", model_path, "--data", str(path)])
    data_path.write_text(json.dumps(_chain_docs()))
    for i, entries in enumerate([[[1.9, 2, "5/7"]], [[1, 2.0, "5/7"]], [["1_0", 2, "5/7"]]]):
        path = tmp_path / f"od{i}.json"
        path.write_text(json.dumps(entries))
        argvs.append(["assemble", "--pair-model", pair_model_path, "--data", str(data_path),
                      "--offdiag", str(path)])
    for i, lattice in enumerate([{"Z_pairing": [0, 1.5]}, {"F": [0, True]}, {"F": [0, "1_0"]}]):
        doc = json.loads(json.dumps(PAIR_MODEL_B))
        doc["lattice"].update(lattice)
        path = tmp_path / f"pm{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["order", "--pair-model", str(path), "--data", str(data_path)])
    # the codimension-1 sectors on a lattice whose second coordinate neither
    # the pushforward nor the pairing reaches, with a nonzero FZ or without
    ad_path = tmp_path / "ad.json"
    ad_path.write_text(json.dumps({"kind": "absolute", "components": [
        {"genus": 0, "class": ["1/4"], "s_markings": [{"sector": "t", "j": 1, "psi": 0}]}
    ]}))
    for i, fz in enumerate([[0, 1], [0, 0]]):
        lattice = {"rank": 2, "F": [0, 1], "FZ": fz, "Z_pairing": [2, 0], "kappa_push": [[1, 0]]}
        path = tmp_path / f"codim1_{i}.json"
        path.write_text(json.dumps({**PAIR_MODEL_CODIM1, "lattice": lattice}))
        argvs.append(["correspond", "--pair-model", str(path), "--data", str(ad_path)])
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("SchemaError") and err.count("\n") == 1, argv



def _relative(*components):
    return {"kind": "relative", "components": list(components)}


def _component(**fields):
    return {"genus": 0, "class": ["0", "1"], **fields}


_MARKING = {"sector": "sb", "contact": "1", "j": 1, "ell": 0}

# (id, verb, data document, its one stderr line); ``order`` reads an array
_MALFORMED_DATA = [
    # a kind is compared, never looked up: a list or an object is unknown
    ("kind-list", "correspond", {"kind": ["relative"], "components": []},
     "SchemaError: unknown data kind ['relative']"),
    ("kind-object", "correspond", {"kind": {"relative": 1}, "components": []},
     "SchemaError: unknown data kind {'relative': 1}"),
    ("kind-unknown", "correspond", {"kind": "n_minimal", "components": []},
     "SchemaError: unknown data kind 'n_minimal'"),
    ("kind-absolute-in-order", "order", [{"kind": "absolute", "components": []}],
     'SchemaError: expected an object with "kind": "relative"'),
    ("components-object", "correspond", {"kind": "relative", "components": {}},
     'SchemaError: "components" must be a list'),
    ("component-int", "order", [_relative(5)], "SchemaError: missing field 'genus'"),
    ("genus-missing", "correspond", _relative({"class": ["0", "1"]}),
     "SchemaError: missing field 'genus'"),
    ("genus-negative", "order", [_relative(_component(genus=-1))],
     "SchemaError: genus must be nonnegative, got -1"),
    ("class-entry", "correspond", _relative(_component(**{"class": ["0", "x"]})),
     "SchemaError: malformed class vector: not a rational literal: 'x'"),
    ("marking-int", "correspond", _relative(_component(absolute=[5])),
     "SchemaError: missing field 'sector'"),
    ("contact-missing", "order",
     [_relative(_component(relative=[{"sector": "sb", "j": 1, "ell": 0}]))],
     "ValueError: not a rational literal: ''"),
    ("contact-null", "order", [_relative(_component(relative=[{**_MARKING, "contact": None}]))],
     "ValueError: not a rational literal: None"),
    ("j-bool", "correspond", _relative(_component(relative=[{**_MARKING, "j": True}])),
     "SchemaError: field 'j' must be an integer, got True"),
    ("relative-object", "order", [_relative(_component(relative={}))],
     "SchemaError: field 'relative' must be a list"),
    ("psi-missing", "correspond", {"kind": "absolute", "components": [
        {"genus": 0, "class": ["1"], "s_markings": [{"sector": "t1", "j": 1}]}
    ]}, "SchemaError: missing field 'psi'"),
]


@pytest.mark.parametrize(
    "verb, doc, line", [pytest.param(*case[1:], id=case[0]) for case in _MALFORMED_DATA]
)
def test_a_malformed_data_document_is_one_error_line(
    capsys, tmp_path, pair_model_path, verb, doc, line
):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, "--pair-model", pair_model_path, "--data", str(path))
    assert (code, out, err) == (2, "", line + "\n")
