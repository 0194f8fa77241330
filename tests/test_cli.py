import json

import pytest

from wbcorr import (
    FormalPairModel,
    LocalModel,
    RelativeData,
    enumerate_relative_data,
    precedes,
)
from wbcorr import correspondence as corr
from wbcorr import ranking as rank_ops
from wbcorr.cli import VERB_OPERATIONS, main

from conftest import PAIR_MODEL_B, PAIR_MODEL_C

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


def test_order_searches_each_pair_once(capsys, tmp_path, pair_model_path, monkeypatch):
    docs = _chain_docs()
    docs.append(docs[1])  # equal data are never compared
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(docs))
    searches, validations = [], []
    search, validate = corr._search, FormalPairModel.validate_relative_data

    def counted_search(model, rd1, rd2, max_components, memo=None):
        searches.append((id(rd1), id(rd2)))  # the four loaded data stay alive
        return search(model, rd1, rd2, max_components, memo)

    def counted_validate(model, rd):
        validations.append(rd)
        return validate(model, rd)

    monkeypatch.setattr(corr, "_search", counted_search)
    monkeypatch.setattr(FormalPairModel, "validate_relative_data", counted_validate)
    code, out, _ = run(capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path))
    assert code == 0 and out.startswith("position")
    assert len(searches) == len(set(searches)) == 4 * 3 - 2
    assert len(validations) == 4

    code, _, err = run(
        capsys, "order", "--pair-model", pair_model_path, "--data", str(data_path),
        "--max-components", "1",
    )
    assert code == 1 and err.startswith("SearchLimitError") and err.count("\n") == 1


def test_order_enumerates_each_cell_once_per_request(
    capsys, tmp_path, pair_model_path, monkeypatch
):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(_chain_docs()))
    cells = []
    record = corr._cell_record

    def counted_record(model, hosts, target):
        cells.append((hosts, target))  # by content: tuples of frozen components
        return record(model, hosts, target)

    monkeypatch.setattr(corr, "_cell_record", counted_record)
    model = FormalPairModel.from_json(PAIR_MODEL_B)
    data = [RelativeData.from_json(doc) for doc in _chain_docs()]
    for a in data:
        for b in data:
            if a != b:
                precedes(model, a, b)  # no memo: cells are enumerated per search
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
