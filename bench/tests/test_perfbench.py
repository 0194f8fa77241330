"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _text(requests, root: Path) -> str:
    """The request list with its input directory taken out of the paths."""
    return json.dumps(requests).replace(str(root), "")


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a", rounds=5)
    again = gen.generate(workload, 7, tmp_path / "b", rounds=5)
    other = gen.generate(workload, 8, tmp_path / "c", rounds=5)
    assert _text(first, tmp_path / "a") == _text(again, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_prefix_of_pool_is_stable(tmp_path):
    short = gen.generate("ladder", 3, tmp_path / "a", rounds=2)
    longer = gen.generate("ladder", 3, tmp_path / "b", rounds=4)
    assert _text(short, tmp_path / "a") == _text(longer[: len(short)], tmp_path / "b")


def test_benchmark_json_matches_generator():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == gen.WORKLOADS


def test_ladder_batches_have_the_same_shape_for_every_seed(tmp_path):
    def shapes(seed):
        requests = gen.generate("ladder", seed, tmp_path / str(seed), rounds=10)
        out = []
        for request in requests:
            if request["argv"][0] == "invariant":
                model = json.loads(Path(request["argv"][2]).read_text())
                queries = json.loads(Path(request["argv"][4]).read_text())
                deep = sum(q["c"] > 60 for q in queries)
                out.append((len(model["beta"]), len(queries), deep))
        return out

    assert shapes(1) == shapes(2)
    sizes = {size for _n, size, _deep in shapes(1)}
    assert sizes == set(gen.BATCH_SIZES)


def test_median_latencies_take_each_request_across_passes():
    passes = [
        {"latencies": [3.0, 1.0, 5.0]},
        {"latencies": [2.0, 4.0, 6.0]},
        {"latencies": [9.0, 2.0, 1.0]},
    ]
    assert run.median_latencies(passes) == [2.0, 3.0, 5.0]


@pytest.mark.parametrize("n", [100, 101, 109, 110, 137, 1000])
def test_percentile_leaves_ten_samples_beyond(n):
    rng = random.Random(n)
    values = sorted(rng.random() for _ in range(n))
    for q in (50, 90):
        tail = worker.percentile(values, q)
        assert sum(v > tail for v in values) >= 10


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        worker.percentile(list(range(99)), 90)


def test_failures_are_counted_and_do_not_abort():
    def fake_main(argv):
        if argv[0] == "boom":
            raise RuntimeError("escaped")
        print(argv[0])
        return 0

    requests = [{"argv": [name], "expect": 0} for name in ("ok", "boom", "ok", "changed")]
    digests = [worker.stdout_digest(f"{name}\n") for name in ("ok", "boom", "ok", "recorded")]
    res = worker.run_requests(lambda: fake_main, requests, count=8, digests=digests)
    assert res["attempted"] == 8
    # "boom" escapes main and "changed" misses its digest, on both passes
    assert res["failed"] == 4
    assert any("escaped main" in note for note in res["failures"])
    assert any("digest" in note for note in res["failures"])


def test_wrong_output_fails_its_check():
    request = {
        "argv": ["solve"],
        "expect": 0,
        "check": {"kind": "solve", "matrix": [["2", "0"], ["1", "1"]], "vector": ["4", "3"]},
    }
    assert worker.check_output(request, 0, "2\n1\n", "") is None
    assert worker.check_output(request, 0, "2\n2\n", "") == "L x != v"
    assert worker.check_output(request, 1, "", "DomainError: x\n").startswith("exit code 1")


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_tracing_does_not_change_stdout(tmp_path, workload):
    import wbcorr.cli

    requests = gen.generate(workload, 11, tmp_path, rounds=1)
    plain = worker.run_requests(lambda: wbcorr.cli.main, requests, count=len(requests))
    original = wbcorr.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert wbcorr.cli.main is not original
        traced = worker.run_requests(lambda: wbcorr.cli.main, requests, count=len(requests))
    finally:
        tracer.uninstall()
    assert wbcorr.cli.main is original
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"] == traced["digests"]
    metrics = tracer.layer_metrics(traced["attempted"])
    assert metrics["cli.requests"][0] == len(requests)
    assert metrics["cli.self_s"][0] > 0
    if workload == "ladder":
        assert metrics["ranking.c_to_Rd_calls"][0] > 0
        assert metrics["rationals.gen_factorial_factors"][0] > 0
    if workload == "poset":
        assert metrics["correspondence.witness_searches"][0] > 0
