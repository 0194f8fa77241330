"""wbcorr benchmark: seeded CLI workloads timed in-process.

Usage (from the root of a checkout):
    python3 bench/run.py --workload {ladder,poset} --seed N --seconds S --trace {0,1}

The command writes the workload's inputs for the seed under bench/_work,
then runs its requests as a closed loop (one client, one thread) through
``wbcorr.cli.main``, checks every output, and prints a report followed by
one JSON result line.

The run is split into passes over the same requests, each in a fresh child
interpreter, one at a time.  The first runs for 1/MAX_PASSES of
``--seconds`` (and for at least the worker's MIN_REQUESTS requests); then
as many passes as fill ``--seconds`` run exactly the requests the first got
through, never fewer than MIN_PASSES passes in all.  A request's latency is
the median of its timings.  On a shared host the speed of each CPU drifts
by 10-40% for seconds to minutes at a time; the median of timings taken
seconds apart, with the passes pinned to the CPUs this process may use in
turn, reports the speed the host has most of the time.  Passes are separate
processes, so a cache kept across requests still never sees a ladder model
twice.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the request list twice in fresh children, untraced and then
traced, requires byte-identical stdout from both, and reports the per-layer
metrics of the traced run; its spans are written to bench/_out.

For the default seed every stdout is also compared with a digest recorded
from the seed commit (bench/digests.json, see record_digests.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
from worker import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

DEFAULT_SEED = 0
SETUP_PROBES = 11
MIN_PASSES = 3
MAX_PASSES = 8
CHILD_TIMEOUT_S = 170

#: Imports wbcorr.cli in a fresh interpreter and prints the seconds it took.
_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import wbcorr.cli; print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    # A fixed hash seed keeps set iteration order, and with it the per-layer
    # counts, identical from run to run.
    return dict(os.environ, PYTHONHASHSEED="0")


def setup_times(probes: int) -> list[float]:
    """Import times of ``wbcorr.cli``, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout))
    return times


def run_worker(
    work: Path,
    *limit: str,
    digests: Path | None = None,
    spans: Path | None = None,
    cpu: int | None = None,
):
    result = work / "result.json"
    argv = [sys.executable, str(WORKER), "--src", str(SRC), "--requests", str(work / "requests.json")]
    argv += ["--result", str(result), *limit]
    if cpu is not None:
        argv += ["--cpu", str(cpu)]
    if digests is not None:
        argv += ["--digests", str(digests)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    subprocess.run(argv, env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True)
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def prepare(work: Path, workload: str, seed: int, rounds: int | None = None) -> int:
    """Fill a fresh work directory with the inputs and requests.json;
    returns the number of requests."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    requests = gen.generate(workload, seed, work / "inputs", rounds)
    (work / "requests.json").write_text(json.dumps(requests))
    return len(requests)


def median_latencies(passes: list[dict]) -> list[float]:
    """Each request's median latency over ``passes``, in ascending order."""
    return sorted(statistics.median(times) for times in zip(*(p["latencies"] for p in passes)))


def measure(work: Path, seconds: float, digests: Path | None):
    """End-to-end metrics: setup probes, then several workers over the same
    requests, each request timed at its median."""
    setup = setup_times(SETUP_PROBES + 1)[1:]  # the first compiles bytecode
    cpus = sorted(os.sched_getaffinity(0))
    passes = [run_worker(work, "--seconds", str(seconds / MAX_PASSES), digests=digests, cpu=cpus[0])]
    count = ("--count", str(passes[0]["attempted"]))
    total = min(MAX_PASSES, max(MIN_PASSES, round(seconds / passes[0]["busy_s"])))
    while len(passes) < total:
        cpu = cpus[len(passes) % len(cpus)]
        passes.append(run_worker(work, *count, digests=digests, cpu=cpu))
    lat = median_latencies(passes)
    metrics = {
        "throughput_rps": (len(lat) / sum(lat), "req/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1000, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1000, "ms"),
        "peak_rss_mib": (max(p["peak_rss_mib"] for p in passes), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    res = dict(passes[0])
    for key in ("attempted", "failed", "busy_s"):
        res[key] = sum(p[key] for p in passes)
    res["failures"] = [note for p in passes for note in p["failures"]]
    res["passes"] = len(passes)
    return res, metrics


def measure_traced(work: Path, workload: str, n_requests: int, digests: Path | None):
    """Per-layer metrics: the same requests untraced, then traced, each in a
    fresh worker; stdout that differs between the two fails."""
    limit = ("--count", str(n_requests))
    plain = run_worker(work, *limit, digests=digests)
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    res = run_worker(work, *limit, digests=digests, spans=out / f"spans-{workload}.bin")
    mismatched = sum(a != b for a, b in zip(plain["digests"], res["digests"]))
    if mismatched:
        res["failures"].append(f"{mismatched} requests printed different stdout when traced")
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"] + mismatched
    res["failures"] = plain["failures"] + res["failures"]
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = (res["busy_s"] / plain["busy_s"], "ratio")
    return res, metrics


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wbcorr" / "cli.py").is_file():
        print(f"error: no wbcorr sources under {SRC}", file=sys.stderr)
        return 2
    rounds = gen.TRACE_ROUNDS[args.workload] if args.trace else None
    work = HERE / "_work" / f"{args.workload}-{args.seed}"
    try:
        n_requests = prepare(work, args.workload, args.seed, rounds)
        digests = None
        if args.seed == DEFAULT_SEED:
            digests = work / "digests.json"
            recorded = json.loads((HERE / "digests.json").read_text())
            digests.write_text(json.dumps(recorded[args.workload]))
        if args.trace:
            res, metrics = measure_traced(work, args.workload, n_requests, digests)
        else:
            res, metrics = measure(work, args.seconds, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "backend": res["backend"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": res["attempted"],
        "request_pool": res["pool"],
        "busy_s": res["busy_s"],
        "passes": res.get("passes"),
        "digest_checked": digests is not None,
    }
    attempted, failed = res["attempted"], res["failed"]
    for note in res["failures"]:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    report = dict(metrics)
    if not args.trace:
        report["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in report.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
