"""Closed-loop benchmark worker: one client, one thread, one process.

``run.py`` starts this script in a fresh interpreter for each pass over
the requests.  Each request calls ``wbcorr.cli.main(argv)`` in-process
with stdout and stderr captured, as a long-lived library caller would, and
the next request starts only after it returns.  Latency is the time inside ``main``;
the output checks run outside it.  The loop stops once ``--seconds`` of
request time and at least ``MIN_REQUESTS`` requests are done (or after
exactly ``--count`` requests), cycling through the request pool if it runs
out.

Usage:
    python3 bench/worker.py --src SRC --requests FILE --result FILE
        (--seconds S | --count N) [--digests FILE] [--spans FILE] [--cpu N]

``--spans`` turns tracing on and names the file the spans are written to.
``--cpu`` pins the worker to one CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

#: Smallest run whose p90 leaves at least ten samples beyond it.
MIN_REQUESTS = 100

MAX_FAILURE_NOTES = 10


def percentile(sorted_values, q: float, beyond: int = 10):
    """Nearest-rank ``q``-th percentile of ascending ``sorted_values``.

    Raises ValueError when fewer than ``beyond`` samples lie above the rank
    it reports, so a tail figure never rests on a handful of samples.
    """
    n = len(sorted_values)
    rank = max(math.ceil(q / 100 * n), 1)
    if n - rank < beyond:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it; need {beyond}")
    return sorted_values[rank - 1]


def stdout_digest(text: str) -> str:
    """First 64 bits of the SHA-256 of a request's stdout."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _tsv(out: str) -> list[list[str]]:
    return [line.split("\t") for line in out.splitlines()]


def _check_invariant(check, out):
    results = json.loads(out)["results"]
    if len(results) != check["queries"]:
        return f"{len(results)} results for {check['queries']} queries"
    r = check["r"]
    for e in results:
        R, h, h_prime = Fraction(e["R"]), Fraction(e["h"]), Fraction(e["h_prime"])
        fact, value = Fraction(e["c_max_factorial"]), Fraction(e["value"])
        if value != (r * h if e["i"] == e["j"] else 0):
            return f"c={e['c']}: value {value} is not r*h*delta_ij"
        if h_prime != h * fact:
            return f"c={e['c']}: h_prime != h * c_max_factorial"
        if r * h * fact != R ** e["d"]:
            return f"c={e['c']}: r * h * c_max_factorial != R^d"
    return None


def _check_window(check, out):
    rows = _tsv(out)
    if rows[0] != ["R", "multiplicity", "dim", "dim_oracle"]:
        return "unexpected header"
    if sum(int(row[1]) for row in rows[1:]) != check["weight_total"]:
        return "window multiplicities do not total the weight"
    if any(row[2] != row[3] for row in rows[1:]):
        return "dim != dim_oracle"
    return None


def _check_rank(check, out):
    c, _R, _d, rank = _tsv(out)[1]
    if int(c) != check["c"] or int(rank) != check["c"] + 1:
        return f"rank {rank} for c={c}, expected {check['c'] + 1}"
    return None


def _check_order(check, out):
    rows = _tsv(out)[1:]
    if sorted(int(idx) for _pos, idx in rows) != list(range(check["n"])):
        return "order is not a permutation of the input indices"
    return None


def _check_assemble(check, out):
    rows = _tsv(out)
    order = [int(x) for x in rows[0][1].split()]
    matrix = [[Fraction(x) for x in row[1:]] for row in rows[1:]]
    n = check["n"]
    if sorted(order) != list(range(n)) or len(matrix) != n or any(len(r) != n for r in matrix):
        return "matrix shape or order is wrong"
    for i in range(n):
        if matrix[i][i] == 0 or any(matrix[i][j] != 0 for j in range(i + 1, n)):
            return f"row {i} is not lower-triangular with a nonzero diagonal"
    position = {idx: pos for pos, idx in enumerate(order)}
    for row, col, value in check["offdiag"]:
        if matrix[position[row]][position[col]] != Fraction(value):
            return f"supplied entry ({row}, {col}) is missing"
    return None


def _check_solve(check, out):
    x = [Fraction(v) for v in out.split()]
    L = [[Fraction(v) for v in row] for row in check["matrix"]]
    v = [Fraction(e) for e in check["vector"]]
    if len(x) != len(v):
        return "solution has the wrong length"
    if any(sum(a * b for a, b in zip(row, x)) != rhs for row, rhs in zip(L, v)):
        return "L x != v"
    return None


_CHECKS = {
    "invariant": _check_invariant,
    "window": _check_window,
    "rank": _check_rank,
    "order": _check_order,
    "assemble": _check_assemble,
    "solve": _check_solve,
}


def check_output(request: dict, code, out: str, err: str):
    """Why a finished request is wrong, or None when it is right."""
    if code != request["expect"]:
        reason = err.strip().splitlines()[-1] if err.strip() else "no message"
        return f"exit code {code}, expected {request['expect']} ({reason})"
    check = request.get("check")
    if code != 0 or check is None:
        return None
    try:
        return _CHECKS[check["kind"]](check, out)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the closed loop


def call(main, argv):
    """Run one request; returns (exit code, stdout, stderr, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects its argv this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        code = None
        error = "exception escaped main: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed, error


def run_requests(get_main, requests, *, seconds=None, count=None, digests=None, on_request=None):
    """Closed loop over ``requests``; returns the raw per-run result.

    ``get_main`` returns the entry point to call; it is looked up per request
    so that tracing can rebind it.  ``digests``, when given, are the recorded stdout digests
    of the pool, and a request whose stdout differs fails.
    """
    latencies, out_digests, notes = [], [], []
    failed = 0
    busy = 0.0
    i = 0
    while (i < count) if count is not None else (busy < seconds or i < MIN_REQUESTS):
        request = requests[i % len(requests)]
        if on_request is not None:
            on_request(i)
        code, out, err, elapsed, error = call(get_main(), request["argv"])
        busy += elapsed
        latencies.append(elapsed)
        digest = stdout_digest(out)
        out_digests.append(digest)
        problem = error or check_output(request, code, out, err)
        if problem is None and digests is not None and digest != digests[i % len(digests)]:
            problem = "stdout differs from the recorded digest"
        if problem is not None:
            failed += 1
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(f"request {i} ({request['argv'][0]}): {problem}")
        i += 1
    return {
        "attempted": i,
        "failed": failed,
        "failures": notes,
        "busy_s": busy,
        "latencies": latencies,
        "digests": out_digests,
        "pool": len(requests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--result", required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--count", type=int)
    parser.add_argument("--digests")
    parser.add_argument("--spans")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, args.src)
    import wbcorr
    import wbcorr.cli

    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)
    digests = None
    if args.digests:
        with open(args.digests, encoding="utf-8") as fh:
            digests = json.load(fh)

    tracer = None
    on_request = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

        def on_request(i):
            tracer.request_id = i

    try:
        result = run_requests(
            lambda: wbcorr.cli.main,
            requests,
            seconds=args.seconds,
            count=args.count,
            digests=digests,
            on_request=on_request,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["attempted"])
        tracer.write(args.spans)
    result["backend"] = wbcorr.BACKEND
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
