"""Record the stdout digests of the default seed's request pools.

Run from the root of a checkout whose outputs are known to be right:
    python3 bench/record_digests.py
It rewrites bench/digests.json.  Every later run with the default seed
fails a request whose stdout differs from its recorded digest.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import run


def main() -> int:
    recorded = {}
    for workload in gen.WORKLOADS:
        work = run.HERE / "_work" / f"record-{workload}"
        try:
            n_requests = run.prepare(work, workload, run.DEFAULT_SEED)
            res = run.run_worker(work, "--count", str(n_requests))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res["failed"]:
            print("\n".join(res["failures"]), file=sys.stderr)
            return 1
        recorded[workload] = res["digests"]
    (run.HERE / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
