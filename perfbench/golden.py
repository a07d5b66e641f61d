"""Record the canary output digests into ``golden.json``.

    python3 perfbench/golden.py

Each workload's canary round (``workloads.CANARY_SEED``, canary size) is
run in a fresh interpreter and its digest written out.  Re-record only
when a change is meant to alter simulated outputs, and say so: every
benchmark run fails its correctness check until the digests match.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        sample = run.spawn(name, workloads.CANARY_SEED, "setup",
                           deadline=time.monotonic() + run.RUN_DEADLINE_S,
                           canary=True)
        canary = sample["canary"]
        if canary["checks"]:
            print(f"{name}: canary failed its checks: {canary['checks']}",
                  file=sys.stderr)
            return 1
        digests[name] = canary["digest"]
        print(f"{name:12s} {canary['digest']}")
    with open(os.path.join(run.HERE, "golden.json"), "w") as out:
        json.dump({"canary_seed": workloads.CANARY_SEED, "digests": digests},
                  out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
