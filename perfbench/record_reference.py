#!/usr/bin/env python3
"""Record the per-item verdict digests of the default seed.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a relpos checkout.  Writes perfbench/reference/<workload>.json;
perfbench/run.py compares every item of a default-seed run against it.  An
item that fails while recording gets no digest (null) and its failure is
stored with the reference, so a known-wrong verdict is never recorded as the
expected one; runs still count that item as failed while it fails.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
from worker import REFERENCE_DIR  # noqa: E402

# Rounds recorded: more than a default run (--seconds 20) measures.
ROUNDS = {"classify": 32, "operator": 6, "lab": 4}


def main(argv):
    children = run.Children(run.checkout_root(), time.monotonic() + 3600)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in argv[1:] or gen.WORKLOADS:
        out = children.run("record", workload, gen.DEFAULT_SEED, ROUNDS[workload])
        for msg in out["failures"]:
            print(f"no digest, item failed: {msg}", file=sys.stderr)
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as f:
            json.dump({"seed": gen.DEFAULT_SEED, "rounds": ROUNDS[workload], "failures": out["failures"],
                       "digests": out["digests"]}, f, indent=0)
            f.write("\n")
        print(f"{path}: {len(out['digests'])} digests, {out['failed']} failed, notes {out['notes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
