#!/usr/bin/env python3
"""Checks that the fleet benchmark's simulated outputs are unchanged.

    python3 tools/check_sim_digests.py

Builds the fleet benchmark the way perfbench/run.py does, runs each
workload once on each of the eight input sets of seed 7, full size, and
compares every repetition's sim_digest with the pinned value in
tests/baselines/sim_digests.json. The pins were taken before the
change they guard and are never regenerated to make this pass; a
behaviour change that is meant must say so and re-pin with a reason.

Exits 0 when all 24 digests match, 1 otherwise. On a mismatch, or when
the pin file is missing, the last line of stdout is the JSON object of
the digests this tree produced.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

SEED = 7
PINS = os.path.join(ROOT, "tests", "baselines", "sim_digests.json")


def main():
    run.build()
    actual = {}
    unbalanced = []
    for workload in run.WORKLOADS:
        for rep in range(run.SUB_SEEDS):
            seed = run.sub_seed(SEED, rep)
            record = run.repetition(workload, seed, False)
            if not record.get("ok"):
                unbalanced.append(f"{workload}/{seed}")
            actual[f"{workload}/{seed}"] = record.get("sim_digest", "none")
    if not os.path.exists(PINS):
        print(f"no pinned digests at {PINS}")
        print(json.dumps(actual, indent=1, sort_keys=True))
        return 1
    with open(PINS) as f:
        pinned = json.load(f)
    mismatched = sorted(k for k in pinned.keys() | actual.keys()
                        if pinned.get(k) != actual.get(k))
    for key in mismatched:
        print(f"{key}: pinned {pinned.get(key)}, got {actual.get(key)}")
    for key in unbalanced:
        print(f"{key}: books do not balance")
    print(f"{len(actual) - len(mismatched)}/{len(pinned)} sim_digests "
          f"match the pins")
    if mismatched or unbalanced:
        print(json.dumps(actual, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
