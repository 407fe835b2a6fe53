#!/usr/bin/env python3
"""Checks that the fleet benchmark's simulated outputs are unchanged.

    python3 tools/check_sim_digests.py

Builds the fleet benchmark the way perfbench/run.py does, runs each
workload once on each of the eight input sets of seed 7, full size, and
compares every repetition's sim_digest with the pinned value in
tests/baselines/sim_digests.json. The pins were taken before the
change they guard and are never regenerated to make this pass; a
behaviour change that is meant must say so and re-pin with a reason.

sim_digest folds the serving layer's latency sum and maximum but no
percentile, so each serve-peak repetition's req_p50_sim_ms and
req_p99_sim_ms are also compared, exactly, with the pins in
tests/baselines/serve_percentiles.json (taken the same way).

Exits 0 when all 24 digests and all 8 percentile pairs match, 1
otherwise. On a mismatch, or when a pin file is missing, the last line
of stdout is the JSON object of the digests this tree produced.
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
PERCENTILE_PINS = os.path.join(ROOT, "tests", "baselines",
                               "serve_percentiles.json")
PERCENTILES = ("req_p50_sim_ms", "req_p99_sim_ms")


def main():
    run.build()
    actual = {}
    percentiles = {}
    unbalanced = []
    for workload in run.WORKLOADS:
        for rep in range(run.SUB_SEEDS):
            seed = run.sub_seed(SEED, rep)
            key = f"{workload}/{seed}"
            record = run.repetition(workload, seed, False)
            if not record.get("ok"):
                unbalanced.append(key)
            actual[key] = record.get("sim_digest", "none")
            if workload == "serve-peak":
                percentiles[key] = {p: record.get(p) for p in PERCENTILES}
    missing = [p for p in (PINS, PERCENTILE_PINS) if not os.path.exists(p)]
    if missing:
        print(f"no pins at {' '.join(missing)}")
        print(json.dumps({"sim_digests": actual,
                          "serve_percentiles": percentiles},
                         sort_keys=True))
        return 1
    with open(PINS) as f:
        pinned = json.load(f)
    with open(PERCENTILE_PINS) as f:
        pinned_percentiles = json.load(f)
    mismatched = report(pinned, actual, "sim_digests")
    mismatched += report(pinned_percentiles, percentiles,
                         "serve-peak p50/p99 pairs")
    for key in unbalanced:
        print(f"{key}: books do not balance")
    if mismatched or unbalanced:
        print(json.dumps({"sim_digests": actual,
                          "serve_percentiles": percentiles},
                         sort_keys=True))
        return 1
    return 0


def report(pinned, actual, what):
    """Prints each key whose value differs from its pin and a summary
    line; returns the number of mismatches."""
    mismatched = sorted(k for k in pinned.keys() | actual.keys()
                        if pinned.get(k) != actual.get(k))
    for key in mismatched:
        print(f"{key}: pinned {pinned.get(key)}, got {actual.get(key)}")
    print(f"{len(actual) - len(mismatched)}/{len(pinned)} {what} "
          f"match the pins")
    return len(mismatched)


if __name__ == "__main__":
    sys.exit(main())
