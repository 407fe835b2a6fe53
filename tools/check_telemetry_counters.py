#!/usr/bin/env python3
"""Checks that the control plane's telemetry counters are unchanged.

    python3 tools/check_telemetry_counters.py [path/to/uniserver_ctl]

Runs two seeded uniserver_ctl commands with --telemetry-out (a 64-case
storm- and request-heavy fuzz campaign on four jobs, and the `stack`
run) and compares every `cloud.*`, `cloud.mig.*`, `serve.*` and `hv.*`
counter in each snapshot with the pinned value in
tests/baselines/telemetry_counters.json. A counter missing from either
side reads as 0. The pins were taken before the change they guard and
are never regenerated to make this pass.

The uniserver_ctl binary defaults to build/examples/uniserver_ctl.
Exits 0 when every counter matches, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "tests", "baselines", "telemetry_counters.json")
RUNS = {
    "fuzz": ["--jobs", "4", "fuzz", "--seed", "7", "--cases", "64",
             "--storm-share", "0.2", "--request-share", "0.15"],
    "stack": ["stack", "i5", "3"],
}
NAMESPACES = ("cloud.", "serve.", "hv.")


def counters(ctl, args, snapshot):
    subprocess.run([ctl, "--telemetry-out", snapshot, *args], check=True,
                   stdout=subprocess.DEVNULL)
    with open(snapshot) as f:
        metrics = json.load(f)["metrics"]
    return {m["name"]: int(m["value"]) for m in metrics
            if m["type"] == "counter" and m["name"].startswith(NAMESPACES)}


def main():
    ctl = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "build", "examples", "uniserver_ctl")
    with open(PINS) as f:
        pins = json.load(f)
    mismatched = 0
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for run, args in RUNS.items():
            actual = counters(ctl, args, os.path.join(tmp, run + ".json"))
            pinned = pins[run]
            for name in sorted(pinned.keys() | actual.keys()):
                checked += 1
                want, got = pinned.get(name, 0), actual.get(name, 0)
                if want != got:
                    mismatched += 1
                    print(f"{run}: {name} pinned {want}, got {got}")
    print(f"{checked - mismatched}/{checked} telemetry counters match "
          f"the pins")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
