#!/usr/bin/env python3
"""Fleet benchmark runner.

    python3 perfbench/run.py --workload fleet-day --seed 7 --seconds 38 --trace 0

Builds perfbench/ (and through it every library source under src/) into
.bench_build/, then runs repetitions of one workload, each in its own
fleet_bench process, until --seconds have passed and every input set
ran once. Repetition i runs input set i % SUB_SEEDS of the
seed. Every repetition must balance its books and every repetition of
one input set must report the same simulated outputs; otherwise the run
is incorrect and every operation counts as failed.

--trace 0 reports the end-to-end metrics. Each is the mean over input
sets of the median over that set's repetitions: host timings and peak
RSS, and the simulated outputs (exact for a seed).
--trace 1 alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones, aggregated the same way, and the
tracing overhead, and writes the last traced repetition's spans to
.bench_out/spans_<workload>_<seed>.csv.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the metric catalogue.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "fleet_bench")

WORKLOADS = ("fleet-day", "serve-peak", "eop-storm")
SUB_SEEDS = 8
MAX_REPS = 40
REP_TIMEOUT_S = 150

# name -> unit of the end-to-end metrics, in output order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sim_energy_kwh": "kWh",
}
# Host-dependent fields of a repetition; every other number it reports
# is simulated and must repeat exactly for a fixed seed.
HOST_FIELDS = {"setup_s", "run_s", "peak_rss_mb", "setup_wall_s", "run_wall_s",
               "host_slowdown", "layers"}


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print(f"run.py: no src/ beside {HERE}; nothing to build",
              file=sys.stderr)
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def repetition(workload, seed, traced, spans_out=None, small=False):
    """Runs one fleet_bench process; returns its JSON record."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if small:
        cmd.append("--small")
    if traced:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else {"ok": False}
    if proc.returncode != 0:
        record["ok"] = False
    record["seed"] = seed  # exact, whatever the binary's JSON number holds
    return record


def simulated(record):
    return {k: v for k, v in record.items() if k not in HOST_FIELDS}


def sub_seed(seed, rep):
    """Repetition `rep` of a run runs input set rep % SUB_SEEDS of its
    seed, so one run averages over SUB_SEEDS arrival traces and a
    seed's outputs do not hinge on one trace's luck."""
    return seed * SUB_SEEDS + rep % SUB_SEEDS


def by_input(records, value):
    """Mean over input sets of the median over each set's repetitions;
    steady whatever number of repetitions the run fitted in."""
    groups = {}
    for r in records:
        groups.setdefault(r["seed"], []).append(float(value(r)))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def run_reps(workload, seed, seconds, traced, small=False):
    """Repetitions until `seconds` have passed and every input set ran;
    traced runs alternate an untraced and a traced repetition."""
    plain, with_trace = [], []
    start = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans_{workload}_{seed}.csv")
    while True:
        rep_seed = sub_seed(seed, len(plain))
        plain.append(repetition(workload, rep_seed, False, small=small))
        if traced:
            with_trace.append(
                repetition(workload, rep_seed, True, spans, small))
        elapsed = time.monotonic() - start
        done = len(plain)
        per_rep = elapsed / done
        if not plain[-1].get("ok") or (traced and not with_trace[-1].get("ok")):
            break
        if done >= MAX_REPS:
            break
        if done >= SUB_SEEDS and elapsed + per_rep > seconds:
            break
    return plain, with_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true",
                        help="reduced fleets, for the benchmark's own tests")
    args = parser.parse_args()

    build()
    plain, with_trace = run_reps(args.workload, args.seed, args.seconds,
                                 args.trace == 1, args.small)
    records = plain + with_trace
    books_ok = all(r.get("ok") for r in records)
    first = {}
    for r in records:
        first.setdefault(r.get("seed"), simulated(r))
    repeatable = all(simulated(r) == first[r.get("seed")] for r in records)
    correct = books_ok and repeatable
    attempted = sum(int(r.get("vm_requests", 0)) + int(r.get("user_requests", 0))
                    for r in records) or 1
    failed = 0 if correct else attempted

    # A repetition that crashed left no record; report what the others
    # measured.
    plain = [r for r in plain if "run_s" in r]
    with_trace = [r for r in with_trace if "layers" in r]
    metrics = {}
    if args.trace == 0 and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": by_input(plain, lambda r: r[name]),
                             "unit": unit}
    elif args.trace == 1 and plain and with_trace:
        for name, m in with_trace[0]["layers"].items():
            metrics[name] = {
                "value": by_input(with_trace,
                                  lambda r: r["layers"][name]["value"]),
                "unit": m["unit"]}
        metrics["bench.trace_overhead_s"] = {
            "value": by_input(with_trace, lambda r: r["run_s"])
            - by_input(plain, lambda r: r["run_s"]),
            "unit": "s"}

    digests = sorted({r.get("sim_digest", "none") for r in plain})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(plain)} untraced, {len(with_trace)} traced  "
          f"sim_digest {' '.join(digests)}")
    print(f"books balance: {books_ok}   simulated outputs repeat: {repeatable}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
