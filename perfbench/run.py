#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the synran libraries from ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
workload. The report goes to stdout; its last line is one JSON object with
the keys correct, attempted, failed and metrics. --record FILE also appends
{"workload", "seed", "trace", "result"} to FILE for compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("attack", "tournament", "async", "serve")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds the benchmark and the synran CLI (a no-op
    after the first run in a checkout)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "perfbench", "synran_cli"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run to a JSONL file")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--synran", os.path.join(out, "synran"),
           "--work", os.path.join(out, "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    # The binary and BENCHMARK.json must name the same metrics and units.
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = {m["name"]: m["unit"]
              for m in bench["per_layer" if args.trace else "end_to_end"]}
    reported = {n: m["unit"] for n, m in result["metrics"].items()}
    if reported != listed:
        sys.stderr.write(proc.stdout)
        differ = set(reported.items()) ^ set(listed.items())
        sys.exit("perfbench: reported metrics differ from BENCHMARK.json: "
                 + ", ".join(f"{n} ({u})" for n, u in sorted(differ)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")


if __name__ == "__main__":
    main()
