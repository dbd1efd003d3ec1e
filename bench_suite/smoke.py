#!/usr/bin/env python3
"""Smoke test of bench_suite (standard library only).

    python3 bench_suite/smoke.py BENCH_SUITE_BINARY BENCHMARK.json

Runs every workload at about 1/50 size with tracing (`--workload all
--smoke`) and asserts that each prints one valid JSON line with verified
outputs, no failed operations, and every end-to-end and per-layer metric
named in BENCHMARK.json with its unit; that each Chrome trace parses; and
that malformed flags exit 2. Writes its trace files to the working
directory.
"""
import json
import subprocess
import sys
import time


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)

    t0 = time.time()
    p = subprocess.run([binary, "--workload", "all", "--seed", "1", "--smoke",
                        "--trace-out", "smoke-trace"], capture_output=True, text=True, timeout=120)
    check(p.returncode == 0, f"--workload all --smoke exited {p.returncode}: {p.stderr[-2000:]}")
    recs = [json.loads(l) for l in p.stdout.splitlines() if l.startswith("{")]
    names = [w["name"] for w in spec["workloads"]]
    check([r["workload"] for r in recs] == names, f"workloads {[r['workload'] for r in recs]}")
    for r in recs:
        w = r["workload"]
        check(r["verified"] and r["failed"] == 0 and r["attempted"] > 0, f"{w}: not verified")
        for section, wanted in (("metrics", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
            for m in wanted:
                got = r[section].get(m["name"])
                check(got is not None, f"{w}: {m['name']} missing")
                check(got["unit"] == m["unit"], f"{w}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)), f"{w}: {m['name']} not a number")
        with open(f"smoke-trace.{w}.json") as f:
            trace = json.load(f)
        check(len(trace["traceEvents"]) > 0, f"{w}: empty trace")
    elapsed = time.time() - t0

    for bad in (["--workload", "nope", "--seed", "1"], ["--workload", "all", "--seed", "x"],
                ["--workload", "all", "--seed", "1", "--seconds", "0"]):
        p = subprocess.run([binary] + bad, capture_output=True, text=True, timeout=30)
        check(p.returncode == 2, f"{' '.join(bad)} exited {p.returncode}, want 2")
        check(not p.stdout.strip(), f"{' '.join(bad)} printed a result")
    print(f"bench_suite smoke: {len(recs)} workloads verified in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
