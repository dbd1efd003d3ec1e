#!/usr/bin/env python3
"""Build bench_suite from source and run one workload.

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths resolve from this
file). The first call configures and builds bench_suite under
$CARGO_TARGET_DIR/bench_suite (default .bench_build/bench_suite); later
calls only let the build check that it is up to date. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list (measured in a traced run). Build output and
the suite's own report go to stderr. Exits non-zero without a result line
when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"bench_suite/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(build_dir), "--target", "bench_suite", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "bench_suite"


def run(cmd, timeout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the proc backend's forked ranks included) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    if not (ROOT / "src").is_dir():
        fail(f"library sources {ROOT / 'src'} not found")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "bench_suite")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", str(target / "bench_suite" /
                                   f"trace-{args.workload}-{args.seed}.json")]
    code, out = run(cmd, timeout=4 * args.seconds + 100)
    lines = out.splitlines()
    records = [l for l in lines if l.startswith("{")]
    for l in lines:
        if not l.startswith("{"):
            print(l, file=sys.stderr)
    if not records:
        fail(f"bench_suite exited {code} without a result")
    rec = json.loads(records[-1])
    measured = rec["per_layer" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from the bench output")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = rec["verified"] and rec["failed"] == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
