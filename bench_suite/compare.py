#!/usr/bin/env python3
"""A/B comparison of two sets of bench_suite runs (standard library only).

    python3 bench_suite/compare.py PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds bench_suite JSON lines (--json-out), any number of runs of
any workloads. Run the two sides as pairs in alternating order (parent
first, then change first, ...); the i-th parent run of a workload is paired
with its i-th change run. For every workload and end-to-end metric this
prints each side's median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict against the metric's bound from
BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than the bound
  gain        the change won at least 9 in 10 pairs and the medians differ by
              more than the parent's quartile spread
  unresolved  a side's quartile spread exceeds the bound and not every change
              run beat every parent run
  same        none of the above

Per-layer metrics (traced runs) are listed with their medians and no
verdict. Exits 1 when any metric regressed, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = {}
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{n}: not JSON: {e}")
        if "workload" not in rec:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def values(recs, section, name):
    return [r[section][name]["value"] for r in recs
            if name in r.get(section, {}) and r[section][name]["value"] is not None]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = (min(change) > max(parent)) if better == "higher" else (max(change) < min(parent))
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound and not all_better:
        return won, "unresolved"
    if worse_by > bound:
        return won, "regression"
    if won >= 0.9 and abs(cm - pm) > (p3 - p1):
        return won, "gain"
    return won, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec",
                    default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    parent, change = load(args.parent), load(args.change)

    regressed = False
    fmt = "  {:<22} {:>12} [{:>10} {:>10}]  {:>12} [{:>10} {:>10}]  {:>+7.2f}%  {:>5}  {}"
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in parent or w not in change:
            print(f"{w}: missing from {'parent' if w not in parent else 'change'} runs")
            continue
        n = min(len(parent[w]), len(change[w]))
        print(f"{w}  ({n} pairs)")
        print("  {:<22} {:>12} [{:>10} {:>10}]  {:>12} [{:>10} {:>10}]  {:>8}  {:>5}  {}".format(
            "metric", "parent", "q1", "q3", "change", "q1", "q3", "delta", "won", "verdict"))
        for m in spec["end_to_end"]:
            p = values(parent[w][:n], "metrics", m["name"])
            c = values(change[w][:n], "metrics", m["name"])
            if not p or not c:
                print(f"  {m['name']:<22} missing")
                continue
            won, v = verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regression"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = 100.0 * (cm - pm) / pm if pm else 0.0
            print(fmt.format(m["name"], f"{pm:.5g}", f"{p1:.5g}", f"{p3:.5g}", f"{cm:.5g}",
                             f"{c1:.5g}", f"{c3:.5g}", delta, f"{won:.0%}", v))
        layer = [(m["name"], values(parent[w][:n], "per_layer", m["name"]),
                  values(change[w][:n], "per_layer", m["name"])) for m in spec["per_layer"]]
        layer = [(name, p, c) for name, p, c in layer if p and c]
        if layer:
            print("  per-layer medians (parent -> change):")
            for name, p, c in layer:
                pm, cm = statistics.median(p), statistics.median(c)
                print(f"    {name:<30} {pm:>12.5g} -> {cm:<12.5g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
