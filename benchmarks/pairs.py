#!/usr/bin/env python3
"""Alternating pairs of perfbench runs in a parent and a changed checkout.

    python3 benchmarks/pairs.py PARENT CHANGE --workload classify --pairs 10 --seed 101

Pair k (from 0) runs the benchmark command of BENCHMARK.json once in each
checkout, from that checkout's root, with `--workload W --seed S+k
--seconds R --trace 0`, R being BENCHMARK.json's `run_seconds`; the parent
runs first in even pairs and the change first in odd ones.  Every run is
printed as it ends.  Then, for each end-to-end metric of BENCHMARK.json,
one line gives each side's median and quartiles, the change's median
against the parent's in percent beside the metric's regression bound, the
pairs the change won (ties count for neither), and whether a gain may be
claimed: the change wins at least nine tenths of the pairs, its median is
better than the parent's by more than the parent's interquartile range,
and no more of its items failed.

    python3 benchmarks/pairs.py --selftest

checks the summary on fixed numbers and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, checkout, workload, seed):
    """The last stdout line of one benchmark run in `checkout`, parsed."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pairs: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(metric, parent, change, failed=(0, 0)):
    """The comparison of one metric over pairs: `parent` and `change` hold
    the values of pair k at index k; `metric` is its BENCHMARK.json entry;
    `failed` the failed items summed over each side's runs."""
    sign = 1 if metric["better"] == "higher" else -1
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    n = len(parent)
    gain = sign * (cm - pm)
    return {
        "name": metric["name"],
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "ratio": cm / pm if pm else None,
        "bound": metric["bound"],
        "worse_than_bound": pm != 0 and -gain / abs(pm) > metric["bound"],
        "wins": wins,
        "pairs": n,
        "claimable": 10 * wins >= 9 * n and gain > p3 - p1 and failed[1] <= failed[0],
    }


def format_row(row):
    pm, p1, p3 = row["parent"]
    cm, c1, c3 = row["change"]
    ratio = "n/a" if row["ratio"] is None else f"{100 * (row['ratio'] - 1):+.1f}%"
    verdict = "gain holds" if row["claimable"] else "no gain"
    if row["worse_than_bound"]:
        verdict += ", WORSE than the bound"
    return (f"{row['name']:<24} {pm:>10.5g} [{p1:.5g}, {p3:.5g}]  {cm:>10.5g} [{c1:.5g}, {c3:.5g}]  "
            f"{ratio:>7} (bound {100 * row['bound']:.0f}%)  {row['wins']}/{row['pairs']}  {verdict}")


def compare(parent_root, change_root, workload, pairs, seed):
    bench = load_benchmark()
    runs = {"parent": [], "change": []}
    roots = {"parent": parent_root, "change": change_root}
    print(f"workload {workload}: {pairs} pairs, seeds {seed}-{seed + pairs - 1}, "
          f"{bench['run_seconds']} s runs; parent {parent_root}, change {change_root}")
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(bench, roots[side], workload, seed + k)
            runs[side].append(out)
            values = " ".join(f"{name} {m['value']:.6g}" for name, m in out["metrics"].items())
            print(f"pair {k + 1} seed {seed + k} {side}: {values} failed {out['failed']}/{out['attempted']}",
                  flush=True)
    failed = tuple(sum(o["failed"] for o in runs[side]) for side in ("parent", "change"))
    print(f"failed items: parent {failed[0]}, change {failed[1]}")
    print(f"{'metric':<24} {'parent median [q1, q3]':>30}  {'change median [q1, q3]':>30}  "
          f"{'change':>7}  wins  rule")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if not all(name in o["metrics"] for side in runs for o in runs[side]):
            print(f"{name:<24} left out: not reported by every run")
            continue
        values = {side: [o["metrics"][name]["value"] for o in runs[side]] for side in runs}
        print(format_row(summarise(metric, values["parent"], values["change"], failed)))


def selftest():
    higher = {"name": "throughput_items_per_s", "better": "higher", "bound": 0.25}
    lower = {"name": "latency_p50_s", "better": "lower", "bound": 0.25}
    parent = [140.0, 142.0, 138.0, 145.0, 143.0, 139.0, 141.0, 144.0, 140.0, 142.0]
    faster = [p + 40.0 for p in parent]
    row = summarise(higher, parent, faster)
    assert row["wins"] == 10 and row["claimable"] and not row["worse_than_bound"], row
    assert row["parent"] == (141.5, 140.0, 142.75), row["parent"]
    # nine wins of ten and a tie: the tie counts for neither, nine tenths holds
    almost = faster[:8] + [parent[8], parent[9] + 40.0]
    row = summarise(higher, parent, almost)
    assert row["wins"] == 9 and row["claimable"], row
    # eight wins of ten is short of nine tenths however large the gap
    row = summarise(higher, parent, faster[:8] + parent[8:])
    assert row["wins"] == 8 and not row["claimable"], row
    # every pair won, but by less than the parent's interquartile range
    row = summarise(higher, parent, [p + 1.0 for p in parent])
    assert row["wins"] == 10 and not row["claimable"], row
    # a gain does not count when more items failed
    row = summarise(higher, parent, faster, failed=(0, 1))
    assert not row["claimable"], row
    # lower is better: a drop wins, and a rise past the bound is flagged
    p50 = [0.0040, 0.0038, 0.0041, 0.0039, 0.0040, 0.0042, 0.0037, 0.0040, 0.0039, 0.0041]
    row = summarise(lower, p50, [v * 0.7 for v in p50])
    assert row["wins"] == 10 and row["claimable"] and not row["worse_than_bound"], row
    row = summarise(lower, p50, [v * 1.3 for v in p50])
    assert row["wins"] == 0 and not row["claimable"] and row["worse_than_bound"], row
    assert "WORSE" in format_row(row)
    names = [m["name"] for m in load_benchmark()["end_to_end"]]
    assert "throughput_items_per_s" in names, names
    print("pairs selftest: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="root of the parent checkout")
    parser.add_argument("change", nargs="?", help="root of the changed checkout")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true", help="check the summary on fixed numbers")
    args = parser.parse_args(argv)
    if args.selftest:
        selftest()
        return 0
    if not (args.parent and args.change and args.workload) or args.pairs < 2:
        parser.error("PARENT, CHANGE and --workload are needed, and --pairs must be at least 2")
    compare(os.path.abspath(args.parent), os.path.abspath(args.change), args.workload, args.pairs, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
