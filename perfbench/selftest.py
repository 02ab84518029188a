#!/usr/bin/env python3
"""Self-test of the benchmark at tiny item counts.

    python3 perfbench/selftest.py

Run from the root of a relpos checkout.  For every workload it runs one
end-to-end and one traced run at `--seconds 1` (the fewest rounds a run
measures) and checks that the last output line has the result schema, that
every metric named in BENCHMARK.json is present with its unit, and that no
item failed.  It checks that `latency_tail_s` is left out below 20 items,
and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
ROOT = os.getcwd()

import gen  # noqa: E402
import run  # noqa: E402


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_result(spec, workload, trace, proc, errors):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
    if result["failed"] or not result["correct"]:
        errors.append(f"{where}: {result['failed']} failed items: {proc.stderr.strip()[-500:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for metric in wanted:
        name = metric["name"]
        if name not in got:
            errors.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != metric["unit"] or not isinstance(got[name]["value"], (int, float)):
            errors.append(f"{where}: metric {name} = {got[name]}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    short = [0.1] * (run.MIN_TAIL_ITEMS - 1)
    if run.tail(short) is not None or run.tail(short + [0.2]) != (0.1, 50.0):
        errors.append("latency_tail_s: wrong percentile or not left out below MIN_TAIL_ITEMS items")
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
            _check_result(spec, workload, trace, proc, errors)
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'errors so far'}")
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
        else:
            print("without sources: refused")
    for e in errors:
        print(f"SELFTEST FAIL {e}", file=sys.stderr)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
