#!/usr/bin/env python3
"""End-to-end benchmark of relpos on three seeded workloads.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a relpos source checkout; relpos is imported from its
`src/` directory, never from an installed copy.  Each workload runs in its
own child process (perfbench/worker.py) as one closed-loop caller: the next
item starts when the previous one has finished.

A run measures whole rounds of a fixed composition (perfbench/gen.py).
`--seconds` sets how many: the rounds that take about that long at the
reference speed (below), by the round times NOMINAL_ROUND_S measured at it
with one BLAS thread, but at least MIN_ROUNDS.  Every run of a workload
therefore measures the same problem shapes, and a faster program measures
the same items in less time rather than a different mix of items.

With `--trace 0` the run reports the end-to-end metrics: the median set-up
time over SETUP_SAMPLES fresh processes, items per measured second, the
median and tail item latency, and the peak RSS of the measuring process.

Every timing is reported at a fixed host speed.  The machines this runs on
share their cores with other tenants, and the speed they give one process
changes by up to 2x within seconds and for minutes at a time, which no run
length within the time budget averages out.  So the worker times a fixed
piece of pure-Python work that does not touch relpos (worker.yardstick)
before and after the set-up and between every two items, repeated more
often after longer ones (worker.yardstick_reps), and each timing is
multiplied by YARDSTICK_S over the mean of the yardstick timings on either
side of it, weighted by their repetitions: seconds on a host where the
yardstick takes YARDSTICK_S.  A
change to relpos changes these times in the same proportion as the wall
times; the wall times and the host's speed are printed next to them.

With `--trace 1` a first child measures half the rounds untraced, and a
second child runs the same rounds with spans around every public function of
each relpos module; it reports per-layer counts and self times (wall time of
the traced child) and the tracing overhead (at the reference speed), and
prints the self-time split per item kind.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_SAMPLES = 5
# A typical worker.yardstick() time on a 2-core Xeon at 2.1 GHz under
# Python 3.11, where it read from 2 to 5 ms.
YARDSTICK_S = 0.0025
# One thread: a lone 1218 x 1200 SVD runs faster on two, but the first SVD of
# a process then pays about 1 s of thread start-up, and the one caller of a
# closed loop keeps one core busy anyway.
BLAS_THREADS = "1"
NOMINAL_ROUND_S = {"classify": 0.9, "operator": 4.9, "lab": 9.3}
# Operator needs four rounds for ten items beyond its tail percentile to
# reach into the jordan5/iso4 group rather than its lower edge.  Lab holds
# five large items of distinct sizes per round (block 4-6, exotic 24 and 32),
# so at two rounds its tail falls on the edge between two of those pairs and
# swings with the noise of single items; at three it is the middle one of the
# three exotic-24 items.
MIN_ROUNDS = {"classify": 2, "operator": 4, "lab": 3}
DEADLINE_S = 170.0
MIN_TAIL_ITEMS = 20
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_items_per_s": "items/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.self_s": "s",
    "kernel.ffgj.calls": "count",
    "kernel.ffgj.self_s": "s",
    "kernel.ffgj.cells": "count",
    "kernel.ffgj.max_bits": "bits",
    "kernel.matmul.calls": "count",
    "kernel.matmul.self_s": "s",
    "kernel.matmul.mults": "count",
    "matrix.self_s": "s",
    "matrix.rref.calls": "count",
    "matrix.matmul.calls": "count",
    "matrix.nullspace.calls": "count",
    "matrix.solve.calls": "count",
    "matrix.inverse.calls": "count",
    "matrix.minimal_polynomial.calls": "count",
    "poly.factor.calls": "count",
    "poly.self_s": "s",
    "subspace.self_s": "s",
    "subspace.intersect.calls": "count",
    "subspace.sum.calls": "count",
    "subspace.principal_angles.self_s": "s",
    "system.hom_space.calls": "count",
    "system.hom_space.s": "s",
    "system.hom_space.unknowns": "count",
    "system.self_s": "s",
    "decompose.self_s": "s",
    "decompose.radical_basis.s": "s",
    "decompose.idempotent.searches": "count",
    "decompose.idempotent.attempts": "count",
    "decompose.idempotent.found_ratio": "ratio",
    "decompose.are_isomorphic.calls": "count",
    "coxeter.phi_plus.calls": "count",
    "coxeter.s": "s",
    "coxeter.self_s": "s",
    "toeplitz.self_s": "s",
    "toeplitz.kernel_dims.calls": "count",
    "toeplitz.kernel_dims.self_s": "s",
    "toeplitz.fredholm_index.calls": "count",
    "toeplitz.fredholm_index.grid_points": "count",
    "toeplitz.exotic_report.s": "s",
    "angles.self_s": "s",
    "angles.halmos_decompose.s": "s",
    "sysfile.self_s": "s",
    "sysfile.parse.s": "s",
    "catalog.self_s": "s",
    "catalog.build.calls": "count",
    "catalog.build.s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relpos", "__init__.py")):
        raise BenchError(f"no relpos sources under {os.path.join(root, 'src')}; run from a relpos checkout")
    return root


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Children:
    """Runs worker processes one at a time under one overall deadline."""

    def __init__(self, root, deadline):
        self.root = root
        self.env = _env(root)
        self.deadline = deadline

    def run(self, mode, workload, seed, rounds):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), str(rounds)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker for {workload} ran past the deadline") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        expected_src = os.path.join(self.root, "src", "relpos")
        if "facts" in out and not out["facts"]["relpos_file"].startswith(expected_src):
            raise BenchError(f"imported relpos from {out['facts']['relpos_file']}, not {expected_src}")
        return out


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    beyond it, or None below MIN_TAIL_ITEMS items."""
    n = len(latencies)
    if n < MIN_TAIL_ITEMS:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def at_reference_speed(times, yardstick_s):
    """Each time scaled to the host speed at which the yardstick takes
    YARDSTICK_S, given the yardstick time measured around it."""
    return [t * YARDSTICK_S / y for t, y in zip(times, yardstick_s)]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _print_facts(facts):
    print(f"machine: nproc {os.cpu_count()}, cpu {_cpu_model()}")
    print(
        f"build: python {facts['python']}, numpy {facts['numpy']} ({facts['blas']}), "
        f"BLAS/OpenMP threads {BLAS_THREADS}, relpos kernel {facts['kernel_backend']}, "
        f"RELPOS_PURE={facts['relpos_pure'] or 'unset'}"
    )


def _print_failures(out):
    for msg in out["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], round(seconds / NOMINAL_ROUND_S[workload]))


def end_to_end(children, args, rounds):
    setups = [children.run("setup", args.workload, args.seed, 0) for _ in range(SETUP_SAMPLES - 1)]
    out = children.run("run", args.workload, args.seed, rounds)
    setups.append(out)
    samples = [s["setup_s"] for s in setups]
    scaled = at_reference_speed(samples, [s["setup_yardstick_s"] for s in setups])
    lat = at_reference_speed(out["latencies"], out["yardstick_s"])
    metrics = {
        "setup_s": statistics.median(scaled),
        "throughput_items_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    _print_facts(out["facts"])
    speed = YARDSTICK_S / statistics.mean(out["yardstick_s"])
    print(f"workload {args.workload}: seed {args.seed}, {out['rounds']} rounds, {len(lat)} items "
          f"in {out['measured_s']:.3f} s of wall time measured, {sum(lat):.3f} s at the reference speed "
          f"(host speed {speed:.3f}x that, item by item from {min(out['yardstick_s']) * 1e3:.2f} to "
          f"{max(out['yardstick_s']) * 1e3:.2f} ms per yardstick against {YARDSTICK_S * 1e3:.2f} ms)")
    print(f"wall time: {len(lat) / out['measured_s']:.6g} items/s, p50 {statistics.median(out['latencies']):.6g} s")
    print(f"setup_s samples, wall: {', '.join(f'{s:.4f}' for s in samples)}; "
          f"at the reference speed: {', '.join(f'{s:.4f}' for s in scaled)}")
    t = tail(lat)
    if t is None:
        print(f"latency_tail_s: left out, only {len(lat)} items (needs {MIN_TAIL_ITEMS})")
    else:
        metrics["latency_tail_s"] = t[0]
        print(f"latency_tail_s is p{t[1]:.1f} of {len(lat)} items ({TAIL_BEYOND} items beyond it)")
    metrics = {k: metrics[k] for k in END_TO_END if k in metrics}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    print(f"failed_share {out['failed'] / len(lat):.6g} share ({out['failed']} of {len(lat)} items)")
    if args.workload == "classify":
        print("shapes left out because relpos fails on them (gen.DEFECT_SHAPES): "
              + ", ".join(f"n={n} d={d} dims {dims}" for n, d, dims in sorted(gen.DEFECT_SHAPES)))
    for note, count in sorted(out["notes"].items()):
        print(f"note {note} {count}")
    _print_failures(out)
    return out, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(children, args, rounds):
    """Half the rounds untraced, then the same rounds traced."""
    plain = children.run("run", args.workload, args.seed, rounds)
    traced = children.run("trace", args.workload, args.seed, plain["rounds"])
    tr = traced["trace"]
    calls, self_s, incl_s, counts = tr["calls"], tr["self_s"], tr["incl_s"], tr["counts"]
    layer_self = tr["layer_self_s"]
    searches = calls.get("decompose.idempotent", 0)
    attempts = counts.get("decompose.idempotent.attempts", 0)
    m = {
        "kernel.ffgj.cells": counts.get("kernel.ffgj.cells", 0),
        "kernel.ffgj.max_bits": counts.get("kernel.ffgj.max_bits", 0),
        "kernel.matmul.mults": counts.get("kernel.matmul.mults", 0),
        "system.hom_space.s": incl_s.get("system.hom_space", 0.0),
        "system.hom_space.unknowns": counts.get("system.hom_space.unknowns", 0),
        "decompose.radical_basis.s": incl_s.get("decompose.radical_basis", 0.0),
        "decompose.idempotent.searches": searches,
        "decompose.idempotent.attempts": attempts,
        "decompose.idempotent.found_ratio": counts.get("decompose.idempotent.found", 0) / attempts if attempts else 0.0,
        "coxeter.s": tr["layer_incl_s"].get("coxeter", 0.0),
        "toeplitz.fredholm_index.grid_points": counts.get("toeplitz.fredholm_index.grid_points", 0),
        "toeplitz.exotic_report.s": incl_s.get("toeplitz.exotic_report", 0.0),
        "angles.halmos_decompose.s": incl_s.get("angles.halmos_decompose", 0.0),
        "sysfile.parse.s": incl_s.get("sysfile.parse", 0.0),
        "catalog.build.s": incl_s.get("catalog.build", 0.0),
        "trace.overhead_ratio": sum(at_reference_speed(traced["latencies"], traced["yardstick_s"]))
        / sum(at_reference_speed(plain["latencies"], plain["yardstick_s"])),
    }
    for name in PER_LAYER:
        if name in m:
            continue
        head, _, metric = name.rpartition(".")
        if metric == "calls":
            m[name] = calls.get(head, 0)
        elif metric == "self_s" and "." in head:
            m[name] = self_s.get(head, 0.0)
        elif metric == "self_s":
            m[name] = layer_self.get(head, 0.0)
        else:
            raise KeyError(name)
    _print_facts(traced["facts"])
    _print_trace_table(args.workload, plain, traced, tr)
    _print_failures(plain)
    _print_failures(traced)
    metrics = {k: {"value": m[k], "unit": u} for k, u in PER_LAYER.items()}
    return [plain, traced], metrics


def _print_trace_table(workload, plain, traced, tr):
    wall = traced["measured_s"]
    print(f"workload {workload}: {traced['rounds']} rounds traced, {len(traced['latencies'])} items, "
          f"traced {wall:.3f} s vs untraced {plain['measured_s']:.3f} s, "
          f"{tr['bookkeeping_s']:.3f} s of derived counts kept out of the layers")
    print(f"{'layer':<10} {'self_s':>10} {'share':>7}")
    layers = sorted(tr["layer_self_s"].items(), key=lambda kv: -kv[1])
    for layer, secs in layers:
        print(f"{layer:<10} {secs:>10.4f} {secs / wall:>7.1%}")
    # item labels carry their size (block6, jordan5); group them by kind,
    # and the scalar and block symbols of lab together
    groups = {}
    for label, layer, secs in tr["by_kind"]:
        kind = label.rstrip("0123456789")
        names = [kind, "symbol+block"] if kind in ("symbol", "block") else [kind]
        for name in names:
            split = groups.setdefault(name, {})
            split[layer] = split.get(layer, 0.0) + secs
    for group, split in sorted(groups.items()):
        total = sum(split.values()) or 1.0
        top = sorted(split.items(), key=lambda kv: -kv[1])[:4]
        print(f"self-time split for {group}: " + ", ".join(f"{lay} {s / total:.0%}" for lay, s in top))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rounds = rounds_for(args.workload, args.seconds)
    try:
        children = Children(checkout_root(), time.monotonic() + DEADLINE_S)
        if args.trace:
            outs, metrics = per_layer(children, args, max(1, rounds // 2))
        else:
            out, metrics = end_to_end(children, args, rounds)
            outs = [out]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = len(outs[-1]["latencies"])
    failed = max(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
