"""One workload in one process: set-up, then the measured rounds.

    python3 perfbench/worker.py MODE WORKLOAD SEED ROUNDS

MODE is `setup` (time the set-up only), `run` (set-up, then ROUNDS rounds),
`trace` (the same under the tracer) or `record` (the same, and print the
verdict digests).  A run stops starting rounds once MAX_MEASURED_S have been
measured, so a slow program still ends in time.  The yardstick is timed
before and after the set-up and between every two items, so that
perfbench/run.py can express each timing at a fixed host speed.  The last
line of standard output is one JSON object.  relpos is imported from the
PYTHONPATH the caller sets.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from collections import Counter

import gen

MAX_MEASURED_S = 110.0
YARDSTICK_EVERY_S = 0.05
YARDSTICK_MAX_REPS = 10
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def yardstick(reps=1):
    """Time a fixed piece of pure-Python integer work that does not touch
    relpos: fraction-free elimination of 20 seeded 10 x 10 matrices, the
    same kind of work as the exact kernel.  Its time tracks the speed the
    host gives this process at that moment, whatever the program does.
    Returns the mean time of `reps` repetitions."""
    t0 = time.perf_counter()
    for _ in range(reps):
        for rep in range(20):
            g = random.Random(rep)
            a = [[g.randint(-999, 999) for _ in range(10)] for _ in range(10)]
            prev = 1
            for k in range(9):
                for i in range(k + 1, 10):
                    for j in range(k + 1, 10):
                        a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                prev = a[k][k]
    return (time.perf_counter() - t0) / reps


def yardstick_reps(seconds):
    """Repetitions of the yardstick to time after something that took
    `seconds`: about one per YARDSTICK_EVERY_S of it, up to YARDSTICK_MAX_REPS.
    Single repetitions on a shared 2-core host spread by 13%, and much of
    that is gone by the next repetition, while the speed over a long item
    moves more slowly; more repetitions after long items keep the short-lived
    part out of their times, at a cost of a few percent of them."""
    return min(YARDSTICK_MAX_REPS, 1 + int(seconds / YARDSTICK_EVERY_S))


def _reference(workload, seed):
    if seed != gen.DEFAULT_SEED:
        return []
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as f:
        return json.load(f)["digests"]


def _facts():
    import numpy

    import relpos
    from relpos import kernel

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "relpos_file": relpos.__file__,
        "kernel_backend": kernel.backend_name(),
        "relpos_pure": os.environ.get("RELPOS_PURE", ""),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Runner:
    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.items = None
        self.prepared = {}
        self.latencies = []
        self.yardstick_s = []  # per item: yardstick before and after it, weighted by repetitions
        self.failures = []
        self.digests = []
        self.notes = Counter()
        self.measured_s = 0.0

    def setup(self):
        """Generate the set-up rounds, then time importing relpos and turning
        their text into program objects."""
        rounds = [gen.make_round(self.workload, self.seed, r) for r in range(gen.SETUP_ROUNDS[self.workload])]
        t0 = time.perf_counter()
        import items

        if self.tracer is not None:
            self.tracer.install()
        self.items = items
        for r, rnd in enumerate(rounds):
            self.prepared[r] = [items.prepare(it) for it in rnd]
        return time.perf_counter() - t0

    def _round(self, r):
        batch = self.prepared.pop(r, None)
        if batch is None:
            batch = [self.items.prepare(it) for it in gen.make_round(self.workload, self.seed, r)]
        return batch

    def run_round(self, r, reference):
        batch = self._round(r)
        clock = time.perf_counter
        before, weight = yardstick(), 1
        for prepared in batch:
            kind = prepared["item"]["label"]
            if self.tracer is not None:
                self.tracer.kind = kind
            t0 = clock()
            try:
                digest, notes = self.items.run(prepared)
            except self.items.Mismatch as exc:
                digest, notes = None, {}
                self.failures.append(f"round {r} {kind}: {exc}")
            except Exception as exc:  # an unexpected error fails the item, not the run
                digest, notes = None, {}
                self.failures.append(f"round {r} {kind}: {type(exc).__name__}: {exc}")
            latency = clock() - t0
            reps = yardstick_reps(latency)
            after = yardstick(reps)
            self.latencies.append(latency)
            self.yardstick_s.append((weight * before + reps * after) / (weight + reps))
            self.measured_s += latency
            before, weight = after, reps
            self.notes.update(notes)
            index = len(self.digests)
            want = reference[index] if index < len(reference) else None
            if digest is not None and want is not None and want != digest:
                self.failures.append(
                    f"round {r} {kind}: digest {digest!r} != reference {want!r}"
                )
                digest = None
            self.digests.append(digest)

    def failed(self):
        return sum(d is None for d in self.digests)


def main(argv):
    mode, workload, seed, rounds = argv[1], argv[2], int(argv[3]), int(argv[4])
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    runner = Runner(workload, seed, tracer)
    yardstick()  # warm-up
    before = yardstick(YARDSTICK_MAX_REPS)
    setup_s = runner.setup()
    out = {"setup_s": setup_s, "setup_yardstick_s": (before + yardstick(YARDSTICK_MAX_REPS)) / 2}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    reference = _reference(workload, seed) if mode != "record" else []
    r = 0
    while r < rounds and runner.measured_s < MAX_MEASURED_S:
        runner.run_round(r, reference)
        r += 1
    out.update(
        rounds=r,
        measured_s=runner.measured_s,
        latencies=runner.latencies,
        yardstick_s=runner.yardstick_s,
        failed=runner.failed(),
        failures=runner.failures[:10],
        notes=dict(runner.notes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        facts=_facts(),
    )
    if mode == "record":
        out["digests"] = runner.digests
    if tracer is not None:
        out["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "incl_s": dict(tracer.incl_s),
            "layer_self_s": dict(tracer.layer_self_s()),
            "layer_incl_s": dict(tracer.layer_incl_s),
            "counts": dict(tracer.counts),
            "by_kind": [[k, layer, s] for (k, layer), s in tracer.by_kind.items()],
            "bookkeeping_s": tracer.bookkeeping_s,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
