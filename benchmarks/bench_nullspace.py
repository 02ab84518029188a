#!/usr/bin/env python3
"""Time exact elimination on its two paths: fraction-free Bareiss
(`kernel.ffgj`, as in `Matrix._nullspace_ffgj`) and the multimodular lift
(`relpos.modular`, exact check included, run past its shape gate and its
budget), checking that both give the same result.  Every exact elimination
(`rref`, `nullspace`, `rank`, `solve`, `inverse` and the Krylov step of
`minimal_polynomial`) takes the lift only where both sides of the matrix
reach `relpos.modular.MIN_SIDE`, and keeps it only while the primes spent
cost less than half of `relpos.modular._bareiss_price`; past that it falls
back to Bareiss.  The gate and the budget are read against these tables.
Four tables:

1. Classify traffic.  Every exact nullspace that `decompose`,
   `are_isomorphic` and `phi_plus` take on random 2-, 3- and 4-subspace
   systems in C^1..C^6 (the classify workload draws up to C^5; C^6 adds
   its next shapes), summed by column count: End and Hom constraints
   (d^2 columns), orthocomplements and the C_i blocks (d columns),
   intersections (dim a + dim b columns).  Each column count is timed as
   one batch per path, the paths taking turns, best of seven.  "rows"
   gives the fewest and most rows in the batch, "primes" and "checks" the
   primes the lifts used and the exact checks (`Nullspace.checks`) they
   made, "lifted" the matrices that pass the gate and finish within the
   budget, and "routed s" the time of `Matrix.nullspace`, which takes
   Bareiss for the others, after what a lift that started spent of its
   budget.
2. Hom constraints of the operator workload, 36 to 144 columns, with the
   primes and the exact checks of each lift.
3. Wide generic matrices with large kernels and large entries, whose lifts
   run to the Hadamard bound, with their primes and exact checks, the path
   `Matrix.nullspace` takes ("route") and its time ("routed s").  The
   checks are what the reconstruction schedule of `relpos.modular._Lift`
   decides: each candidate it reconstructs is checked.
4. Inverse traffic: the augmented [A | I] that `Matrix.inverse` reduces,
   for random invertible A of 5 to 12 rows with entries of real and
   imaginary part in -2..2 (as `sampling.random_invertible` draws them for
   the operator workload), batched per size like table 1, with the path
   `Matrix.inverse` takes.

Other times are best of three, in seconds.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_nullspace.py
"""

import random
import time
from collections import defaultdict
from fractions import Fraction

from relpos import coxeter, kernel, modular
from relpos.catalog import build_gp4, jordan_block, single_operator_system
from relpos.decompose import are_isomorphic, decompose
from relpos.gaussian import GQ
from relpos.matrix import EXACT, Matrix, _echelon
from relpos.sampling import random_invertible, random_system
from relpos.system import _dense, _hom_rows

REPEATS = 3
BATCH_REPEATS = 7
DRAWS = 4  # classify systems per (n, d)
D_MAX = 6
INVERSE_SIZES = range(5, 13)
INVERSE_DRAWS = 4  # matrices per size


def hom_constraints(s, t):
    """The dense constraint matrix whose nullspace hom_space(s, t) takes."""
    return _dense(_hom_rows(s, t), range(s.ambient_dim * t.ambient_dim))


def best_of(fn):
    best, out = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def batch_times(fns, mats):
    """Best time of each fn over all of mats, the fns taking turns."""
    best = [float("inf")] * len(fns)
    for _ in range(BATCH_REPEATS):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            for m in mats:
                fn(m)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def unrouted(fn, *args):
    """fn(*args) with the shape gate off and a budget no lift here spends."""
    gate, price = modular.MIN_SIDE, modular._bareiss_price
    modular.MIN_SIDE = 1
    modular._bareiss_price = lambda *args: 1000 * price(*args)
    try:
        return fn(*args)
    finally:
        modular.MIN_SIDE, modular._bareiss_price = gate, price


def lift(m):
    """The multimodular basis of m and its Nullspace, routing off."""
    re, im = m._primitive_rows()
    ker = unrouted(modular.nullspace, re, im, m.rows, m.cols)
    return Matrix._ints(m.cols, len(ker.free), ker.re, ker.im, ker.den), ker


def compare(m):
    """(bareiss s, lift s, Nullspace, nullity); fails if the bases differ."""
    t_ff, want = best_of(m._nullspace_ffgj)
    t_mod, (got, ker) = best_of(lambda: lift(m))
    assert got == want, f"{m.rows}x{m.cols}: the two paths disagree"
    return t_ff, t_mod, ker, want.cols


def route(m):
    """The path every exact elimination of m takes: gate and budget."""
    re, im = m._primitive_rows()
    return "bareiss" if modular.nullspace(re, im, m.rows, m.cols) is None else "lift"


def rref_of(reduced, m):
    rre, rim, pivots, dre, dim = reduced
    return Matrix._ints(m.rows, m.cols, rre, rim, dre, dim), pivots


def bareiss_rref(m):
    return rref_of(kernel.ffgj(*m._primitive_rows(), m.rows, m.cols), m)


def lift_rref(m):
    return rref_of(unrouted(_echelon, *m._primitive_rows(), m.rows, m.cols), m)


def inverse_traffic():
    """Per size n, the augmented [A | I] of INVERSE_DRAWS random invertible A."""
    rng = random.Random(2024)
    for n in INVERSE_SIZES:
        yield n, [Matrix.hstack([random_invertible(rng, n), Matrix.identity(n)])
                  for _ in range(INVERSE_DRAWS)]


def classify_traffic():
    """Every exact nullspace of the classify pipeline on seeded systems."""
    seen = []
    plain = Matrix.nullspace

    def recording(self):
        if self.field == EXACT and self.rows and self.cols:
            seen.append(self)
        return plain(self)

    rng = random.Random(2024)
    Matrix.nullspace = recording
    try:
        for n in (2, 3, 4):
            for d in range(1, D_MAX + 1):
                for _ in range(DRAWS):
                    s = random_system(rng, d, n)
                    decompose(s)
                    are_isomorphic(s, s.apply(random_invertible(rng, d)))
                    if n == 4:
                        coxeter.phi_plus(s)
    finally:
        Matrix.nullspace = plain
    return seen


def operator_constraints(rng, size):
    """End constraints of S_T for T = P J P^-1, J with blocks 2, 1, 2, ...
    alternating between eigenvalues 1 and i."""
    blocks, left, k = [], size, 0
    while left:
        part = min(2 if k % 2 == 0 else 1, left)
        blocks.append(jordan_block(part, GQ(1) if k % 2 == 0 else GQ(0, 1)))
        left -= part
        k += 1
    p = random_invertible(rng, size)
    t = p @ Matrix.block_diag(blocks) @ p.inverse()
    s = single_operator_system(t)
    return hom_constraints(s, s)


def iso_constraints(rng, family, k):
    s = build_gp4(family, k)
    return hom_constraints(s, s.apply(random_invertible(rng, s.ambient_dim)))


def hom_shapes():
    rng = random.Random(2024)
    yield "iso3 S3(2k,1)", iso_constraints(rng, "S3(2k,1)", 3)
    yield "iso3 S(2k+1,2)", iso_constraints(rng, "S(2k+1,2)", 3)
    yield "jordan4", operator_constraints(rng, 4)
    yield "iso4 S1(2k+1,-1)", iso_constraints(rng, "S1(2k+1,-1)", 4)
    yield "jordan5", operator_constraints(rng, 5)
    yield "jordan6", operator_constraints(rng, 6)


def wide_shapes():
    """Generic Z[i] rows x cols matrices with entries of the given bits."""
    rng = random.Random(2024)
    for rows, cols, bits in [(36, 40, 3), (30, 60, 4), (20, 40, 8), (20, 40, 30),
                             (20, 40, 61), (10, 40, 61), (5, 40, 200)]:
        span = 2**bits
        ents = [GQ(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))
                for _ in range(rows * cols)]
        yield f"generic {bits}-bit", Matrix.exact(rows, cols, ents)


def main():
    print("1. classify traffic, summed by column count")
    print(f"{'cols':>4} {'rows':>7} {'calls':>6} {'nullity':>7} {'bareiss s':>10} {'lift s':>10} "
          f"{'primes':>6} {'checks':>6} {'ratio':>6} {'lifted':>6} {'routed s':>9}")
    groups = defaultdict(list)
    for m in classify_traffic():
        groups[m.cols].append(m)
    for cols in sorted(groups):
        mats = groups[cols]
        primes = checks = nullity = lifted = 0
        for m in mats:
            got, ker = lift(m)
            assert got == m._nullspace_ffgj(), f"{m.rows}x{m.cols}: the two paths disagree"
            primes, checks, nullity = primes + ker.primes, checks + ker.checks, nullity + got.cols
            lifted += route(m) == "lift"
        t_ff, t_mod, t_routed = batch_times(
            [Matrix._nullspace_ffgj, lift, Matrix.nullspace], mats)
        rows = f"{min(m.rows for m in mats)}-{max(m.rows for m in mats)}"
        print(f"{cols:>4} {rows:>7} {len(mats):>6} {nullity:>7} {t_ff:>10.4f} {t_mod:>10.4f} "
              f"{primes:>6} {checks:>6} {t_ff / t_mod:>5.2f}x {lifted:>6} {t_routed:>9.4f}")

    head = (f"{'shape':<18} {'rows x cols':>11} {'nullity':>7} {'bareiss s':>10} "
            f"{'lift s':>10} {'primes':>6} {'checks':>6} {'ratio':>6}")
    print("\n2. Hom constraints\n" + head)
    for label, m in hom_shapes():
        t_ff, t_mod, ker, nullity = compare(m)
        print(f"{label:<18} {m.rows:>5} x {m.cols:<3} {nullity:>7} {t_ff:>10.4f} "
              f"{t_mod:>10.4f} {ker.primes:>6} {ker.checks:>6} {t_ff / t_mod:>5.2f}x")

    print("\n3. wide generic matrices\n" + head + f" {'route':>7} {'routed s':>9}")
    for label, m in wide_shapes():
        t_ff, t_mod, ker, nullity = compare(m)
        t_routed, _ = best_of(m.nullspace)
        print(f"{label:<18} {m.rows:>5} x {m.cols:<3} {nullity:>7} {t_ff:>10.4f} "
              f"{t_mod:>10.4f} {ker.primes:>6} {ker.checks:>6} {t_ff / t_mod:>5.2f}x "
              f"{route(m):>7} {t_routed:>9.4f}")

    print("\n4. inverse traffic: [A | I], summed by size")
    print(f"{'n':>3} {'rows x cols':>11} {'calls':>6} {'bareiss s':>10} {'lift s':>10} "
          f"{'ratio':>6} {'route':>7}")
    for n, mats in inverse_traffic():
        for m in mats:
            assert lift_rref(m) == bareiss_rref(m), f"{m.rows}x{m.cols}: the two paths disagree"
        t_ff, t_mod = batch_times([bareiss_rref, lift_rref], mats)
        print(f"{n:>3} {n:>5} x {2 * n:<3} {len(mats):>6} {t_ff:>10.4f} {t_mod:>10.4f} "
              f"{t_ff / t_mod:>5.2f}x {route(mats[0]):>7}")
    print(f"\nrelpos.modular.MIN_SIDE = {modular.MIN_SIDE}: a matrix takes the lift only with "
          f"at least {modular.MIN_SIDE} rows and {modular.MIN_SIDE} columns, and keeps it only "
          "while its primes cost less than half of _bareiss_price")


if __name__ == "__main__":
    main()
