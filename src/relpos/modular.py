"""Certified multimodular nullspace over Q(i).

For a prime p = 1 (mod 4) with s^2 = -1 (mod p), the maps a + bi -> a + b*s
and a + bi -> a - b*s send Z[i] onto F_p (the two primes of Z[i] over p).
Gauss-Jordan elimination of both images runs in numpy int64 arithmetic;
the real and imaginary parts of the reduced row echelon entries follow from
the pair of images, are lifted by CRT over several primes, and are recovered
as rationals by rational reconstruction (Wang 1981).

An image can be unlucky: its rank may drop, or its pivots may move right.
Since rank_p <= rank_Q and every prefix of columns obeys the same bound, the
lucky images are those of maximal rank with the lexicographically least
pivot columns; only images with that key are combined.  The candidate basis
N (identity on the free columns, pivot entries taken from the reconstructed
echelon form) is then certified by one exact product C @ N = 0 over Z[i]:
each column of N shows that its free column depends on earlier pivot
columns over Q(i), so the pivots over Q(i) are exactly those mod p and N is
exactly the canonical nullspace basis, from which the rref is read.

The lift runs on one budget: once the first prime fixes the rank,
`_bareiss_price` prices the fraction-free elimination that the caller
(`relpos.matrix._echelon`) would otherwise run, each prime is charged what it
costs in the same unit, and once the charges pass half the price the caller
runs that elimination instead.  So no uncertified result is returned, and
where the price is right a lift that does not finish adds at most half of
that elimination's time.  A side under MIN_SIDE falls back at once, before
any array is built.

One `_Lift` holds the key rule, the split of the two images into real and
imaginary residues, CRT and one schedule, for this nullspace and for the
multimodular gcd of `relpos.poly.Polynomial.gcd` (Euclid on the two images
of a pair of polynomials, each image gcd keyed by its degree, a candidate
certified by exact division): it reconstructs when the count of combined
primes reaches 1, 2, 3, 4, 6, 8, 11, 14, ... (n -> n + n//4 + 1), so a
lift of 93 primes reconstructs 16 times, and each candidate is checked; a
failed check waits for the next point of the schedule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel

# Matrices with a side under MIN_SIDE stay on fraction-free elimination: on
# the traffic in benchmarks/bench_nullspace.py the lift, whose fixed cost is
# a few numpy calls and one certifying product, loses 2-6x on the [A | I] of
# the inverses (5 to 12 rows) and on most kernels with fewer than 16 rows.
MIN_SIDE = 16

# Primes below 2**31 keep every product of two residues inside int64.
_PRIME_CEILING = 2**31
# (p, s) pairs, p = 1 (mod 4) and s*s = -1 (mod p): descending from
# _PRIME_CEILING for the lifts here and the gcds of `relpos.poly`, ascending
# from 2**8 for the roots of `relpos.poly._gaussian_roots`, which evaluates
# at every residue.
_PRIMES: list = []
_SMALL_PRIMES: list = []


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 4,759,123,141 (bases 2, 7, 61)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 61):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _table_entry(table: list, i: int, first: int, step: int):
    """The i-th (p, s) of table, which grows on demand by step from first:
    s = g^((p - 1)/4) for the least quadratic non-residue g."""
    while len(table) <= i:
        c = table[-1][0] + step if table else first
        while not _is_prime(c):
            c += step
        g = 2
        while pow(g, (c - 1) // 2, c) != c - 1:
            g += 1
        table.append((c, pow(g, (c - 1) // 4, c)))
    return table[i]


def prime(i: int):
    """The i-th (p, s) below _PRIME_CEILING, largest first."""
    return _table_entry(_PRIMES, i, _PRIME_CEILING - 3, -4)


def small_prime(i: int):
    """The i-th (p, s) from 2**8 up, smallest first."""
    return _table_entry(_SMALL_PRIMES, i, 2**8 + 1, 4)


def _rref_mod(a, p):
    """Reduced row echelon form of the 2-d image a over F_p, in place.

    Returns the pivot columns.  Only rows with a nonzero entry in the pivot
    column are updated, which keeps the early steps on sparse constraint
    matrices cheap."""
    rows, cols = a.shape
    pivots = []
    pr = 0
    for c in range(cols):
        nz = np.flatnonzero(a[pr:, c])
        if not len(nz):
            continue
        src = pr + nz[0]
        if src != pr:
            a[[pr, src]] = a[[src, pr]]
        prow = a[pr, c:] * pow(int(a[pr, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[pr] = 0
        hit = np.flatnonzero(factors)
        if len(hit):
            block = a[hit, c:]
            block -= np.multiply.outer(factors[hit], prow)
            block %= p
            a[hit, c:] = block
        a[pr, c:] = prow
        pivots.append(c)
        pr += 1
        if pr == rows:
            break
    return pivots


def _ratrecon(u: int, m: int, bound: int):
    """n/d with |n|, d <= bound and n = d*u (mod m), or None (Wang 1981)."""
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _row_log2_norms(are, aim):
    """log2 of the norms of the nonzero rows, largest first.  The sum of the
    first r is log2 of the Hadamard bound H on every r x r minor."""
    parts = [are] if aim is None else [are, aim]
    if are.dtype != object:
        parts = [p.astype(np.float64) for p in parts]
    sq = sum((p * p).sum(axis=1) for p in parts).tolist()
    return sorted((math.log2(v) / 2 for v in sq if v), reverse=True)


def _bareiss_price(nrows, ncols, rank, log2h):
    """What fraction-free elimination costs, in the unit the lift is charged
    in (one cell update on word-size entries, about 0.15 us in CPython on a
    2-core Xeon): rank * nrows * ncols cell updates on entries that grow to
    about log2h bits, the Hadamard bound on the rank x rank minors.  An
    update costs a little more than linearly in that length, as long
    products do (Karatsuba)."""
    return rank * nrows * ncols * (1 + log2h / 50) ** 1.2


def _images(are, aim, p, s):
    """Images of are + i*aim under i -> s and i -> -s (one image when real)."""
    rp = np.remainder(are, p).astype(np.int64, copy=False)
    if aim is None:
        return [rp]
    ip = np.remainder(aim, p).astype(np.int64, copy=False)
    plus = ip * s
    plus += rp
    plus %= p
    ip *= p - s
    ip += rp
    ip %= p
    return [plus, ip]


@dataclass
class Nullspace:
    """Certified canonical nullspace: free columns and the basis
    (re + i*im) / den, flat row-major ncols x len(free), plus how it was
    found."""

    free: list
    re: list
    im: list
    den: int
    primes: int
    discarded: int
    checks: int


class _Lift:
    """One multimodular lift of rationals (echelon entries here, gcd
    coefficients in `relpos.poly`), fed the images of one prime at a time:
    one image of a real input, else those under i -> s and i -> -s.  The
    least key wins: a smaller key starts the lift over, and a prime with an
    image of another key is discarded.  The kept primes are split into real
    and imaginary residues, combined by CRT, and reconstructed (Wang 1981)
    on the schedule 1, 2, 3, 4, 6, 8, 11, ... (n -> n + n//4 + 1)."""

    def __init__(self):
        self.key = None
        self.primes = self.discarded = 0

    def add(self, p, s, images):
        """Combine the (key, residues) of each image modulo p.  Returns the
        candidate, (n, d) for every real part, then every imaginary part,
        when the schedule calls for one and it reconstructs; else None."""
        key = min(k for k, _ in images)
        if self.key is None or key < self.key:
            self.key, self.modulus, self.due = key, 1, 1
            self.discarded += self.primes
            self.primes = 0
        if any(k != self.key for k, _ in images):
            self.discarded += 1
            return None
        blocks = [np.asarray(e, dtype=np.int64).ravel() for _, e in images]
        if len(blocks) == 2:
            u, v = blocks
            half = pow(2, -1, p)
            blocks = [(u + v) % p * half % p, (u - v) % p * (half * pow(s, -1, p) % p) % p]
        residues = np.concatenate(blocks).tolist()
        m = self.modulus
        if self.primes:
            minv = pow(m % p, -1, p)
            residues = [v + m * ((r - v) * minv % p) for v, r in zip(self.values, residues)]
        self.values, self.modulus = residues, m * p
        self.primes += 1
        if self.primes < self.due:
            return None
        self.due = self.primes + self.primes // 4 + 1
        return self.reconstruct()

    def reconstruct(self):
        """All entries as (n, d), or None at the first one that does not
        reconstruct yet.  The entries share denominators (minors of one
        pivot block), so each residue is first multiplied by the running
        common denominator and needs a Euclid run only when that product is
        not already a small numerator."""
        m = self.modulus
        bound = math.isqrt(m // 2)
        out = []
        den = 1
        for u in self.values:
            w = u * den % m
            if w <= bound:
                num, d = w, den
            elif m - w <= bound:
                num, d = w - m, den
            else:
                got = _ratrecon(w, m, bound)
                if got is not None and got[1] * den <= bound:
                    num, d = got[0], got[1] * den
                    den = d
                else:
                    got = _ratrecon(u, m, bound)
                    if got is None:
                        return None
                    num, d = got
            g = math.gcd(num, d)
            out.append((num // g, d // g))
        return out


def _free(pivots, ncols):
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def nullspace(re, im, nrows, ncols):
    """Canonical nullspace of the Z[i] matrix (re + i*im), flat row-major.

    Returns a Nullspace, or None (the caller then eliminates exactly) for a
    side under MIN_SIDE or once the lift has spent half of `_bareiss_price`."""
    if nrows < MIN_SIDE or ncols < MIN_SIDE:
        return None
    bits = max(max(re), -min(re), max(im), -min(im)).bit_length()
    dtype = np.int64 if bits < 63 else object
    real = not any(im)
    are = np.array(re, dtype=dtype).reshape(nrows, ncols)
    aim = None if real else np.array(im, dtype=dtype).reshape(nrows, ncols)
    norms = _row_log2_norms(are, aim)
    # Each prime is charged for reducing the entries of its images (only past
    # int64 a Python operation per entry, growing with its bits), for
    # eliminating them (a numpy pass per column, more per pivot, and the
    # updates of a dense matrix), for CRT and reconstruction on the modulus
    # it grows to, and for the exact check when one is made.
    images = 1 if real else 2
    reduce = 0
    if dtype is object:
        entry_bits = sum(map(int.bit_length, itertools.chain(re, im)))
        reduce = images * nrows * ncols / 3 + entry_bits / 200
    price = None
    spent = 0.0
    lift = _Lift()
    checks = 0
    for p, s in map(prime, itertools.count()):
        keyed = []
        for img in _images(are, aim, p, s):
            pivots = _rref_mod(img, p)
            keyed.append(((-len(pivots), pivots), img[: len(pivots)][:, _free(pivots, ncols)]))
        got = lift.add(p, s, keyed)
        pivots = lift.key[1]
        rank = len(pivots)
        if price is None:
            price = _bareiss_price(nrows, ncols, rank, sum(norms[:rank]))
        m = lift.modulus.bit_length()
        elimination = images * (130 * rank + 10 * ncols + rank * nrows * ncols / 80)
        spent += reduce + elimination + images * rank * (ncols - rank) * (1 + m / 200) + 2 * m
        if got is not None:
            checks += 1
            free = _free(pivots, ncols)
            spent += nrows * ncols * len(free) / 6
            basis = _certify(re, im, nrows, ncols, pivots, free, got, real)
            if basis is not None:
                return Nullspace(free, *basis, lift.primes + lift.discarded, lift.discarded, checks)
        if 2 * spent > price:
            return None


def _certify(re, im, nrows, ncols, pivots, free, fracs, real):
    """Assemble the candidate basis over one denominator and check C @ N = 0
    exactly over Z[i].

    Returns the basis as (re, im, den), or None when the check fails."""
    k = len(free)
    count = len(pivots) * k
    den = math.lcm(*(d for _, d in fracs))
    nre = [0] * (ncols * k)
    nim = [0] * (ncols * k)
    for jf, f in enumerate(free):
        nre[f * k + jf] = den
    for r, c in enumerate(pivots):
        for jf in range(k):
            xn, xd = fracs[r * k + jf]
            nre[c * k + jf] = -xn * (den // xd)
            if not real:
                yn, yd = fracs[count + r * k + jf]
                nim[c * k + jf] = -yn * (den // yd)
    cre, cim = kernel.matmul(re, im, nrows, ncols, nre, nim, k)
    if any(cre) or any(cim):
        return None
    return nre, nim, den
