"""Certified multimodular nullspace over Q(i).

For a prime p = 1 (mod 4) with s^2 = -1 (mod p), the maps a + bi -> a + b*s
and a + bi -> a - b*s send Z[i] onto F_p (the two primes of Z[i] over p).
Both images of a prime are written into one (2, rows, cols) int64 stack (a
real input is a stack of one), and one Gauss-Jordan elimination reduces the
stack: the pivot is searched on slice 0, and every slice is updated in one
numpy pass per column.  The real and imaginary parts of the reduced row
echelon entries follow from the pair of images, are lifted by CRT over
several primes, and are recovered as rationals by rational reconstruction
(Wang 1981).

An image can be unlucky: its rank may drop, or its pivots may move right.
Since rank_p <= rank_Q and every prefix of columns obeys the same bound, the
lucky images are those of maximal rank with the lexicographically least
pivot columns; only images with that key are combined.  A prime whose
slices disagree with slice 0 (an entry in slice 0's pivot is 0, or a
nonzero entry lies in a column that slice 0 skips) is discarded like an
unlucky one: an image is unlucky there, or slice 0's pivot row is, and
either happens for only finitely many primes of a given matrix.

The candidate basis N (identity on the free columns, pivot entries taken
from the reconstructed echelon form) is certified by C @ N = 0, which is
read off the lift modulus m rather than computed over Z[i] (`_certify`):
every reconstructed entry n/d has n = d*u (mod m) for its CRT residue u,
so C @ N_num = 0 (mod m) by construction, N_num = den * N; every real and
imaginary part of C @ N_num is at most L * max|N_num| in absolute value, L
a bound on every row sum of |re| + |im| of C; so once m > 2 L max|N_num|,
C @ N_num = 0, and short of that it is checked modulo further table primes
until their product passes the bound.  Each column of N then shows that its
free column depends on earlier pivot columns over Q(i), so the pivots over
Q(i) are exactly those mod p and N is exactly the canonical nullspace
basis, from which the rref is read.

The lift runs on one budget: once the first prime fixes the rank,
`_bareiss_price` prices the fraction-free elimination that the caller
(`relpos.matrix._echelon`) would otherwise run, each prime and each
certificate is charged what it costs in the same unit, and once the
charges pass half the price the caller runs that elimination instead.
So no uncertified result is returned, and where the price is right a lift
that does not finish adds at most half of that elimination's time.  A side
under MIN_SIDE falls back at once, before any array is built.

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


# Matrices with a side under MIN_SIDE stay on fraction-free elimination: on
# the traffic in benchmarks/bench_nullspace.py the lift, whose fixed cost is
# a few numpy calls per column and its certificate, loses 1.2-4x on the
# [A | I] of the inverses (5 to 12 rows), about 2x on the classify kernels
# with both sides under 16, and breaks even at best on those with fewer
# than 16 rows but 16 or more columns.
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
    """Reduced row echelon form over F_p of every slice of the (k, rows,
    cols) int64 stack a, in place, along the pivots of slice 0.

    Returns the pivot columns, or None where another slice disagrees: its
    entry in slice 0's pivot is 0, or it has a nonzero entry in a column
    that slice 0 skips.  A stack of one never disagrees.  Only rows with a
    nonzero entry in the pivot column of some slice are updated, which
    keeps the early steps on sparse constraint matrices cheap."""
    _, rows, cols = a.shape
    pivots = []
    pr = 0
    for c in range(cols):
        nz = a[0, pr:, c].nonzero()[0]
        if not len(nz):
            if a[1:, pr:, c].any():
                return None
            continue
        src = pr + nz[0]
        if src != pr:
            a[:, [pr, src]] = a[:, [src, pr]]
        lead = a[:, pr, c].tolist()
        if 0 in lead:
            return None
        inv = np.array([pow(x, -1, p) for x in lead], dtype=np.int64)
        prow = a[:, pr, c:] * inv[:, None] % p
        col = a[:, :, c]
        hit = col.any(axis=0)
        hit[pr] = False
        hit = hit.nonzero()[0]
        if len(hit):
            block = a[:, hit, c:]
            block -= col[:, hit, None] * prow[:, None, :]
            block %= p
            a[:, hit, c:] = block
        a[:, pr, c:] = prow
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


def _row_bounds(are, aim):
    """(norms, L): log2 of the norms of the nonzero rows, largest first, the
    sum of the first r being log2 of the Hadamard bound H on every r x r
    minor; and an integer L at least every row sum of |re| + |im|."""
    exact = are.dtype == object
    parts = [are] if aim is None else [are, aim]
    if not exact:
        parts = [p.astype(np.float64) for p in parts]
    sq = sum((p * p).sum(axis=1) for p in parts).tolist()
    l1 = max(sum(np.abs(p).sum(axis=1) for p in parts).tolist(), default=0)
    # a float sum of at most 2**17 terms under 2**63 is within a factor
    # 1 + 2**-35 of the exact one
    bound = l1 if exact else math.ceil(l1 * (1 + 2**-30))
    return sorted((math.log2(v) / 2 for v in sq if v), reverse=True), bound


def _bareiss_price(nrows, ncols, rank, log2h):
    """What fraction-free elimination costs, in the unit the lift is charged
    in (one cell update on word-size entries, about 0.15 us in CPython on a
    2-core Xeon): rank * nrows * ncols cell updates on entries that grow to
    about log2h bits, the Hadamard bound on the rank x rank minors.  An
    update costs a little more than linearly in that length, as long
    products do (Karatsuba)."""
    return rank * nrows * ncols * (1 + log2h / 50) ** 1.2


def _images(are, aim, p, s):
    """The images of are + i*aim under i -> s and i -> -s, stacked in one
    int64 array (one image when aim is None)."""
    rp = np.remainder(are, p).astype(np.int64, copy=False)
    if aim is None:
        return rp[None]
    ip = np.remainder(aim, p).astype(np.int64, copy=False)
    out = np.empty((2, *rp.shape), dtype=np.int64)
    for img, t in zip(out, (s, p - s)):
        np.multiply(ip, t, out=img)
        img += rp
        img %= p
    return out


@dataclass
class Nullspace:
    """Certified canonical nullspace: free columns and the basis
    (re + i*im) / den, flat row-major ncols x len(free), plus how it was
    found: the primes the lift eliminated (`discarded` of them unlucky), its
    checks, and the extra primes its certificates took."""

    free: list
    re: list
    im: list
    den: int
    primes: int
    discarded: int
    checks: int
    check_primes: int


class _Lift:
    """One multimodular lift of rationals (echelon entries here, gcd
    coefficients in `relpos.poly`), fed the images of one prime at a time:
    one image of a real input, else those under i -> s and i -> -s.  The
    least key wins: a smaller key starts the lift over, and a prime with an
    image of another key is discarded.  The kept primes are split into real
    and imaginary residues, combined by CRT, and reconstructed (Wang 1981)
    on the schedule 1, 2, 3, 4, 6, 8, 11, ... (n -> n + n//4 + 1).
    `coprime` says whether each cancellation of the last reconstruction
    was by a factor prime to the modulus."""

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
        not already a small numerator.

        Each (n, d) found has n = d*u (mod m).  Every factor cancelled from
        it divides the final running denominator (an entry from a Euclid
        run on u alone is already in lowest terms), so the reduced pair
        keeps the congruence when that denominator is prime to m, which
        `coprime` records: below 2**30 it is, since every table prime
        exceeds 2**30."""
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
        self.coprime = den < 2**30 or math.gcd(den, m) == 1
        return out


def _free(pivots, ncols):
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def nullspace(re, im, nrows, ncols):
    """Canonical nullspace of the Z[i] matrix (re + i*im), flat row-major.

    Returns a Nullspace, or None (the caller then eliminates exactly) for a
    side under MIN_SIDE, for 2**16 columns or more (where the certificate's
    int64 sums could overflow), or once the lift has spent half of
    `_bareiss_price`."""
    if nrows < MIN_SIDE or not MIN_SIDE <= ncols < 2**16:
        return None
    bits = max(max(re), -min(re), max(im), -min(im)).bit_length()
    dtype = np.int64 if bits < 63 else object
    real = not any(im)
    are = np.array(re, dtype=dtype).reshape(nrows, ncols)
    aim = None if real else np.array(im, dtype=dtype).reshape(nrows, ncols)
    norms, row_sum = _row_bounds(are, aim)
    # Each prime is charged for reducing the entries of its images (only past
    # int64 a Python operation per entry, growing with its bits), for
    # eliminating their stack (numpy passes per column and more per pivot,
    # which a second image makes about half as dear again, and the updates
    # of a dense matrix per image), and for CRT and reconstruction on the
    # modulus it grows to.  Each check is charged for assembling its
    # candidate (entries growing with the modulus) and for each extra prime
    # it reduces C and N by and multiplies (a failed check almost always
    # fails at its first).
    images = 1 if real else 2
    reduce = 0
    if dtype is object:
        entry_bits = sum(map(int.bit_length, itertools.chain(re, im)))
        reduce = images * nrows * ncols / 3 + entry_bits / 200
    price = None
    spent = 0.0
    lift = _Lift()
    checks = check_primes = 0
    for i in itertools.count():
        p, s = prime(i)
        stack = _images(are, aim, p, s)
        pivots = _rref_mod(stack, p)
        got = None
        if pivots is None:
            # the slices disagree: discard the prime like an unlucky one
            lift.discarded += 1
        else:
            block = stack[:, : len(pivots)][:, :, _free(pivots, ncols)]
            got = lift.add(p, s, [((-len(pivots), pivots), b) for b in block])
        if lift.key is None:
            # no prime has fixed the rank, and so the price, yet
            continue
        pivots = lift.key[1]
        rank = len(pivots)
        if price is None:
            price = _bareiss_price(nrows, ncols, rank, sum(norms[:rank]))
        m = lift.modulus.bit_length()
        elimination = (130 * rank + 10 * ncols) * (1 + images) / 2 + images * rank * nrows * ncols / 80
        spent += reduce + elimination + images * rank * (ncols - rank) * (1 + m / 200) + 2 * m
        if got is not None:
            checks += 1
            free = _free(pivots, ncols)
            k = len(free)
            proved = lift.modulus if lift.coprime else 1
            basis = _certify(are, aim, row_sum, pivots, free, got, proved, i + 1)
            extra = 1 if basis is None else basis[3]
            check_primes += extra
            per_prime = reduce + 300 + ncols * k + images * nrows * ncols * (1 + k / 5) / 10
            spent += 300 + rank * k * (8 + m / 50) + extra * per_prime
            if basis is not None:
                nre, nim, den, _ = basis
                return Nullspace(free, nre, nim, den, lift.primes + lift.discarded,
                                 lift.discarded, checks, check_primes)
        if 2 * spent > price:
            return None


def _vanishes_mod(are, aim, nre, nim, p, s):
    """Whether both images of (are + i*aim) @ (nre + i*nim) vanish mod p.
    N is split into 16-bit halves, so that each int64 sum of at most 2**16
    products of a residue and a half stays under 2**63."""
    c = _images(are, aim, p, s)
    n = _images(nre, nim, p, s)
    out = np.matmul(c, n >> 16) % p
    out <<= 16
    out += np.matmul(c, n & 0xFFFF)
    out %= p
    return not out.any()


def _certify(are, aim, row_sum, pivots, free, fracs, proved, first):
    """Assemble the candidate basis N_num = den * N over one denominator and
    prove C @ N_num = 0 over Z[i], C = are + i*aim, with no exact product.

    Proof.  Let X = C @ N_num.  For every prime p of the lift, each entry
    n/d of the candidate has n = d*u (mod m) for its CRT residue u, so both
    images of N_num mod p are den times the basis read off the rref of the
    image of C, and both images of X vanish mod p (the one image, when C is
    real); hence so do the real and imaginary parts of X, their half sum and
    difference (p odd).  So X = 0 (mod `proved`), the lift modulus m when
    every cancellation of the reconstruction was by a factor prime to m,
    else 1.  Every real and imaginary part of X is at most L * max|N_num| in
    absolute value, L = `row_sum` a bound on every row sum of |re| + |im| of
    C.  So once `proved` passes 2 * L * max|N_num|, X = 0 with no
    arithmetic; short of that, X must vanish modulo the table primes from
    index `first` on until their product times `proved` passes it.

    Returns the basis as (re, im, den) and the count of those extra primes,
    or None when X does not vanish modulo one of them."""
    ncols = are.shape[1]
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
            if aim is not None:
                yn, yd = fracs[count + r * k + jf]
                nim[c * k + jf] = -yn * (den // yd)
    maxn = max(map(abs, itertools.chain(nre, nim)), default=0)
    target = 2 * row_sum * maxn
    extra = 0
    if proved <= target:
        dtype = np.int64 if maxn.bit_length() < 63 else object
        n_re = np.array(nre, dtype=dtype).reshape(ncols, k)
        n_im = None if aim is None else np.array(nim, dtype=dtype).reshape(ncols, k)
        while proved <= target:
            p, s = prime(first + extra)
            extra += 1
            if not _vanishes_mod(are, aim, n_re, n_im, p, s):
                return None
            proved *= p
    return nre, nim, den, extra
