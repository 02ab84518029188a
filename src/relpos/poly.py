"""Exact polynomials over Q(i): arithmetic, a certified multimodular gcd,
square-free parts, factoring by exact roots, and exact counts of the zeros
in the unit disk.

Factoring finds every root in Q(i) of each square-free part by p-adic
lifting (`_gaussian_roots`): the roots modulo a small prime bound every
root, since each root reduces to one of them, and Newton's iteration lifts
them far enough to read the roots off exactly.  What is left has no root
in Q(i): a quadratic is then certified irreducible, and a part of degree 3
or more comes back as an uncertified remainder.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gaussian import GQ, ONE, ZERO
from .modular import _Lift, prime, small_prime


class Polynomial:
    """Coefficients ascending by degree; trailing zeros are stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, GQ) else GQ(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([])

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GQ:
        return self.coeffs[-1] if self.coeffs else ZERO

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [ZERO] * n
        for i, c in enumerate(self.coeffs):
            cs[i] = cs[i] + c
        for i, c in enumerate(other.coeffs):
            cs[i] = cs[i] + c
        return Polynomial(cs)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [ZERO] * n
        for i, c in enumerate(self.coeffs):
            cs[i] = cs[i] + c
        for i, c in enumerate(other.coeffs):
            cs[i] = cs[i] - c
        return Polynomial(cs)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GQ):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        cs = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    cs[i + j] = cs[i + j] + a * b
        return Polynomial(cs)

    def __pow__(self, m: int):
        out = Polynomial([ONE])
        for _ in range(m):
            out = out * self
        return out

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        d = other.degree
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] / lead
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and not rem[-1]:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def derivative(self) -> "Polynomial":
        return Polynomial([GQ(i) * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        """(h, self / h, other / h) for h the monic gcd of self and other;
        h = 0 with quotients 1 when both are 0.

        Multimodular (Brown 1971; von zur Gathen and Gerhard, *Modern
        Computer Algebra*, ch. 6): for the primes p = 1 (mod 4) of
        `modular.prime`, with s^2 = -1 (mod p), Euclid runs modulo p on the
        images of the Gaussian-integer multiples of both operands under
        i -> s and i -> -s; a prime where a leading coefficient vanishes is
        passed over.  Every image gcd then has degree at least deg h, so an
        image gcd of degree 0 makes h = 1 at once.  Otherwise the images,
        keyed by their degree, go to `modular._Lift`, whose one schedule
        serves `modular.nullspace` too: the least degree seen wins, a prime
        with an image above it is passed over, and the coefficients are
        reconstructed when the count of combined primes reaches 1, 2, 3,
        4, 6, 8, 11, ...  Each candidate is checked by exact division: a
        monic candidate of the least image degree that divides both
        operands is h, since it divides h and its degree is no less."""
        if other.is_zero():
            if self.is_zero():
                return self, Polynomial([ONE]), Polynomial([ONE])
            return self.monic(), Polynomial([self.leading()]), other
        if self.is_zero():
            return other.monic(), self, Polynomial([other.leading()])
        parts = _gaussian_integer_parts(self), _gaussian_integer_parts(other)
        lift = _Lift()
        for p, s in map(prime, itertools.count()):
            images = []
            for t in (s, p - s):
                f, g = ([(x + y * t) % p for x, y in zip(*q)] for q in parts)
                if not (f[-1] and g[-1]):
                    break
                images.append(_gcd_mod(f, g, p))
            if len(images) < 2:
                continue
            if min(len(h) for h in images) == 1:
                return Polynomial([ONE]), self, other
            got = lift.add(p, s, [(len(h) - 1, h[:-1]) for h in images])
            if got is None:
                continue
            coeffs = [GQ._make(xn * yd, yn * xd, xd * yd) for (xn, xd), (yn, yd) in zip(got, got[lift.key:])]
            h = Polynomial(coeffs + [ONE])
            (qa, ra), (qb, rb) = self.divmod(h), other.divmod(h)
            if ra.is_zero() and rb.is_zero():
                return h, qa, qb

    def eval_scalar(self, x: GQ) -> GQ:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m):
        from .matrix import Matrix

        acc = Matrix.zeros(m.rows, m.cols)
        ident = Matrix.identity(m.rows)
        for c in reversed(self.coeffs):
            acc = acc @ m + ident.scale(c)
        return acc

    def shift_root(self, lam: GQ) -> "Polynomial":
        """Divide out (z - lam); caller guarantees lam is a root."""
        out = []
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * lam + c
            out.append(acc)
        out.pop()
        return Polynomial(list(reversed(out)))

    def squarefree_decomposition(self):
        """Yun's algorithm (characteristic zero): list of (factor, multiplicity)."""
        p = self.monic()
        if p.degree < 1:
            return []
        _, b, c = p.gcd(p.derivative())
        out = []
        i = 1
        while b.degree >= 1:
            g, b, c = b.gcd(c - b.derivative())
            if g.degree >= 1:
                out.append((g, i))
            i += 1
        return out

    def to_complex_coeffs(self) -> np.ndarray:
        return np.array([c.to_complex() for c in self.coeffs], dtype=complex)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append("z" if cs == "1" else f"{cs}*z")
            else:
                terms.append(f"z^{i}" if cs == "1" else f"{cs}*z^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


@dataclass
class FactorReport:
    """Output of factor_over_gaussian_rationals.

    factors: certified (polynomial, multiplicity) pairs, linear or certified-
    irreducible quadratic.  remainder_parts: the (part, multiplicity) pairs
    of square-free parts with no root in Q(i) and no certified factors, by
    increasing multiplicity; their product is the `remainder` (None when
    fully factored).  Re-multiplying factors * remainder * unit reproduces
    the input exactly.
    """

    unit: GQ
    factors: list = field(default_factory=list)
    remainder_parts: list = field(default_factory=list)
    remainder_note: str = ""

    @property
    def remainder(self) -> Polynomial | None:
        if not self.remainder_parts:
            return None
        p = Polynomial([ONE])
        for g, m in self.remainder_parts:
            p = p * g ** m
        return p

    def product(self) -> Polynomial:
        p = Polynomial([self.unit])
        for f, m in self.factors + self.remainder_parts:
            p = p * f ** m
        return p

    def coprime_parts(self) -> list:
        """The pairwise coprime monic parts of the input: each certified
        factor to its multiplicity, then each remainder part to its (they
        have distinct multiplicities).  Their product is the input over its
        unit."""
        return [f ** m for f, m in self.factors] + [g ** m for g, m in self.remainder_parts]

    def certified_roots(self):
        """(root, multiplicity) for each certified linear factor."""
        return [(-f.coeffs[0] / f.coeffs[1], m) for f, m in self.factors if f.degree == 1]


def _gaussian_integer_parts(p: Polynomial):
    """(re, im): a primitive Gaussian-integer multiple of p, as two int lists."""
    den = math.lcm(*(c._d for c in p.coeffs))
    re = [c._a * (den // c._d) for c in p.coeffs]
    im = [c._b * (den // c._d) for c in p.coeffs]
    g = math.gcd(*re, *im)
    return [c // g for c in re], [c // g for c in im]


def _gcd_mod(f: list, g: list, p: int) -> list:
    """The monic gcd modulo the prime p of the int polynomials f and g, whose
    coefficients are residues and whose leading ones are nonzero."""
    while g:
        inv = pow(g[-1], -1, p)
        g = [c * inv % p for c in g]
        d = len(g) - 1
        f = f[:]
        for k in range(len(f) - 1 - d, -1, -1):
            c = f[k + d]
            if c:
                f[k : k + d] = [(a - c * b) % p for a, b in zip(f[k : k + d], g)]
        del f[d:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return f


@functools.lru_cache(maxsize=4)
def _powers(p: int, rows: int):
    """The int64 array of r^j mod p, row j for j < rows and column r for
    every residue r: `_gaussian_roots` evaluates at every residue in one
    product.  It asks for 32 rows below degree 32 and for the next power
    of two past it, so that one table of the few kept, for the primes last
    used (almost always the first), serves every small degree."""
    r = np.arange(p, dtype=np.int64)
    table = [np.ones(p, dtype=np.int64)]
    for _ in range(rows - 1):
        table.append(table[-1] * r % p)
    return np.array(table)


def _value_and_slope(g: list, r: int, m: int):
    """(g(r), g'(r)) modulo m for the int polynomial g, by Horner's rule."""
    v = d = 0
    for c in reversed(g):
        d = (d * r + v) % m
        v = (v * r + c) % m
    return v, d


def _lift_root(g: list, r: int, p: int, m: int) -> int:
    """The root modulo m = p^(2^k) of g that is congruent to r, a simple root
    of g modulo p: Newton's iteration doubles the exponent each step."""
    q = p
    while q < m:
        q *= q
        v, d = _value_and_slope(g, r, q)
        r = (r - v * pow(d, -1, q)) % q
    return r


def _gaussian_roots(sf: Polynomial) -> list:
    """Every root of the square-free polynomial sf in Q(i), exactly.

    Let f be the primitive Gaussian-integer multiple of sf, c its leading
    coefficient.  A root a/b in lowest terms over Z[i] has b | c, so
    c lambda = x + iy is a Gaussian integer, and by Cauchy's bound |x| and
    |y| are at most B = |c| + max |f_j|.  Take a prime p = 1 (mod 4) with
    s^2 = -1 (mod p) under which neither image of c (i -> s, i -> -s)
    vanishes and every root of both images of f modulo p is simple, which
    holds for all but the finitely many p dividing c or the discriminant.
    Then c lambda reduces to a root of each image, Newton's iteration lifts
    each root uniquely to a modulus M > 2B, and for one pair of lifts the
    multiples by c are x + y s and x - y s modulo M, from which x and y are
    read as symmetric residues (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 15).  Every pair is read and each candidate is kept only
    if exact evaluation makes it a root: no root is missed and none is
    false."""
    n = sf.degree
    if n == 1:
        return [-sf.coeffs[0] / sf.coeffs[1]]
    re, im = _gaussian_integer_parts(sf)
    bound = abs(re[n]) + abs(im[n]) + max(abs(a) + abs(b) for a, b in zip(re[:n], im[:n]))
    for k in itertools.count():
        p, s = small_prime(k)
        images = [[(a + b * t) % p for a, b in zip(re, im)] for t in (s, p - s)]
        if not (images[0][n] and images[1][n]):
            continue
        values = np.array(images, dtype=np.int64) @ _powers(p, 1 << max(n, 31).bit_length())[: n + 1] % p
        roots = [np.flatnonzero(row == 0).tolist() for row in values]
        if not (roots[0] and roots[1]):
            return []
        if all(_value_and_slope(g, r, p)[1] for g, rs in zip(images, roots) for r in rs):
            break
    m = p
    while m <= 2 * bound:
        m *= m
    s = _lift_root([1, 0, 1], s, p, m)
    lifts = []
    for t, rs in zip((s, m - s), roots):
        g = [(a + b * t) % m for a, b in zip(re, im)]
        lifts.append([g[n] * _lift_root(g, r, p, m) % m for r in rs])
    half, over = (m + 1) // 2, pow(2 * s, -1, m)
    c = GQ(re[n], im[n])
    out = []
    for u in lifts[0]:
        for v in lifts[1]:
            x, y = (u + v) * half % m, (u - v) * over % m
            x, y = (x - m if 2 * x > m else x), (y - m if 2 * y > m else y)
            if abs(x) <= bound and abs(y) <= bound:
                lam = GQ(x, y) / c
                if sf.eval_scalar(lam).is_zero():
                    out.append(lam)
    return out


def factor_over_gaussian_rationals(p: Polynomial) -> FactorReport:
    """Factor p over Q(i): square-free decomposition, then every root of
    each part (`_gaussian_roots`); a root-free quadratic part is certified
    irreducible and higher root-free parts are returned as a remainder."""
    if p.is_zero():
        return FactorReport(unit=ZERO)
    report = FactorReport(unit=p.leading())
    note = ""
    for sf, mult in p.squarefree_decomposition():
        rest = sf
        for lam in _gaussian_roots(sf):
            report.factors.append((Polynomial([-lam, ONE]), mult))
            rest = rest.shift_root(lam)
        if rest.degree == 2:
            # a quadratic with no root is irreducible
            report.factors.append((rest, mult))
            note = "quadratic factor certified irreducible over Q(i)"
        elif rest.degree >= 1:
            report.remainder_parts.append((rest, mult))
            note = note or f"degree-{rest.degree} factor not certified over Q(i)"
    if report.remainder_parts:
        report.remainder_note = note
    report.factors.sort(key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].coeffs]))
    return report


# -- zeros in the unit disk ---------------------------------------------------
#
# Integer polynomials below are lists of ints, ascending by degree, with no
# trailing zeros; the zero polynomial is [].


def _strip(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: list) -> list:
    """p divided by its positive integer content."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _negated_remainder(f: list, g: list) -> list:
    """A positive multiple of -(f mod g), made primitive: the next term of a
    Sturm chain.  Each step scales by |lc g|, never by a negative number."""
    r = list(f)
    lc = g[-1]
    scale, sign = abs(lc), (1 if lc > 0 else -1)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        shift = len(r) - 1 - dg
        lead = sign * r[-1]
        r = [scale * c for c in r]
        for i, c in enumerate(g):
            r[shift + i] -= lead * c
        _strip(r)
    return _primitive([-c for c in r]) if r else r


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_index(f: list, g: list):
    """(Cauchy index of g/f over the real line, gcd of f and g up to a
    constant), from the chain f, g, -(f mod g), ...: the index is the sign
    changes of the chain at -inf minus those at +inf (Sturm)."""
    chain = [f]
    while g:
        chain.append(g)
        f, g = g, _negated_remainder(f, g)
    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s if (len(p) - 1) % 2 == 0 else -s for s, p in zip(at_plus, chain)]
    return _sign_changes(at_minus) - _sign_changes(at_plus), chain[-1]


def _real_zero_count(p: list) -> int:
    """Real zeros of the integer polynomial p, counted with multiplicity: the
    distinct ones by Sturm's theorem on (p, p'), whose gcd holds every
    repeated zero once less."""
    if len(p) < 2:
        return 0
    distinct, g = _cauchy_index(p, [i * c for i, c in enumerate(p)][1:])
    return distinct + _real_zero_count(g)


def _cayley_counts(re: list, im: list):
    """(zeros in |z| < 1, zeros on |z| = 1) of p = re + i*im, counted with
    multiplicity, through its Cayley image P(t) = (1 - it)^n p((1 + it)/(1 - it)).

    The map sends the upper half-plane onto the open disk and the real line
    onto the circle less z = -1, whose multiplicity is the degree P loses.
    With the leading coefficient of P made real, P = A + iB with deg B <
    deg A; its real zeros are those of gcd(A, B) = D, and it has
    (deg P - I - (real zeros of D)) / 2 zeros in the upper half-plane, I the
    Cauchy index of B/A."""
    n = len(re) - 1
    # homogeneous Horner: P = sum_k a_k (1 + it)^k (1 - it)^(n - k)
    p_re, p_im = [re[n]], [im[n]]
    v_re, v_im = [1], [0]
    for k in range(n - 1, -1, -1):
        p_re, p_im = (  # times (1 + it)
            [a - b for a, b in zip(p_re + [0], [0] + p_im)],
            [a + b for a, b in zip(p_im + [0], [0] + p_re)],
        )
        v_re, v_im = (  # times (1 - it)
            [a + b for a, b in zip(v_re + [0], [0] + v_im)],
            [a - b for a, b in zip(v_im + [0], [0] + v_re)],
        )
        x, y = re[k], im[k]
        p_re = [a + x * c - y * d for a, c, d in zip(p_re, v_re, v_im)]
        p_im = [a + x * d + y * c for a, c, d in zip(p_im, v_re, v_im)]
    m = n
    while not (p_re[m] or p_im[m]):
        m -= 1
    # times conj(lead): the leading coefficient becomes x^2 + y^2 > 0
    x, y = p_re[m], p_im[m]
    a = [x * c + y * d for c, d in zip(p_re[: m + 1], p_im[: m + 1])]
    b = _strip([x * d - y * c for c, d in zip(p_re[: m + 1], p_im[: m + 1])])
    index, d = _cauchy_index(_primitive(a), _primitive(b))
    real = _real_zero_count(d)
    return (m - index - real) // 2, real + n - m


# Unit roundoff of IEEE double arithmetic.
_U = 2.0**-53
# Largest integers, in bits, the exact disk count may work with: its
# Schur-Cohn recursion grows them to about degree times coefficient bits (a
# degree-256 count at the bound takes about 5 s), the Cayley count to about
# degree times (bits + degree).  Past it `disk_zero_counts` gives up.
MAX_EXACT_COUNT_BITS = 4096
# Largest degree^2 times coefficient bits at which `disk_zero_counts` runs
# the exact recursion before the float certificate.  The certificate's cost
# hardly grows with the coefficients, the recursion's grows with both.  Time
# in ms, certificate / recursion, mean of 4 random Gaussian-integer
# polynomials per cell (2-core Xeon); each cell's degree^2 x bits is in
# brackets:
#   degree 2:   256 bits [1024] 0.20 / 0.02,  1024 [4096] 0.20 / 0.08,
#               2048 [8192] 0.21 / 0.25
#   degree 4:   256 [4096] 0.29 / 0.12,  1024 [16384] 0.29 / 0.84
#   degree 8:   16 [1024] 0.42 / 0.10,  64 [4096] 0.45 / 0.22,
#               128 [8192] 0.46 / 0.49,  256 [16384] 0.44 / 1.32
#   degree 16:  16 [4096] 0.84 / 0.48,  64 [16384] 0.86 / 1.84
#   degree 32:  4 [4096] 1.99 / 1.38,  8 [8192] 1.99 / 1.98,  16 [16384] 1.94 / 3.26
#   degree 64:  1 [4096] 4.92 / 2.32,  4 [16384] 5.86 / 8.17
# The two meet near 8192; every Toeplitz count of the lab has degree <= 6.
SCHUR_COHN_FIRST_WORK = 4096


def _gerschgorin_counts(re: list, im: list):
    """(zeros in |z| < 1, zeros on |z| = 1) of p = re + i*im, of degree n >= 1,
    from float approximations z_j of its zeros, or None where they settle
    nothing.

    The zeros of p are the eigenvalues of diag(z_j - W_j) - [W_j]_(j,k != j),
    W_j = p(z_j) / (a_n prod_(k != j) (z_j - z_k)) (its characteristic
    polynomial is p / a_n by Lagrange interpolation).  The disks |z - z_j|
    <= n |W_j| hold the Gerschgorin disks of that matrix and of every matrix
    on the way to it from its diagonal, so a union of m of them apart from
    the others holds exactly m zeros.  |W_j| is bounded above with the rounding
    errors of Horner's rule and of the product (the disks only grow).  A
    union inside or outside the circle is counted; one that meets it is
    counted as m zeros on it only when a Gaussian rational on the circle
    inside it is an exact zero of multiplicity m."""
    n = len(re) - 1
    # p / 2^e with every |coefficient| <= 1, each rounded once (int / int is)
    scale = 1 << max(map(abs, re + im)).bit_length()
    c = np.array([complex(a / scale, b / scale) for a, b in zip(re, im)])
    # overflow, underflow and invalid values, in np.roots too, are caught
    # by the finiteness checks
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            z = np.roots(c[::-1])
        except np.linalg.LinAlgError:
            return None
        if len(z) != n or not np.all(np.isfinite(z)):
            return None
        az = np.abs(z)
        ac = np.abs(c)
        val = np.full(n, c[n])
        size = np.full(n, ac[n])  # sum |c_k| |z|^k, which bounds the rounding
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        for k in range(n - 1, -1, -1):
            val = val * z + c[k]
            size = size * az + ac[k]
        # |p(z_j) - val| / 2^e: each Horner step errs by at most 4u relative
        # to size, the rounded coefficients by u, with size itself rounded
        # (16 for a margin), and each underflow by less than 2^-1000 |z|^k
        err = 16 * (n + 2) * _U * size + (n + 1) * 2.0**-1000 * np.maximum(az, 1.0) ** n
        # a_n prod (z_j - z_k), each step erring by at most 4u while every
        # partial product stays normal
        den = np.abs(np.cumprod(np.column_stack([np.full(n, c[n]), diff]), axis=1))
        if not np.all((den > 2.0**-1000) & (den < 2.0**1000)):
            return None
        bound = (np.abs(val) + err) / (den[:, -1] * (1 - 16 * (n + 2) * _U))
        # an underflow in the quotient loses less than 2^-1000
        radius = n * bound * (1 + 1e-9) + 2.0**-1000
    if not np.all(np.isfinite(radius)):
        return None
    # the 1e-9 margins below cover the few roundings in each comparison:
    # disks join whenever the exact ones could touch, and a union counts
    # inside or outside only when the exact disks lie there
    touch = np.abs(diff) * (1 - 1e-9) <= radius[:, None] + radius[None, :]
    seen = np.zeros(n, dtype=bool)
    inside = circle = 0
    for j in range(n):
        if seen[j]:
            continue
        union, todo = [], [j]
        seen[j] = True
        while todo:
            k = todo.pop()
            union.append(k)
            new = np.flatnonzero(touch[k] & ~seen)
            seen[new] = True
            todo.extend(new.tolist())
        m = len(union)
        if np.all(az[union] * (1 + 1e-9) + radius[union] < 1):
            inside += m
        elif not np.all(az[union] * (1 - 1e-9) - radius[union] > 1):
            centre = complex(np.mean(z[union]))
            x = Fraction(centre.real).limit_denominator(1 << 16)
            y = Fraction(centre.imag).limit_denominator(1 << 16)
            near = np.abs(z[union] - complex(x, y)) * (1 + 1e-9) + 1e-15 < radius[union]
            if x * x + y * y != 1 or not near.any() or not _zero_of_order(re, im, x, y, m):
                return None
            circle += m
    return inside, circle


def _zero_of_order(re: list, im: list, x: Fraction, y: Fraction, m: int) -> bool:
    """Whether x + iy is a zero of re + i*im of multiplicity at least m: p and
    its first m - 1 derivatives vanish there, by Horner's rule in integers."""
    d = math.lcm(x.denominator, y.denominator)
    wr, wi = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
    for _ in range(m):
        # d^deg p((wr + i wi) / d)
        vr, vi, dk = re[-1], im[-1], 1
        for k in range(len(re) - 2, -1, -1):
            dk *= d
            vr, vi = vr * wr - vi * wi + re[k] * dk, vr * wi + vi * wr + im[k] * dk
        if vr or vi:
            return False
        re = [k * c for k, c in enumerate(re)][1:]
        im = [k * c for k, c in enumerate(im)][1:]
    return True


def _schur_cohn_counts(re: list, im: list, max_bits):
    """(zeros in |z| < 1, zeros on |z| = 1) of p = re + i*im, exactly, or None
    when max_bits is not None and the integers would outgrow it.

    Schur-Cohn recursion (Marden, *Geometry of Polynomials*, ch. X): T p =
    conj(a_0) p - a_n p*, with p*(z) = z^n conj(p(1/conj z)) and n = deg p,
    has degree below n and the real constant |a_0|^2 - |a_n|^2.  By Rouche's
    theorem T p has the zeros of p in the disk when that constant is
    positive, and n - (circle zeros) - (those of p) when it is negative; the
    circle zeros of p divide T p and no others appear.  Each transform is
    divided by the constant of the polynomial two steps back, which divides
    it after regular steps, as in Bareiss's elimination (checked: where it
    does not, the integer content is divided out instead), so the integers
    grow by about the coefficient size per step, to about n times it.  A
    singular step (constant 0, T p != 0, e.g. (z - 2)(z - i/2)) goes on with
    (2z - 1) p.  The recursion stops at a polynomial whose transform vanishes
    (it is self-inversive: its zeros pair off as z, 1/conj z), or at a
    singular step no lower than the previous one; that polynomial is
    counted by its Cayley image, whose coefficients are about its degree in
    bits larger, and the counts are carried back through the steps.  The
    bound is degree times coefficient bits, before the recursion and before
    the Cayley count."""

    def too_big(re, im, extra=0):
        bits = max(map(abs, re + im)).bit_length() + extra
        return max_bits is not None and (len(re) - 1) * bits > max_bits

    if too_big(re, im):
        return None
    # the steps to carry the count back through: the degree of a step whose
    # constant was negative, or None for a factor 2z - 1 put in
    steps = []
    consts = []  # constants of the polynomials since the last content division
    fixed = len(re)  # degree at the last singular step
    while len(re) > 1:
        n = len(re) - 1
        x0, y0, xn, yn = re[0], im[0], re[n], im[n]
        t_re, t_im = [], []
        for k in range(n):
            # conj(a_0) a_k - a_n conj(a_(n - k))
            u, v, u2, v2 = re[k], im[k], re[n - k], im[n - k]
            t_re.append(x0 * u + y0 * v - xn * u2 - yn * v2)
            t_im.append(x0 * v - y0 * u + xn * v2 - yn * u2)
        delta = t_re[0]
        if delta == 0:
            if n >= fixed or not (any(t_re) or any(t_im)):
                break
            # a singular step: (2z - 1) p has one zero more inside, the same
            # circle zeros, and the regular constant |a_0|^2 - 4|a_n|^2 < 0
            re = [2 * a - b for a, b in zip([0] + re, re + [0])]
            im = [2 * a - b for a, b in zip([0] + im, im + [0])]
            steps.append(None)
            fixed, consts = n, []
            continue
        if delta < 0:
            steps.append(n)
        m = n
        while not (t_re[m - 1] or t_im[m - 1]):
            m -= 1
        del t_re[m:], t_im[m:]
        # T p_k is divisible by the constant of p_(k - 1) when the steps in
        # between were regular; where the division is not exact, the integer
        # content is divided out and the chain starts again
        d = abs(consts[-2]) if len(consts) > 1 else 1
        parts = [divmod(c, d) for c in t_re + t_im]
        if any(r for _, r in parts):
            g = math.gcd(*t_re, *t_im)
            parts = [(c // g, 0) for c in t_re + t_im]
            consts = []
        re, im = [q for q, _ in parts[:m]], [q for q, _ in parts[m:]]
        consts.append(re[0])
    if len(re) == 1:
        inside, circle = 0, 0
    elif too_big(re, im, len(re) - 1):
        return None
    else:
        inside, circle = _cayley_counts(re, im)
    for n in reversed(steps):
        inside = inside - 1 if n is None else n - circle - inside
    return inside, circle


def disk_zero_counts(p: Polynomial):
    """(zeros in the open unit disk, zeros on the unit circle) of p != 0,
    counted with multiplicity, exactly; None when the exact recursion is
    needed and would pass MAX_EXACT_COUNT_BITS.

    Two exact methods, the cheaper first (`SCHUR_COHN_FIRST_WORK`): the
    Schur-Cohn recursion in integers (`_schur_cohn_counts`), and float
    approximations of the zeros proved by Gerschgorin disks with rounding
    bounds (`_gerschgorin_counts`), at a cost that does not grow with the
    size of the coefficients.  The second runs where the first settles
    nothing: a disk meets the circle and no exact zero on it settles it, or
    the recursion's integers would pass the bound."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no zero count")
    if p.degree == 0:
        return 0, 0
    re, im = _gaussian_integer_parts(p)
    if p.degree**2 * max(map(abs, re + im)).bit_length() <= SCHUR_COHN_FIRST_WORK:
        counts = _schur_cohn_counts(re, im, MAX_EXACT_COUNT_BITS)
        return counts if counts is not None else _gerschgorin_counts(re, im)
    counts = _gerschgorin_counts(re, im)
    return counts if counts is not None else _schur_cohn_counts(re, im, MAX_EXACT_COUNT_BITS)
