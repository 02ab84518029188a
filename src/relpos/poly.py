"""Exact polynomials over Q(i): arithmetic, gcd, square-free parts,
root-driven factoring with exact certification, and exact counts of the
zeros in the unit disk.

Factoring never splits anything it cannot certify: residual factors that
resist exact reconstruction come back as an uncertified remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegreeBoundExceeded
from .gaussian import GQ, I, ONE, ZERO

DEFAULT_DEGREE_BOUND = 24


def _isqrt_exact(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def fraction_sqrt(q: Fraction):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    a = _isqrt_exact(q.numerator)
    b = _isqrt_exact(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def gq_sqrt(s: GQ):
    """Exact square root of s in Q(i), or None if s is not a square there."""
    if not s:
        return ZERO
    t = fraction_sqrt(s.norm2())
    if t is None:
        return None
    x2 = (s.re + t) / 2
    y2 = (t - s.re) / 2
    x = fraction_sqrt(x2)
    y = fraction_sqrt(y2)
    if x is None or y is None:
        return None
    cand = GQ(x, y)
    if cand * cand == s:
        return cand
    cand = GQ(x, -y)
    if cand * cand == s:
        return cand
    return None


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

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial([GQ(i) * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other) -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def xgcd(self, other):
        """Extended gcd: (g, u, v) with u*self + v*other = g, g monic."""
        a, b = self, other
        ua, va = Polynomial([ONE]), Polynomial.zero()
        ub, vb = Polynomial.zero(), Polynomial([ONE])
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            ua, ub = ub, ua - q * ub
            va, vb = vb, va - q * vb
        if a.is_zero():
            return a, ua, va
        lead = a.leading()
        inv = ONE / lead
        return a * inv, ua * inv, va * inv

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
        d = p.derivative()
        a = p.gcd(d)
        b = p // a
        c = d // a
        out = []
        i = 1
        while b.degree >= 1:
            t = c - b.derivative()
            g = b.gcd(t)
            if g.degree >= 1:
                out.append((g.monic(), i))
            b, c = b // g, t // g
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
    irreducible quadratic.  remainder: uncertified residual (None when fully
    factored).  Re-multiplying factors * remainder * unit reproduces the input
    exactly.
    """

    unit: GQ
    factors: list = field(default_factory=list)
    remainder: Polynomial | None = None
    remainder_note: str = ""

    def product(self) -> Polynomial:
        p = Polynomial([self.unit])
        for f, m in self.factors:
            for _ in range(m):
                p = p * f
        if self.remainder is not None:
            p = p * self.remainder
        return p

    def certified_roots(self):
        """(root, multiplicity) for each certified linear factor."""
        return [(-f.coeffs[0] / f.coeffs[1], m) for f, m in self.factors if f.degree == 1]


def _rationalize(x: float, bounds=(10**4, 10**8, 10**12)):
    for b in bounds:
        yield Fraction(x).limit_denominator(b)


def _candidate_gq(z: complex):
    seen = set()
    for fr in _rationalize(z.real):
        for fi in _rationalize(z.imag):
            c = GQ(fr, fi)
            key = (c.re, c.im)
            if key not in seen:
                seen.add(key)
                yield c


def quadratic_roots_exact(q: Polynomial):
    """Exact Q(i) roots of a quadratic, or None when the discriminant is not
    a square there (which certifies irreducibility over Q(i))."""
    b = q.coeffs[1] / q.coeffs[2]
    c = q.coeffs[0] / q.coeffs[2]
    disc = b * b - GQ(4) * c
    root = gq_sqrt(disc)
    if root is None:
        return None
    half = GQ(Fraction(1, 2))
    return [(-b + root) * half, (-b - root) * half]


def _coeff_digits(p: Polynomial) -> int:
    worst = 1
    for c in p.coeffs:
        for part in (c.re, c.im):
            worst = max(worst, part.numerator.bit_length(), part.denominator.bit_length())
    return int(worst * 0.302) + 1  # bits -> decimal digits


def _mp_root_candidates(p: Polynomial):
    """High-precision roots rationalized via bounded continued fractions;
    needed when exact roots have denominators far beyond double precision."""
    import mpmath

    digits = min(400, max(60, 4 * _coeff_digits(p) + 30))
    den_bound = 10 ** (digits // 2 - 5)
    def to_mpf(fr: Fraction):
        return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)

    with mpmath.workdps(digits):
        coeffs = [mpmath.mpc(to_mpf(c.re), to_mpf(c.im)) for c in reversed(p.coeffs)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=120, extraprec=80)
        except Exception:
            return
        for z in roots:
            fr = Fraction(mpmath.nstr(mpmath.re(z), digits)).limit_denominator(den_bound)
            fi = Fraction(mpmath.nstr(mpmath.im(z), digits)).limit_denominator(den_bound)
            yield GQ(fr, fi)


def _root_stages(p: Polynomial):
    """Candidate roots of p in Q(i), one list a stage, cheapest first: small
    rationals, rounded numpy roots, rounded mpmath roots."""
    yield [GQ(Fraction(n, d)) * u for n in range(-6, 7) for d in (1, 2, 3) for u in (ONE, I)]
    yield [c for z in np.roots(p.to_complex_coeffs()[::-1]) for c in _candidate_gq(complex(z))]
    yield _mp_root_candidates(p)


def _extract_certified_roots(sf: Polynomial):
    """Split a square-free monic polynomial into exact Q(i) roots plus a
    cofactor that resisted certification (degree-2 cofactors are solved
    exactly, so a quadratic remainder is certified irreducible).  Each
    search takes out every verified root of the first stage that has one."""
    roots = []
    rest = sf.monic()
    while rest.degree >= 1:
        if rest.degree == 1:
            roots.append(-rest.coeffs[0] / rest.coeffs[1])
            rest = Polynomial([ONE])
            break
        if rest.degree == 2:
            pair = quadratic_roots_exact(rest)
            if pair is None:
                break
            roots.extend(pair)
            rest = Polynomial([ONE])
            break
        for stage in _root_stages(rest):
            hits = list(dict.fromkeys(c for c in stage if rest.eval_scalar(c).is_zero()))
            if hits:
                break
        else:
            break
        for cand in hits:
            roots.append(cand)
            rest = rest.shift_root(cand)
    return roots, rest


def factor_over_gaussian_rationals(p: Polynomial) -> FactorReport:
    """Factor p over Q(i): square-free decomposition, then certified root
    extraction; what cannot be certified is returned as a remainder.

    Past DEFAULT_DEGREE_BOUND the small rational roots are taken out first,
    with their multiplicities, and the bound applies to what is left: so
    x^k (x - 1) factors at any k, and DegreeBoundExceeded is raised before
    any gcd or numeric root search on a larger cofactor."""
    if p.is_zero():
        return FactorReport(unit=ZERO)
    unit = p.leading()
    report = FactorReport(unit=unit)
    cofactor = p
    if p.degree > DEFAULT_DEGREE_BOUND:
        for lam in next(_root_stages(p)):
            mult = 0
            while cofactor.degree >= 1 and cofactor.eval_scalar(lam).is_zero():
                cofactor, mult = cofactor.shift_root(lam), mult + 1
            if mult:
                report.factors.append((Polynomial([-lam, ONE]), mult))
        if cofactor.degree > DEFAULT_DEGREE_BOUND:
            raise DegreeBoundExceeded(f"degree {cofactor.degree} exceeds bound {DEFAULT_DEGREE_BOUND}")
    remainder = Polynomial([ONE])
    note = ""
    for sf, mult in cofactor.squarefree_decomposition():
        roots, rest = _extract_certified_roots(sf)
        for lam in roots:
            report.factors.append((Polynomial([-lam, ONE]), mult))
        if rest.degree == 2:
            # the exact quadratic solver already failed on it, which is a
            # discriminant non-square certificate
            report.factors.append((rest.monic(), mult))
            note = "quadratic factor certified irreducible over Q(i)"
        elif rest.degree >= 1:
            for _ in range(mult):
                remainder = remainder * rest.monic()
            note = note or f"degree-{rest.degree} factor not certified over Q(i)"
    if remainder.degree >= 1:
        report.remainder = remainder
        report.remainder_note = note
    report.factors.sort(key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].coeffs]))
    return report


def coprime_split(p: Polynomial, rep: FactorReport | None = None):
    """A pair (f, g) of exact monic polynomials with p = unit*f*g,
    gcd(f, g) = 1 and both of positive degree, or None.

    Prefers certified factors but will split certified-versus-remainder;
    never splits inside the uncertified remainder.  `rep`, when given, is
    the caller's factor_over_gaussian_rationals(p), so p is not factored
    again.
    """
    if rep is None:
        rep = factor_over_gaussian_rationals(p)
    parts = []
    for f, m in rep.factors:
        q = Polynomial([ONE])
        for _ in range(m):
            q = q * f
        parts.append(q)
    if rep.remainder is not None:
        parts.append(rep.remainder)
    if len(parts) < 2:
        return None
    f = parts[0]
    g = Polynomial([ONE])
    for q in parts[1:]:
        g = g * q
    if f.gcd(g).degree != 0:
        return None
    return f.monic(), g.monic()


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


def _gaussian_integer_parts(p: Polynomial):
    """(re, im): a primitive Gaussian-integer multiple of p, as two int lists."""
    den = math.lcm(*(c._d for c in p.coeffs))
    re = [c._a * (den // c._d) for c in p.coeffs]
    im = [c._b * (den // c._d) for c in p.coeffs]
    g = math.gcd(*re, *im)
    return [c // g for c in re], [c // g for c in im]


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
