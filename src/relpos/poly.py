"""Exact polynomials over Q(i): arithmetic, gcd, square-free parts, and
root-driven factoring with exact certification.

Factoring never splits anything it cannot certify: residual factors that
resist exact reconstruction come back as an uncertified remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegreeBoundExceeded
from .gaussian import GQ, ONE, ZERO

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
        out = []
        for f, m in self.factors:
            if f.degree == 1:
                out.append((-f.coeffs[0] / f.coeffs[1], m))
        return out


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


def _find_one_root(p: Polynomial):
    """One exact root of p in Q(i), or None; every candidate is verified."""
    for n in range(-6, 7):
        for d in (1, 2, 3):
            for cand in (GQ(Fraction(n, d)), GQ(0, Fraction(n, d))):
                if p.eval_scalar(cand).is_zero():
                    return cand
    numeric = np.roots(p.to_complex_coeffs()[::-1])
    for z in numeric:
        for cand in _candidate_gq(complex(z)):
            if p.eval_scalar(cand).is_zero():
                return cand
    for cand in _mp_root_candidates(p):
        if p.eval_scalar(cand).is_zero():
            return cand
    return None


def _extract_certified_roots(sf: Polynomial):
    """Split a square-free monic polynomial into exact Q(i) roots plus a
    cofactor that resisted certification (degree-2 cofactors are solved
    exactly, so a quadratic remainder is certified irreducible)."""
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
        cand = _find_one_root(rest)
        if cand is None:
            break
        roots.append(cand)
        rest = rest.shift_root(cand)
    return roots, rest


def factor_over_gaussian_rationals(p: Polynomial, degree_bound=DEFAULT_DEGREE_BOUND) -> FactorReport:
    """Factor p over Q(i): square-free decomposition, then certified root
    extraction; what cannot be certified is returned as a remainder."""
    if p.degree > degree_bound:
        raise DegreeBoundExceeded(f"degree {p.degree} exceeds bound {degree_bound}")
    if p.is_zero():
        return FactorReport(unit=ZERO)
    unit = p.leading()
    report = FactorReport(unit=unit)
    remainder = Polynomial([ONE])
    note = ""
    for sf, mult in p.squarefree_decomposition():
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
