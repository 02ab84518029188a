"""Gaussian-rational scalars: exact elements of Q(i) with a text syntax.

The text form is `a/b+c/di` with zero parts omitted: `3`, `-1/2i`, `2+1/3i`.
Floats (for the complex-float backend) reuse the same shape with decimal or
scientific parts: `1.5`, `2e-3-0.25i`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError


class GQ:
    """An element of Q(i); immutable, hashable, exact.

    Stored as three ints (a, b, d) with value (a + b*i) / d, d > 0 and
    gcd(a, b, d) = 1, so equal values have equal storage.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            if not isinstance(re, Fraction):
                re = Fraction(re)
            if not isinstance(im, Fraction):
                im = Fraction(im)
            # both parts are in lowest terms, so gcd(a, b, d) = 1 already
            dr, di = re.denominator, im.denominator
            d = math.lcm(dr, di)
            a = re.numerator * (d // dr)
            b = im.numerator * (d // di)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @classmethod
    def _make(cls, a, b, d):
        """(a + b*i) / d for ints a, b and d > 0, normalised."""
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        z = _new(cls)
        _set_a(z, a)
        _set_b(z, b)
        _set_d(z, d)
        return z

    def __setattr__(self, *a):
        raise AttributeError("GQ is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _triple(x):
        """(a, b, d) of an exact scalar, or None for other types."""
        if isinstance(x, GQ):
            return x._a, x._b, x._d
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return None

    def __add__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        if d == e:
            return GQ._make(self._a + a, self._b + b, d)
        return GQ._make(self._a * d + a * e, self._b * d + b * e, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        if d == e:
            return GQ._make(self._a - a, self._b - b, d)
        return GQ._make(self._a * d - a * e, self._b * d - b * e, d * e)

    def __rsub__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        return GQ._make(a * e - self._a * d, b * e - self._b * d, d * e)

    def __neg__(self):
        return GQ._make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        x, y = self._a, self._b
        return GQ._make(x * a - y * b, x * b + y * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        return GQ._quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        return GQ._quotient(*o, self._a, self._b, self._d)

    @staticmethod
    def _quotient(x, y, e, a, b, d):
        """((x + y*i) / e) / ((a + b*i) / d)."""
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GQ._make((x * a + y * b) * d, (y * a - x * b) * d, e * n)

    def conj(self) -> "GQ":
        return GQ._make(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- predicates / conversions -------------------------------------------

    def __bool__(self):
        return bool(self._a or self._b)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        o = GQ._triple(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GQ({format_gq(self)!r})"

    def __str__(self):
        return format_gq(self)


_new = object.__new__
_set_a = GQ._a.__set__
_set_b = GQ._b.__set__
_set_d = GQ._d.__set__

ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def _format_part(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_gq(z: GQ) -> str:
    """Canonical text for an exact scalar."""
    a, b, d = z._a, z._b, z._d
    if not b:
        return _format_part(a, d)
    if b == d:
        imag = "i"
    elif b == -d:
        imag = "-i"
    else:
        imag = _format_part(b, d) + "i"
    if not a:
        return imag
    if b > 0:
        imag = "+" + imag
    return _format_part(a, d) + imag


def format_cfloat(z: complex) -> str:
    """Canonical text for a float scalar, same shape as the exact syntax."""
    if z.imag == 0:
        return repr(z.real)
    if z.real == 0:
        return repr(z.imag) + "i"
    sep = "+" if z.imag > 0 or z.imag != z.imag else ""
    return repr(z.real) + sep + repr(z.imag) + "i"


def _split_terms(text: str):
    terms = []
    cur = ""
    prev = ""
    for ch in text:
        if ch in "+-" and cur and prev not in "eE":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
        prev = ch
    if cur:
        terms.append(cur)
    return terms


def _parse_real(body: str, exact: bool):
    if exact:
        try:
            return Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {body!r}") from exc
    try:
        if "/" in body:
            num, den = body.split("/", 1)
            val = float(num) / float(den)
        else:
            val = float(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad float {body!r}") from exc
    if not math.isfinite(val):
        raise ParseError(f"non-finite float {body!r}")
    return val


def _parse(text: str, exact: bool):
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    re_part = Fraction(0) if exact else 0.0
    im_part = Fraction(0) if exact else 0.0
    seen_re = seen_im = False
    for term in _split_terms(s):
        sign = 1
        body = term
        if body and body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if body.endswith("i"):
            body = body[:-1]
            if seen_im:
                raise ParseError(f"two imaginary parts in {text!r}")
            seen_im = True
            val = (Fraction(1) if exact else 1.0) if body == "" else _parse_real(body, exact)
            im_part = im_part + sign * val
        else:
            if body == "":
                raise ParseError(f"bad scalar {text!r}")
            if seen_re:
                raise ParseError(f"two real parts in {text!r}")
            seen_re = True
            re_part = re_part + sign * _parse_real(body, exact)
    return re_part, im_part


def parse_gq(text: str) -> GQ:
    """Parse the exact scalar syntax into a GQ."""
    re_part, im_part = _parse(text, exact=True)
    return GQ(re_part, im_part)


def parse_cfloat(text: str) -> complex:
    """Parse the scalar syntax with float parts into a complex."""
    re_part, im_part = _parse(text, exact=False)
    return complex(re_part, im_part)
