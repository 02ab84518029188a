"""Gaussian-rational scalars: exact elements of Q(i) with a text syntax.

The text form is `a/b+c/di` with zero parts omitted: `3`, `-1/2i`, `2+1/3i`.
Floats (for the complex-float backend) reuse the same shape with decimal or
scientific parts: `1.5`, `2e-3-0.25i`.

A scalar is a real part, an imaginary part (ending in `i`, a bare `i` being
1) or both, in either order, each with an optional sign; spaces are ignored.
An exact part is anything `Fraction` reads from text (`-3`, `1/2`, `1.5`,
`1e-3`) within MAX_EXACT_DIGITS; a float part is a float literal or `x/y`
of two.  The common shapes (digits only, the real part first) are read by
`int()` and `complex()`; everything else goes through the general parser,
which reads the same language, so both give the same values and the same
errors.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

from .errors import ParseError, quote


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


def _int_text(n: int) -> str:
    """str(n), also past Python's int/str digit limit: there the digits are
    taken off by divmod in chunks of 600, below the smallest limit Python
    allows (640)."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunk, chunks = 10**600, []
    while n >= chunk:
        n, r = divmod(n, chunk)
        chunks.append(str(r).zfill(600))
    return sign + str(n) + "".join(reversed(chunks))


def _format_part(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, at any number of digits."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"


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


# An exact part written as a decimal or with an exponent (`1.25`, `12.5e-3`)
# is refused when its mantissa digits plus the magnitude of its exponent (0
# if it has none) exceed this, before any power of ten is taken.  Its
# numerator and denominator then have at most 4,300 digits, which format_gq
# prints under Python's default int/str limit; the largest power of ten
# allowed is 1e4298.  Integers and `a/b` parts are limited to 4,300 digits
# each by int() itself.
MAX_EXACT_DIGITS = 4299

# the common shapes: a real part, an imaginary part or both, in that order,
# of ASCII digits.  Exact groups: the real numerator (signed) and
# denominator, the imaginary sign, numerator and denominator, and the same
# three for an imaginary part alone.
_EXACT_SHAPE = re.compile(
    r"([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-])(?:([0-9]+)(?:/([0-9]+))?)?i)?"
    r"|([+-]?)(?:([0-9]+)(?:/([0-9]+))?)?i"
)
# a float literal; its mantissa has a single reading, so a failed match
# backtracks little
_FLOAT = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_FLOAT_SHAPE = re.compile(rf"[+-]?{_FLOAT}(?:[+-](?:{_FLOAT})?i)?|[+-]?(?:{_FLOAT})?i")
# an exponent at the end of an exact part, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")


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


def _parse_rational(body: str) -> Fraction:
    try:
        m = _EXPONENT.search(body)
        mantissa = body if m is None else body[: m.start()]
        if m is not None or "." in mantissa:
            exp = "" if m is None else m.group(1).replace("_", "").lstrip("+-").lstrip("0")
            digits = sum(map(str.isdecimal, mantissa))
            if len(exp) > 9 or digits + int(exp or 0) > MAX_EXACT_DIGITS:
                # a malformed mantissa is reported as such
                Fraction(mantissa + "e0")
                raise ParseError(
                    f"exact part out of range in {quote(body)} (mantissa digits plus "
                    f"|exponent| above {MAX_EXACT_DIGITS})"
                )
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {quote(body)}") from exc


def _parse_real(body: str, exact: bool):
    if exact:
        return _parse_rational(body)
    try:
        if "/" in body:
            num, den = body.split("/", 1)
            val = float(num) / float(den)
        else:
            val = float(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad float {quote(body)}") from exc
    if not math.isfinite(val):
        raise ParseError(f"non-finite float {quote(body)}")
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
                raise ParseError(f"two imaginary parts in {quote(text)}")
            seen_im = True
            val = (Fraction(1) if exact else 1.0) if body == "" else _parse_real(body, exact)
            im_part = im_part + sign * val
        else:
            if body == "":
                raise ParseError(f"bad scalar {quote(text)}")
            if seen_re:
                raise ParseError(f"two real parts in {quote(text)}")
            seen_re = True
            re_part = re_part + sign * _parse_real(body, exact)
    return re_part, im_part


def _common_gq(m):
    """The GQ of a match of _EXACT_SHAPE, or None for a zero denominator."""
    re_num, re_den, im_sign, im_num, im_den, lone_sign, lone_num, lone_den = m.groups()
    if re_num is None:  # an imaginary part alone
        a, p = 0, 1
        im_sign, im_num, im_den = lone_sign, lone_num, lone_den
    else:
        a, p = int(re_num), int(re_den or 1)
    if im_sign is None:  # a real part alone
        b, q = 0, 1
    else:
        b, q = int(im_num or 1), int(im_den or 1)
        if im_sign == "-":
            b = -b
    if not (p and q):
        return None
    return GQ._make(a * q, b * p, p * q)


def parse_gq(text: str) -> GQ:
    """Parse the exact scalar syntax into a GQ."""
    m = _EXACT_SHAPE.fullmatch(text)
    if m is not None:
        try:
            z = _common_gq(m)
        except ValueError:  # past int()'s digit limit
            z = None
        if z is not None:
            return z
    re_part, im_part = _parse(text, exact=True)
    return GQ(re_part, im_part)


def parse_cfloat(text: str) -> complex:
    """Parse the scalar syntax with float parts into a complex."""
    if _FLOAT_SHAPE.fullmatch(text):
        # + 0j turns a -0.0 part into 0.0, as the general parser's 0.0 + x does
        z = complex(text.replace("i", "j")) + 0j
        if cmath.isfinite(z):
            return z
    return complex(*_parse(text, exact=False))
