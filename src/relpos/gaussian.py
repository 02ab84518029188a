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
    """An element of Q(i); immutable, hashable, exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GQ is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GQ(x)
        return NotImplemented

    def __add__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GQ((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions -------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"GQ({format_gq(self)!r})"

    def __str__(self):
        return format_gq(self)


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


def _format_fraction(f: Fraction) -> str:
    return str(f)


def format_gq(z: GQ) -> str:
    """Canonical text for an exact scalar."""
    if z.im == 0:
        return _format_fraction(z.re)
    if z.im == 1:
        imag = "i"
    elif z.im == -1:
        imag = "-i"
    else:
        imag = _format_fraction(z.im) + "i"
    if z.re == 0:
        return imag
    if z.im > 0 and not imag.startswith("+"):
        imag = "+" + imag
    return _format_fraction(z.re) + imag


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
