"""Exact scalar arithmetic and the shared text syntax."""

import math
import re
import struct
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relpos import sysfile
from relpos.errors import ParseError, quote
from relpos.gaussian import (
    GQ,
    MAX_EXACT_DIGITS,
    format_cfloat,
    format_gq,
    parse_cfloat,
    parse_gq,
)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", GQ(3)),
        ("-1/2i", GQ(0, Fraction(-1, 2))),
        ("2+1/3i", GQ(2, Fraction(1, 3))),
        ("i", GQ(0, 1)),
        ("-i", GQ(0, -1)),
        ("0", GQ(0)),
        ("1-2i", GQ(1, -2)),
        ("2+0i", GQ(2)),
        ("-3/4", GQ(Fraction(-3, 4))),
    ],
)
def test_parse_exact(text, value):
    assert parse_gq(text) == value


@pytest.mark.parametrize("bad", ["", "1+2", "i+i+i", "2x", "1/", "++1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_gq(bad)


def test_canonical_format_examples():
    assert format_gq(GQ(3)) == "3"
    assert format_gq(GQ(0, Fraction(-1, 2))) == "-1/2i"
    assert format_gq(GQ(2, Fraction(1, 3))) == "2+1/3i"
    assert format_gq(GQ(0)) == "0"
    assert format_gq(GQ(0, 1)) == "i"
    assert format_gq(GQ(1, -1)) == "1-i"


@pytest.mark.parametrize("digits", [599, 600, 601, 4300, 4301, 9000])
def test_format_past_the_str_digit_limit(digits):
    # the chunked text is what str() gives with the limit lifted, at every
    # chunk boundary, and with the zeros inside a chunk kept
    big = 10 ** (digits - 1) + 7
    text = format_gq(GQ(Fraction(-big, 3), Fraction(big, big + 2)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"-{big}/3+{big}/{big + 2}i"
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == want


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@given(small_fractions, small_fractions)
def test_roundtrip_exact(re, im):
    z = GQ(re, im)
    assert parse_gq(format_gq(z)) == z


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_field_axioms_sample(a, b, c, d):
    x = GQ(a, b)
    y = GQ(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    if y:
        assert (x / y) * y == x
    assert x.norm2() == (x * x.conj()).re


def test_float_roundtrip():
    for z in (1.5 + 0.25j, -2e-3j, 3.0 + 0j, -1.25 - 0.5j):
        assert parse_cfloat(format_cfloat(z)) == z


def test_parse_float_scientific():
    assert parse_cfloat("2e-3-0.25i") == complex(2e-3, -0.25)


# -- GQ against the (Fraction, Fraction) pair model --------------------------

wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
gq_pairs = st.tuples(wide_fractions, wide_fractions)
# a right operand: a GQ, a plain int or a Fraction, with its model pair
operands = st.one_of(
    gq_pairs.map(lambda p: (GQ(*p), p)),
    st.integers(-(10**20), 10**20).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    wide_fractions.map(lambda q: (q, (q, Fraction(0)))),
)


def _model(z):
    return (z.re, z.im)


def _m_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _m_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _m_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _normalised(z):
    return z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


@given(gq_pairs, operands)
def test_arithmetic_matches_pair_model(xp, operand):
    x = GQ(*xp)
    y, yp = operand
    results = [
        (x + y, _m_add(xp, yp)),
        (y + x, _m_add(yp, xp)),
        (x - y, _m_sub(xp, yp)),
        (y - x, _m_sub(yp, xp)),
        (x * y, _m_mul(xp, yp)),
        (y * x, _m_mul(yp, xp)),
    ]
    if any(yp):
        results.append((x / y, _m_div(xp, yp)))
    if any(xp):
        results.append((y / x, _m_div(yp, xp)))
    for z, want in results:
        assert isinstance(z, GQ)
        assert _model(z) == want
        assert _normalised(z)
        assert z == GQ(*want)


@given(gq_pairs, operands)
def test_unary_and_equality_match_pair_model(xp, operand):
    x = GQ(*xp)
    assert _model(x) == xp
    assert _model(-x) == (-xp[0], -xp[1])
    assert _model(x.conj()) == (xp[0], -xp[1])
    assert x.norm2() == xp[0] * xp[0] + xp[1] * xp[1]
    assert isinstance(x.norm2(), Fraction)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    y, yp = operand
    assert (x == y) == (xp == yp)
    assert (y == x) == (xp == yp)
    assert (x != y) == (xp != yp)
    assert bool(x) == any(xp)


@given(gq_pairs, st.integers(1, 10**6), st.integers(-50, 50))
def test_normalised_triples(xp, k, shift):
    x = GQ(*xp)
    assert _normalised(x)
    # the same value reached by different routes
    others = [
        parse_gq(format_gq(x)),
        GQ(x.re, x.im),
        (x * k) / k,
        (x + shift) - shift,
        x.conj().conj(),
        -(-x),
    ]
    for y in others:
        assert (y._a, y._b, y._d) == (x._a, x._b, x._d)
        assert hash(y) == hash(x)
    zero = x - x
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert (GQ()._a, GQ()._b, GQ()._d) == (0, 0, 1)


@given(st.one_of(st.integers(-(10**30), 10**30), wide_fractions))
def test_hash_of_real_values_matches_fraction(q):
    assert hash(GQ(q)) == hash(q)
    assert hash(GQ(q, 0)) == hash(Fraction(q))
    assert hash(GQ(q) * GQ(0, 1) * GQ(0, -1)) == hash(q)


@given(gq_pairs)
def test_hash_of_complex_values_matches_pair(xp):
    x = GQ(*xp)
    if xp[1]:
        assert hash(x) == hash(xp)
    else:
        assert hash(x) == hash(xp[0])


@given(gq_pairs)
def test_to_complex_is_bitwise_the_fraction_floats(xp):
    z = GQ(*xp).to_complex()
    assert z.real.hex() == float(xp[0]).hex()
    assert z.imag.hex() == float(xp[1]).hex()


def test_division_by_zero_raises():
    x = GQ(Fraction(1, 2), 3)
    for num, den in ((x, GQ(0)), (x, 0), (x, Fraction(0)), (1, GQ(0)), (Fraction(1, 3), GQ()), (GQ(0), GQ(0))):
        with pytest.raises(ZeroDivisionError, match=r"in Q\(i\)"):
            num / den


def test_gq_is_immutable():
    x = GQ(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    assert x == GQ(1, 2)


def test_public_constructor_accepts_fraction_inputs():
    assert GQ("3/4", "-1/6") == GQ(Fraction(3, 4), Fraction(-1, 6))
    assert GQ(0.5, -2) == GQ(Fraction(1, 2), -2)
    assert GQ(True) == GQ(1)
    z = GQ("3/4", "-1/6")
    assert (z._a, z._b, z._d) == (9, -2, 12)


def _format_pair(re, im):
    """The scalar text built from str(Fraction) of each part."""
    if im == 0:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, str(im) + "i")
    if re == 0:
        return imag
    return str(re) + ("+" + imag if im > 0 else imag)


@given(gq_pairs)
def test_format_matches_fraction_text(xp):
    assert format_gq(GQ(*xp)) == _format_pair(*xp)


# -- the read path against the character-by-character reference -------------
#
# The parser before int()/complex() fast shapes, kept here as the reference:
# every text reads to the same value, bit for bit, or fails with the same
# exception type and message.  It has no exponent bound.


def _ref_split_terms(text):
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


def _ref_parse_real(body, exact):
    if exact:
        try:
            return Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {quote(body)}") from exc
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


def _ref_parse(text, exact):
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    re_part = Fraction(0) if exact else 0.0
    im_part = Fraction(0) if exact else 0.0
    seen_re = seen_im = False
    for term in _ref_split_terms(s):
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
            val = (Fraction(1) if exact else 1.0) if body == "" else _ref_parse_real(body, exact)
            im_part = im_part + sign * val
        else:
            if body == "":
                raise ParseError(f"bad scalar {quote(text)}")
            if seen_re:
                raise ParseError(f"two real parts in {quote(text)}")
            seen_re = True
            re_part = re_part + sign * _ref_parse_real(body, exact)
    return re_part, im_part


def _ref_parse_gq(text):
    return GQ(*_ref_parse(text, exact=True))


def _ref_parse_cfloat(text):
    return complex(*_ref_parse(text, exact=False))


def _outcome(parse, text):
    """What parse makes of text: the exact triple or the bits of a float
    complex, or the exception type and message."""
    try:
        z = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return ("error", type(exc).__name__, str(exc))
    if isinstance(z, complex):
        return ("value", z.real.hex(), z.imag.hex())
    return ("value", z._a, z._b, z._d)


# an exponent long enough to pass the bound on an exact part
_LONG_EXPONENT = re.compile(r"[eE][+-]?[0-9]{4,}")


def _assert_same_reading(text):
    assert _outcome(parse_cfloat, text) == _outcome(_ref_parse_cfloat, text)
    new = _outcome(parse_gq, text)
    if new[0] == "error" and new[2].startswith("exact part out of range"):
        # refused before 10**exponent is taken; the reference would build it
        assert _LONG_EXPONENT.search(text.replace(" ", ""))
        return
    assert new == _outcome(_ref_parse_gq, text)


scalar_text = st.text(alphabet="0123456789.eE+-i/ ", max_size=12)


@given(scalar_text)
def test_read_path_matches_reference_on_scalar_alphabet(text):
    _assert_same_reading(text)


@given(st.lists(st.sampled_from(["", "0", "1", "-", "+", "i", ".", "/", "e", "E", "00", "5", "9"]), max_size=8))
def test_read_path_matches_reference_on_token_soup(pieces):
    _assert_same_reading("".join(pieces))


def _float_bits(n):
    return struct.unpack("<d", struct.pack("<Q", n))[0]


any_finite_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_float_bits).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0]),
)


@given(any_finite_float, any_finite_float)
def test_read_path_matches_reference_on_format_cfloat(re_part, im_part):
    z = complex(re_part, im_part)
    for text in (format_cfloat(z), repr(re_part), repr(im_part) + "i", f"{re_part!r}{im_part:+e}i"):
        assert _outcome(parse_cfloat, text) == _outcome(_ref_parse_cfloat, text)
    w = parse_cfloat(format_cfloat(z))
    # signed zeros read as +0.0, the rest bit for bit
    assert w.real.hex() == (re_part + 0.0).hex() and w.imag.hex() == (im_part + 0.0).hex()


@given(gq_pairs)
def test_read_path_matches_reference_on_format_gq(xp):
    text = format_gq(GQ(*xp))
    assert _outcome(parse_gq, text) == _outcome(_ref_parse_gq, text)


@pytest.mark.parametrize(
    "text",
    ["-0.0", "-0.0-0.0i", "-0", "-0i", "-1e-400", "-1e-400i", "1e400", "-1e400i",
     "1e308+1e308i", ".5i", "5.", "2e-3-0.25i", "1.e5", "2i+1", "1/2", "1/0",
     "i", "-i", "+i", "1+i", "1-i", "1/0i", "2-1/0i", "0/5+0/3i", " 3 ", "1 + 2i", "1_0", "inf", "nan", "nani",
     "0x10", "1+2", "i+i", "1e", "e5", "1e+i", "--1", "3/4i", "-3/4+1/2i", "1/-2",
     "1.5", "1e2", "1e-3", "2-1/3i", "\u0661", "1" * 4301, "1/" + "1" * 4301],
)
def test_read_path_matches_reference_on_edge_cases(text):
    _assert_same_reading(text)


def test_negative_zero_reads_as_positive_zero():
    for text in ("-0.0", "-0.0-0.0i", "-0e5-0.0i", "-1e-400-1e-400i"):
        z = parse_cfloat(text)
        assert z.real.hex() == "0x0.0p+0" and z.imag.hex() == "0x0.0p+0"


def test_float_rows_with_a_late_bad_token_read_quickly():
    # a row of integer tokens whose last token the common shape does not take:
    # the shape check must fail at once, not try every split of every digit run
    for last, expect in (("1/2", None), ("nan", "non-finite float"), ("10x", "bad float")):
        row = " ".join(["10"] * 39 + [last])
        text = "\n".join([
            "relpos-system 1", "field complex-float", "ambient 40",
            "subspace E1 dim 1", row,
        ]) + "\n"
        t0 = time.perf_counter()
        if expect is None:
            rows = dict(sysfile.parse(text).subspaces)["E1"]
            assert rows[0][-1] == 0.5 and rows[0][0] == 10
        else:
            with pytest.raises(ParseError, match=expect):
                sysfile.parse(text)
        assert time.perf_counter() - t0 < 0.5
    for text in ("1" * 5000 + "x", "1" * 5000 + "-" + "1" * 5000 + "x", "." + "1" * 5000 + "ii"):
        t0 = time.perf_counter()
        assert _outcome(parse_cfloat, text) == _outcome(_ref_parse_cfloat, text)
        assert _outcome(parse_gq, text) == _outcome(_ref_parse_gq, text)
        assert time.perf_counter() - t0 < 0.5


# -- the exponent bound on exact parts ---------------------------------------


def test_largest_exact_exponent_round_trips():
    top = MAX_EXACT_DIGITS - 1  # one mantissa digit
    for text in (f"1e{top}", f"1e-{top}", f"9e{top}i", f"-.1e-{top - 1}", f"1e{top}+1e-{top}i"):
        z = parse_gq(text)
        assert z == _ref_parse_gq(text)
        assert parse_gq(format_gq(z)) == z
    assert format_gq(parse_gq(f"1e{top}")) == "1" + "0" * top
    assert format_gq(parse_gq(f"1e-{top}")) == "1/1" + "0" * top
    # a decimal without exponent: all its digits count
    for text in ("1" * 2000 + "." + "1" * (MAX_EXACT_DIGITS - 2000), "." + "3" * MAX_EXACT_DIGITS):
        z = parse_gq(text)
        assert z == _ref_parse_gq(text)
        assert parse_gq(format_gq(z)) == z


@pytest.mark.parametrize(
    "text",
    [f"1e{MAX_EXACT_DIGITS}", f"10e{MAX_EXACT_DIGITS - 1}", f"1.5e-{MAX_EXACT_DIGITS - 1}",
     "1e99999999", "1e-99999999i", "2+1e4000000i", "1e" + "9" * 5000, "1e1_000_000",
     "1" * 3000 + "." + "1" * 3000, "." + "3" * MAX_EXACT_DIGITS + "1i"],
)
def test_exact_exponent_past_the_bound_is_refused(text):
    with pytest.raises(ParseError, match="exact part out of range"):
        parse_gq(text)


def test_malformed_mantissa_with_long_exponent_is_a_bad_rational():
    for text in ("1x2e99999999", "1/2e99999999", "..5e99999999"):
        with pytest.raises(ParseError, match="bad rational"):
            parse_gq(text)
