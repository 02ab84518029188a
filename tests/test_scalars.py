"""Exact scalar arithmetic and the shared text syntax."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relpos.errors import ParseError
from relpos.gaussian import GQ, format_cfloat, format_gq, parse_cfloat, parse_gq


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
