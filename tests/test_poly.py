"""Polynomial arithmetic and certified factoring over Q(i)."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relpos.errors import DegreeBoundExceeded
from relpos.gaussian import GQ, I, ONE, parse_gq
from relpos.poly import (
    Polynomial,
    _gaussian_integer_parts,
    _gerschgorin_counts,
    _schur_cohn_counts,
    coprime_split,
    disk_zero_counts,
    factor_over_gaussian_rationals,
    fraction_sqrt,
    gq_sqrt,
)


def poly_from_roots(roots):
    p = Polynomial([ONE])
    for r in roots:
        p = p * Polynomial([-r, ONE])
    return p


def test_divmod_and_gcd():
    p = poly_from_roots([GQ(1), GQ(2), GQ(3)])
    q = poly_from_roots([GQ(2), GQ(5)])
    g = p.gcd(q)
    assert g == Polynomial([-2, 1])
    quo, rem = p.divmod(Polynomial([-2, 1]))
    assert rem.is_zero()
    assert quo == poly_from_roots([GQ(1), GQ(3)])


def test_xgcd_bezout():
    p = poly_from_roots([GQ(1), GQ(1), GQ(2)])
    f = Polynomial([-1, 1]) * Polynomial([-1, 1])
    g = Polynomial([-2, 1])
    gg, u, v = f.xgcd(g)
    assert gg == Polynomial([ONE])
    assert (u * f + v * g) == Polynomial([ONE])


def test_factor_z2_minus_1():
    rep = factor_over_gaussian_rationals(Polynomial([-1, 0, 1]))
    assert rep.remainder is None
    roots = sorted(str(r) for r, _ in rep.certified_roots())
    assert roots == ["-1", "1"]
    assert rep.product() == Polynomial([-1, 0, 1])


def test_factor_z2_plus_1_splits_over_qi():
    rep = factor_over_gaussian_rationals(Polynomial([1, 0, 1]))
    assert rep.remainder is None
    roots = {r for r, _ in rep.certified_roots()}
    assert roots == {I, -I}


def test_factor_z2_minus_2_is_uncertified_remainder():
    p = Polynomial([-2, 0, 1])
    rep = factor_over_gaussian_rationals(p)
    assert not rep.certified_roots()
    # the quadratic is certified irreducible over Q(i) via the discriminant
    assert rep.remainder is None or rep.remainder == p.monic()
    assert rep.product() == p
    # either way it must not be silently split
    assert all(f.degree != 1 for f, _ in rep.factors)


def test_degree_bound():
    p = Polynomial([1] + [0] * 30 + [1])
    with pytest.raises(DegreeBoundExceeded):
        factor_over_gaussian_rationals(p)


def test_degree_bound_applies_after_small_roots_are_taken_out():
    # x^25 (x - 1) has two linear square-free parts
    rep = factor_over_gaussian_rationals(Polynomial([0] * 25 + [1]) * Polynomial([-1, 1]))
    assert rep.remainder is None
    assert rep.factors == [(Polynomial([-1, 1]), 1), (Polynomial([0, 1]), 25)]
    # six small roots leave x^20 - 3, within the bound, for the numeric stages
    p = poly_from_roots([GQ(r) for r in range(1, 7)]) * Polynomial([-3] + [0] * 19 + [1])
    assert p.degree > 24
    rep = factor_over_gaussian_rationals(p)
    assert rep.factors == [(Polynomial([-r, 1]), 1) for r in range(1, 7)]
    assert rep.remainder == Polynomial([-3] + [0] * 19 + [1])
    assert rep.product() == p


@pytest.mark.parametrize("seed", range(12))
def test_refactor_product_identity(seed):
    rng = random.Random(seed)
    roots = [
        GQ(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 5))
    ]
    mult = [rng.randint(1, 2) for _ in roots]
    p = Polynomial([ONE])
    for r, m in zip(roots, mult):
        for _ in range(m):
            p = p * Polynomial([-r, ONE])
    p = p * GQ(rng.randint(1, 5))
    rep = factor_over_gaussian_rationals(p)
    assert rep.product() == p
    assert rep.remainder is None
    got = {}
    for r, m in rep.certified_roots():
        got[(r.re, r.im)] = m
    want = {}
    for r, m in zip(roots, mult):
        want[(r.re, r.im)] = want.get((r.re, r.im), 0) + m
    assert got == want


def test_coprime_split():
    p = poly_from_roots([GQ(0), GQ(0), GQ(1)])
    split = coprime_split(p)
    assert split is not None
    f, g = split
    assert (f * g).monic() == p.monic()
    assert f.gcd(g).degree == 0


def test_coprime_split_none_for_power():
    p = poly_from_roots([GQ(2), GQ(2), GQ(2)])
    assert coprime_split(p) is None


def test_coprime_split_against_uncertified_remainder():
    # z^2 (z^2 - 2): the z^2-2 part stays unsplit but separates from z^2
    p = Polynomial([0, 0, 1]) * Polynomial([-2, 0, 1])
    split = coprime_split(p)
    assert split is not None
    f, g = split
    assert (f * g) == p.monic()


def test_gq_sqrt():
    assert gq_sqrt(GQ(4)) == GQ(2) or gq_sqrt(GQ(4)) == GQ(-2)
    assert gq_sqrt(GQ(0, 2)) is not None  # 2i = (1+i)^2
    assert gq_sqrt(GQ(2)) is None
    assert gq_sqrt(GQ(-1)) in (I, -I)
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None


def test_squarefree_decomposition():
    p = poly_from_roots([GQ(1), GQ(1), GQ(2)])
    sf = p.squarefree_decomposition()
    assert (Polynomial([-2, 1]), 1) in sf
    assert (Polynomial([-1, 1]), 2) in sf


GAUSSIAN_RATIONALS = st.builds(
    lambda a, b, d: GQ(Fraction(a, d), Fraction(b, d)),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4),
)


def schur_cohn(p):
    """The exact recursion alone, without the float certificate."""
    return _schur_cohn_counts(*_gaussian_integer_parts(p), None)


def certificate(p):
    """The float certificate, and the recursion where it settles nothing."""
    parts = _gaussian_integer_parts(p)
    counts = _gerschgorin_counts(*parts)
    return counts if counts is not None else _schur_cohn_counts(*parts, None)


# every count is checked through disk_zero_counts (the cheaper method first,
# which on these small polynomials is mostly the recursion), through the
# float certificate first and through the recursion alone
COUNTS = pytest.mark.parametrize(
    "count", [disk_zero_counts, certificate, schur_cohn], ids=["disk", "certificate", "recursion"]
)


@COUNTS
@settings(max_examples=200, deadline=None)
@given(st.lists(GAUSSIAN_RATIONALS, min_size=2, max_size=14))
def test_disk_zero_counts_match_numpy_roots(count, coeffs):
    p = Polynomial(coeffs)
    assume(p.degree >= 1)
    roots = np.roots(p.to_complex_coeffs()[::-1])
    assume(np.min(np.abs(np.abs(roots) - 1.0)) >= 1e-3)
    assert count(p) == (int(np.sum(np.abs(roots) < 1.0)), 0)


@COUNTS
def test_disk_zero_counts_random_high_degree(count):
    rng = random.Random(11)
    for degree in (40, 64):
        p = Polynomial([GQ(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(degree)] + [ONE])
        # and with |a_0| = |a_n|, a singular first step
        for q in (p, p + Polynomial([I - p.coeffs[0]])):
            roots = np.roots(q.to_complex_coeffs()[::-1])
            assert np.min(np.abs(np.abs(roots) - 1.0)) >= 1e-6
            assert count(q) == (int(np.sum(np.abs(roots) < 1.0)), 0)


CIRCLE = [GQ(1), GQ(-1), I, -I, GQ(Fraction(3, 5), Fraction(4, 5)), GQ(Fraction(-5, 13), Fraction(12, 13))]


@pytest.mark.parametrize(
    "roots,counts",
    [
        # on the circle, with multiplicity
        ([GQ(1), GQ(1), GQ(-1), I], (0, 4)),
        (CIRCLE, (0, 6)),
        ([CIRCLE[4], CIRCLE[4].conj(), GQ(2), GQ(Fraction(1, 3))], (1, 2)),
        # pairs lambda, 1/conj(lambda): a self-inversive product
        ([GQ(Fraction(1, 2), Fraction(1, 3)), ONE / GQ(Fraction(1, 2), Fraction(-1, 3))], (1, 0)),
        ([GQ(0, Fraction(1, 2)), GQ(0, 2), GQ(0, Fraction(1, 2)), GQ(0, 2), GQ(1)], (2, 1)),
        ([GQ(Fraction(2, 3)), GQ(Fraction(3, 2)), GQ(3), GQ(Fraction(-1, 4), 1)], (1, 0)),
        # zeros at 0 and at -1 (the Cayley image loses a degree per zero at -1)
        ([GQ(0), GQ(0), GQ(-1), GQ(Fraction(1, 2))], (3, 1)),
        ([GQ(-1), GQ(-1), GQ(-1), GQ(0), GQ(5)], (1, 3)),
        ([GQ(0)] * 5, (5, 0)),
        # the singular step: |a_0| = |a_n| while T p does not vanish, so the
        # count goes on with (2z - 1) p
        ([GQ(2), GQ(0, Fraction(1, 2))], (1, 0)),
        ([GQ(2), GQ(0, Fraction(1, 2)), GQ(Fraction(1, 3)), GQ(-3)], (2, 0)),
        ([GQ(2), GQ(0, Fraction(1, 2)), GQ(1), I], (1, 2)),
        # no zeros at all
        ([], (0, 0)),
    ],
)
@COUNTS
def test_disk_zero_counts_constructed(count, roots, counts):
    p = poly_from_roots(roots)
    for scale in (ONE, GQ(Fraction(-3, 7), 2)):
        assert count(p * scale) == counts


@pytest.mark.parametrize(
    "coeffs",
    [
        # singular again after the factor 2z - 1: counted on the Cayley image
        ["-2i", "2-i", "-2"],
        ["2i", "1-i", "2", "1+2i", "2i", "1+i", "-2i"],
        # a transform loses more than one degree, so the next division by the
        # constant two steps back is not exact and the content is divided out
        ["i", "i", "i", "2", "-2", "-2"],
        ["-1-2i", "1+2i", "-1+i", "2+2i", "-2-2i"],
        ["0", "-1", "-i", "-1-i", "-1-2i", "-1-2i", "-2-i", "1-2i"],
    ],
)
@COUNTS
def test_disk_zero_counts_irregular_chains(count, coeffs):
    p = Polynomial([parse_gq(c) for c in coeffs])
    roots = np.roots(p.to_complex_coeffs()[::-1])
    assert np.min(np.abs(np.abs(roots) - 1.0)) >= 1e-2
    assert count(p) == (int(np.sum(np.abs(roots) < 1.0)), 0)


def test_float_certificate_checks_rational_circle_zeros_exactly():
    # a cluster of float zeros meeting the circle counts as circle zeros only
    # when a Gaussian rational on the circle is an exact zero of the cluster's
    # multiplicity; the irrational ones of z^2 - z + 1 (exp(+-i pi / 3)) are
    # left to the recursion
    w = GQ(Fraction(3, 5), Fraction(4, 5))
    p = poly_from_roots([w, w, w, GQ(2), GQ(Fraction(1, 2), Fraction(1, 3)), GQ(-1)])
    assert _gerschgorin_counts(*_gaussian_integer_parts(p)) == (1, 4)
    q = Polynomial([ONE, -ONE, ONE]) * poly_from_roots([GQ(Fraction(1, 2))])
    assert _gerschgorin_counts(*_gaussian_integer_parts(q)) is None
    assert disk_zero_counts(q) == (1, 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(CIRCLE), st.integers(-4, 4), st.integers(2, 12)),
    min_size=1, max_size=10,
))
def test_float_certificate_agrees_with_the_recursion_near_the_circle(zeros):
    # zeros (1 + k 10^-e) w with w on the circle: on it, or inside or outside
    # it by as little as 10^-12; where the certificate settles, its counts
    # are the constructed ones, as the recursion's always are
    roots = [w * GQ(1 + Fraction(k, 10**e)) for w, k, e in zeros]
    want = (sum(1 for r in roots if r.norm2() < 1), sum(1 for r in roots if r.norm2() == 1))
    re, im = _gaussian_integer_parts(poly_from_roots(roots))
    assert _schur_cohn_counts(re, im, None) == want
    assert _gerschgorin_counts(re, im) in (None, want)


def test_disk_zero_counts_stop_at_the_bit_bound():
    # irrational circle zeros leave the count to the recursion, whose
    # integers would pass MAX_EXACT_COUNT_BITS here (degree 3 times about
    # 5,000 bits)
    q = Polynomial([ONE, -ONE, ONE]) * poly_from_roots([GQ(Fraction(10**1500 + 1, 10**1500))])
    assert disk_zero_counts(q) is None
    assert _schur_cohn_counts(*_gaussian_integer_parts(q), None) == (0, 2)


def test_disk_zero_counts_rejects_the_zero_polynomial():
    with pytest.raises(ValueError):
        disk_zero_counts(Polynomial.zero())
