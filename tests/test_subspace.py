"""Subspace lattice: span, intersection, sum, orthocomplement, images."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpos.errors import DimensionMismatch, SingularMatrixError
from relpos.gaussian import GQ, I, ONE
from relpos.matrix import Matrix
from relpos.toeplitz import truncate_exotic
from relpos.subspace import (
    Subspace,
    annihilator,
    image_under,
    intersect,
    orthoprojection,
    principal_angles,
    sum_,
)


def sp(d, *rows):
    return Subspace.span_rows(d, [list(r) for r in rows])


def rand_subspace(rng, d, k=None):
    if k is None:
        k = rng.randint(0, d)
    rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
    return Subspace.span_rows(d, rows)


def test_span_collinear_columns():
    s = sp(2, (1, 0), (2, 0))
    assert s.dim == 1
    assert s == sp(2, (1, 0))


def test_span_empty_is_zero():
    assert Subspace.zero(3).dim == 0


def test_span_rank_oracle():
    s = sp(3, (1, 1, 1), (1, 2, 3))
    assert s.dim == 2


def test_intersect_transverse_lines():
    assert intersect(sp(2, (1, 0)), sp(2, (0, 1))).is_zero()


def test_intersect_example8_pair():
    e1 = sp(3, (1, 0, 0), (0, 1, 0))
    e3 = sp(3, (1, 0, 0), (0, 1, 1))
    got = intersect(e1, e3)
    assert got == sp(3, (1, 0, 0))


def test_intersect_idempotent():
    rng = random.Random(3)
    for _ in range(5):
        a = rand_subspace(rng, 4)
        assert intersect(a, a) == a


def test_sum_examples():
    assert sum_(sp(2, (1, 0)), sp(2, (0, 1))).is_full()
    rng = random.Random(5)
    a = rand_subspace(rng, 4)
    assert sum_(a, Subspace.zero(4)) == a
    # E3+E2 for the Example 8 data has dimension 3
    e3 = sp(3, (1, 0, 0), (0, 1, 1))
    e2 = sp(3, (0, 0, 1))
    assert sum_(e3, e2).dim == 3


def test_orthocomplement_examples():
    assert sp(3, (1, 0, 0), (0, 1, 0)).orthocomplement() == sp(3, (0, 0, 1))
    got = sp(2, (1, 1)).orthocomplement()
    assert got.dim == 1
    v = got.basis
    # inner-product check: (1,1) . v = 0 under the Hermitian product
    ip = v.entry(0, 0).conj() + v.entry(1, 0).conj()
    assert not ip
    assert Subspace.zero(3).orthocomplement().is_full()


def test_orthocomplement_with_complex_entries():
    s = Subspace.span_rows(2, [[ONE, I]])
    perp = s.orthocomplement()
    ip = s.basis.conj_transpose() @ perp.basis
    assert ip.is_zero()


def test_image_under():
    t = Matrix.from_rows([[1, 1], [0, 1]])
    assert image_under(t, sp(2, (0, 1))) == sp(2, (1, 1))
    assert image_under(Matrix.identity(2), sp(2, (1, 1))) == sp(2, (1, 1))
    p = Matrix.from_rows([[0, 1], [1, 0]])
    assert image_under(p, sp(2, (1, 0))) == sp(2, (0, 1))
    with pytest.raises(SingularMatrixError):
        image_under(Matrix.from_rows([[1, 0], [0, 0]]), sp(2, (1, 0)))


@pytest.mark.parametrize("seed", range(15))
def test_modular_law_and_de_morgan(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 5)
    a = rand_subspace(rng, d)
    b = rand_subspace(rng, d)
    assert intersect(a, b).dim + sum_(a, b).dim == a.dim + b.dim
    assert a.orthocomplement().orthocomplement() == a
    assert sum_(a, b).orthocomplement() == intersect(a.orthocomplement(), b.orthocomplement())
    assert intersect(a, b).orthocomplement() == sum_(a.orthocomplement(), b.orthocomplement())
    assert sum_(a, b) == sum_(b, a)
    assert intersect(a, b) == intersect(b, a)


def test_orthoprojection_is_idempotent_hermitian():
    rng = random.Random(9)
    a = rand_subspace(rng, 4, 2)
    p = orthoprojection(a)
    assert p @ p == p
    assert p.conj_transpose() == p
    assert image_under(Matrix.identity(4), a).basis.cols == a.dim
    assert (p @ a.basis) == a.basis


def test_float_subspace_equality_by_angles():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    s1 = Subspace.span(Matrix.from_array(b))
    s2 = Subspace.span(Matrix.from_array(b @ (rng.standard_normal((2, 2)) + np.eye(2) * 3)))
    assert s1 == s2
    s3 = Subspace.span(Matrix.from_array(rng.standard_normal((5, 2))))
    assert s1 != s3


def test_principal_angles_known():
    e = sp(2, (1, 0)).to_float()
    f = Subspace.span(Matrix.from_array(np.array([[np.cos(np.pi / 6)], [np.sin(np.pi / 6)]])))
    ang = principal_angles(e, f)
    assert abs(ang[0] - np.pi / 6) < 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        intersect(sp(2, (1, 0)), sp(3, (1, 0, 0)))


def rand_gq_subspace(rng, d, k):
    """Span of k random vectors with sparse Gaussian-rational entries."""
    rows = [
        [GQ(rng.randint(-3, 3), rng.randint(-2, 2)) / rng.choice((1, 2, 3))
         if rng.random() < 0.6 else GQ(0) for _ in range(d)]
        for _ in range(k)
    ]
    return Subspace.span_rows(d, rows)


def stacked_intersect(a, b):
    """The nullspace of [B_a | -B_b] mapped through B_a: the elimination
    that exact `intersect` replaced, kept as reference."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    ker = Matrix.hstack([a.basis, -b.basis]).nullspace()
    return Subspace(a.basis @ ker.take_rows(range(a.dim)))


def test_annihilator_is_the_nullspace_of_the_transposed_basis():
    rng = random.Random(41)
    cases = [Subspace.zero(4), Subspace.full(4), Subspace.zero(1), Subspace.full(1)]
    for _ in range(120):
        d = rng.randint(1, 7)
        cases.append(rand_gq_subspace(rng, d, rng.randint(0, d)))
    assert {a.dim for a in cases if a.ambient_dim == 5} == set(range(6))
    for a in cases:
        c = annihilator(a)
        assert c == a.basis.transpose().nullspace().transpose()
        assert c.shape == (a.ambient_dim - a.dim, a.ambient_dim)
        assert (c @ a.basis).is_zero()
    f = Subspace.span(Matrix.from_array(np.random.default_rng(3).standard_normal((5, 2))))
    assert np.allclose(annihilator(f).to_array() @ f.basis.to_array(), 0)


@pytest.mark.parametrize("seed", range(4))
def test_intersect_matches_the_stacked_nullspace(seed):
    rng = random.Random(seed)
    for _ in range(40):
        d = rng.randint(1, 6)
        a = rand_gq_subspace(rng, d, rng.randint(0, d))
        b = rand_gq_subspace(rng, d, rng.randint(0, d))
        if a.dim and rng.random() < 0.3:
            # a shared direction makes the intersection nonzero
            b = sum_(b, Subspace(a.basis.column(0)))
        for x, y in ((a, b), (b, a), (a, a)):
            assert intersect(x, y) == stacked_intersect(x, y)


@pytest.mark.parametrize("n", [8, 16])
def test_intersect_matches_the_stacked_nullspace_on_exotic_pairs(n):
    s = truncate_exotic(GQ(2), n)
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = s.subspaces[i], s.subspaces[j]
            assert intersect(a, b) == stacked_intersect(a, b)


def test_exact_contains_matches_solve():
    rng = random.Random(17)
    for _ in range(150):
        d = rng.randint(1, 6)
        a = rand_gq_subspace(rng, d, rng.randint(0, d))
        b = rand_gq_subspace(rng, d, rng.randint(0, d))
        for x, y in ((a, b), (sum_(a, b), b), (a, intersect(a, b))):
            want = y.dim == 0 or x.basis.solve(y.basis) is not None
            assert x.contains(y) is want
