"""Subspace lattice: span, intersection, sum, orthocomplement, images."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relpos.errors import DimensionMismatch, SingularMatrixError
from relpos.gaussian import GQ, I, ONE
from relpos.matrix import Matrix
from relpos.system import SubspaceSystem, direct_sum
from relpos.toeplitz import truncate_exotic
from relpos.subspace import (
    Subspace,
    _canonical_columns,
    _fix_phases,
    _is_canonical,
    _orthonormal_columns,
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


def rand_kernel_input(rng):
    """A seeded exact r x c matrix, r or c possibly 0: half the time a
    product through k <= min(r, c), so of rank at most k, else with every
    entry drawn.  About one entry in twenty is 1e4298."""
    def entry():
        if rng.random() < 0.05:
            return GQ(10**4298) * rng.choice((1, -1, I))
        if rng.random() < 0.3:
            return GQ(0)
        return GQ(rng.randint(-9, 9), rng.randint(-9, 9)) / rng.randint(1, 50)

    def draw(r, c):
        return Matrix.exact(r, c, [entry() for _ in range(r * c)])

    r, c = rng.randint(0, 6), rng.randint(0, 6)
    if rng.random() < 0.5:
        k = rng.randint(0, min(r, c))
        return draw(r, k) @ draw(k, c)
    return draw(r, c)


def test_kernel_is_the_canonical_basis_of_the_nullspace():
    rng = random.Random(71)
    shapes, ranks = set(), set()
    for _ in range(100):
        m = rand_kernel_input(rng)
        ker = Subspace.kernel(m)
        assert ker.basis == Subspace(m.nullspace()).basis
        assert ker.ambient_dim == m.cols
        shapes.add((m.rows == 0, m.cols == 0))
        ranks.add("full" if m.cols - ker.dim == min(m.shape) else "deficient")
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}
    assert ranks == {"full", "deficient"}
    # the float backend keeps the span of the SVD nullspace, bit for bit
    f = Matrix.from_array(np.random.default_rng(7).standard_normal((3, 6)))
    assert Subspace.kernel(f).basis == Subspace(f.nullspace()).basis


def test_orthocomplement_takes_one_nullspace_and_no_rref(monkeypatch):
    a = rand_gq_subspace(random.Random(5), 6, 3)
    calls = []
    for name in ("nullspace", "rref"):
        original = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name, lambda m, f=original, n=name: calls.append(n) or f(m))
    perp = a.orthocomplement()
    assert calls == ["nullspace"]
    assert perp.dim == 6 - a.dim and (a.basis.conj_transpose() @ perp.basis).is_zero()


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


# -- canonical bases that are already canonical -------------------------------


def _rref_columns(m):
    """The canonical basis by a full elimination, whatever the input."""
    r, pivots = m.transpose().rref()
    return r.take_rows(range(len(pivots))).transpose()


def _assert_canonical_path(m):
    want = _rref_columns(m)
    got = _canonical_columns(m)
    assert got == want
    assert (got._re, got._im, got._den) == (want._re, want._im, want._den)
    # the check answers whether the input is its own canonical basis
    assert _is_canonical(m) == (m == want)


@pytest.mark.parametrize("seed", range(40))
def test_canonical_columns_matches_rref_on_random_bases(seed):
    rng = random.Random(seed)
    d, k = rng.randint(0, 6), rng.randint(0, 6)
    ents = [GQ(rng.randint(-2, 2), rng.choice([0, 0, rng.randint(-2, 2)])) / rng.randint(1, 3)
            for _ in range(d * k)]
    m = Matrix.exact(d, k, ents)
    _assert_canonical_path(m)
    # its canonical basis, and that basis with a column or a row disturbed
    c = _rref_columns(m)
    _assert_canonical_path(c)
    if c.rows and c.cols:
        i, j = rng.randrange(c.rows), rng.randrange(c.cols)
        ents = list(c.entries())
        ents[i * c.cols + j] += rng.choice([ONE, I, GQ(1, 2)])
        _assert_canonical_path(Matrix.exact(c.rows, c.cols, ents))
        _assert_canonical_path(Matrix.hstack([c, c.column(j)]))


@pytest.mark.parametrize("n", [8, 16])
def test_canonical_columns_matches_rref_on_exotic_bases(n):
    s = truncate_exotic(GQ(1, 1), n)
    d = s.ambient_dim
    spans = [
        Matrix.vstack([Matrix.identity(d // 2), Matrix.zeros(d // 2, d // 2)]),
        Matrix.vstack([Matrix.zeros(d // 2, d // 2), Matrix.identity(d // 2)]),
        Matrix.vstack([Matrix.identity(d // 2), Matrix.identity(d // 2)]),
    ]
    for m in spans:
        assert _is_canonical(m)
        _assert_canonical_path(m)
    for sub in s.subspaces:
        _assert_canonical_path(sub.basis)


def test_canonical_columns_matches_rref_on_block_sums():
    rng = random.Random(11)
    for _ in range(10):
        a = SubspaceSystem(3, [rand_subspace(rng, 3) for _ in range(4)])
        b = SubspaceSystem(2, [rand_subspace(rng, 2) for _ in range(4)])
        for x, y in zip(a.subspaces, b.subspaces):
            blocks = Matrix.block_diag([x.basis, y.basis])
            assert _is_canonical(blocks)
            _assert_canonical_path(blocks)
        for sub in direct_sum(a, b).subspaces:
            _assert_canonical_path(sub.basis)


# -- the float basis phase fix against the per-column loop ---------------------


def _loop_fix_phases(basis):
    """_fix_phases one column at a time."""
    for j in range(basis.shape[1]):
        col = basis[:, j]
        k = int(np.argmax(np.abs(col) > 0.5 / np.sqrt(len(col))))
        ph = col[k] / abs(col[k]) if col[k] != 0 else 1.0
        basis[:, j] = col / ph


def _loop_orthonormal_columns(m):
    """_orthonormal_columns with the phases fixed one column at a time."""
    a = m.to_array()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > m.tol * max(1.0, s[0] if s.size else 0.0)))
    basis = u[:, :r]
    _loop_fix_phases(basis)
    return basis


@pytest.mark.parametrize("seed", range(60))
def test_phase_fix_is_bitwise_the_column_loop(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 41))
    k = int(rng.integers(1, 41))
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    if seed % 3 == 0:
        a = np.round(a)  # small integers: ties and exact zeros
    if seed % 4 == 1:
        a[:, : k // 2] = a[:, k // 2 :][:, : k // 2]  # rank below k
    if seed % 5 == 2:
        a = np.vstack([np.zeros((2, k)), a])  # zero rows on top
    m = Matrix.from_array(a)
    got = _orthonormal_columns(m).to_array()
    want = _loop_orthonormal_columns(m)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_phase_fix_on_columns_with_zero_pivots(seed):
    # not what an SVD returns, but every branch: zero columns, columns with
    # no entry above the threshold (the first entry, 0 or not, leads), and
    # columns led by a later entry
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 41))
    k = int(rng.integers(1, 41))
    u = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    u[:, rng.random(k) < 0.3] *= 0.1 / np.sqrt(d)
    u[0, rng.random(k) < 0.5] = 0
    u[:, rng.random(k) < 0.2] = 0
    got, want = u.copy(), u.copy()
    _fix_phases(got[:, :k])
    _loop_fix_phases(want[:, :k])
    assert got.tobytes() == want.tobytes()
