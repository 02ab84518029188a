"""Exact and float matrices: rref, nullspace, solve, minimal polynomial, and
the exact representation (integers over one normalised denominator)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from relpos import kernel
from relpos.decompose import commutant_basis
from relpos.errors import ExactOnlyError, SingularMatrixError
from relpos.gaussian import GQ, I, ONE, ZERO
from relpos.matrix import EXACT, Matrix
from relpos.poly import Polynomial
from relpos.subspace import Subspace
from relpos.system import SubspaceSystem, hom_space
from test_kernel import fraction_rref
from test_modular import force_lift


def rand_exact(rng, rows, cols, span=3):
    return Matrix.exact(
        rows, cols,
        [GQ(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(rows * cols)],
    )


def test_rref_identity():
    m = Matrix.identity(3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one_symmetric():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    r, pivots = m.rref()
    assert r == Matrix.from_rows([[1, 1], [0, 0]])
    assert pivots == (0,)


def test_rref_gaussian_entries():
    # [[0,1],[1,i]] row reduces to the identity (hand elimination oracle:
    # swap rows, then subtract i times the first row from the second).
    m = Matrix.from_rows([[ZERO, ONE], [ONE, I]])
    r, pivots = m.rref()
    assert r == Matrix.identity(2)
    assert pivots == (0, 1)


@pytest.mark.parametrize("seed", range(20))
def test_rref_idempotent_and_rank_nullity(seed):
    rng = random.Random(seed)
    m = rand_exact(rng, rng.randint(1, 6), rng.randint(1, 6))
    r, pivots = m.rref()
    r2, pivots2 = r.rref()
    assert r2 == r and pivots2 == pivots
    ns = m.nullspace()
    assert len(pivots) + ns.cols == m.cols
    if ns.cols:
        assert (m @ ns).is_zero()


def test_nullspace_rank_nullity_examples():
    m = Matrix.from_rows([[1, 1, 1]])
    assert m.nullspace().cols == 2
    assert Matrix.identity(4).nullspace().cols == 0
    ns = Matrix.from_rows([[ONE, I]]).nullspace()
    assert ns.cols == 1
    assert (Matrix.from_rows([[ONE, I]]) @ ns).is_zero()
    # the kernel vector is proportional to (-i, 1)
    v0, v1 = ns.entry(0, 0), ns.entry(1, 0)
    assert v0 * ONE == -I * v1


def test_solve_and_inverse():
    a = Matrix.from_rows([[1, 2], [3, 5]])
    inv = a.inverse()
    assert (a @ inv).is_identity()
    b = Matrix.from_rows([[1], [1]])
    x = a.solve(b)
    assert a @ x == b
    singular = Matrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    assert singular.solve(Matrix.from_rows([[1], [0]])) is None


def test_minimal_polynomial_zero_matrix():
    p = Matrix.zeros(3, 3).minimal_polynomial()
    assert p == Polynomial([0, 1])


def test_minimal_polynomial_nilpotent_order():
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert j2.minimal_polynomial() == Polynomial([0, 0, 1])


def test_minimal_polynomial_diag():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    p = m.minimal_polynomial()
    assert p == Polynomial([2, -3, 1])  # (z-1)(z-2)
    assert p.eval_matrix(m).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_minimal_polynomial_annihilates(seed):
    rng = random.Random(100 + seed)
    m = rand_exact(rng, 4, 4, span=2)
    p = m.minimal_polynomial()
    assert p.eval_matrix(m).is_zero()
    assert p.degree <= 4


def krylov_minimal_polynomial(m):
    """Reference: the first k with T^k in span{I, ..., T^(k-1)}, by one
    n^2 x k solve per k over the vectorised powers."""
    n = m.rows
    powers = [Matrix.identity(n)]
    while True:
        if n == 0:
            return Polynomial([ONE])
        sol = Matrix.hstack([p.vec() for p in powers]).solve((powers[-1] @ m).vec())
        if sol is not None:
            return Polynomial([-sol.entry(i, 0) for i in range(len(powers))] + [ONE])
        powers.append(powers[-1] @ m)


def conjugated(rng, j):
    w = rand_exact(rng, j.rows, j.cols, span=2)
    while not w.is_invertible():
        w = rand_exact(rng, j.rows, j.cols, span=2)
    return w @ j @ w.inverse()


def jordan(k, lam):
    return Matrix.exact(k, k, [lam if i == c else ONE if c == i + 1 else ZERO
                               for i in range(k) for c in range(k)])


def minimal_polynomial_cases():
    rng = random.Random(2024)
    half, lam = GQ(Fraction(1, 2), Fraction(-1, 3)), GQ(2, -1)
    cases = [rand_exact(rng, n, n) for n in range(9)]
    cases += [Matrix.zeros(n, n) for n in (1, 4)]
    cases += [Matrix.identity(3).scale(half), jordan(5, ZERO)]
    cases += [Matrix.block_diag([Matrix.identity(1).scale(lam), jordan(2, lam)])]
    cases += [
        conjugated(rng, Matrix.block_diag([jordan(k, z) for k, z in blocks]))
        for blocks in (
            [(3, ONE)], [(2, ONE), (1, ONE)], [(2, I), (2, I), (1, -ONE)],
            [(4, half)], [(1, ZERO), (1, ZERO), (2, ZERO)], [(3, lam), (3, half)],
        )
    ]
    # e_0 spans the first block only, so later unit vectors go through p(T) e_j
    cases += [
        Matrix.block_diag([jordan(1, I), rand_exact(rng, 3, 3)]),
        Matrix.block_diag([conjugated(rng, jordan(2, half)), conjugated(rng, jordan(3, lam))]),
    ]
    # Gaussian-rational entries with denominators
    cases += [
        Matrix.exact(n, n, [GQ(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                               Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                            for _ in range(n * n)])
        for n in (2, 3, 5, 6)
    ]
    # n >= modular.MIN_SIDE: the Krylov steps of the random blocks take the lift
    cases += [
        rand_exact(rng, 16, 16), Matrix.zeros(16, 16),
        conjugated(rng, Matrix.block_diag([jordan(6, ONE), jordan(5, lam), jordan(5, ONE)])),
        Matrix.block_diag([jordan(1, half), rand_exact(rng, 17, 17, span=2)]),
    ]
    return cases


@pytest.mark.parametrize("m", minimal_polynomial_cases())
def test_minimal_polynomial_matches_the_power_krylov_reference(m):
    p = m.minimal_polynomial()
    assert p.coeffs == krylov_minimal_polynomial(m).coeffs
    assert p.leading() == ONE
    assert p.eval_matrix(m).is_zero()


def test_float_rref_and_rank():
    # float rank is the SVD's; elimination, Kronecker products, Hom spaces
    # and commutants are exact only
    m = Matrix.from_array(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
    assert m.rank() == 1
    s = SubspaceSystem(2, [Subspace.span(m)])
    for call in (m.rref, lambda: m.kron(m), lambda: hom_space(s, s), lambda: commutant_basis(m)):
        with pytest.raises(ExactOnlyError):
            call()


def test_float_nullspace():
    m = Matrix.from_array(np.array([[1.0, 2.0, 3.0]]))
    ns = m.nullspace()
    assert ns.cols == 2
    assert np.allclose(m.to_array() @ ns.to_array(), 0)


def test_minimal_polynomial_rejects_float():
    with pytest.raises(ExactOnlyError):
        Matrix.from_array(np.eye(2)).minimal_polynomial()


def test_vec_unvec_roundtrip():
    rng = random.Random(7)
    m = rand_exact(rng, 3, 4)
    v = m.vec()
    assert Matrix.unvec(v, 3, 4) == m


def test_kron_vec_identity():
    # vec(C @ A @ B) == (B^T kron C) @ vec(A)
    rng = random.Random(11)
    c = rand_exact(rng, 2, 3)
    a = rand_exact(rng, 3, 2)
    b = rand_exact(rng, 2, 2)
    lhs = (c @ a @ b).vec()
    rhs = b.transpose().kron(c) @ a.vec()
    assert lhs == rhs


# -- the exact representation: integers over one normalised denominator --------


def test_equal_values_from_different_denominators_are_equal():
    a = Matrix.from_rows([[Fraction(1, 2), GQ(0, Fraction(2, 4))]])
    b = Matrix.from_rows([[Fraction(2, 4), GQ(0, Fraction(1, 2))]])
    assert a == b and hash(a) == hash(b)
    # 1/3 + 1/6 meets over the denominator 6 and reduces to 1/2
    c = Matrix.from_rows([[Fraction(1, 3), I]]) + Matrix.from_rows([[Fraction(1, 6), ZERO]])
    d = Matrix.from_rows([[Fraction(1, 2), I]])
    assert c == d and hash(c) == hash(d)
    # a negative or non-reduced denominator is normalised away
    e = Matrix._ints(1, 2, [-4, 0], [0, -4], -8)
    assert e == a and hash(e) == hash(a)


def test_scale_round_trip_is_equal_and_hash_equal():
    rng = random.Random(3)
    m = Matrix.exact(3, 3, [mixed_entry(rng) for _ in range(9)])
    back = m.scale(2).scale(Fraction(1, 2))
    assert back == m and hash(back) == hash(m)
    assert m.scale(0) == Matrix.zeros(3, 3)


def test_entry_and_entries_round_trip():
    rng = random.Random(4)
    ents = [mixed_entry(rng) for _ in range(12)] + [ZERO, GQ(3), GQ(0, -1)]
    m = Matrix.exact(3, 5, ents)
    assert m.entries() == tuple(ents)
    assert [m.entry(i, j) for i in range(3) for j in range(5)] == ents
    assert m.take_columns([0, 1, 2]).trace() == ents[0] + ents[6] + ents[12]


@pytest.mark.parametrize("seed", range(6))
def test_permuted_storage_is_normalised(seed):
    # transpose, conj_transpose, reshape, vec, unvec and negation keep the
    # storage as is (no gcd): it must equal that of the matrix rebuilt from
    # its entries
    rng = random.Random(70 + seed)
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    m = Matrix.exact(rows, cols, [mixed_entry(rng) for _ in range(rows * cols)])
    assert m._den > 1
    for out in (
        m.transpose(),
        m.conj_transpose(),
        m.reshape(cols, rows),
        m.vec(),
        Matrix.unvec(m.vec(), rows, cols),
        Matrix.unvec(m.reshape(rows * cols, 1), cols, rows),
        -m,
    ):
        rebuilt = Matrix.exact(out.rows, out.cols, out.entries())
        assert (out._den, out._re, out._im) == (rebuilt._den, rebuilt._re, rebuilt._im)
        assert hash(out) == hash(rebuilt)
    assert m.transpose().entries() == tuple(
        m.entry(i, j) for j in range(cols) for i in range(rows)
    )
    assert m.conj_transpose() == Matrix.exact(
        cols, rows, [m.entry(i, j).conj() for j in range(cols) for i in range(rows)]
    )
    assert -m == m.scale(-1)
    assert (-m).entries() == tuple(-z for z in m.entries())


def mixed_entry(rng):
    """A Q(i) scalar whose two parts have unrelated small denominators."""
    return GQ(
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
    )


def mixed_matrix(rng, rows, cols, rank=None):
    """rows x cols with mixed denominators; of the given rank when set."""
    if rank is None:
        return Matrix.exact(rows, cols, [mixed_entry(rng) for _ in range(rows * cols)])
    return mixed_matrix(rng, rows, rank) @ mixed_matrix(rng, rank, cols)


def grid(m):
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def oracle_nullspace(rows, ncols):
    reduced, pivots = fraction_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[ZERO] * len(free) for _ in range(ncols)]
    for jf, f in enumerate(free):
        basis[f][jf] = ONE
        for r, c in enumerate(pivots):
            basis[c][jf] = -reduced[r][f]
    return basis


def oracle_solve(a, b):
    aug = [ra + rb for ra, rb in zip(a, b)]
    ncols = len(a[0])
    reduced, pivots = fraction_rref(aug, ncols + len(b[0]))
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[ZERO] * len(b[0]) for _ in range(ncols)]
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols:]
    return x


# (rows, cols, rank): square, tall and wide, full and deficient rank, and
# past the shape gate (modular.MIN_SIDE) on both sides, where rref, nullspace,
# solve and inverse take the multimodular lift, since the test raises the
# price of fraction-free elimination (test_modular.force_lift).
ORACLE_SHAPES = [
    (3, 3, None), (4, 4, 2), (5, 3, None), (3, 6, None), (5, 5, 3), (4, 12, None), (6, 12, 3),
    (16, 20, None), (18, 24, 10), (16, 16, None),
]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_elimination_matches_fraction_oracle(shape, monkeypatch):
    force_lift(monkeypatch)
    rows, cols, rank = shape
    rng = random.Random(rows * 100 + cols * 10 + (rank or 0))
    m = mixed_matrix(rng, rows, cols, rank)
    want, want_pivots = fraction_rref(grid(m), cols)
    r, pivots = m.rref()
    assert list(pivots) == want_pivots
    assert grid(r) == want
    assert grid(m.nullspace()) == oracle_nullspace(grid(m), cols)
    b = mixed_matrix(rng, rows, 2)
    x = m.solve(b)
    want_x = oracle_solve(grid(m), grid(b))
    assert (x is None) == (want_x is None)
    if x is not None:
        assert grid(x) == want_x
    consistent = m @ mixed_matrix(rng, cols, 2)
    assert grid(m.solve(consistent)) == oracle_solve(grid(m), grid(consistent))
    if rows == cols:
        want_inv = oracle_solve(grid(m), grid(Matrix.identity(rows)))
        if want_inv is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert grid(m.inverse()) == want_inv


@pytest.mark.parametrize("seed", range(4))
def test_products_match_fraction_oracle(seed):
    rng = random.Random(50 + seed)
    a = mixed_matrix(rng, 2, 3)
    b = mixed_matrix(rng, 3, 2)
    ga, gb = grid(a), grid(b)
    want = [[sum((ga[i][t] * gb[t][j] for t in range(3)), ZERO) for j in range(2)]
            for i in range(2)]
    assert grid(a @ b) == want
    k = a.kron(b)
    assert k.shape == (6, 6)
    for i in range(2):
        for j in range(3):
            for p in range(3):
                for q in range(2):
                    assert k.entry(i * 3 + p, j * 2 + q) == ga[i][j] * gb[p][q]


def test_inverse_result_is_known_invertible(monkeypatch):
    rng = random.Random(14)
    m = mixed_matrix(rng, 4, 4)
    inv = m.inverse()

    def refuse(*args):
        raise AssertionError("is_invertible eliminated again")

    monkeypatch.setattr(kernel, "ffgj", refuse)
    assert inv.is_invertible() and m.is_invertible()
    assert inv.rank() == 4


def test_to_array_rounds_each_entry_once():
    """Bit-identical to the per-entry division, also with numerators and
    denominators past 2^53, where a float64 cast would round twice."""
    rng = random.Random(23)
    for bits, den in ((4, 1), (4, 7), (60, 3), (200, 2**60 + 3), (70, 2**55 + 1)):
        for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 5)):
            m = Matrix.exact(rows, cols, [
                GQ(Fraction(rng.randint(-2**bits, 2**bits), den),
                   Fraction(rng.randint(-2**bits, 2**bits), den))
                for _ in range(rows * cols)
            ])
            want = np.array([
                [complex(z.re.numerator / z.re.denominator, z.im.numerator / z.im.denominator)
                 for z in (m.entry(i, j) for j in range(cols))]
                for i in range(rows)
            ], dtype=complex).reshape(rows, cols)
            got = m.to_array()
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # 2^53 + 1 is not a double: a cast first would round it to 2^53
    assert Matrix.exact(1, 1, [GQ(Fraction(2**54 + 3, 2))]).to_array()[0, 0] == 2**53 + 2


@pytest.mark.parametrize("seed", range(20))
def test_take_rows_matches_take_columns_of_the_transpose(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 6), rng.randint(0, 5)
    # mixed denominators, so a selection can have a smaller common one
    ents = [GQ(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6])), rng.choice([0, Fraction(1, rng.randint(1, 5))]))
            for _ in range(rows * cols)]
    m = Matrix.exact(rows, cols, ents)
    picks = [[], list(range(rows)), list(range(rows))[::-1]]
    if rows:
        picks += [[rng.randrange(rows)] * 3, [rng.randrange(rows) for _ in range(rng.randint(1, 8))]]
    for idx in picks:
        got = m.take_rows(idx)
        want = m.transpose().take_columns(idx).transpose()
        assert got.shape == (len(idx), cols)
        assert (got._re, got._im, got._den) == (want._re, want._im, want._den)
        assert got == Matrix.exact(len(idx), cols, [m.entry(i, j) for i in idx for j in range(cols)])


def test_take_rows_out_of_range():
    m = Matrix.exact(2, 2, [ONE, ZERO, ZERO, ONE])
    with pytest.raises(IndexError):
        m.take_rows([2])
    assert m.take_rows([-2]) == m.take_rows([0])


def test_take_columns_reads_negative_indices_as_take_rows_does():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.take_columns([-1]) == Matrix.from_rows([[2], [4]])
    assert m.take_columns([-2, 1]) == m.take_columns([0, 1]) == m
    assert m.take_columns([-1]) == m.transpose().take_rows([-1]).transpose()
    with pytest.raises(IndexError):
        m.take_columns([2])
    with pytest.raises(IndexError):
        m.take_columns([-3])
