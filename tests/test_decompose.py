"""Indecomposability, decomposition witnesses, isomorphism, transitivity,
strong irreducibility, Jordan oracle."""

import random
from fractions import Fraction

import pytest

from relpos.catalog import (
    build_example,
    build_gp3,
    build_gp4,
    jordan_block,
    operator_system,
    single_operator_system,
)
from relpos import decompose as dec, poly
from relpos.decompose import (
    EndAlgebra,
    _operator_end_basis,
    are_isomorphic,
    commutant_basis,
    decompose,
    end_algebra,
    find_nontrivial_idempotent,
    is_transitive,
    jordan_oracle,
    strongly_irreducible,
    verify_decomposition,
)
from relpos.errors import InvariantViolation, UncertifiedError
from relpos.gaussian import GQ
from relpos.matrix import Matrix
from relpos.poly import DEFAULT_DEGREE_BOUND, Polynomial
from relpos.sampling import random_invertible, random_system
from relpos.subspace import Subspace
from relpos.system import MAX_HOM_UNKNOWNS, SubspaceSystem, hom_dim, hom_space, is_bounded_operator_system


def line_system(*patterns):
    return SubspaceSystem(
        1, [Subspace.span_rows(1, [[1]] if p else []) for p in patterns]
    )


def sysrows(d, *groups):
    return SubspaceSystem(d, [Subspace.span_rows(d, list(g)) for g in groups])


def test_idempotent_found_for_example4():
    s = build_example(4)
    res = find_nontrivial_idempotent(end_algebra(s), seed=1)
    assert res.status == "found"
    e = res.idempotent
    assert e @ e == e
    for sub in s.subspaces:
        if sub.dim:
            assert sub.contains(Subspace.span(e @ sub.basis))


def test_idempotent_absent_for_s9():
    res = find_nontrivial_idempotent(end_algebra(build_gp3(9)), seed=1)
    assert res.status == "local"
    assert res.semisimple_dim == 1


def test_idempotent_absent_for_example7():
    res = find_nontrivial_idempotent(end_algebra(build_example(7)), seed=1)
    assert res.status == "local"


def test_decompose_example2_two_lines():
    # two lines at an exact rational angle parameter in C^2
    s = sysrows(2, [[1, 0]], [[1, Fraction(1, 2)]])
    tree = decompose(s, seed=3)
    assert len(tree.components) == 2
    assert verify_decomposition(s, tree)
    pats = sorted(c.dims() for c in tree.components)
    assert pats == [(0, 1), (1, 0)]


def test_decompose_example6():
    s = build_example(6)
    tree = decompose(s, seed=3)
    assert sorted(c.ambient_dim for c in tree.components) == [1, 2]
    assert verify_decomposition(s, tree)


def test_decompose_catalog_entries_are_leaves():
    for sysgen in (build_gp3(9), build_example(7), build_example(8),
                   build_gp4("S3(2k,-1)", 2), build_gp4("S(2k,0;l)", 2, GQ(2))):
        tree = decompose(sysgen, seed=5)
        assert tree.indecomposable
        assert tree.certified()


def test_decompose_direct_sum_recovers_pieces():
    rng = random.Random(11)
    from relpos.system import direct_sum

    a = build_gp3(9)
    b = line_system(1, 0, 1)
    s = direct_sum(a, b)
    g = random_invertible(rng, 3)
    s = s.apply(g)
    tree = decompose(s, seed=2)
    assert len(tree.components) == 2
    assert verify_decomposition(s, tree)


def test_are_isomorphic_example1_pair():
    s1 = sysrows(2, [[1, 0]], [[1, Fraction(2, 3)]])
    s2 = sysrows(2, [[1, 0]], [[0, 1]])
    res = are_isomorphic(s1, s2, seed=1)
    assert res.status == "isomorphic"
    assert s1.apply(res.witness) == s2


def test_not_isomorphic_s7_s8():
    res = are_isomorphic(build_example(7), build_example(8), seed=1)
    assert res.status == "not_isomorphic"


def test_examples_7_to_10_pairwise_non_isomorphic():
    systems = [build_example(i) for i in (7, 8, 9, 10)]
    for i in range(4):
        for j in range(i + 1, 4):
            res = are_isomorphic(systems[i], systems[j], seed=9)
            assert res.status == "not_isomorphic"


def test_example5_generic_four_lines_isomorphic():
    # both quadruples have every three vectors independent
    u = sysrows(3, [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 1, 1]])
    v = sysrows(3, [[1, 1, 0]], [[0, 1, 1]], [[1, 0, 1]], [[1, 2, 4]])
    res = are_isomorphic(u, v, seed=4)
    assert res.status == "isomorphic"
    assert u.apply(res.witness) == v


def test_example5_degenerate_quadruple_not_isomorphic():
    # (1,2,3) = 2(0,1,1) + (1,0,1): three dependent vectors break condition (2)
    u = sysrows(3, [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 1, 1]])
    w = sysrows(3, [[1, 1, 0]], [[0, 1, 1]], [[1, 0, 1]], [[1, 2, 3]])
    assert are_isomorphic(u, w, seed=4).status == "not_isomorphic"


def test_are_isomorphic_is_equivalence_on_catalog_triples():
    rng = random.Random(21)
    s = build_gp4("S13(2k,0)", 2)
    g = random_invertible(rng, 4)
    t = s.apply(g)
    r1 = are_isomorphic(s, t, seed=2)
    r2 = are_isomorphic(t, s, seed=3)
    assert r1 and r2
    assert s.apply(r1.witness) == t
    assert t.apply(r2.witness) == s
    refl = are_isomorphic(s, s, seed=4)
    assert refl


def test_transitive_examples():
    lam = GQ(Fraction(3, 2))
    s = single_operator_system(Matrix.from_rows([[lam]]))
    assert is_transitive(s)
    assert is_transitive(build_gp4("S3(2k,-1)", 2))
    s_j2 = single_operator_system(jordan_block(2, GQ(0)))
    assert not is_transitive(s_j2)
    tree = decompose(s_j2, seed=1)
    assert tree.indecomposable and tree.certified()


def test_strongly_irreducible():
    assert strongly_irreducible(jordan_block(3, GQ(0)))
    assert strongly_irreducible(jordan_block(2, GQ(5)))
    d = Matrix.block_diag([jordan_block(1, GQ(0)), jordan_block(1, GQ(1))])
    assert not strongly_irreducible(d)


def test_commutant_dimension_of_jordan_block():
    assert len(commutant_basis(jordan_block(3, GQ(0)))) == 3
    assert len(commutant_basis(jordan_block(2, GQ(7)))) == 2


def test_jordan_oracle():
    rep = jordan_oracle(jordan_block(3, GQ(0)))
    assert rep.certified and rep.blocks == {GQ(0): [3]}
    rep = jordan_oracle(Matrix.identity(2))
    assert rep.blocks == {GQ(1): [1, 1]}
    # companion matrix of (z-1)^2 (z-2)
    comp = Matrix.from_rows([[0, 0, 2], [1, 0, -5], [0, 1, 4]])
    rep = jordan_oracle(comp)
    assert rep.certified
    assert rep.blocks == {GQ(1): [2], GQ(2): [1]}


def test_jordan_oracle_uncertified_for_irrational_spectrum():
    comp = Matrix.from_rows([[0, 2], [1, 0]])  # z^2 - 2
    rep = jordan_oracle(comp)
    assert not rep.certified


def test_strong_irreducibility_matches_jordan_oracle():
    rng = random.Random(31)
    from relpos.sampling import random_jordan_conjugate

    for _ in range(15):
        t, blocks = random_jordan_conjugate(rng, max_dim=4)
        rep = jordan_oracle(t)
        assert rep.certified
        got = {k: sorted(v) for k, v in rep.blocks.items()}
        assert got == blocks
        single = rep.single_block()
        assert strongly_irreducible(t, seed=5) == single
        tree = decompose(single_operator_system(t), seed=6)
        assert tree.indecomposable == single


def test_one_subspace_classification():
    # indecomposable iff (C;0) or (C;C)
    for pat, expect in ((0,), True), ((1,), True):
        assert decompose(line_system(*pat), seed=1).indecomposable == expect
    s = sysrows(2, [[1, 0]])
    tree = decompose(s, seed=1)
    assert len(tree.components) == 2


def test_perp_preserves_indecomposability_and_transitivity():
    for s in (build_gp3(9), build_example(7), build_gp4("S3(2k,1)", 2)):
        sp = s.orthocomplement()
        assert decompose(sp, seed=2).indecomposable
        assert is_transitive(s) == is_transitive(sp)


def gaussian_integer_matrix(rng, rows, cols, span=2):
    return Matrix.exact(
        rows, cols,
        [GQ(rng.randint(-span, span), rng.randint(-1, 1)) for _ in range(rows * cols)],
    )


def span_of(mats):
    """The span of square matrices, each read as its column-major vec."""
    return Subspace.span(Matrix.hstack([b.vec() for b in mats]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_operator_end_algebra_spans_the_hom_space(k):
    # End(S_{T,S}) through the commutant of ST, as built and in random
    # coordinates, is a basis of the algebra hom_space's basis spans
    rng = random.Random(40 + k)
    ts = [gaussian_integer_matrix(rng, k, k) for _ in range(3)] + [
        Matrix.identity(k).scale(GQ(rng.randint(-2, 2))),
        Matrix.block_diag([jordan_block(k - k // 2, GQ(1, 1))] + [jordan_block(1, GQ(1, 1))] * (k // 2)),
    ]
    for t in ts:
        s = operator_system(t, random_invertible(rng, k))
        for sys in (s, s.apply(random_invertible(rng, 2 * k))):
            assert _operator_end_basis(sys) is not None
            basis, hom = end_algebra(sys).basis, hom_space(sys, sys).basis
            assert len(basis) == len(hom)
            assert span_of(basis).dim == len(basis)
            assert span_of(basis) == span_of(hom)


def test_end_algebra_falls_back_to_hom_space():
    rng = random.Random(9)
    singular_s = operator_system(gaussian_integer_matrix(rng, 2, 2), Matrix.from_rows([[1, 2], [2, 4]]))
    uneven = operator_system(gaussian_integer_matrix(rng, 1, 2), gaussian_integer_matrix(rng, 2, 1))
    three = random_system(rng, 4, 3)
    five = SubspaceSystem(4, singular_s.subspaces + (Subspace.zero(4),))
    # the first two are operator systems, but outside k1 = k2 with S invertible
    assert is_bounded_operator_system(singular_s) is not None
    assert is_bounded_operator_system(uneven).k1 == 2
    for s in (singular_s, uneven, three, five, build_gp4("S(2k+1,2)", 1)):
        assert _operator_end_basis(s) is None
        assert end_algebra(s).basis == hom_space(s, s).basis


def sylvester_commutant(t):
    """Reference: the commutant as the nullspace of T^T (x) I - I (x) T."""
    n = t.rows
    ident = Matrix.identity(n)
    ker = (t.transpose().kron(ident) - ident.kron(t)).nullspace()
    return [Matrix.unvec(ker.column(j), n, n) for j in range(ker.cols)]


def companion(*coeffs):
    """Companion matrix of the monic x^k + c_(k-1) x^(k-1) + ... + c_0."""
    k = len(coeffs)
    return Matrix.from_rows(
        [[int(i == j + 1) for j in range(k - 1)] + [-coeffs[i]] for i in range(k)]
    )


def conjugate(rng, blocks):
    j = Matrix.block_diag(blocks)
    w = random_invertible(rng, j.rows)
    return w @ j @ w.inverse()


def random_jordan_blocks(rng, n):
    pool = [GQ(0), GQ(1), GQ(-1), GQ(0, 1), GQ(Fraction(1, 2), 1)]
    blocks = []
    while n:
        k = rng.randint(1, n)
        blocks.append(jordan_block(k, rng.choice(pool)))
        n -= k
    return blocks


def commutant_cases():
    rng = random.Random(77)
    cyclic = [conjugate(rng, random_jordan_blocks(rng, n)) for n in range(1, 7) for _ in range(2)]
    cyclic = [t for t in cyclic if t.minimal_polynomial().degree == t.rows]
    cyclic += [companion(-2, 0), companion(1, -3, 0, 1, GQ(0, 1)), companion(5, 0, 0, 0, 0, 0)]
    cyclic.append(conjugate(rng, [jordan_block(3, GQ(1)), jordan_block(2, GQ(2)), jordan_block(1, GQ(0, 1))]))
    derogatory = [
        Matrix.identity(3).scale(GQ(Fraction(2, 3), 1)),
        conjugate(rng, [jordan_block(2, GQ(1)), jordan_block(1, GQ(1))]),
        conjugate(rng, [companion(-2, 0), companion(-2, 0)]),
    ]
    return cyclic, derogatory


def test_commutant_basis_spans_the_sylvester_nullspace():
    cyclic, derogatory = commutant_cases()
    assert len(cyclic) >= 10
    for t in cyclic + derogatory:
        basis = commutant_basis(t)
        assert span_of(basis).dim == len(basis)
        assert span_of(basis) == span_of(sylvester_commutant(t))
    assert all(len(commutant_basis(t)) == t.rows for t in cyclic)
    assert [len(commutant_basis(t)) for t in derogatory] == [9, 5, 8]


def searched_strong_irreducibility(t, seed):
    """Reference: no idempotent found by searching the Sylvester commutant."""
    found = find_nontrivial_idempotent(EndAlgebra(basis=sylvester_commutant(t)), seed)
    return found.status != "found"


@pytest.mark.parametrize("seed", range(10))
def test_strong_irreducibility_theorem_matches_the_commutant_search(seed):
    rng = random.Random(500 + seed)
    ts = [conjugate(rng, random_jordan_blocks(rng, n)) for n in (rng.randint(1, 4), 5, 6)]
    ts.append(conjugate(rng, [jordan_block(rng.randint(1, 6), GQ(1, -1))]))
    quad = conjugate(rng, [companion(-2, 0)])
    twice = conjugate(rng, [companion(-2, 0), companion(-2, 0)])
    thrice = conjugate(rng, [companion(-3, 0)] * 3)
    for t in ts + [quad, twice, thrice]:
        assert strongly_irreducible(t, seed=seed) == searched_strong_irreducibility(t, seed)
    assert strongly_irreducible(quad, seed=seed)
    assert not strongly_irreducible(twice, seed=seed)
    assert not strongly_irreducible(thrice, seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_strong_irreducibility_never_claimed_for_two_uncertified_quadratics(seed):
    # T = W (C(x^2 - 2) + C(x^2 - 3)) W^-1 commutes with the projection onto
    # either block, but factoring certifies neither quadratic inside the
    # square-free mu_T = (x^2 - 2)(x^2 - 3), so no answer is given
    t = conjugate(random.Random(seed), [companion(-2, 0), companion(-3, 0)])
    with pytest.raises(UncertifiedError):
        strongly_irreducible(t)


def test_strong_irreducibility_from_coprime_parts_beside_a_remainder():
    # (x - 1)(x^3 - 2): a certified root beside the remainder x^3 - 2
    assert not strongly_irreducible(companion(2, -2, 0, -1))
    # (x^3 - 2)(x^3 - 3)^2: two square-free parts, no certified factor
    mu = Polynomial([-2, 0, 0, 1]) * Polynomial([-3, 0, 0, 1]) * Polynomial([-3, 0, 0, 1])
    assert not strongly_irreducible(companion(*mu.monic().coeffs[:-1]))
    # x^3 - 2 alone is irreducible, but factoring cannot certify it
    with pytest.raises(UncertifiedError):
        strongly_irreducible(companion(-2, 0, 0))


def split_cases():
    rng = random.Random(808)
    systems = [
        random_system(rng, rng.randint(1, 5), n) for n in (2, 3, 4) for _ in range(20)
    ]
    for n in (3, 4, 5):
        t = conjugate(rng, random_jordan_blocks(rng, n))
        systems.append(single_operator_system(t))
        systems.append(single_operator_system(Matrix.block_diag(random_jordan_blocks(rng, n))))
    return systems


def test_every_split_is_certified_and_verified():
    # verify_decomposition compares every subspace exactly, so each summand's
    # subspaces are the E_i ∩ H of its split read in its own coordinates
    splits = 0
    for k, s in enumerate(split_cases()):
        tree = decompose(s, seed=k)
        assert verify_decomposition(s, tree)
        assert len(tree.components) == len(tree.certificates) + 1
        splits += len(tree.certificates)
    assert splits >= 100


def test_summands_of_a_large_operator_system_stay_on_the_commutant_route():
    # S_T has ambient 36, past MAX_HOM_UNKNOWNS for hom_space, and so must
    # each summand be answered through its own commutant when it needs one
    t = Matrix.block_diag([jordan_block(9, GQ(1)), jordan_block(8, GQ(2)), jordan_block(1, GQ(0, 1))])
    s = single_operator_system(t)
    assert s.ambient_dim ** 2 > MAX_HOM_UNKNOWNS
    tree = decompose(s, seed=3)
    assert sorted(c.ambient_dim for c in tree.components) == [2, 16, 18]
    assert tree.certified()
    assert verify_decomposition(s, tree)


def test_cyclic_operator_past_the_degree_bound_still_splits():
    # End(S_T) of a cyclic T has basis diag(T^j, T^j), so every candidate
    # after I has a minimal polynomial of degree up to 26, past the bound 24;
    # the bound applies after small roots are taken out, and x^25 (x - 1)
    # has only small roots
    t = Matrix.block_diag([jordan_block(25, GQ(0)), jordan_block(1, GQ(1))])
    s = single_operator_system(t)
    assert t.minimal_polynomial().degree > DEFAULT_DEGREE_BOUND
    tree = decompose(s, seed=7)
    assert sorted(c.ambient_dim for c in tree.components) == [2, 50]
    assert tree.certified()
    assert verify_decomposition(s, tree)


def test_idempotent_search_skips_candidates_it_cannot_factor(monkeypatch):
    # Q(i)[C], C the companion matrix of x^3 - 2, is a field of degree 3, so
    # every element but a scalar has a minimal polynomial of degree 3 with
    # no small root; with the degree bound at 2 none can be factored, and
    # the search skips them and answers 'inconclusive' instead of raising
    monkeypatch.setattr(poly, "DEFAULT_DEGREE_BOUND", 2)
    alg = dec.EndAlgebra(basis=commutant_basis(companion(-2, 0, 0)))
    found = find_nontrivial_idempotent(alg, seed=1)
    assert found.status == "inconclusive"
    assert found.semisimple_dim == 3
    assert found.attempts == 3 + dec.SEARCH_ATTEMPTS


def test_spectral_idempotent_is_exact_or_refused():
    # v(x) g(x), with u f + v g = 1, is idempotent exactly when f g
    # annihilates x; a split of a polynomial that does not is refused
    x = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    f, g, h = (Polynomial([GQ(-r), GQ(1)]) for r in (1, 2, 3))
    assert dec._spectral_idempotent(x, f, g * h) == Matrix.from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    with pytest.raises(InvariantViolation):
        dec._spectral_idempotent(x, f, g)
