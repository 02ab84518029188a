"""Indecomposability, decomposition witnesses, isomorphism, transitivity,
strong irreducibility, Jordan oracle."""

import random
from fractions import Fraction

import pytest

from relpos.catalog import (
    CatalogKey,
    build,
    build_example,
    build_gp3,
    build_gp4,
    finite_type_keys,
    gp4_reference_keys,
    jordan_block,
    operator_system,
    single_operator_system,
)
from relpos import decompose as dec
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
from relpos.poly import Polynomial
from relpos.sampling import random_invertible, random_system
from relpos.subspace import Subspace
from relpos.sysfile import system_from_text
from relpos.system import (
    MAX_HOM_UNKNOWNS,
    SubspaceSystem,
    direct_sum_many,
    hom_dim,
    hom_space,
    is_bounded_operator_system,
)
from test_cli import FOUR_LINES


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
    assert len(res.idempotents) >= 2
    for e in res.idempotents:
        assert e @ e == e
        for sub in s.subspaces:
            if sub.dim:
                assert sub.contains(Subspace.span(e @ sub.basis))
    total = res.idempotents[0]
    for e in res.idempotents[1:]:
        total = total + e
    assert total == Matrix.identity(s.ambient_dim)


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


def moved_diagonal_pair(a, b):
    """S_T for T = diag(a) and S_T for T = diag(b) moved by a random
    invertible map: isomorphic exactly when a and b are equal as multisets."""
    def diag(values):
        return Matrix.from_rows([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])

    t = single_operator_system(diag(b)).apply(random_invertible(random.Random(4), 2 * len(b)))
    return single_operator_system(diag(a)), t


# Hom(s, t) of this pair has dimension 3 and End(s) and End(t) have 13, so no
# intertwiner is invertible
AMBIENT_26 = ([1, 2, 3, *range(50, 60)], [1, 2, 3, *range(60, 70)])


def test_failed_search_stops_at_the_hom_dimension_certificate(monkeypatch):
    s, t = moved_diagonal_pair(*AMBIENT_26)
    calls = []
    is_invertible = Matrix.is_invertible
    monkeypatch.setattr(Matrix, "is_invertible", lambda m: calls.append(m) or is_invertible(m))
    res = are_isomorphic(s, t, seed=0)
    assert res.status == "not_isomorphic"
    # the 3 basis maps and at most 32 seeded combinations
    assert len(calls) <= 40


def replaced_pair(seed):
    """A random system and its copy with subspace i replaced by subspace j,
    for a seeded pair i != j (the copy keeps the dimensions when the two
    have equal dimension)."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    d = rng.randint(2, 5)
    s = random_system(rng, d, n)
    i, j = rng.sample(range(n), 2)
    subs = list(s.subspaces)
    subs[i] = subs[j]
    return s, SubspaceSystem(d, subs)


# seeds of replaced_pair whose candidate search finds no invertible
# intertwiner, and the statuses recorded for them
FAILED_SEARCHES = [
    (5, "not_isomorphic"), (15, "not_isomorphic"), (28, "not_isomorphic"), (91, "not_isomorphic"),
    (109, "not_isomorphic"), (117, "not_isomorphic"), (187, "not_isomorphic"), (210, "not_isomorphic"),
    (254, "not_isomorphic"), (302, "not_isomorphic"), (384, "not_isomorphic"), (396, "not_isomorphic"),
]


@pytest.mark.parametrize("seed, status", FAILED_SEARCHES)
def test_failed_searches_keep_their_recorded_status(seed, status):
    s, t = replaced_pair(seed)
    assert s.dims() == t.dims()
    assert dec._find_invertible_hom(hom_space(s, t), seed) is None
    assert are_isomorphic(s, t, seed=seed).status == status


def test_krull_schmidt_matches_planted_sums(monkeypatch):
    # with the search switched off, every verdict comes from the summand match
    monkeypatch.setattr(dec, "_find_invertible_hom", lambda hom, seed: None)
    pools = [[build(k) for k in gp4_reference_keys(2)], [build(k) for k in finite_type_keys(3)]]
    for case in range(20):
        rng = random.Random(case)
        members = rng.sample(pools[case % 2], rng.randint(1, 3))
        # ambient <= 9: a sum of three members in Q(i)^12 takes 10 to 25 s
        while sum(m.ambient_dim for m in members) > 9:
            members = rng.sample(pools[case % 2], rng.randint(1, 3))
        d = sum(m.ambient_dim for m in members)
        s = direct_sum_many(members).apply(random_invertible(rng, d))
        order = members[::-1] if case % 4 >= 2 else members
        t = direct_sum_many(order).apply(random_invertible(rng, d))
        res = are_isomorphic(s, t, seed=case)
        assert res.status == "isomorphic", (case, res.reason)
        assert s.apply(res.witness) == t


def planted_draw(seed):
    """(s, members): 2 to 4 members drawn with replacement by
    random.Random(seed) from the members of gp4_reference_keys(2) of ambient
    <= 3, summed and moved by an invertible W with entries n/m, |n| <= 10^6
    and 1 <= m <= 50."""
    rng = random.Random(seed)
    pool = [m for m in (build(k) for k in gp4_reference_keys(2)) if m.ambient_dim <= 3]
    members = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
    d = sum(m.ambient_dim for m in members)
    while True:
        w = Matrix.exact(d, d, [
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50)) for _ in range(d * d)
        ])
        if w.is_invertible():
            return direct_sum_many(members).apply(w), members


# Seeds of planted_draw, 0 to 11.  Seeds 2 and 11 plant a member twice, and
# decompose leaves the pair as one 'indecomposable_over_QI' leaf (ROADMAP
# item 1).
# Seed 10 (four members in Q(i)^9) passes in 2.7 s and is left out to keep
# the suite's time; seeds 5 and 6 take 1.0 and 1.8 s, the others 0.3 s or less.
PLANTED_SEEDS = [
    0, 1, 3, 4, 5, 6, 7, 8, 9,
    pytest.param(2, marks=pytest.mark.xfail(run=False, strict=True, reason=(
        "gp4:S3(2k,1).k=1 planted twice: one leaf 'indecomposable_over_QI' in Q(i)^4"))),
    pytest.param(11, marks=pytest.mark.xfail(run=False, strict=True, reason=(
        "gp4:S(2k+1,2).k=1 planted twice beside gp4:S13(2k+1,0).k=0: two leaves, "
        "one 'indecomposable_over_QI' in Q(i)^6"))),
]


@pytest.mark.parametrize("seed", PLANTED_SEEDS)
def test_planted_decompositions_recover_their_members(seed):
    s, members = planted_draw(seed)
    tree = decompose(s, seed)
    assert verify_decomposition(s, tree)
    assert len(tree.components) == len(members)
    assert tree.leaf_status == ["indecomposable"] * len(members)
    left = list(members)
    for leaf in tree.components:
        k = next((k for k, m in enumerate(left) if are_isomorphic(leaf, m, seed=seed)), None)
        assert k is not None, f"leaf {leaf} matches no planted member left"
        del left[k]


def test_witness_checks_read_the_recorded_invertibility(monkeypatch):
    # decompose and _match_summands build their witnesses from identities,
    # inverses, and block diagonals, products and row permutations of
    # invertible maps, which record that they are invertible, so checking a
    # witness takes no elimination for its rank
    monkeypatch.setattr(dec, "_find_invertible_hom", lambda hom, seed: None)
    s, members = planted_draw(0)
    t = direct_sum_many(members[::-1]).apply(random_invertible(random.Random(3), s.ambient_dim))
    nullspace, verify_iso = Matrix.nullspace, dec._verify_iso_witness
    calls, checked = [], []

    def counted(*args):
        with monkeypatch.context() as mp:
            mp.setattr(Matrix, "nullspace", lambda m: calls.append(m.shape) or nullspace(m))
            checked.append(verify_iso(*args))
        return checked[-1]

    monkeypatch.setattr(dec, "_verify_iso_witness", counted)
    assert are_isomorphic(s, t, seed=0).status == "isomorphic"
    assert checked == [True]
    tree = decompose(s, seed=0)
    monkeypatch.setattr(Matrix, "nullspace", lambda m: calls.append(m.shape) or nullspace(m))
    assert verify_decomposition(s, tree)
    assert calls == []


def test_summand_match_refuses_leaves_with_a_singular_hom():
    # two leaves of dimension vector (2; 1, 1, 1, 1) in one tube: Hom, End(s)
    # and End(t) all have dimension 1, and the one map is not invertible
    s = build(CatalogKey.parse("gp4:S13(2k,0).k=1"))
    t = build(CatalogKey.parse("gp4:S13(2k,0).k=1.perm=2143"))
    assert s.dims() == t.dims()
    assert hom_dim(s, t) == hom_dim(s, s) == hom_dim(t, t) == 1
    assert decompose(s).certified() and decompose(t).certified()
    res = are_isomorphic(s, t, seed=0)
    assert res.status == "not_isomorphic"
    assert res.reason == "summand multisets do not match"

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
            basis, hom = end_algebra(sys).basis, hom_space(sys, sys)
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
        assert end_algebra(s).basis == hom_space(s, s)


def framed_cases():
    """Operator systems whose End is framed: S_T for cyclic, derogatory and
    Gaussian-eigenvalue T, and S_{T,S} with S != I, as built and moved."""
    rng = random.Random(31)
    ts = [
        conjugate(rng, [jordan_block(2, GQ(1)), jordan_block(1, GQ(2))]),
        companion(-2, 0),
        conjugate(rng, [jordan_block(3, GQ(0, 1))]),
        conjugate(rng, [jordan_block(2, GQ(1)), jordan_block(1, GQ(1))]),
        Matrix.block_diag([companion(-2, 0), companion(-2, 0)]),
        Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        conjugate(rng, [jordan_block(2, GQ(0, 1)), jordan_block(1, GQ(1, -1)), jordan_block(1, GQ(Fraction(1, 2), 1))]),
    ]
    systems = [single_operator_system(t) for t in ts]
    for t in ts[:4] + [gaussian_integer_matrix(rng, 3, 3)]:
        systems.append(operator_system(t, random_invertible(rng, t.rows)))
    return systems + [s.apply(random_invertible(rng, s.ambient_dim)) for s in systems[::3]]


@pytest.mark.parametrize("seed", range(5))
def test_framed_search_equals_the_search_on_the_lifted_basis(seed):
    # the search on the k x k commutant elements gives what the search on
    # their 2k x 2k lifts W^-1 diag(X, S^-1 X S) W gives, kernels and all
    statuses = set()
    for s in framed_cases():
        framed = end_algebra(s)
        assert framed.frame is not None
        plain = EndAlgebra(basis=framed.basis)
        got, want = find_nontrivial_idempotent(framed, seed), find_nontrivial_idempotent(plain, seed)
        assert (got.status, got.attempts, got.semisimple_dim) == (want.status, want.attempts, want.semisimple_dim)
        assert got.kernels == want.kernels and got.w0 == want.w0
        assert framed.semisimple_dim() == plain.semisimple_dim()
        assert [framed.frame.lift(r) for r in framed.radical_basis()] == plain.radical_basis()
        statuses.add(got.status)
    assert statuses == {"found", "local", "complex_only"}


def test_operator_end_algebra_lifts_its_basis_only_when_read(monkeypatch):
    # decompose and the search never build the 2k x 2k elements of End(S_T)
    lifts = []
    original = dec.OperatorFrame.lift

    def counting(self, x):
        lifts.append(x.rows)
        return original(self, x)

    monkeypatch.setattr(dec.OperatorFrame, "lift", counting)
    s = single_operator_system(conjugate(random.Random(5), [jordan_block(2, GQ(1)), jordan_block(2, GQ(0, 1))]))
    tree = decompose(s, seed=2)
    assert len(tree.components) == 2 and tree.certified()
    assert lifts == []
    alg = end_algebra(s)
    assert len(alg.basis) == alg.dim == 4
    assert all(b.rows == 8 for b in alg.basis)
    # built once, on the first read
    assert lifts == [4] * 4


def test_decompose_of_s_t_takes_no_minimal_polynomial_larger_than_t(monkeypatch):
    # every candidate of End(S_T), T = diag(1, ..., 12), is searched as a
    # 12 x 12 commutant element, not as its 24 x 24 lift; the candidate T
    # is the commutant basis element itself, so it reuses the mu_T that
    # commutant_basis took, and each child, in C^2, takes mu of a 1 x 1 T
    sizes, runs = [], []
    original, krylov = Matrix.minimal_polynomial, Matrix._krylov_minimal_polynomial

    def recording(self):
        sizes.append(self.rows)
        return original(self)

    def counting(self):
        runs.append(self.rows)
        return krylov(self)

    monkeypatch.setattr(Matrix, "minimal_polynomial", recording)
    monkeypatch.setattr(Matrix, "_krylov_minimal_polynomial", counting)
    s = single_operator_system(Matrix.block_diag([Matrix.from_rows([[r]]) for r in range(1, 13)]))
    tree = decompose(s, seed=0)
    assert len(tree.components) == 12 and tree.certified()
    assert verify_decomposition(s, tree)
    assert max(sizes) == 12
    assert runs == [12] + [1] * 12


def test_jordan_oracle_and_strong_irreducibility_share_one_krylov_run(monkeypatch):
    runs = []
    original = Matrix._krylov_minimal_polynomial

    def counting(self):
        runs.append(self.rows)
        return original(self)

    monkeypatch.setattr(Matrix, "_krylov_minimal_polynomial", counting)
    t = conjugate(random.Random(11), [jordan_block(2, GQ(1)), jordan_block(1, GQ(0, 1))])
    assert jordan_oracle(t).certified
    assert not strongly_irreducible(t)
    assert t.minimal_polynomial() is t.minimal_polynomial()
    assert runs == [3]


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
    c = companion(*mu.monic().coeffs[:-1])
    assert not strongly_irreducible(c)
    tree = decompose(single_operator_system(c), seed=7)
    assert sorted(comp.ambient_dim for comp in tree.components) == [6, 12]
    # x^3 - 2 alone is irreducible, but factoring cannot certify it
    with pytest.raises(UncertifiedError):
        strongly_irreducible(companion(-2, 0, 0))


@pytest.mark.parametrize("seed", range(4))
def test_four_lines_with_large_entries_split_into_four(seed):
    # every root of the End candidates' minimal polynomials is rational with
    # about 775 bits, which guessing from float roots missed: the four lines
    # came back as one leaf labelled indecomposable over Q(i)
    with open(FOUR_LINES) as fh:
        s = system_from_text(fh.read())
    tree = decompose(s, seed=seed)
    assert tree.leaf_status == ["indecomposable"] * 4
    assert verify_decomposition(s, tree)


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
        splits += len(tree.components) - 1
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
    # after I has a minimal polynomial of degree up to 26
    t = Matrix.block_diag([jordan_block(25, GQ(0)), jordan_block(1, GQ(1))])
    s = single_operator_system(t)
    assert t.minimal_polynomial().degree == 26
    tree = decompose(s, seed=7)
    assert sorted(c.ambient_dim for c in tree.components) == [2, 50]
    assert tree.certified()
    assert verify_decomposition(s, tree)


def test_operators_with_thirty_eigenvalues_split_fully():
    # T = W diag(7, ..., 36) W^-1, W unitriangular and bidiagonal: mu_T has
    # degree 30 and thirty roots, so T is not strongly irreducible, and S_T
    # of diag(7, ..., 36) splits into thirty certified leaves
    n = 30
    w = Matrix.from_rows([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
    d = Matrix.from_rows([[7 + i if i == j else 0 for j in range(n)] for i in range(n)])
    assert not strongly_irreducible(w @ d @ w.inverse())
    s = single_operator_system(d)
    tree = decompose(s, seed=7)
    assert len(tree.components) == n
    assert tree.leaf_status == ["indecomposable"] * n
    assert verify_decomposition(s, tree)


def test_idempotent_search_on_a_cubic_field_answers_complex_only():
    # Q(i)[C], C the companion matrix of x^3 - 2, is a field of degree 3, so
    # every element but a scalar has a root-free minimal polynomial of
    # degree 3, which does not split over Q(i)
    alg = dec.EndAlgebra(basis=commutant_basis(companion(-2, 0, 0)))
    found = find_nontrivial_idempotent(alg, seed=1)
    assert found.status == "complex_only"
    assert found.semisimple_dim == 3
    assert found.attempts == 3 + dec.SEARCH_ATTEMPTS


def test_a_search_that_splits_on_its_first_candidate_takes_no_radical():
    # two lines in general position in C^2: End is the diagonal matrices,
    # and its first basis element is a nontrivial idempotent
    alg = end_algebra(sysrows(2, [[1, 0]], [[0, 1]]))
    assert not alg.basis[0].is_scalar()
    found = find_nontrivial_idempotent(alg, seed=1)
    assert found.status == "found"
    assert found.attempts == 1
    assert found.semisimple_dim is None
    assert alg._radical is None


def test_scalar_candidates_are_counted_but_not_factored(monkeypatch):
    factored = []
    original = Matrix.minimal_polynomial

    def counting(self):
        factored.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "minimal_polynomial", counting)
    e11 = Matrix.from_rows([[1, 0], [0, 0]])
    alg = EndAlgebra(basis=[Matrix.identity(2).scale(GQ(3)), e11])
    found = find_nontrivial_idempotent(alg, seed=1)
    assert found.status == "found" and found.idempotents == [e11, Matrix.identity(2) - e11]
    assert found.attempts == 2
    assert factored == [e11]


def test_a_local_algebra_takes_its_radical_after_one_candidate():
    # Q(i)[J_3(0)] has basis I, J, J^2: I is passed over, mu_J = x^3 does
    # not split, and the radical (J, J^2) then certifies 'local'
    alg = EndAlgebra(basis=commutant_basis(jordan_block(3, GQ(0))))
    found = find_nontrivial_idempotent(alg, seed=1)
    assert found.status == "local"
    assert found.semisimple_dim == 1
    assert found.attempts == 2
    assert len(alg.radical_basis()) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_dimensional_systems_take_no_end(monkeypatch, n):
    # every dimension vector of a system in C^1: the End path answers each
    # with the leaf itself, and decompose now answers it without End
    systems = [line_system(*((mask >> i) & 1 for i in range(n))) for mask in range(2 ** n)]
    for s in systems:
        assert find_nontrivial_idempotent(end_algebra(s)).status == "local"

    def refuse(_s):
        raise AssertionError("end_algebra called on a one-dimensional system")

    monkeypatch.setattr(dec, "end_algebra", refuse)
    for s in systems:
        tree = decompose(s, seed=5)
        assert tree.components == [s]
        assert tree.witness == Matrix.identity(1)
        assert tree.leaf_status == ["indecomposable"]


def test_zero_subspaces_split_without_a_radical(monkeypatch):
    # (C^8; 0, 0, 0, 0) splits on E_11 at every node, so no node needs
    # the radical to certify anything
    calls = []
    original = EndAlgebra.radical_basis

    def counting(self):
        calls.append(self.dim)
        return original(self)

    monkeypatch.setattr(EndAlgebra, "radical_basis", counting)
    s = SubspaceSystem(8, [Subspace.zero(8) for _ in range(4)])
    tree = decompose(s)
    assert calls == []
    assert len(tree.components) == 8
    assert tree.certified()
    assert verify_decomposition(s, tree)


def test_primary_split_gives_the_diagonal_units():
    # diag(1, 2, 3) with parts x - 1, x - 2, x - 3: the kernels are the
    # coordinate axes and the idempotents the three diagonal units
    x = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    f, g, h = (Polynomial([GQ(-r), GQ(1)]) for r in (1, 2, 3))
    kernels, w0 = dec._primary_split(x, [f, g, h])
    found = dec.IdempotentSearch(status="found", kernels=kernels, w0=w0)
    units = [Matrix.from_rows([[int(i == j == r) for j in range(3)] for i in range(3)]) for r in range(3)]
    assert found.idempotents == units
    # parts that do not multiply to mu_x leave a kernel out, or meet in one
    with pytest.raises(InvariantViolation):
        dec._primary_split(x, [f, g])
    with pytest.raises(InvariantViolation):
        dec._primary_split(x, [f, g * h, h])


def test_one_factoring_splits_diag_1_to_8_into_its_eigenlines(monkeypatch):
    # mu_T = (x - 1) ... (x - 8) has eight coprime parts, so the root splits
    # into all eight at once, and every child, S_T of a 1 x 1 T, has End
    # of dimension 1 and needs no factoring
    calls = []
    original = dec.factor_over_gaussian_rationals

    def counting(p):
        calls.append(p.degree)
        return original(p)

    monkeypatch.setattr(dec, "factor_over_gaussian_rationals", counting)
    t = Matrix.block_diag([Matrix.from_rows([[r]]) for r in range(1, 9)])
    s = single_operator_system(t)
    tree = decompose(s, seed=7)
    assert len(calls) == 1
    assert len(tree.components) == 8
    assert tree.certified()
    assert verify_decomposition(s, tree)
    idempotents = find_nontrivial_idempotent(end_algebra(s), seed=7).idempotents
    assert len(idempotents) == 8
    assert all(e @ e == e for e in idempotents)
