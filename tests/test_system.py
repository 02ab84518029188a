"""System-level operations: direct sums, permutations, Hom spaces, defect,
diagrams, predicates, operator-system recognition."""

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
from relpos import kernel, matrix as matrix_module, system as system_module
from relpos.errors import BackendMismatch, DimensionMismatch, ExactOnlyError, SingularMatrixError
from relpos.gaussian import GQ
from relpos.matrix import Matrix
from relpos.sampling import (
    random_invertible,
    random_jordan_conjugate,
    random_subspace,
    random_system,
)
from relpos.subspace import Subspace, annihilator, image_under, intersect, orthoprojection, sum_
from relpos.system import (
    SubspaceSystem,
    defect,
    direct_sum,
    hom_dim,
    hom_space,
    intersection_diagram,
    is_bounded_operator_system,
    permute,
    predicates,
    zero_system,
)
from test_modular import catalog_pairs


def line_system(*patterns):
    """(C; ...) style one-dimensional systems: pattern 1 -> C, 0 -> 0."""
    return SubspaceSystem(
        1, [Subspace.span_rows(1, [[1]] if p else []) for p in patterns]
    )


def test_direct_sum_example_two():
    s = direct_sum(line_system(1, 0), line_system(0, 1))
    assert s.ambient_dim == 2
    assert s.dims() == (1, 1)
    assert s.subspaces[0] == Subspace.span_rows(2, [[1, 0]])
    assert s.subspaces[1] == Subspace.span_rows(2, [[0, 1]])


def test_direct_sum_with_zero_system():
    rng = random.Random(0)
    s = random_system(rng, 3, 2)
    z = zero_system(2)
    t = direct_sum(s, z)
    assert t.ambient_dim == 3
    assert t.subspaces == s.subspaces
    big = direct_sum(s, s)
    assert big.dims() == tuple(2 * k for k in s.dims())


def test_permute():
    s = line_system(1, 0, 0)
    assert permute(s, (1, 2, 3)) == s
    t = permute(s, (2, 1, 3))
    assert t.subspaces[1].dim == 1 and t.subspaces[0].dim == 0
    assert permute(t, (2, 1, 3)) == s


def test_hom_space_s9_endomorphisms_are_scalars():
    s9 = build_gp3(9)
    assert hom_dim(s9, s9) == 1


def test_hom_space_zero():
    assert hom_dim(line_system(1), line_system(0)) == 0


def test_hom_space_jordan_commutant():
    s = single_operator_system(jordan_block(2, GQ(0)))
    assert hom_dim(s, s) == 2


def test_hom_contains_identity_and_composes():
    rng = random.Random(1)
    s = random_system(rng, 3, 3)
    t = random_system(rng, 3, 3)
    u = random_system(rng, 2, 3)
    ident = Matrix.identity(3)
    cols = Matrix.hstack([b.vec() for b in hom_space(s, s)])
    assert cols.solve(ident.vec()) is not None
    for a in hom_space(t, u):
        for b in hom_space(s, t):
            comp = a @ b
            for e_i, f_i in zip(s.subspaces, u.subspaces):
                if e_i.dim:
                    assert f_i.contains(Subspace.span(comp @ e_i.basis))


def test_hom_dim_invariant_under_change_of_basis():
    rng = random.Random(2)
    s = random_system(rng, 3, 4)
    t = random_system(rng, 3, 4)
    g = random_invertible(rng, 3)
    s2 = s.apply(g)
    t2 = t.apply(g)
    assert hom_dim(s, t) == hom_dim(s2, t2)


def hom_pairs():
    """Seeded (kind, source, target): random systems (n in 2..4, d <= 5),
    S_T of random Jordan conjugates against themselves and against a change
    of basis of themselves, and the catalog pairs."""
    rng = random.Random(21)
    for _ in range(180):
        n = rng.randint(2, 4)
        yield "random", random_system(rng, rng.randint(1, 5), n), random_system(rng, rng.randint(1, 5), n)
    for k in range(30):
        s = single_operator_system(random_jordan_conjugate(rng, max_dim=4)[0])
        yield "operator", s, (s if k % 2 else s.apply(random_invertible(rng, s.ambient_dim)))
    for s, t in catalog_pairs():
        yield "catalog", s, t


def kronecker_hom_basis(s, t):
    """Hom(S, T) as the canonical nullspace of the stacked blocks
    B_i^T (x) C_i (B_i the basis of E_i, C_i the annihilator of F_i) over
    vec(A), column-major: the reference for the `_hom_rows` that hom_space
    and hom_dim share."""
    ds, dt = s.ambient_dim, t.ambient_dim
    blocks = [Matrix.zeros(0, ds * dt)] + [
        e.basis.transpose().kron(annihilator(f)) for e, f in zip(s.subspaces, t.subspaces)
    ]
    ker = Matrix.vstack(blocks).nullspace()
    return [Matrix.unvec(ker.column(j), dt, ds) for j in range(ker.cols)]


def test_peeled_hom_dim_is_the_hom_space_dim(monkeypatch):
    nullspace = Matrix.nullspace
    pairs, cores = 0, {"random": 0, "operator": 0, "catalog": 0}
    for kind, s, t in hom_pairs():
        basis = hom_space(s, t)
        assert basis == kronecker_hom_basis(s, t)
        expected = len(basis)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(Matrix, "nullspace", lambda m: calls.append(m.shape) or nullspace(m))
            assert hom_dim(s, t) == expected
        pairs += 1
        cores[kind] += bool(calls)
    # the pairs whose constraints do not all peel include S_T pairs
    assert pairs >= 200
    assert cores["operator"] >= 10


def test_defect_examples():
    assert defect(build_gp4("S3(2k,-1)", 2)).defect == Fraction(-1)
    assert defect(build_gp4("S(2k+1,2)", 1)).defect == Fraction(2)
    assert defect(line_system(1, 1, 1, 1)).defect == Fraction(2)
    with pytest.raises(DimensionMismatch):
        defect(line_system(1, 1, 1))


def test_defect_additive_and_perp():
    rng = random.Random(3)
    for _ in range(5):
        s = random_system(rng, 3, 4)
        t = random_system(rng, 2, 4)
        assert defect(direct_sum(s, t)).defect == defect(s).defect + defect(t).defect
        assert defect(s.orthocomplement()).defect == -defect(s).defect


def test_intersection_diagram_operator_system_path():
    s = single_operator_system(jordan_block(2, GQ(0)))
    dia = intersection_diagram(s)
    assert dia.has_edge(4, 1) and dia.has_edge(1, 2) and dia.has_edge(2, 3)
    assert dia.connected


def test_intersection_diagram_all_full():
    dia = intersection_diagram(line_system(1, 1, 1, 1))
    assert not dia.edges
    assert not dia.connected


def test_predicates_operator_system():
    s = single_operator_system(jordan_block(3, GQ(1)))
    p = predicates(s)
    assert p.reduced_above and p.reduced_below
    assert p.projection_sum_invertible


def test_predicates_degenerate():
    p = predicates(line_system(1, 0, 0, 0))
    assert not p.reduced_above


def test_n_minus_1_property_catalog():
    # indecomposable with ambient dim >= 2: every n-1 subfamily meets in 0
    # and spans H
    s9 = build_gp3(9)
    assert predicates(s9).n_minus_1_property
    s7 = build_example(7)
    assert predicates(s7).n_minus_1_property


def test_reduced_above_implies_projection_sum_invertible():
    rng = random.Random(4)
    checked = 0
    for _ in range(100):
        s = random_system(rng, rng.randint(1, 4), 4)
        p = predicates(s)
        if p.reduced_above:
            checked += 1
            assert p.projection_sum_invertible
    assert checked >= 10


def eager_predicates(s):
    """The five predicates computed all at once, by the formulas
    `predicates` used before they were read on demand: the reference."""
    d, n, subs = s.ambient_dim, s.n, s.subspaces
    perps = [e.orthocomplement() for e in subs]

    def total(parts):
        acc = Subspace.zero(d, s.field)
        for p in parts:
            acc = sum_(acc, p)
        return acc

    proj_sum = Matrix.zeros(d, d, s.field)
    for e in subs:
        proj_sum = proj_sum + orthoprojection(e)
    nm1 = True
    for k in range(n):
        rest = subs[:k] + subs[k + 1 :]
        cap = Subspace.full(d, s.field) if not rest else rest[0]
        for e in rest[1:]:
            cap = intersect(cap, e)
        if not cap.is_zero() or not total(rest).is_full():
            nm1 = False
            break
    return {
        "reduced_above": all(total(subs[:k] + subs[k + 1 :]).is_full() for k in range(n)),
        "reduced_below": all(total(perps[:k] + perps[k + 1 :]).is_full() for k in range(n)),
        "nondegenerate": all(
            sum_(subs[i], subs[j]).is_full() and intersect(subs[i], subs[j]).is_zero()
            for i in range(n)
            for j in range(i + 1, n)
        ),
        "projection_sum_invertible": proj_sum.is_invertible(),
        "n_minus_1_property": nm1,
    }


def test_predicates_read_on_demand_equal_the_eager_formulas():
    rng = random.Random(11)
    seen = {name: set() for name in eager_predicates(line_system(1))}
    for _ in range(100):
        s = random_system(rng, rng.randint(0, 5), rng.randint(2, 4))
        want = eager_predicates(s)
        p = predicates(s)
        # read in a seeded order, so a predicate that reuses another is
        # read both before and after it
        names = list(want)
        rng.shuffle(names)
        for name in names:
            assert getattr(p, name) == want[name], (name, s)
            seen[name].add(want[name])
    assert all(seen[name] == {True, False} for name in ("reduced_above", "reduced_below")), seen


def test_reduced_above_alone_takes_no_orthoprojection(monkeypatch):
    def refuse(*_args):
        raise AssertionError("orthoprojection called")

    monkeypatch.setattr(system_module, "orthoprojection", refuse)
    monkeypatch.setattr(Subspace, "orthocomplement", refuse)
    assert predicates(single_operator_system(jordan_block(3, GQ(1)))).reduced_above
    assert not predicates(line_system(1, 0, 0, 0)).reduced_above


def test_is_bounded_operator_system_roundtrip():
    t = jordan_block(2, GQ(0))
    s = single_operator_system(t)
    real = is_bounded_operator_system(s)
    assert real is not None
    assert real.T == t
    assert real.S == Matrix.identity(2)
    rebuilt = operator_system(real.T, real.S)
    assert s.apply(real.change_of_basis) == rebuilt


def test_is_bounded_operator_system_rejects_gp_defect_two():
    s = build_gp4("S(2k+1,2)", 1)
    assert is_bounded_operator_system(s) is None


def test_is_bounded_operator_system_after_change_of_basis():
    rng = random.Random(5)
    t = Matrix.from_rows([[1, 2], [0, 1]])
    s = single_operator_system(t)
    g = random_invertible(rng, 4)
    moved = s.apply(g)
    real = is_bounded_operator_system(moved)
    assert real is not None
    rebuilt = operator_system(real.T, real.S)
    assert moved.apply(real.change_of_basis) == rebuilt


def _lattice_realization(s):
    """Operator-system recognition as the subspace lattice decides it: the
    three pair intersections, then the graph of T and the cograph of S read
    off the canonical bases of W E3 and W E4 (the block order of W E4
    swapped).  The reference for is_bounded_operator_system."""
    e1, e2, e3, e4 = s.subspaces
    d = s.ambient_dim
    pairs = ((e1, e2), (e2, e3), (e4, e1))
    if any(a.dim + b.dim != d for a, b in pairs):
        return None
    if not all(intersect(a, b).is_zero() for a, b in pairs):
        return None
    k1, k2 = e1.dim, e2.dim

    def graph(sub, k):
        x, y = sub.basis.take_rows(range(k)), sub.basis.take_rows(range(k, d))
        return y @ x.inverse() if x.is_invertible() else None

    w = Matrix.hstack([e1.basis, e2.basis]).inverse()
    f3, f4 = image_under(w, e3), image_under(w, e4)
    t = graph(f3, k1)
    swapped = Subspace.span(f4.basis.take_rows(list(range(k1, d)) + list(range(k1))))
    smat = graph(swapped, k2)
    if t is None or smat is None:
        return None
    return t, smat, w, k1, k2


def _exact_subspace(rng, d, dim, through=None):
    """A random subspace of C^d of dimension exactly dim, containing a
    nonzero vector of `through` when it is given."""
    while True:
        cols = [random_subspace(rng, d, 1).basis for _ in range(dim)]
        if through is not None:
            coeff = Matrix.exact(through.dim, 1, [GQ(rng.randint(1, 3), rng.randint(-1, 1))
                                                 for _ in range(through.dim)])
            cols[0] = through.basis @ coeff
        sub = Subspace.span(Matrix.hstack(cols)) if dim else Subspace.zero(d)
        if sub.dim == dim:
            return sub


def recognition_cases():
    """Seeded (kind, system) for operator-system recognition: S_{T,S} with
    invertible, singular and non-square S, each also moved by a random
    invertible W; generic systems of the operator shape with each of the
    three pair conditions broken; the edges k1 = 0, k2 = 0 and d = 0; and
    random systems whose dimensions mostly fail the checks."""
    rng = random.Random(41)

    def entries(rows, cols, rank=None):
        m = Matrix.exact(rows, cols, [GQ(rng.randint(-2, 2), rng.randint(-1, 1))
                                      for _ in range(rows * cols)])
        if rank is not None and rows and cols:
            # a product through C^rank
            m = entries(rows, rank) @ entries(rank, cols)
        return m

    for k in range(90):
        kind = ("invertible S", "singular S", "non-square S")[k % 3]
        k1 = rng.randint(1, 3)
        k2 = k1 if kind != "non-square S" else rng.choice([j for j in range(1, 4) if j != k1])
        if kind == "invertible S":
            smat = random_invertible(rng, k1)
        else:
            smat = entries(k1, k2, rank=None if kind == "non-square S" else k1 - 1)
        s = operator_system(entries(k2, k1), smat)
        yield kind, s
        yield "moved " + kind, s.apply(random_invertible(rng, s.ambient_dim))
    for k in range(60):
        broken = ("1,2", "2,3", "4,1")[k % 3]
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3)
        d = k1 + k2
        e1 = _exact_subspace(rng, d, k1)
        e2 = _exact_subspace(rng, d, k2, through=e1 if broken == "1,2" else None)
        e3 = _exact_subspace(rng, d, k1, through=e2 if broken == "2,3" else None)
        e4 = _exact_subspace(rng, d, k2, through=e1 if broken == "4,1" else None)
        yield "broken " + broken, SubspaceSystem(d, [e1, e2, e3, e4])
    for k in range(1, 4):
        yield "k1 = 0", operator_system(Matrix.zeros(k, 0), Matrix.zeros(0, k))
        yield "k2 = 0", operator_system(Matrix.zeros(0, k), Matrix.zeros(k, 0))
        yield "moved k1 = 0", operator_system(Matrix.zeros(k, 0), Matrix.zeros(0, k)).apply(
            random_invertible(rng, k))
    yield "d = 0", operator_system(Matrix.zeros(0, 0), Matrix.zeros(0, 0))
    for _ in range(20):
        yield "random", random_system(rng, rng.randint(1, 4), 4)


def test_recognition_equals_the_lattice_construction():
    seen = {}
    for kind, s in recognition_cases():
        want = _lattice_realization(s)
        real = is_bounded_operator_system(s)
        got = None if real is None else (real.T, real.S, real.change_of_basis, real.k1, real.k2)
        assert got == want, kind
        if real is not None:
            assert s.apply(real.change_of_basis) == operator_system(real.T, real.S), kind
        found, total = seen.get(kind, (0, 0))
        seen[kind] = (found + (real is not None), total + 1)
    assert sum(total for _, total in seen.values()) >= 200
    for kind, (found, total) in seen.items():
        if kind.startswith("broken"):
            assert found == 0, kind
        elif kind != "random":
            assert found == total, kind
    assert 0 < seen["random"][0] < seen["random"][1]


def test_recognition_refuses_a_float_system():
    s = single_operator_system(jordan_block(2, GQ(1))).to_float()
    with pytest.raises(ExactOnlyError):
        is_bounded_operator_system(s)


def _count_eliminations(monkeypatch):
    """The (rows, cols) of every exact elimination from here on."""
    calls = []
    echelon = matrix_module._echelon

    def counted(re, im, rows, cols):
        calls.append((rows, cols))
        return echelon(re, im, rows, cols)

    monkeypatch.setattr(matrix_module, "_echelon", counted)
    return calls


def test_recognition_takes_at_most_three_eliminations(monkeypatch):
    rng = random.Random(42)
    systems = [
        operator_system(jordan_block(3, GQ(2)), random_invertible(rng, 3)),
        operator_system(Matrix.from_rows([[1, 2], [0, 1], [3, -1]]), Matrix.from_rows([[1, 0, 2], [0, 1, 1]])),
    ]
    systems.append(systems[0].apply(random_invertible(rng, 6)))
    calls = _count_eliminations(monkeypatch)
    for s in systems:
        calls.clear()
        assert is_bounded_operator_system(s) is not None
        assert len(calls) <= 3, calls


def test_hom_space_eliminates_once_and_reads_the_annihilators_off(monkeypatch):
    products = []
    matmul = kernel.matmul
    monkeypatch.setattr(kernel, "matmul", lambda *a: products.append(a) or matmul(*a))
    calls = _count_eliminations(monkeypatch)
    checked = 0
    for kind, s, t in hom_pairs():
        if kind != "operator":
            continue
        calls.clear()
        products.clear()
        basis = hom_space(s, t)
        assert basis and len(calls) == 1 and not products
        checked += 1
    assert checked == 30


def test_apply_rejects_bad_maps_and_keeps_zero_subspaces():
    rng = random.Random(12)
    s = SubspaceSystem(3, random_system(rng, 3, 3).subspaces + (Subspace.zero(3),))
    with pytest.raises(SingularMatrixError):
        s.apply(Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
    with pytest.raises(DimensionMismatch):
        s.apply(random_invertible(rng, 4))
    with pytest.raises(BackendMismatch):
        s.apply(random_invertible(rng, 3).to_float())
    t = s.apply(random_invertible(rng, 3))
    assert t.subspaces[3] == Subspace.zero(3)
    assert t.dims() == s.dims()


def test_apply_eliminates_the_map_at_most_once(monkeypatch):
    # every subspace has dim < d, so a d x d elimination can only be the map's
    rng = random.Random(13)
    d = 5
    s = SubspaceSystem(d, [random_subspace(rng, d, k) for k in (1, 2, 3, 4)])
    w = random_invertible(rng, d)
    calls = []
    ffgj = kernel.ffgj

    def counted(re, im, nrows, ncols):
        calls.append((nrows, ncols))
        return ffgj(re, im, nrows, ncols)

    monkeypatch.setattr(kernel, "ffgj", counted)
    t = s.apply(w)
    assert calls.count((d, d)) <= 1
    assert t.dims() == s.dims()


def test_thresholded_diagram_of_an_exact_system_decides_exactly_first():
    """dim E1 ∩ E2 = 1, yet its float angle reads about 2.6e-8: a threshold
    below that must not draw the edge 1-2."""
    s = SubspaceSystem(4, [
        Subspace.span_rows(4, [[1, 1, 0, 3], [0, 1, 1, -2]]),
        Subspace.span_rows(4, [[1, 2, 1, 1], [1, 0, 0, 5]]),
        Subspace.span_rows(4, [[1, 1, 1, 1]]),
        Subspace.span_rows(4, [[0, 1, -1, 2]]),
    ])
    exact = intersection_diagram(s)
    assert not exact.has_edge(1, 2) and exact.threshold is None
    for tol in (1e-12, 1e-9, 1e-6):
        dia = intersection_diagram(s, tol)
        assert dia.edges == exact.edges and dia.threshold == tol
