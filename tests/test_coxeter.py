"""Coxeter functors: constructions, duality, defect preservation."""

import random

import pytest

from relpos.catalog import build_example, build_gp3, build_gp4, jordan_block, single_operator_system
from relpos.coxeter import (
    check_duality,
    phi_minus,
    phi_perp,
    phi_perp_hom,
    phi_plus,
    phi_plus_perp_zero_witness,
    phi_zero,
)
from relpos.decompose import are_isomorphic
from relpos.gaussian import GQ
from relpos.matrix import Matrix
from relpos.sampling import random_subspace, random_system
from relpos.subspace import Subspace, image_under, intersect, sum_
from relpos.system import (
    SubspaceSystem,
    defect,
    direct_sum,
    hom_space,
    permute,
    predicates,
    zero_system,
)


def line_system(*patterns):
    return SubspaceSystem(
        1, [Subspace.span_rows(1, [[1]] if p else []) for p in patterns]
    )


def test_phi_perp_involution_and_defect_flip():
    rng = random.Random(0)
    s = random_system(rng, 3, 4)
    assert phi_perp(phi_perp(s)) == s
    assert defect(phi_perp(s)).defect == -defect(s).defect
    assert phi_perp(line_system(1, 0)) == line_system(0, 1)


def test_phi_perp_hom_contravariant():
    rng = random.Random(1)
    s = random_system(rng, 3, 3)
    t = random_system(rng, 3, 3)
    for a in hom_space(s, t):
        b = phi_perp_hom(a)
        sp = phi_perp(t)
        tp = phi_perp(s)
        for e_i, f_i in zip(sp.subspaces, tp.subspaces):
            if e_i.dim:
                assert f_i.contains(Subspace.span(b @ e_i.basis))


def test_phi_plus_triple_line_example():
    s = line_system(1, 1, 1)
    plus = phi_plus(s)
    assert plus.system.ambient_dim == 2
    res = are_isomorphic(plus.system, build_gp3(9), seed=0)
    assert res.status == "isomorphic"


def test_phi_plus_ambient_dimension_formula():
    rng = random.Random(2)
    for _ in range(10):
        s = random_system(rng, rng.randint(1, 4), rng.randint(2, 4))
        plus = phi_plus(s)
        total = Subspace.zero(s.ambient_dim)
        for sub in s.subspaces:
            total = sum_(total, sub)
        assert plus.system.ambient_dim == sum(s.dims()) - total.dim
        if plus.kernel_basis is not None and plus.kernel_basis.cols:
            tau_blocks = [sub.basis for sub in s.subspaces if sub.dim]
            tau = Matrix.hstack(tau_blocks)
            assert (tau @ plus.kernel_basis).is_zero()


def test_phi_plus_of_zero_subspaces_is_zero():
    s = line_system(0, 0, 0)
    assert phi_plus(s).system.is_zero()


def test_phi_minus_inverts_phi_plus_example():
    s9 = build_gp3(9)
    minus = phi_minus(s9)
    res = are_isomorphic(minus.system, line_system(1, 1, 1), seed=1)
    assert res.status == "isomorphic"


def test_phi_minus_of_zero():
    assert phi_minus(zero_system(3)).system.is_zero()


def test_duality_on_s7():
    report = check_duality(build_example(7), seed=3)
    assert report.predicates.reduced_above
    assert report.clauses["minus_plus_identity"] == "pass"
    assert report.ok()


def test_duality_on_operator_system():
    s = single_operator_system(jordan_block(2, GQ(0)))
    report = check_duality(s, seed=4)
    assert report.predicates.reduced_above and report.predicates.reduced_below
    assert report.clauses["minus_plus_identity"] == "pass"
    assert report.clauses["plus_minus_identity"] == "pass"
    assert report.clauses["plus_preserves_defect"] == "pass"
    assert report.clauses["minus_preserves_defect"] == "pass"
    assert report.clauses["plus_preserves_indecomposable"] == "pass"


def test_duality_skips_when_not_reduced():
    report = check_duality(line_system(1, 0, 0, 0), seed=5)
    assert report.clauses["minus_plus_identity"] == "skipped"


def test_duality_gp_family_defect_zero():
    s = build_gp4("S13(2k,0)", 2)
    report = check_duality(s, seed=6, check_indecomposability=False)
    if report.predicates.reduced_above:
        assert report.clauses["plus_preserves_defect"] == "pass"
        assert defect(phi_plus(s).system).defect == 0


def test_plus_intersection_dimension_lemma():
    rng = random.Random(7)
    for _ in range(12):
        s = random_system(rng, rng.randint(1, 4), 4)
        plus = phi_plus(s).system
        if plus.is_zero():
            continue
        lhs = intersect(plus.subspaces[0], plus.subspaces[1]).dim
        rhs = intersect(s.subspaces[2], s.subspaces[3]).dim
        assert lhs == rhs
        # permuted variant: swapping roles 1<->3, 2<->4
        p = permute(s, (3, 4, 1, 2))
        pp = phi_plus(p).system
        if not pp.is_zero():
            assert (
                intersect(pp.subspaces[0], pp.subspaces[1]).dim
                == intersect(p.subspaces[2], p.subspaces[3]).dim
            )


def test_plus_sum_lemma():
    rng = random.Random(8)
    hits = 0
    for _ in range(30):
        s = random_system(rng, rng.randint(2, 4), 4)
        e3, e4 = s.subspaces[2], s.subspaces[3]
        if intersect(e3, e4).is_zero() and sum_(e3, e4).is_full():
            plus = phi_plus(s).system
            if plus.is_zero():
                continue
            hits += 1
            assert sum_(plus.subspaces[0], plus.subspaces[1]).is_full()
    assert hits >= 3


def test_phi_plus_additive_over_direct_sums():
    rng = random.Random(9)
    s = random_system(rng, 2, 3)
    t = random_system(rng, 3, 3)
    lhs = phi_plus(direct_sum(s, t)).system
    rhs = direct_sum(phi_plus(s).system, phi_plus(t).system)
    res = are_isomorphic(lhs, rhs, seed=10)
    assert res.status == "isomorphic"


def test_phi_plus_zero_iff_independent_summands():
    # coordinate lines in C^3: each E_k meets the sum of the others in 0
    s = SubspaceSystem(
        3,
        [
            Subspace.span_rows(3, [[1, 0, 0]]),
            Subspace.span_rows(3, [[0, 1, 0]]),
            Subspace.span_rows(3, [[0, 0, 1]]),
        ],
    )
    assert phi_plus(s).system.is_zero()
    t = build_gp3(9)
    assert not phi_plus(t).system.is_zero()
    for k in range(t.n):
        rest = Subspace.zero(t.ambient_dim)
        for i, sub in enumerate(t.subspaces):
            if i != k:
                rest = sum_(rest, sub)
        if not intersect(t.subspaces[k], rest).is_zero():
            break
    else:
        pytest.fail("expected a dependent subspace family")


def test_reduced_above_nonzero_gives_nonzero_plus():
    rng = random.Random(11)
    for _ in range(20):
        s = random_system(rng, rng.randint(1, 3), 4)
        if s.ambient_dim > 0 and predicates(s).reduced_above:
            assert not phi_plus(s).system.is_zero()


def test_phi_zero_relation_to_phi_plus():
    rng = random.Random(12)
    count = 0
    for _ in range(50):
        s = random_system(rng, rng.randint(1, 3), rng.randint(2, 4))
        plus = phi_plus(s).system
        zero_res, twist = phi_plus_perp_zero_witness(s)
        pz = phi_perp(zero_res.system)
        if pz.ambient_dim == 0:
            assert plus.is_zero()
            continue
        count += 1
        moved = pz.apply(twist)
        assert moved == plus
        # complement-dimension bookkeeping inside the kernel space
        for k in range(s.n):
            assert (
                zero_res.system.subspaces[k].dim + plus.subspaces[k].dim
                == plus.ambient_dim
            )
    assert count >= 20


def test_phi_zero_p0_crosscheck_runs():
    s = single_operator_system(jordan_block(2, GQ(1)))
    res = phi_zero(s)
    assert res.bookkeeping.get("p0_crosscheck") == "passed"


def test_phi_zero_of_zero_system():
    assert phi_zero(line_system(0, 0)).system.is_zero()


def _reference_minus(s):
    """Phi-minus as the composition perp . plus . perp."""
    return phi_perp(phi_plus(phi_perp(s)).system)


def _reference_zero(s):
    """Phi-zero subspaces as span(G^-1 N_k* B_k* B_k), G = N* diag(B_k* B_k) N,
    N the kernel of the sum map."""
    ker = phi_plus(s).kernel_basis
    h = ker.cols
    if h == 0:
        return zero_system(s.n, s.field)
    grams = [sub.basis.conj_transpose() @ sub.basis for sub in s.subspaces]
    gram = ker.conj_transpose() @ Matrix.block_diag([g for g in grams if g.rows]) @ ker
    gram_inv = gram.inverse()
    subs, off = [], 0
    for sub, g in zip(s.subspaces, grams):
        block = ker.take_rows(range(off, off + sub.dim))
        off += sub.dim
        if sub.dim == 0:
            subs.append(Subspace.zero(h, s.field))
        else:
            subs.append(Subspace.span(gram_inv @ block.conj_transpose() @ g))
    return SubspaceSystem(h, subs)


def test_minus_and_zero_read_off_the_kernel_as_the_reference_formulas():
    rng = random.Random(13)
    seen = {"h=0": 0, "zero E_k": 0, "full E_k": 0, "float": 0}
    for _ in range(60):
        s = random_system(rng, rng.randint(1, 6), rng.randint(1, 5))
        minus = phi_minus(s).system
        assert minus == _reference_minus(s)
        assert phi_zero(s).system == _reference_zero(s)
        seen["h=0"] += minus.ambient_dim == 0
        seen["zero E_k"] += any(sub.is_zero() for sub in s.subspaces)
        seen["full E_k"] += any(sub.is_full() for sub in s.subspaces)
        f = s.to_float()
        got = phi_minus(f).system
        want = _reference_minus(f)
        assert got.ambient_dim == want.ambient_dim == minus.ambient_dim
        assert got == want
        assert phi_zero(f).system == _reference_zero(f)
        seen["float"] += got.ambient_dim > 0
    assert min(seen.values()) >= 5, seen


def test_phi_minus_takes_one_nullspace_per_subspace_and_one_kernel(monkeypatch):
    calls = []
    nullspace = Matrix.nullspace

    def counted(self):
        calls.append(self.shape)
        return nullspace(self)

    monkeypatch.setattr(Matrix, "nullspace", counted)
    rng = random.Random(14)
    for n in (2, 3, 4, 5):
        s = SubspaceSystem(4, [random_subspace(rng, 4, dim=1) for _ in range(n)])
        calls.clear()
        minus = phi_minus(s).system
        assert minus.ambient_dim > 0
        assert len(calls) <= n + 1, calls
