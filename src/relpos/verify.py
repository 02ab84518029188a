"""Acceptance sweeps: every numbered criterion as a callable returning a
structured report, listed once in `CRITERIA`.  The CLI `verify` subcommand
and tests/test_acceptance.py both run the entries of that table."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .angles import halmos_decompose
from .catalog import (
    GP4_DEFECTS,
    build,
    finite_type_keys,
    gp4_reference_keys,
    gp4_variant_keys_for_dim,
)
from .coxeter import check_duality, phi_minus, phi_plus
from .decompose import are_isomorphic, decompose, jordan_oracle, strongly_irreducible, verify_decomposition
from .gaussian import GQ, format_gq
from .matrix import Matrix
from .sampling import random_jordan_conjugate, random_reduced_above_system, random_system
from .subspace import Subspace, intersect, image_under
from .system import SubspaceSystem, defect, is_bounded_operator_system
from .toeplitz import (
    LaurentSymbol,
    exotic_report,
    hom_dimension_decay,
    region_classify,
    single_operator_defect,
    toeplitz_idempotent_check,
)

ACCEPTANCE_LAMBDAS = (GQ(2), GQ(-1), GQ(3, 1), GQ(Fraction(1, 2)))


@dataclass
class SweepReport:
    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, msg):
        self.passed = False
        self.failures.append(str(msg))


def _new(name) -> SweepReport:
    return SweepReport(name=name, passed=True, checked=0)


# -- criterion 1 -------------------------------------------------------------

def gp_defect_range(max_k: int = 4, lambdas=ACCEPTANCE_LAMBDAS) -> SweepReport:
    rep = _new("gp-defect-range")
    seen = set()
    for key in gp4_reference_keys(max_k, lambdas):
        s = build(key)
        got = defect(s).defect
        want = Fraction(GP4_DEFECTS[key.family])
        rep.checked += 1
        seen.add(got)
        if got != want:
            rep.fail(f"{key.text()}: defect {got} != {want}")
    if seen != {Fraction(v) for v in (-2, -1, 0, 1, 2)}:
        rep.fail(f"defect values seen {sorted(seen)} != -2..2")
    return rep


# -- criterion 2 -------------------------------------------------------------

def catalog_keys_for_indecomposability(max_k: int = 4, lambdas=ACCEPTANCE_LAMBDAS):
    keys = list(gp4_reference_keys(max_k, lambdas))
    for n in (3, 2, 1):
        keys += finite_type_keys(n)
    return keys


def catalog_indecomposability(max_k: int = 4, lambdas=ACCEPTANCE_LAMBDAS, seed=101) -> SweepReport:
    rep = _new("catalog-indecomposability")
    for key in catalog_keys_for_indecomposability(max_k, lambdas):
        s = build(key)
        tree = decompose(s, seed=seed)
        rep.checked += 1
        if not tree.indecomposable:
            rep.fail(f"{key.text()}: split into {len(tree.components)} pieces")
        elif not tree.certified():
            rep.fail(f"{key.text()}: leaf not certified ({tree.leaf_status})")
    return rep


# -- criteria 3 and 4 ---------------------------------------------------------

def _lambda_candidates(comp: SubspaceSystem):
    out = []
    real = is_bounded_operator_system(comp)
    if real is None:
        return out
    st = real.S @ real.T
    p = st.minimal_polynomial()
    from .poly import factor_over_gaussian_rationals

    fr = factor_over_gaussian_rationals(p)
    for lam, _ in fr.certified_roots():
        if lam != GQ(0) and lam != GQ(1):
            out.append(lam)
    return out


def match_component_to_catalog(comp: SubspaceSystem, seed: int = 0):
    """A catalog key certified isomorphic to the (indecomposable) component,
    with its witness, or None."""
    if comp.n == 4:
        keys = gp4_variant_keys_for_dim(comp.ambient_dim, _lambda_candidates(comp))
    else:
        keys = finite_type_keys(comp.n)
    dims = comp.dims()
    for key in keys:
        cand = build(key)
        if cand.ambient_dim != comp.ambient_dim or cand.dims() != dims:
            continue
        res = are_isomorphic(comp, cand, seed=seed)
        if res.status == "isomorphic":
            return key, res.witness
    return None


def classification_completeness(
    count: int = 200, max_dim: int = 5, n: int = 4, seed: int = 202
) -> SweepReport:
    """Random systems decompose into catalog members.

    Leaves that are indecomposable over Q(i) but split over C (conjugate
    irrational parameter pairs; certified by an irreducible minimal-polynomial
    factor in the endomorphism algebra) cannot match a Q(i)-catalog entry and
    are reported as explained, per the criterion."""
    label = {4: "gp-complete", 3: "three-types", 2: "two-types"}[n]
    rep = _new(label)
    rng = random.Random(seed)
    unmatched = []
    complex_only = []
    for trial in range(count):
        d = rng.randint(1, max_dim)
        s = random_system(rng, d, n)
        tree = decompose(s, seed=seed + trial)
        rep.checked += 1
        if not verify_decomposition(s, tree):
            rep.fail(f"trial {trial}: witness check failed")
            continue
        for comp, status in zip(tree.components, tree.leaf_status):
            if status == "indecomposable_over_QI":
                complex_only.append((trial, comp.ambient_dim, comp.dims()))
                continue
            if status != "indecomposable":
                rep.fail(f"trial {trial}: unresolved leaf {status}")
                continue
            hit = match_component_to_catalog(comp, seed=seed + trial)
            if hit is None:
                unmatched.append((trial, comp.ambient_dim, comp.dims()))
    if unmatched:
        rep.fail(f"{len(unmatched)} unmatched summands: {unmatched[:5]}")
    if complex_only and n != 4:
        rep.fail(f"unexpected over-C-only leaves for n={n}: {complex_only[:5]}")
    rep.details["unmatched"] = len(unmatched)
    rep.details["complex_only_explained"] = len(complex_only)
    rep.details["complex_only_cases"] = complex_only[:10]
    return rep


# -- criterion 5 -------------------------------------------------------------

def coxeter_duality_sweep(
    catalog_max_k: int = 4,
    lambdas=ACCEPTANCE_LAMBDAS,
    random_count: int = 100,
    seed: int = 303,
) -> SweepReport:
    rep = _new("coxeter-duality")
    for key in catalog_keys_for_indecomposability(catalog_max_k, lambdas):
        s = build(key)
        report = check_duality(s, seed=seed, check_indecomposability=False)
        rep.checked += 1
        bad = {k: v for k, v in report.clauses.items() if v == "fail"}
        if bad:
            rep.fail(f"{key.text()}: {bad}")
    rng = random.Random(seed)
    for trial in range(random_count):
        d = rng.randint(1, 4)
        s = random_reduced_above_system(rng, d, 4)
        plus = phi_plus(s).system
        back = phi_minus(plus).system
        iso = are_isomorphic(back, s, seed=seed + trial)
        rep.checked += 1
        if iso.status != "isomorphic":
            rep.fail(f"random trial {trial}: duality witness missing ({iso.status})")
            continue
        if back.apply(iso.witness) != s:
            rep.fail(f"random trial {trial}: witness does not carry the system")
        if defect(plus).defect != defect(s).defect:
            rep.fail(f"random trial {trial}: defect not preserved")
    for trial in range(random_count):
        d = rng.randint(1, 4)
        s = random_system(rng, d, 4)
        plus = phi_plus(s).system
        lhs = (
            intersect(plus.subspaces[0], plus.subspaces[1]).dim
            if not plus.is_zero()
            else 0
        )
        rhs = intersect(s.subspaces[2], s.subspaces[3]).dim
        rep.checked += 1
        if lhs != rhs:
            rep.fail(f"dim lemma trial {trial}: {lhs} != {rhs}")
    return rep


# -- criterion 6 -------------------------------------------------------------

def _region_grid():
    both_inside = []
    one_inside = []
    both_outside = []
    for p in range(-40, 41):
        for q in range(-12, 13):
            alpha = GQ(Fraction(p, 20), Fraction(q, 20))
            n0 = alpha.norm2()
            n1 = (alpha - GQ(1)).norm2()
            if n0 == 1 or n1 == 1:
                continue
            if n0 < 1 and n1 < 1 and len(both_inside) < 25:
                both_inside.append(alpha)
            elif ((n0 < 1) != (n1 < 1)) and len(one_inside) < 25:
                one_inside.append(alpha)
            elif n0 > 1 and n1 > 1 and len(both_outside) < 25:
                both_outside.append(alpha)
    return both_inside, one_inside, both_outside


def fractional_defects() -> SweepReport:
    rep = _new("fractional-defects")
    both_inside, one_inside, both_outside = _region_grid()
    for alphas, want in (
        (both_inside, Fraction(-2, 3)),
        (one_inside, Fraction(-1, 3)),
        (both_outside, Fraction(0)),
    ):
        if len(alphas) != 25:
            rep.fail(f"grid has {len(alphas)} points for value {want}")
        for alpha in alphas:
            rep.checked += 1
            got = region_classify(alpha)
            if got != want:
                rep.fail(f"alpha={format_gq(alpha)}: {got} != {want}")
    shift = LaurentSymbol.scalar({1: 1})
    if single_operator_defect(shift) != Fraction(-1, 3):
        rep.fail("shift defect != -1/3")
    rep.checked += 1
    half = LaurentSymbol.scalar({1: 1, 0: GQ(Fraction(1, 2))})
    if single_operator_defect(half) != Fraction(-2, 3):
        rep.fail("shift+1/2 defect != -2/3")
    rep.checked += 1
    from .gaussian import ONE, ZERO

    for n in range(1, 7):
        sub = Matrix.exact(
            n, n, [ONE if i == j + 1 else ZERO for i in range(n) for j in range(n)]
        )
        sym = LaurentSymbol.make(n, {1: Matrix.identity(n), 0: sub})
        rep.checked += 1
        if single_operator_defect(sym) != Fraction(-n, 3):
            rep.fail(f"block size {n}: defect != -{n}/3")
    return rep


# -- criterion 7 -------------------------------------------------------------

def strong_irreducibility_agreement(count: int = 100, seed: int = 404) -> SweepReport:
    from .catalog import single_operator_system

    rep = _new("strong-irreducibility")
    rng = random.Random(seed)
    for trial in range(count):
        t, blocks = random_jordan_conjugate(rng, max_dim=6)
        oracle = jordan_oracle(t)
        rep.checked += 1
        if not oracle.certified:
            rep.fail(f"trial {trial}: oracle uncertified")
            continue
        got = {k: sorted(v) for k, v in oracle.blocks.items()}
        if got != blocks:
            rep.fail(f"trial {trial}: oracle blocks {got} != constructed {blocks}")
            continue
        single = oracle.single_block()
        si = strongly_irreducible(t, seed=seed + trial)
        tree = decompose(single_operator_system(t), seed=seed + trial)
        if si != single:
            rep.fail(f"trial {trial}: strongly_irreducible {si} != single-block {single}")
        if tree.indecomposable != single:
            rep.fail(f"trial {trial}: system indecomposability mismatch")
    return rep


# -- criterion 8 -------------------------------------------------------------

def exotic_lab(gamma=GQ(2), sizes=(16, 24, 32), tol: float = 1e-6) -> SweepReport:
    rep = _new("exotic-lab")
    estimates = []
    for n in sizes:
        r = exotic_report(gamma, n, tol)
        rep.checked += 1
        if r.pair_intersections[(1, 3)] != 1 or r.pair_intersections[(2, 3)] != 1:
            rep.fail(f"N={n}: exact intersections off: {r.pair_intersections}")
        if not (r.pair_angles[(3, 4)] < tol):
            rep.fail(f"N={n}: angle(3,4) = {r.pair_angles[(3,4)]} not < {tol}")
        for pair in ((1, 2), (1, 4), (2, 4)):
            if not (r.pair_angles[pair] > 0.3):
                rep.fail(f"N={n}: angle{pair} = {r.pair_angles[pair]} not > 0.3")
        if not r.not_operator_system:
            rep.fail(f"N={n}: vertex-3 isolation flag missing")
        estimates.append(r.defect_estimate)
        if r.defect_estimate != Fraction(1):
            rep.fail(f"N={n}: defect estimate {r.defect_estimate} != 1")
    if len(set(estimates)) != 1:
        rep.fail(f"estimate not stable across sizes: {estimates}")
    rep.details["estimates"] = [str(e) for e in estimates]
    return rep


# -- criterion 9 -------------------------------------------------------------

def halmos_sweep(count: int = 50, max_dim: int = 40, seed: int = 505) -> SweepReport:
    rep = _new("halmos")
    rng = np.random.default_rng(seed)
    for trial in range(count):
        d = int(rng.integers(2, max_dim + 1))
        p = int(rng.integers(1, d))
        q = int(rng.integers(1, d))
        e = Subspace.span(
            Matrix.from_array(rng.standard_normal((d, p)) + 1j * rng.standard_normal((d, p)))
        )
        f = Subspace.span(
            Matrix.from_array(rng.standard_normal((d, q)) + 1j * rng.standard_normal((d, q)))
        )
        dec = halmos_decompose(e, f)
        rep.checked += 1
        if not (dec.residual < 1e-10):
            rep.fail(f"trial {trial}: residual {dec.residual}")
        gl = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        uq, _ = np.linalg.qr(gl)
        u = Matrix.from_array(uq)
        dec2 = halmos_decompose(image_under(u, e), image_under(u, f))
        if len(dec.angles) != len(dec2.angles):
            rep.fail(f"trial {trial}: angle count changed under unitary")
        elif len(dec.angles) and float(np.max(np.abs(dec.angles - dec2.angles))) >= 1e-8:
            rep.fail(f"trial {trial}: angle spectrum moved under unitary")
    return rep


# -- criterion 10 ------------------------------------------------------------

def infinite_dimensional_evidence(seed: int = 606) -> SweepReport:
    rep = _new("infinite-dim-evidence")
    rng = random.Random(seed)
    for trial in range(1000):
        n = rng.randint(2, 7)
        choice = trial % 4
        if choice == 0:
            row = [GQ(rng.choice((0, 1)))] + [GQ(rng.randint(-2, 2)) for _ in range(n - 1)]
        elif choice == 1:
            row = [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
        elif choice == 2:
            row = [GQ(0)] * n
        else:
            row = [GQ(1)] + [GQ(0)] * (n - 1)
        chk = toeplitz_idempotent_check(row)
        rep.checked += 1
        if not chk.lemma_holds:
            rep.fail(f"trial {trial}: idempotent law violated for row {row}")
    dims = hom_dimension_decay(GQ(2), GQ(3), sizes=(8, 16, 32))
    rep.details["hom_dims"] = dims
    rep.checked += 1
    if any(b > a for a, b in zip(dims, dims[1:])):
        rep.fail(f"hom dimensions increase across truncations: {dims}")
    return rep


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: its number, the name `relpos verify` takes,
    the sweep with its pinned parameters, and the test time budget."""

    number: int
    name: str
    sweep: Callable[[], SweepReport]
    budget_s: int | None = None


CRITERIA = (
    Criterion(1, "gp-range", gp_defect_range, budget_s=120),
    Criterion(2, "catalog-indecomposability", catalog_indecomposability, budget_s=300),
    Criterion(3, "gp-complete", classification_completeness),
    Criterion(4, "three-types", partial(classification_completeness, n=3, seed=203)),
    Criterion(4, "two-types", partial(classification_completeness, n=2, seed=204)),
    Criterion(5, "coxeter-duality", coxeter_duality_sweep),
    Criterion(6, "fractional-defects", fractional_defects, budget_s=60),
    Criterion(7, "strong-irreducibility", strong_irreducibility_agreement),
    Criterion(8, "exotic-lab", exotic_lab),
    Criterion(9, "halmos", halmos_sweep),
    Criterion(10, "infinite-dim-evidence", infinite_dimensional_evidence, budget_s=10),
)
