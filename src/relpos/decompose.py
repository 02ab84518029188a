"""Indecomposability decisions, decompositions with witnesses, isomorphism
testing, transitivity, strong irreducibility, and the Jordan oracle.

Everything on the exact backend is certified where it claims to be; outcomes
that hold only over C (non-split minimal polynomials over Q(i)) are reported
as such with a numeric witness, never silently."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ExactOnlyError, InvariantViolation
from .gaussian import GQ, ZERO
from .matrix import EXACT, Matrix
from .poly import coprime_split, factor_over_gaussian_rationals
from .subspace import Subspace, intersect
from .system import SubspaceSystem, direct_sum_many, hom_space

GRID_BUDGET = 20000
SEARCH_ATTEMPTS = 32
SEARCH_SPAN = 3


@dataclass
class EndAlgebra:
    """End(S) (or any unital matrix algebra) by a basis of d x d matrices."""

    basis: list
    system: SubspaceSystem | None = None
    _radical: list | None = None
    _semisimple_dim: int | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis[0].rows if self.basis else 0

    def radical_basis(self):
        """Jacobson radical via the trace form (characteristic zero)."""
        if self._radical is None:
            m, d = self.dim, self.ambient_dim
            rad = []
            if m:
                # Row j of `flat` is the row-major flattening of B_j, i.e.
                # vec(B_j^T), so trace(B_j B_k) = vec(B_j^T)^T vec(B_k) makes
                # the trace form one product; the radical elements, the
                # combinations of the B_j by the kernel vectors, are another.
                flat = Matrix.vstack([b.reshape(1, d * d) for b in self.basis])
                gram = flat @ Matrix.hstack([b.vec() for b in self.basis])
                ker = gram.nullspace()
                if ker.cols:
                    combos = ker.transpose() @ flat
                    rad = [combos.take_rows([c]).reshape(d, d) for c in range(ker.cols)]
            self._radical = rad
            self._semisimple_dim = m - len(rad)
        return self._radical

    def semisimple_dim(self) -> int:
        self.radical_basis()
        return self._semisimple_dim


def end_algebra(s: SubspaceSystem) -> EndAlgebra:
    if s.field != EXACT:
        raise ExactOnlyError("end_algebra needs the exact backend")
    basis = hom_space(s, s).basis
    return EndAlgebra(basis=basis, system=s)


def commutant_basis(t: Matrix):
    """Basis of {B : BT = TB} via one Sylvester nullspace."""
    if t.rows != t.cols:
        raise DimensionMismatch("commutant of a non-square matrix")
    n = t.rows
    ident = Matrix.identity(n, t.field)
    m = t.transpose().kron(ident) - ident.kron(t)
    ker = m.nullspace()
    return [Matrix.unvec(ker.column(j), n, n) for j in range(ker.cols)]


def commutant_algebra(t: Matrix) -> EndAlgebra:
    return EndAlgebra(basis=commutant_basis(t))


@dataclass
class ComplexSplitWitness:
    """Numeric eigenprojector evidence for a split that exists only over C."""

    element: np.ndarray
    eigenvalues: np.ndarray
    cluster: list
    projector: np.ndarray
    idempotency_residual: float
    containment_residual: float


@dataclass
class IdempotentSearch:
    """Outcome of the nontrivial-idempotent search.

    status: 'found' | 'local' | 'complex_only' | 'inconclusive'.
    'local' certifies dim(A/rad A) = 1, hence Idem = {0, I} over Q(i) and C.
    For 'complex_only', quotient_field_certified marks the airtight case: the
    semisimple quotient is two-dimensional and generated by an element whose
    minimal polynomial is a power of a certified-irreducible quadratic, so the
    quotient is a field and no Q(i)-idempotent exists at all."""

    status: str
    idempotent: Matrix | None = None
    semisimple_dim: int = 0
    complex_witness: ComplexSplitWitness | None = None
    attempts: int = 0
    quotient_field_certified: bool = False


def _span_solve(mats, target):
    if not mats:
        return None if not target.is_zero() else []
    cols = Matrix.hstack([m.vec() for m in mats])
    sol = cols.solve(target.vec())
    if sol is None:
        return None
    return [sol.entry(j, 0) for j in range(len(mats))]


def _is_scalar_mod_radical(alg: EndAlgebra, x: Matrix) -> bool:
    d = alg.ambient_dim
    mats = [Matrix.identity(d)] + alg.radical_basis()
    return _span_solve(mats, x) is not None


def _spectral_idempotent(x: Matrix, f, g):
    """Exact idempotent acting as 1 on ker f(x), 0 on ker g(x)."""
    gg, u, v = f.xgcd(g)
    if gg.degree != 0:
        return None
    e = (v * g).eval_matrix(x)
    # cubic lifting guard; exact construction terminates immediately, the loop
    # is the spec'd fallback for radical perturbations
    bound = x.rows + 1
    it = 0
    while not (e @ e == e):
        e = (e @ e).scale(GQ(3)) - (e @ e @ e).scale(GQ(2))
        it += 1
        if it > bound:
            return None
    if e.is_zero() or e.is_identity():
        return None
    return e


def _numeric_split_witness(alg: EndAlgebra, x: Matrix) -> ComplexSplitWitness | None:
    a = x.to_array()
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    groups = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[groups[-1][-1]]) < 1e-6:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) < 2:
        return None
    cluster = groups[0]
    ind = np.zeros(len(w))
    ind[cluster] = 1.0
    try:
        proj = v @ np.diag(ind) @ np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    idem_res = float(np.linalg.norm(proj @ proj - proj))
    cont = 0.0
    if alg.system is not None:
        for sub in alg.system.subspaces:
            if sub.dim == 0:
                continue
            b = sub.to_float().basis.to_array()
            pb = proj @ b
            resid = pb - b @ (b.conj().T @ pb)
            cont = max(cont, float(np.linalg.norm(resid)))
    return ComplexSplitWitness(
        element=a,
        eigenvalues=w,
        cluster=list(cluster),
        projector=proj,
        idempotency_residual=idem_res,
        containment_residual=cont,
    )


def find_nontrivial_idempotent(alg: EndAlgebra, seed: int = 0) -> IdempotentSearch:
    """Radical quotient first; then a deterministic sweep of the basis and
    seeded integer combinations, splitting minimal polynomials into coprime
    parts to evaluate exact spectral idempotents."""
    d = alg.ambient_dim
    q = alg.semisimple_dim()
    if alg.dim == 0 or d == 0:
        return IdempotentSearch(status="local", semisimple_dim=q)
    if q == 1:
        return IdempotentSearch(status="local", semisimple_dim=1)

    rng = random.Random(seed)
    attempts = 0
    saw_nonsplit: Matrix | None = None
    field_certified = False

    def candidates():
        for b in alg.basis:
            yield b
        for _ in range(SEARCH_ATTEMPTS):
            coeffs = [rng.randint(-SEARCH_SPAN, SEARCH_SPAN) for _ in range(alg.dim)]
            if not any(coeffs):
                continue
            x = Matrix.zeros(d, d)
            for c, b in zip(coeffs, alg.basis):
                if c:
                    x = x + b.scale(GQ(c))
            yield x

    for x in candidates():
        attempts += 1
        if _is_scalar_mod_radical(alg, x):
            continue
        p = x.minimal_polynomial()
        rep = factor_over_gaussian_rationals(p)
        split = coprime_split(p, rep)
        if split is None:
            if rep.remainder is not None or any(f.degree > 1 for f, _ in rep.factors):
                saw_nonsplit = x
                quads = [f for f, _ in rep.factors if f.degree == 2]
                if (
                    q == 2
                    and rep.remainder is None
                    and len(quads) == 1
                    and not any(f.degree == 1 for f, _ in rep.factors)
                ):
                    # the quotient is Q(i)[x] modulo one irreducible quadratic:
                    # a field, so Idem(A) = {0, I} is certain over Q(i)
                    field_certified = True
            continue
        e = _spectral_idempotent(x, *split)
        if e is not None:
            return IdempotentSearch(
                status="found", idempotent=e, semisimple_dim=q, attempts=attempts
            )
    if saw_nonsplit is not None:
        witness = _numeric_split_witness(alg, saw_nonsplit)
        return IdempotentSearch(
            status="complex_only",
            semisimple_dim=q,
            complex_witness=witness,
            attempts=attempts,
            quotient_field_certified=field_certified,
        )
    return IdempotentSearch(status="inconclusive", semisimple_dim=q, attempts=attempts)


LEAF_STATUS = {
    "local": "indecomposable",
    "complex_only": "indecomposable_over_QI",
    "inconclusive": "unresolved",
}


@dataclass
class DecompositionTree:
    """Flattened decomposition: witness maps the input onto the direct sum of
    the components, subspace by subspace; certificates are the idempotents
    used at the successive splits."""

    components: list
    witness: Matrix
    certificates: list = field(default_factory=list)
    leaf_status: list = field(default_factory=list)

    @property
    def indecomposable(self) -> bool:
        return len(self.components) == 1

    def certified(self) -> bool:
        return all(s == "indecomposable" for s in self.leaf_status)


def decompose(s: SubspaceSystem, seed: int = 0) -> DecompositionTree:
    if s.field != EXACT:
        raise ExactOnlyError("decompose needs the exact backend (see decompose_float)")
    if s.ambient_dim == 0:
        return DecompositionTree(components=[], witness=Matrix.identity(0))
    alg = end_algebra(s)
    found = find_nontrivial_idempotent(alg, seed)
    if found.status != "found":
        return DecompositionTree(
            components=[s],
            witness=Matrix.identity(s.ambient_dim),
            leaf_status=[LEAF_STATUS[found.status]],
        )
    r_idem = found.idempotent
    d = s.ambient_dim
    h1 = Subspace.span(r_idem)
    h2 = Subspace.span(Matrix.identity(d) - r_idem)
    if h1.dim == 0 or h2.dim == 0 or h1.dim + h2.dim != d:
        raise InvariantViolation("idempotent image split failed")
    w0 = Matrix.hstack([h1.basis, h2.basis]).inverse()
    r = h1.dim
    subs1 = []
    subs2 = []
    for e_i in s.subspaces:
        f1 = intersect(e_i, h1)
        f2 = intersect(e_i, h2)
        if f1.dim + f2.dim != e_i.dim:
            raise InvariantViolation("subspace does not split along the idempotent")
        c1 = w0 @ f1.basis
        c2 = w0 @ f2.basis
        if not c1.take_rows(range(r, d)).is_zero() or not c2.take_rows(range(r)).is_zero():
            raise InvariantViolation("split coordinates are not block separated")
        subs1.append(Subspace.span(c1.take_rows(range(r))))
        subs2.append(Subspace.span(c2.take_rows(range(r, d))))
    t1 = decompose(SubspaceSystem(r, subs1), seed * 2 + 1)
    t2 = decompose(SubspaceSystem(d - r, subs2), seed * 2 + 2)
    witness = Matrix.block_diag([t1.witness, t2.witness]) @ w0
    return DecompositionTree(
        components=t1.components + t2.components,
        witness=witness,
        certificates=[r_idem] + t1.certificates + t2.certificates,
        leaf_status=t1.leaf_status + t2.leaf_status,
    )


def verify_decomposition(s: SubspaceSystem, tree: DecompositionTree) -> bool:
    """Exact witness check: witness(input) equals the embedded direct sum."""
    if not tree.components:
        return s.ambient_dim == 0
    total = direct_sum_many(tree.components)
    return s.apply(tree.witness) == total


@dataclass
class IsoResult:
    """Verdict of are_isomorphic: 'isomorphic' (with exact witness),
    'not_isomorphic' (with certified reason), or 'undecided' (evidence only)."""

    status: str
    witness: Matrix | None = None
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == "isomorphic"


def _verify_iso_witness(s, t, w) -> bool:
    if not w.is_invertible():
        return False
    return t == s.apply(w)


def _combine(hom: list, coeffs):
    d_t, d_s = hom[0].rows, hom[0].cols
    x = Matrix.zeros(d_t, d_s)
    for c, b in zip(coeffs, hom):
        if c:
            x = x + b.scale(GQ(c))
    return x


def _find_invertible_hom(hom: list, d: int, seed: int):
    """Invertible combination of a Hom basis.

    Returns (witness, conclusive): when witness is None and conclusive is
    True, the grid {0..d}^m was exhausted, which certifies that no invertible
    intertwiner exists (det has degree <= d in each coefficient)."""
    if not hom:
        return None, True
    if hom[0].rows != hom[0].cols:
        return None, True
    m = len(hom)
    for b in hom:
        if b.is_invertible():
            return b, False
    rng = random.Random(seed)
    for _ in range(SEARCH_ATTEMPTS):
        coeffs = [rng.randint(-SEARCH_SPAN, SEARCH_SPAN) for _ in range(m)]
        if not any(coeffs):
            continue
        x = _combine(hom, coeffs)
        if x.is_invertible():
            return x, False
    if (d + 1) ** m > GRID_BUDGET:
        return None, False
    idx = [0] * m
    while True:
        if any(idx):
            x = _combine(hom, idx)
            if x.is_invertible():
                return x, False
        pos = 0
        while pos < m:
            idx[pos] += 1
            if idx[pos] <= d:
                break
            idx[pos] = 0
            pos += 1
        if pos == m:
            return None, True


def are_isomorphic(s: SubspaceSystem, t: SubspaceSystem, seed: int = 0, _leaf=False) -> IsoResult:
    """Search Hom(s,t) for an exact invertible intertwiner; fall back to
    decomposing both sides and matching indecomposable summands."""
    if s.n != t.n:
        raise DimensionMismatch("are_isomorphic: systems have different arity")
    if s.field != EXACT or t.field != EXACT:
        raise ExactOnlyError("are_isomorphic needs the exact backend")
    if s.ambient_dim != t.ambient_dim:
        return IsoResult(status="not_isomorphic", reason="ambient dimensions differ")
    if s.dims() != t.dims():
        return IsoResult(status="not_isomorphic", reason="subspace dimensions differ")
    if s.ambient_dim == 0:
        return IsoResult(status="isomorphic", witness=Matrix.identity(0))
    hom_st = hom_space(s, t).basis
    if not hom_st:
        return IsoResult(status="not_isomorphic", reason="Hom(s,t) = 0")
    w, conclusive = _find_invertible_hom(hom_st, s.ambient_dim, seed)
    if w is not None:
        if not _verify_iso_witness(s, t, w):
            raise InvariantViolation("invertible intertwiner failed the onto check")
        return IsoResult(status="isomorphic", witness=w)
    if conclusive:
        return IsoResult(
            status="not_isomorphic",
            reason="no invertible intertwiner (grid-certified)",
        )
    if _leaf:
        return IsoResult(
            status="undecided",
            reason="invertibility search inconclusive within budget",
            evidence={"hom_dim": len(hom_st)},
        )
    ds = decompose(s, seed)
    dt = decompose(t, seed + 1)
    if not (ds.certified() and dt.certified()):
        return IsoResult(
            status="undecided",
            reason="decomposition leaves not certified over Q(i)",
            evidence={
                "left_status": ds.leaf_status,
                "right_status": dt.leaf_status,
            },
        )
    return _match_summands(s, t, ds, dt, seed)


def _match_summands(s, t, ds: DecompositionTree, dt: DecompositionTree, seed) -> IsoResult:
    if len(ds.components) != len(dt.components):
        return IsoResult(status="not_isomorphic", reason="summand counts differ")
    used = [False] * len(dt.components)
    matches = []
    for j, cs in enumerate(ds.components):
        hit = None
        for k, ct in enumerate(dt.components):
            if used[k] or cs.ambient_dim != ct.ambient_dim or cs.dims() != ct.dims():
                continue
            sub = are_isomorphic(cs, ct, seed + 17 * (j + 1) + k, _leaf=True)
            if sub.status == "isomorphic":
                hit = (k, sub.witness)
                break
            if sub.status == "undecided":
                return IsoResult(
                    status="undecided",
                    reason=f"summand comparison undecided ({j} vs {k})",
                    evidence=sub.evidence,
                )
        if hit is None:
            return IsoResult(status="not_isomorphic", reason="summand multisets do not match")
        used[hit[0]] = True
        matches.append(hit)
    d = s.ambient_dim
    s_off = []
    off = 0
    for c in ds.components:
        s_off.append(off)
        off += c.ambient_dim
    t_off = []
    off = 0
    for c in dt.components:
        t_off.append(off)
        off += c.ambient_dim
    ents = [ZERO] * (d * d)
    for j, (k, wj) in enumerate(matches):
        rj = ds.components[j].ambient_dim
        for a in range(rj):
            for b in range(rj):
                ents[(t_off[k] + a) * d + (s_off[j] + b)] = wj.entry(a, b)
    mid = Matrix(d, d, EXACT, entries=ents)
    witness = dt.witness.inverse() @ mid @ ds.witness
    if not _verify_iso_witness(s, t, witness):
        raise InvariantViolation("assembled summand-matching witness failed")
    return IsoResult(status="isomorphic", witness=witness)


def is_transitive(s: SubspaceSystem) -> bool:
    """End(S) = scalars."""
    return len(end_algebra(s).basis) == 1


def strongly_irreducible(t: Matrix, seed: int = 0) -> bool:
    """No nontrivial idempotent commutes with t (over Q(i); cross-check with
    jordan_oracle for matrices with Gaussian-rational spectra)."""
    if t.field != EXACT:
        raise ExactOnlyError("strongly_irreducible needs the exact backend")
    alg = commutant_algebra(t)
    res = find_nontrivial_idempotent(alg, seed)
    if res.status == "found":
        return False
    if res.status == "local":
        return True
    # non-split commutant: no Q(i)-idempotent exists, which is what the
    # predicate asks; the jordan_oracle reports such spectra as uncertified
    return True


@dataclass
class JordanReport:
    certified: bool
    blocks: dict
    note: str = ""

    def single_block(self) -> bool:
        sizes = [s for sizes in self.blocks.values() for s in sizes]
        return len(sizes) == 1


def jordan_oracle(t: Matrix) -> JordanReport:
    """Jordan structure from rank sequences rank((t - lambda)^k); certified
    only when the spectrum lies in Q(i)."""
    if t.field != EXACT:
        raise ExactOnlyError("jordan_oracle needs the exact backend")
    if t.rows != t.cols:
        raise DimensionMismatch("jordan_oracle: not square")
    n = t.rows
    p = t.minimal_polynomial()
    rep = factor_over_gaussian_rationals(p)
    if rep.remainder is not None or any(f.degree > 1 for f, _ in rep.factors):
        return JordanReport(
            certified=False,
            blocks={},
            note="spectrum not certified inside Q(i)",
        )
    blocks = {}
    total = 0
    ident = Matrix.identity(n)
    for lam, mult in rep.certified_roots():
        shifted = t - ident.scale(lam)
        ranks = [n]
        power = Matrix.identity(n)
        for _ in range(mult + 1):
            power = power @ shifted
            ranks.append(power.rank())
        sizes = []
        for k in range(1, mult + 1):
            r_prev, r_k = ranks[k - 1], ranks[k]
            r_next = ranks[k + 1] if k + 1 < len(ranks) else ranks[-1]
            count = r_prev - 2 * r_k + r_next
            sizes.extend([k] * count)
        sizes.sort()
        blocks[lam] = sizes
        total += sum(sizes)
    if total != n:
        raise InvariantViolation("jordan block sizes do not fill the dimension")
    return JordanReport(certified=True, blocks=blocks)


@dataclass
class FloatDecomposition:
    components: list
    projector: np.ndarray
    idempotency_residual: float
    containment_residual: float
    split: bool


def decompose_float(s: SubspaceSystem, seed: int = 0, tol: float = 1e-8) -> FloatDecomposition:
    """Numeric split evidence for the truncation lab: a seeded random End
    element, eigenvalue clustering, and an approximate spectral projector."""
    sf = s.to_float(tol)
    basis = hom_space(sf, sf).basis
    rng = np.random.default_rng(seed)
    d = sf.ambient_dim
    x = np.zeros((d, d), dtype=complex)
    for b in basis:
        x += complex(rng.standard_normal(), rng.standard_normal()) * b.to_array()
    alg = EndAlgebra(basis=basis, system=sf)
    witness = _numeric_split_witness(alg, Matrix.from_array(x, tol=tol))
    if witness is None:
        return FloatDecomposition(
            components=[sf], projector=np.eye(d), idempotency_residual=0.0,
            containment_residual=0.0, split=False,
        )
    proj = witness.projector
    h1 = Subspace.span(Matrix.from_array(proj, tol=tol))
    h2 = Subspace.span(Matrix.from_array(np.eye(d) - proj, tol=tol))
    comps = []
    for h in (h1, h2):
        subs = []
        hb = h.basis.to_array()
        for e_i in sf.subspaces:
            if e_i.dim == 0:
                subs.append(Subspace.zero(h.dim, "float", tol))
                continue
            b = e_i.basis.to_array()
            coords = hb.conj().T @ b
            keep = []
            for j in range(b.shape[1]):
                col = b[:, j]
                resid = col - hb @ (hb.conj().T @ col)
                if np.linalg.norm(resid) < 1e-4:
                    keep.append(coords[:, j])
            if keep:
                subs.append(Subspace.span(Matrix.from_array(np.array(keep).T, tol=tol)))
            else:
                subs.append(Subspace.zero(h.dim, "float", tol))
        comps.append(SubspaceSystem(h.dim, subs))
    return FloatDecomposition(
        components=comps,
        projector=proj,
        idempotency_residual=witness.idempotency_residual,
        containment_residual=witness.containment_residual,
        split=True,
    )
