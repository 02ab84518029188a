"""Indecomposability decisions, decompositions with witnesses, isomorphism
testing, transitivity, strong irreducibility, and the Jordan oracle.

Everything on the exact backend is certified where it claims to be; outcomes
that hold only over C (non-split minimal polynomials over Q(i)) are reported
as such, never silently."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (
    DegreeBoundExceeded,
    DimensionMismatch,
    ExactOnlyError,
    InvariantViolation,
    SingularMatrixError,
    UncertifiedError,
)
from .gaussian import GQ, ZERO
from .matrix import EXACT, Matrix
from .poly import coprime_split, factor_over_gaussian_rationals
from .subspace import Subspace
from .system import SubspaceSystem, direct_sum_many, hom_space, is_bounded_operator_system

GRID_BUDGET = 20000
SEARCH_ATTEMPTS = 32
SEARCH_SPAN = 3


@dataclass
class EndAlgebra:
    """End(S) (or any unital matrix algebra) by a basis of d x d matrices."""

    basis: list
    _radical: list | None = field(default=None, init=False, repr=False)
    _semisimple_dim: int | None = field(default=None, init=False, repr=False)

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
                # vec(B_j^T), and row k of `vecs` is vec(B_k), so
                # trace(B_j B_k) = vec(B_j^T)^T vec(B_k) makes the trace form
                # one product; the radical elements, the combinations of the
                # B_j by the kernel vectors, are another.
                flat = Matrix.vstack([b.reshape(1, d * d) for b in self.basis])
                vecs = Matrix.vstack([b.transpose().reshape(1, d * d) for b in self.basis])
                gram = flat @ vecs.transpose()
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
    """End(S) in the basis it is built in: hom_space(s, s).basis, or, for an
    operator system S_{T,S} with k1 = k2 and invertible S, the maps
    W^-1 diag(X, S^-1 X S) W over commutant_basis(ST)."""
    if s.field != EXACT:
        raise ExactOnlyError("end_algebra needs the exact backend")
    basis = _operator_end_basis(s)
    if basis is None:
        basis = hom_space(s, s).basis
    return EndAlgebra(basis=basis)


def _operator_end_basis(s: SubspaceSystem):
    """End(S_{T,S}) = {W^-1 diag(X, S^-1 X S) W : X commutes with ST} for
    k1 = k2 and invertible S, or None for any other system.

    The solve has k^2 unknowns where hom_space has d^2 = 4k^2."""
    if s.n != 4 or s.ambient_dim == 0:
        return None
    real = is_bounded_operator_system(s)
    if real is None or real.k1 != real.k2:
        return None
    try:
        s_inv = real.S.inverse()
    except SingularMatrixError:
        return None
    w = real.change_of_basis
    # W is the inverse of the E1 | E2 basis matrix: no second inversion
    w_inv = Matrix.hstack([s.subspaces[0].basis, s.subspaces[1].basis])
    return [
        w_inv @ Matrix.block_diag([x, s_inv @ x @ real.S]) @ w
        for x in commutant_basis(real.S @ real.T)
    ]


def commutant_basis(t: Matrix):
    """Basis of {B : BT = TB}.  An exact cyclic T (deg mu_T = n) has
    commutant Q(i)[T] (Jacobson, Basic Algebra I, 3.10), with basis I, T,
    ..., T^(n-1); a derogatory T takes the canonical nullspace basis of the
    Sylvester matrix T^T (x) I - I (x) T.  Exact only."""
    if t.field != EXACT:
        raise ExactOnlyError("commutant_basis needs the exact backend")
    if t.rows != t.cols:
        raise DimensionMismatch("commutant of a non-square matrix")
    n = t.rows
    if t.minimal_polynomial().degree == n:
        powers = [Matrix.identity(n)]
        for _ in range(n - 1):
            powers.append(powers[-1] @ t)
        return powers
    ident = Matrix.identity(n)
    m = t.transpose().kron(ident) - ident.kron(t)
    ker = m.nullspace()
    return [Matrix.unvec(ker.column(j), n, n) for j in range(ker.cols)]


@dataclass
class IdempotentSearch:
    """Outcome of the nontrivial-idempotent search.

    status: 'found' | 'local' | 'complex_only' | 'inconclusive'.
    'local' certifies dim(A/rad A) = 1, hence Idem = {0, I} over Q(i) and C."""

    status: str
    idempotent: Matrix | None = None
    semisimple_dim: int = 0
    attempts: int = 0


def _spectral_idempotent(x: Matrix, f, g):
    """Exact idempotent acting as 1 on ker f(x), 0 on ker g(x)."""
    gg, u, v = f.xgcd(g)
    if gg.degree != 0:
        return None
    e = (v * g).eval_matrix(x)
    # f g is the minimal polynomial of x and u f + v g = 1, so e^2 - e =
    # -(u v f g)(x) = 0 exactly
    if not (e @ e == e):
        raise InvariantViolation("v(x) g(x) is not idempotent")
    if e.is_zero() or e.is_identity():
        return None
    return e


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
    saw_nonsplit = False

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
        p = x.minimal_polynomial()
        try:
            rep = factor_over_gaussian_rationals(p)
        except DegreeBoundExceeded:
            # too large to factor: this candidate cannot split
            continue
        split = coprime_split(p, rep)
        if split is None:
            if rep.remainder is not None or any(f.degree > 1 for f, _ in rep.factors):
                saw_nonsplit = True
            continue
        e = _spectral_idempotent(x, *split)
        if e is not None:
            return IdempotentSearch(
                status="found", idempotent=e, semisimple_dim=q, attempts=attempts
            )
    if saw_nonsplit:
        return IdempotentSearch(status="complex_only", semisimple_dim=q, attempts=attempts)
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
    """Split s along a nontrivial idempotent of end_algebra(s), then each
    summand the same way, until the search at a node finds none.

    A found idempotent e splits H = H1 + H2 (image and kernel).  Every E_i is
    e-invariant, so E_i = (E_i ∩ H1) + (E_i ∩ H2), and in the coordinates
    w0 = [H1 | H2]^-1 the two parts are the spans of the top r and bottom
    d - r rows of w0 B_i."""
    if s.field != EXACT:
        raise ExactOnlyError("decompose needs the exact backend")
    d = s.ambient_dim
    if d == 0:
        return DecompositionTree(components=[], witness=Matrix.identity(0))
    found = find_nontrivial_idempotent(end_algebra(s), seed)
    if found.status != "found":
        return DecompositionTree(
            components=[s],
            witness=Matrix.identity(d),
            leaf_status=[LEAF_STATUS[found.status]],
        )
    r_idem = found.idempotent
    h1 = Subspace.span(r_idem)
    h2 = Subspace.span(Matrix.identity(d) - r_idem)
    if h1.dim == 0 or h2.dim == 0 or h1.dim + h2.dim != d:
        raise InvariantViolation("idempotent image split failed")
    w0 = Matrix.hstack([h1.basis, h2.basis]).inverse()
    r = h1.dim
    top, bottom = w0.take_rows(range(r)), w0.take_rows(range(r, d))
    subs1 = []
    subs2 = []
    for e_i in s.subspaces:
        f1 = Subspace.span(top @ e_i.basis)
        f2 = Subspace.span(bottom @ e_i.basis)
        # E_i lies in its two projections' sum, with equality iff e E_i <= E_i
        if f1.dim + f2.dim != e_i.dim:
            raise InvariantViolation("subspace does not split along the idempotent")
        subs1.append(f1)
        subs2.append(f2)
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
    s_off = list(accumulate((c.ambient_dim for c in ds.components), initial=0))
    t_off = list(accumulate((c.ambient_dim for c in dt.components), initial=0))
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
    """No nontrivial idempotent over Q(i) commutes with t.  By the structure
    theorem for Q(i)[x]-modules that holds exactly when t is cyclic
    (deg mu_t = n) and mu_t is a power of one irreducible (Jacobson, Basic
    Algebra I, 3.10), which is read off the certified factoring of mu_t.
    Two coprime parts of mu_t (a certified factor beside the uncertified
    remainder, or two square-free parts) give an idempotent of Q(i)[t], so
    False; a single root-free square-free part of degree 3 or more, which
    factoring cannot split or certify, raises UncertifiedError.  `seed` is
    accepted for callers that pass one and is not used."""
    if t.field != EXACT:
        raise ExactOnlyError("strongly_irreducible needs the exact backend")
    p = t.minimal_polynomial()
    if p.degree < t.rows:
        return False
    rep = factor_over_gaussian_rationals(p)
    if rep.remainder is None:
        # at n = 0, mu = 1 is the empty power
        return len(rep.factors) <= 1
    if rep.factors or len(p.squarefree_decomposition()) > 1:
        return False
    raise UncertifiedError(f"strongly_irreducible: {rep.remainder_note}")


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
        # r_(k-1) - 2 r_k + r_(k+1) blocks of size k, in increasing k
        sizes = [k for k in range(1, mult + 1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]
        blocks[lam] = sizes
        total += sum(sizes)
    if total != n:
        raise InvariantViolation("jordan block sizes do not fill the dimension")
    return JordanReport(certified=True, blocks=blocks)
