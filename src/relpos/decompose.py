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
    DimensionMismatch,
    ExactOnlyError,
    InvariantViolation,
    SingularMatrixError,
    UncertifiedError,
)
from .gaussian import GQ
from .matrix import EXACT, Matrix
from .poly import factor_over_gaussian_rationals
from .subspace import Subspace
from .system import SubspaceSystem, direct_sum_many, hom_dim, hom_space, is_bounded_operator_system

SEARCH_ATTEMPTS = 32
SEARCH_SPAN = 3


@dataclass(frozen=True)
class OperatorFrame:
    """The map X -> W^-1 diag(X, S^-1 X S) W from the commutant of ST onto
    End(S_{T,S}), W the change of basis of is_bounded_operator_system.

    It preserves all the search reads: mu_x = mu_X, x is scalar exactly
    when X is, ker p(x) = W^-1 (K + S^-1 K) for K = ker p(X), and
    tr(xy) = 2 tr(XY), so the trace forms have one kernel."""

    w_inv: Matrix
    w: Matrix
    s_inv: Matrix
    s: Matrix

    def lift(self, x: Matrix) -> Matrix:
        return self.w_inv @ Matrix.block_diag([x, self.s_inv @ x @ self.s]) @ self.w

    def lift_kernel(self, k: Matrix) -> Matrix:
        """Columns spanning W^-1 (K + S^-1 K) for the columns K of k."""
        return self.w_inv @ Matrix.block_diag([k, self.s_inv @ k])


class EndAlgebra:
    """End(S), or any unital matrix algebra, by a basis of d x d matrices.

    The search and the radical read `elements`.  For a plain algebra they
    are the basis.  For End(S_{T,S}) they are the k x k commutant elements
    X_j of ST, and `frame` lifts them to the basis x_j of End(S), which is
    built on first read of `basis` only."""

    def __init__(self, basis: list | None = None, *, elements: list | None = None,
                 frame: OperatorFrame | None = None):
        self.elements = basis if frame is None else elements
        self.frame = frame
        self._basis = basis
        self._radical = None
        self._semisimple_dim = None

    @property
    def basis(self) -> list:
        if self._basis is None:
            self._basis = [self.frame.lift(x) for x in self.elements]
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def ambient_dim(self) -> int:
        if self.frame is not None:
            return self.frame.w.rows
        return self.elements[0].rows if self.elements else 0

    def radical_basis(self):
        """Jacobson radical via the trace form (characteristic zero), as
        combinations of `elements`: for a framed algebra, `frame.lift` maps
        them to the radical of End(S)."""
        if self._radical is None:
            m = self.dim
            rad = []
            if m:
                d = self.elements[0].rows
                # Row j of `flat` is the row-major flattening of B_j, i.e.
                # vec(B_j^T), and row k of `vecs` is vec(B_k), so
                # trace(B_j B_k) = vec(B_j^T)^T vec(B_k) makes the trace form
                # one product; the radical elements, the combinations of the
                # B_j by the kernel vectors, are another.
                flat = Matrix.vstack([b.reshape(1, d * d) for b in self.elements])
                vecs = Matrix.vstack([b.transpose().reshape(1, d * d) for b in self.elements])
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
    """End(S) in the basis it is built in: hom_space(s, s), or, for an
    operator system S_{T,S} with k1 = k2 and invertible S, the maps
    W^-1 diag(X, S^-1 X S) W over commutant_basis(ST), held framed."""
    if s.field != EXACT:
        raise ExactOnlyError("end_algebra needs the exact backend")
    return _operator_end_basis(s) or EndAlgebra(basis=hom_space(s, s))


def _operator_end_basis(s: SubspaceSystem):
    """End(S_{T,S}) = {W^-1 diag(X, S^-1 X S) W : X commutes with ST} for
    k1 = k2 and invertible S, framed over the X, or None for any other
    system.

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
    # W is the inverse of the E1 | E2 basis matrix: no second inversion
    w_inv = Matrix.hstack([s.subspaces[0].basis, s.subspaces[1].basis])
    frame = OperatorFrame(w_inv=w_inv, w=real.change_of_basis, s_inv=s_inv, s=real.S)
    return EndAlgebra(elements=commutant_basis(real.S @ real.T), frame=frame)


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
        # T itself, not I T, so a search candidate T reuses its memoised mu
        powers = [Matrix.identity(n), t][: max(n, 1)]
        for _ in range(n - 2):
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
    'local' certifies dim(A/rad A) = 1, hence Idem = {0, I} over Q(i) and C.
    semisimple_dim is dim(A/rad A) wherever the search took the radical,
    which is every outcome but 'found'; it is None for 'found', whose
    idempotents are their own certificate.

    For 'found', kernels holds the canonical bases H_1, ..., H_k (k >= 2)
    of ker p_j(x) for the coprime parts p_j of the minimal polynomial of a
    candidate x, and w0 = [H_1 | ... | H_k]^-1.  With W_j the row blocks of
    w0, the idempotents e_j = H_j W_j are orthogonal and sum to I."""

    status: str
    kernels: list = field(default_factory=list)
    w0: Matrix | None = None
    semisimple_dim: int | None = None
    attempts: int = 0

    def row_blocks(self) -> list:
        """W_1, ..., W_k: the rows of w0 that give coordinates in H_j."""
        ends = list(accumulate(h.cols for h in self.kernels))
        return [self.w0.take_rows(range(b - h.cols, b)) for h, b in zip(self.kernels, ends)]

    @property
    def idempotents(self) -> list:
        return [h @ w for h, w in zip(self.kernels, self.row_blocks())]


def _primary_split(x: Matrix, parts: list, frame: OperatorFrame | None = None):
    """(kernels, w0) for the pairwise coprime parts p_j of mu_x: the
    canonical bases H_j of ker p_j(x) and w0 = [H_1 | ... | H_k]^-1.  The
    H_j fill the space exactly when the parts multiply to mu_x.  With a
    frame, x is a commutant element X and H_j spans frame.lift_kernel of
    ker p_j(X), which is ker p_j of the lifted x."""
    kernels = []
    for p in parts:
        px = p.eval_matrix(x)
        h = Subspace.kernel(px) if frame is None else Subspace.span(frame.lift_kernel(px.nullspace()))
        kernels.append(h.basis)
    dims = [h.cols for h in kernels]
    if 0 in dims or sum(dims) != (x.rows if frame is None else frame.w.rows):
        raise InvariantViolation("the kernels of the coprime parts do not fill the space")
    return kernels, Matrix.hstack(kernels).inverse()


def _split_candidate(x: Matrix, frame: OperatorFrame | None = None):
    """(split, nonsplit): _primary_split along the coprime parts of mu_x,
    or None when there are fewer than two, and whether mu_x showed a factor
    that is not linear over Q(i)."""
    rep = factor_over_gaussian_rationals(x.minimal_polynomial())
    parts = rep.coprime_parts()
    if len(parts) < 2:
        return None, rep.remainder is not None or any(f.degree > 1 for f, _ in rep.factors)
    return _primary_split(x, parts, frame), False


def _combine(basis: list, coeffs):
    x = Matrix.zeros(basis[0].rows, basis[0].cols)
    for c, b in zip(coeffs, basis):
        if c:
            x = x + b.scale(GQ(c))
    return x


def _candidates(basis: list, seed: int):
    """The one candidate stream of both searches: the basis, then
    SEARCH_ATTEMPTS combinations of it whose coefficients random.Random(seed)
    draws from [-SEARCH_SPAN, SEARCH_SPAN]; an all-zero draw is skipped."""
    yield from basis
    rng = random.Random(seed)
    for _ in range(SEARCH_ATTEMPTS):
        coeffs = [rng.randint(-SEARCH_SPAN, SEARCH_SPAN) for _ in basis]
        if any(coeffs):
            yield _combine(basis, coeffs)


def find_nontrivial_idempotent(alg: EndAlgebra, seed: int = 0) -> IdempotentSearch:
    """A deterministic sweep of the basis and seeded integer combinations
    that stops at the first candidate x whose minimal polynomial has k >= 2
    coprime parts (FactorReport.coprime_parts) and answers 'found' with the
    primary decomposition ker p_1(x) + ... + ker p_k(x) of the space.

    The candidates are drawn from alg.elements, so a framed End(S_{T,S})
    is searched on k x k commutant elements; the frame preserves every
    test the search makes, and the kernels are lifted to the space of S.

    A scalar candidate counts as an attempt but is passed over: its minimal
    polynomial x - c cannot split.  The trace-form radical is taken only
    once the first other candidate fails, and q = dim(A/rad A) = 1 then
    answers 'local' (a local algebra splits on no candidate, and the
    candidates do not depend on q, so no outcome moves).  An algebra of
    dimension <= 1 is answered from q alone."""
    if alg.dim <= 1 or alg.ambient_dim == 0:
        return IdempotentSearch(status="local", semisimple_dim=alg.semisimple_dim())

    attempts = 0
    saw_nonsplit = False
    for x in _candidates(alg.elements, seed):
        attempts += 1
        if x.is_scalar():
            continue
        split, nonsplit = _split_candidate(x, alg.frame)
        if split is not None:
            kernels, w0 = split
            return IdempotentSearch(status="found", kernels=kernels, w0=w0, attempts=attempts)
        saw_nonsplit = saw_nonsplit or nonsplit
        # the radical is cached, so it is computed after the first failure only
        if alg.semisimple_dim() == 1:
            return IdempotentSearch(status="local", semisimple_dim=1, attempts=attempts)
    status = "complex_only" if saw_nonsplit else "inconclusive"
    return IdempotentSearch(status=status, semisimple_dim=alg.semisimple_dim(), attempts=attempts)


LEAF_STATUS = {
    "local": "indecomposable",
    "complex_only": "indecomposable_over_QI",
    "inconclusive": "unresolved",
}


@dataclass
class DecompositionTree:
    """Flattened decomposition: witness maps the input onto the direct sum of
    the components, subspace by subspace (verify_decomposition checks it)."""

    components: list
    witness: Matrix
    leaf_status: list = field(default_factory=list)

    @property
    def indecomposable(self) -> bool:
        return len(self.components) == 1

    def certified(self) -> bool:
        return all(s == "indecomposable" for s in self.leaf_status)


def decompose(s: SubspaceSystem, seed: int = 0) -> DecompositionTree:
    """Split s along a nontrivial idempotent of end_algebra(s), then each
    summand the same way, until the search at a node finds none.  A node
    in C^1 is an 'indecomposable' leaf without End: each subspace of C^1
    is 0 or C^1, so End(S) is the scalars.

    A found candidate x splits H = H_1 + ... + H_k along the k coprime parts
    of its minimal polynomial, H_j = ker p_j(x), all in one step.  Every E_i
    is invariant under the idempotents e_j onto H_j, so E_i is the sum of
    the E_i ∩ H_j, and in the coordinates w0 = [H_1 | ... | H_k]^-1 part j
    is the span of W_j B_i, W_j the j-th row block of w0.  Child j gets seed
    seed * k + j + 1."""
    if s.field != EXACT:
        raise ExactOnlyError("decompose needs the exact backend")
    d = s.ambient_dim
    if d == 0:
        return DecompositionTree(components=[], witness=Matrix.identity(0))
    if d == 1:
        return DecompositionTree(
            components=[s], witness=Matrix.identity(1), leaf_status=["indecomposable"]
        )
    found = find_nontrivial_idempotent(end_algebra(s), seed)
    if found.status != "found":
        return DecompositionTree(
            components=[s],
            witness=Matrix.identity(d),
            leaf_status=[LEAF_STATUS[found.status]],
        )
    k = len(found.kernels)
    blocks = found.row_blocks()
    parts = [[Subspace.span(w @ e_i.basis) for e_i in s.subspaces] for w in blocks]
    for i, e_i in enumerate(s.subspaces):
        # E_i lies in the sum of its projections, with equality iff e_j E_i <= E_i
        if sum(subs[i].dim for subs in parts) != e_i.dim:
            raise InvariantViolation("subspace does not split along the idempotents")
    trees = [
        decompose(SubspaceSystem(w.rows, subs), seed * k + j + 1)
        for j, (w, subs) in enumerate(zip(blocks, parts))
    ]
    return DecompositionTree(
        components=[c for t in trees for c in t.components],
        witness=Matrix.block_diag([t.witness for t in trees]) @ found.w0,
        leaf_status=[st for t in trees for st in t.leaf_status],
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
    'not_isomorphic' (with certified reason), or 'undecided' (a leaf of a
    decomposition is not certified)."""

    status: str
    witness: Matrix | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "isomorphic"


def _verify_iso_witness(s, t, w) -> bool:
    if not w.is_invertible():
        return False
    return t == s.apply(w)


def _find_invertible_hom(hom: list, seed: int):
    """The first invertible candidate of _candidates(hom, seed), or None."""
    return next((x for x in _candidates(hom, seed) if x.is_invertible()), None)


def are_isomorphic(s: SubspaceSystem, t: SubspaceSystem, seed: int = 0) -> IsoResult:
    """Decide s ≅ t with one certificate per question, in this order.

    Different ambient or subspace dimensions, or Hom(s, t) = 0, answer
    'not_isomorphic'.  Otherwise the candidates of Hom(s, t) (its basis,
    then the seeded combinations) are searched for an invertible
    intertwiner, the witness of 'isomorphic'.  When none is found, an
    isomorphism phi would give Hom(s, t) = phi End(s) = End(t) phi, so
    unequal dimensions of Hom(s, t), End(s) and End(t) answer
    'not_isomorphic'.  Past that, both sides are decomposed, and an
    uncertified leaf answers 'undecided'.  Certified leaves are matched by
    Krull–Schmidt in _match_summands."""
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
    hom_st = hom_space(s, t)
    if not hom_st:
        return IsoResult(status="not_isomorphic", reason="Hom(s,t) = 0")
    w = _find_invertible_hom(hom_st, seed)
    if w is not None:
        if not _verify_iso_witness(s, t, w):
            raise InvariantViolation("invertible intertwiner failed the onto check")
        return IsoResult(status="isomorphic", witness=w)
    if not len(hom_st) == hom_dim(s, s) == hom_dim(t, t):
        return IsoResult(status="not_isomorphic", reason="dim Hom(s,t), dim End(s) and dim End(t) not all equal")
    ds = decompose(s, seed)
    dt = decompose(t, seed + 1)
    if not (ds.certified() and dt.certified()):
        return IsoResult(status="undecided", reason="decomposition leaves not certified over Q(i)")
    return _match_summands(s, t, ds, dt)


def _match_summands(s, t, ds: DecompositionTree, dt: DecompositionTree) -> IsoResult:
    """Krull–Schmidt on certified leaves: s ≅ t exactly when their leaves
    match one to one.  A certified leaf a has a local End (End/rad = Q(i)),
    so if a ≅ b through phi, the non-invertible maps of Hom(a, b) form the
    proper subspace phi rad End(a), and some basis element of Hom(a, b) is
    invertible exactly when a ≅ b."""
    if len(ds.components) != len(dt.components):
        return IsoResult(status="not_isomorphic", reason="summand counts differ")
    owner = [None] * len(dt.components)  # owner[k]: the leaf of s matched to leaf k of t
    maps = []
    for j, cs in enumerate(ds.components):
        for k, ct in enumerate(dt.components):
            if owner[k] is not None or cs.ambient_dim != ct.ambient_dim or cs.dims() != ct.dims():
                continue
            w = next((x for x in hom_space(cs, ct) if x.is_invertible()), None)
            if w is not None:
                owner[k] = j
                maps.append(w)
                break
        else:
            return IsoResult(status="not_isomorphic", reason="summand multisets do not match")
    # block j of the block diagonal maps leaf j of s onto its match; its rows move to that place
    off = list(accumulate((c.ambient_dim for c in ds.components), initial=0))
    mid = Matrix.block_diag(maps).take_rows([r for j in owner for r in range(off[j], off[j + 1])])
    witness = dt.witness.inverse() @ mid @ ds.witness
    if not _verify_iso_witness(s, t, witness):
        raise InvariantViolation("assembled summand-matching witness failed")
    return IsoResult(status="isomorphic", witness=witness)


def is_transitive(s: SubspaceSystem) -> bool:
    """End(S) = scalars."""
    return end_algebra(s).dim == 1


def strongly_irreducible(t: Matrix, seed: int = 0) -> bool:
    """No nontrivial idempotent over Q(i) commutes with t.  By the structure
    theorem for Q(i)[x]-modules that holds exactly when t is cyclic
    (deg mu_t = n) and mu_t is a power of one irreducible (Jacobson, Basic
    Algebra I, 3.10), which is read off the certified factoring of mu_t.
    Two coprime parts of mu_t (FactorReport.coprime_parts) give an
    idempotent of Q(i)[t], so False.  Factoring finds every root in Q(i),
    so a single part that is a power of a linear factor or of a root-free
    quadratic is a power of an irreducible, so True; a single root-free
    square-free part of degree 3 or more, whose factors are not certified,
    raises UncertifiedError.  `seed` is accepted for callers that pass one
    and is not used."""
    if t.field != EXACT:
        raise ExactOnlyError("strongly_irreducible needs the exact backend")
    p = t.minimal_polynomial()
    if p.degree < t.rows:
        return False
    rep = factor_over_gaussian_rationals(p)
    if len(rep.coprime_parts()) > 1:
        return False
    if rep.remainder is None:
        # at n = 0, mu = 1 is the empty power
        return True
    raise UncertifiedError(f"strongly_irreducible: {rep.remainder_note}")


@dataclass
class JordanReport:
    certified: bool
    blocks: dict

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
        return JordanReport(certified=False, blocks={})
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
