"""Systems of n subspaces: direct sums, permutations, Hom spaces, defect,
intersection diagrams, structural predicates, operator-system recognition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .errors import (
    BackendMismatch,
    DimensionMismatch,
    ExactOnlyError,
    InvariantViolation,
    SingularMatrixError,
)
from .matrix import DEFAULT_TOL, EXACT, Matrix
from .subspace import (
    Subspace,
    _annihilator_rows,
    _image,
    check_invertible_map,
    intersect,
    orthoprojection,
    principal_angles,
    sum_,
)


class SubspaceSystem:
    """An ambient dimension with an ordered tuple of subspaces of C^d."""

    __slots__ = ("ambient_dim", "subspaces", "field")

    def __init__(self, ambient_dim: int, subspaces):
        subspaces = tuple(subspaces)
        if not subspaces:
            raise DimensionMismatch("a system needs at least one subspace")
        field = subspaces[0].field
        for s in subspaces:
            if s.ambient_dim != ambient_dim:
                raise DimensionMismatch("subspace ambient dimension differs from system")
            if s.field != field:
                raise BackendMismatch("subspaces with mixed backends")
        self.ambient_dim = ambient_dim
        self.subspaces = subspaces
        self.field = field

    @property
    def n(self) -> int:
        return len(self.subspaces)

    def dims(self):
        return tuple(s.dim for s in self.subspaces)

    def __eq__(self, other):
        if not isinstance(other, SubspaceSystem):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.subspaces == other.subspaces
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.subspaces))

    def __repr__(self):
        return f"SubspaceSystem(d={self.ambient_dim}, dims={self.dims()}, {self.field})"

    def is_zero(self) -> bool:
        return self.ambient_dim == 0

    def to_float(self, tol=DEFAULT_TOL) -> "SubspaceSystem":
        return SubspaceSystem(self.ambient_dim, [s.to_float(tol) for s in self.subspaces])

    def orthocomplement(self) -> "SubspaceSystem":
        return SubspaceSystem(self.ambient_dim, [s.orthocomplement() for s in self.subspaces])

    def apply(self, t: Matrix) -> "SubspaceSystem":
        """Image system under an invertible map, whose shape, backend and
        invertibility are checked once for all the subspaces."""
        check_invertible_map(t, self.ambient_dim, self.field)
        return SubspaceSystem(t.rows, [_image(t, s) for s in self.subspaces])


def zero_system(n: int, field=EXACT) -> SubspaceSystem:
    return SubspaceSystem(0, [Subspace.zero(0, field) for _ in range(n)])


def direct_sum(s: SubspaceSystem, t: SubspaceSystem) -> SubspaceSystem:
    """Block-diagonal embedding of each pair of subspaces."""
    if s.n != t.n:
        raise DimensionMismatch("direct_sum: systems have different arity")
    if s.field != t.field:
        raise BackendMismatch("direct_sum: backends differ")
    d = s.ambient_dim + t.ambient_dim
    subs = []
    for a, b in zip(s.subspaces, t.subspaces):
        blocks = Matrix.block_diag([a.basis, b.basis])
        subs.append(Subspace.span(blocks))
    return SubspaceSystem(d, subs)


def direct_sum_many(systems) -> SubspaceSystem:
    systems = list(systems)
    out = systems[0]
    for s in systems[1:]:
        out = direct_sum(out, s)
    return out


def permute(s: SubspaceSystem, sigma) -> SubspaceSystem:
    """Reorder subspaces: position i receives old subspace sigma(i) (1-based)."""
    perm = tuple(sigma)
    if sorted(perm) != list(range(1, s.n + 1)):
        raise DimensionMismatch(f"not a permutation of 1..{s.n}: {perm}")
    return SubspaceSystem(s.ambient_dim, [s.subspaces[i - 1] for i in perm])


def transposition(n: int, i: int, j: int):
    """The transposition (i j) as a permutation tuple for `permute`."""
    perm = list(range(1, n + 1))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return tuple(perm)


# hom_space refuses more unknowns d_S d_T than this (exit 2): its dense
# constraint matrix has d_S d_T columns and its nullspace up to (d_S d_T)^2
# entries.  The largest Hom that the tests, the acceptance criteria,
# perfbench and benchmarks/cli_digest.py take has 24 x 24 = 576 unknowns
# (the exotic truncation at N = 6 against itself); 32 x 32 is the one at
# N = 8.
MAX_HOM_UNKNOWNS = 1024


def _check_hom_pair(s: SubspaceSystem, t: SubspaceSystem) -> None:
    if s.n != t.n:
        raise DimensionMismatch("Hom: systems have different arity")
    if s.field != t.field:
        raise BackendMismatch("Hom: backends differ")
    if s.field != EXACT:
        raise ExactOnlyError("Hom spaces need the exact backend")


def hom_space(s: SubspaceSystem, t: SubspaceSystem) -> list:
    """A basis of {A : A E_i <= F_i for all i} (d_T x d_S maps), via one nullspace.

    Each containment A E_i <= F_i contributes C_i A B_i = 0 with C_i the left
    annihilator of the target basis: the `_hom_rows` over vec(A)
    (column-major), written dense and primitive by `_hom_constraints`.
    Exact only; past MAX_HOM_UNKNOWNS unknowns d_S d_T it is refused before
    any row is built."""
    _check_hom_pair(s, t)
    ds, dt = s.ambient_dim, t.ambient_dim
    if ds * dt > MAX_HOM_UNKNOWNS:
        raise DimensionMismatch(
            f"hom_space: {ds} x {dt} = {ds * dt} unknowns exceeds the bound {MAX_HOM_UNKNOWNS}"
        )
    re, im, rows = _hom_constraints(s, t)
    ker = Matrix._null_basis(re, im, rows, ds * dt)
    k, kre, kim = ker.cols, ker._re, ker._im
    # map j is column j of the kernel refolded: A[a, b] = N[b dt + a, j]
    spots = [(b * dt + a) * k for a in range(dt) for b in range(ds)]
    return [
        Matrix._ints(dt, ds, [kre[x + j] for x in spots], [kim[x + j] for x in spots], ker._den)
        for j in range(k)
    ]


def _hom_rows(s: SubspaceSystem, t: SubspaceSystem):
    """The rows of the exact blocks B_i^T (x) C_i (B_i the basis of E_i, C_i
    the annihilator of F_i) over vec(A), column-major, each as its nonzero
    entries: (columns, re, im) lists of Gaussian integers.  Each entry is
    one product B[b, j] C[r, a], never a sum, so a row is read off column j
    of B_i's stored numerators and a row of `_annihilator_rows`; scaling
    each block by its denominators moves neither the rank nor the null
    space."""
    dt = t.ambient_dim
    for e_i, f_i in zip(s.subspaces, t.subspaces):
        if e_i.dim == 0:
            continue
        c_rows = _annihilator_rows(f_i)
        b = e_i.basis
        k, re, im = b.cols, b._re, b._im
        for j in range(k):
            col = [(r * dt, re[r * k + j], im[r * k + j])
                   for r in range(b.rows) if re[r * k + j] or im[r * k + j]]
            for c_row in c_rows:
                yield (
                    [o + a for o, _, _ in col for a, _, _ in c_row],
                    [br * cr - bi * ci for _, br, bi in col for _, cr, ci in c_row],
                    [br * ci + bi * cr for _, br, bi in col for _, cr, ci in c_row],
                )


def _hom_constraints(s: SubspaceSystem, t: SubspaceSystem):
    """(re, im, rows): the `_hom_rows` written dense over the d_S d_T
    unknowns, flat row-major, each divided by its content (the gcd of its
    integers) as it is written: the primitive rows that `_echelon` takes."""
    width = s.ambient_dim * t.ambient_dim
    re, im, off = [], [], 0
    for cols, rre, rim in _hom_rows(s, t):
        re += [0] * width
        im += [0] * width
        g = math.gcd(*rre, *rim)
        for c, x, y in zip(cols, rre, rim):
            re[off + c], im[off + c] = x // g, y // g
        off += width
    return re, im, off // width if width else 0


def _peeled_rank(rows) -> int:
    """Exact rank over Q(i) of sparse rows ((columns, re, im), as
    `_hom_rows` yields them) by the singleton steps of sparse LU (Duff,
    Erisman and Reid): a row with one entry forces its unknown to 0, and a
    column with one entry makes its row independent of the others; either
    way the row and the column leave and the rank grows by 1, with no
    arithmetic.  The rows left, the core, go to `Matrix.rank`, whose
    nullspace is multimodular where that pays."""
    rows = list(rows)
    live = {i: dict.fromkeys(r[0]) for i, r in enumerate(rows) if r[0]}
    cols: dict[int, set] = {}
    for i, r in live.items():
        for c in r:
            cols.setdefault(c, set()).add(i)
    single_rows = [i for i, r in live.items() if len(r) == 1]
    single_cols = [c for c, s in cols.items() if len(s) == 1]
    rank = 0
    while single_rows or single_cols:
        if single_rows:
            i = single_rows.pop()
            if len(live.get(i, ())) != 1:
                continue
            (c,) = live[i]
        else:
            c = single_cols.pop()
            if len(cols.get(c, ())) != 1:
                continue
            (i,) = cols[c]
        rank += 1
        for k in live.pop(i):
            cols[k].discard(i)
            if len(cols[k]) == 1:
                single_cols.append(k)
        for j in cols.pop(c):
            r = live[j]
            del r[c]
            if len(r) == 1:
                single_rows.append(j)
            elif not r:
                del live[j]
    if not live:
        return rank
    # the core: the rows left on the columns left, with their entries
    at = {c: k for k, c in enumerate(sorted(c for c, s in cols.items() if s))}
    w = len(at)
    re, im = [0] * (len(live) * w), [0] * (len(live) * w)
    for n, i in enumerate(live):
        for c, x, y in zip(*rows[i]):
            if c in at:
                re[n * w + at[c]], im[n * w + at[c]] = x, y
    return rank + Matrix._ints(len(live), w, re, im).rank()


def hom_dim(s: SubspaceSystem, t: SubspaceSystem) -> int:
    """dim Hom(S, T): d_S d_T minus the rank of the `_hom_rows`, taken by
    `_peeled_rank` without a dense matrix of all the constraints, so it has
    no MAX_HOM_UNKNOWNS bound."""
    _check_hom_pair(s, t)
    return s.ambient_dim * t.ambient_dim - _peeled_rank(_hom_rows(s, t))


@dataclass
class DefectReport:
    """Pairwise intersection/complement dimensions and both defect formulas."""

    dims: tuple
    ambient_dim: int
    m: dict
    nperp: dict
    defect: Fraction
    consistency: bool


def defect(s: SubspaceSystem) -> DefectReport:
    """Gelfand-Ponomarev defect of a four-subspace system, both formulas."""
    if s.n != 4:
        raise DimensionMismatch("defect is defined for four-subspace systems")
    m = {}
    nperp = {}
    total = Fraction(0)
    for i in range(4):
        for j in range(i + 1, 4):
            mij = intersect(s.subspaces[i], s.subspaces[j]).dim
            nij = s.ambient_dim - sum_(s.subspaces[i], s.subspaces[j]).dim
            m[(i + 1, j + 1)] = mij
            nperp[(i + 1, j + 1)] = nij
            total += mij - nij
    pair_form = total / 3
    direct_form = Fraction(sum(s.dims()) - 2 * s.ambient_dim)
    if pair_form != direct_form:
        raise InvariantViolation(
            f"defect formulas disagree: pairwise {pair_form} vs dimension count {direct_form}"
        )
    return DefectReport(
        dims=s.dims(),
        ambient_dim=s.ambient_dim,
        m=m,
        nperp=nperp,
        defect=direct_form,
        consistency=True,
    )


@dataclass
class IntersectionDiagram:
    """Undirected graph on subspace indices; edge i-j iff E_i ∩ E_j = 0."""

    n: int
    edges: frozenset
    connected: bool
    threshold: float | None = None

    def has_edge(self, i, j) -> bool:
        return frozenset((i, j)) in self.edges

    def isolated(self, i) -> bool:
        return not any(i in e for e in self.edges)


def _connected(n, edges) -> bool:
    if n == 0:
        return True
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for e in edges:
            if v in e:
                (w,) = set(e) - {v}
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == n


def diagram_from_pairs(n, meets, smallest, threshold=None) -> IntersectionDiagram:
    """The intersection diagram from per-pair data keyed by (i, j), i < j.

    meets[(i, j)] is dim(E_i ∩ E_j) where it is known exactly (absent on a
    float system); smallest[(i, j)] is the pair's smallest principal angle
    (absent where a subspace is 0).  A pair is joined when its exact
    intersection is 0 and, given a threshold, its smallest angle exceeds
    it.  The exact test comes first: the float angle of an exact
    intersection is small, but not 0."""
    edges = frozenset(
        frozenset(p)
        for p in combinations(range(1, n + 1), 2)
        if not meets.get(p) and (threshold is None or smallest.get(p, math.inf) > threshold)
    )
    return IntersectionDiagram(n, edges, _connected(n, edges), threshold)


def intersection_diagram(s: SubspaceSystem, tol: float | None = None) -> IntersectionDiagram:
    """Edge i-j iff E_i ∩ E_j = 0, by `diagram_from_pairs`: an exact system
    decides each intersection exactly, and a threshold (1e-6 by default on
    a float system) also asks the smallest principal angle to exceed it."""
    exact = s.field == EXACT
    threshold = tol if tol is not None or exact else 1e-6
    meets, smallest = {}, {}
    for i, j in combinations(range(s.n), 2):
        a, b = s.subspaces[i], s.subspaces[j]
        if exact:
            meets[(i + 1, j + 1)] = intersect(a, b).dim
        if threshold is not None and a.dim and b.dim:
            smallest[(i + 1, j + 1)] = principal_angles(a, b)[0]
    return diagram_from_pairs(s.n, meets, smallest, threshold)


class SystemPredicates:
    """The structural predicates of one system.  Each is computed from the
    held system the first time it is read and kept, so a caller that reads
    one pays for no other.

    reduced_above: every n - 1 of the E_i span H.
    reduced_below: every n - 1 of the orthocomplements span H.
    nondegenerate: every pair E_i, E_j spans H and meets in 0.
    projection_sum_invertible: the sum of the orthoprojections is invertible.
    n_minus_1_property: every n - 1 of the E_i span H and meet in 0."""

    def __init__(self, s: SubspaceSystem):
        self.system = s

    @cached_property
    def reduced_above(self) -> bool:
        return _every_n_minus_1_spans(self.system.subspaces)

    @cached_property
    def reduced_below(self) -> bool:
        return _every_n_minus_1_spans([e.orthocomplement() for e in self.system.subspaces])

    @cached_property
    def nondegenerate(self) -> bool:
        return all(
            sum_(a, b).is_full() and intersect(a, b).is_zero()
            for a, b in combinations(self.system.subspaces, 2)
        )

    @cached_property
    def projection_sum_invertible(self) -> bool:
        s = self.system
        proj_sum = Matrix.zeros(s.ambient_dim, s.ambient_dim, s.field)
        for e in s.subspaces:
            proj_sum = proj_sum + orthoprojection(e)
        return proj_sum.is_invertible()

    @cached_property
    def n_minus_1_property(self) -> bool:
        s = self.system
        subs = s.subspaces
        for k in range(s.n):
            rest = subs[:k] + subs[k + 1 :]
            cap = Subspace.full(s.ambient_dim, s.field) if not rest else rest[0]
            for e in rest[1:]:
                cap = intersect(cap, e)
            if not cap.is_zero():
                return False
        return self.reduced_above


def _every_n_minus_1_spans(subs) -> bool:
    """Every family of all the subspaces but one spans the ambient space."""
    zero = Subspace.zero(subs[0].ambient_dim, subs[0].field)
    for k in range(len(subs)):
        acc = zero
        for e in subs[:k] + subs[k + 1 :]:
            acc = sum_(acc, e)
        if not acc.is_full():
            return False
    return True


def predicates(s: SubspaceSystem) -> SystemPredicates:
    return SystemPredicates(s)


@dataclass
class OperatorRealization:
    """Witness that a system is a bounded operator system S_{T,S}.

    change_of_basis W maps the input onto the realization
    (C^{k1+k2}; C^{k1}+0, 0+C^{k2}, graph T, cograph S) subspace-by-subspace.
    """

    T: Matrix
    S: Matrix
    change_of_basis: Matrix
    k1: int
    k2: int


def is_bounded_operator_system(s: SubspaceSystem):
    """Recognize E1 + E2 = H with the (1,2), (2,3), (4,1) pair conditions and
    reconstruct T, S with a change-of-basis witness; None when the criterion
    fails.  Exact only.

    Past the dimension checks (dim a + dim b = d for each pair, so a ∩ b = 0
    already gives a + b = H), three eliminations decide it.
    W = [B_1 | B_2]^-1 exists exactly when E1 ∩ E2 = 0.  In W's coordinates
    E1 and E2 are the coordinate blocks, and E3, E4 have the bases
    G3 = W B_3 and G4 = W B_4.  A vector of G3's span lies in E2 exactly
    when its top k1 coordinates vanish, so E2 ∩ E3 = 0 exactly when
    G3[:k1] is invertible, and then E3 is the graph of
    T = G3[k1:] G3[:k1]^-1; likewise E4 ∩ E1 = 0 exactly when G4[k1:] is
    invertible, and E4 is the cograph of S = G4[:k1] G4[k1:]^-1.  Another
    basis G R of the same span gives the same T and S."""
    if s.n != 4:
        raise DimensionMismatch("operator-system test is for four-subspace systems")
    if s.field != EXACT:
        raise ExactOnlyError("operator-system recognition needs the exact backend")
    e1, e2, e3, e4 = s.subspaces
    d, k1 = s.ambient_dim, e1.dim
    if any(a.dim + b.dim != d for a, b in ((e1, e2), (e2, e3), (e4, e1))):
        return None
    top, bottom = range(k1), range(k1, d)
    try:
        w = Matrix.hstack([e1.basis, e2.basis]).inverse()
        g3, g4 = w @ e3.basis, w @ e4.basis
        t = g3.take_rows(bottom) @ g3.take_rows(top).inverse()
        smat = g4.take_rows(top) @ g4.take_rows(bottom).inverse()
    except SingularMatrixError:
        return None
    return OperatorRealization(T=t, S=smat, change_of_basis=w, k1=k1, k2=e2.dim)
