"""Coxeter functors on subspace systems: the subspace-wise orthocomplement,
the kernel-of-sum functor, its dual, and the projection variant, with the
duality and defect-preservation checks.

The kernel space is materialized in kernel-basis coordinates (an abstract
C^h), which keeps ambient dimensions small under iteration and makes each
image subspace a plain nullspace; the price is that identities stated with
the geometry of the big direct sum hold up to an explicit Gram-matrix
witness, which the checks carry around exactly.

Every functor reads its subspaces off one kernel: N, the canonical basis of
ker tau for the sum map tau = [B_1 ... B_n], split into its row blocks N_k
(one per subspace).  Phi-plus(S) takes E_k+ = ker N_k; Phi-minus(S) takes
E_k- = range N_k* on the kernel of the sum map of S-perp, which is
(ker N_k)-perp, so perp . plus . perp in one step; Phi-zero(S) takes
E_k0 = G^-1 range N_k*, G = N* diag(B_k* B_k) N the Gram of the kernel."""

from __future__ import annotations

from dataclasses import dataclass, field

from .decompose import are_isomorphic, decompose
from .errors import InvariantViolation, SingularMatrixError
from .matrix import Matrix
from .subspace import Subspace, orthoprojection
from .system import SubspaceSystem, defect, predicates, zero_system


@dataclass
class CoxeterResult:
    """Image system plus construction data: the chosen kernel basis N of the
    sum map and, for Phi-zero, the Gram of N and the p0 cross-check."""

    system: SubspaceSystem
    kernel_basis: Matrix
    bookkeeping: dict = field(default_factory=dict)


def phi_perp(s: SubspaceSystem) -> SubspaceSystem:
    """Orthocomplement each subspace (contravariant on homs)."""
    return s.orthocomplement()


def phi_perp_hom(a: Matrix) -> Matrix:
    """Hom(S,T) -> Hom(T-perp, S-perp): the conjugate transpose."""
    return a.conj_transpose()


def _kernel_blocks(s: SubspaceSystem):
    """(N, [N_1, ..., N_n]): the canonical kernel basis N of the sum map
    tau = [B_1 ... B_n] : coordinates of (+) E_k -> H, and its row blocks,
    N_k being the dim E_k rows of the k-th coordinates."""
    bases = [sub.basis for sub in s.subspaces if sub.dim]
    tau = Matrix.hstack(bases) if bases else Matrix.zeros(s.ambient_dim, 0, s.field)
    ker = tau.nullspace()  # (sum dims) x h
    if not (tau @ ker).is_zero():
        raise InvariantViolation("kernel basis fails tau N = 0")
    blocks = []
    off = 0
    for sub in s.subspaces:
        blocks.append(ker.take_rows(range(off, off + sub.dim)))
        off += sub.dim
    return ker, blocks


def phi_plus(s: SubspaceSystem) -> CoxeterResult:
    """Kernel-of-sum construction: H+ = ker tau in kernel-basis coordinates,
    k-th subspace E_k+ = ker N_k, the vanishing of the k-th coordinate block."""
    ker, blocks = _kernel_blocks(s)
    h = ker.cols
    if h == 0:
        return CoxeterResult(system=zero_system(s.n, s.field), kernel_basis=ker)
    subs = [
        Subspace.kernel(block) if block.rows else Subspace.full(h, s.field)
        for block in blocks
    ]
    return CoxeterResult(system=SubspaceSystem(h, subs), kernel_basis=ker)


def phi_minus(s: SubspaceSystem) -> CoxeterResult:
    """The dual functor perp . plus . perp, read off the kernel N of the sum
    map of S-perp: E_k- = (ker N_k)-perp = range N_k*."""
    ker, blocks = _kernel_blocks(phi_perp(s))
    h = ker.cols
    if h == 0:
        return CoxeterResult(system=zero_system(s.n, s.field), kernel_basis=ker)
    subs = [Subspace.span(block.conj_transpose()) for block in blocks]
    return CoxeterResult(system=SubspaceSystem(h, subs), kernel_basis=ker)


def phi_zero(s: SubspaceSystem) -> CoxeterResult:
    """Projection variant: same kernel space, subspaces are the orthogonal
    projections of the embedded blocks onto it, E_k0 = G^-1 range N_k* for
    the Gram G = N* diag(B_k* B_k) N of the kernel (the projection's factor
    B_k* B_k is invertible, so it leaves the span alone).

    When the sum of the orthogonal projections is invertible the explicit
    single-formula projection is evaluated as well and cross-checked against
    the generic Gram-solve projection."""
    ker, blocks = _kernel_blocks(s)
    h = ker.cols
    if h == 0:
        return CoxeterResult(system=zero_system(s.n, s.field), kernel_basis=ker)
    weight = Matrix.block_diag(
        [sub.basis.conj_transpose() @ sub.basis for sub in s.subspaces if sub.dim]
    )
    gram = ker.conj_transpose() @ weight @ ker  # h x h, invertible
    gram_inv = gram.inverse()
    subs = [Subspace.span(gram_inv @ block.conj_transpose()) for block in blocks]
    result = CoxeterResult(
        system=SubspaceSystem(h, subs), kernel_basis=ker, bookkeeping={"gram": gram}
    )
    _phi_zero_p0_crosscheck(s, result)
    return result


def _phi_zero_p0_crosscheck(s, result: CoxeterResult):
    """Evaluate the explicit projection formula (valid when the sum of the
    orthogonal projections is invertible) and compare spans exactly."""
    projections = [orthoprojection(sub) for sub in s.subspaces]
    f = Matrix.zeros(s.ambient_dim, s.ambient_dim, s.field)
    for p in projections:
        f = f + p
    try:
        f_inv = f.inverse()
    except SingularMatrixError:
        result.bookkeeping["p0_crosscheck"] = "skipped (projection sum singular)"
        return
    ker = result.kernel_basis
    for k, sub in enumerate(s.subspaces):
        if sub.dim == 0:
            continue
        cols = []
        for j in range(sub.dim):
            a_k = sub.basis.column(j)  # embedded generator, block k
            # p0(a)_l = delta_lk a - e_l f^{-1} a, assembled in coordinates
            coord_blocks = []
            for l, sub_l in enumerate(s.subspaces):
                if sub_l.dim == 0:
                    continue
                v = projections[l] @ f_inv @ a_k
                target = (a_k - v) if l == k else -v
                w = sub_l.basis.solve(target)
                if w is None:
                    raise InvariantViolation("p0 image leaves its block subspace")
                coord_blocks.append(w)
            cols.append(Matrix.vstack(coord_blocks))
        stacked = Matrix.hstack(cols)
        coords = ker.solve(stacked)
        if coords is None:
            raise InvariantViolation("p0 image is not inside ker tau")
        got = Subspace.span(coords)
        if got != result.system.subspaces[k]:
            raise InvariantViolation("p0 formula disagrees with Gram projection")
    result.bookkeeping["p0_crosscheck"] = "passed"


@dataclass
class DualityReport:
    """Per-clause outcomes of the duality and preservation theorems;
    inapplicable clauses are marked 'skipped'."""

    predicates: object
    clauses: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(v in ("pass", "skipped") for v in self.clauses.values())


def _identity_clause(report: DualityReport, name, image, inverse, s, seed):
    """Clause `name`: inverse(image) is isomorphic to s; skipped when the
    clause does not apply (image is None)."""
    if image is None:
        report.clauses[name] = "skipped"
        return
    report.clauses[name] = "pass" if are_isomorphic(inverse(image).system, s, seed=seed) else "fail"


def check_duality(s: SubspaceSystem, seed: int = 0, check_indecomposability=True) -> DualityReport:
    """The five duality clauses, building Phi-plus(S), Phi-minus(S) and the
    defect of S once each, as the first clause that needs them is reached."""
    preds = predicates(s)
    report = DualityReport(predicates=preds)
    clauses = report.clauses

    plus = phi_plus(s).system if preds.reduced_above else None
    _identity_clause(report, "minus_plus_identity", plus, phi_minus, s, seed)
    minus = phi_minus(s).system if preds.reduced_below else None
    _identity_clause(report, "plus_minus_identity", minus, phi_plus, s, seed + 1)

    rho = None
    if s.n == 4 and (plus is not None or minus is not None):
        rho = defect(s).defect
    for name, image in (("plus_preserves_defect", plus), ("minus_preserves_defect", minus)):
        if rho is not None and image is not None:
            clauses[name] = "pass" if defect(image).defect == rho else "fail"
        else:
            clauses[name] = "skipped"

    clauses["plus_preserves_indecomposable"] = "skipped"
    if (check_indecomposability and plus is not None and s.ambient_dim > 0
            and predicates(plus).reduced_below and not plus.is_zero()):
        src = decompose(s, seed=seed + 2)
        if src.indecomposable and src.certified():
            img = decompose(plus, seed=seed + 3)
            clauses["plus_preserves_indecomposable"] = "pass" if img.indecomposable else "fail"
    return report


def phi_plus_perp_zero_witness(s: SubspaceSystem):
    """The exact invertible witness carrying phi_perp(phi_zero(s)) onto
    phi_plus(s): the inverse Gram twist of the kernel coordinates."""
    zero_res = phi_zero(s)
    if zero_res.system.ambient_dim == 0:
        return zero_res, Matrix.identity(0)
    gram = zero_res.bookkeeping["gram"]
    return zero_res, gram.inverse()
