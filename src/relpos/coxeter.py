"""Coxeter functors on subspace systems: the subspace-wise orthocomplement,
the kernel-of-sum functor, its dual, and the projection variant, with the
duality and defect-preservation checks.

The kernel space is materialized in kernel-basis coordinates (an abstract
C^h), which keeps ambient dimensions small under iteration and makes each
image subspace a plain nullspace; the price is that identities stated with
the geometry of the big direct sum hold up to an explicit Gram-matrix
witness, which the checks carry around exactly."""

from __future__ import annotations

from dataclasses import dataclass, field

from .decompose import are_isomorphic, decompose
from .errors import InvariantViolation
from .matrix import Matrix
from .subspace import Subspace, orthoprojection
from .system import SubspaceSystem, defect, predicates, zero_system


@dataclass
class CoxeterResult:
    """Image system plus construction data: the chosen kernel basis N of the
    sum map (when applicable) and a per-subspace bookkeeping trace."""

    system: SubspaceSystem
    kernel_basis: Matrix | None = None
    bookkeeping: dict = field(default_factory=dict)


def phi_perp(s: SubspaceSystem) -> SubspaceSystem:
    """Orthocomplement each subspace (contravariant on homs)."""
    return s.orthocomplement()


def phi_perp_hom(a: Matrix) -> Matrix:
    """Hom(S,T) -> Hom(T-perp, S-perp): the conjugate transpose."""
    return a.conj_transpose()


def _sum_map(s: SubspaceSystem):
    """tau = [B_1 ... B_n] : coordinates of (+) E_i -> H, with block offsets."""
    blocks = [sub.basis for sub in s.subspaces]
    offsets = []
    off = 0
    for b in blocks:
        offsets.append(off)
        off += b.cols
    if off == 0:
        tau = Matrix.zeros(s.ambient_dim, 0, s.field)
    else:
        tau = Matrix.hstack([b for b in blocks if b.cols > 0])
    return tau, offsets, off


def phi_plus(s: SubspaceSystem) -> CoxeterResult:
    """Kernel-of-sum construction: H+ = ker tau in kernel-basis coordinates,
    k-th subspace = vanishing of the k-th coordinate block."""
    tau, offsets, total = _sum_map(s)
    n = s.n
    ker = tau.nullspace()  # (sum dims) x h
    h = ker.cols
    subs = []
    trace = {}
    for k in range(n):
        dim_k = s.subspaces[k].dim
        if dim_k == 0 or h == 0:
            subs.append(Subspace.full(h, s.field))
            trace[k + 1] = {"block_rows": (offsets[k], offsets[k]), "dim": h}
            continue
        block = ker.take_rows(range(offsets[k], offsets[k] + dim_k))
        sub = Subspace.span(block.nullspace())
        subs.append(sub)
        trace[k + 1] = {
            "block_rows": (offsets[k], offsets[k] + dim_k),
            "dim": sub.dim,
        }
    if not (tau @ ker).is_zero():
        raise InvariantViolation("kernel basis fails tau N = 0")
    out = SubspaceSystem(h, subs) if h > 0 else zero_system(n, s.field)
    return CoxeterResult(system=out, kernel_basis=ker, bookkeeping={
        "ambient": h,
        "sum_dims": total,
        "trace": trace,
    })


def phi_minus(s: SubspaceSystem) -> CoxeterResult:
    """The dual functor, computed by the perp-plus-perp composition."""
    inner = phi_plus(phi_perp(s))
    return CoxeterResult(
        system=phi_perp(inner.system),
        kernel_basis=inner.kernel_basis,
        bookkeeping={"via": "perp . plus . perp", **inner.bookkeeping},
    )


def _gram_weight(s: SubspaceSystem) -> Matrix:
    """Block-diagonal Gram of the subspace bases: the inner product of the
    big direct sum in coordinate form."""
    blocks = [
        sub.basis.conj_transpose() @ sub.basis for sub in s.subspaces if sub.dim > 0
    ]
    if not blocks:
        return Matrix.zeros(0, 0, s.field)
    return Matrix.block_diag(blocks)


def phi_zero(s: SubspaceSystem) -> CoxeterResult:
    """Projection variant: same kernel space, subspaces are the orthogonal
    projections of the embedded blocks onto it.

    When the sum of the orthogonal projections is invertible the explicit
    single-formula projection is evaluated as well and cross-checked against
    the generic Gram-solve projection."""
    plus = phi_plus(s)
    ker = plus.kernel_basis
    h = ker.cols if ker is not None else 0
    n = s.n
    if h == 0:
        return CoxeterResult(system=zero_system(n, s.field), kernel_basis=ker,
                             bookkeeping={"ambient": 0})
    weight = _gram_weight(s)
    gram = ker.conj_transpose() @ weight @ ker  # h x h, invertible
    gram_inv = gram.inverse()
    tau, offsets, total = _sum_map(s)
    subs = []
    for k in range(n):
        dim_k = s.subspaces[k].dim
        if dim_k == 0:
            subs.append(Subspace.zero(h, s.field))
            continue
        block = ker.take_rows(range(offsets[k], offsets[k] + dim_k))
        gram_k = s.subspaces[k].basis.conj_transpose() @ s.subspaces[k].basis
        image = gram_inv @ block.conj_transpose() @ gram_k
        subs.append(Subspace.span(image))
    out = SubspaceSystem(h, subs)
    result = CoxeterResult(system=out, kernel_basis=ker, bookkeeping={
        "ambient": h,
        "gram": gram,
    })
    _phi_zero_p0_crosscheck(s, result, tau, offsets)
    return result


def _phi_zero_p0_crosscheck(s, result: CoxeterResult, tau, offsets):
    """Evaluate the explicit projection formula (valid when the sum of the
    orthogonal projections is invertible) and compare spans exactly."""
    f = Matrix.zeros(s.ambient_dim, s.ambient_dim, s.field)
    for sub in s.subspaces:
        f = f + orthoprojection(sub)
    if not f.is_invertible():
        result.bookkeeping["p0_crosscheck"] = "skipped (projection sum singular)"
        return
    f_inv = f.inverse()
    ker = result.kernel_basis
    h = ker.cols
    projections = [orthoprojection(sub) for sub in s.subspaces]
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
    witnesses: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(v in ("pass", "skipped") for v in self.clauses.values())


def check_duality(s: SubspaceSystem, seed: int = 0, check_indecomposability=True) -> DualityReport:
    preds = predicates(s)
    report = DualityReport(predicates=preds)

    if preds.reduced_above:
        back = phi_minus(phi_plus(s).system).system
        iso = are_isomorphic(back, s, seed=seed)
        report.clauses["minus_plus_identity"] = "pass" if iso else "fail"
        if iso:
            report.witnesses["minus_plus_identity"] = iso.witness
    else:
        report.clauses["minus_plus_identity"] = "skipped"

    if preds.reduced_below:
        back = phi_plus(phi_minus(s).system).system
        iso = are_isomorphic(back, s, seed=seed + 1)
        report.clauses["plus_minus_identity"] = "pass" if iso else "fail"
        if iso:
            report.witnesses["plus_minus_identity"] = iso.witness
    else:
        report.clauses["plus_minus_identity"] = "skipped"

    if s.n == 4 and preds.reduced_above:
        rho = defect(s).defect
        rho_plus = defect(phi_plus(s).system).defect
        report.clauses["plus_preserves_defect"] = "pass" if rho_plus == rho else "fail"
    else:
        report.clauses["plus_preserves_defect"] = "skipped"

    if s.n == 4 and preds.reduced_below:
        rho = defect(s).defect
        rho_minus = defect(phi_minus(s).system).defect
        report.clauses["minus_preserves_defect"] = "pass" if rho_minus == rho else "fail"
    else:
        report.clauses["minus_preserves_defect"] = "skipped"

    if check_indecomposability and preds.reduced_above and s.ambient_dim > 0:
        plus = phi_plus(s).system
        if predicates(plus).reduced_below and not plus.is_zero():
            src = decompose(s, seed=seed + 2)
            if src.indecomposable and src.certified():
                img = decompose(plus, seed=seed + 3)
                report.clauses["plus_preserves_indecomposable"] = (
                    "pass" if img.indecomposable else "fail"
                )
            else:
                report.clauses["plus_preserves_indecomposable"] = "skipped"
        else:
            report.clauses["plus_preserves_indecomposable"] = "skipped"
    else:
        report.clauses["plus_preserves_indecomposable"] = "skipped"
    return report


def phi_plus_perp_zero_witness(s: SubspaceSystem):
    """The exact invertible witness carrying phi_perp(phi_zero(s)) onto
    phi_plus(s): the inverse Gram twist of the kernel coordinates."""
    zero_res = phi_zero(s)
    if zero_res.system.ambient_dim == 0:
        return zero_res, Matrix.identity(0)
    gram = zero_res.bookkeeping["gram"]
    return zero_res, gram.inverse()
