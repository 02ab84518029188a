"""Two-subspace numerics: the five-part canonical decomposition, principal
angles, and the classification of two-subspace systems.

Vectors, cosines, sines and angles all come from `subspace.principal_pairs`.
Corner membership (angle 0 or pi/2) is decided against `CORNER_TOL` on the
angle scale for a float pair, and by the exact lattice counts for an exact
one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .matrix import EXACT
from .subspace import Subspace, intersect, principal_pairs
from .system import SubspaceSystem

# radians: an angle within it of 0 puts its pair into E ∩ F, within it of
# pi/2 into E ∩ F⊥ and E⊥ ∩ F
CORNER_TOL = 1e-8


def _orthobasis(sub: Subspace) -> np.ndarray:
    return sub.to_float().basis.to_array()


def _complement_within(cols: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns."""
    if cols.size == 0:
        return np.eye(d, dtype=complex)
    q, _ = np.linalg.qr(np.hstack([cols, np.eye(d, dtype=complex)]))
    # the first rank(cols) columns of q span cols; take the rest
    r = cols.shape[1]
    return q[:, r:d]


def _unitary_columns(cols: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt orthonormalisation of the columns, by one Householder
    QR: each column of Q takes the phase of R's diagonal entry, so that R has
    a positive diagonal, which makes the factorisation Gram-Schmidt's."""
    if cols.size == 0:
        return cols
    q, r = np.linalg.qr(cols)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass
class TwoSubspaceDecomposition:
    """Five-part splitting of the ambient space for a pair (E, F).

    part_dims maps the five parts to dimensions; 'generic' is the dimension
    of K, the number of angle pairs, so the K+K block has twice that.
    """

    part_dims: dict
    angles: np.ndarray
    unitary: np.ndarray
    residual: float


def halmos_decompose(e: Subspace, f: Subspace, *, _corners=None) -> TwoSubspaceDecomposition:
    """Split C^d into (E∩F) + (K+K generic) + (E∩F⊥) + (E⊥∩F) + (E⊥∩F⊥) with
    a unitary carrying both projections into the canonical block form.

    An angle goes to a corner when it lies within CORNER_TOL of 0 or pi/2;
    `_corners` = (a, p), from the exact lattice, instead sends the a
    smallest angles to E ∩ F and the p largest to E ∩ F⊥ and E⊥ ∩ F."""
    if e.ambient_dim != f.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    d = e.ambient_dim
    ue = _orthobasis(e)
    uf = _orthobasis(f)
    pe, qf, cos, sin, theta = principal_pairs(ue, uf)
    k = len(theta)
    if _corners is None:
        meet = theta <= CORNER_TOL
        perp = theta >= np.pi / 2 - CORNER_TOL
    else:
        rank = np.empty(k, dtype=int)
        rank[np.argsort(theta, kind="stable")] = np.arange(k)
        meet = rank < _corners[0]
        perp = (rank >= k - _corners[1]) & ~meet
    gen = ~(meet | perp)
    cos_v, sin_v = cos[gen], sin[gen]
    pk, qk = pe[:, :k], qf[:, :k]
    gen_e = pk[:, gen]
    # companions: the unit part of each generic F-direction orthogonal to E
    gen_w = (qk[:, gen] - cos_v * gen_e) / sin_v
    # directions past k are orthogonal to the other space
    e_only = np.hstack([pk[:, perp], pe[:, k:]])
    f_only = np.hstack([qk[:, perp], qf[:, k:]])
    used = np.hstack([pk[:, meet], gen_e, gen_w, e_only, f_only])
    rest = _complement_within(used, d)
    unitary = _unitary_columns(np.hstack([used, rest]))

    a = int(np.sum(meet))
    g = len(cos_v)
    b = e_only.shape[1]
    c_ = f_only.shape[1]
    z = d - (a + 2 * g + b + c_)
    part_dims = {
        "intersection": a,
        "generic": g,
        "e_only": b,
        "f_only": c_,
        "perp_both": z,
    }
    angles = np.sort(theta[gen])

    # reconstruction check against the canonical block model
    proj_e = ue @ ue.conj().T
    proj_f = uf @ uf.conj().T
    model_e = np.zeros((d, d), dtype=complex)
    model_f = np.zeros((d, d), dtype=complex)
    model_e[:a, :a] = np.eye(a)
    model_f[:a, :a] = np.eye(a)
    # generic blocks keep the original (unsorted) order used in the unitary
    i0 = a
    model_e[i0 : i0 + g, i0 : i0 + g] = np.eye(g)
    cc = np.diag(cos_v**2)
    cs = np.diag(cos_v * sin_v)
    ss = np.diag(sin_v**2)
    model_f[i0 : i0 + g, i0 : i0 + g] = cc
    model_f[i0 : i0 + g, i0 + g : i0 + 2 * g] = cs
    model_f[i0 + g : i0 + 2 * g, i0 : i0 + g] = cs
    model_f[i0 + g : i0 + 2 * g, i0 + g : i0 + 2 * g] = ss
    i1 = a + 2 * g
    model_e[i1 : i1 + b, i1 : i1 + b] = np.eye(b)
    model_f[i1 + b : i1 + b + c_, i1 + b : i1 + b + c_] = np.eye(c_)
    ue_t = unitary.conj().T @ proj_e @ unitary
    uf_t = unitary.conj().T @ proj_f @ unitary
    residual = float(
        max(np.linalg.norm(ue_t - model_e), np.linalg.norm(uf_t - model_f))
    )
    return TwoSubspaceDecomposition(
        part_dims=part_dims, angles=angles, unitary=unitary, residual=residual
    )


@dataclass
class TwoSystemClassification:
    """Multiplicities over the four one-dimensional types plus the generic
    angle list; type keys name the subspace pattern."""

    multiplicities: dict
    angles: np.ndarray
    # the Halmos decomposition of the float image, with an exact pair's
    # corner parts set by its lattice counts
    decomposition: TwoSubspaceDecomposition

    def total_dim(self) -> int:
        """Each generic pair is already absorbed as one (C;C,0) + one (C;0,C)."""
        return sum(self.multiplicities.values())


def classify_two_system(s: SubspaceSystem) -> TwoSystemClassification:
    """Corner multiplicities and generic angles of a two-subspace system.

    Exact systems get exact corner dimensions (lattice operations), and
    their Halmos decomposition puts the a = dim(E ∩ F) smallest angles into
    E ∩ F and the dim(E ∩ F⊥) - (dim E - k) largest, k = min(dim E, dim F),
    into the pi/2 corners, so a generic angle below CORNER_TOL is still
    reported.  Each generic angle block itself splits into (C;C,0) + (C;0,C)
    under plain isomorphism, so those multiplicities absorb the generic
    count."""
    if s.n != 2:
        raise DimensionMismatch("classify_two_system needs exactly two subspaces")
    e, f = s.subspaces
    d = s.ambient_dim
    if s.field == EXACT:
        ep = e.orthocomplement()
        fp = f.orthocomplement()
        a = intersect(e, f).dim
        b = intersect(e, fp).dim
        c = intersect(ep, f).dim
        z = intersect(ep, fp).dim
        g2 = d - (a + b + c + z)
        if g2 % 2:
            raise DimensionMismatch("generic part has odd dimension; bad lattice data")
        g = g2 // 2
        dec = halmos_decompose(e, f, _corners=(a, b - (e.dim - min(e.dim, f.dim))))
    else:
        dec = halmos_decompose(e, f)
        a = dec.part_dims["intersection"]
        b = dec.part_dims["e_only"]
        c = dec.part_dims["f_only"]
        z = dec.part_dims["perp_both"]
        g = dec.part_dims["generic"]
    return TwoSystemClassification(
        multiplicities={
            "(C;C,C)": a,
            "(C;C,0)": b + g,
            "(C;0,C)": c + g,
            "(C;0,0)": z,
        },
        angles=dec.angles,
        decomposition=dec,
    )
