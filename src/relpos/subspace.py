"""Closed subspaces of C^d: span, intersection, sum, orthocomplement, images.

Exact subspaces carry a canonical column-reduced echelon basis, so equality
is literal matrix equality.  Float subspaces carry an orthonormal basis and
compare by principal angles against the tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import BackendMismatch, DimensionMismatch, SingularMatrixError
from .matrix import DEFAULT_TOL, EXACT, FLOAT, Matrix


def _is_canonical(m: Matrix) -> bool:
    """Whether the columns of m are already their canonical basis: m
    transposed is in reduced row echelon form with no zero rows.  Row i of m
    is column i of that rref: the unit vector of the next pivot, or zero from
    the next pivot on.  Stops at the first row that is neither."""
    k = m.cols
    if not k:
        return True
    re, im, den = m._re, m._im, m._den
    j = 0  # pivots so far
    for s in range(0, len(re), k):
        if j < k and (re[s + j] or im[s + j]):
            if (re[s + j] != den or any(im[s : s + k])
                    or any(re[s : s + j]) or any(re[s + j + 1 : s + k])):
                return False
            j += 1
        elif any(re[s + j : s + k]) or any(im[s + j : s + k]):
            return False
    return j == k


def _canonical_columns(m: Matrix) -> Matrix:
    """Canonical column-reduced basis of the column span (exact backend)."""
    if _is_canonical(m):
        return m
    r, pivots = m.transpose().rref()
    return r.take_rows(range(len(pivots))).transpose()


def _orthonormal_columns(m: Matrix) -> Matrix:
    """Orthonormal basis of the column span (float backend), via SVD."""
    a = m.to_array()
    if a.size == 0:
        return Matrix.from_array(np.zeros((m.rows, 0)), tol=m.tol)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > m.tol * max(1.0, s[0] if s.size else 0.0)))
    basis = u[:, :r]
    _fix_phases(basis)
    return Matrix.from_array(basis, tol=m.tol)


def _fix_phases(basis: np.ndarray) -> None:
    """Make a float basis reproducible for identical input: divide each
    column, in place, by the phase of its first entry above 1/(2 sqrt d)
    (of its first entry when none is, and by 1 when that is 0).  np.hypot
    is the scalar abs() (np.abs of an array can round differently), so the
    bits are those of fixing one column at a time."""
    k = np.argmax(np.abs(basis) > 0.5 / np.sqrt(len(basis)), axis=0)
    lead = basis[k, np.arange(basis.shape[1])]
    nonzero = lead != 0
    ph = np.ones(len(lead), dtype=complex)
    lead = lead[nonzero]
    ph[nonzero] = lead / np.hypot(lead.real, lead.imag)
    basis /= ph


class Subspace:
    """A column-span in C^d held by its canonical basis matrix (d x k)."""

    __slots__ = ("ambient_dim", "basis", "field")

    def __init__(self, basis: Matrix, _canonical=False):
        self.ambient_dim = basis.rows
        self.field = basis.field
        if _canonical:
            self.basis = basis
        elif basis.field == EXACT:
            self.basis = _canonical_columns(basis)
        else:
            self.basis = _orthonormal_columns(basis)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def span(cls, vectors: Matrix) -> "Subspace":
        """Span of the columns of a d x m matrix."""
        return cls(vectors)

    @classmethod
    def span_rows(cls, d, rows, field=EXACT, tol=DEFAULT_TOL) -> "Subspace":
        """Span of a list of length-d vectors."""
        if not rows:
            return cls.zero(d, field, tol)
        if field == EXACT:
            return cls(Matrix.from_rows(rows).transpose())
        return cls(Matrix.from_array(np.array(rows, dtype=complex).T, tol=tol))

    @classmethod
    def kernel(cls, m: Matrix) -> "Subspace":
        """ker m.  Exact: the canonical nullspace N of m with its columns
        reversed, with its rows and columns reversed back (its flat storage
        reversed), which is already the canonical basis: no second
        elimination.  The free columns of rref(m) are the lexicographically
        last coordinates on which ker m projects one to one (their
        complement, the pivots, is the first basis of m's columns, and
        complements of bases are the bases of the dual matroid); reversing
        m's columns makes them the first.  Each column of N is 1 at its own
        free column, 0 at the others, and elsewhere nonzero only at pivots
        left of it, so reversed back the 1 leads, at increasing rows: the
        unique column-reduced echelon basis.  Float: Subspace(m.nullspace())."""
        if m.field != EXACT:
            return cls(m.nullspace())
        n = m.take_columns(range(m.cols - 1, -1, -1)).nullspace()
        return cls(Matrix._raw(n.rows, n.cols, n._re[::-1], n._im[::-1], n._den), _canonical=True)

    @classmethod
    def zero(cls, d, field=EXACT, tol=DEFAULT_TOL) -> "Subspace":
        return cls(Matrix.zeros(d, 0, field, tol=tol), _canonical=True)

    @classmethod
    def full(cls, d, field=EXACT, tol=DEFAULT_TOL) -> "Subspace":
        return cls(Matrix.identity(d, field, tol=tol), _canonical=True)

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if self.field != other.field:
            raise BackendMismatch("subspaces have different backends")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            return False
        if self.field == EXACT:
            return self.basis == other.basis
        if self.dim != other.dim:
            return False
        if self.dim == 0:
            return True
        angles = principal_angles(self, other)
        return bool(np.max(angles) < self.basis.tol * 1e3)

    def __hash__(self):
        if self.field != EXACT:
            raise TypeError("float subspaces are unhashable")
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim}, {self.field})"

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        if other.dim == 0:
            return True
        if self.field == EXACT:
            return _annihilate(self, other.basis).is_zero()
        return sum_(self, other).dim == self.dim

    # -- lattice operations ------------------------------------------------------

    def orthocomplement(self) -> "Subspace":
        """Kernel of the conjugate transpose of the basis."""
        return Subspace.kernel(self.basis.conj_transpose())

    def to_float(self, tol=DEFAULT_TOL) -> "Subspace":
        if self.field == FLOAT:
            return self
        return Subspace(self.basis.to_float(tol))


def sum_(a: Subspace, b: Subspace) -> Subspace:
    """Span of the concatenated bases."""
    a._check(b)
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return Subspace(Matrix.hstack([a.basis, b.basis]))


def _pivot_split(a: Subspace):
    """(P, F) for an exact subspace: P[r] is the pivot row of column r of the
    canonical basis (its first nonzero entry, a 1), F lists the other rows.
    The basis transposed is an rref, so its pivot rows increase with r."""
    b = a.basis
    pivots = []
    i = 0
    for r in range(b.cols):
        while not b.entry(i, r):
            i += 1
        pivots.append(i)
        i += 1
    taken = set(pivots)
    return pivots, [f for f in range(b.rows) if f not in taken]


def _annihilate(a: Subspace, x: Matrix) -> Matrix:
    """annihilator(a) @ x for an exact subspace, as x[F] - B[F, :] x[P]."""
    pivots, free = _pivot_split(a)
    rest = x.take_rows(free)
    if not pivots:
        return rest
    return rest - a.basis.take_rows(free) @ x.take_rows(pivots)


def annihilator(a: Subspace) -> Matrix:
    """A (d - dim a) x d matrix C with a = ker C.

    Exact: the canonical basis B transposed is already an rref, so the
    canonical nullspace of B^T is read off with no elimination: one row
    e_f - sum_r B[f, r] e_{P[r]} per non-pivot row f of B.  Float: the
    nullspace of B^T."""
    if a.field != EXACT:
        return a.basis.transpose().nullspace().transpose()
    return _annihilate(a, Matrix.identity(a.ambient_dim))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Basis of a∩b.  Exact: B_a K for K = Subspace.kernel(C_b B_a).basis,
    C_b = annihilator(b), whose product with B_a is read off b's canonical
    basis; B_a K is canonical since K is and B_a is the identity on its
    pivot rows and zero above each pivot.  Float: the nullspace of
    [B_a | -B_b], mapped through B_a."""
    a._check(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, a.field, a.basis.tol)
    if a.field == EXACT:
        coeff = Subspace.kernel(_annihilate(b, a.basis)).basis
        return Subspace(a.basis @ coeff, _canonical=True)
    ker = Matrix.hstack([a.basis, -b.basis]).nullspace()
    return Subspace(a.basis @ ker.take_rows(range(a.dim)))


def check_invertible_map(t: Matrix, d: int, field):
    """Raise unless t is an invertible map of C^d on the given backend."""
    if t.cols != d or t.rows != t.cols:
        raise DimensionMismatch("map shape does not match the ambient space")
    if t.field != field:
        raise BackendMismatch("map and subspace have different backends")
    if not t.is_invertible():
        raise SingularMatrixError("the map is not invertible")


def image_under(t: Matrix, a: Subspace) -> Subspace:
    """Image of a under an invertible map t."""
    check_invertible_map(t, a.ambient_dim, a.field)
    return _image(t, a)


def _image(t: Matrix, a: Subspace) -> Subspace:
    """Image of a under t, which check_invertible_map has passed."""
    if a.dim == 0:
        return Subspace.zero(a.ambient_dim, a.field, a.basis.tol)
    return Subspace(t @ a.basis)


def orthoprojection(a: Subspace) -> Matrix:
    """Orthogonal projection onto a (exact Gram solve, or U U* for float)."""
    if a.dim == 0:
        return Matrix.zeros(a.ambient_dim, a.ambient_dim, a.field, tol=a.basis.tol)
    b = a.basis
    if a.field == FLOAT:
        u = b.to_array()
        return Matrix.from_array(u @ u.conj().T, tol=b.tol)
    gram = b.conj_transpose() @ b
    return b @ gram.inverse() @ b.conj_transpose()


def principal_pairs(ua: np.ndarray, ub: np.ndarray):
    """Principal vectors, cosines, sines and angles of the spans of two
    orthonormal bases ua (d x p) and ub (d x q), largest cosine first.

    Returns (pe, qf, cos, sin, theta).  One SVD W diag(cos) V* of ua* ub
    gives the principal vectors pe = ua W and qf = ub V; their first
    k = min(p, q) columns pair up, and the columns past k are orthogonal to
    the other span.  sin[j] is the norm of qf_j - cos_j pe_j, the part of
    the F-vector orthogonal to E, and theta = atan2(sin, cos), which is
    accurate near 0 as well as near pi/2 (Björck and Golub, Math. Comp. 27,
    1973).

    Known limit: within a cluster of angles whose cosines agree to the last
    bit (all angles below about 1.5e-8), the vectors of the SVD mix, and
    each angle of the cluster is read only within the cluster's spread.  An
    isolated angle is accurate to a few ulps plus about 1e-16."""
    if not (ua.shape[1] and ub.shape[1]):
        empty = np.zeros(0)
        return ua, ub, empty, empty, empty
    w, cos, vh = np.linalg.svd(ua.conj().T @ ub)
    pe = ua @ w
    qf = ub @ vh.conj().T
    k = len(cos)
    sin = np.linalg.norm(qf[:, :k] - cos * pe[:, :k], axis=0)
    return pe, qf, cos, sin, np.arctan2(sin, cos)


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Sorted principal angles between two subspaces (radians, float path),
    by `principal_pairs`.

    Accepts mixed backends; everything is converted to float here.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    ua = a.to_float().basis.to_array()
    ub = b.to_float().basis.to_array()
    return np.sort(principal_pairs(ua, ub)[-1])
