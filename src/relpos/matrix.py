"""Dense matrices over Q(i) (exact) or complex doubles (float, with tolerance).

Both backends sit behind one class.  Exact data is two flat row-major int
tuples (real and imaginary numerators) over one positive denominator, with
gcd(den, numerators) = 1 so that equal matrices have equal storage; exact
operations work on these integers through relpos.kernel, and GQ scalars
appear only at the edges.  The float path runs through numpy.  Backends
never mix inside one matrix or one operation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress

import numpy as np

from . import kernel, modular
from .errors import BackendMismatch, DimensionMismatch, ExactOnlyError, SingularMatrixError
from .gaussian import GQ, ZERO, ONE, format_cfloat, format_gq

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def _integerize(entries):
    """(re, im, den): the exact scalars times their least common denominator."""
    zs = []
    for z in entries:
        if not isinstance(z, GQ):
            if not isinstance(z, (int, Fraction)):
                raise TypeError(f"cannot use {type(z).__name__} as an exact scalar")
            z = GQ(z)
        zs.append(z)
    den = math.lcm(*(z._d for z in zs))
    re = [z._a * (den // z._d) for z in zs]
    im = [z._b * (den // z._d) for z in zs]
    return re, im, den


def _echelon(re, im, rows, cols):
    """The one exact elimination: kernel.ffgj's fraction-free rref (re, im,
    pivots, dre, dim) of the Z[i] matrix re + i*im, flat row-major.  Where
    relpos.modular lifts the certified canonical nullspace N (pivots P, free
    columns F), R is read off it: R[:, P] = I and R[:, F] = -N[P, :]."""
    ker = modular.nullspace(re, im, rows, cols)
    if ker is None:
        return kernel.ffgj(re, im, rows, cols)
    free, k = ker.free, len(ker.free)
    pivots = sorted(set(range(cols)).difference(free))
    rre, rim = [0] * (rows * cols), [0] * (rows * cols)
    for r, c in enumerate(pivots):
        rre[r * cols + c] = ker.den
        for jf, f in enumerate(free):
            rre[r * cols + f] = -ker.re[c * k + jf]
            rim[r * cols + f] = -ker.im[c * k + jf]
    return rre, rim, pivots, ker.den, 0


def _pivot_rows(reduced, width, columns, out_rows, sign=1):
    """From the kernel's fraction-free rref of a matrix with `width` columns:
    the out_rows x len(columns) matrix whose row c is sign times the reduced
    row with pivot c, restricted to `columns`, other rows zero, as
    (re, im, dre, dim) for (re + i*im) / (dre + i*dim)."""
    rre, rim, pivots, dre, dim = reduced
    k = len(columns)
    re = [0] * (out_rows * k)
    im = [0] * (out_rows * k)
    for r, c in enumerate(pivots):
        re[c * k : (c + 1) * k] = [sign * rre[r * width + j] for j in columns]
        im[c * k : (c + 1) * k] = [sign * rim[r * width + j] for j in columns]
    return re, im, dre, dim


class Matrix:
    """Immutable rows x cols matrix over Q(i) or complex128."""

    # _rank and _minpoly memoise the exact rank and minimal polynomial (None
    # until known); a Polynomial keeps its coefficients in a tuple, so the
    # memoised one is safe to share.  Constructions that prove a matrix
    # invertible record its full rank (`_invertible`)
    __slots__ = ("rows", "cols", "field", "_re", "_im", "_den", "_f", "tol", "_rank", "_minpoly")

    def __init__(self, rows, cols, field, entries=None, array=None, tol=DEFAULT_TOL):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.tol = tol
        self._rank = self._minpoly = None
        if field == EXACT:
            if len(entries) != rows * cols:
                raise DimensionMismatch("entry count does not match shape")
            re, im, self._den = _integerize(entries)
            self._re, self._im, self._f = tuple(re), tuple(im), None
        else:
            a = np.asarray(array, dtype=complex).reshape(rows, cols)
            self._f = a
            self._re = self._im = self._den = None

    @classmethod
    def _ints(cls, rows, cols, re, im, den=1, den_im=0) -> "Matrix":
        """Exact matrix (re + i*im) / (den + i*den_im), stored normalised."""
        if den_im:
            re, im, den = (
                [a * den + b * den_im for a, b in zip(re, im)],
                [b * den - a * den_im for a, b in zip(re, im)],
                den * den + den_im * den_im,
            )
        if den != 1:
            g = math.gcd(den, *re, *im)
            if den < 0:
                g = -g
            if g != 1:
                re = [v // g for v in re]
                im = [v // g for v in im]
                den //= g
        return cls._raw(rows, cols, re, im, den)

    @classmethod
    def _raw(cls, rows, cols, re, im, den) -> "Matrix":
        """Exact matrix from storage that is already normalised (a permutation,
        a conjugate or the negative of normalised storage is)."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.field, m.tol = rows, cols, EXACT, DEFAULT_TOL
        m._re, m._im, m._den, m._f = tuple(re), tuple(im), den, None
        m._rank = m._minpoly = None
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, rows, cols, entries) -> "Matrix":
        return cls(rows, cols, EXACT, entries=list(entries))

    @classmethod
    def from_rows(cls, rowlist) -> "Matrix":
        rows = len(rowlist)
        cols = len(rowlist[0]) if rows else 0
        flat = []
        for r in rowlist:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(rows, cols, EXACT, entries=flat)

    @classmethod
    def zeros(cls, rows, cols, field=EXACT, tol=DEFAULT_TOL) -> "Matrix":
        if field == EXACT:
            return cls._ints(rows, cols, [0] * (rows * cols), [0] * (rows * cols))
        return cls(rows, cols, FLOAT, array=np.zeros((rows, cols), dtype=complex), tol=tol)

    @classmethod
    def identity(cls, n, field=EXACT, tol=DEFAULT_TOL) -> "Matrix":
        if field == EXACT:
            re = [0] * (n * n)
            re[:: n + 1] = [1] * n
            return cls._raw(n, n, re, [0] * (n * n), 1)._invertible(True)
        return cls(n, n, FLOAT, array=np.eye(n, dtype=complex), tol=tol)

    @classmethod
    def from_array(cls, array, tol=DEFAULT_TOL) -> "Matrix":
        a = np.asarray(array, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatch("need a 2-d array")
        return cls(a.shape[0], a.shape[1], FLOAT, array=a, tol=tol)

    def _full_rank(self) -> bool:
        """Whether this exact square matrix is recorded invertible."""
        return self._rank == self.rows == self.cols

    def _invertible(self, proved) -> "Matrix":
        """This matrix, recorded invertible when its construction proves it: the identity,
        an inverse, or a product, block diagonal or row permutation of invertible squares."""
        if proved:
            self._rank = self.rows
        return self

    # -- access ---------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _gq(self, a, b):
        if not (a or b):
            return ZERO
        return GQ._make(a, b, self._den)

    def entry(self, i, j):
        if self.field == EXACT:
            k = i * self.cols + j
            return self._gq(self._re[k], self._im[k])
        return self._f[i, j]

    def entries(self):
        if self.field == EXACT:
            return tuple(self._gq(a, b) for a, b in zip(self._re, self._im))
        return self._f

    def nonzero_indices(self) -> list:
        """Flat indices i * cols + j of the nonzero entries of an exact matrix."""
        return list(compress(range(len(self._re)), map(operator.or_, self._re, self._im)))

    def _pick(self, rows, cols, idx) -> "Matrix":
        """Exact rows x cols matrix of the stored entries at the flat indices idx."""
        re, im = self._re, self._im
        return Matrix._ints(rows, cols, [re[k] for k in idx], [im[k] for k in idx], self._den)

    def column(self, j) -> "Matrix":
        return self.take_columns([j])

    def take_columns(self, idx) -> "Matrix":
        # negative indices count from the end, as in take_rows
        idx = [range(self.cols)[j] for j in idx]
        if self.field == FLOAT:
            return Matrix(self.rows, len(idx), FLOAT, array=self._f[:, idx], tol=self.tol)
        flat = [i * self.cols + j for i in range(self.rows) for j in idx]
        return self._pick(self.rows, len(idx), flat)

    def take_rows(self, idx) -> "Matrix":
        idx = list(idx)
        if self.field == FLOAT:
            return Matrix(len(idx), self.cols, FLOAT, array=self._f[idx, :], tol=self.tol)
        k = self.cols
        re, im = [], []
        if k:
            starts = range(0, len(self._re), k)
            for i in idx:
                s = starts[i]
                re += self._re[s : s + k]
                im += self._im[s : s + k]
        out = Matrix._ints(len(idx), k, re, im, self._den)
        return out._invertible(self._full_rank() and sorted(idx) == list(range(k)))

    def to_array(self) -> np.ndarray:
        if self.field == FLOAT:
            return self._f.copy()
        # int / int is correctly rounded, also past 2^53 where a float64
        # cast of the numerators would round first
        out = np.empty((self.rows, self.cols), dtype=complex)
        out.real.flat = np.array(self._re, dtype=object) / self._den
        out.imag.flat = np.array(self._im, dtype=object) / self._den
        return out

    def to_float(self, tol=DEFAULT_TOL) -> "Matrix":
        if self.field == FLOAT:
            return self
        return Matrix.from_array(self.to_array(), tol=tol)

    def row_texts(self) -> list:
        """Each row as a list of entry texts, read off the stored numbers:
        "0" or format_gq of each exact entry, format_cfloat of each float one."""
        if self.field == FLOAT:
            return [[format_cfloat(z) for z in row] for row in self._f.tolist()]
        d, c = self._den, self.cols
        texts = [
            format_gq(GQ._make(a, b, d)) if a or b else "0" for a, b in zip(self._re, self._im)
        ]
        return [texts[i * c : (i + 1) * c] for i in range(self.rows)]

    def __repr__(self):
        if self.field == EXACT:
            body = "; ".join(" ".join(row) for row in self.row_texts())
            return f"Matrix({self.rows}x{self.cols} exact [{body}])"
        return f"Matrix({self.rows}x{self.cols} float tol={self.tol})"

    # -- structural ops --------------------------------------------------------

    def _check_same_backend(self, other):
        if self.field != other.field:
            raise BackendMismatch("cannot mix exact and float matrices")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.field == EXACT:
            return (self._den, self._re, self._im) == (other._den, other._re, other._im)
        return bool(np.array_equal(self._f, other._f))

    def __hash__(self):
        if self.field != EXACT:
            raise TypeError("float matrices are unhashable")
        return hash((self.rows, self.cols, self._den, self._re, self._im))

    def transpose(self) -> "Matrix":
        if self.field == FLOAT:
            return Matrix(self.cols, self.rows, FLOAT, array=self._f.T, tol=self.tol)
        c = self.cols
        re = [v for j in range(c) for v in self._re[j::c]]
        im = [v for j in range(c) for v in self._im[j::c]]
        return Matrix._raw(c, self.rows, re, im, self._den)

    def conj_transpose(self) -> "Matrix":
        if self.field == FLOAT:
            return Matrix(self.cols, self.rows, FLOAT, array=self._f.conj().T, tol=self.tol)
        t = self.transpose()
        return Matrix._raw(t.rows, t.cols, t._re, [-v for v in t._im], t._den)

    @staticmethod
    def _common(mats):
        """The exact matrices' numerators over their least common denominator."""
        den = math.lcm(*(m._den for m in mats))
        return den, [
            (m._re, m._im) if m._den == den
            else ([v * (den // m._den) for v in m._re], [v * (den // m._den) for v in m._im])
            for m in mats
        ]

    @staticmethod
    def _stackable(mats, attr, name, noun):
        mats = list(mats)
        for m in mats:
            if getattr(m, attr) != getattr(mats[0], attr):
                raise DimensionMismatch(f"{name}: {noun} counts differ")
            if m.field != mats[0].field:
                raise BackendMismatch(f"{name}: backends differ")
        return mats

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = Matrix._stackable(mats, "rows", "hstack", "row")
        if mats[0].field == FLOAT:
            return Matrix.from_array(np.hstack([m._f for m in mats]), tol=mats[0].tol)
        den, parts = Matrix._common(mats)
        re, im = [], []
        for i in range(mats[0].rows):
            for m, (mre, mim) in zip(mats, parts):
                re.extend(mre[i * m.cols : (i + 1) * m.cols])
                im.extend(mim[i * m.cols : (i + 1) * m.cols])
        return Matrix._ints(mats[0].rows, sum(m.cols for m in mats), re, im, den)

    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = Matrix._stackable(mats, "cols", "vstack", "column")
        if mats[0].field == FLOAT:
            return Matrix.from_array(np.vstack([m._f for m in mats]), tol=mats[0].tol)
        den, parts = Matrix._common(mats)
        re, im = [], []
        for mre, mim in parts:
            re.extend(mre)
            im.extend(mim)
        return Matrix._ints(sum(m.rows for m in mats), mats[0].cols, re, im, den)

    @staticmethod
    def block_diag(mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(0, 0)
        cols = sum(m.cols for m in mats)
        rows = []
        c0 = 0
        for m in mats:
            left = Matrix.zeros(m.rows, c0, m.field, m.tol)
            right = Matrix.zeros(m.rows, cols - c0 - m.cols, m.field, m.tol)
            rows.append(Matrix.hstack([left, m, right]))
            c0 += m.cols
        return Matrix.vstack(rows)._invertible(all(m._full_rank() for m in mats))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise DimensionMismatch("add: shapes differ")
        if self.field == EXACT:
            den, ((are, aim), (bre, bim)) = Matrix._common([self, other])
            return Matrix._ints(
                self.rows, self.cols,
                [a + b for a, b in zip(are, bre)], [a + b for a, b in zip(aim, bim)], den,
            )
        return Matrix.from_array(self._f + other._f, tol=self.tol)

    def __sub__(self, other):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise DimensionMismatch("sub: shapes differ")
        if self.field == EXACT:
            return self + (-other)
        return Matrix.from_array(self._f - other._f, tol=self.tol)

    def __neg__(self):
        if self.field == EXACT:
            return Matrix._raw(
                self.rows, self.cols, [-v for v in self._re], [-v for v in self._im], self._den
            )
        return Matrix.from_array(-self._f, tol=self.tol)

    def scale(self, c) -> "Matrix":
        if self.field == EXACT:
            return Matrix.exact(1, 1, [c]).kron(self)  # c (x) A = cA
        return Matrix.from_array(complex(c) * self._f, tol=self.tol)

    def _primitive_rows(self):
        """The stored rows, each divided by the gcd of its numerators: the
        kernel's input.  Row scaling preserves the row space, hence rref and
        nullspace, and keeps each row's integers as small as they can be."""
        re, im = list(self._re), list(self._im)
        c = self.cols or 1
        for i in range(0, len(re), c):
            g = math.gcd(*re[i : i + c], *im[i : i + c])
            if g > 1:
                re[i : i + c] = [v // g for v in re[i : i + c]]
                im[i : i + c] = [v // g for v in im[i : i + c]]
        return re, im

    def __matmul__(self, other):
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        if self.field == FLOAT:
            return Matrix.from_array(self._f @ other._f, tol=self.tol)
        cre, cim = kernel.matmul(
            self._re, self._im, self.rows, self.cols, other._re, other._im, other.cols
        )
        out = Matrix._ints(self.rows, other.cols, cre, cim, self._den * other._den)
        return out._invertible(self._full_rank() and other._full_rank())

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace: not square")
        if self.field == EXACT:
            diag = slice(None, None, self.cols + 1)
            return self._gq(sum(self._re[diag]), sum(self._im[diag]))
        return complex(np.trace(self._f))

    def is_zero(self) -> bool:
        if self.field == EXACT:
            return not any(self._re) and not any(self._im)
        return bool(np.all(np.abs(self._f) <= self.tol))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        if self.field == EXACT:
            return self == Matrix.identity(self.rows)
        return bool(np.allclose(self._f, np.eye(self.rows), atol=self.tol))

    def is_scalar(self) -> bool:
        """c I for some scalar c, 0 included."""
        n = self.rows
        if n != self.cols:
            return False
        if self.field == EXACT:
            step = n + 1
            return (
                len(set(zip(self._re[::step], self._im[::step]))) <= 1
                and all(k % step == 0 for k in self.nonzero_indices())
            )
        return n == 0 or bool(np.allclose(self._f, self._f[0, 0] * np.eye(n), atol=self.tol))

    # -- elimination -----------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and pivot columns.

        `_echelon` then one exact normalization; exact only.
        """
        if self.field == FLOAT:
            raise ExactOnlyError("rref needs the exact backend")
        if self.rows == 0 or self.cols == 0:
            return self, ()
        rre, rim, pivots, dre, dim = _echelon(*self._primitive_rows(), self.rows, self.cols)
        return Matrix._ints(self.rows, self.cols, rre, rim, dre, dim), tuple(pivots)

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        if self.field == EXACT:
            if self._rank is None:
                # the nullspace takes the multimodular route where it pays
                self._rank = self.cols - self.nullspace().cols
            return self._rank
        s = np.linalg.svd(self._f, compute_uv=False)
        if s.size == 0:
            return 0
        return int(np.sum(s > self.tol * max(1.0, s[0])))

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "Matrix":
        """Columns form a basis of {x : self @ x = 0}; exact basis canonical."""
        if self.field == FLOAT:
            if self.cols == 0:
                return Matrix.zeros(0, 0, FLOAT, tol=self.tol)
            if self.rows == 0:
                return Matrix.identity(self.cols, FLOAT, tol=self.tol)
            _, s, vh = np.linalg.svd(self._f, full_matrices=True)
            smax = s[0] if s.size else 0.0
            r = int(np.sum(s > self.tol * max(1.0, smax)))
            return Matrix.from_array(vh[r:, :].conj().T, tol=self.tol)
        if self.cols == 0:
            return Matrix.zeros(0, 0)
        if self.rows == 0:
            return Matrix.identity(self.cols)
        return self._basis(_echelon(*self._primitive_rows(), self.rows, self.cols))

    def _nullspace_ffgj(self) -> "Matrix":
        """The same basis by fraction-free elimination only: the lift's reference."""
        return self._basis(kernel.ffgj(*self._primitive_rows(), self.rows, self.cols))

    def _basis(self, reduced) -> "Matrix":
        """The canonical nullspace basis read off a fraction-free rref: for the
        j-th free column f, 1 in row f and minus column f of the rref."""
        pivots = set(reduced[2])
        free = [c for c in range(self.cols) if c not in pivots]
        re, im, dre, dim = _pivot_rows(reduced, self.cols, free, self.cols, sign=-1)
        k = len(free)
        for jf, f in enumerate(free):
            re[f * k + jf], im[f * k + jf] = dre, dim
        return Matrix._ints(self.cols, k, re, im, dre, dim)

    def solve(self, rhs: "Matrix"):
        """One exact solution X of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, which makes the output canonical.
        """
        self._check_same_backend(rhs)
        if self.field == FLOAT:
            x, res, rk, _ = np.linalg.lstsq(self._f, rhs._f, rcond=None)
            if not np.allclose(self._f @ x, rhs._f, atol=self.tol * 100):
                return None
            return Matrix.from_array(x, tol=self.tol)
        if self.rows != rhs.rows:
            raise DimensionMismatch("solve: row counts differ")
        aug = Matrix.hstack([self, rhs])
        reduced = _echelon(*aug._primitive_rows(), aug.rows, aug.cols)
        pivots = reduced[2]
        if pivots and pivots[-1] >= self.cols:
            return None
        re, im, dre, dim = _pivot_rows(reduced, aug.cols, range(self.cols, aug.cols), self.cols)
        return Matrix._ints(self.cols, rhs.cols, re, im, dre, dim)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse: not square")
        if self.field == FLOAT:
            try:
                return Matrix.from_array(np.linalg.inv(self._f), tol=self.tol)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(str(exc)) from exc
        # A @ X = I is consistent only for invertible square A.
        x = self.solve(Matrix.identity(self.rows))
        if x is None:
            raise SingularMatrixError("matrix is not invertible")
        self._invertible(True)
        return x._invertible(True)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kron(self, other: "Matrix") -> "Matrix":
        self._check_same_backend(other)
        if self.field == FLOAT:
            raise ExactOnlyError("kron needs the exact backend")
        # Every product of an entry of self and one of other, row-major over
        # the pairs (self entry, other entry), then laid out block by block.
        n = len(other._re)
        pre, pim = kernel.matmul(self._re, self._im, len(self._re), 1, other._re, other._im, n)
        flat = [
            (i * self.cols + j) * n + p * other.cols + q
            for i in range(self.rows) for p in range(other.rows)
            for j in range(self.cols) for q in range(other.cols)
        ]
        return Matrix._ints(
            self.rows * other.rows, self.cols * other.cols,
            [pre[t] for t in flat], [pim[t] for t in flat], self._den * other._den,
        )

    def vec(self) -> "Matrix":
        """Column-major flattening into a (rows*cols) x 1 matrix."""
        return self.transpose().reshape(self.rows * self.cols, 1)

    def reshape(self, rows, cols) -> "Matrix":
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch("reshape: size differs")
        if self.field == EXACT:
            return Matrix._raw(rows, cols, self._re, self._im, self._den)
        return Matrix.from_array(self._f.reshape(rows, cols), tol=self.tol)

    @staticmethod
    def unvec(v: "Matrix", rows, cols) -> "Matrix":
        """Inverse of vec: column-major refold of a (rows*cols)-vector."""
        return v.reshape(cols, rows).transpose()

    def minimal_polynomial(self):
        """Monic least-degree annihilating polynomial, by vector Krylov,
        memoised: later calls on the same matrix return the first result."""
        if self.field != EXACT:
            raise ExactOnlyError("minimal_polynomial needs the exact backend")
        if self.rows != self.cols:
            raise DimensionMismatch("minimal_polynomial: not square")
        if self._minpoly is None:
            self._minpoly = self._krylov_minimal_polynomial()
        return self._minpoly

    def _krylov_minimal_polynomial(self):
        """The Krylov run behind minimal_polynomial.

        p starts at 1.  For each unit vector e_j, w = p(T) e_j by Horner;
        when w != 0, the first dependence among w, Tw, ..., T^(n - deg p) w,
        read off one rref, is the minimal polynomial q of w, and p q is
        lcm(p, mu_{e_j}) because q = mu_{e_j} / gcd(mu_{e_j}, p).  Once every
        e_j is annihilated p = mu_T, and deg p = n ends the loop early.  The
        vectors are integer: with M = den T the stored numerators, Krylov
        column i is den^i T^i w."""
        from .poly import Polynomial

        n, den = self.rows, self._den
        p = Polynomial([ONE])
        for j in range(n):
            m = p.degree
            if m == n:
                break
            w = [0] * n, [0] * n
            if m:
                # L den^m p(T) e_j, with L the lcm of p's denominators
                lcm = math.lcm(*(c._d for c in p.coeffs))
                w[0][j] = lcm
                for k in range(m - 1, -1, -1):
                    c = p.coeffs[k]
                    f = den ** (m - k) * (lcm // c._d)
                    w = kernel.matmul(self._re, self._im, n, n, *w, 1)
                    w[0][j] += f * c._a
                    w[1][j] += f * c._b
                g = math.gcd(*w[0], *w[1])
                if not g:
                    continue
                w = [v // g for v in w[0]], [v // g for v in w[1]]
            else:
                w[0][j] = 1
            width = n - m + 1
            krylov = [w]
            for _ in range(width - 1):
                krylov.append(kernel.matmul(self._re, self._im, n, n, *krylov[-1], 1))
            re = [u[0][r] for r in range(n) for u in krylov]
            im = [u[1][r] for r in range(n) for u in krylov]
            rre, rim, pivots, dre, dim = _echelon(re, im, n, width)
            # pivots are 0..c-1: T^c w = sum_i R[i, c] den^(i - c) T^i w
            c, norm = len(pivots), dre * dre + dim * dim
            q = [
                GQ._make(
                    -(rre[i * width + c] * dre + rim[i * width + c] * dim),
                    -(rim[i * width + c] * dre - rre[i * width + c] * dim),
                    norm * den ** (c - i),
                )
                for i in range(c)
            ]
            p = p * Polynomial(q + [ONE])
        return p
