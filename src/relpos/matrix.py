"""Dense matrices over Q(i) (exact) or complex doubles (float, with tolerance).

Both backends sit behind one class; the exact path routes pivoting work
through the integer kernel (relpos.kernel), the float path through numpy.
Backends never mix inside one matrix or one operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import kernel, modular
from .errors import BackendMismatch, DimensionMismatch, ExactOnlyError, SingularMatrixError
from .gaussian import GQ, ZERO, ONE

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def _as_gq(x):
    if isinstance(x, GQ):
        return x
    if isinstance(x, (int, Fraction)):
        return GQ(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


def _integerize(entries):
    """(re, im, den): the entries times their common denominator den, as ints."""
    parts = [(z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator) for z in entries]
    den = 1
    for _, rd, _, idn in parts:
        if rd != 1:
            den = math.lcm(den, rd)
        if idn != 1:
            den = math.lcm(den, idn)
    if den == 1:
        return [p[0] for p in parts], [p[2] for p in parts], 1
    re = [rn * (den // rd) for rn, rd, _, _ in parts]
    im = [inum * (den // idn) for _, _, inum, idn in parts]
    return re, im, den


class Matrix:
    """Immutable rows x cols matrix over Q(i) or complex128."""

    __slots__ = ("rows", "cols", "field", "_e", "_f", "tol")

    def __init__(self, rows, cols, field, entries=None, array=None, tol=DEFAULT_TOL):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.tol = tol
        if field == EXACT:
            if len(entries) != rows * cols:
                raise DimensionMismatch("entry count does not match shape")
            self._e = tuple(entries)
            self._f = None
        else:
            a = np.asarray(array, dtype=complex).reshape(rows, cols)
            self._f = a
            self._e = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, rows, cols, entries) -> "Matrix":
        return cls(rows, cols, EXACT, entries=[_as_gq(x) for x in entries])

    @classmethod
    def from_rows(cls, rowlist) -> "Matrix":
        rows = len(rowlist)
        cols = len(rowlist[0]) if rows else 0
        flat = []
        for r in rowlist:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
            flat.extend(_as_gq(x) for x in r)
        return cls(rows, cols, EXACT, entries=flat)

    @classmethod
    def zeros(cls, rows, cols, field=EXACT, tol=DEFAULT_TOL) -> "Matrix":
        if field == EXACT:
            return cls(rows, cols, EXACT, entries=[ZERO] * (rows * cols))
        return cls(rows, cols, FLOAT, array=np.zeros((rows, cols), dtype=complex), tol=tol)

    @classmethod
    def identity(cls, n, field=EXACT, tol=DEFAULT_TOL) -> "Matrix":
        if field == EXACT:
            ents = [ZERO] * (n * n)
            for i in range(n):
                ents[i * n + i] = ONE
            return cls(n, n, EXACT, entries=ents)
        return cls(n, n, FLOAT, array=np.eye(n, dtype=complex), tol=tol)

    @classmethod
    def from_array(cls, array, tol=DEFAULT_TOL) -> "Matrix":
        a = np.asarray(array, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatch("need a 2-d array")
        return cls(a.shape[0], a.shape[1], FLOAT, array=a, tol=tol)

    # -- access ---------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        if self.field == EXACT:
            return self._e[i * self.cols + j]
        return self._f[i, j]

    def entries(self):
        return self._e if self.field == EXACT else self._f

    def row_list(self, i):
        if self.field == EXACT:
            return list(self._e[i * self.cols : (i + 1) * self.cols])
        return list(self._f[i, :])

    def column(self, j) -> "Matrix":
        return self.take_columns([j])

    def take_columns(self, idx) -> "Matrix":
        if self.field == EXACT:
            ents = []
            for i in range(self.rows):
                base = i * self.cols
                ents.extend(self._e[base + j] for j in idx)
            return Matrix(self.rows, len(idx), EXACT, entries=ents)
        return Matrix(self.rows, len(idx), FLOAT, array=self._f[:, list(idx)], tol=self.tol)

    def take_rows(self, idx) -> "Matrix":
        if self.field == EXACT:
            ents = []
            for i in idx:
                ents.extend(self._e[i * self.cols : (i + 1) * self.cols])
            return Matrix(len(idx), self.cols, EXACT, entries=ents)
        return Matrix(len(idx), self.cols, FLOAT, array=self._f[list(idx), :], tol=self.tol)

    def to_array(self) -> np.ndarray:
        if self.field == FLOAT:
            return self._f.copy()
        return np.array(
            [z.to_complex() for z in self._e], dtype=complex
        ).reshape(self.rows, self.cols)

    def to_float(self, tol=DEFAULT_TOL) -> "Matrix":
        if self.field == FLOAT:
            return self
        return Matrix.from_array(self.to_array(), tol=tol)

    def __repr__(self):
        if self.field == EXACT:
            body = "; ".join(
                " ".join(str(self._e[i * self.cols + j]) for j in range(self.cols))
                for i in range(self.rows)
            )
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
            return self._e == other._e
        return bool(np.array_equal(self._f, other._f))

    def __hash__(self):
        if self.field != EXACT:
            raise TypeError("float matrices are unhashable")
        return hash((self.rows, self.cols, self._e))

    def transpose(self) -> "Matrix":
        if self.field == EXACT:
            ents = [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
            return Matrix(self.cols, self.rows, EXACT, entries=ents)
        return Matrix(self.cols, self.rows, FLOAT, array=self._f.T, tol=self.tol)

    def conj_transpose(self) -> "Matrix":
        if self.field == EXACT:
            ents = [
                self._e[i * self.cols + j].conj()
                for j in range(self.cols)
                for i in range(self.rows)
            ]
            return Matrix(self.cols, self.rows, EXACT, entries=ents)
        return Matrix(self.cols, self.rows, FLOAT, array=self._f.conj().T, tol=self.tol)

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        rows = mats[0].rows
        field = mats[0].field
        for m in mats:
            if m.rows != rows:
                raise DimensionMismatch("hstack: row counts differ")
            if m.field != field:
                raise BackendMismatch("hstack: backends differ")
        if field == EXACT:
            ents = []
            for i in range(rows):
                for m in mats:
                    ents.extend(m._e[i * m.cols : (i + 1) * m.cols])
            return Matrix(rows, sum(m.cols for m in mats), EXACT, entries=ents)
        return Matrix.from_array(np.hstack([m._f for m in mats]), tol=mats[0].tol)

    @staticmethod
    def vstack(mats) -> "Matrix":
        mats = list(mats)
        cols = mats[0].cols
        field = mats[0].field
        for m in mats:
            if m.cols != cols:
                raise DimensionMismatch("vstack: column counts differ")
            if m.field != field:
                raise BackendMismatch("vstack: backends differ")
        if field == EXACT:
            ents = []
            for m in mats:
                ents.extend(m._e)
            return Matrix(sum(m.rows for m in mats), cols, EXACT, entries=ents)
        return Matrix.from_array(np.vstack([m._f for m in mats]), tol=mats[0].tol)

    @staticmethod
    def block_diag(mats) -> "Matrix":
        mats = list(mats)
        field = mats[0].field if mats else EXACT
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        if field == EXACT:
            ents = [ZERO] * (rows * cols)
            r0 = c0 = 0
            for m in mats:
                for i in range(m.rows):
                    base = (r0 + i) * cols + c0
                    for j in range(m.cols):
                        ents[base + j] = m._e[i * m.cols + j]
                r0 += m.rows
                c0 += m.cols
            return Matrix(rows, cols, EXACT, entries=ents)
        out = np.zeros((rows, cols), dtype=complex)
        r0 = c0 = 0
        for m in mats:
            out[r0 : r0 + m.rows, c0 : c0 + m.cols] = m._f
            r0 += m.rows
            c0 += m.cols
        return Matrix.from_array(out, tol=mats[0].tol if mats else DEFAULT_TOL)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise DimensionMismatch("add: shapes differ")
        if self.field == EXACT:
            return Matrix(
                self.rows, self.cols, EXACT,
                entries=[a + b for a, b in zip(self._e, other._e)],
            )
        return Matrix.from_array(self._f + other._f, tol=self.tol)

    def __sub__(self, other):
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise DimensionMismatch("sub: shapes differ")
        if self.field == EXACT:
            return Matrix(
                self.rows, self.cols, EXACT,
                entries=[a - b for a, b in zip(self._e, other._e)],
            )
        return Matrix.from_array(self._f - other._f, tol=self.tol)

    def __neg__(self):
        if self.field == EXACT:
            return Matrix(self.rows, self.cols, EXACT, entries=[-a for a in self._e])
        return Matrix.from_array(-self._f, tol=self.tol)

    def scale(self, c) -> "Matrix":
        if self.field == EXACT:
            c = _as_gq(c)
            return Matrix(self.rows, self.cols, EXACT, entries=[c * a for a in self._e])
        return Matrix.from_array(complex(c) * self._f, tol=self.tol)

    def _to_int_rows_reduced(self):
        """Row-wise integerization with gcd stripping.

        Row scaling preserves the row space, hence rref/nullspace; per-row
        denominators stay small where a global lcm would blow every row up."""
        re = []
        im = []
        for i in range(self.rows):
            rre, rim, _ = _integerize(self._e[i * self.cols : (i + 1) * self.cols])
            g = math.gcd(*rre, *rim)
            if g > 1:
                rre = [v // g for v in rre]
                rim = [v // g for v in rim]
            re.extend(rre)
            im.extend(rim)
        return re, im

    def __matmul__(self, other):
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        if self.field == FLOAT:
            return Matrix.from_array(self._f @ other._f, tol=self.tol)
        are, aim, da = _integerize(self._e)
        bre, bim, db = _integerize(other._e)
        cre, cim = kernel.matmul(are, aim, self.rows, self.cols, bre, bim, other.cols)
        d = da * db
        ents = [GQ(Fraction(a, d), Fraction(b, d)) for a, b in zip(cre, cim)]
        return Matrix(self.rows, other.cols, EXACT, entries=ents)

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace: not square")
        if self.field == EXACT:
            t = ZERO
            for i in range(self.rows):
                t = t + self._e[i * self.cols + i]
            return t
        return complex(np.trace(self._f))

    def is_zero(self) -> bool:
        if self.field == EXACT:
            return all(not z for z in self._e)
        return bool(np.all(np.abs(self._f) <= self.tol))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        if self.field == EXACT:
            return self == Matrix.identity(self.rows)
        return bool(np.allclose(self._f, np.eye(self.rows), atol=self.tol))

    # -- elimination -----------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and pivot columns.

        Exact backend: fraction-free elimination then one exact normalization.
        Float backend: partial-pivot elimination, rank decided by tolerance.
        """
        if self.field == EXACT:
            return self._rref_exact()
        return self._rref_float()

    def _rref_exact(self):
        if self.rows == 0 or self.cols == 0:
            return self, ()
        re, im = self._to_int_rows_reduced()
        rre, rim, pivots, dre, dim = kernel.ffgj(re, im, self.rows, self.cols)
        den = GQ(dre, dim)
        ents = []
        for a, b in zip(rre, rim):
            if a == 0 and b == 0:
                ents.append(ZERO)
            else:
                ents.append(GQ(a, b) / den)
        return Matrix(self.rows, self.cols, EXACT, entries=ents), tuple(pivots)

    def _rref_float(self):
        a = self._f.copy()
        rows, cols = a.shape
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
        pivots = []
        pr = 0
        for pc in range(cols):
            if pr >= rows:
                break
            col = np.abs(a[pr:, pc])
            imax = int(np.argmax(col))
            if col[imax] <= self.tol * scale:
                a[pr:, pc] = 0.0
                continue
            if imax != 0:
                a[[pr, pr + imax], :] = a[[pr + imax, pr], :]
            a[pr, :] = a[pr, :] / a[pr, pc]
            for r in range(rows):
                if r != pr and a[r, pc] != 0:
                    a[r, :] = a[r, :] - a[r, pc] * a[pr, :]
            pivots.append(pc)
            pr += 1
        return Matrix.from_array(a, tol=self.tol), tuple(pivots)

    def rank(self) -> int:
        if self.field == EXACT:
            return len(self.rref()[1])
        if self.rows == 0 or self.cols == 0:
            return 0
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
        int_rows = self._to_int_rows_reduced()
        if self.cols >= modular.MIN_COLS:
            ker = modular.nullspace(*int_rows, self.rows, self.cols)
            if ker is not None:
                return Matrix(self.cols, len(ker.free), EXACT, entries=ker.entries)
        return self._nullspace_ffgj(int_rows)

    def _nullspace_ffgj(self, int_rows=None) -> "Matrix":
        """The canonical exact basis read off the fraction-free rref of the
        integerised rows (computed here when not given)."""
        re, im = int_rows or self._to_int_rows_reduced()
        rre, rim, pivots, dre, dim = kernel.ffgj(re, im, self.rows, self.cols)
        den = GQ(dre, dim)
        free = [c for c in range(self.cols) if c not in pivots]
        k = len(free)
        ents = [ZERO] * (self.cols * k)
        for jf, f in enumerate(free):
            ents[f * k + jf] = ONE
            for r, c in enumerate(pivots):
                a, b = rre[r * self.cols + f], rim[r * self.cols + f]
                if a or b:
                    ents[c * k + jf] = -(GQ(a, b) / den)
        return Matrix(self.cols, k, EXACT, entries=ents)

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
        R, pivots = aug.rref()
        for p in pivots:
            if p >= self.cols:
                return None
        ents = [ZERO] * (self.cols * rhs.cols)
        for r, c in enumerate(pivots):
            for j in range(rhs.cols):
                ents[c * rhs.cols + j] = R._e[r * aug.cols + self.cols + j]
        return Matrix(self.cols, rhs.cols, EXACT, entries=ents)

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
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kron(self, other: "Matrix") -> "Matrix":
        self._check_same_backend(other)
        if self.field == FLOAT:
            return Matrix.from_array(np.kron(self._f, other._f), tol=self.tol)
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        ents = [ZERO] * (rows * cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self._e[i * self.cols + j]
                if not a:
                    continue
                for p in range(other.rows):
                    base = (i * other.rows + p) * cols + j * other.cols
                    orow = p * other.cols
                    for q in range(other.cols):
                        b = other._e[orow + q]
                        if b:
                            ents[base + q] = a * b
        return Matrix(rows, cols, EXACT, entries=ents)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("power: not square")
        result = Matrix.identity(self.rows, self.field, tol=self.tol)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def vec(self) -> "Matrix":
        """Column-major flattening into a (rows*cols) x 1 matrix."""
        return self.transpose().reshape(self.rows * self.cols, 1)

    def reshape(self, rows, cols) -> "Matrix":
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch("reshape: size differs")
        if self.field == EXACT:
            return Matrix(rows, cols, EXACT, entries=self._e)
        return Matrix.from_array(self._f.reshape(rows, cols), tol=self.tol)

    @staticmethod
    def unvec(v: "Matrix", rows, cols) -> "Matrix":
        """Inverse of vec: column-major refold of a (rows*cols)-vector."""
        return v.reshape(cols, rows).transpose()

    def minimal_polynomial(self):
        """Monic least-degree annihilating polynomial, by Krylov dependence."""
        from .poly import Polynomial

        if self.field != EXACT:
            raise ExactOnlyError("minimal_polynomial needs the exact backend")
        if self.rows != self.cols:
            raise DimensionMismatch("minimal_polynomial: not square")
        n = self.rows
        if n == 0:
            return Polynomial([ONE])
        powers = [Matrix.identity(n)]
        while True:
            k = len(powers)
            stacked = Matrix.hstack([p.vec() for p in powers])
            target = (powers[-1] @ self).vec()
            sol = stacked.solve(target)
            if sol is not None:
                coeffs = [-sol.entry(i, 0) for i in range(k)] + [ONE]
                return Polynomial(coeffs)
            powers.append(powers[-1] @ self)
            if len(powers) > n + 1:
                raise RuntimeError("Krylov dependence not found below dimension bound")
