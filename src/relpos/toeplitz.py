"""Banded (block-)Toeplitz symbols on the half-line sequence space: winding
index and kernel/cokernel dimensions, fractional defects of the associated
four-subspace systems, and the truncation lab for the exotic deformed-graph
systems.

Symbols are exact.  Each diagonal part of a symbol is decided by one exact
count of the zeros of det(z^s a(z)) in the disk and on the circle: the
parts' counts add up to the winding, and each decides the kernel dimensions
of a scalar or one-sided part.  A symbol past the bounds of that count gets
its winding from a float grid, and a two-sided block part its kernel
dimensions from truncation oracles.

Matrix convention: T(a)_{ij} = a-hat_{i-j}, so the coefficient at offset +1
is the subdiagonal (the unilateral shift is the symbol z)."""

from __future__ import annotations

import functools
import math
import re as _re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateSymbolError,
    DimensionMismatch,
    ExactOnlyError,
    InvariantViolation,
    ParseError,
    UncertifiedError,
    quote,
)
from .gaussian import GQ, ONE, ZERO, parse_gq
from .matrix import DEFAULT_TOL, EXACT, Matrix
from .poly import MAX_EXACT_COUNT_BITS, Polynomial, disk_zero_counts
from .subspace import Subspace, principal_angles
from .system import SubspaceSystem, diagram_from_pairs, hom_dim

ORACLE_N = 200
ORACLE_SIGMA_TOL = 1e-7
ORACLE_GAP = 1e4
# Largest |offset| a symbol may carry.  It keeps the band (lower + upper <=
# 2 * MAX_SYMBOL_OFFSET) below ORACLE_N // 2, the smaller oracle size, and
# bounds every allocation that grows with the band before it is made.
MAX_SYMBOL_OFFSET = 32
# Largest winding grid fredholm_index evaluates: its start of 512 points
# reaches it after seven doublings.
MAX_GRID = 65536
# Largest symbol block size, above the 6 of every workload and criterion.
# The winding stack holds grid x b^2 complex values: 64 MiB at MAX_GRID.
MAX_SYMBOL_BLOCK = 8
# Largest exotic truncation size: ambient 4 * 128 = 512, about 0.3 s for
# exotic_report.
MAX_EXOTIC_N = 128


def _past_float_range(mat: Matrix) -> bool:
    """Whether an entry of the exact matrix rounds past the largest float;
    the winding grid and the oracle read the coefficients in floats."""
    # |a / d| < 2^(bits(a) - bits(d) + 1), so only wider entries can overflow
    widest = max(map(abs, mat._re + mat._im), default=0).bit_length()
    if widest - mat._den.bit_length() <= 1022:
        return False
    try:
        mat.to_array()
    except OverflowError:
        return True
    return False


@dataclass(frozen=True)
class LaurentSymbol:
    """Finite-band symbol: offset -> block_size x block_size exact Matrix."""

    block_size: int
    coeffs: tuple  # sorted tuple of (offset, Matrix)

    @staticmethod
    def make(block_size: int, coeffs: dict) -> "LaurentSymbol":
        if block_size > MAX_SYMBOL_BLOCK:
            raise DimensionMismatch(
                f"symbol block size {block_size} exceeds the bound {MAX_SYMBOL_BLOCK}"
            )
        clean = []
        for k, m in sorted(coeffs.items()):
            if abs(k) > MAX_SYMBOL_OFFSET:
                raise DimensionMismatch(
                    f"symbol offset {k} exceeds the bound {MAX_SYMBOL_OFFSET}"
                )
            if isinstance(m, Matrix):
                mat = m
            else:
                mat = Matrix.from_rows(m)
            if mat.rows != block_size or mat.cols != block_size:
                raise DimensionMismatch("symbol coefficient has wrong block size")
            if mat.field != EXACT:
                raise ExactOnlyError(f"symbol coefficient at offset {k} is not exact")
            if _past_float_range(mat):
                raise DimensionMismatch(
                    f"symbol coefficient at offset {k} is past the float range"
                )
            if not mat.is_zero():
                clean.append((k, mat))
        if not clean:
            raise DegenerateSymbolError("symbol has no nonzero coefficient")
        return LaurentSymbol(block_size=block_size, coeffs=tuple(clean))

    @staticmethod
    def scalar(coeffs: dict) -> "LaurentSymbol":
        return LaurentSymbol.make(1, {k: [[v]] for k, v in coeffs.items()})

    @property
    def lower(self) -> int:
        """Largest offset (subdiagonal depth r)."""
        return max(k for k, _ in self.coeffs)

    @property
    def upper(self) -> int:
        """-(smallest offset) (superdiagonal width s)."""
        return -min(k for k, _ in self.coeffs)

    def shift_constant(self, c: GQ) -> "LaurentSymbol":
        """Symbol plus c times the identity block."""
        d = dict(self.coeffs)
        ident = Matrix.identity(self.block_size).scale(c)
        if 0 in d:
            d[0] = d[0] + ident
        else:
            d[0] = ident
        cleaned = {k: m for k, m in d.items() if not m.is_zero()}
        if not cleaned:
            raise DegenerateSymbolError("constant shift cancels the symbol")
        return LaurentSymbol.make(self.block_size, cleaned)

    def adjoint(self) -> "LaurentSymbol":
        """Symbol of the adjoint operator: conjugate-transposed reflection."""
        return LaurentSymbol.make(
            self.block_size, {-k: m.conj_transpose() for k, m in self.coeffs}
        )

    def text(self) -> str:
        parts = [f"block={self.block_size}"]
        for k, m in self.coeffs:
            rows = ",".join("[" + ",".join(row) + "]" for row in m.row_texts())
            parts.append(f"k:{k}=[{rows}]")
        return "; ".join(parts)

    @staticmethod
    def parse(text: str) -> "LaurentSymbol":
        chunks = [c.strip() for c in text.split(";") if c.strip()]
        if not chunks or not chunks[0].startswith("block="):
            raise ParseError("symbol text must start with block=<n>")
        try:
            block = int(chunks[0][len("block=") :])
        except ValueError as exc:
            raise ParseError("bad block size") from exc
        coeffs = {}
        for chunk in chunks[1:]:
            m = _re.match(r"k:(-?\d+)=\[(.*)\]$", chunk)
            if not m:
                raise ParseError(f"bad symbol coefficient {quote(chunk)}")
            k = int(m.group(1))
            if k in coeffs:
                raise ParseError(f"repeated coefficient offset {k}")
            body = m.group(2)
            rows = []
            for rowtext in _re.findall(r"\[([^\]]*)\]", body):
                rows.append([parse_gq(x) for x in rowtext.split(",")])
            if not rows:
                rows = [[parse_gq(x) for x in body.split(",")]]
            if len(rows) != block or any(len(r) != block for r in rows):
                raise ParseError(f"coefficient at offset {k} is not {block}x{block}")
            coeffs[k] = Matrix.from_rows(rows)
        return LaurentSymbol.make(block, coeffs)


@dataclass
class IndexReport:
    fredholm: bool
    winding: int | None
    index: int | None
    ker_dim: int | None = None
    coker_dim: int | None = None
    certification: dict = field(default_factory=dict)


def _winding_on_grid(sym: LaurentSymbol, grid: int):
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    b = sym.block_size
    stack = np.zeros((grid, b, b), dtype=complex)
    for k, m in sym.coeffs:
        # np.power rounds each point like the scalar zz**k; the array
        # operator ** takes square and reciprocal shortcuts that differ
        stack += m.to_array() * np.power(z, k)[:, None, None]
    vals = np.linalg.det(stack)
    absvals = np.abs(vals)
    mx = float(absvals.max()) if grid else 0.0
    mn = float(absvals.min()) if grid else 0.0
    if mx == 0.0:
        raise DegenerateSymbolError("symbol determinant vanishes identically on the grid")
    if mn <= 1e-9 * mx:
        return None, mn, mx
    closed = np.append(vals, vals[0])
    dphi = np.angle(closed[1:] / closed[:-1])
    raw = float(np.sum(dphi) / (2 * np.pi))
    return raw, mn, mx


def _gaussian_det(re: list, im: list, b: int):
    """(re, im) of the determinant of the b x b Gaussian-integer matrix
    re + i*im (flat row-major), by Bareiss's fraction-free elimination: every
    division by the previous pivot is exact."""
    re, im = list(re), list(im)
    sign, prev_re, prev_im = 1, 1, 0
    for k in range(b - 1):
        pivot = next((r for r in range(k, b) if re[r * b + k] or im[r * b + k]), None)
        if pivot is None:
            return 0, 0
        if pivot != k:
            sign = -sign
            for c in range(k, b):
                i, j = k * b + c, pivot * b + c
                re[i], re[j], im[i], im[j] = re[j], re[i], im[j], im[i]
        p_re, p_im = re[k * b + k], im[k * b + k]
        norm = prev_re * prev_re + prev_im * prev_im
        for r in range(k + 1, b):
            f_re, f_im = re[r * b + k], im[r * b + k]
            for c in range(k + 1, b):
                x, y = re[r * b + c], im[r * b + c]
                u, v = re[k * b + c], im[k * b + c]
                n_re = p_re * x - p_im * y - (f_re * u - f_im * v)
                n_im = p_re * y + p_im * x - (f_re * v + f_im * u)
                re[r * b + c] = (n_re * prev_re + n_im * prev_im) // norm
                im[r * b + c] = (n_im * prev_re - n_re * prev_im) // norm
        prev_re, prev_im = p_re, p_im
    return sign * re[-1], sign * im[-1]


def _interpolate(values: list, x0: int) -> list:
    """Integer coefficients, ascending, of the polynomial of degree below
    len(values) whose values at x0, x0 + 1, ... are the given ints, read off
    Newton's forward differences; exact when the polynomial has integer
    coefficients.  With N = len(values) - 1, N! f is expanded in Horner form
    over the Newton basis, in integers, and divided by N! once."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    n = len(values) - 1
    scale = [1] * (n + 1)  # scale[k] = n! / k!
    for k in range(n - 1, -1, -1):
        scale[k] = scale[k + 1] * (k + 1)
    acc = [diffs[n]]
    for k in range(n - 1, -1, -1):
        # acc * (x - (x0 + k)) + diffs[k] * n! / k!
        root = x0 + k
        acc = [a - root * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += diffs[k] * scale[k]
    return [c // scale[0] for c in acc]


def _char_poly_fits(sym: LaurentSymbol) -> bool:
    """Whether `symbol_char_poly` of the exact symbol costs no more than on
    the largest block symbol (b = 8, offsets 0..32) whose integers have
    MAX_EXACT_COUNT_BITS, about 2 s.  Its deg + 1 fraction-free determinants
    take about b^3 products each, of integers of b times the bits of an
    entry of a(x) at the evaluation points over the common denominator; so
    those may have MAX_EXACT_COUNT_BITS times the square root of the largest
    symbol's product count over this one's (the lcm is given up as soon as
    it alone passes that).  A scalar symbol is read off its coefficients."""
    b, width = sym.block_size, sym.lower + sym.upper
    if b == 1:
        return True
    largest = (MAX_SYMBOL_BLOCK * MAX_SYMBOL_OFFSET + 1) * MAX_SYMBOL_BLOCK**3
    limit = MAX_EXACT_COUNT_BITS * math.isqrt(largest // ((width * b + 1) * b**3))
    den = 1
    for _, m in sym.coeffs:
        den = math.lcm(den, m._den)
        if den.bit_length() > limit:
            return False
    entry = max(max(map(abs, m._re + m._im)) * (den // m._den) for _, m in sym.coeffs)
    point = (width * b // 2 + 1).bit_length()
    return b * (entry.bit_length() + width * point + (width + 1).bit_length()) <= limit


def symbol_char_poly(sym: LaurentSymbol) -> Polynomial:
    """det(z^s a(z)), s = sym.upper, as an exact polynomial of degree at most
    (lower + upper) * block_size.

    A scalar symbol gives z^s a(z), read off its coefficients.  For blocks,
    the coefficients are put over one integer denominator, the Gaussian-
    integer determinant is taken fraction-free at deg + 1 consecutive integer
    points around 0, and the polynomial is interpolated exactly."""
    b, s = sym.block_size, sym.upper
    width = sym.lower + s
    deg = width * b
    if b == 1:
        coeffs = [ZERO] * (deg + 1)
        for k, m in sym.coeffs:
            coeffs[k + s] = m.entry(0, 0)
        return Polynomial(coeffs)
    den = math.lcm(*(m._den for _, m in sym.coeffs))
    # entry (i, j) of z^s a(z) has the coefficient of z^e in column i * b + j
    coef_re = np.zeros((width + 1, b * b), dtype=object)
    coef_im = np.zeros((width + 1, b * b), dtype=object)
    for k, m in sym.coeffs:
        scale = den // m._den
        coef_re[k + s] = [v * scale for v in m._re]
        coef_im[k + s] = [v * scale for v in m._im]
    x0 = -(deg // 2)
    powers = np.array(
        [[x**e for e in range(width + 1)] for x in range(x0, x0 + deg + 1)], dtype=object
    )
    dets = [
        _gaussian_det(re, im, b)
        for re, im in zip(powers.dot(coef_re), powers.dot(coef_im))
    ]
    re = _interpolate([d[0] for d in dets], x0)
    im = _interpolate([d[1] for d in dets], x0)
    return Polynomial([GQ._make(a, c, den**b) for a, c in zip(re, im)])


def _exact_zero_counts(sym: LaurentSymbol):
    """(zeros in |z| < 1, zeros on |z| = 1) of det(z^s a(z)), s = sym.upper,
    counted exactly with multiplicity (`disk_zero_counts`); None where the
    exact work would pass `_char_poly_fits` or MAX_EXACT_COUNT_BITS."""
    if not _char_poly_fits(sym):
        return None
    p = symbol_char_poly(sym)
    if p.is_zero():
        raise DegenerateSymbolError("symbol determinant vanishes identically")
    return disk_zero_counts(p)


def _grid_index(sym: LaurentSymbol) -> IndexReport:
    """Fredholm property and winding of det a read on a float grid of 512
    points, doubled until the rounded winding is stable twice, never past
    MAX_GRID."""
    prev, stable = None, 0
    g = 512
    while g <= MAX_GRID:
        raw, mn, _ = _winding_on_grid(sym, g)
        if raw is None:
            return IndexReport(
                fredholm=False, winding=None, index=None,
                certification={"method": "grid", "grid": g, "min_modulus": mn},
            )
        rounded = int(np.round(raw))
        if abs(raw - rounded) <= 0.1:
            stable = stable + 1 if rounded == prev else 1
            prev = rounded
            if stable >= 2:
                return IndexReport(
                    fredholm=True, winding=rounded, index=-rounded,
                    certification={
                        "method": "grid",
                        "grid": g,
                        "min_modulus": mn,
                        "closure": abs(raw - rounded),
                    },
                )
        g *= 2
    raise UncertifiedError("winding did not stabilize under grid doubling")


def fredholm_index(sym: LaurentSymbol) -> IndexReport:
    """Fredholm property, winding of det a on the unit circle and index =
    -winding; where T(a) is not Fredholm, also its kernel and cokernel
    dimensions, with their certification last in the report's.

    Each diagonal part (`_diagonal_parts`) is counted once
    (`_exact_zero_counts`).  With S = upper * b, det a(z) = z^-S p(z), where
    p is the product of the parts' p_j times z^((upper - upper_j) * b_j); so
    T(a) is Fredholm iff no p_j has a zero on the circle, and then the
    winding is (zeros of p in the disk) - S.  Where a part's count is
    refused, as the whole symbol's then is, the winding comes from the float
    grid (`_grid_index`), and the parts after it are counted only where the
    grid finds T(a) not Fredholm.  The same counts, or their refusal, decide
    the kernel dimensions (`_kernel_dims`)."""
    parts = _diagonal_parts(sym)
    counts = []
    for part in parts:
        counts.append(_exact_zero_counts(part))
        if counts[-1] is None:
            break
    if counts[-1] is None:
        rep = _grid_index(sym)
    else:
        inside = sum(c[0] + (sym.upper - p.upper) * p.block_size for p, c in zip(parts, counts))
        circle = sum(c[1] for c in counts)
        winding = None if circle else inside - sym.upper * sym.block_size
        rep = IndexReport(
            fredholm=not circle,
            winding=winding,
            index=None if circle else -winding,
            certification={"method": "exact zero count", "inside": inside, "circle": circle},
        )
    if not rep.fredholm:
        counts += [_exact_zero_counts(part) for part in parts[len(counts):]]
        rep.ker_dim, rep.coker_dim, cert = _kernel_dims(parts, counts)
        rep.certification["kernel_certification"] = cert
    return rep


# Pointer arguments of each LAPACK routine the oracle calls.
_LAPACK_NARGS = {"zgbbrd": 19, "dbdsqr": 15}


@functools.cache
def _lapack_routine(name: str):
    """The LAPACK routine `name` as a ctypes function of pointers.

    scipy.linalg.lapack wraps neither zgbbrd nor dbdsqr, but
    scipy.linalg.cython_lapack exports both as function-pointer capsules
    (Fortran argument order, no hidden string lengths).  Each routine is
    resolved once, on first use, so scipy loads here and not on import."""
    import ctypes

    from scipy.linalg import cython_lapack

    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsule = cython_lapack.__pyx_capi__[name]
    address = capsule_pointer(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * _LAPACK_NARGS[name])(address)


def _lapack(name: str, *args) -> None:
    """Call the LAPACK routine `name`, every argument by pointer: an int as
    an int32, a str as its characters, an array as its data."""
    bufs = [
        np.array([a], dtype=np.int32) if isinstance(a, int)
        else np.frombuffer(a.encode(), dtype=np.uint8) if isinstance(a, str)
        else a
        for a in args
    ]
    _lapack_routine(name)(*(buf.ctypes.data for buf in bufs))


def _truncation_band(sym: LaurentSymbol, n_rows: int, n_cols: int):
    """(ab, m, c, kl, ku): the hard-cutoff truncation A with n_rows x n_cols
    blocks, block (i, j) = a-hat_{i-j}, in LAPACK general band storage, its
    m x c shape and its lower and upper bandwidths read from the nonzero
    pattern."""
    b = sym.block_size
    m, c = n_rows * b, n_cols * b
    rows, cols, vals = [], [], []
    for k, mat in sym.coeffs:
        arr = mat.to_array()
        alpha, beta = np.nonzero(arr)
        i = np.arange(max(k, 0), min(n_rows, n_cols + k))
        rows.append(((i * b)[:, None] + alpha).ravel())
        cols.append((((i - k) * b)[:, None] + beta).ravel())
        vals.append(np.broadcast_to(arr[alpha, beta], (len(i), len(alpha))).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    kl = int(max((rows - cols).max(initial=0), 0))
    ku = int(max((cols - rows).max(initial=0), 0))
    # Fortran AB(ku + 1 + i - j, j) = A(i, j): row j of this C-order array
    # is Fortran column j
    ab = np.zeros((c, kl + ku + 1), dtype=complex)
    ab[cols, ku + rows - cols] = np.concatenate(vals)
    return ab, m, c, kl, ku


def _band_singular_values(ab: np.ndarray, m: int, c: int, kl: int, ku: int) -> np.ndarray:
    """Singular values, ascending, of the m x c band matrix `ab` (which it
    overwrites).  zgbbrd reduces it to a real bidiagonal matrix (Golub-Kahan,
    no vectors) in O(N^2 bw) instead of the O(N^3) of a dense SVD, and
    dbdsqr takes the bidiagonal singular values to high relative accuracy
    (Demmel-Kahan).  Only numpy and LAPACK run here, so it may run on any
    thread."""
    nd = min(m, c)
    d = np.zeros(nd)
    e = np.zeros(max(nd - 1, 1))
    info = np.zeros(1, dtype=np.int32)
    none_c, none_d = np.zeros(1, dtype=complex), np.zeros(1)
    _lapack(
        "zgbbrd", "N", m, c, 0, kl, ku, ab, kl + ku + 1, d, e,
        none_c, 1, none_c, 1, none_c, 1,
        np.zeros(max(m, c), dtype=complex), np.zeros(max(m, c)), info,
    )
    if info[0]:
        raise UncertifiedError(f"zgbbrd failed with info {info[0]}")
    _lapack(
        "dbdsqr", "U" if m >= c else "L", nd, 0, 0, 0, d, e,
        none_d, 1, none_d, 1, none_d, 1, np.zeros(4 * nd), info,
    )
    if info[0]:
        raise UncertifiedError(f"dbdsqr failed with info {info[0]}")
    return d[::-1]


def _gap_count(svals: np.ndarray) -> int:
    """Number of ascending singular values below ORACLE_SIGMA_TOL * max that
    end in a ratio gap of at least ORACLE_GAP: the numeric near-kernel count
    of a tall truncation.

    A decaying kernel vector leaves an exponentially small singular value,
    separated from the rest by a large ratio gap; symbols whose determinant
    merely vanishes on the circle produce polynomially small tails with no
    gap, which must not be counted."""
    if len(svals) == 0:
        return 0
    smax = max(float(svals[-1]), 1.0)
    ceiling = ORACLE_SIGMA_TOL * smax
    count = 0
    for i, s in enumerate(svals):
        if s >= ceiling:
            break
        nxt = float(svals[i + 1]) if i + 1 < len(svals) else smax
        if nxt > s * ORACLE_GAP:
            count = i + 1
    return count


def _tall_band(sym: LaurentSymbol, n: int):
    """The band of the tall truncation with n block columns: rows padded past
    the band, so cut-off growing solutions hit nonzero bottom rows."""
    pad = sym.lower + sym.upper + 2
    return _truncation_band(sym, n + pad, n)


def _diagonal_parts(sym: LaurentSymbol) -> list:
    """The symbols on the connected components of the graph on 0..b-1 that
    joins i and j when some coefficient has a nonzero (i, j) or (j, i)
    entry: up to one permutation of the basis, T(a) is their direct sum."""
    b = sym.block_size
    if b == 1:
        return [sym]
    nonzero = set()  # flat positions i * b + j of the nonzero entries
    for _, m in sym.coeffs:
        nonzero.update(m.nonzero_indices())
    label = list(range(b))  # the component of each coordinate
    for k in nonzero:
        i, j = divmod(k, b)
        if label[i] != label[j]:
            old = label[j]
            label = [label[i] if c == old else c for c in label]
    parts = [[i for i in range(b) if label[i] == x] for x in dict.fromkeys(label)]
    if len(parts) == 1:
        return [sym]
    if any(len(p) == 1 and p[0] * (b + 1) not in nonzero for p in parts):
        # a coordinate whose row and column are zero in every coefficient
        raise DegenerateSymbolError("symbol determinant vanishes identically")
    # picked from the flat positions: the whole symbol passed validation
    out = []
    for p in parts:
        flat = [i * b + j for i in p for j in p]
        coeffs = ((k, m._pick(len(p), len(p), flat)) for k, m in sym.coeffs)
        out.append(LaurentSymbol(len(p), tuple((k, c) for k, c in coeffs if not c.is_zero())))
    return out


def _kernel_dims(parts: list, counts: list | None = None):
    """(ker, coker, certification) of the direct sum of the `parts` of a
    symbol (`_diagonal_parts`): sums over the parts, the weakest
    certification.  Each scalar or one-sided part is read off its
    `_exact_zero_counts`, from `counts` when given, else taken here.

    Such a part is 'exact' (no oracle runs): with S = upper * b, (in, circ)
    the zeros of p = det(z^S a(z)) in the open disk and on the circle, ker =
    max(S - in - circ, 0) and coker = max(in - S, 0).  For a scalar a = z^-S
    p, T(a)x = 0 iff p x = q with deg q < S, and q / p lies in H^2 iff q
    vanishes at the zeros of p in the closed disk; the adjoint swaps inside
    and outside (Coburn's lemma, Boettcher-Silbermann, *Analysis of Toeplitz
    Operators*).  A one-sided block symbol reduces to its diagonal through
    its Smith form a = E D F over C[z], E and F unimodular.  A two-sided
    block part, or one whose count is refused, goes to the tall-truncation
    oracle (`_oracle_kernel_dims`)."""
    dims = []
    for i, part in enumerate(parts):
        count = None
        if part.block_size == 1 or not (part.upper > 0 and part.lower > 0):
            count = _exact_zero_counts(part) if counts is None else counts[i]
        if count is None:
            dims.append(_oracle_kernel_dims(part))
        else:
            s = part.upper * part.block_size
            dims.append((max(s - count[0] - count[1], 0), max(count[0] - s, 0), "exact"))
    kers, cokers, certs = zip(*dims)
    return sum(kers), sum(cokers), min(certs, key=("uncertified", "truncation", "exact").index)


def _oracle_kernel_dims(sym: LaurentSymbol):
    """(ker, coker, certification) from the tall-truncation oracle,
    stability-checked across two sizes ('truncation', or 'uncertified' when
    the sizes disagree).

    The four tall truncations (the symbol and its adjoint, each at ORACLE_N
    and ORACLE_N // 2) are reduced one after another, in the order their
    counts are read, so a LAPACK failure stops the rest."""
    gaps = [
        [_gap_count(_band_singular_values(*_tall_band(which, n)))
         for n in (ORACLE_N, ORACLE_N // 2)]
        for which in (sym, sym.adjoint())
    ]
    stable = all(full == half for full, half in gaps)
    return gaps[0][0], gaps[1][0], "truncation" if stable else "uncertified"


def kernel_dims(sym: LaurentSymbol):
    """(ker, coker, certification) of the half-line operator of the symbol
    (`_kernel_dims` on its diagonal parts)."""
    return _kernel_dims(_diagonal_parts(sym))


@dataclass
class DefectParts:
    contributions: list
    certifications: list
    defect: Fraction


def single_operator_defect(sym: LaurentSymbol) -> Fraction:
    """One third of the index sum of the symbol and the symbol minus one,
    using winding where Fredholm and kernel counts in the quasi case."""
    return single_operator_defect_report(sym).defect


def single_operator_defect_report(sym: LaurentSymbol) -> DefectParts:
    contributions = []
    certifications = []
    for part in (sym, sym.shift_constant(GQ(-1))):
        rep = fredholm_index(part)
        if rep.fredholm:
            contributions.append(rep.index)
            certifications.append(rep.certification | {"kind": "winding"})
            continue
        cert = rep.certification["kernel_certification"]
        if cert == "uncertified":
            raise UncertifiedError("kernel dimensions could not be certified")
        contributions.append(rep.ker_dim - rep.coker_dim)
        certifications.append({"kind": "kernel", "certification": cert})
    return DefectParts(
        contributions=contributions,
        certifications=certifications,
        defect=Fraction(sum(contributions), 3),
    )


REGION_TABLE = {
    (True, True): Fraction(-2, 3),
    (True, False): Fraction(-1, 3),
    (False, True): Fraction(-1, 3),
    (False, False): Fraction(0),
}


def region_classify(alpha: GQ) -> Fraction:
    """Defect of the shift-plus-constant system at the exact alpha, computed
    through the symbol machinery and cross-checked against the region table;
    boundary values of the parameter are rejected."""
    if not isinstance(alpha, GQ):
        raise ExactOnlyError("alpha must be an exact Gaussian rational")
    if alpha.norm2() == 1 or (alpha - GQ(1)).norm2() == 1:
        raise DimensionMismatch("alpha on a region boundary")
    in0 = alpha.norm2() < 1
    in1 = (alpha - GQ(1)).norm2() < 1
    sym = LaurentSymbol.scalar({1: ONE, 0: alpha})
    got = single_operator_defect(sym)
    want = REGION_TABLE[(in0, in1)]
    if got != want:
        raise InvariantViolation(f"region table mismatch: computed {got}, table {want}")
    return got


def shift_matrix(n: int) -> Matrix:
    """Truncated unilateral shift: e_i -> e_{i+1}, e_n -> 0 (hard cutoff)."""
    ents = [ZERO] * (n * n)
    for i in range(1, n):
        ents[i * n + (i - 1)] = ONE
    return Matrix(n, n, EXACT, entries=ents)


def _check_exotic_size(n: int) -> None:
    """Refuse a cutoff outside 4..MAX_EXOTIC_N."""
    if n < 4:
        raise DimensionMismatch("truncation needs n >= 4")
    if n > MAX_EXOTIC_N:
        raise DimensionMismatch(f"truncation size {n} exceeds the bound {MAX_EXOTIC_N}")


def truncate_exotic(gamma: GQ, n: int) -> SubspaceSystem:
    """The deformed-graph system at cutoff n: ambient dimension 4n, third
    subspace = graph of the two-by-two block operator plus one extra line."""
    _check_exotic_size(n)
    t_gamma = exotic_t_matrix(gamma, n)
    two_n = 2 * n
    d = 4 * n
    e1 = Subspace.span(
        Matrix.vstack([Matrix.identity(two_n), Matrix.zeros(two_n, two_n)])
    )
    e2 = Subspace.span(
        Matrix.vstack([Matrix.zeros(two_n, two_n), Matrix.identity(two_n)])
    )
    graph = Matrix.vstack([Matrix.identity(two_n), t_gamma])
    ents = [ZERO] * d
    ents[3 * n] = ONE  # (0,0,0,e_1)
    extra = Matrix(d, 1, EXACT, entries=ents)
    e3 = Subspace.span(Matrix.hstack([graph, extra]))
    e4 = Subspace.span(Matrix.vstack([Matrix.identity(two_n), Matrix.identity(two_n)]))
    return SubspaceSystem(d, [e1, e2, e3, e4])


def _exotic_float_subspaces(gamma: GQ, n: int) -> list:
    """Float E1..E4 with orthonormal bases.  E1 = [I; 0] and E2 = [0; I] are
    their own orthonormal bases.  E3 and E4 are orthonormalised from their
    canonical exact bases [[I; T_gamma] | e] and [I; I], with gamma rounded
    as Matrix.to_array rounds it, so the SVD input equals that of
    truncate_exotic(gamma, n).to_float()."""
    two_n = 2 * n
    eye = np.eye(two_n, dtype=complex)
    zero = np.zeros((two_n, two_n), dtype=complex)
    t = np.zeros((two_n, two_n), dtype=complex)
    k = np.arange(n - 1)
    t[k, k + 1] = gamma.to_complex()  # gamma S^T
    t[np.arange(n), n + np.arange(n)] = 1  # I
    t[n + 1 + k, n + k] = 1  # S
    extra = np.zeros((4 * n, 1), dtype=complex)
    extra[3 * n] = 1  # (0,0,0,e_1)
    bases = [
        np.vstack([eye, zero]),
        np.vstack([zero, eye]),
        np.hstack([np.vstack([eye, t]), extra]),
        np.vstack([eye, eye]),
    ]
    return [
        Subspace(Matrix.from_array(a, tol=DEFAULT_TOL), _canonical=i < 2)
        for i, a in enumerate(bases)
    ]


@dataclass
class ExoticReport:
    pair_intersections: dict
    pair_angles: dict
    diagram: object
    not_operator_system: bool
    defect_estimate: Fraction
    details: dict = field(default_factory=dict)


def exotic_report(gamma: GQ, n: int, tol: float = 1e-6) -> ExoticReport:
    """Exact pair data for the truncated exotic system, the intersection
    diagram from that data and the thresholded angles, the
    not-an-operator-system flag, and the defect estimate from
    near-intersections.

    The pair data come from the system's graph structure, not from a 4n
    dimensional truncation; the tests check them against truncate_exotic
    and intersect."""
    if gamma.norm2() <= 1:
        raise DimensionMismatch("the lab needs |gamma| > 1")
    if _past_float_range(Matrix.exact(1, 1, [gamma])):
        raise DimensionMismatch("gamma is past the float range")
    _check_exotic_size(n)
    # E1 = H + 0, E2 = 0 + H, E3 = graph(T) + Ce with e = (0, e_{n+1}) and
    # E4 the diagonal: a point (u, Tu + ce) of E3 lies in E1 when Tu + ce = 0
    # and in E4 when (T - I)u + ce = 0, and in E2 only when u = 0.  With
    # u = (x, y) and T = [[gamma S^T, I], [0, S]], (T - lam I)u + ce = 0 reads
    # c = lam y_1, y_k = lam y_{k+1} and y_k + gamma x_{k+1} = lam x_k, with
    # x_{n+1} = 0.  At lam = 0 that leaves x = t e_1, y = 0, c = 0; at lam = 1,
    # y = c (1, ..., 1), and x follows from x_n = c.  Both are lines, for
    # every gamma != 0 and n.
    d = 4 * n
    dims = (2 * n, 2 * n, 2 * n + 1, 2 * n)
    m = {(1, 2): 0, (1, 3): 1, (1, 4): 0, (2, 3): 1, (2, 4): 0, (3, 4): 1}
    # E1 ⊥ E2, and the diagonal E4 is at pi/4 to both, for every gamma and n
    known = {(1, 2): math.pi / 2, (1, 4): math.pi / 4, (2, 4): math.pi / 4}
    sf = _exotic_float_subspaces(gamma, n)
    nperp, angles, near = {}, {}, dict(m)
    for pair, mij in m.items():
        i, j = pair[0] - 1, pair[1] - 1
        # Grassmann: dim(a + b) = dim a + dim b - dim(a ∩ b)
        nperp[pair] = d - dims[i] - dims[j] + mij
        if pair in known:
            angles[pair] = known[pair]
            continue
        ang = principal_angles(sf[i], sf[j])
        angles[pair] = float(ang[0])
        # near-intersections past the exact part count on (3,4) only
        if pair == (3, 4):
            near[pair] = max(int(np.sum(ang < tol)), mij)
    for pair in ((1, 2), (1, 4), (2, 4)):
        if m[pair] != 0 or nperp[pair] != 0:
            raise UncertifiedError(f"pair {pair} is not exactly complementary")
    diagram = diagram_from_pairs(4, m, angles, tol)
    not_op = diagram.isolated(3)
    total = sum(near[p] - nperp[p] for p in near)
    estimate = Fraction(total, 3)
    return ExoticReport(
        pair_intersections=m,
        pair_angles=angles,
        diagram=diagram,
        not_operator_system=not_op,
        defect_estimate=estimate,
        details={"near_counts": near, "nperp": nperp},
    )


def upper_toeplitz(first_row, n: int | None = None) -> Matrix:
    """Upper-triangular Toeplitz matrix from its first row (exact)."""
    row = [x if isinstance(x, GQ) else GQ(x) for x in first_row]
    if n is None:
        n = len(row)
    ents = [ZERO] * (n * n)
    for i in range(n):
        for j in range(i, n):
            if j - i < len(row):
                ents[i * n + j] = row[j - i]
    return Matrix(n, n, EXACT, entries=ents)


@dataclass
class ToeplitzIdempotentCheck:
    is_idempotent: bool
    lemma_holds: bool


def toeplitz_idempotent_check(first_row, n: int | None = None) -> ToeplitzIdempotentCheck:
    """The constant-diagonal upper-triangular Toeplitz idempotent law: if the
    matrix is idempotent it must be 0 or the identity."""
    t = upper_toeplitz(first_row, n)
    idem = (t @ t) == t
    return ToeplitzIdempotentCheck(
        is_idempotent=idem, lemma_holds=(not idem) or t.is_zero() or t.is_identity()
    )


def exotic_t_matrix(gamma: GQ, n: int) -> Matrix:
    """The deformed block operator of the lab (exact truncation)."""
    s = shift_matrix(n)
    return Matrix.vstack(
        [
            Matrix.hstack([s.transpose().scale(gamma), Matrix.identity(n)]),
            Matrix.hstack([Matrix.zeros(n, n), s]),
        ]
    )


def hom_dimension_decay(gamma: GQ, beta: GQ, sizes=(8, 16, 32)):
    """Exact intertwiner-space dimensions between truncated exotic systems
    across cutoffs (`hom_dim`): the evidence for the non-isomorphism claim."""
    return [hom_dim(truncate_exotic(gamma, n), truncate_exotic(beta, n)) for n in sizes]
