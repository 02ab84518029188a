"""Seeded input generator for the benchmark workloads.

Every workload runs in rounds of a fixed composition.  Each input has a
shape (subspace dimensions, Jordan partition and eigenvalues, catalog family,
symbol band, pair dimensions, |gamma|) and numbers (matrix entries,
coefficients, vectors, maps).  Shapes come from `random.Random(f"{workload}:
shape:{r}")`, the same for every seed, so every run walks through the same
mix of problem sizes; numbers come from `random.Random(f"{workload}:{seed}:
{r}")`.  The same seed always gives the same inputs, and any round can be made
on its own.  Each item carries the text the program receives (system files,
matrix text, symbol text, catalog keys, scalars) and the verdict the
generator expects, computed here without the program.

This module uses only the standard library, so a worker can generate inputs
before it imports relpos (and numpy) inside its timed set-up.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

WORKLOADS = ("classify", "operator", "lab")
DEFAULT_SEED = 1  # the seed perfbench/reference/ records verdict digests for

# The fixed composition of one round: (item kind, size) per position.  The
# sizes are stratified so that every round costs about the same, and the
# seed varies the numbers inside each input.
ROUNDS = {
    "classify": tuple(("classify", (n, d)) for n in (2, 3, 4) for d in range(1, 6)),
    "operator": (("iso", 3),) * 4 + (("jordan", 4),) * 4 + (("jordan", 5), ("iso", 4), ("iso", 4), ("jordan", 6)),
    "lab": (("symbol", 1),) * 24 + (("alpha", 1),) * 8 + (("halmos", 40),) * 24
    + tuple(("block", b) for b in range(1, 7)) + tuple(("exotic", n) for n in (16, 24, 32)),
}

# Rounds parsed inside the timed set-up (setup_s); later rounds are parsed
# between rounds, outside the measured wall time.
SETUP_ROUNDS = {"classify": 4, "operator": 2, "lab": 1}

GP4_FAMILIES = (
    "S3(2k,-1)",
    "S3(2k,1)",
    "S13(2k,0)",
    "S(2k,0;l)",
    "S1(2k+1,-1)",
    "S2(2k+1,1)",
    "S13(2k+1,0)",
    "S(2k+1,-2)",
    "S(2k+1,2)",
)

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
UNITS = (ONE, (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))


# -- exact Gaussian rationals as (re, im) Fraction pairs ----------------------

def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _norm2(a):
    return a[0] * a[0] + a[1] * a[1]


def fmt(z) -> str:
    """Scalar text in the program's syntax (`2`, `-1/2i`, `3+1/2i`)."""
    re, im = z
    if im == 0:
        return str(re)
    imag = ("" if im == 1 else "-" if im == -1 else str(im)) + "i"
    if re == 0:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def _gq(rng, span, denominators):
    return (
        Fraction(rng.randint(-span, span), rng.choice(denominators)),
        Fraction(rng.randint(-span, span), rng.choice(denominators)),
    )


def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x == ZERO:
                continue
            row = out[i]
            for j in range(m):
                if b[t][j] != ZERO:
                    row[j] = _add(row[j], _mul(x, b[t][j]))
    return out


def _inverse(a):
    """Exact inverse by Gauss-Jordan, or None when singular."""
    n = len(a)
    m = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != ZERO), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        piv = _inv(m[c][c])
        m[c] = [_mul(piv, x) for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != ZERO:
                f = m[r][c]
                m[r] = [_sub(x, _mul(f, y)) for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _random_invertible(rng, d, span=2):
    """A d x d matrix with Gaussian-integer entries in [-span, span] and its
    exact inverse (the distribution of relpos.sampling.random_invertible)."""
    while True:
        p = [[(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))
              for _ in range(d)] for _ in range(d)]
        q = _inverse(p)
        if q is not None:
            return p, q


def matrix_text(m) -> str:
    """Rows separated by `;`, entries by `,`."""
    return ";".join(",".join(fmt(x) for x in row) for row in m)


def _sysfile(d, subspaces, exact=True) -> str:
    lines = [
        "relpos-system 1",
        f"field {'gaussian-rational' if exact else 'complex-float'}",
        f"ambient {d}",
    ]
    for i, rows in enumerate(subspaces):
        lines.append(f"subspace E{i + 1} dim {len(rows)}")
        for row in rows:
            lines.append(" ".join((fmt if exact else _cfmt)(x) for x in row))
    return "\n".join(lines) + "\n"


def _cfmt(z: complex) -> str:
    sep = "+" if z.imag >= 0 else ""
    return f"{z.real!r}{sep}{z.imag!r}i"


# -- classify -----------------------------------------------------------------

# Shapes (n, d, sorted subspace dimensions) that classify draws again, because
# relpos fails on them.  A generic system of such a shape holds two copies of
# the indecomposable 2:(1,1,1), and `decompose` reports that 4:(2,2,2) summand
# as one leaf `indecomposable_over_QI` instead of splitting it: its idempotent
# search tries elements of End/rad = M_2(Q(i)), whose minimal polynomials
# rarely split over Q(i).  Criterion 4 expects no such leaf for n < 4,
# so this is a defect of the program, and it stands; the benchmark measures
# operations that succeed and prints these shapes with every classify run.
# Every other shape with n < 4 and d <= 5 decomposed completely in three draws.
DEFECT_SHAPES = frozenset({(3, 4, (2, 2, 2)), (3, 5, (2, 3, 3))})


def _classify_item(shape, rng, n, d):
    """The criterion-3 sampler at a given (n, d): each subspace is spanned by
    a random number (0..d) of vectors with entries of span 2 and
    denominators 1 and 2.  A shape in DEFECT_SHAPES is drawn again."""
    dims = [shape.randint(0, d) for _ in range(n)]
    while (n, d, tuple(sorted(dims))) in DEFECT_SHAPES:
        dims = [shape.randint(0, d) for _ in range(n)]
    subspaces = [[[_gq(rng, 2, (1, 1, 2)) for _ in range(d)] for _ in range(k)] for k in dims]
    return {"n": n, "d": d, "text": _sysfile(d, subspaces)}


# -- operator -----------------------------------------------------------------

EIGEN_POOL = (
    ONE, (Fraction(-1), Fraction(0)), ZERO, (Fraction(2), Fraction(0)),
    (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(0)),
)
LAMBDAS = ("2", "-1", "3+i", "1/2")


def _partitions(total, largest=None):
    """All partitions of total, largest part first."""
    if total == 0:
        return [[]]
    largest = total if largest is None else largest
    return [[p] + rest for p in range(min(total, largest), 0, -1) for rest in _partitions(total - p, p)]


def _jordan_item(shape, rng, size, index):
    """T = P J P^-1 for a Jordan form J with Q(i) eigenvalues and a random
    invertible P; the expected block structure is the constructed one.

    J takes the index-th partition of the size (cyclically), and its blocks
    alternate between two distinct eigenvalues."""
    parts = _partitions(size)
    lams = shape.sample(EIGEN_POOL, 2)
    j = [[ZERO] * size for _ in range(size)]
    blocks = {}
    at = 0
    for b, part in enumerate(parts[index % len(parts)]):
        lam = lams[b % 2]
        blocks.setdefault(fmt(lam), []).append(part)
        for i in range(part):
            j[at + i][at + i] = lam
            if i + 1 < part:
                j[at + i][at + i + 1] = ONE
        at += part
    p, q = _random_invertible(rng, size)
    t = _matmul(_matmul(p, j), q)
    return {"text": matrix_text(t), "blocks": {k: sorted(v) for k, v in sorted(blocks.items())}}


def _iso_item(shape, rng, family, k):
    """A gp4 catalog member and a random invertible map; the program must
    find S and its image isomorphic."""
    parts = [f"gp4:{family}", f"k={k}"]
    if family == "S(2k,0;l)":
        parts.append(f"l={shape.choice(LAMBDAS)}")
    perm = [1, 2, 3, 4]
    shape.shuffle(perm)
    parts.append("perm=" + "".join(map(str, perm)))
    d = 2 * k + (1 if "2k+1" in family else 0)
    p, _ = _random_invertible(rng, d)
    return {"key": ".".join(parts), "map": matrix_text(p)}


# -- lab ----------------------------------------------------------------------

def _winding(coeffs, grid=4096):
    """Winding number of sum c_k z^k around 0 on the unit circle, and the
    smallest modulus seen (argument principle on a fine grid)."""
    terms = [(k, complex(c[0], c[1])) for k, c in coeffs.items()]
    total = 0.0
    prev = None
    low = math.inf
    for g in range(grid + 1):
        z = cmath.exp(2j * math.pi * g / grid)
        v = sum(a * z**k for k, a in terms)
        low = min(low, abs(v))
        if v == 0:
            return 0, 0.0
        if prev is not None:
            total += cmath.phase(v / prev)
        prev = v
    return round(total / (2 * math.pi)), low


def _symbol_text(block, coeffs) -> str:
    parts = [f"block={block}"]
    for k in sorted(coeffs):
        m = coeffs[k]
        parts.append(f"k:{k}=[" + ",".join("[" + ",".join(fmt(x) for x in row) + "]" for row in m) + "]")
    return "; ".join(parts)


def _scalar_symbol_item(shape, rng):
    """A random banded scalar symbol a (offsets -2..2) such that a and a - 1
    stay at least 0.05 away from 0 on the unit circle; the expected defect is
    (ind a + ind(a - 1)) / 3 with ind = -winding."""
    lo = shape.randint(-2, 0)
    hi = shape.randint(0, 2)
    while True:
        coeffs = {k: _gq(rng, 3, (1, 2)) for k in range(lo, hi + 1)}
        coeffs = {k: c for k, c in coeffs.items() if c != ZERO}
        if not coeffs:
            continue
        minus = dict(coeffs)
        minus[0] = _sub(minus.get(0, ZERO), ONE)
        minus = {k: c for k, c in minus.items() if c != ZERO}
        if not minus:
            continue
        scale = max(math.sqrt(_norm2(c)) for c in coeffs.values())
        w_a, low_a = _winding(coeffs)
        w_m, low_m = _winding(minus)
        if min(low_a, low_m) < 0.05 * max(scale, 1.0):
            continue
        text = _symbol_text(1, {k: [[c]] for k, c in coeffs.items()})
        return {"text": text, "defect": str(Fraction(-w_a - w_m, 3))}


def _alpha_item(rng):
    """A point of the criterion-6 alpha grid (p/20 + q/20 i) off both
    boundary circles; the expected value is the region table entry."""
    while True:
        alpha = (Fraction(rng.randint(-40, 40), 20), Fraction(rng.randint(-12, 12), 20))
        n0 = _norm2(alpha)
        n1 = _norm2(_sub(alpha, ONE))
        if n0 != 1 and n1 != 1:
            break
    inside = (n0 < 1) + (n1 < 1)
    return {"text": fmt(alpha), "defect": str(Fraction(-inside, 3))}


def _householder(rng, d):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
    n2 = sum(abs(x) ** 2 for x in v)
    return v, n2


def _apply_unitary(refl, phases, x):
    """U x with U = H1 H2 diag(phases), H = I - 2 v v* / |v|^2."""
    y = [p * xi for p, xi in zip(phases, x)]
    for v, n2 in reversed(refl):
        dot = sum(vi.conjugate() * yi for vi, yi in zip(v, y))
        f = 2 * dot / n2
        y = [yi - f * vi for vi, yi in zip(v, y)]
    return y


def _halmos_item(shape, rng, max_d):
    """A random complex pair (E, F) in C^d, 2 <= d <= max_d, as a float
    system file, plus its image under a random unitary; the angle spectrum
    must not move and the decomposition residual must stay below 1e-10."""
    d = shape.randint(2, max_d)
    dims = (shape.randint(1, d - 1), shape.randint(1, d - 1))
    vecs = [
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(k)]
        for k in dims
    ]
    refl = [_householder(rng, d) for _ in range(2)]
    phases = [cmath.exp(2j * math.pi * rng.random()) for _ in range(d)]
    rotated = [[_apply_unitary(refl, phases, v) for v in sub] for sub in vecs]
    return {
        "d": d,
        "text": _sysfile(d, vecs, exact=False),
        "rotated": _sysfile(d, rotated, exact=False),
    }


def _block_item(rng, b):
    """The criterion-6 block symbol z I + N (N the nilpotent shift) conjugated
    by a random unipotent Gaussian-integer matrix; the defect stays -b/3 and
    a - 1 is not Fredholm, so the tall-truncation SVD oracle decides it."""
    p = [[ONE if i == j else ZERO for j in range(b)] for i in range(b)]
    for i in range(b):
        for j in range(i + 1, b):
            p[i][j] = (Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1)))
    n = [[ONE if i == j + 1 else ZERO for j in range(b)] for i in range(b)]
    a0 = _matmul(_matmul(p, n), _inverse(p))
    ident = [[ONE if i == j else ZERO for j in range(b)] for i in range(b)]
    return {"text": _symbol_text(b, {0: a0, 1: ident}), "defect": str(Fraction(-b, 3))}


EXOTIC_GAMMAS = tuple((Fraction(a), Fraction(b)) for a, b in (("3/2", 0), (2, 0), (1, 1), (2, 1), (3, 0)))


def _exotic_item(shape, rng, n):
    """The truncated exotic system at cutoff n for gamma = u * g, with g from
    {3/2, 2, 1+i, 2+i, 3} and u a random unit (1, i, -1, -i)."""
    gamma = _mul(rng.choice(UNITS), shape.choice(EXOTIC_GAMMAS))
    return {"n": n, "gamma": fmt(gamma)}


# -- rounds -------------------------------------------------------------------

def _label(kind, size) -> str:
    """The item's name in reports: kind plus the size that sets its cost."""
    if kind == "classify":
        return f"classify{size[0]}"
    return kind if kind in ("symbol", "alpha", "halmos") else f"{kind}{size}"


def make_round(workload: str, seed: int, r: int):
    """The items of round r: dicts with the item kind and label, its text
    inputs, the expected verdict and the seed the program is called with."""
    shape = random.Random(f"{workload}:shape:{r}")
    rng = random.Random(f"{workload}:{seed}:{r}")
    spec = ROUNDS[workload]
    items = []
    for pos, (kind, size) in enumerate(spec):
        # walks through the partitions (jordan) and families (iso) across
        # positions and rounds
        index = r * spec.count((kind, size)) + spec[:pos].count((kind, size))
        if kind == "classify":
            item = _classify_item(shape, rng, *size)
        elif kind == "jordan":
            item = _jordan_item(shape, rng, size, index)
        elif kind == "iso":
            item = _iso_item(shape, rng, GP4_FAMILIES[(index + size) % len(GP4_FAMILIES)], size)
        elif kind == "symbol":
            item = _scalar_symbol_item(shape, rng)
        elif kind == "alpha":
            item = _alpha_item(rng)
        elif kind == "halmos":
            item = _halmos_item(shape, rng, size)
        elif kind == "block":
            item = _block_item(rng, size)
        elif kind == "exotic":
            item = _exotic_item(shape, rng, size)
        else:
            raise ValueError(kind)
        item["kind"] = kind
        item["label"] = _label(kind, size)
        item["seed"] = (seed * 1_000_003 + r * 97 + pos) % (2**31)
        items.append(item)
    return items
