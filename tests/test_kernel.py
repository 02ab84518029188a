"""The exact kernel: fraction-free elimination against a Fraction-based
oracle, and exact matmul."""

import random
from fractions import Fraction

import pytest

from relpos import kernel
from relpos.gaussian import GQ


def fraction_rref(rows, ncols):
    """Plain Gauss-Jordan on lists of complex Fractions: the oracle."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        found = None
        for r in range(pr, nrows):
            if m[r][pc] != 0:
                found = r
                break
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        piv = m[pr][pc]
        m[pr] = [x / piv for x in m[pr]]
        for r in range(nrows):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
    return m, pivots


def run_ffgj(mod, re, im, nrows, ncols):
    rre, rim, pivots, dre, dim = mod.ffgj(re, im, nrows, ncols)
    den = GQ(dre, dim)
    out = [GQ(a, b) / den for a, b in zip(rre, rim)]
    return out, pivots


def random_int_matrix(rng, nrows, ncols, lo=-5, hi=5):
    re = [rng.randint(lo, hi) for _ in range(nrows * ncols)]
    im = [rng.randint(lo, hi) for _ in range(nrows * ncols)]
    return re, im


@pytest.mark.parametrize("seed", range(25))
def test_ffgj_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 7)
    ncols = rng.randint(1, 7)
    re, im = random_int_matrix(rng, nrows, ncols)
    got, pivots = run_ffgj(kernel, re, im, nrows, ncols)
    rows = [
        [GQ(re[i * ncols + j], im[i * ncols + j]) for j in range(ncols)]
        for i in range(nrows)
    ]
    want, want_pivots = fraction_rref(rows, ncols)
    assert list(pivots) == want_pivots
    for i in range(nrows):
        for j in range(ncols):
            assert got[i * ncols + j] == want[i][j]


def test_ffgj_identity():
    re = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    im = [0] * 9
    got, pivots = run_ffgj(kernel, re, im, 3, 3)
    assert list(pivots) == [0, 1, 2]
    assert got[0] == GQ(1) and got[4] == GQ(1) and got[8] == GQ(1)


def test_matmul_small():
    # (1+i) * (1-i) = 2
    cre, cim = kernel.matmul([1], [1], 1, 1, [1], [-1], 1)
    assert cre == [2] and cim == [0]


def test_selected_backend_reports_name():
    assert kernel.backend_name() == "pure"
