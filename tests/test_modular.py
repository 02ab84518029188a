"""The multimodular nullspace against fraction-free elimination: entry-by-entry
equality on random and catalog matrices, unlucky primes, the shape gate, the
budget and the fallbacks, the reconstruction schedule that the nullspace and
the gcd of `relpos.poly` share, and the prime table."""

import random
from fractions import Fraction

import pytest

from relpos import kernel, modular
from relpos.catalog import build_gp4, jordan_block, single_operator_system
from relpos.gaussian import GQ, ONE
from relpos.matrix import Matrix
from relpos.poly import Polynomial
from relpos.sampling import random_system
from relpos.sysfile import system_from_text
from relpos.system import _dense, _hom_rows

from test_cli_fuzz import four_subspaces


def rand_entry(rng, bits, kind):
    span = 2**bits
    re = rng.randint(-span, span)
    im = 0 if kind == "real" else rng.randint(-span, span)
    if kind == "qi":
        return GQ(Fraction(re, rng.randint(1, 6)), Fraction(im, rng.randint(1, 6)))
    return GQ(re, im)


def rand_matrix(rng, rows, cols, rank, bits, kind):
    """rows x cols with the given rank (None: generic), entries of about `bits` bits."""
    if rank is None:
        return Matrix.exact(rows, cols, [rand_entry(rng, bits, kind) for _ in range(rows * cols)])
    if rank == 0:
        return Matrix.zeros(rows, cols)
    left = rand_matrix(rng, rows, rank, None, bits // 2 + 1, kind)
    right = rand_matrix(rng, rank, cols, None, bits // 2 + 1, kind)
    return left @ right


def with_zero_rows(m, every):
    zero = Matrix.zeros(1, m.cols)
    rows = [zero if i % every == 0 else m.take_rows([i]) for i in range(m.rows)]
    return Matrix.vstack(rows)


def force_lift(monkeypatch):
    """Price fraction-free elimination a thousand times higher, so that every
    lift here runs until its check passes; one whose checks never pass still
    stops on the budget."""
    price = modular._bareiss_price
    monkeypatch.setattr(modular, "_bareiss_price", lambda *args: 1000 * price(*args))


@pytest.fixture
def lift_always(monkeypatch):
    """Run the lift even where the shape gate MIN_SIDE or the budget would
    send the matrix to fraction-free elimination."""
    monkeypatch.setattr(modular, "MIN_SIDE", 1)
    force_lift(monkeypatch)


def modular_nullspace(m):
    re, im = m._primitive_rows()
    ker = modular.nullspace(re, im, m.rows, m.cols)
    assert ker is not None
    return Matrix._ints(m.cols, len(ker.free), ker.re, ker.im, ker.den), ker


# (rows, cols, rank, bits, kind): tall, wide and square; full, deficient and
# zero rank; Z[i], Q(i) and real entries up to about 200 bits; both sides of
# MIN_SIDE (the fixture opens the gate).
CASES = [
    (6, 8, None, 4, "zi"),
    (9, 5, 3, 6, "qi"),
    (8, 12, None, 4, "zi"),
    (20, 10, None, 4, "qi"),
    (16, 16, 9, 8, "zi"),
    (12, 12, None, 3, "real"),
    (36, 40, None, 3, "zi"),
    (50, 36, 20, 4, "qi"),
    (40, 40, 30, 10, "real"),
    (33, 33, None, 2, "zi"),
    (34, 34, 0, 2, "zi"),
    (6, 34, None, 200, "zi"),
    (40, 34, 4, 200, "qi"),
    (10, 18, 5, 120, "zi"),
]


@pytest.mark.usefixtures("lift_always")
@pytest.mark.parametrize("case", CASES, ids=[f"{c[0]}x{c[1]}-r{c[2]}-{c[3]}b-{c[4]}" for c in CASES])
def test_matches_fraction_free(case):
    rows, cols, rank, bits, kind = case
    rng = random.Random(CASES.index(case))
    m = rand_matrix(rng, rows, cols, rank, bits, kind)
    want = m._nullspace_ffgj()
    got, ker = modular_nullspace(m)
    assert got == want
    assert ker.checks >= 1
    assert m.nullspace() == want


@pytest.mark.usefixtures("lift_always")
@pytest.mark.parametrize("seed", range(3))
def test_zero_rows_in_the_middle(seed):
    rng = random.Random(seed)
    m = with_zero_rows(rand_matrix(rng, 45, 40, 25, 6, "zi"), 3)
    assert m.nullspace() == m._nullspace_ffgj()


def catalog_pairs():
    lam = GQ(2)
    yield build_gp4("S(2k+1,2)", 3), build_gp4("S(2k+1,2)", 3)
    yield build_gp4("S(2k+1,2)", 3), build_gp4("S1(2k+1,-1)", 3)
    yield build_gp4("S(2k,0;l)", 3, lam), build_gp4("S13(2k,0)", 3)
    yield build_gp4("S3(2k,1)", 3), build_gp4("S3(2k,-1)", 3)
    op = single_operator_system(jordan_block(4, GQ(1, 1)))
    yield op, op
    rng = random.Random(11)
    yield random_system(rng, 6, 4), random_system(rng, 6, 4)


def hom_constraints(s, t):
    """The dense constraint matrix whose nullspace hom_space(s, t) takes."""
    return _dense(_hom_rows(s, t), range(s.ambient_dim * t.ambient_dim))


@pytest.mark.usefixtures("lift_always")
@pytest.mark.parametrize("pair", range(6))
def test_hom_constraints_of_catalog_pairs(pair):
    s, t = list(catalog_pairs())[pair]
    c = hom_constraints(s, t)
    assert min(c.rows, c.cols) >= modular.MIN_SIDE
    got, _ = modular_nullspace(c)
    assert got == c._nullspace_ffgj()


def test_catalog_and_operator_hom_constraints_take_the_lift():
    # Each lift stops after a few primes, well inside the budget, the random
    # pair's (nullity 13 of 36 columns) too.  The last system, four planes
    # in Q(i)^8 with entries n/m, |n| <= 10^6, has 48 x 64 End constraints
    # of about 126 bits: their Hadamard bound prices Bareiss high, and the
    # lift takes about 70 primes, ten times faster.
    large = system_from_text(four_subspaces(8, 2, fractions=True))
    for s, t in [*catalog_pairs(), (large, large)]:
        modular_nullspace(hom_constraints(s, t))


@pytest.mark.usefixtures("lift_always")
def test_unlucky_rational_prime_is_discarded():
    # Over Q(i) column 0 is a pivot; mod the first table prime it vanishes
    # and the pivot moves right, so that prime must be thrown away.
    p0, _ = modular.prime(0)
    c = lead_block(Matrix.from_rows([[p0]]), random.Random(5), 20, 36)
    got, ker = modular_nullspace(c)
    assert ker.discarded >= 1
    assert got == c._nullspace_ffgj()


def lead_block(lead, rng, rows, cols):
    """`lead` in the top-left corner, zeros below it, random entries elsewhere."""
    k = lead.cols
    top = Matrix.hstack([lead, rand_matrix(rng, lead.rows, cols - k, None, 3, "zi")])
    rest = rand_matrix(rng, rows - lead.rows, cols - k, None, 3, "zi")
    return Matrix.vstack([top, Matrix.hstack([Matrix.zeros(rows - lead.rows, k), rest])])


@pytest.mark.usefixtures("lift_always")
def test_unlucky_gaussian_prime_in_one_embedding():
    # s - i vanishes under i -> s only: the two images of the first prime
    # disagree on the pivots and the prime is discarded.
    p0, s0 = modular.prime(0)
    c = lead_block(Matrix.from_rows([[GQ(s0, -1)]]), random.Random(6), 10, 34)
    got, ker = modular_nullspace(c)
    assert ker.discarded >= 1
    assert got == c._nullspace_ffgj()


@pytest.mark.usefixtures("lift_always")
def test_unlucky_pivot_minor():
    # The leading 2x2 minor is p0 although no entry is divisible by p0, so
    # mod p0 the second pivot moves right.
    p0, _ = modular.prime(0)
    c = lead_block(Matrix.from_rows([[1, 2], [3, 6 + p0]]), random.Random(7), 7, 40)
    got, ker = modular_nullspace(c)
    assert ker.discarded >= 1
    assert got == c._nullspace_ffgj()


@pytest.mark.usefixtures("lift_always")
def test_failed_checks_fall_back_to_fraction_free(monkeypatch):
    rng = random.Random(8)
    m = rand_matrix(rng, 6, 34, 4, 6, "zi")
    want = m._nullspace_ffgj()
    monkeypatch.setattr(modular, "_certify", lambda *args: None)
    re, im = m._primitive_rows()
    assert modular.nullspace(re, im, m.rows, m.cols) is None
    assert m.nullspace() == want


def count_images(monkeypatch):
    """The primes of every image _rref_mod eliminates from now on."""
    seen = []
    rref_mod = modular._rref_mod
    monkeypatch.setattr(modular, "_rref_mod", lambda a, p: seen.append(p) or rref_mod(a, p))
    return seen


def routed_images(monkeypatch, m):
    """The images the routed lift of m eliminates before its budget sends m
    to fraction-free elimination."""
    images = count_images(monkeypatch)
    re, im = m._primitive_rows()
    assert modular.nullspace(re, im, m.rows, m.cols) is None
    return len(images)


def test_wide_large_entries_go_to_fraction_free(monkeypatch):
    # A generic 20x40 matrix with 61-bit entries has a 20-dimensional kernel
    # whose entries need 161 primes (322 images); Bareiss is several times
    # faster, so the budget stops the lift early (after 76 images).
    m = rand_matrix(random.Random(9), 20, 40, None, 61, "zi")
    assert 2 <= routed_images(monkeypatch, m) < 322
    assert m.nullspace() == m._nullspace_ffgj()


def test_large_kernel_found_by_the_first_prime_goes_to_fraction_free(monkeypatch):
    # Square, but the first prime shows rank 10 and a 20-dimensional kernel
    # with 61-bit entries, which take 42 primes (84 images; the budget stops
    # the lift after 36).
    m = rand_matrix(random.Random(10), 30, 30, 10, 61, "zi")
    assert 2 <= routed_images(monkeypatch, m) < 84
    assert m.nullspace() == m._nullspace_ffgj()


def count_lifts(monkeypatch):
    """The shapes of every elimination that modular.nullspace lifts from now on."""
    lifted = []
    nullspace = modular.nullspace

    def counted(re, im, nrows, ncols):
        ker = nullspace(re, im, nrows, ncols)
        if ker is not None:
            lifted.append((nrows, ncols))
        return ker

    monkeypatch.setattr(modular, "nullspace", counted)
    return lifted


def test_inverse_traffic_stays_under_the_gate(monkeypatch):
    # The augmented [A | I] of an 8 x 8 inverse is 8 x 16: one side under
    # MIN_SIDE, so the route is fixed before numpy is touched.
    a = rand_matrix(random.Random(12), 8, 8, None, 4, "zi")
    lifted = count_lifts(monkeypatch)
    monkeypatch.setattr(modular, "np", None)
    assert a @ a.inverse() == Matrix.identity(8)
    assert a.rref()[1] == tuple(range(8))
    assert lifted == []


def test_rref_past_the_gate_takes_the_lift(monkeypatch):
    # small real entries: four primes, cheaper than Bareiss
    m = rand_matrix(random.Random(13), 20, 24, None, 2, "real")
    rre, rim, pivots, dre, dim = kernel.ffgj(*m._primitive_rows(), m.rows, m.cols)
    lifted = count_lifts(monkeypatch)
    r, got_pivots = m.rref()
    assert lifted == [(20, 24)]
    assert got_pivots == tuple(pivots)
    assert r == Matrix._ints(m.rows, m.cols, rre, rim, dre, dim)


def test_sparse_matrix_with_a_huge_entry_goes_to_fraction_free(monkeypatch):
    # [I | B] with one 997-bit entry in B: the lift needs 65 primes (65
    # images), each reducing all 480 Python ints, while Bareiss barely
    # touches the huge entry.  The budget stops the lift before its end
    # (after 40 images).
    rng = random.Random(14)
    m = Matrix.hstack([Matrix.identity(20), rand_matrix(rng, 20, 4, None, 3, "real")])
    m = m + Matrix.exact(20, 24, [10**300 if k == 23 else 0 for k in range(20 * 24)])
    rre, rim, pivots, dre, dim = kernel.ffgj(*m._primitive_rows(), m.rows, m.cols)
    assert 2 <= routed_images(monkeypatch, m) < 65
    assert m.rref() == (Matrix._ints(m.rows, m.cols, rre, rim, dre, dim), tuple(pivots))


# n -> n + n//4 + 1 from 1: the combined-prime counts at which a lift
# reconstructs its candidate
SCHEDULE = [1, 2, 3, 4, 6, 8, 11, 14, 18, 23, 29, 37, 47, 59, 74, 93, 117, 147]


def reconstructions(monkeypatch):
    """From now on, the combined-prime count of every reconstruction and the
    count after every prime fed to a lift."""
    seen, fed = [], []
    reconstruct, add = modular._Lift.reconstruct, modular._Lift.add

    def counted(lift):
        seen.append(lift.primes)
        return reconstruct(lift)

    def counted_add(lift, *args):
        got = add(lift, *args)
        fed.append(lift.primes)
        return got

    monkeypatch.setattr(modular._Lift, "reconstruct", counted)
    monkeypatch.setattr(modular._Lift, "add", counted_add)
    return seen, fed


def generic_kernel(bits):
    """A generic 20 x 40 Z[i] matrix with entries of the given bits (a
    `bench_nullspace.py` table 3 shape), lifted under `force_lift`."""
    def run(monkeypatch):
        force_lift(monkeypatch)
        m = rand_matrix(random.Random(bits), 20, 40, None, bits, "zi")
        want = m._nullspace_ffgj()
        seen, fed = reconstructions(monkeypatch)
        got, ker = modular_nullspace(m)
        assert got == want
        assert ker.discarded == 0 and ker.primes == fed[-1] >= 10
        assert ker.checks <= len(seen)
        return seen, fed
    return run


def planted_gcd(monkeypatch):
    # h has roots of about 200 bits over denominators, so its coefficients
    # take several primes; the cofactors share no root with each other
    rng = random.Random(15)
    roots = [rand_entry(rng, 200, "qi") / rng.randint(1, 2**60) for _ in range(3)]
    h = Polynomial([ONE])
    for r in roots:
        h = h * Polynomial([-r, ONE])
    a = h * Polynomial([GQ(3), GQ(0, 5), ONE])
    b = h * Polynomial([GQ(-7, 1), ONE]) * GQ(2, 9)
    seen, fed = reconstructions(monkeypatch)
    g, qa, qb = a.gcd(b)
    assert g == h.monic()
    assert g * qa == a and g * qb == b
    return seen, fed


@pytest.mark.parametrize(
    "lift",
    [generic_kernel(8), generic_kernel(30), planted_gcd],
    ids=["nullspace-8-bit", "nullspace-30-bit", "gcd-planted"],
)
def test_reconstruction_follows_the_schedule(monkeypatch, lift):
    # the lift reconstructs at the schedule's counts only, and returns the
    # candidate of its last reconstruction without a further prime
    seen, fed = lift(monkeypatch)
    assert len(seen) >= 5
    assert seen == SCHEDULE[: len(seen)]
    assert seen[-1] == fed[-1]


def test_gcd_with_a_derivative_finishes_at_the_first_prime(monkeypatch):
    # (x - 2)^2 (x + i) and its derivative: the gcd x - 2 reconstructs and
    # divides both at the first prime
    x = Polynomial([GQ(0), ONE])
    f = (x - Polynomial([GQ(2)])) ** 2 * (x + Polynomial([GQ(0, 1)]))
    seen, fed = reconstructions(monkeypatch)
    g, _, _ = f.gcd(f.derivative())
    assert g == Polynomial([GQ(-2), ONE])
    assert seen == fed == [1]


def test_prime_table():
    def is_prime(n):
        if n % 2 == 0:
            return False
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True

    modular.prime(11)
    seen = []
    for p, s in modular._PRIMES:
        assert p < 2**31
        assert p % 4 == 1
        assert is_prime(p)
        assert s * s % p == p - 1
        seen.append(p)
    assert seen == sorted(set(seen), reverse=True)


def test_rational_reconstruction():
    m = 2**61 - 1
    for n, d in [(3, 7), (-5, 12), (0, 1), (1, 1), (-1, 10**8)]:
        u = n * pow(d, -1, m) % m
        assert modular._ratrecon(u, m, 2**30) == (n, d)
