"""Halmos decomposition and two-subspace classification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from relpos import angles
from relpos.angles import classify_two_system, halmos_decompose
from relpos.decompose import decompose
from relpos.gaussian import GQ
from relpos.matrix import Matrix
from relpos.sampling import random_system
from relpos.subspace import Subspace, principal_angles
from relpos.system import SubspaceSystem


def tofloat(rows, d):
    return Subspace.span(Matrix.from_array(np.array(rows, dtype=complex).T.reshape(d, -1)))


def random_float_subspace(rng, d, k):
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return Subspace.span(Matrix.from_array(a))


def test_single_angle_pair():
    # 1e-4 and 1e-5 once fell into E ∩ F and E⊥ ∩ F⊥, with a residual of
    # about 1.4 times the angle
    e = tofloat([[1, 0]], 2)
    for th in (np.pi / 6, 1e-4, 1e-5):
        f = tofloat([[np.cos(th), np.sin(th)]], 2)
        dec = halmos_decompose(e, f)
        assert dec.part_dims == {
            "intersection": 0,
            "generic": 1,
            "e_only": 0,
            "f_only": 0,
            "perp_both": 0,
        }, th
        assert abs(dec.angles[0] - th) < 1e-12
        assert dec.residual < 1e-12


def _tan_pair(theta, d):
    """E and F in C^d at the one angle atan(t), for t = tan(theta) rounded to
    a float and taken as an exact rational (F = span(e2) at pi/2), and that
    angle.  In C^6, e3 lies in E only, e4 in F only, e5 and e6 in neither."""
    if theta == math.pi / 2:
        f_row, want = [0, 1], theta
    else:
        t = math.tan(theta)
        f_row, want = [1, GQ(Fraction(t))], math.atan(t)
    pad = [0] * (d - 2)
    e_rows, f_rows = [[1, 0, *pad]], [[*f_row, *pad]]
    if d == 6:
        e_rows.append([0, 0, 1, 0, 0, 0])
        f_rows.append([0, 0, 0, 1, 0, 0])
    return Subspace.span_rows(d, e_rows), Subspace.span_rows(d, f_rows), want


@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-5, 1e-4, 0.3, math.pi / 4, 1.2, math.pi / 2])
def test_angles_of_constructed_pairs_are_accurate(theta, d):
    e, f, want = _tan_pair(theta, d)
    tol = 4 * math.ulp(want) + 1e-15
    got = principal_angles(e, f)
    extra = d == 6
    assert len(got) == 1 + extra
    assert abs(got[0] - want) <= tol, got
    if extra:
        assert abs(got[1] - math.pi / 2) <= 4 * math.ulp(math.pi / 2) + 1e-15, got
    dec = halmos_decompose(e, f)
    meet = want <= angles.CORNER_TOL
    perp = want >= math.pi / 2 - angles.CORNER_TOL
    generic = not (meet or perp)
    dims = {"intersection": int(meet), "generic": int(generic),
            "e_only": perp + extra, "f_only": perp + extra}
    dims["perp_both"] = d - sum(dims.values()) - generic
    assert dec.part_dims == dims
    if generic:
        assert abs(dec.angles[0] - want) <= tol, dec.angles
        assert dec.residual < 1e-12
    else:
        # a corner pair is read at its corner, a distance of about sqrt(2) theta
        assert dec.residual < 2 * min(want, math.pi / 2 - want) + 1e-12


def test_equal_subspaces():
    rng = np.random.default_rng(1)
    e = random_float_subspace(rng, 5, 2)
    dec = halmos_decompose(e, e)
    assert dec.part_dims["intersection"] == 2
    assert dec.part_dims["generic"] == 0
    assert dec.residual < 1e-10


def test_orthogonal_subspaces():
    e = tofloat([[1, 0, 0]], 3)
    f = tofloat([[0, 1, 0]], 3)
    dec = halmos_decompose(e, f)
    assert dec.part_dims["e_only"] == 1
    assert dec.part_dims["f_only"] == 1
    assert dec.part_dims["perp_both"] == 1
    assert dec.part_dims["generic"] == 0


@pytest.mark.parametrize("seed", range(8))
def test_reconstruction_and_unitary(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    e = random_float_subspace(rng, d, int(rng.integers(1, d + 1)))
    f = random_float_subspace(rng, d, int(rng.integers(1, d + 1)))
    dec = halmos_decompose(e, f)
    u = dec.unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-10
    assert dec.residual < 1e-10
    # dim-count identity on the E side
    assert e.dim == dec.part_dims["intersection"] + dec.part_dims["generic"] + dec.part_dims["e_only"]


def test_angle_spectrum_unitary_invariance():
    rng = np.random.default_rng(42)
    d = 10
    e = random_float_subspace(rng, d, 4)
    f = random_float_subspace(rng, d, 5)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    qm = Matrix.from_array(q)
    from relpos.subspace import image_under

    e2 = image_under(qm, e)
    f2 = image_under(qm, f)
    a1 = halmos_decompose(e, f).angles
    a2 = halmos_decompose(e2, f2).angles
    assert len(a1) == len(a2)
    if len(a1):
        assert np.max(np.abs(a1 - a2)) < 1e-8


def test_classify_two_system_exact_cases():
    s = SubspaceSystem(
        2,
        [Subspace.span_rows(2, [[1, 0]]), Subspace.span_rows(2, [[0, 1]])],
    )
    cls = classify_two_system(s)
    assert cls.multiplicities == {
        "(C;C,C)": 0,
        "(C;C,0)": 1,
        "(C;0,C)": 1,
        "(C;0,0)": 0,
    }
    line = SubspaceSystem(
        1, [Subspace.span_rows(1, [[1]]), Subspace.span_rows(1, [[1]])]
    )
    cls = classify_two_system(line)
    assert cls.multiplicities["(C;C,C)"] == 1
    assert cls.total_dim() == 1


def test_exact_generic_angle_below_the_corner_tolerance():
    # the lattice counts one generic pair; its angle, about 1e-9, lies
    # below CORNER_TOL and must still be reported
    s = SubspaceSystem(
        2,
        [Subspace.span_rows(2, [[1, 0]]),
         Subspace.span_rows(2, [[1, GQ(Fraction(1, 10**9))]])],
    )
    cls = classify_two_system(s)
    assert cls.multiplicities == {"(C;C,C)": 0, "(C;C,0)": 1, "(C;0,C)": 1, "(C;0,0)": 0}
    assert len(cls.angles) == 1
    assert abs(cls.angles[0] - 1e-9) < 1e-20
    assert cls.angles[0] < angles.CORNER_TOL


def test_exact_pair_decomposition_follows_the_lattice_counts():
    # the same pair: its decomposition has the one generic part the lattice
    # counts, not E ∩ F + E⊥ ∩ F⊥, so it reconstructs both projections
    s = SubspaceSystem(
        2,
        [Subspace.span_rows(2, [[1, 0]]),
         Subspace.span_rows(2, [[1, GQ(Fraction(1, 10**9))]])],
    )
    dec = classify_two_system(s).decomposition
    assert dec.part_dims["intersection"] == 0 and dec.part_dims["generic"] == 1
    assert dec.residual < 1e-12
    # E = (e1, e2, e4), F = (e1, e2 + e3, e5): one of each part, and the
    # angle pi/2 between e4 and e5 is one of the min(dim E, dim F) = 3
    e1, e2, e3, e4, e5 = [[int(i == j) for i in range(6)] for j in range(5)]
    e23 = [a + b for a, b in zip(e2, e3)]
    s = SubspaceSystem(
        6, [Subspace.span_rows(6, [e1, e2, e4]), Subspace.span_rows(6, [e1, e23, e5])]
    )
    dec = classify_two_system(s).decomposition
    assert set(dec.part_dims.values()) == {1}
    assert dec.residual < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_classification_matches_decompose(seed):
    rng = random.Random(seed)
    s = random_system(rng, rng.randint(1, 6), 2)
    cls = classify_two_system(s)
    assert cls.total_dim() == s.ambient_dim
    dims = cls.decomposition.part_dims
    g = dims["generic"]
    assert {
        "(C;C,C)": dims["intersection"],
        "(C;C,0)": dims["e_only"] + g,
        "(C;0,C)": dims["f_only"] + g,
        "(C;0,0)": dims["perp_both"],
    } == cls.multiplicities
    assert cls.decomposition.residual < 1e-9
    tree = decompose(s, seed=seed)
    counts = {"(C;C,C)": 0, "(C;C,0)": 0, "(C;0,C)": 0, "(C;0,0)": 0}
    for comp in tree.components:
        assert comp.ambient_dim == 1
        key = (
            "(C;"
            + ("C" if comp.subspaces[0].dim else "0")
            + ","
            + ("C" if comp.subspaces[1].dim else "0")
            + ")"
        )
        counts[key] += 1
    assert counts == cls.multiplicities


def gram_schmidt(cols):
    """Modified Gram-Schmidt with one re-orthogonalisation pass: the loop
    the Householder QR of `halmos_decompose` replaced, kept as reference."""
    q = cols.astype(complex).copy()
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= (q[:, i].conj() @ q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def test_halmos_unitary_matches_gram_schmidt(monkeypatch):
    rng = np.random.default_rng(29)
    pairs = []
    for t in range(50):
        d = int(rng.integers(2, 41))
        e = random_float_subspace(rng, d, int(rng.integers(1, d)))
        f = random_float_subspace(rng, d, int(rng.integers(1, d)))
        if t % 3 == 0:
            # a shared direction puts columns into the E ∩ F corner
            shared = e.basis.to_array()[:, :1]
            f = Subspace.span(Matrix.from_array(np.hstack([shared, f.basis.to_array()])))
        pairs.append((e, f))
    inputs = []
    unitary_columns = angles._unitary_columns
    monkeypatch.setattr(
        angles, "_unitary_columns", lambda cols: inputs.append(cols) or unitary_columns(cols)
    )
    got = [halmos_decompose(e, f) for e, f in pairs]
    monkeypatch.setattr(angles, "_unitary_columns", gram_schmidt)
    want = [halmos_decompose(e, f) for e, f in pairs]
    assert any(dec.part_dims["intersection"] for dec in got)
    for cols, dec, ref in zip(inputs, got, want):
        u = dec.unitary
        d = u.shape[0]
        assert np.max(np.abs(u - gram_schmidt(cols))) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-13
        assert dec.residual < 1e-12
        assert dec.part_dims == ref.part_dims
        assert dec.angles.tobytes() == ref.angles.tobytes()
