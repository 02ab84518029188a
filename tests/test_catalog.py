"""Catalog generators: exact bases, defect labels, indecomposability,
pairwise distinctness, operator-system identities, key round trips."""

import random
from fractions import Fraction

import pytest

from relpos.catalog import (
    GP4_DEFECTS,
    GP4_FAMILIES,
    MAX_CATALOG_DIM,
    CatalogKey,
    build,
    build_example,
    build_gp3,
    build_gp4,
    build_one,
    build_two,
    finite_type_keys,
    gp4_label_permutation,
    gp4_reference_keys,
    jordan_block,
    operator_system,
    orthocomplement_identity_check,
    single_operator_system,
)
from relpos.decompose import are_isomorphic, decompose
from relpos.errors import DimensionMismatch, ParseError
from relpos.gaussian import GQ, parse_gq
from relpos.matrix import Matrix
from relpos.sampling import random_gq
from relpos.system import defect, permute


def test_gp4_dimension_examples():
    s = build_gp4("S3(2k,-1)", 2)
    assert s.ambient_dim == 4
    assert s.dims() == (2, 2, 1, 2)
    s = build_gp4("S(2k+1,-2)", 1)
    assert s.ambient_dim == 3
    assert s.dims() == (1, 1, 1, 1)
    assert defect(s).defect == Fraction(-2)


def test_gp3_nine():
    s9 = build_gp3(9)
    assert s9.ambient_dim == 2
    assert s9.dims() == (1, 1, 1)


def test_gp4_defect_labels_small():
    for family in GP4_FAMILIES:
        even = "2k," in family and "2k+1" not in family
        for k in (1, 2, 3):
            lam = GQ(2) if family == "S(2k,0;l)" else None
            s = build_gp4(family, k, lam)
            assert defect(s).defect == Fraction(GP4_DEFECTS[family]), (family, k)
        if not even:
            s = build_gp4(family, 0)
            assert defect(s).defect == Fraction(GP4_DEFECTS[family]), (family, 0)


def test_gp4_lambda_validation():
    with pytest.raises(DimensionMismatch):
        build_gp4("S(2k,0;l)", 2, GQ(0))
    with pytest.raises(DimensionMismatch):
        build_gp4("S(2k,0;l)", 2, GQ(1))
    with pytest.raises(DimensionMismatch):
        build_gp4("S(2k,0;l)", 2)
    with pytest.raises(DimensionMismatch):
        build_gp4("S3(2k,1)", 2, GQ(2))


def test_gp4_permutation_labels():
    s3 = build_gp4("S3(2k,-1)", 2)
    perm = gp4_label_permutation("S3(2k,-1)", i=1)
    s1 = build_gp4("S3(2k,-1)", 2, perm=perm)
    assert s1 == permute(s3, perm)
    assert s1.dims() == (1, 2, 2, 2)
    # transposition applied twice is the identity
    assert permute(permute(s3, perm), perm) == s3


def test_catalog_key_text_roundtrip():
    keys = [
        CatalogKey(kind="gp4", family="S(2k+1,2)", k=1),
        CatalogKey(kind="gp4", family="S(2k,0;l)", k=3, lam=GQ(2)),
        CatalogKey(kind="gp4", family="S13(2k,0)", k=2, perm=(2, 1, 3, 4)),
        CatalogKey(kind="gp3", index=9),
        CatalogKey(kind="two", index=3),
        CatalogKey(kind="one", index=1),
        CatalogKey(kind="example", index=7),
        CatalogKey(kind="jordan", k=2, lam=GQ(0, 1)),
    ]
    for key in keys:
        assert CatalogKey.parse(key.text()) == key
        build(key)


def test_catalog_key_parse_spec_spellings():
    key = CatalogKey.parse("gp4:S(2k+1,2).k=1")
    assert key.family == "S(2k+1,2)" and key.k == 1
    key = CatalogKey.parse("gp4:S(2k,0;l).k=3.l=2+0i.perm=1234")
    assert key.lam == GQ(2)
    assert key.perm == (1, 2, 3, 4)
    with pytest.raises(ParseError):
        CatalogKey.parse("gp4:S(9k).k=1")
    with pytest.raises(ParseError):
        CatalogKey.parse("nope:1")


def test_every_gp4_entry_indecomposable_small():
    for key in gp4_reference_keys(2, lambdas=(GQ(2), GQ(-1))):
        tree = decompose(build(key), seed=13)
        assert tree.indecomposable and tree.certified(), key.text()


def test_gp3_entries_indecomposable_and_commutative_split():
    for i in range(1, 10):
        s = build_gp3(i)
        tree = decompose(s, seed=3)
        assert tree.indecomposable and tree.certified()
        if i < 9:
            assert s.ambient_dim == 1
    assert build_gp3(9).ambient_dim == 2


def test_two_and_one_entries():
    for i in (1, 2, 3, 4):
        assert decompose(build_two(i), seed=1).indecomposable
    for i in (1, 2):
        assert decompose(build_one(i), seed=1).indecomposable


def test_finite_type_keys_in_index_order():
    assert [k.text() for k in finite_type_keys(3)] == [f"gp3:{i}" for i in range(1, 10)]
    assert [k.text() for k in finite_type_keys(2)] == [f"two:{i}" for i in range(1, 5)]
    assert [k.text() for k in finite_type_keys(1)] == ["one:1", "one:2"]
    assert finite_type_keys(4) == finite_type_keys(0) == []


def test_distinct_gp4_keys_non_isomorphic_spotcheck():
    # same ambient dimension, different families or lambda
    d4 = [
        build_gp4("S3(2k,-1)", 2),
        build_gp4("S3(2k,1)", 2),
        build_gp4("S13(2k,0)", 2),
        build_gp4("S(2k,0;l)", 2, GQ(2)),
        build_gp4("S(2k,0;l)", 2, GQ(3)),
        build_gp4("S(2k,0;l)", 2, GQ(Fraction(1, 2))),
    ]
    for i in range(len(d4)):
        for j in range(i + 1, len(d4)):
            res = are_isomorphic(d4[i], d4[j], seed=7)
            assert res.status == "not_isomorphic", (i, j, res.status)


def test_operator_system_shapes():
    t = Matrix.from_rows([[0, 1], [0, 0], [1, 1]])  # K1=C^2 -> K2=C^3
    s = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    sys_ = operator_system(t, s)
    assert sys_.ambient_dim == 5
    assert sys_.dims() == (2, 3, 2, 3)


def test_single_operator_scalar_is_transitive():
    from relpos.decompose import is_transitive

    s = single_operator_system(Matrix.from_rows([[GQ(0, 1)]]))
    assert is_transitive(s)
    assert s.ambient_dim == 2


def test_st_normalization_isomorphism():
    # S_{T,S} ~ S_{I,TS} for invertible T, with the explicit block witness
    rng = random.Random(5)
    t = Matrix.from_rows([[1, 1], [0, 1]])
    s = Matrix.from_rows([[random_gq(rng, 2) for _ in range(2)] for _ in range(2)])
    left = operator_system(t, s)
    right = operator_system(Matrix.identity(2), t @ s)
    phi = Matrix.block_diag([t, Matrix.identity(2)])
    assert left.apply(phi) == right


def test_orthocomplement_identity_operator_systems():
    rng = random.Random(6)
    assert orthocomplement_identity_check(
        Matrix.identity(1), Matrix.identity(1)
    ).holds
    assert orthocomplement_identity_check(
        jordan_block(2, GQ(0)), Matrix.identity(2)
    ).holds
    for _ in range(3):
        t = Matrix.from_rows(
            [[random_gq(rng, 2) for _ in range(3)] for _ in range(3)]
        )
        s = Matrix.from_rows(
            [[random_gq(rng, 2) for _ in range(3)] for _ in range(3)]
        )
        assert orthocomplement_identity_check(t, s).holds


def test_examples_build():
    for i in (3, 4, 6, 7, 8, 9, 10):
        build_example(i)
    with pytest.raises(DimensionMismatch):
        build_example(5)
    s5 = build_example(5, params=[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert decompose(s5, seed=1).indecomposable
    with pytest.raises(ParseError):
        build_example(11)


def test_build_is_memoised_on_the_key():
    # equal keys, parsed apart, share one built system; a bad key still raises
    text = "gp4:S(2k,0;l).k=2.l=1/2+i"
    first = build(CatalogKey.parse(text))
    assert build(CatalogKey.parse(text)) is first
    assert first == build_gp4("S(2k,0;l)", 2, parse_gq("1/2+i"))
    for _ in range(2):
        with pytest.raises(ParseError):
            build(CatalogKey(kind="gp3", index=10))


def test_key_ambient_dim_matches_the_built_system():
    keys = [f"gp4:{f}.k=2" + (".l=2" if f == "S(2k,0;l)" else "") for f in GP4_FAMILIES]
    for text in keys + ["jordan:k=3.l=1"]:
        key = CatalogKey.parse(text)
        assert key.ambient_dim() == build(key).ambient_dim
    assert CatalogKey.parse("gp3:5").ambient_dim() is None


@pytest.mark.parametrize(
    "text,d",
    [("gp4:S3(2k,-1).k=257", 514), ("gp4:S(2k+1,2).k=256", 513), ("jordan:k=257.l=1", 514)],
)
def test_keys_past_the_dimension_bound_are_refused(text, d):
    key = CatalogKey.parse(text)
    assert key.ambient_dim() == d > MAX_CATALOG_DIM
    with pytest.raises(DimensionMismatch, match="exceeds the bound"):
        build(key)
