"""Cross-module invariant sweeps drawn from the structural theory: catalog
distinctness, the (n-1)-subfamily property, defect arithmetic on random
data."""

import random
from fractions import Fraction

import pytest

from relpos.catalog import build, gp4_reference_keys
from relpos.decompose import are_isomorphic, decompose
from relpos.gaussian import GQ
from relpos.sampling import random_system
from relpos.system import defect, hom_dim, predicates
from relpos.verify import catalog_keys_for_indecomposability

SMALL_LAMBDAS = (GQ(2), GQ(-1), GQ(3, 1), GQ(Fraction(1, 2)))


def test_distinct_gp4_keys_pairwise_non_isomorphic_k3():
    keys = gp4_reference_keys(3, lambdas=SMALL_LAMBDAS)
    groups = {}
    for key in keys:
        s = build(key)
        groups.setdefault((s.ambient_dim, s.dims()), []).append((key, s))
    pairs = 0
    for (_, entries) in groups.items():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                res = are_isomorphic(entries[i][1], entries[j][1], seed=31)
                pairs += 1
                assert res.status == "not_isomorphic", (
                    entries[i][0].text(),
                    entries[j][0].text(),
                    res.status,
                )
    assert pairs >= 10


def test_catalog_n_minus_1_property_dim_at_least_two():
    for key in catalog_keys_for_indecomposability(3, lambdas=(GQ(2),)):
        s = build(key)
        if s.ambient_dim >= 2:
            assert predicates(s).n_minus_1_property, key.text()


def test_catalog_indecomposability_preserved_under_perp():
    for key in catalog_keys_for_indecomposability(2, lambdas=(GQ(2),)):
        s = build(key)
        tree = decompose(s.orthocomplement(), seed=5)
        assert tree.indecomposable, key.text()


def test_defect_always_thirds_on_random_data():
    rng = random.Random(23)
    for _ in range(25):
        s = random_system(rng, rng.randint(1, 5), 4)
        rho = defect(s).defect
        assert (3 * rho).denominator == 1


def test_hom_dim_zero_systems():
    from relpos.system import zero_system

    z = zero_system(4)
    assert hom_dim(z, z) == 0
    rng = random.Random(29)
    s = random_system(rng, 3, 4)
    assert hom_dim(s, z) == 0
    assert hom_dim(z, s) == 0
