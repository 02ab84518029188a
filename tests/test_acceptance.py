"""Acceptance suite: one case per entry of relpos.verify.CRITERIA, each
printing a PASS/FAIL line.

The sweeps, their pinned parameters and the time budgets live in that table;
run with `pytest -s tests/test_acceptance.py` to see the lines stream.  Each
case also hashes the report exactly as `relpos --json verify NAME` prints it
and compares the sha256 with VERIFY_JSON_SHA256, so an exact output that
moves fails here."""

import hashlib
import time

import pytest

from relpos.cli import _render_report, verify_report
from relpos.verify import CRITERIA

# sha256 of the standard output of `relpos --json verify NAME`
VERIFY_JSON_SHA256 = {
    "gp-range": "8d4ea163f23541aee94d1ce19e4c6e28c1796e924dcfa4d19a1e354468d90874",
    "catalog-indecomposability": "c45c4b7f8a825fbc277406ed45574ee97cadb534ec6b5caf7d52bfd1dbce371a",
    "gp-complete": "6de79227a83e04afcb6b4371fb49bc55b1e4e9bec6ef139d2862f2b54ab92812",
    "three-types": "12ed1b382b493f13d5707f0c706e23d33fd78c2f0b2619f6620c696016e51964",
    "two-types": "f81521927b87beb07932d6d612f815da89707b479e9b9b1b137a3de60b73f3b0",
    "coxeter-duality": "e0936797d33aa0a667605c597fed85cd881c15137d33e69e3c15d94b5c35f47d",
    "fractional-defects": "d3f8b72e4c27d36f8bc94a2b010ec0d4696054b808fbbed510007129d3346df5",
    "strong-irreducibility": "d3bdbc7dbe4c082028391254b7f5e31ba5f205f8420f81047d077c07398e0aeb",
    "exotic-lab": "0563d02ded39f92d9b9ae81ba7bf3b7c72a6b773c9a433213efa445f511dbfcc",
    "halmos": "6ac7c69df9ab9ee618ebeae1e3da82ea6e4435673ca5091c6bfff92c92a4eaa3",
    "infinite-dim-evidence": "0b398c4db59aceee8ee4cec2b0a5e4ea4940afc019fcbb303c303a6b02e4307c",
}


@pytest.mark.parametrize("crit", CRITERIA, ids=lambda c: f"{c.number}-{c.name}")
def test_criterion(crit):
    t0 = time.time()
    rep = crit.sweep()
    elapsed = time.time() - t0
    status = "PASS" if rep.passed else "FAIL"
    budget = "" if crit.budget_s is None else f" / budget {crit.budget_s}s"
    print(f"ACCEPTANCE {crit.number} {rep.name}: {status} [checked {rep.checked}] ({elapsed:.1f}s{budget})")
    if rep.details:
        print(f"  details: {rep.details}")
    for f in rep.failures[:10]:
        print(f"  failure: {f}")
    assert rep.passed
    if crit.budget_s is not None:
        assert elapsed < crit.budget_s
    printed = _render_report(verify_report(crit.name, rep), as_json=True) + "\n"
    assert hashlib.sha256(printed.encode()).hexdigest() == VERIFY_JSON_SHA256[crit.name]
