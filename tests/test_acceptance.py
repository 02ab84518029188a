"""Acceptance suite: one case per entry of relpos.verify.CRITERIA, each
printing a PASS/FAIL line.

The sweeps, their pinned parameters and the time budgets live in that table;
run with `pytest -s tests/test_acceptance.py` to see the lines stream."""

import time

import pytest

from relpos.verify import CRITERIA


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
