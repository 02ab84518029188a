"""Seeded random generators for systems, subspaces, invertible maps and
Jordan-form conjugates; every draw is reproducible from its Random instance."""

from __future__ import annotations

import random
from fractions import Fraction

from .catalog import jordan_block
from .errors import InvariantViolation
from .gaussian import GQ
from .matrix import Matrix
from .subspace import Subspace
from .system import SubspaceSystem, predicates


def random_gq(rng: random.Random, span=3, denominators=(1, 1, 2)) -> GQ:
    den_r = rng.choice(denominators)
    den_i = rng.choice(denominators)
    return GQ(
        Fraction(rng.randint(-span, span), den_r),
        Fraction(rng.randint(-span, span), den_i),
    )


def random_subspace(rng: random.Random, d: int, dim=None, span=2) -> Subspace:
    if dim is None:
        dim = rng.randint(0, d)
    rows = [[random_gq(rng, span) for _ in range(d)] for _ in range(dim)]
    return Subspace.span_rows(d, rows)


def random_system(rng: random.Random, d: int, n: int, span=2) -> SubspaceSystem:
    return SubspaceSystem(d, [random_subspace(rng, d, span=span) for _ in range(n)])


def random_invertible(rng: random.Random, d: int, span=2, max_tries=200) -> Matrix:
    for _ in range(max_tries):
        m = Matrix.exact(
            d, d, [GQ(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(d * d)]
        )
        if m.is_invertible():
            return m
    raise InvariantViolation("failed to sample an invertible matrix")


def random_partition(rng: random.Random, total: int):
    parts = []
    left = total
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return parts


def random_jordan_conjugate(rng: random.Random, max_dim=6, eigen_pool=None):
    """An invertible-conjugated Jordan form with Q(i) eigenvalues.

    Returns (matrix, blocks) where blocks maps eigenvalue -> sorted sizes."""
    if eigen_pool is None:
        eigen_pool = [GQ(0), GQ(1), GQ(-1), GQ(2), GQ(0, 1), GQ(1, 1), GQ(Fraction(1, 2))]
    d = rng.randint(1, max_dim)
    sizes = random_partition(rng, d)
    blocks = {}
    mats = []
    for size in sizes:
        lam = rng.choice(eigen_pool)
        blocks.setdefault(lam, []).append(size)
        mats.append(jordan_block(size, lam))
    j = Matrix.block_diag(mats)
    p = random_invertible(rng, d)
    for sizes_list in blocks.values():
        sizes_list.sort()
    return p @ j @ p.inverse(), blocks


def random_reduced_above_system(rng: random.Random, d: int, n: int, max_tries=400) -> SubspaceSystem:
    """Rejection-sample a system that is reduced from above."""
    for _ in range(max_tries):
        dims = [rng.randint(max(1, d // 2), d) for _ in range(n)]
        s = SubspaceSystem(d, [random_subspace(rng, d, dim=k) for k in dims])
        if predicates(s).reduced_above:
            return s
    raise InvariantViolation("failed to sample a reduced-from-above system")
