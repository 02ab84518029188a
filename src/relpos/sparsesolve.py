"""Exact sparse Gaussian elimination for rank/nullity of very sparse
Gaussian-rational systems: the intertwiner constraints of
`toeplitz.exotic_hom_dim`, its only caller.  Rows are dicts column -> GQ;
pivoting is Markowitz-style to limit fill-in."""

from __future__ import annotations

from .gaussian import GQ


def sparse_rank(rows, ncols: int) -> int:
    """Rank of the sparse row system over Q(i)."""
    work = [dict(r) for r in rows if r]
    col_rows: dict[int, set] = {}
    for idx, r in enumerate(work):
        for c in r:
            col_rows.setdefault(c, set()).add(idx)
    alive = set(range(len(work)))
    rank = 0
    while alive:
        best = None
        best_cost = None
        for idx in alive:
            r = work[idx]
            if not r:
                continue
            rlen = len(r)
            for c, v in r.items():
                cost = (rlen - 1) * (len(col_rows.get(c, ())) - 1)
                if best_cost is None or cost < best_cost:
                    best = (idx, c)
                    best_cost = cost
                    if cost == 0:
                        break
            if best_cost == 0:
                break
        if best is None:
            break
        pidx, pc = best
        prow = work[pidx]
        pv = prow[pc]
        alive.discard(pidx)
        for c in prow:
            col_rows[c].discard(pidx)
        rank += 1
        touched = list(col_rows.get(pc, ()))
        for idx in touched:
            if idx not in alive:
                continue
            r = work[idx]
            f = r[pc] / pv
            for c, v in prow.items():
                if c == pc:
                    continue
                cur = r.get(c)
                nv = (cur - f * v) if cur is not None else (-f * v)
                if nv:
                    if cur is None:
                        col_rows.setdefault(c, set()).add(idx)
                    r[c] = nv
                else:
                    if cur is not None:
                        del r[c]
                        col_rows[c].discard(idx)
            del r[pc]
            col_rows[pc].discard(idx)
            if not r:
                alive.discard(idx)
        col_rows.pop(pc, None)
    return rank


def sparse_nullity(rows, ncols: int) -> int:
    return ncols - sparse_rank(rows, ncols)
