"""Parse generated inputs into program objects and run one item.

Every call goes through a module attribute (`dec.decompose`, not a name
imported from the module), so the tracer's rebound spans see it.  Each item
returns a verdict digest and a dict of notes to count; a wrong verdict raises
`Mismatch`.
"""

from __future__ import annotations

from fractions import Fraction

from relpos import angles, catalog, coxeter, gaussian, subspace, sysfile, system, toeplitz, verify
from relpos import decompose as dec
from relpos.matrix import Matrix

EXOTIC_TOL = 1e-6


class Mismatch(Exception):
    """The program's verdict differs from the expected one."""


def _check(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _matrix(text: str) -> Matrix:
    return Matrix.from_rows([[gaussian.parse_gq(x) for x in row.split(",")] for row in text.split(";")])


def _system(text: str):
    return sysfile.parse(text).to_system()


def prepare(item: dict) -> dict:
    """Turn an item's text inputs into program objects (the set-up work)."""
    kind = item["kind"]
    out = {"item": item}
    if kind == "classify":
        out["system"] = _system(item["text"])
    elif kind == "jordan":
        out["t"] = _matrix(item["text"])
    elif kind == "iso":
        out["system"] = catalog.build(catalog.CatalogKey.parse(item["key"]))
        out["map"] = _matrix(item["map"])
    elif kind in ("symbol", "block"):
        out["symbol"] = toeplitz.LaurentSymbol.parse(item["text"])
    elif kind == "alpha":
        out["alpha"] = gaussian.parse_gq(item["text"])
    elif kind == "halmos":
        out["pair"] = _system(item["text"])
        out["rotated"] = _system(item["rotated"])
    elif kind == "exotic":
        out["gamma"] = gaussian.parse_gq(item["gamma"])
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return out


def run(prepared: dict):
    """Run one item, check it, and return (verdict digest, notes)."""
    item = prepared["item"]
    kind = item["kind"]
    if kind == "classify":
        return _classify(prepared["system"], item)
    if kind == "jordan":
        return _jordan(prepared["t"], item), {}
    if kind == "iso":
        return _iso(prepared["system"], prepared["map"], item), {}
    if kind in ("symbol", "block"):
        return _symbol(prepared["symbol"], item), {}
    if kind == "alpha":
        return _alpha(prepared["alpha"], item), {}
    if kind == "halmos":
        return _halmos(prepared["pair"], prepared["rotated"], item), {}
    return _exotic(prepared["gamma"], item), {}


def _classify(s, item):
    """Decompose, verify the witness, match every certified leaf to the
    catalog; n = 4 adds the Phi+ dimension lemma, and reduced-from-above
    systems the Phi- Phi+ round trip with an isomorphism witness.

    A leaf the program leaves uncertified (`indecomposable_over_QI`, exit 3
    from `relpos decompose`) makes no exact claim, so it is not matched.  For
    n = 4 criterion 3 explains such leaves and they are counted in the notes;
    for n < 4 criterion 4 expects none, so one fails the item, as in
    `verify.classification_completeness`."""
    seed = item["seed"]
    tree = dec.decompose(s, seed=seed)
    _check(dec.verify_decomposition(s, tree), "decomposition witness check failed")
    leaves = []
    notes = {}
    for comp, status in zip(tree.components, tree.leaf_status):
        if status == "indecomposable":
            hit = verify.match_component_to_catalog(comp, seed=seed)
            _check(hit is not None, f"leaf {comp!r} matches no catalog member")
            key, w = hit
            _check(comp.apply(w) == catalog.build(key), f"catalog witness fails for {key.text()}")
            leaves.append(key.text())
        else:
            _check(status == "indecomposable_over_QI", f"unresolved leaf status {status}")
            _check(s.n == 4, f"unexpected over-C-only leaf for n={s.n}: {comp.ambient_dim}:{comp.dims()}")
            notes["uncertified_leaves_n4"] = notes.get("uncertified_leaves_n4", 0) + 1
            leaves.append(f"{status}:{comp.ambient_dim}:{comp.dims()}")
    digest = f"n={s.n} d={s.ambient_dim} dims={s.dims()} leaves={sorted(leaves)}"
    if s.n != 4:
        return digest, notes
    plus = coxeter.phi_plus(s).system
    lhs = 0 if plus.is_zero() else subspace.intersect(plus.subspaces[0], plus.subspaces[1]).dim
    rhs = subspace.intersect(s.subspaces[2], s.subspaces[3]).dim
    _check(lhs == rhs, f"dim(E1+ & E2+) = {lhs} != dim(E3 & E4) = {rhs}")
    digest += f" lemma={lhs}"
    if system.predicates(s).reduced_above:
        back = coxeter.phi_minus(plus).system
        iso = dec.are_isomorphic(back, s, seed=seed)
        _check(iso.status == "isomorphic", f"Phi- Phi+ round trip not isomorphic ({iso.status})")
        _check(back.apply(iso.witness) == s, "round-trip witness does not carry the system")
        got, want = system.defect(plus).defect, system.defect(s).defect
        _check(got == want, f"Phi+ moved the defect {want} -> {got}")
        digest += f" roundtrip defect={want}"
    return digest, notes


def _jordan(t, item) -> str:
    """Jordan oracle against the constructed blocks; strong irreducibility
    and indecomposability of S_T must both equal 'one Jordan block', and S_T
    splits into one summand per block."""
    seed = item["seed"]
    oracle = dec.jordan_oracle(t)
    _check(oracle.certified, "jordan oracle uncertified")
    got = {gaussian.format_gq(lam): sorted(sizes) for lam, sizes in oracle.blocks.items()}
    _check(got == item["blocks"], f"oracle blocks {got} != constructed {item['blocks']}")
    single = oracle.single_block()
    si = dec.strongly_irreducible(t, seed=seed)
    _check(si == single, f"strongly_irreducible {si} != single block {single}")
    s = catalog.single_operator_system(t)
    tree = dec.decompose(s, seed=seed)
    _check(dec.verify_decomposition(s, tree), "decomposition witness check failed")
    nblocks = sum(len(v) for v in item["blocks"].values())
    _check(len(tree.components) == nblocks, f"{len(tree.components)} summands for {nblocks} blocks")
    _check(tree.certified(), f"leaves not certified: {tree.leaf_status}")
    return f"T{t.rows} blocks={got} si={si} summands={len(tree.components)}"


def _iso(s, p, item) -> str:
    t = s.apply(p)
    res = dec.are_isomorphic(s, t, seed=item["seed"])
    _check(res.status == "isomorphic", f"{item['key']}: {res.status} ({res.reason})")
    _check(res.witness.is_invertible() and s.apply(res.witness) == t, "isomorphism witness fails")
    return f"{item['key']} isomorphic"


def _symbol(sym, item) -> str:
    rep = toeplitz.single_operator_defect_report(sym)
    want = Fraction(item["defect"])
    _check(rep.defect == want, f"defect {rep.defect} != expected {want}")
    return f"block={sym.block_size} defect={rep.defect} parts={rep.contributions}"


def _alpha(alpha, item) -> str:
    got = toeplitz.region_classify(alpha)
    want = Fraction(item["defect"])
    _check(got == want, f"region value {got} != expected {want}")
    return f"alpha={item['text']} defect={got}"


def _halmos(pair, rotated, item) -> str:
    a = angles.halmos_decompose(*pair.subspaces)
    b = angles.halmos_decompose(*rotated.subspaces)
    _check(a.residual < 1e-10 and b.residual < 1e-10, f"residuals {a.residual}, {b.residual}")
    _check(len(a.angles) == len(b.angles), "angle count changed under a unitary")
    if len(a.angles):
        moved = max(abs(x - y) for x, y in zip(a.angles, b.angles))
        _check(moved < 1e-8, f"angle spectrum moved by {moved} under a unitary")
    return f"d={item['d']} dims={pair.dims()} angles={len(a.angles)}"


def _exotic(gamma, item) -> str:
    """The criterion-8 invariants at one cutoff."""
    n = item["n"]
    r = toeplitz.exotic_report(gamma, n, EXOTIC_TOL)
    m = r.pair_intersections
    _check(m[(1, 3)] == 1 and m[(2, 3)] == 1, f"exact intersections off: {m}")
    _check(r.pair_angles[(3, 4)] < EXOTIC_TOL, f"angle(3,4) = {r.pair_angles[(3, 4)]}")
    for pair in ((1, 2), (1, 4), (2, 4)):
        _check(r.pair_angles[pair] > 0.3, f"angle{pair} = {r.pair_angles[pair]}")
    _check(r.not_operator_system, "vertex-3 isolation flag missing")
    _check(r.defect_estimate == 1, f"defect estimate {r.defect_estimate} != 1")
    return f"N={n} gamma={item['gamma']} estimate={r.defect_estimate}"
