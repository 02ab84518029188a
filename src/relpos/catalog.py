"""Exact generators for every concrete system in scope: the four-subspace
canonical families, the nine three-subspace types, the two- and one-subspace
types, the numbered small examples, operator systems and Jordan systems.

Canonical-family bases follow the source lists symbol-for-symbol: basis
vectors e_1..e_k(,e_{k+1}),f_1..f_k map to standard coordinates in that
order, so the generated matrices can be audited line by line.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass

from .errors import DimensionMismatch, InvariantViolation, ParseError, quote
from .gaussian import GQ, ONE, format_gq, parse_gq
from .matrix import EXACT, Matrix
from .subspace import Subspace
from .system import SubspaceSystem, permute, transposition

GP4_FAMILIES = (
    "S3(2k,-1)",
    "S3(2k,1)",
    "S13(2k,0)",
    "S(2k,0;l)",
    "S1(2k+1,-1)",
    "S2(2k+1,1)",
    "S13(2k+1,0)",
    "S(2k+1,-2)",
    "S(2k+1,2)",
)

# Largest ambient dimension a gp4 or jordan key may ask for, and a system
# file may declare: 4 * 128, the ambient dimension of the largest exotic
# truncation, and above every key of the tests, the criteria and the
# benchmark.  The system file of a key grows as the square of its dimension.
MAX_CATALOG_DIM = 512

# catalog.build keeps this many systems; a classification sweep meets a few
# dozen keys, each many times
BUILD_CACHE_SIZE = 512

GP4_DEFECTS = {
    "S3(2k,-1)": -1,
    "S3(2k,1)": 1,
    "S13(2k,0)": 0,
    "S(2k,0;l)": 0,
    "S1(2k+1,-1)": -1,
    "S2(2k+1,1)": 1,
    "S13(2k+1,0)": 0,
    "S(2k+1,-2)": -2,
    "S(2k+1,2)": 2,
}


@dataclass(frozen=True)
class CatalogKey:
    """Addressable catalog entry; canonical text form used by the CLI."""

    kind: str  # gp4 | gp3 | two | one | example | jordan
    family: str | None = None
    index: int | None = None
    k: int | None = None
    lam: GQ | None = None
    perm: tuple | None = None

    def text(self) -> str:
        if self.kind == "gp4":
            parts = [f"gp4:{self.family}", f"k={self.k}"]
            if self.lam is not None:
                parts.append(f"l={format_gq(self.lam)}")
            if self.perm is not None and self.perm != (1, 2, 3, 4):
                parts.append("perm=" + "".join(str(i) for i in self.perm))
            return ".".join(parts)
        if self.kind == "jordan":
            return f"jordan:k={self.k}.l={format_gq(self.lam)}"
        return f"{self.kind}:{self.index}"

    def ambient_dim(self) -> int | None:
        """Ambient dimension of a gp4 or jordan key, read from the key: 2k
        or 2k + 1 for gp4, 2k for S_T of the k x k Jordan block.  None for
        the indexed kinds, whose systems are fixed and small."""
        if self.kind == "gp4":
            return 2 * self.k + ("2k+1" in self.family)
        if self.kind == "jordan":
            return 2 * self.k
        return None

    @staticmethod
    def parse(text: str) -> "CatalogKey":
        text = text.strip()
        if ":" not in text:
            raise ParseError(f"bad catalog key {quote(text)}")
        kind, rest = text.split(":", 1)
        kind = kind.lower()
        if kind in ("gp3", "two", "one", "example"):
            return CatalogKey(kind=kind, index=_parse_int(rest, text))
        if kind == "jordan":
            fields = _parse_fields(rest)
            if "k" not in fields or "l" not in fields:
                raise ParseError("jordan key needs k=<size>.l=<eigenvalue>")
            return CatalogKey(kind="jordan", k=_parse_int(fields["k"], text), lam=parse_gq(fields["l"]))
        if kind != "gp4":
            raise ParseError(f"unknown catalog kind {quote(kind)}")
        m = _re.match(r"(S[0-9]*\(2k(?:\+1)?,[^)]*\))(?:\.(.*))?$", rest)
        if not m:
            raise ParseError(f"bad gp4 family in {quote(text)}")
        family = m.group(1)
        if family not in GP4_FAMILIES:
            raise ParseError(f"unknown gp4 family {quote(family)}")
        fields = _parse_fields(m.group(2) or "")
        if "k" not in fields:
            raise ParseError(f"gp4 key needs a size: {quote(text)}")
        lam = parse_gq(fields["l"]) if "l" in fields else None
        perm = None
        if "perm" in fields:
            digits = fields["perm"]
            if sorted(digits) != ["1", "2", "3", "4"]:
                raise ParseError(f"bad permutation {quote(digits)}")
            perm = tuple(int(c) for c in digits)
        return CatalogKey(kind="gp4", family=family, k=_parse_int(fields["k"], text), lam=lam, perm=perm)


def _parse_int(value: str, text: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ParseError(f"bad integer {quote(value)} in catalog key {quote(text)}") from exc


def _parse_fields(rest: str) -> dict:
    fields = {}
    if not rest:
        return fields
    for part in rest.split("."):
        if "=" not in part:
            raise ParseError(f"bad key field {quote(part)}")
        k, v = part.split("=", 1)
        fields[k] = v
    return fields


def _coord_system(d: int, subspace_vectors) -> SubspaceSystem:
    subs = [Subspace.span_rows(d, rows) for rows in subspace_vectors]
    return SubspaceSystem(d, subs)


def _unit(d, i):
    v = [0] * d
    v[i] = 1
    return v


def _combo(d, *terms):
    """Vector from (coefficient, coordinate) pairs."""
    v = [GQ(0)] * d
    for coeff, i in terms:
        v[i] = v[i] + (coeff if isinstance(coeff, GQ) else GQ(coeff))
    return v


def build_gp4(family: str, k: int, lam: GQ | None = None, perm=None) -> SubspaceSystem:
    """A canonical four-subspace family member, exactly as listed.

    Even families use H = [e_1..e_k, f_1..f_k]; odd families use
    H = [e_1..e_{k+1}, f_1..f_k]; coordinates in that order.
    """
    if family not in GP4_FAMILIES:
        raise ParseError(f"unknown family {quote(family)}")
    if family == "S(2k,0;l)":
        if lam is None:
            raise DimensionMismatch("family S(2k,0;l) needs a lambda parameter")
        if lam == GQ(0) or lam == GQ(1):
            raise DimensionMismatch("lambda 0 and 1 are excluded for S(2k,0;l)")
    elif lam is not None:
        raise DimensionMismatch(f"family {family} takes no lambda")
    even = "2k," in family and "2k+1" not in family
    if even:
        if k < 1:
            raise DimensionMismatch("even families need k >= 1")
        d = 2 * k
        e = lambda i: i - 1          # e_1..e_k -> 0..k-1
        f = lambda i: k + i - 1      # f_1..f_k -> k..2k-1
    else:
        if k < 0:
            raise DimensionMismatch("odd families need k >= 0")
        d = 2 * k + 1
        e = lambda i: i - 1          # e_1..e_{k+1} -> 0..k
        f = lambda i: k + 1 + i - 1  # f_1..f_k -> k+1..2k

    E = lambda *idxs: [_unit(d, i) for i in idxs]

    if family == "S3(2k,-1)":
        e1 = E(*(e(i) for i in range(1, k + 1)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k)]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S3(2k,1)":
        e1 = E(*(e(i) for i in range(1, k + 1)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = (
            [_unit(d, e(1))]
            + [_combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k)]
            + [_unit(d, f(k))]
        )
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S13(2k,0)":
        e1 = E(*(e(i) for i in range(1, k + 1)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_unit(d, e(1))] + [
            _combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k)
        ]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S(2k,0;l)":
        e1 = E(*(e(i) for i in range(1, k + 1)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_combo(d, (1, e(1)), (lam, f(1)))] + [
            _combo(d, (1, e(i)), (1, f(i - 1)), (lam, f(i))) for i in range(2, k + 1)
        ]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S1(2k+1,-1)":
        e1 = E(*(e(i) for i in range(1, k + 2)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k + 1)]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S2(2k+1,1)":
        e1 = E(*(e(i) for i in range(1, k + 2)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_unit(d, e(1))] + [
            _combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k + 1)
        ]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)] + [
            _unit(d, e(k + 1))
        ]
    elif family == "S13(2k+1,0)":
        e1 = E(*(e(i) for i in range(1, k + 2)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_unit(d, e(1))] + [
            _combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k + 1)
        ]
        e4 = [_combo(d, (1, e(i)), (1, f(i))) for i in range(1, k + 1)]
    elif family == "S(2k+1,-2)":
        e1 = E(*(e(i) for i in range(1, k + 1)))
        e2 = E(*(f(i) for i in range(1, k + 1)))
        e3 = [_combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k + 1)]
        e4 = [_combo(d, (1, e(i)), (1, f(i + 1))) for i in range(1, k)]
        if k >= 1:
            e4 = e4 + [_combo(d, (1, e(k)), (1, e(k + 1)))]
    elif family == "S(2k+1,2)":
        if k == 0:
            # degenerate verbatim lists; forced by defect 2 and duality
            e1 = e2 = e3 = e4 = E(e(1))
        else:
            e1 = E(*(e(i) for i in range(1, k + 2)))
            e2 = E(*(f(i) for i in range(1, k + 1))) + E(e(k + 1))
            e3 = [_unit(d, e(1))] + [
                _combo(d, (1, e(i + 1)), (1, f(i))) for i in range(1, k + 1)
            ]
            e4 = (
                [_unit(d, f(1))]
                + [_combo(d, (1, e(i)), (1, f(i + 1))) for i in range(1, k)]
                + [_combo(d, (1, e(k)), (1, e(k + 1)))]
            )
    else:  # pragma: no cover
        raise ParseError(family)

    sys_ = _coord_system(d, [e1, e2, e3, e4])
    if perm is not None:
        sys_ = permute(sys_, perm)
    return sys_


def gp4_label_permutation(family: str, i: int | None = None, j: int | None = None):
    """Permutation placing a family at alternative subspace labels.

    S_i(2k,r) = sigma_{3,i} S_3(2k,r); S_{i,j}(m,0) = sigma_{1,i} sigma_{3,j}
    S_{1,3}(m,0) with sigma_{3,j} acting first (the usual composition order;
    it is the one that reaches all six label pairs); S_i(2k+1,-1) =
    sigma_{1,i} S_1; S_i(2k+1,1) = sigma_{2,i} S_2.
    """
    perm = (1, 2, 3, 4)

    def compose(p, t):
        return tuple(p[x - 1] for x in t)

    if family in ("S3(2k,-1)", "S3(2k,1)"):
        perm = compose(perm, transposition(4, 3, i))
    elif family in ("S13(2k,0)", "S13(2k+1,0)"):
        perm = compose(perm, transposition(4, 3, j))
        perm = compose(perm, transposition(4, 1, i))
    elif family == "S1(2k+1,-1)":
        perm = compose(perm, transposition(4, 1, i))
    elif family == "S2(2k+1,1)":
        perm = compose(perm, transposition(4, 2, i))
    else:
        raise ParseError(f"family {family} has no labelled variants")
    return perm


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def build(key: CatalogKey) -> SubspaceSystem:
    """The system of a catalog key, built once per key and process (systems
    are immutable, so every caller may share it).  A key past
    MAX_CATALOG_DIM is refused before anything is built."""
    d = key.ambient_dim()
    if d is not None and d > MAX_CATALOG_DIM:
        raise DimensionMismatch(
            f"catalog key {key.text()} has ambient dimension {d},"
            f" which exceeds the bound {MAX_CATALOG_DIM}"
        )
    if key.kind == "gp4":
        return build_gp4(key.family, key.k, key.lam, key.perm)
    if key.kind == "gp3":
        return build_gp3(key.index)
    if key.kind == "two":
        return build_two(key.index)
    if key.kind == "one":
        return build_one(key.index)
    if key.kind == "example":
        return build_example(key.index)
    if key.kind == "jordan":
        return single_operator_system(jordan_block(key.k, key.lam))
    raise ParseError(f"cannot build {key!r}")


def build_gp3(i: int) -> SubspaceSystem:
    """The nine indecomposable three-subspace types: eight one-dimensional
    commutative patterns and one non-commutative planar system."""
    if i == 9:
        return _coord_system(2, [[[1, 0]], [[0, 1]], [[1, 1]]])
    patterns = {
        1: (0, 0, 0),
        2: (1, 0, 0),
        3: (0, 1, 0),
        4: (0, 0, 1),
        5: (1, 1, 0),
        6: (1, 0, 1),
        7: (0, 1, 1),
        8: (1, 1, 1),
    }
    if i not in patterns:
        raise ParseError(f"gp3 index must be 1..9, got {i}")
    return _coord_system(1, [[[1]] if bit else [] for bit in patterns[i]])


def build_two(i: int) -> SubspaceSystem:
    patterns = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (0, 0)}
    if i not in patterns:
        raise ParseError(f"two index must be 1..4, got {i}")
    return _coord_system(1, [[[1]] if bit else [] for bit in patterns[i]])


def build_one(i: int) -> SubspaceSystem:
    if i == 1:
        return _coord_system(1, [[]])
    if i == 2:
        return _coord_system(1, [[[1]]])
    raise ParseError(f"one index must be 1..2, got {i}")


def build_example(ident: int, params=None) -> SubspaceSystem:
    """The numbered small systems used throughout: verbatim data."""
    if ident == 3:
        return _coord_system(2, [[[1, 0]], [[0, 1]], [[1, 1]]])
    if ident == 4:
        vs = params if params is not None else [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        if len(vs) != 3:
            raise DimensionMismatch("example 4 takes three vectors")
        return _coord_system(3, [[v] for v in vs])
    if ident == 5:
        if params is None or len(params) != 4:
            raise DimensionMismatch("example 5 takes four vectors in C^3")
        return _coord_system(3, [[v] for v in params])
    if ident == 6:
        return _coord_system(3, [[[1, 0, 0], [0, 1, 0]], [[1, 1, 1]], [[1, 2, 3]]])
    if ident == 7:
        return _coord_system(
            3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], [[0, 1, 1]], [[1, 0, 1]]]
        )
    if ident == 8:
        return _coord_system(
            3,
            [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], [[1, 0, 0], [0, 1, 1]], [[1, 0, 1]]],
        )
    if ident == 9:
        return _coord_system(
            3,
            [
                [[1, 0, 0], [0, 1, 0]],
                [[0, 0, 1]],
                [[1, 0, 0], [0, 1, 1]],
                [[1, 0, 1], [0, 1, 0]],
            ],
        )
    if ident == 10:
        return _coord_system(
            3,
            [
                [[1, 0, 0], [0, 1, 0]],
                [[0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 1]],
                [[0, 0, 1], [1, 1, 0]],
            ],
        )
    raise ParseError(f"example id {ident} not in 3..10")


def operator_system(t: Matrix, s: Matrix) -> SubspaceSystem:
    """S_{T,S}: coordinate summands, the graph of T and the cograph of S."""
    k1 = t.cols
    k2 = t.rows
    if s.rows != k1 or s.cols != k2:
        raise DimensionMismatch("operator_system: T and S shapes incompatible")
    d = k1 + k2
    field = t.field
    e1 = Subspace.span(
        Matrix.vstack([Matrix.identity(k1, field), Matrix.zeros(k2, k1, field)])
    )
    e2 = Subspace.span(
        Matrix.vstack([Matrix.zeros(k1, k2, field), Matrix.identity(k2, field)])
    )
    e3 = Subspace.span(Matrix.vstack([Matrix.identity(k1, field), t]))
    e4 = Subspace.span(Matrix.vstack([s, Matrix.identity(k2, field)]))
    return SubspaceSystem(d, [e1, e2, e3, e4])


def single_operator_system(t: Matrix) -> SubspaceSystem:
    """S_T = S_{T,I}: the fourth subspace is the diagonal."""
    if t.rows != t.cols:
        raise DimensionMismatch("single_operator_system needs a square matrix")
    return operator_system(t, Matrix.identity(t.rows, t.field))


def jordan_block(k: int, lam: GQ) -> Matrix:
    if k < 1:
        raise DimensionMismatch("jordan blocks need k >= 1")
    ents = []
    for i in range(k):
        for j in range(k):
            if i == j:
                ents.append(lam if isinstance(lam, GQ) else GQ(lam))
            elif j == i + 1:
                ents.append(ONE)
            else:
                ents.append(GQ(0))
    return Matrix(k, k, EXACT, entries=ents)


@dataclass
class OrthocomplementIdentityReport:
    holds: bool
    left: SubspaceSystem
    right: SubspaceSystem


def orthocomplement_identity_check(t: Matrix, s: Matrix) -> OrthocomplementIdentityReport:
    """S_{T,S}^perp equals sigma_{1,2} sigma_{3,4} S_{-S*,-T*} on the nose in
    coordinate form; checked by canonical-basis equality."""
    left = operator_system(t, s).orthocomplement()
    base = operator_system(s.conj_transpose().scale(GQ(-1)), t.conj_transpose().scale(GQ(-1)))
    right = permute(permute(base, transposition(4, 1, 2)), transposition(4, 3, 4))
    holds = left == right
    if not holds:
        raise InvariantViolation("orthocomplement identity failed for operator system")
    return OrthocomplementIdentityReport(holds=holds, left=left, right=right)


def gp4_reference_keys(max_k: int, lambdas=(GQ(2),)):
    """Plain (unpermuted) family representatives up to size max_k."""
    keys = []
    for family in GP4_FAMILIES:
        even = "2k," in family and "2k+1" not in family
        krange = range(1, max_k + 1) if even else range(0, max_k + 1)
        for k in krange:
            if family == "S(2k,0;l)":
                for lam in lambdas:
                    keys.append(CatalogKey(kind="gp4", family=family, k=k, lam=lam))
            else:
                keys.append(CatalogKey(kind="gp4", family=family, k=k))
    return keys


_FINITE_TYPES = {3: ("gp3", 9), 2: ("two", 4), 1: ("one", 2)}


def finite_type_keys(n: int):
    """Every indecomposable type of n <= 3 subspaces, in index order (none
    for other n)."""
    kind, count = _FINITE_TYPES.get(n, (None, 0))
    return [CatalogKey(kind=kind, index=i) for i in range(1, count + 1)]


def gp4_variant_keys_for_dim(d: int, lambdas):
    """All labelled variants with ambient dimension d (for summand matching)."""
    keys = []
    if d <= 0:
        return keys
    if d % 2 == 0:
        k = d // 2
        for family in ("S3(2k,-1)", "S3(2k,1)"):
            for i in (1, 2, 3, 4):
                keys.append(
                    CatalogKey(kind="gp4", family=family, k=k,
                               perm=gp4_label_permutation(family, i=i))
                )
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                if i < j:
                    keys.append(
                        CatalogKey(kind="gp4", family="S13(2k,0)", k=k,
                                   perm=gp4_label_permutation("S13(2k,0)", i=i, j=j))
                    )
        for lam in lambdas:
            keys.append(CatalogKey(kind="gp4", family="S(2k,0;l)", k=k, lam=lam))
    else:
        k = (d - 1) // 2
        for i in (1, 2, 3, 4):
            keys.append(
                CatalogKey(kind="gp4", family="S1(2k+1,-1)", k=k,
                           perm=gp4_label_permutation("S1(2k+1,-1)", i=i))
            )
            keys.append(
                CatalogKey(kind="gp4", family="S2(2k+1,1)", k=k,
                           perm=gp4_label_permutation("S2(2k+1,1)", i=i))
            )
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                if i < j:
                    keys.append(
                        CatalogKey(kind="gp4", family="S13(2k+1,0)", k=k,
                                   perm=gp4_label_permutation("S13(2k+1,0)", i=i, j=j))
                    )
        keys.append(CatalogKey(kind="gp4", family="S(2k+1,-2)", k=k))
        keys.append(CatalogKey(kind="gp4", family="S(2k+1,2)", k=k))
    return keys
