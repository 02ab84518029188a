"""Digest the output of a fixed set of `relpos` CLI commands.

Runs the README CLI examples on five catalog systems (catalog build, then
defect, decompose, coxeter plus/minus/perp, diagram and isom on the file it
wrote), the four README `toeplitz` commands, `toeplitz exotic` at gamma = 1+i
(N = 16) and gamma = -2i (N = 24), `toeplitz defect` on the block symbol
zI + N and `toeplitz index` on zI + N - I for blocks 3 and 6 (one-sided, so
their kernel dimensions are counted exactly), `toeplitz index` on the
two-sided zI + N - 3I + 2I/z for block 3 (the block truncation oracle),
`verify two-types`, and `decompose` on two operator
systems S_T written here (one per commutant route: T conjugate to
J_2(1) + J_1(1), which is derogatory, and the companion matrix of x^2 - 2,
which is cyclic) and on a direct sum of three catalog members under a Z[i]
change of basis (it splits twice), `angles` on a float pair in C^4 (its
reconstruction residual comes from LAPACK's QR), and `diagram --threshold
1e-9` on an exact system whose E1 ∩ E2 is a line (its float angle is
small, but not 0), and `defect` on an exact system and `angles` on a float pair
whose entries use every form of the scalar syntax, then `toeplitz exotic` at
gamma = 3/2 (N = 16), gamma = 2+i (N = 24) and gamma = 2 with `--threshold
1e-9` (N = 16), then `toeplitz index` on three symbols that the exact zero
count decides (a scalar with three zeros near the circle, a block symbol
with two zeros on it, and a block-diagonal one), then `toeplitz defect` on
zI + N - 3I + 2I/z for block 3 and on those three symbols, then `verify
infinite-dim-evidence` (criterion 10: the exotic Hom dimensions at N = 8,
16 and 32), then `angles` on an exact pair whose one generic angle, 1e-9,
lies below the corner tolerance, then `toeplitz index` on the two-sided
zI + N - 3I + 2I/z for block 6 (the oracle at its largest band), then
`decompose --seed 7` and `isom` with itself on S_T for T conjugate to
J_2(1) + J_1(2) (cyclic: its End is taken in the basis of powers of T),
then `decompose --seed 7` on S_T for T = W (diag(1, 2, -1) + J_2(i)) W^-1,
W = sampling.random_invertible(random.Random(0), 5), whose first split has
four parts, then `decompose --seed 3` on S_{T,S} for T = J_2(1) + J_1(2)
and an integer S != I with det S = 1 (its End is lifted through S^-1),
then `decompose` on S_T for T = diag(7, ..., 36) (thirty leaves, each
split factoring a minimal polynomial of degree up to 30), then `coxeter
zero` and `coxeter duality` on each of the five catalog systems,
all with `--json` before the subcommand,
against the `src/` next to this script (which it also imports to build W).
Prints one line per command: the command, its exit code and the sha256 of
its stdout and of its stderr.  Two checkouts give byte-identical CLI output
when their lines are equal:

    python3 benchmarks/cli_digest.py > after.txt
    (cd ../parent && python3 benchmarks/cli_digest.py) > before.txt
    diff before.txt after.txt

Sysfiles go to a temporary directory, named by their position in KEYS, and
the commands run inside it, so no line depends on where it is.  Exits 1
when a command ends in an undocumented exit code (0, 2, 3 and 4 are
documented; an uncaught exception gives 1).
"""

from __future__ import annotations

import hashlib
import os
import random
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from relpos.catalog import jordan_block  # noqa: E402
from relpos.gaussian import GQ  # noqa: E402
from relpos.matrix import Matrix  # noqa: E402
from relpos.sampling import random_invertible  # noqa: E402

KEYS = (
    "gp4:S(2k+1,2).k=1",
    "gp4:S(2k,0;l).k=2.l=1/2+i",
    "gp3:5",
    "example:6",
    "jordan:k=3.l=2",
)
# "{f}" stands for the sysfile that catalog build wrote
PER_FILE = (
    ("defect", "{f}"),
    ("decompose", "{f}", "--seed", "7"),
    ("coxeter", "plus", "{f}"),
    ("coxeter", "minus", "{f}"),
    ("coxeter", "perp", "{f}"),
    ("diagram", "{f}", "--threshold", "1e-6"),
    ("isom", "{f}", "{f}"),
)


def _block_v(b: int, shift: int, inverse: int = 0) -> str:
    """Symbol text of zI + N + shift*I + inverse*I/z, N the b x b nilpotent
    subdiagonal."""
    def block(entry):
        return "[" + ",".join(
            "[" + ",".join(str(entry(i, j)) for j in range(b)) + "]" for i in range(b)
        ) + "]"

    k0 = block(lambda i, j: shift if i == j else int(i == j + 1))
    k1 = block(lambda i, j: int(i == j))
    parts = [f"block={b}"]
    if inverse:
        parts.append(f"k:-1={block(lambda i, j: inverse * int(i == j))}")
    return "; ".join(parts + [f"k:0={k0}", f"k:1={k1}"])


OTHERS = (
    ("toeplitz", "index", "--symbol", "block=1; k:1=[[1]]"),
    ("toeplitz", "defect", "--symbol", "block=1; k:1=[[1]]"),
    ("toeplitz", "regions", "--alpha", "1/2"),
    ("toeplitz", "exotic", "--gamma", "2", "--N", "32", "--threshold", "1e-6"),
    # the = form: argparse would read a bare -2i as a flag
    ("toeplitz", "exotic", "--gamma=1+i", "--N", "16"),
    ("toeplitz", "exotic", "--gamma=-2i", "--N", "24"),
    *(("toeplitz", "defect", "--symbol", _block_v(b, 0)) for b in (3, 6)),
    *(("toeplitz", "index", "--symbol", _block_v(b, -1)) for b in (3, 6)),
    ("toeplitz", "index", "--symbol", _block_v(3, -3, 2)),
    ("verify", "two-types"),
)


def _operator_sysfile(t, s=None) -> str:
    """Sysfile of S_{T,S} = (C^k + 0, 0 + C^k, graph of T, cograph of S) for
    the k x k matrices t and s, given by their rows of integers or exact
    scalars; without s it is S_T, whose cograph of I is the diagonal."""
    k = len(t)
    unit = [[int(i == j) for i in range(k)] for j in range(k)]
    zero = [[0] * k] * k

    def columns(m):
        return [[m[i][j] for i in range(k)] for j in range(k)]

    lines = ["relpos-system 1", "field gaussian-rational", f"ambient {2 * k}"]
    for name, left, right in (
        ("E1", unit, zero), ("E2", zero, unit), ("E3", unit, columns(t)),
        ("E4", unit if s is None else columns(s), unit),
    ):
        lines.append(f"subspace {name} dim {k}")
        lines += [" ".join(str(v) for v in a + b) for a, b in zip(left, right)]
    return "\n".join(lines) + "\n"


def _moved_sum_sysfile(members, w) -> str:
    """Sysfile of W (M_1 + ... + M_m): the direct sum of four-subspace
    systems, each given by its ambient dimension and the spanning vectors of
    its subspaces, moved by the Gaussian-integer matrix w (rows of complex
    numbers with integer parts)."""
    d = sum(dim for dim, _ in members)
    lines = ["relpos-system 1", "field gaussian-rational", f"ambient {d}"]
    for i in range(4):
        vectors = []
        off = 0
        for dim, subspaces in members:
            vectors += [[0] * off + v + [0] * (d - off - dim) for v in subspaces[i]]
            off += dim
        lines.append(f"subspace E{i + 1} dim {len(vectors)}")
        for v in vectors:
            moved = [sum(w[r][c] * v[c] for c in range(d)) for r in range(d)]
            lines.append(" ".join(f"{int(z.real)}{int(z.imag):+d}i" for z in moved))
    return "\n".join(lines) + "\n"


# T = W (J_2(1) + J_1(1)) W^-1 with W = [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
# and the companion matrix of x^2 - 2
OPERATOR_FILES = {
    "t0.sys": _operator_sysfile([[1, 1, -1], [0, 1, 0], [0, 0, 1]]),
    "t1.sys": _operator_sysfile([[0, 2], [1, 0]]),
}
# appended after the block-6 oracle line: T = W (J_2(1) + J_1(2)) W^-1 with
# W as for t0.sys.  T is cyclic, so End(S_T) is taken in the basis
# diag(T^j, T^j), j < 3, and decompose's split follows that basis
COMMUTANT_ORDER_FILES = {"t2.sys": _operator_sysfile([[1, 1, -1], [0, 1, 1], [0, 0, 2]])}
# gp4:S(2k,0;l).k=1.l=2 + gp4:S3(2k,-1).k=1 + gp4:S(2k+1,2).k=0 under a
# unitriangular Z[i] change of basis: decompose splits it twice
SUM_FILES = {
    "m0.sys": _moved_sum_sysfile(
        [
            (2, [[[1, 0]], [[0, 1]], [[1, 2]], [[1, 1]]]),
            (2, [[[1, 0]], [[0, 1]], [], [[1, 1]]]),
            (1, [[[1]], [[1]], [[1]], [[1]]]),
        ],
        [
            [1, 1j, 0, 1, 0],
            [0, 1, 1 - 1j, 0, 2],
            [0, 0, 1, -1j, 1],
            [0, 0, 0, 1, 1 + 1j],
            [0, 0, 0, 0, 1],
        ],
    ),
}
# a float pair with two generic angles, and an exact system with
# dim E1 ∩ E2 = 1 that a small threshold must not join
PAIR_FILES = {
    "p0.sys": "\n".join([
        "relpos-system 1", "field complex-float", "ambient 4",
        "subspace E1 dim 2", "1.0 0.5 -0.25+0.5i 0.0", "0.0 1.0 0.75 -1.5i",
        "subspace E2 dim 2", "0.5 1.0 0.0 2.0", "1.25-0.5i 0.0 1.0 0.25",
    ]) + "\n",
    "r0.sys": "\n".join([
        "relpos-system 1", "field gaussian-rational", "ambient 4",
        "subspace E1 dim 2", "1 1 0 3", "0 1 1 -2",
        "subspace E2 dim 2", "1 2 1 1", "1 0 0 5",
        "subspace E3 dim 1", "1 1 1 1",
        "subspace E4 dim 1", "0 1 -1 2",
    ]) + "\n",
}
# entries in every form of the scalar syntax (signed zero, a bare i, a
# leading dot, exponents, fractions), in the shapes read by int() and
# complex() and in those left to the general parser
SCALAR_FILES = {
    "x0.sys": "\n".join([
        "relpos-system 1", "field gaussian-rational", "ambient 3",
        "subspace E1 dim 2", "-0 i .5", "1e-3 2-1/3i -3/4i",
        "subspace E2 dim 1", "1.5 -i 1e2",
        "subspace E3 dim 1", "i 1 -0",
        "subspace E4 dim 1", ".5 1e2 2-1/3i",
    ]) + "\n",
    "x1.sys": "\n".join([
        "relpos-system 1", "field complex-float", "ambient 3",
        "subspace E1 dim 2", "-0.0 .5i 1.0", "2e-3-0.25i 1.0 -0.0",
        "subspace E2 dim 2", ".5i -0.0 2e-3-0.25i", "0.25 1.0 .5i",
    ]) + "\n",
}
# appended after the lines above, which keep their order: the exotic report
# at a rational and at a Gaussian gamma, and with a 1e-9 threshold
EXOTIC = (
    ("toeplitz", "exotic", "--gamma=3/2", "--N", "16"),
    ("toeplitz", "exotic", "--gamma=2+i", "--N", "24"),
    ("toeplitz", "exotic", "--gamma", "2", "--N", "16", "--threshold", "1e-9"),
)
# appended after those: `toeplitz index` on (z - 1)(z - 97/100)(z - 98/100)
# (z - 99/100)/z, on a block symbol whose determinant vanishes at
# exp(+-i pi/3), and on diag((z - 1/2)(z - 19/20)/z, 1 - z)
ZERO_COUNTS = (
    ("toeplitz", "index", "--symbol",
     "block=1; k:-1=[[470547/500000]]; k:0=[[-1911097/500000]]; k:1=[[58211/10000]];"
     " k:2=[[-197/50]]; k:3=[[1]]"),
    ("toeplitz", "index", "--symbol",
     "block=2; k:0=[[1,-1],[0,1/2]]; k:1=[[-1,1/2],[0,1]]; k:2=[[1,0],[0,0]]"),
    ("toeplitz", "index", "--symbol",
     "block=2; k:-1=[[19/40,0],[0,0]]; k:0=[[-29/20,0],[0,1]]; k:1=[[1,0],[0,-1]]"),
)
# appended after those: `toeplitz defect` on the two-sided block symbol and
# the zero-count symbols, whose parts are not Fredholm
DEFECTS = tuple(
    ("toeplitz", "defect", "--symbol", symbol)
    for symbol in (_block_v(3, -3, 2), *(cmd[-1] for cmd in ZERO_COUNTS))
)
# appended after those: criterion 10, whose hom_dims come from the exotic
# Hom constraints
CRITERIA = (("verify", "infinite-dim-evidence"),)
# appended after those: an exact pair at angle 1e-9, which the lattice
# counts as one generic pair
TINY_ANGLE_FILES = {
    "a0.sys": "\n".join([
        "relpos-system 1", "field gaussian-rational", "ambient 2",
        "subspace E1 dim 1", "1 0",
        "subspace E2 dim 1", "1 1/1000000000",
    ]) + "\n",
}
# appended after those: the block truncation oracle at block 6
LARGEST_BAND = (("toeplitz", "index", "--symbol", _block_v(6, -3, 2)),)
# appended after those: mu_T = (x - 1)(x - 2)(x + 1)(x - i)^2 has four
# coprime parts, so decompose splits the root four ways at once


def _multi_part_rows():
    w = random_invertible(random.Random(0), 5)
    j = Matrix.block_diag([Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, -1]]), jordan_block(2, GQ(0, 1))])
    t = w @ j @ w.inverse()
    return [[t.entry(r, c) for c in range(5)] for r in range(5)]


MULTI_PART_FILES = {"t3.sys": _operator_sysfile(_multi_part_rows())}
# appended after that: S_{T,S} with S != I, whose End is searched on the
# commutant of ST = S T and lifted through S^-1; mu_ST = (x - 1)^2 (x - 2)
TWO_OPERATOR_FILES = {
    "u0.sys": _operator_sysfile([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [[1, 0, 1], [0, 1, 0], [0, 1, 1]]),
}
# appended after that: S_T for T = diag(7, ..., 36), whose minimal
# polynomial has degree 30
DIAGONAL_FILES = {"t4.sys": _operator_sysfile([[7 + i if i == j else 0 for j in range(30)] for i in range(30)])}
# appended after that: the projection functor and the duality report on
# each catalog system
CATALOG_TAIL = (("coxeter", "zero", "{f}"), ("coxeter", "duality", "{f}"))
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}


def _commands():
    """(argv after `relpos --json`, sysfile to write stdout to or None)."""
    for n, key in enumerate(KEYS):
        name = f"s{n}.sys"
        yield ("catalog", "build", key), name
        for cmd in PER_FILE:
            yield tuple(name if w == "{f}" else w for w in cmd), None
    for cmd in OTHERS:
        yield cmd, None
    for name in (*OPERATOR_FILES, *SUM_FILES):
        yield ("decompose", name, "--seed", "7"), None
    yield ("angles", "p0.sys"), None
    yield ("diagram", "r0.sys", "--threshold", "1e-9"), None
    yield ("defect", "x0.sys"), None
    yield ("angles", "x1.sys"), None
    for cmd in (*EXOTIC, *ZERO_COUNTS, *DEFECTS, *CRITERIA):
        yield cmd, None
    yield ("angles", "a0.sys"), None
    for cmd in LARGEST_BAND:
        yield cmd, None
    for name in COMMUTANT_ORDER_FILES:
        yield ("decompose", name, "--seed", "7"), None
        yield ("isom", name, name), None
    for name in MULTI_PART_FILES:
        yield ("decompose", name, "--seed", "7"), None
    for name in TWO_OPERATOR_FILES:
        yield ("decompose", name, "--seed", "3"), None
    for name in DIAGONAL_FILES:
        yield ("decompose", name), None
    for n in range(len(KEYS)):
        for cmd in CATALOG_TAIL:
            yield tuple(f"s{n}.sys" if w == "{f}" else w for w in cmd), None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        files = (
            OPERATOR_FILES | SUM_FILES | PAIR_FILES | SCALAR_FILES | TINY_ANGLE_FILES
            | COMMUTANT_ORDER_FILES | MULTI_PART_FILES | TWO_OPERATOR_FILES | DIAGONAL_FILES
        )
        for name, text in files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        for cmd, write_to in _commands():
            proc = subprocess.run(
                [sys.executable, "-m", "relpos.cli", "--json", *cmd],
                cwd=work,
                env=env,
                capture_output=True,
            )
            if write_to is not None:
                with open(os.path.join(work, write_to), "wb") as fh:
                    fh.write(proc.stdout)
            if proc.returncode not in DOCUMENTED_EXIT_CODES:
                bad += 1
            print(f"relpos --json {shlex.join(cmd)}  exit={proc.returncode}"
                  f"  stdout={_sha(proc.stdout)}  stderr={_sha(proc.stderr)}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
