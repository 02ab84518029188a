"""Fuzz `relpos` through cli.main: sysfile text of either field, symbol
text, catalog keys, --alpha and --gamma scalars, and the numeric flags --N,
--threshold and --tol.  Every example must end in a documented exit code
(0, 2, 3 or 4): never in a traceback, a signal, the address-space cap or the
time limit.

Each example runs in its own child of tests/cli_fork_server.py, with an
address space of 1 GiB and an alarm of 10 s, so a missing bound fails the
example instead of the test runner.  Sizes stay where one example runs in
milliseconds, plus values at or past each bound.

Sysfiles of ambient 0 to 5 go to every command.  Ambients 6 up to the bound
512 go to the commands that answer them within the alarm: `defect`,
`coxeter plus`, `coxeter zero`, `coxeter perp`, `diagram` and `angles` at
every such ambient; `coxeter minus` up to MINUS_AMBIENT (200); `decompose`
and `isom` past 32, where the Hom bound refuses them.
test_coxeter_minus_and_perp_on_larger_ambients runs `coxeter minus` at 200
and `coxeter perp` at 512 on dense subspaces, whose canonical bases take
the multimodular lift, `coxeter perp` at 20 and 512 on sparse rows with
huge entries, `coxeter minus` on four zero subspaces of C^512,
and `isom` and `decompose` at 10 and `coxeter plus` at 64, whose Hom
constraints with large entries take the lift too (`isom` takes 5.7 to 5.8 s
in process at 16).  test_isom_without_an_invertible_intertwiner_on_a_larger_ambient
runs `isom` at 26 on two operator systems with a nonzero Hom that are
not isomorphic.  The rest is slow there and is listed, with measured
inputs, in the strict xfail test_slow_commands_on_larger_ambients, which is
not run (it would hold the alarm for 10 s): `coxeter duality` at 32, whose
Hom kernel the lift takes, but not inside the alarm."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import relpos
from relpos.catalog import GP4_FAMILIES, MAX_CATALOG_DIM
from relpos.sysfile import render
from relpos.system import MAX_HOM_UNKNOWNS
from relpos.toeplitz import MAX_EXOTIC_N, MAX_SYMBOL_BLOCK, MAX_SYMBOL_OFFSET
from test_decompose import AMBIENT_26, moved_diagonal_pair

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_fork_server.py")
FUZZ = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def run():
    """run(argv, files) -> (exit code, stdout tail, stderr tail) of one forked example."""
    src = os.path.dirname(os.path.dirname(relpos.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    server = subprocess.Popen(
        [sys.executable, SERVER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
    )

    def call(argv, files=None):
        server.stdin.write(json.dumps({"argv": argv, "files": files or {}}) + "\n")
        server.stdin.flush()
        answer = json.loads(server.stdout.readline())
        return answer["exit"], answer["stdout"], answer["stderr"]

    try:
        yield call
    finally:
        server.stdin.close()
        server.wait(timeout=30)
        server.stdout.close()


def assert_documented(run, argv, files=None):
    code, _, err = run(argv, files)
    assert code in DOCUMENTED_EXIT_CODES, f"relpos {argv} exited {code}:\n{err}"
    assert "Traceback" not in err


SCALAR_WORDS = (
    "i", "-i", "+i", ".5", "-0", "1e-3", "2-1/3i", "3/4i", "1/0", "0/0", "1/-2",
    "nan", "inf", "-inf", "1e400", "1e4298", "1e4299", "1e99999999", "9" * 4301,
    "1_000", "0x10", "1j", "(1+2j)", "i2", "--1", "1e", "e5", "/2", "", " ",
)
# read by both fields
plain_scalars = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(max_denominator=50).map(str),
    st.builds(lambda a, b: f"{a}{b:+d}i", st.integers(-9, 9), st.integers(-9, 9)),
)
scalars = st.one_of(
    plain_scalars,
    st.floats().map(repr),
    st.sampled_from(SCALAR_WORDS),
    st.text(alphabet="0123456789+-./eEij_ ", max_size=8),
)
numbers = st.one_of(
    st.integers(-4, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(("", "0", "-0.0", "1e-9", "1e309", "1_0", "0x20", "nan", "9" * 4301)),
    st.text(max_size=6),
)


@st.composite
def mutated(draw, lines):
    """The lines, or half the time the lines with one of them dropped,
    doubled or replaced."""
    lines = list(lines)
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("drop", "double", "replace")))
        if how == "drop":
            del lines[k]
        elif how == "double":
            lines.insert(k, lines[k])
        elif how == "replace":
            lines[k] = draw(st.text(max_size=20))
    return lines


@st.composite
def sysfile_texts(draw, ambients=st.integers(0, 5)):
    field = draw(st.sampled_from(("gaussian-rational", "complex-float")))
    # most files are small enough to be read, most with four subspaces
    if draw(st.integers(0, 3)) == 3:
        d = draw(st.sampled_from((-1, MAX_CATALOG_DIM + 1, 10**6)))
    else:
        d = draw(ambients)
    entries = draw(st.sampled_from((plain_scalars, scalars)))
    lines = ["relpos-system 1", f"field {field}", f"ambient {d}"]
    for i in range(draw(st.integers(0, 5) | st.just(4))):
        k = draw(st.integers(0, 3))
        lines.append(f"subspace E{i + 1} dim {k}")
        width = d if 0 <= d <= MAX_CATALOG_DIM else draw(st.integers(0, 5))
        lines += [" ".join(draw(vectors(entries, width))) for _ in range(k)]
    return "\n".join(draw(mutated(lines))) + "\n"


@st.composite
def vectors(draw, entries, width):
    """width entries: all drawn up to 5, else at most 4 drawn and the rest 0."""
    if width <= 5:
        return draw(st.lists(entries, min_size=width, max_size=width))
    row = ["0"] * width
    for j, entry in draw(st.lists(st.tuples(st.integers(0, width - 1), entries), max_size=4)):
        row[j] = entry
    return row


@st.composite
def symbol_texts(draw):
    b = draw(st.integers(-1, 3) | st.sampled_from((MAX_SYMBOL_BLOCK, MAX_SYMBOL_BLOCK + 1)))
    bound = st.sampled_from((-MAX_SYMBOL_OFFSET - 1, MAX_SYMBOL_OFFSET, MAX_SYMBOL_OFFSET + 1))
    entries = draw(st.sampled_from((plain_scalars, scalars)))
    parts = [f"block={b}"]
    for offset in draw(st.lists(st.integers(-3, 3) | bound, max_size=4)):
        width = b if 1 <= b <= 3 else draw(st.integers(0, 3))
        rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(width)]
        parts.append(f"k:{offset}=[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]")
    return "; ".join(draw(mutated(parts)))


sizes = st.integers(-2, 6) | st.sampled_from((MAX_CATALOG_DIM // 2 + 1, 10**9))
catalog_keys = st.one_of(
    st.builds(lambda kind, n: f"{kind}:{n}", st.sampled_from(("gp3", "two", "one", "example")), numbers),
    st.builds(lambda k, lam: f"jordan:k={k}.l={lam}", sizes, scalars),
    st.builds(
        lambda family, k, tail: f"gp4:{family}.k={k}{tail}",
        st.sampled_from(GP4_FAMILIES),
        sizes,
        st.sampled_from(("", ".l=2", ".l=1/2+i", ".perm=2134", ".perm=1123", ".x")),
    ),
    st.text(max_size=20),
)


def sysfile_commands(f, names):
    """One of the named commands on the file f, with drawn flags."""
    commands = {
        "defect": st.just(["defect", f]),
        "decompose": st.builds(lambda seed: ["decompose", f, "--seed", str(seed)], st.integers()),
        "isom": st.just(["isom", f, f]),
        "diagram": st.builds(lambda t: ["diagram", f, "--threshold", t], numbers),
        "angles": st.just(["angles", f]),
    }
    for functor in ("plus", "minus", "perp", "zero", "duality"):
        commands[f"coxeter {functor}"] = st.just(["coxeter", functor, f])
    return st.one_of([commands[name] for name in names])


SYSFILE_COMMANDS = (
    "defect", "decompose", "isom", "coxeter plus", "coxeter minus", "coxeter perp",
    "coxeter zero", "coxeter duality", "diagram", "angles",
)
# the largest ambient whose End still passes the Hom bound
HOM_AMBIENT = math.isqrt(MAX_HOM_UNKNOWNS)
# an ambient where `coxeter minus` on four dense 3-dimensional subspaces
# (four_subspaces) takes under 2 s, process start included: 0.5 s at 100,
# 1.0 s at 150, 1.5 s at 200, 1.9 s at 224 and 2.4 s at 256.  The slowest of
# 400 sysfile_texts drawn at 200 took 2.5 s in the fork server, and of 600 at
# 224, 6.5 s (one vector, with entries -3.06e-232 and -8.7e24)
MINUS_AMBIENT = 200


def larger_ambient_commands(d):
    """The commands that answer a valid system of ambient 6 <= d <= 512
    within the alarm."""
    names = ["defect", "coxeter plus", "coxeter zero", "coxeter perp", "diagram", "angles"]
    if d <= MINUS_AMBIENT:
        names.append("coxeter minus")
    if d > HOM_AMBIENT:
        names += ["decompose", "isom"]
    return names


@given(text=sysfile_texts(), argv=sysfile_commands("s.sys", SYSFILE_COMMANDS), json_flag=st.booleans())
@FUZZ
def test_fuzz_sysfile_text(run, text, argv, json_flag):
    assert_documented(run, ["--json"] * json_flag + argv, {"s.sys": text})


@given(data=st.data(), d=st.integers(6, MAX_CATALOG_DIM), json_flag=st.booleans())
@settings(max_examples=15, deadline=None)
def test_fuzz_sysfile_text_at_larger_ambients(run, data, d, json_flag):
    text = data.draw(sysfile_texts(st.just(d)), label="text")
    argv = data.draw(sysfile_commands("s.sys", larger_ambient_commands(d)), label="argv")
    assert_documented(run, ["--json"] * json_flag + argv, {"s.sys": text})


def four_subspaces(d, k, fractions=False, seed=0):
    """Four seeded k-dimensional subspaces of Q(i)^d, with entries in -9..9
    or, with `fractions`, n/m for |n| <= 10^6 and 1 <= m <= 50."""
    rng = random.Random(seed)
    if fractions:
        def entry():
            return str(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50)))
    else:
        def entry():
            return str(rng.randint(-9, 9))
    lines = ["relpos-system 1", "field gaussian-rational", f"ambient {d}"]
    for i in range(4):
        lines.append(f"subspace E{i + 1} dim {k}")
        lines += [" ".join(entry() for _ in range(d)) for _ in range(k)]
    return "\n".join(lines) + "\n"


HUGE_WORDS = ("1e4298", "-3.058817864133782e-232", "43536308755372831015960576/5", "999999/49")


def huge_entry_subspaces(d, seed):
    """Four 3-dimensional subspaces of Q(i)^d whose rows each hold the four
    HUGE_WORDS, which the fuzz strategy can draw, at seeded places and in a
    seeded order, and zeros elsewhere."""
    rng = random.Random(seed)
    lines = ["relpos-system 1", "field gaussian-rational", f"ambient {d}"]
    for i in range(4):
        lines.append(f"subspace E{i + 1} dim 3")
        for _ in range(3):
            row = ["0"] * d
            for j, word in zip(rng.sample(range(d), 4), rng.sample(HUGE_WORDS, 4)):
                row[j] = word
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


# Seconds in one process on a 2-core Xeon (the coxeter ones include a
# process start); the alarm is 10 s.
SLOW_ON_LARGER_AMBIENTS = [
    # 2.6 s at d = 20 and 13.7 to 14.0 s at d = 32 under the 1 GiB cap (more
    # than 100 s while the lift of its Hom kernel was priced at the Hadamard
    # bound and refused); 340 lifts, most of 11 or 14 primes, and 437 that
    # fall back to fraction-free elimination
    pytest.param(["coxeter", "duality", "s.sys"], 32, 3, False, id="coxeter-duality-32"),
]


@pytest.mark.xfail(
    run=False,
    strict=True,
    reason="slow on valid larger systems: the FOUND lines on coxeter in CHANGES.md",
)
@pytest.mark.parametrize("argv, d, k, fractions", SLOW_ON_LARGER_AMBIENTS)
def test_slow_commands_on_larger_ambients(run, argv, d, k, fractions):
    assert_documented(run, argv, {"s.sys": four_subspaces(d, k, fractions)})


# Seconds as above, against the time when the lift was refused or absent:
# `coxeter perp` at 512 3.5 to 4.4 s, against more than 60 s with
# fraction-free Gauss-Jordan only; `isom` and `decompose` on Q(i)^10 with
# large entries 1.3 and 3.2 s, against 21 and 22 s; `coxeter plus` on twenty
# dimensions of Q(i)^64 0.5 s, against 27 s.  `coxeter minus`, which reads
# its subspaces off one kernel, takes 1.5 s at 200 (3.5 s while it composed
# perp . plus . perp, more than 60 s before the lift) and 3.2 to 3.3 s on
# four zero subspaces of C^512 (9.4 to 10.7 s composed), 0.34 s of it writing
# the 3 * 10^6 entries.  `coxeter perp` on huge_entry_subspaces(d, 3) takes
# 0.2 s at 20 and 1.2 s at 512; while each kernel was eliminated a second
# time to reach its canonical basis it was killed by the alarm at both (at
# 20, seeds 0 to 4 took 5.2 to 10 s).
@pytest.mark.parametrize("argv, text", [
    pytest.param(["coxeter", "minus", "s.sys"], four_subspaces(200, 3), id="coxeter-minus-200"),
    pytest.param(["coxeter", "minus", "s.sys"], four_subspaces(512, 0), id="coxeter-minus-zero-512"),
    pytest.param(["coxeter", "perp", "s.sys"], four_subspaces(512, 3), id="coxeter-perp-512"),
    pytest.param(["coxeter", "perp", "s.sys"], huge_entry_subspaces(20, 3), id="coxeter-perp-huge-20"),
    pytest.param(["coxeter", "perp", "s.sys"], huge_entry_subspaces(512, 3), id="coxeter-perp-huge-512"),
    pytest.param(["isom", "s.sys", "s.sys"], four_subspaces(10, 2, True), id="isom-10"),
    pytest.param(["decompose", "s.sys", "--seed", "1"], four_subspaces(10, 2, True), id="decompose-10"),
    pytest.param(["coxeter", "plus", "s.sys"], four_subspaces(64, 20), id="coxeter-plus-64"),
])
def test_coxeter_minus_and_perp_on_larger_ambients(run, argv, text):
    code, _, err = run(argv, {"s.sys": text})
    assert code == 0, f"relpos {argv} exited {code}:\n{err}"


def test_isom_without_an_invertible_intertwiner_on_a_larger_ambient(run):
    # S_T for two diagonal T of size 13 that share three eigenvalues: no
    # intertwiner is invertible, and the dimensions of Hom (3) and End (13)
    # decide the pair
    files = {name: render(x) for name, x in zip(("a.sys", "b.sys"), moved_diagonal_pair(*AMBIENT_26))}
    code, out, err = run(["--json", "isom", "a.sys", "b.sys"], files)
    assert code == 0, f"relpos isom exited {code}:\n{err}"
    assert json.loads(out)["status"] == "not_isomorphic"


@given(symbol=symbol_texts(), mode=st.sampled_from(("index", "defect")))
@FUZZ
def test_fuzz_symbol_text(run, symbol, mode):
    assert_documented(run, ["--json", "toeplitz", mode, f"--symbol={symbol}"])


@given(key=catalog_keys)
@FUZZ
def test_fuzz_catalog_keys(run, key):
    assert_documented(run, ["catalog", "build", key])


@given(alpha=scalars, gamma=scalars, size=numbers | st.sampled_from((str(MAX_EXOTIC_N), str(MAX_EXOTIC_N + 1))))
@FUZZ
def test_fuzz_alpha_and_gamma(run, alpha, gamma, size):
    assert_documented(run, ["toeplitz", "regions", f"--alpha={alpha}"])
    assert_documented(run, ["--json", "toeplitz", "exotic", f"--gamma={gamma}", "--N", size])


@given(tol=numbers, threshold=numbers)
@FUZZ
def test_fuzz_numeric_flags(run, tol, threshold):
    text = "relpos-system 1\nfield complex-float\nambient 2\nsubspace E1 dim 1\n1 0\nsubspace E2 dim 1\n1 1e-7\n"
    assert_documented(run, [f"--tol={tol}", "diagram", "s.sys", f"--threshold={threshold}"], {"s.sys": text})
    assert_documented(run, [f"--tol={tol}", "toeplitz", "exotic", "--gamma=2", "--N=8", f"--threshold={threshold}"])
