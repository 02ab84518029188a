"""CLI and system-file format: round trips, subcommands, exit codes,
deterministic machine reports."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

import relpos
from relpos import sysfile
from relpos.catalog import MAX_CATALOG_DIM, build_gp3, build_gp4
from relpos.cli import build_parser, main
from relpos.gaussian import GQ
from relpos.sampling import random_system
from relpos.system import MAX_HOM_UNKNOWNS, SubspaceSystem
from relpos import toeplitz
from relpos.toeplitz import MAX_EXOTIC_N, MAX_SYMBOL_BLOCK, MAX_SYMBOL_OFFSET
from relpos import verify as verify_mod
from relpos.verify import CRITERIA, Criterion, SweepReport, classification_completeness


# A (4; 1, 1, 1, 1) leaf of `decompose --seed 1` on four_subspaces(8, 2,
# fractions=True) of test_cli_fuzz.py: four lines spanning C^4, whose End has
# minimal polynomials with four rational roots of about 775 bits.
FOUR_LINES = os.path.join(os.path.dirname(__file__), "data", "four_lines_in_c4.sys")


def run_python(argv, stdout=subprocess.PIPE):
    """Run the interpreter on argv in a child process that imports relpos
    from where this session does."""
    src = os.path.dirname(os.path.dirname(relpos.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(args, stdin_text=None, capsys=None):
    """Run main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout, redirect_stderr

    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    err = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_sysfile_roundtrip_bytes():
    import random

    from relpos.subspace import Subspace

    rng = random.Random(5)
    s = random_system(rng, 4, 3)
    extra = Subspace.span_rows(
        4, [[1, 0, GQ(0, -1), GQ(0, Fraction(5, 3))], [0, 1, GQ(0, 1), Fraction(-7, 2)]]
    )
    s = SubspaceSystem(4, list(s.subspaces) + [extra])
    meta = {"origin": "test", "note": "two words"}
    text = sysfile.render(s, meta)
    # every branch of format_gq: i, -i, a pure imaginary and Gaussian fractions
    assert text == (
        "relpos-system 1\nfield gaussian-rational\nambient 4\n"
        "subspace E1 dim 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        "subspace E2 dim 2\n1 0 -38/37-6/37i 17/37+28/37i\n0 1 -21/37-15/37i 24/37+33/37i\n"
        "subspace E3 dim 2\n1 0 19/17+8/17i 14/17+22/17i\n0 1 -8/17+2/17i 12/17-20/17i\n"
        "subspace E4 dim 2\n1 0 -i 5/3i\n0 1 i -7/2\n"
        "meta note two words\nmeta origin test\n"
    )
    parsed = sysfile.parse(text)
    assert parsed.metadata == meta
    assert sysfile.render(parsed.to_system(), parsed.metadata) == text
    assert parsed.to_system() == s


def test_sysfile_float_roundtrip():
    from relpos.gaussian import format_cfloat

    s = build_gp3(9).to_float()
    back = sysfile.parse(sysfile.render(s)).to_system()
    assert back.ambient_dim == 2
    assert back.dims() == (1, 1, 1)
    # signed zeros, exponents and imaginary parts: each line is the
    # format_cfloat text of the canonical basis entries, one vector a line
    x1 = sysfile.parse(
        "relpos-system 1\nfield complex-float\nambient 3\n"
        "subspace E1 dim 2\n-0.0 .5i 1.0\n2e-3-0.25i 1.0 -0.0\n"
        "subspace E2 dim 2\n.5i -0.0 2e-3-0.25i\n0.25 1.0 .5i\n"
        "subspace E3 dim 1\n-0.0 -1.0 0.0\n"
    ).to_system()
    want = ["relpos-system 1", "field complex-float", "ambient 3"]
    for k, sub in enumerate(x1.subspaces):
        b = sub.basis
        want.append(f"subspace E{k + 1} dim {b.cols}")
        for j in range(b.cols):
            want.append(" ".join(format_cfloat(complex(b.entry(i, j))) for i in range(b.rows)))
    assert sysfile.render(x1).splitlines() == want


def test_sysfile_rejects_garbage():
    from relpos.errors import ParseError

    with pytest.raises(ParseError):
        sysfile.parse("nonsense\n")
    with pytest.raises(ParseError):
        sysfile.parse("relpos-system 1\nfield gaussian-rational\nambient 2\nsubspace E1 dim 1\n1 2 3\n")


def test_catalog_build_and_defect_pipe():
    code, out, _ = run_cli(["catalog", "build", "gp4:S(2k+1,2).k=1"])
    assert code == 0
    assert "relpos-system 1" in out
    code, out2, _ = run_cli(["defect", "-"], stdin_text=out)
    assert code == 0
    assert "defect: 2" in out2


def test_defect_json_deterministic():
    _, sysout, _ = run_cli(["catalog", "build", "gp4:S3(2k,-1).k=2"])
    code1, out1, _ = run_cli(["--json", "defect", "-"], stdin_text=sysout)
    code2, out2, _ = run_cli(["--json", "defect", "-"], stdin_text=sysout)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["defect"] == "-1"
    assert rep["consistency"] is True


def test_decompose_cli():
    _, sysout, _ = run_cli(["catalog", "build", "gp3:9"])
    code, out, _ = run_cli(["--json", "decompose", "-", "--seed", "7"], stdin_text=sysout)
    assert code == 0
    rep = json.loads(out)
    assert rep["component_count"] == 1
    assert rep["certified"] is True
    assert rep["seed"] == 7


def test_decompose_cli_splits_four_lines_with_large_entries():
    code, out, err = run_cli(["--json", "decompose", FOUR_LINES])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["component_count"] == 4
    assert rep["certified"] and rep["witness_verified"]


def test_decompose_cli_splits_an_operator_with_thirty_eigenvalues(tmp_path):
    # S_T for T = diag(7, ..., 36): mu_T has degree 30 and every candidate
    # of the search factors, so the tree has thirty certified leaves
    from relpos.catalog import single_operator_system
    from relpos.matrix import Matrix

    t = Matrix.from_rows([[7 + i if i == j else 0 for j in range(30)] for i in range(30)])
    path = tmp_path / "t.sys"
    path.write_text(sysfile.render(single_operator_system(t)))
    code, out, err = run_cli(["--json", "decompose", str(path)])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["component_count"] == 30
    assert rep["certified"] and rep["witness_verified"]


def test_isom_cli(tmp_path):
    a = tmp_path / "a.sys"
    b = tmp_path / "b.sys"
    _, text_a, _ = run_cli(["catalog", "build", "example:7"])
    _, text_b, _ = run_cli(["catalog", "build", "example:8"])
    a.write_text(text_a)
    b.write_text(text_b)
    code, out, _ = run_cli(["--json", "isom", str(a), str(b)])
    assert code == 0
    assert json.loads(out)["status"] == "not_isomorphic"
    code, out, _ = run_cli(["--json", "isom", str(a), str(a)])
    assert code == 0
    assert json.loads(out)["status"] == "isomorphic"


def test_coxeter_cli_roundtrip():
    _, sysout, _ = run_cli(["catalog", "build", "gp3:8"])
    code, plus_text, _ = run_cli(["coxeter", "plus", "-"], stdin_text=sysout)
    assert code == 0
    s = sysfile.system_from_text(plus_text)
    assert s.ambient_dim == 2
    code, out, _ = run_cli(["--json", "coxeter", "duality", "-"], stdin_text=sysout)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_diagram_cli():
    _, sysout, _ = run_cli(["catalog", "build", "example:7"])
    code, out, _ = run_cli(["--json", "diagram", "-"], stdin_text=sysout)
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 4


def test_angles_cli():
    _, sysout, _ = run_cli(["catalog", "build", "two:3"])
    code, out, _ = run_cli(["--json", "angles", "-"], stdin_text=sysout)
    assert code == 0
    rep = json.loads(out)
    assert rep["multiplicities"]["(C;C,C)"] == 1


FLOAT_PAIR = "\n".join([
    "relpos-system 1", "field complex-float", "ambient 4",
    "subspace E1 dim 2", "1.0 0.5 -0.25+0.5i 0.0", "0.0 1.0 0.75 -1.5i",
    "subspace E2 dim 2", "0.5 1.0 0.0 2.0", "1.25-0.5i 0.0 1.0 0.25",
]) + "\n"


def test_angles_cli_decomposes_a_float_pair_once(monkeypatch):
    from relpos import angles

    calls = []
    decompose_pair = angles.halmos_decompose

    def counting(e, f, *args):
        calls.append((e, f))
        return decompose_pair(e, f, *args)

    monkeypatch.setattr(angles, "halmos_decompose", counting)
    code, out, err = run_cli(["--json", "angles", "-"], stdin_text=FLOAT_PAIR)
    assert code == 0, err
    assert len(calls) == 1
    rep = json.loads(out)
    assert len(rep["angles"]) == 2 and rep["reconstruction_residual"] < 1e-12


def test_toeplitz_cli():
    code, out, _ = run_cli(["--json", "toeplitz", "regions", "--alpha", "1/2"])
    assert code == 0
    assert json.loads(out)["defect"] == "-2/3"
    code, out, _ = run_cli(
        ["--json", "toeplitz", "index", "--symbol", "block=1; k:1=[[1]]"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["index"] == -1
    code, out, _ = run_cli(
        ["--json", "toeplitz", "defect", "--symbol", "block=1; k:1=[[1]]"]
    )
    assert code == 0
    assert json.loads(out)["defect"] == "-1/3"
    code, out, _ = run_cli(
        ["--json", "toeplitz", "exotic", "--gamma", "2", "--N", "8"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["defect_estimate"] == "1"
    assert rep["not_operator_system"] is True


def test_parse_error_exit_code():
    code, _, err = run_cli(["catalog", "build", "gp4:bogus"])
    assert code == 2
    assert "parse error" in err
    code, _, err = run_cli(["defect", "-"], stdin_text="garbage\n")
    assert code == 2


def test_parse_error_quotes_a_long_token_in_a_line(tmp_path):
    path = tmp_path / "wide.sys"
    path.write_text("relpos-system 1\nfield gaussian-rational\nambient 2\nsubspace E1 dim 1\n" + "1" * 5000 + " 1\n")
    code, _, err = run_cli(["defect", str(path)])
    assert code == 2
    assert err.startswith("parse error: bad rational '111")
    assert "(5000 characters)" in err
    assert len(err) < 200


def test_negative_ambient_exit_code():
    text = "relpos-system 1\nfield gaussian-rational\nambient -2\n"
    code, _, err = run_cli(["defect", "-"], stdin_text=text)
    assert code == 2
    assert "negative ambient" in err


def test_negative_subspace_dim_exit_code():
    text = "relpos-system 1\nfield gaussian-rational\nambient 2\nsubspace E1 dim -3\n"
    code, _, err = run_cli(["defect", "-"], stdin_text=text)
    assert code == 2
    assert "negative dimension" in err


FLOAT_SYSTEM = (
    "relpos-system 1\nfield complex-float\nambient 2\n"
    "subspace E1 dim 1\n{} 1.0\nsubspace E2 dim 1\n0.0 1.0\n"
    "subspace E3 dim 1\n1.0 1.0\nsubspace E4 dim 1\n1.0 2.0\n"
)


def test_nan_float_entry_exit_code():
    code, _, err = run_cli(["defect", "-"], stdin_text=FLOAT_SYSTEM.format("nan"))
    assert code == 2
    assert "non-finite float" in err


def test_inf_float_entry_exit_code():
    code, _, err = run_cli(["defect", "-"], stdin_text=FLOAT_SYSTEM.format("-inf"))
    assert code == 2
    assert "non-finite float" in err


def test_non_integer_catalog_size_exit_code():
    code, _, err = run_cli(["catalog", "build", "gp4:S(2k+1,2).k=x"])
    assert code == 2
    assert "parse error" in err


def test_repeated_symbol_offset_exit_code():
    code, _, err = run_cli(["toeplitz", "index", "--symbol", "block=1; k:1=[[1]]; k:1=[[2]]"])
    assert code == 2
    assert "repeated coefficient offset" in err


def test_symbol_offset_bound_exit_code():
    symbol = f"block=1; k:0=[[1]]; k:{MAX_SYMBOL_OFFSET + 1}=[[1]]"
    code, _, err = run_cli(["toeplitz", "index", "--symbol", symbol])
    assert code == 2
    assert "exceeds the bound" in err


@pytest.mark.parametrize("mode", ["index", "defect"])
def test_symbol_with_a_zero_coordinate_exit_code(mode):
    # row and column 1 are zero in every coefficient, so det a is 0
    symbol = "block=2; k:0=[[1,0],[0,0]]; k:1=[[1,0],[0,0]]"
    code, _, err = run_cli(["toeplitz", mode, "--symbol", symbol])
    assert code == 2
    assert "symbol determinant vanishes identically" in err


def test_symbol_block_bound_exit_code():
    # I + zI one past the bound; unchecked, the Toeplitz paths grow as the
    # cube of the block size
    b = MAX_SYMBOL_BLOCK + 1
    ident = "[" + ",".join(
        "[" + ",".join(str(int(i == j)) for j in range(b)) + "]" for i in range(b)
    ) + "]"
    symbol = f"block={b}; k:0={ident}; k:1={ident}"
    proc = run_python(["-m", "relpos.cli", "toeplitz", "index", "--symbol", symbol])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the bound" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [["toeplitz", "exotic", "--gamma", "2", "--N", str(MAX_EXOTIC_N + 1)]],
    ids=["exotic-N"],
)
def test_size_bound_exit_code(args):
    # refused before anything of that size is allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "exceeds the bound" in err
    assert peak < 1 << 20


EXPONENT_SYSFILE = "\n".join([
    "relpos-system 1", "field gaussian-rational", "ambient 2",
    "subspace E1 dim 1", "1 1e99999999",
    "subspace E2 dim 1", "0 1",
    "subspace E3 dim 1", "1 0",
    "subspace E4 dim 1", "1 1",
]) + "\n"


@pytest.mark.parametrize(
    "args",
    [
        ["defect", "{sysfile}"],
        ["toeplitz", "exotic", "--gamma", "1e99999999", "--N", "8"],
        ["toeplitz", "regions", "--alpha=-1e-99999999i"],
        ["catalog", "build", "jordan:k=1.l=1e99999999"],
        ["catalog", "build", "gp4:S(2k,0;l).k=1.l=2+1e99999999i"],
    ],
    ids=["sysfile", "gamma", "alpha", "jordan-key", "gp4-key"],
)
def test_exact_exponent_bound_exit_code(args, tmp_path):
    # refused before 10**99999999 is taken: unchecked, it never finishes
    path = tmp_path / "e.sys"
    path.write_text(EXPONENT_SYSFILE)
    args = [str(path) if a == "{sysfile}" else a for a in args]
    tracemalloc.start()
    try:
        code, out, err = run_cli(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "exact part out of range" in err
    assert "Traceback" not in err
    assert peak < 1 << 20


# each entry is inside MAX_EXACT_DIGITS, but the perp basis holds
# integers of up to 8,596 digits, and decompose's factoring sorts by the text of
# coefficients past Python's 4,300-digit int/str limit
WIDE_ENTRY_SYSFILE = """relpos-system 1
field gaussian-rational
ambient 3
subspace E1 dim 2
1e4298 1 0
1 1e4298 1
"""


def test_reports_print_integers_past_the_str_digit_limit(tmp_path):
    path = tmp_path / "w.sys"
    path.write_text(WIDE_ENTRY_SYSFILE)
    code, out, err = run_cli(["coxeter", "perp", str(path)])
    assert (code, err) == (0, "")
    assert max(len(digits) for digits in re.findall(r"[0-9]+", out)) > 4300
    code, out, err = run_cli(["--json", "decompose", str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["component_count"] == 3
    assert report["certified"] and report["witness_verified"]


def test_unreadable_input_file_exit_code(tmp_path):
    missing = tmp_path / "missing.sys"
    binary = tmp_path / "binary.sys"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (missing, binary):
        proc = run_python(["-m", "relpos.cli", "defect", str(path)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"cannot read {path}" in proc.stderr


def test_unwritable_output_file_exit_code(tmp_path):
    target = tmp_path / "missing-dir" / "x.sys"
    proc = run_python(["-m", "relpos.cli", "catalog", "build", "example:6", "--output", str(target)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"cannot write {target}" in proc.stderr
    assert not target.parent.exists()


@pytest.mark.parametrize("size", ["0", "-2"])
def test_jordan_size_below_one_exit_code(size):
    proc = run_python(["-m", "relpos.cli", "catalog", "build", f"jordan:k={size}.l=1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "jordan blocks need k >= 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["toeplitz", "regions", "--alpha", "1e400"],
        ["toeplitz", "index", "--symbol", "block=1; k:0=[[-1e400]]; k:1=[[1e400]]"],
        ["toeplitz", "defect", "--symbol", "block=2; k:0=[[1,0],[0,1]]; k:1=[[0,1e309i],[0,0]]"],
        ["toeplitz", "exotic", "--gamma=-1e400i", "--N", "8"],
    ],
    ids=["alpha", "index", "defect", "gamma"],
)
def test_exact_values_past_the_float_range_exit_code(args):
    # the winding grid and the oracle read the coefficients in floats
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert "past the float range" in err and "Traceback" not in err
    # the largest float is still accepted, and its zero count warns of no
    # float overflow (in a fresh process, where warnings reach stderr)
    proc = run_python(
        ["-m", "relpos.cli", "--json", "toeplitz", "regions", "--alpha", "17976931348623157e292"]
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["defect"] == "0"
    assert proc.stderr == ""


def test_index_counts_the_cokernel_of_a_zero_near_the_circle():
    # diag(z - 1, z - 99/100): T(z - 99/100) has a one-dimensional cokernel,
    # whose decay the truncation oracle does not resolve
    symbol = "block=2; k:0=[[-1,0],[0,-99/100]]; k:1=[[1,0],[0,1]]"
    code, out, err = run_cli(["--json", "toeplitz", "index", "--symbol", symbol])
    assert code == 0, err
    report = json.loads(out)
    assert not report["fredholm"]
    assert (report["ker"], report["coker"]) == (0, 1)
    assert report["certification"]["kernel_certification"] == "exact"


def test_index_counts_zeros_too_close_to_the_circle_for_the_oracle():
    # (z - 1)(z - 97/100)(z - 98/100)(z - 99/100)/z: three zeros inside, one
    # on the circle, so ker 0 and coker 3 - 1; the truncation oracle at 200
    # blocks sees none of the slowly decaying cokernel
    symbol = ("block=1; k:-1=[[470547/500000]]; k:0=[[-1911097/500000]];"
              " k:1=[[58211/10000]]; k:2=[[-197/50]]; k:3=[[1]]")
    code, out, err = run_cli(["--json", "toeplitz", "index", "--symbol", symbol])
    assert code == 0, err
    report = json.loads(out)
    assert (report["fredholm"], report["ker"], report["coker"]) == (False, 0, 2)
    assert report["certification"] == {
        "method": "exact zero count", "inside": 3, "circle": 1, "kernel_certification": "exact",
    }


# det a = (z + 1/2)(z^2 - z + 1) vanishes at exp(+-i pi/3): not Fredholm, and
# one-sided, so its kernel dimensions come from the same exact count
CIRCLE_SYMBOL = "block=2; k:0=[[1,-1],[0,1/2]]; k:1=[[-1,1/2],[0,1]]; k:2=[[1,0],[0,0]]"


# diag((z - 1/2)(z - 19/20)/z, 1 - z): two-sided, not Fredholm, and split into
# two scalar parts, each counted once for the winding and the kernel dimensions
PARTS_SYMBOL = "block=2; k:-1=[[19/40,0],[0,0]]; k:0=[[-29/20,0],[0,1]]; k:1=[[1,0],[0,-1]]"


@pytest.mark.parametrize(
    "mode, symbol, sizes",
    [
        pytest.param("index", CIRCLE_SYMBOL, [2], id="index-1"),
        pytest.param("defect", CIRCLE_SYMBOL, [2, 2], id="defect-2"),
        pytest.param("index", PARTS_SYMBOL, [1, 1], id="index-parts"),
        pytest.param("defect", PARTS_SYMBOL, [1, 1, 1, 1], id="defect-parts"),
    ],
)
def test_toeplitz_counts_each_symbol_once(monkeypatch, mode, symbol, sizes):
    # `index` decides the symbol, `defect` the symbol and the symbol minus
    # one; the winding and the kernel dimensions share one count per
    # diagonal part
    seen = []
    count = toeplitz._exact_zero_counts

    def counting(sym):
        seen.append((sym.block_size, sym.text()))
        return count(sym)

    monkeypatch.setattr(toeplitz, "_exact_zero_counts", counting)
    code, _, err = run_cli(["--json", "toeplitz", mode, "--symbol", symbol])
    assert code == 0, err
    assert [size for size, _ in seen] == sizes
    assert len(set(seen)) == len(seen)


def test_plain_toeplitz_index_ends_with_the_kernel_certification():
    code, out, err = run_cli(["toeplitz", "index", "--symbol", CIRCLE_SYMBOL])
    assert code == 0, err
    assert out.splitlines()[-1] == "certification.kernel_certification: exact"
    assert "ker: 0" in out.splitlines() and "coker: 1" in out.splitlines()


def test_toeplitz_index_takes_no_grid_option(capsys):
    # the winding grid starts at 512 points; --grid is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["toeplitz", "index", "--symbol", "block=1; k:1=[[1]]", "--grid", "1024"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 1024" in capsys.readouterr().err


def test_block_diagonal_symbol_is_the_sum_of_its_parts():
    # diag((z - 1/2)(z - 19/20)/z, 1 - z): T of the first part has a
    # one-dimensional cokernel (decay 0.95^j), T(1 - z) none, and a - 1 =
    # diag(a_1 - 1, -z) has winding 1
    symbol = "block=2; k:-1=[[19/40,0],[0,0]]; k:0=[[-29/20,0],[0,1]]; k:1=[[1,0],[0,-1]]"
    code, out, err = run_cli(["--json", "toeplitz", "index", "--symbol", symbol])
    assert code == 0, err
    report = json.loads(out)
    assert (report["ker"], report["coker"]) == (0, 1)
    assert report["certification"]["kernel_certification"] == "exact"
    code, out, err = run_cli(["--json", "toeplitz", "defect", "--symbol", symbol])
    assert code == 0, err
    report = json.loads(out)
    assert report["defect"] == "-2/3" and report["contributions"] == [-1, -1]

def tall_entry_symbol(digits):
    """Text of a(z) = (z - 1)(z - 1/2)(z - 3) S, S = I plus twelve entries
    near 1/10 off the diagonal with distinct `digits`-digit denominators:
    T(a) = T((z - 1)(z - 1/2)(z - 3)) (x) S has ker 0 and coker 4."""
    b = 4
    s = [[Fraction(int(i == j)) for j in range(b)] for i in range(b)]
    for k, (i, j) in enumerate((i, j) for i in range(b) for j in range(b) if i != j):
        den = 10**digits + 2 * k + 1
        s[i][j] = Fraction(den // 10 + k, den)
    q = {0: Fraction(-3, 2), 1: Fraction(5), 2: Fraction(-9, 2), 3: Fraction(1)}
    def rows(c):
        return "[" + ",".join("[" + ",".join(str(c * v) for v in row) + "]" for row in s) + "]"

    return f"block={b}; " + "; ".join(f"k:{e}={rows(c)}" for e, c in q.items())


def test_index_of_a_symbol_with_tall_entries_leaves_the_count_to_the_oracle():
    # the determinants of the exact count would work with integers of about
    # 128,000 bits, past what `_char_poly_fits` allows this shape, so the
    # truncation oracle decides
    start = time.perf_counter()
    code, out, err = run_cli(["--json", "toeplitz", "index", "--symbol", tall_entry_symbol(800)])
    assert code == 0, err
    report = json.loads(out)
    assert not report["fredholm"]
    assert (report["ker"], report["coker"]) == (0, 4)
    assert report["certification"]["kernel_certification"] == "truncation"
    assert time.perf_counter() - start < 10


# P diag((z - 1/2)(z - 23/25)/z, 1 - z) P^-1 with P = [[1, 1], [0, 1]]: the
# cokernel vector decays like 0.92^j
UNCERTIFIED_SYMBOL = (
    "block=2; k:-1=[[23/50,-23/50],[0,0]]; k:0=[[-71/50,121/50],[0,1]]; k:1=[[1,-2],[0,-1]]"
)


def test_index_with_uncertified_kernel_dims_exits_3():
    # a two-sided block symbol that is not block-diagonal, so the truncation
    # oracle decides, and its counts at its two sizes differ
    code, out, err = run_cli(["--json", "toeplitz", "index", "--symbol", UNCERTIFIED_SYMBOL])
    assert code == 3, err
    report = json.loads(out)
    assert not report["fredholm"]
    assert report["certification"]["kernel_certification"] == "uncertified"


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf", "x"])
@pytest.mark.parametrize(
    "args",
    [
        ["diagram", "{sysfile}"],
        ["toeplitz", "exotic", "--gamma", "2", "--N", "8"],
    ],
    ids=["diagram", "exotic"],
)
def test_threshold_must_be_finite_and_positive(args, value, tmp_path, capsys):
    path = tmp_path / "s.sys"
    path.write_text(run_cli(["catalog", "build", "gp3:9"])[1])
    args = [str(path) if a == "{sysfile}" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main([*args, f"--threshold={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threshold" in err and "Traceback" not in err


# E1 = (1, 0), E2 = (1, 0.5): a nan or inf tolerance read both subspaces as zero
TOL_PAIR = (
    "relpos-system 1\nfield complex-float\nambient 2\n"
    "subspace E1 dim 1\n1.0 0.0\nsubspace E2 dim 1\n1.0 0.5\n"
)


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf", "x"])
def test_tol_must_be_finite_and_positive(value, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main([f"--tol={value}", "--json", "angles", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "Traceback" not in err
    # the same value from the environment is a parse error, not a traceback
    monkeypatch.setenv("RELPOS_TOL", value)
    code, out, err = run_cli(["--json", "angles", "-"], stdin_text=TOL_PAIR)
    assert (code, out) == (2, "")
    assert err == f"parse error: bad RELPOS_TOL value {value!r}\n"


def test_good_tol_reads_the_pair(monkeypatch):
    runs = [run_cli(["--tol=1e-6", "--json", "angles", "-"], stdin_text=TOL_PAIR)]
    monkeypatch.setenv("RELPOS_TOL", "1e-6")
    runs.append(run_cli(["--json", "angles", "-"], stdin_text=TOL_PAIR))
    for code, out, err in runs:
        assert code == 0, err
        rep = json.loads(out)
        assert rep["tolerance"] == 1e-6
        assert rep["multiplicities"] == {"(C;C,C)": 0, "(C;C,0)": 1, "(C;0,C)": 1, "(C;0,0)": 0}


def test_catalog_key_past_the_dimension_bound_exit_code():
    # refused from the key alone: built, the file would hold about 4e10 entries
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(["catalog", "build", "gp4:S3(2k,-1).k=99999"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "exceeds the bound 512" in err
    assert peak < 1 << 20
    assert time.perf_counter() - start < 1


def zero_subspaces_sysfile(d):
    return "\n".join([
        "relpos-system 1", "field gaussian-rational", f"ambient {d}",
        "subspace E1 dim 0", "subspace E2 dim 0", "subspace E3 dim 0", "subspace E4 dim 0",
    ]) + "\n"


@pytest.mark.parametrize("command", ["decompose", "isom"])
def test_hom_past_the_unknowns_bound_exit_code(command, tmp_path):
    # End(S) would have 1600 unknowns: refused before any constraint row
    path = tmp_path / "z.sys"
    path.write_text(zero_subspaces_sysfile(40))
    args = [command, str(path)] + ([str(path)] if command == "isom" else [])
    tracemalloc.start()
    try:
        code, out, err = run_cli(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"exceeds the bound {MAX_HOM_UNKNOWNS}" in err
    assert "Traceback" not in err
    assert peak < 1 << 20


@pytest.mark.parametrize("args", [["defect"], ["diagram"], ["coxeter", "perp"], ["coxeter", "minus"], ["angles"]])
def test_sysfile_past_the_ambient_bound_exit_code(args, tmp_path):
    # four zero subspaces of C^100000 in seven lines: their orthocomplements
    # alone would hold 10^10 entries, so the ambient is refused at parse
    path = tmp_path / "z.sys"
    path.write_text(zero_subspaces_sysfile(100000))
    tracemalloc.start()
    try:
        code, out, err = run_cli(args + [str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"exceeds the bound {MAX_CATALOG_DIM}" in err
    assert peak < 1 << 20


def test_closed_stdout_exit_code():
    # the reader is gone before relpos writes: exit 2, and no traceback from
    # the write or from the flush at interpreter exit
    for args in (["--json", "toeplitz", "regions", "--alpha", "1/2"], ["catalog", "build", "gp3:5"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_python(["-m", "relpos.cli", *args], stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_boundary_alpha_exit_code():
    code, _, err = run_cli(["toeplitz", "regions", "--alpha", "1"])
    assert code == 2


def test_verify_subcommand():
    code, out, _ = run_cli(["--json", "verify", "gp-range"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["checked"] == 53


def test_criteria_registry():
    names = [c.name for c in CRITERIA]
    assert len(set(names)) == len(names)
    assert sorted({c.number for c in CRITERIA}) == list(range(1, 11))
    for name in names:
        assert build_parser().parse_args(["verify", name]).sweep == name


def test_verify_runs_a_registry_entry():
    code, out, _ = run_cli(["--json", "verify", "halmos"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "verify halmos"
    assert rep["passed"] is True
    assert rep["checked"] == 50


def _cheap_criteria():
    # real entries on small inputs; criterion 4 runs at its full count of 200
    # in test_acceptance
    halmos = next(c for c in CRITERIA if c.name == "halmos")
    two_types = partial(classification_completeness, count=5, n=2, seed=204)
    return (Criterion(4, "two-types", two_types), halmos)


def test_verify_all_runs_every_entry_in_order(monkeypatch):
    monkeypatch.setattr(verify_mod, "CRITERIA", _cheap_criteria())
    code, out, _ = run_cli(["verify", "all"])
    assert code == 0
    assert out.splitlines() == [
        "4 two-types: PASS [checked 5]",
        "9 halmos: PASS [checked 50]",
    ]
    code, out1, _ = run_cli(["--json", "verify", "all"])
    code2, out2, _ = run_cli(["--json", "verify", "all"])
    assert code == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["command"] == "verify all" and rep["passed"] is True
    assert [(r["number"], r["name"], r["checked"]) for r in rep["criteria"]] == [
        (4, "two-types", 5),
        (9, "halmos", 50),
    ]


def test_verify_all_exits_4_on_a_failing_entry(monkeypatch):
    def failing():
        return SweepReport(name="broken", passed=False, checked=1, failures=["x"])

    entries = _cheap_criteria()[1:] + (Criterion(11, "broken", failing),)
    monkeypatch.setattr(verify_mod, "CRITERIA", entries)
    code, out, _ = run_cli(["verify", "all"])
    assert code == 4
    assert out.splitlines() == ["9 halmos: PASS [checked 50]", "11 broken: FAIL [checked 1]"]


def test_verify_unknown_sweep_refused():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "no-such-sweep"])
    assert exc.value.code == 2


def test_decompose_reports_byte_identical():
    _, sysout, _ = run_cli(["catalog", "build", "example:6"])
    code1, out1, _ = run_cli(["--json", "decompose", "-", "--seed", "3"], stdin_text=sysout)
    code2, out2, _ = run_cli(["--json", "decompose", "-", "--seed", "3"], stdin_text=sysout)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_script_entrypoint():
    proc = run_python(["-m", "relpos.cli", "--version"])
    assert proc.returncode == 0
    assert "relpos" in proc.stdout
