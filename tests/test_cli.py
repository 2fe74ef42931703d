"""Command line pipeline, file formats, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpforge import basisio, cli
from svpforge.cli import main
from svpforge.csp import MAX_VARIABLES, emit_csp, parse_csp
from svpforge.errors import SvpforgeError
from svpforge.reduction import derive_profile, reduce_csp

from conftest import DATA, sparse_rows

SRC = DATA.parent / "src"
TOY1 = str(DATA / "toy1.csp")
TOY_UNSAT = str(DATA / "toy_unsat.csp")

SIGMA3 = (
    "csp 2 2 2 3\n"
    "con 0 1\nacc 0 0\nacc 1 1\nacc 2 2\n"
    "con 0 1\nacc 0 1\nacc 1 2\nacc 2 0\n"
)

REDUCE_FLAGS = ["--p", "3", "--b-var", "1", "--b-x", "1", "--scale", "1000000"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", TOY1)
    assert code == 0
    assert "2 variables, 2 constraints" in out
    assert "regular with degree 2" in out


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csp"
    bad.write_text("csp 2 1 2 2\ncon 0 0\nacc 0 0\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err and "line" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.csp")
    assert code == 2
    assert "error:" in err


def test_validate_directory(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


def test_reduce_writes_basis_and_sidecar(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    code, out, _ = run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    assert code == 0
    assert "3 rows x 13 cols" in out
    assert basis.exists()
    sidecar = tmp_path / "toy1.basis.json"
    assert sidecar.exists()
    payload = json.loads(sidecar.read_text())
    assert payload["format"] == "svpforge-basis"
    assert payload["profile"]["prime"] == 67
    assert payload["profile"]["mode"] == "explicit"
    assert payload["threshold"] == {"nprime": 13, "p": 3}
    assert payload["shape"] == {"rows": 3, "cols": 13}
    # both files are pinned byte for byte
    assert hashlib.sha256(basis.read_bytes()).hexdigest() == (
        "643363777f1ca3171c1afceaaa01baeeb7a0d40988a20234d2cbdac6a423204c"
    )
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == (
        "0330624b57fe0fb144408d75e2e7642880bce11f53e4feecfc275ca3c27876f7"
    )


def test_reduce_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.basis", tmp_path / "b.basis"
    run(capsys, "reduce", TOY1, "--out", str(a), *REDUCE_FLAGS)
    run(capsys, "reduce", TOY1, "--out", str(b), *REDUCE_FLAGS)
    assert a.read_bytes() == b.read_bytes()
    a_json = json.loads((tmp_path / "a.basis.json").read_text())
    b_json = json.loads((tmp_path / "b.basis.json").read_text())
    a_json.pop("basis_file"), b_json.pop("basis_file")
    assert a_json == b_json


@pytest.mark.parametrize(
    "knobs,mode",
    [
        ([], "asymptotic-default"),
        (["--p", "3", "--seed", "5"], "asymptotic-default"),
        (["--b-var", "1"], "explicit"),
        (["--b-x", "1"], "explicit"),
        (["--scale", "1000000"], "explicit"),
        (["--prime", "67"], "explicit"),
    ],
)
def test_reduce_labels_the_mode_explicit_exactly_when_a_knob_is_given(
    tmp_path, capsys, knobs, mode
):
    basis = tmp_path / "toy1.basis"
    assert run(capsys, "reduce", TOY1, "--out", str(basis), *knobs)[0] == 0
    payload = json.loads((tmp_path / "toy1.basis.json").read_text())
    assert payload["profile"]["mode"] == mode


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", TOY1, "--out", "{dir}/out.basis", "--mode", "explicit"],
        ["extract", "{basis}", "--vector", "1 0 -1", "--mode", "exhaustive"],
    ],
)
def test_mode_is_not_an_option(fuzz_files, capsys, argv):
    # reduce labels the mode from the knobs given, extract from the
    # candidate count; neither takes it as an option
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**fuzz_files) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


HUGE_HEADER = f"csp {10**20} 1 2 2\ncon 0 1\nacc 0 0\n"


@pytest.mark.parametrize("command", ["validate", "reduce", "regularize"])
def test_a_huge_variable_count_is_refused_at_the_header(tmp_path, capsys, command):
    # ``degrees`` sizes a table from the header's N, so N is refused at the
    # header, with exit 2 and no traceback, asserts stripped or not
    csp = tmp_path / "huge.csp"
    csp.write_text(HUGE_HEADER)
    argv = [command, str(csp)]
    if command == "reduce":
        argv += ["--out", str(tmp_path / "out.basis")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: line 1: {10**20} variables exceed the limit of {MAX_VARIABLES}\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "svpforge.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
    assert not (tmp_path / "out.basis").exists()


@pytest.mark.parametrize("command", ["reduce", "regularize"])
@pytest.mark.parametrize(
    "header", [f"csp 1 0 {10**20} 2\n", f"csp 1 0 {10**20} 2\ns 1/2\n", "csp 2 0 2 2\n"]
)
def test_a_header_with_no_constraints_is_refused_at_once(tmp_path, capsys, header, command):
    # with no constraints nothing bounds the arity q: reduce refuses before
    # its row count m * sigma**q is formed, regularize before the default
    # beta's 64**(2q) is; exit 2 within the timeout, asserts stripped or not
    csp = tmp_path / "empty.csp"
    csp.write_text(header)
    argv = [command, str(csp)]
    if command == "reduce":
        argv += ["--out", str(tmp_path / "out.basis")]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "svpforge.cli", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    message = {
        "reduce": "error: the reduction needs at least one constraint\n",
        "regularize": "error: variable 0 occurs in no constraint\n",
    }[command]
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    assert run(capsys, *argv) == (2, "", message)
    assert not (tmp_path / "out.basis").exists()


def test_basis_round_trip(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    inst = basisio.load_instance(basis)
    assert inst.num_rows == 3 and inst.num_cols == 13
    assert inst.profile.scale == 10**6
    assert inst.row_provenance[0] == (0, (0, 0))
    # emit -> parse is the identity on the basis matrix
    assert basisio.parse_basis(basisio.emit_basis(inst.rows, inst.num_cols)) == inst.basis


def _reference_emit_basis(basis):
    """The emitter as first written: ``str`` of every entry."""
    lines = ["[" + " ".join(str(x) for x in row) + "]" for row in basis]
    return "[" + "\n".join(lines) + "\n]\n"


_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))


@st.composite
def _dense_bases(draw):
    width = draw(st.integers(0, 12))
    row = st.lists(_ENTRIES, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_dense_bases())
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
@example([[5, 0, 0, -7], [0, 0, 9, 0], [-1, 0, 0, 0]])
@example([[2**64 + 1, 0, -(2**65), 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 2**64], [3] + [0] * 7])
def test_emit_basis_matches_reference(rows):
    width = len(rows[0])
    expected = _reference_emit_basis(rows)
    assert basisio.emit_basis(sparse_rows(rows), width) == expected
    assert basisio.emit_basis([list(r) for r in sparse_rows(rows)], width) == expected
    # dense rows are reduced to their entries first
    assert basisio.emit_basis(rows) == expected


def test_parse_basis_errors():
    with pytest.raises(SvpforgeError):
        basisio.parse_basis("not a basis")
    with pytest.raises(SvpforgeError):
        basisio.parse_basis("[[1 2]\n[3]\n]")
    with pytest.raises(SvpforgeError):
        basisio.parse_basis("[[1 x]\n]")
    with pytest.raises(SvpforgeError):
        basisio.parse_basis("[[1 2] stray [3 4]]")
    with pytest.raises(SvpforgeError):
        basisio.parse_basis("[]")


def test_sidecar_mismatch_detected(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    payload = json.loads(sidecar.read_text())
    payload["row_provenance"][0] = [0, [0, 1]]  # tuple (0, 1) is not accepted
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")
    with pytest.raises(SvpforgeError):
        basisio.load_instance(basis)


@pytest.mark.parametrize(
    "key, value",
    [
        ("csp", None),
        ("profile", None),
        ("row_provenance", None),
        ("row_provenance", [0, 0, 0]),  # entries are not pairs
        ("row_provenance", [[0], [0], [1]]),  # entries lack their tuple
        ("csp", 7),
        ("csp", "csp 2 2 2 2\ncon 0 1\ncon 0 1\n"),  # accepts nothing: no basis
        # dotted keys set one profile field, None included (JSON null)
        ("profile.consistency_width", "1"),
        ("profile.scale", None),
        ("profile.soundness", 5),
        ("profile.prime", 7.0),
        ("profile.prime", 69),  # not prime
        ("profile.p", True),
        ("profile.mode", "fast"),
        ("profile.mode", "bogus"),
        ("profile.degree", 3),  # the embedded instance has degree 2
        ("profile.soundness", "1/2"),  # the embedded instance claims 1
    ],
)
def test_sidecar_schema_errors_exit_2(tmp_path, capsys, key, value):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    payload = json.loads(sidecar.read_text())
    if "." in key:
        outer, field = key.split(".")
        payload[outer][field] = value
    elif value is None:  # None deletes a top-level key
        del payload[key]
    else:
        payload[key] = value
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")
    with pytest.raises(SvpforgeError):
        basisio.load_instance(basis)
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("knob", ["p", "mode", "prime", "scale", "consistency_width", "support_width"])
def test_a_null_sidecar_knob_is_named(tmp_path, capsys, knob):
    # derive_profile reads None as "derive", so a null knob would be derived
    # and the rebuilt basis blamed; it is refused by name before the rebuild
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    payload = json.loads(sidecar.read_text())
    payload["profile"][knob] = None
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert (code, out, err) == (2, "", f"error: sidecar profile '{knob}' is missing or null\n")


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("threshold", "nprime", 99),
        ("gap_factor", "floor", 5),
        ("shape", None, {"rows": 1, "cols": 2}),
        ("col_spans", "spread", [0, 1]),
        ("seed", None, "7"),
        ("basis_file", None, 7),
    ],
    ids=["threshold", "gap_factor", "shape", "col_spans", "seed", "basis_file"],
)
def test_sidecar_field_edits_exit_2(tmp_path, capsys, key, field, value):
    # each edit keeps save_instance's layout, so only the value is wrong
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    payload = json.loads(sidecar.read_text())
    if field is None:
        payload[key] = value
    else:
        payload[key][field] = value
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")
    with pytest.raises(SvpforgeError, match=f"sidecar '{key}'"):
        basisio.load_instance(basis)
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"'{key}'" in err


def test_sidecar_relaid_out_is_refused(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    sidecar.write_text(json.dumps(json.loads(sidecar.read_text())))
    with pytest.raises(SvpforgeError, match="not laid out as save_instance writes it"):
        basisio.load_instance(basis)
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


def test_pair_renamed_together_still_loads(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, before, _ = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 0
    moved = tmp_path / "moved.basis"
    basis.rename(moved)
    (tmp_path / "toy1.basis.json").rename(tmp_path / "moved.basis.json")
    # the sidecar still names toy1.basis
    assert json.loads((tmp_path / "moved.basis.json").read_text())["basis_file"] == "toy1.basis"
    code, after, _ = run(capsys, "enumerate", str(moved), "--box", "1")
    assert code == 0
    assert after == before


def _edit_one_entry(basis, sidecar):
    basis.write_text(basis.read_text().replace("1000000", "999999", 1))


def _swap_two_rows(basis, sidecar):
    # rows 0 and 1 both belong to constraint 0, so each provenance entry
    # still names an accepted tuple
    rows = list(basisio.parse_basis(basis.read_text()))
    rows[0], rows[1] = rows[1], rows[0]
    basis.write_text(basisio.emit_basis(sparse_rows(rows), len(rows[0])))
    payload = json.loads(sidecar.read_text())
    prov = payload["row_provenance"]
    prov[0], prov[1] = prov[1], prov[0]
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")


def _drop_last_row(basis, sidecar):
    rows = basisio.parse_basis(basis.read_text())
    basis.write_text(basisio.emit_basis(sparse_rows(rows[:-1]), len(rows[0])))


def _drop_a_zero_from_each_row(basis, sidecar):
    # one column narrower: each row loses its last zero, which in row 0 is a
    # trailing one, so row 0 keeps its nonzero entries and only its width
    # tells it apart
    rows = basisio.parse_basis(basis.read_text())
    narrower = []
    for row in rows:
        j = max(k for k, x in enumerate(row) if x == 0)
        narrower.append(row[:j] + row[j + 1 :])
    assert sparse_rows(narrower)[0] == sparse_rows(rows)[0]
    basis.write_text(basisio.emit_basis(sparse_rows(narrower), len(rows[0]) - 1))


def _drop_closing_bracket(basis, sidecar):
    # every row is intact; only the outer pair is left open
    text = basis.read_text()
    basis.write_text(text[: -len("]\n")])


def _append_a_row(basis, sidecar):
    # a copy of the last row before the closing bracket
    text = basis.read_text()
    basis.write_text(text[: -len("]\n")] + text.splitlines(keepends=True)[-2] + "]\n")


def _append_a_newline(basis, sidecar):
    basis.write_text(basis.read_text() + "\n")


def _double_spaces(basis, sidecar):
    basis.write_text(basis.read_text().replace(" ", "  "))


def _sign_a_zero_in_a_run(basis, sidecar):
    # "-0" parses to the same integer, so only the layout differs
    text = basis.read_text()
    assert " 0 0 " in text
    basis.write_text(text.replace(" 0 0 ", " 0 -0 ", 1))


def _crlf(path):
    data = path.read_bytes()
    assert b"\r" not in data
    path.write_bytes(data.replace(b"\n", b"\r\n"))


def _basis_to_crlf(basis, sidecar):
    # every row parses to the same integers; only the newline bytes differ
    _crlf(basis)


def _sidecar_to_crlf(basis, sidecar):
    # JSON reads the same object; only the newline bytes differ
    _crlf(sidecar)


def _digit_outside_ascii(basis, sidecar):
    # ARABIC-INDIC DIGIT ONE, which int() reads as 1, in place of a spread 1
    text = basis.read_text()
    assert text.endswith(" 1]\n]\n")
    basis.write_bytes(text[: -len("1]\n]\n")].encode() + "\u0661]\n]\n".encode())


def _change_opening_bracket(basis, sidecar):
    text = basis.read_text()
    assert text.startswith("[[")
    basis.write_text("([" + text[2:])


def _invalid_utf8_in_basis(basis, sidecar):
    basis.write_bytes(basis.read_bytes().replace(b" 0 ", b" \xff ", 1))


def _non_ascii_in_sidecar(basis, sidecar):
    # a raw UTF-8 letter inside a JSON string, which json.dumps would escape
    text = sidecar.read_text()
    assert '"basis_file": "toy1.basis"' in text
    sidecar.write_bytes(text.replace("toy1.basis", "toy\u00e9.basis", 1).encode())


def _invalid_utf8_in_sidecar(basis, sidecar):
    sidecar.write_bytes(sidecar.read_bytes().replace(b"svpforge-basis", b"svpforge\xffbasis", 1))


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_edit_one_entry, "basis row 0 is not row 0"),
        (_swap_two_rows, "basis row 0 is not row 0"),
        (_drop_last_row, "basis has 2 rows; the sidecar's reduction has 3"),
        (_append_a_row, "basis has more than 3 rows; the sidecar's reduction has 3"),
        (_drop_a_zero_from_each_row, "basis row 0 is not row 0"),
        (_drop_closing_bracket, "unexpected text between basis rows"),
        (_append_a_newline, "not laid out as emit_basis writes it"),
        (_double_spaces, "not laid out as emit_basis writes it"),
        (_sign_a_zero_in_a_run, "not laid out as emit_basis writes it"),
        (_basis_to_crlf, "not laid out as emit_basis writes it"),
        (_change_opening_bracket, "^basis text is not laid out as emit_basis writes it$"),
        (_sidecar_to_crlf, "sidecar is not laid out as save_instance writes it"),
        (_digit_outside_ascii, "non-integer basis entry in row 2"),
        (_invalid_utf8_in_basis, "non-integer basis entry in row 0"),
        (_non_ascii_in_sidecar, "sidecar holds byte 0xc3 at offset"),
        (_invalid_utf8_in_sidecar, "sidecar holds byte 0xff at offset"),
    ],
    ids=[
        "one-entry-edited",
        "rows-swapped-with-provenance",
        "row-dropped",
        "row-appended",
        "zero-column-dropped",
        "closing-bracket-dropped",
        "newline-appended",
        "reformatted",
        "zero-in-run-signed",
        "basis-crlf",
        "opening-bracket-changed",
        "sidecar-crlf",
        "digit-outside-ascii",
        "invalid-utf8-in-basis",
        "non-ascii-in-sidecar",
        "invalid-utf8-in-sidecar",
    ],
)
def test_tampered_basis_exits_2(tmp_path, capsys, tamper, message):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    tamper(basis, tmp_path / "toy1.basis.json")
    with pytest.raises(SvpforgeError, match=message):
        basisio.load_instance(basis)
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


def test_short_basis_next_to_large_sidecar_is_refused(tmp_path, capsys):
    # 1024 constraints accepting all four tuples: a 4096-row basis of over
    # 10**7 cells, which a one-row file cannot be; refusing it must not
    # rebuild that basis first
    n = 1024
    text = f"csp {n} {n} 2 2\n" + "".join(
        f"con {i} {(i + 1) % n}\nacc 0 0\nacc 0 1\nacc 1 0\nacc 1 1\n" for i in range(n)
    )
    csp = parse_csp(text)
    prof = derive_profile(
        csp, p=3, mode="explicit", consistency_width=1, support_width=1, scale=10**6
    )
    assert 4 * n * prof.nprime >= 10**7
    basis = tmp_path / "big.basis"
    basis.write_text("[[1 2 3]\n]\n")
    (tmp_path / "big.basis.json").write_text(json.dumps({
        "format": basisio.FORMAT_NAME,
        "version": basisio.FORMAT_VERSION,
        "profile": basisio.profile_to_json(prof),
        "row_provenance": [],
        "csp": emit_csp(csp),
    }))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and not out
    assert err.startswith("error: basis file is too short")
    assert peak < 5_000_000


TRAILING_BYTES = "basis text is not laid out as emit_basis writes it: bytes follow its closing"


def test_oversized_basis_is_read_no_further_than_its_closing_bracket(tmp_path, capsys):
    # toy1's basis padded to a sparse 64 MB file: the read stops one byte
    # past the closing bracket, so the load stays small
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    os.truncate(basis, 64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(SvpforgeError, match=f"^{TRAILING_BYTES}"):
            basisio.load_instance(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    code, out, err = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 2 and not out
    assert err.startswith(f"error: {TRAILING_BYTES}") and "Traceback" not in err


def test_basis_grown_during_the_rebuild_is_read_no_further(tmp_path, capsys, monkeypatch):
    # the file passes the size check, then grows to 64 MB while the
    # reduction is rebuilt: the read stops one byte past the closing bracket
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    rebuild = basisio.reduce_csp

    def grow_then_rebuild(csp, prof):
        os.truncate(basis, 64 << 20)
        return rebuild(csp, prof)

    monkeypatch.setattr(basisio, "reduce_csp", grow_then_rebuild)
    tracemalloc.start()
    try:
        with pytest.raises(SvpforgeError, match=f"^{TRAILING_BYTES}"):
            basisio.load_instance(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_row_with_no_newline_is_read_no_further_than_one_row(tmp_path, capsys):
    # the last row loses its "]\n" and the outer bracket, and the file is
    # padded to a sparse 64 MB with no newline: naming the mismatch reads at
    # most one row's longest line
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    text = basis.read_bytes()
    assert text.endswith(b"]\n]\n")
    basis.write_bytes(text[: -len(b"]\n]\n")])
    os.truncate(basis, 64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(SvpforgeError, match="^unexpected text between basis rows$"):
            basisio.load_instance(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _ladder_256():
    """The cyclic ladder at N=256: a 1024 x 2561 basis, about 5 MB of text."""
    n = 256
    csp = parse_csp(f"csp {n} {2 * n} 2 2\n" + "".join(
        f"con {i} {(i + s) % n}\nacc 0 0\nacc 1 1\n" for s in (1, 2) for i in range(n)
    ))
    prof = derive_profile(
        csp, p=3, mode="explicit", consistency_width=1, support_width=1, scale=10**6
    )
    return reduce_csp(csp, prof)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_streams_the_basis_text(tmp_path):
    # the file is read one emitted piece at a time against the rebuilt rows,
    # so no full copy of its text is ever held
    out = _ladder_256()
    basis, _ = basisio.save_instance(out, tmp_path / "c256.basis")
    size = basis.stat().st_size
    assert size > 5_000_000
    loaded, peak = _traced_peak(lambda: basisio.load_instance(basis))
    assert loaded == out
    assert peak < size / 2


def test_last_row_tamper_is_refused_from_that_row_alone(tmp_path):
    # one entry of the last row edited: the mismatch is named from that
    # row's line, with no second reading or parse of the whole file
    out = _ladder_256()
    basis, _ = basisio.save_instance(out, tmp_path / "c256.basis")
    data = basis.read_bytes()
    last = data.rindex(b"\n[") + 1
    edited = data[last:].replace(b" 1 ", b" 2 ", 1)
    assert edited != data[last:]
    basis.write_bytes(data[:last] + edited)
    del data, edited
    r = len(out.rows) - 1
    tracemalloc.start()
    try:
        with pytest.raises(SvpforgeError, match=f"^basis row {r} is not row {r} of the sidecar's"):
            basisio.load_instance(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_save_streams_the_basis_text(tmp_path):
    # rows are written as they are emitted, so no full text is ever held
    out = _ladder_256()
    (basis, sidecar), peak = _traced_peak(
        lambda: basisio.save_instance(out, tmp_path / "c256.basis")
    )
    size = basis.stat().st_size
    assert size > 5_000_000
    assert peak < 0.25 * size
    assert basis.read_bytes() == basisio.emit_basis(out.rows, out.num_cols).encode()
    assert sidecar.read_text() == basisio.sidecar_text(out, "c256.basis")
    assert sorted(tmp_path.iterdir()) == [basis, sidecar]


@pytest.mark.parametrize("earlier_pair", [False, True])
@pytest.mark.parametrize("fail_at", ["basis-rows", "sidecar-file"])
def test_save_that_fails_partway_leaves_no_file(tmp_path, monkeypatch, fail_at, earlier_pair):
    out = _ladder_256()
    basis = tmp_path / "c256.basis"
    sidecar = tmp_path / "c256.basis.json"
    if earlier_pair:
        basis.write_bytes(b"earlier basis")
        sidecar.write_bytes(b"earlier sidecar")
    if fail_at == "basis-rows":
        # the write fails after 100 rows are written, as a full disk would
        pieces = basisio._basis_pieces

        def failing(rows, width):
            for k, piece in enumerate(pieces(rows, width)):
                if k == 100:
                    raise OSError(28, "No space left on device")
                yield piece

        monkeypatch.setattr(basisio, "_basis_pieces", failing)
    else:
        # the whole basis is written, then the sidecar's file cannot be made
        create = basisio._create_beside

        def failing(path):
            if path == sidecar:
                raise OSError(28, "No space left on device")
            return create(path)

        monkeypatch.setattr(basisio, "_create_beside", failing)
    with pytest.raises(OSError, match="No space left on device"):
        basisio.save_instance(out, basis)
    if earlier_pair:
        assert basis.read_bytes() == b"earlier basis"
        assert sidecar.read_bytes() == b"earlier sidecar"
        assert sorted(tmp_path.iterdir()) == [basis, sidecar]
    else:
        assert list(tmp_path.iterdir()) == []


def test_compile_and_check_commands_never_import_numpy(tmp_path):
    # NumPy is imported only where certification uses it; reduce and audit
    # on toy1 run without it
    basis = tmp_path / "toy1.basis"
    script = (
        "import sys\n"
        "from svpforge.cli import main\n"
        f"assert main(['reduce', {TOY1!r}, '--out', {str(basis)!r}, *{REDUCE_FLAGS!r}]) == 0\n"
        f"assert main(['audit', {str(basis)!r}, '--vector', '1 0 -1']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert '"max_abs": 1' in proc.stdout


def test_reduce_past_the_cell_budget_writes_nothing(tmp_path, capsys):
    # the cyclic ladder at N=2048: 4096 binary constraints with scopes
    # (i, i+1) and (i, i+2), each accepting (0, 0) and (1, 1), give an
    # 8192 x 20482 basis of 57,344 entries but over 167M cells, past
    # CELL_BUDGET, so neither the text nor the sidecar is written
    n = 2048
    scopes = [(i, (i + s) % n) for s in (1, 2) for i in range(n)]
    src = tmp_path / "c2048.csp"
    src.write_text(f"csp {n} {2 * n} 2 2\n" + "".join(
        f"con {a} {b}\nacc 0 0\nacc 1 1\n" for a, b in scopes
    ))
    basis = tmp_path / "c2048.basis"
    code, out, err = run(capsys, "reduce", str(src), "--out", str(basis))
    assert code == 2 and not out
    assert err.startswith("error: 8192 x 20482 basis exceeds budget 67108864 cells")
    assert list(tmp_path.iterdir()) == [src]


# ``audit --vector "1 0 -1"`` on toy1, byte for byte: keys in the report's
# field order, nested reports as objects, tuples as arrays
TOY1_AUDIT = """\
{
  "support": 2,
  "norm_power": 8,
  "max_abs": 1,
  "exceeds_threshold": false,
  "indicated_constraints": 2,
  "indicated_distinct_tuples": 2,
  "checks": [
    {
      "name": "small-support-blowup",
      "hypothesis": false,
      "conclusion": false,
      "details": {
        "support": 2,
        "support_width": 1
      }
    },
    {
      "name": "large-support-blowup",
      "hypothesis": true,
      "conclusion": false,
      "details": {
        "support": 2,
        "constraints": 2
      }
    },
    {
      "name": "constraint-concentration",
      "hypothesis": true,
      "conclusion": false,
      "details": {
        "indicated_constraints": 2,
        "constraints": 2
      }
    },
    {
      "name": "tuple-spread-blowup",
      "hypothesis": true,
      "conclusion": false,
      "details": {
        "indicated_distinct_tuples": 2,
        "variables": 2
      }
    }
  ],
  "facts": {
    "support_price_applicable": false,
    "support_price_holds": true,
    "block_gap_applicable": true,
    "block_gap_holds": true,
    "offending_blocks": []
  }
}
"""


def test_audit_stdout_pinned(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, out, err = run(capsys, "audit", str(basis), "--vector", "1 0 -1")
    assert (code, out, err) == (0, TOY1_AUDIT, "")


def test_witness_enumerate_extract_audit(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)

    code, out, _ = run(capsys, "witness", str(basis), "--assignment", "0 0")
    assert code == 0
    assert "witness: 1 0 -1" in out
    assert "image max-norm: 1" in out

    code, out, _ = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 0
    assert "minimum power: 8 (p=3, box 1)" in out
    assert "argmin: -1 0 1" in out
    assert "minimum power 8 <= threshold power 13" in out

    code, out, _ = run(capsys, "extract", str(basis), "--vector", "1 0 -1")
    assert code == 0
    assert "assignment: 0 0" in out
    assert "satisfied fraction: 1" in out

    code, out, _ = run(capsys, "audit", str(basis), "--vector", "1 0 -1")
    assert code == 0
    report = json.loads(out)
    assert report["norm_power"] == 8
    assert report["exceeds_threshold"] is False


def test_enumerate_separates_unsat(tmp_path, capsys):
    basis = tmp_path / "unsat.basis"
    run(capsys, "reduce", TOY_UNSAT, "--out", str(basis), *REDUCE_FLAGS)
    code, out, _ = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 0
    assert "minimum power: 32" in out
    assert "minimum power 32 > threshold power 13" in out


def _reduce_sigma3(tmp_path, capsys):
    """SIGMA3 reduced with REDUCE_FLAGS: its box-1 minimum at p=3, 240, is
    above the box-1 floor 16 * 2**3 = 128, so it is not certified."""
    csp, basis = tmp_path / "sigma3.csp", tmp_path / "sigma3.basis"
    csp.write_text(SIGMA3)
    run(capsys, "reduce", str(csp), "--out", str(basis), *REDUCE_FLAGS)
    return basis


def test_enumerate_says_whether_the_minimum_is_certified(tmp_path, capsys):
    toy1, unsat = tmp_path / "toy1.basis", tmp_path / "unsat.basis"
    run(capsys, "reduce", TOY1, "--out", str(toy1), *REDUCE_FLAGS)
    run(capsys, "reduce", TOY_UNSAT, "--out", str(unsat), *REDUCE_FLAGS)
    sigma3 = _reduce_sigma3(tmp_path, capsys)
    lines = {
        (basis.name, box): run(capsys, "enumerate", str(basis), "--box", box)[1].splitlines()
        for basis, box in ((toy1, "1"), (unsat, "1"), (unsat, "2"), (sigma3, "1"))
    }
    want = {
        ("toy1.basis", "1"): "lattice minimum: certified, every vector outside box 1 has power >= 32",
        ("unsat.basis", "1"): "lattice minimum: certified, every vector outside box 1 has power >= 32",
        ("unsat.basis", "2"): "lattice minimum: certified, every vector outside box 2 has power >= 108",
        ("sigma3.basis", "1"): "lattice minimum: not certified, every vector outside box 1 "
        "has power >= 128 < 240; box 2 would certify",
    }
    for key, out in lines.items():
        # the line comes after the backend line; the box-only note follows
        # the verdict only when the minimum is not certified
        assert out[3] == want[key]
        fields = ["minimum power", "argmin", "backend", "lattice minimum", "verdict"]
        if key == ("sigma3.basis", "1"):
            fields.append("note")
        assert [line.split(":")[0] for line in out] == fields
    # below p = 2 no floor is known, and nothing is printed
    _, out, _ = run(capsys, "enumerate", str(toy1), "--box", "1", "--p", "1")
    assert not [line for line in out.splitlines() if line.startswith("lattice minimum")]


def test_enumerate_notes_the_box_only_when_uncertified(tmp_path, capsys):
    toy1 = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(toy1), *REDUCE_FLAGS)
    sigma3 = _reduce_sigma3(tmp_path, capsys)
    note = "note: minimum over the coefficient box only, not a certified lattice minimum"
    _, out, _ = run(capsys, "enumerate", str(toy1), "--box", "1")
    assert "lattice minimum: certified" in out and "note:" not in out
    _, out, _ = run(capsys, "enumerate", str(sigma3), "--box", "1")
    assert "lattice minimum: not certified" in out and out.splitlines()[-1] == note
    # p = 1 has no floor, so nothing certifies the box minimum
    _, out, _ = run(capsys, "enumerate", str(toy1), "--box", "1", "--p", "1")
    assert "lattice minimum:" not in out and out.splitlines()[-1] == note


def test_regularize_command(tmp_path, capsys):
    out_path = tmp_path / "reg.csp"
    lineage_path = tmp_path / "reg.lineage.json"
    code, out, _ = run(
        capsys,
        "regularize",
        TOY_UNSAT,
        "--duplication", "2",
        "--spread", "2",
        "--beta", "1/2",
        "--out", str(out_path),
        "--lineage", str(lineage_path),
    )
    assert code == 0
    assert "constraints -> 4" in out
    reg = parse_csp(out_path.read_text())
    assert reg.num_constraints == 4 and reg.arity == 4
    lineage = json.loads(lineage_path.read_text())
    assert lineage["duplication"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["regularize", TOY1, "--beta", "1/0"],
        ["regularize", TOY1, "--beta", "x"],
        ["reduce", TOY1, "--out", "unused.basis", "--p", "foo"],
        ["reduce", TOY1, "--out", "unused.basis", "--scale", "1_000_000"],
        ["enumerate", "unused.basis", "--box", "\uff11"],
        ["regularize", TOY1, "--beta", "1_0/2_0"],
        ["regularize", TOY1, "--beta", "\uff11/2"],
        ["reduce", TOY1, "--out", "unused.basis", "--p", "\uff13"],
        ["selftest", "--seed", "1_0"],
    ],
    ids=[
        "beta-zero-denominator",
        "beta-not-a-fraction",
        "p-not-an-integer",
        "scale-with-underscores",
        "box-full-width",
        "beta-with-underscores",
        "beta-full-width",
        "p-full-width",
        "seed-with-underscore",
    ],
)
def test_bad_option_values_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a value wrongly accepted writes no file here
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_a_composite_prime_is_refused(tmp_path, capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin for every
    # base 2..37; base 41 refuses it
    code, out, err = run(
        capsys, "reduce", TOY1, "--out", str(tmp_path / "x.basis"), *REDUCE_FLAGS,
        "--prime", "318665857834031151167461",
    )
    assert code == 2 and out == ""
    assert err == "error: 318665857834031151167461 is not prime\n"
    assert not (tmp_path / "x.basis").exists()


_PAST_THE_TEST = "past the primality test's range n < 3317044064679887385961981"


@pytest.mark.parametrize("case", ["default-prime", "explicit-prime", "sidecar-prime"])
def test_a_prime_past_the_primality_test_exits_2(tmp_path, capsys, case):
    # Miller-Rabin decides n < psi_13 only; a prime that large, however it
    # comes in, is refused as a profile error naming that limit, asserts
    # stripped or not
    basis = tmp_path / "x.basis"
    if case == "default-prime":
        # 10**11 symbols at arity 2: 10**22 candidate rows, a default prime >= 10**44
        src = tmp_path / "huge.csp"
        src.write_text("csp 2 1 2 100000000000\ncon 0 1\nacc 0 0\n")
        argv = ["reduce", str(src), "--out", str(basis)]
        message = (
            f"the default prime, at least the square of the {10**22} candidate rows "
            f"(M * SIGMA**q), is {_PAST_THE_TEST}; pass --prime"
        )
    elif case == "explicit-prime":
        argv = ["reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS, "--prime", str(10**25)]
        message = f"prime {10**25} is {_PAST_THE_TEST}"
    else:
        run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
        sidecar = tmp_path / "x.basis.json"
        payload = json.loads(sidecar.read_text())
        payload["profile"]["prime"] = 10**25
        sidecar.write_text(json.dumps(payload, indent=2) + "\n")
        argv = ["enumerate", str(basis), "--box", "1"]
        message = f"sidecar profile is invalid: prime {10**25} is {_PAST_THE_TEST}"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "svpforge.cli", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    expected = (2, "", f"error: {message}\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert run(capsys, *argv) == expected
    assert basis.exists() == (case == "sidecar-prime")


@pytest.mark.parametrize("zeros", [400, 1000])
@pytest.mark.parametrize("p", ["inf", "3"])
def test_a_tiny_soundness_reduces_quickly_or_exits_2(tmp_path, capsys, zeros, p):
    # soundness 1/10**zeros: float(1/soundness) overflowed at 400 zeros, and
    # the gap factor's floor counted up to 10**10 at 1,000
    src = tmp_path / "tiny.csp"
    header = "csp 2 2 2 2\n"
    src.write_text(Path(TOY1).read_text().replace(header, f"{header}s 1/1{'0' * zeros}\n"))
    start = time.perf_counter()
    code, _, err = run(capsys, "reduce", str(src), "--out", str(tmp_path / "x.basis"), "--p", p)
    assert time.perf_counter() - start < 1
    assert code == 0 or (code == 2 and err.startswith("error: ")), err


def test_regularize_to_stdout(capsys):
    code, out, _ = run(
        capsys, "regularize", TOY1, "--duplication", "2", "--spread", "2", "--beta", "1/2"
    )
    assert code == 0
    assert out.startswith("csp 4 4 4 2")


def test_regularize_has_no_strategy_option(capsys):
    # one certified search makes every disperser; the option is gone
    with pytest.raises(SystemExit) as exc:
        main(["regularize", TOY1, "--strategy", "exhaustive-search"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err


def test_regularize_without_a_certified_graph_exits_2(capsys):
    # toy1's variables have degree 2; spread 3 and right degree 1 ask for a
    # (2, 6) graph, and at beta 1/2 none certifies
    code, out, err = run(
        capsys, "regularize", TOY1, "--duplication", "1", "--spread", "3",
        "--beta", "1/2", "--right-degree", "1",
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: no bi-regular graph on (2, 6)")


def test_regularize_past_the_recursion_limit_refuses_on_budget(tmp_path, capsys):
    # a variable of degree 1200: one search level per left vertex, and a
    # certification of C(1200, 600) subsets at the end
    src = tmp_path / "deg1200.csp"
    src.write_text("csp 2 1200 2 2\n" + "con 0 1\nacc 0 0\n" * 1200)
    code, out, err = run(capsys, "regularize", str(src), "--spread", "1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: disperser search on (1200, 1200) exceeded")
    assert "Traceback" not in err


def test_alphabet_padding_end_to_end(tmp_path, capsys):
    src = tmp_path / "sigma3.csp"
    src.write_text(SIGMA3)
    basis = tmp_path / "sigma3.basis"
    code, out, _ = run(capsys, "reduce", str(src), "--out", str(basis), "--p", "inf")
    assert code == 0
    assert "6 rows x 46 cols" in out
    inst = basisio.load_instance(basis)
    assert inst.profile.padded_alphabet == 4
    assert inst.profile.spread_cols_per_constraint == 16
    code, out, _ = run(capsys, "enumerate", str(basis), "--box", "1")
    assert code == 0
    assert "minimum power:" in out


def _enumerate_at_its_own_budget(capsys, basis, *flags):
    """``enumerate``'s output and state count: the count passes as the
    budget with the same output, and one fewer refuses."""
    code, out, err = run(capsys, "enumerate", basis, *flags)
    assert code == 0 and err == ""
    states = int(out.split("states: ")[1].split()[0])
    assert run(capsys, "enumerate", basis, *flags, "--budget", str(states)) == (0, out, "")
    code, _, err = run(capsys, "enumerate", basis, *flags, "--budget", str(states - 1))
    assert code == 2
    assert err.startswith(f"error: box enumeration exceeded {states - 1} states")
    return out, states


def test_enumerate_huge_box_refuses_on_budget(tmp_path, capsys):
    # toy1's first row has only open columns, whose reach grows with c, so
    # its bound is 0 at every digit and each of -c..-1 takes a state: 2c + 3
    # states in all.  A large box finishes with the box-1 minimum; a huge
    # radius must stay lazy: the budget stops the search before anything
    # of size 2c+1 is built
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    out, states = _enumerate_at_its_own_budget(capsys, str(basis), "--box", "1000")
    assert "minimum power: 8 (p=3, box 1000)" in out and "argmin: -1 0 1" in out
    assert states == 2 * 1000 + 3
    tracemalloc.start()
    try:
        code, _, err = run(
            capsys, "enumerate", str(basis), "--box", "1000000000", "--budget", "1000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error: box enumeration exceeded 1000 states" in err
    assert peak < 5_000_000


def test_enumerate_refuses_a_box_of_radius_zero(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    assert run(capsys, "enumerate", str(basis), "--box", "0") == (
        2, "", "error: box radius must be at least 1\n"
    )


def test_save_refuses_an_instance_that_accepts_no_tuple(tmp_path):
    csp = parse_csp("csp 2 1 2 2\ncon 0 1\n")
    out = reduce_csp(csp, derive_profile(
        csp, p=3, consistency_width=1, support_width=1, scale=10**6
    ))
    with pytest.raises(SvpforgeError, match="^refusing to emit an empty basis$"):
        basisio.save_instance(out, tmp_path / "empty.basis")
    assert list(tmp_path.iterdir()) == []


def _cyclic_csp(n):
    """Scopes (i, i+1) and (i, i+2) mod n, each accepting (0, 0) and (1, 1):
    2n constraints and 4n basis rows."""
    lines = [f"csp {n} {2 * n} 2 2"]
    for step in (1, 2):
        for i in range(n):
            lines += [f"con {i} {(i + step) % n}", "acc 0 0", "acc 1 1"]
    return "\n".join(lines) + "\n"


def test_enumerate_deeper_than_the_recursion_limit_refuses_on_budget(tmp_path, capsys):
    src = tmp_path / "c256.csp"
    src.write_text(_cyclic_csp(256))
    basis = tmp_path / "c256.basis"
    flags = ["--p", "inf", "--b-var", "1", "--b-x", "1", "--scale", "1000000"]
    code, out, _ = run(capsys, "reduce", str(src), "--out", str(basis), *flags)
    assert code == 0 and "1024 rows" in out
    # every nonzero image has max-norm at least 1; the argmin is the
    # all-zero assignment's witness, -1 on the (0, 0) row of each step-1
    # constraint and +1 on that of each step-2 constraint
    out, states = _enumerate_at_its_own_budget(capsys, str(basis), "--box", "1")
    assert "minimum power: 1 (p=inf, box 1)" in out
    assert f"argmin: {' '.join(['-1 0'] * 256 + ['1 0'] * 256)}\n" in out
    assert states < 5000
    code, _, err = run(capsys, "enumerate", str(basis), "--box", "1", "--budget", "1000")
    assert code == 2
    assert err.startswith("error: box enumeration exceeded 1000 states")
    assert "Traceback" not in err


def test_consecutive_calls_print_what_fresh_calls_print(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    calls = [
        ["enumerate", str(basis), "--box", "2"],
        ["enumerate", str(basis), "--box", "1"],
        ["enumerate", str(basis)],
        ["witness", str(basis), "--assignment", "0 0"],
        ["audit", str(basis), "--vector", "1 0 -1"],
        ["enumerate", str(basis), "--p", "inf"],
    ]
    # one parser serves every call of a process
    cli.build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert "box 2)" in reused[0][1] and "box 1)" in reused[1][1]
    assert reused[1] == reused[2]  # the default box is 1 again


def test_witness_bad_assignment_is_an_error(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, _, err = run(capsys, "witness", str(basis), "--assignment", "0 1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "text", ["con 0 1_0", "csp 1_1 2 2 2", "s 1/1_0", "con 0 \uff11"]
)
def test_csp_text_outside_ascii_or_with_underscores_exits_2(tmp_path, capsys, text):
    # each line replaces its directive in a valid instance; int() or
    # Fraction() would read it
    lines = ["csp 2 1 2 2", "s 1/2", "con 0 1", "acc 0 0"]
    lines[{"csp": 0, "s": 1, "con": 2}[text.split()[0]]] = text
    path = tmp_path / "bad.csp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert "bad token" in err and "directives are ASCII, without '_'" in err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("witness", "--assignment", "0 0_0"),
        ("witness", "--assignment", "0 \uff10"),
        ("extract", "--vector", "1 0 -1_0"),
        ("extract", "--vector", "1 0 -\uff11"),
    ],
)
def test_integer_lists_outside_ascii_or_with_underscores_exit_2(
    tmp_path, capsys, command, option, value
):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, out, err = run(capsys, command, str(basis), option, value)
    assert code == 2 and out == ""
    assert err == f"error: not an ASCII integer list: {value!r}\n"


def test_witness_budget_refusal_without_asserts(tmp_path, capsys):
    # python -O strips assert statements; the refusal must not rest on one
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "svpforge.cli", "witness", str(basis),
         "--assignment", "0 0", "--budget", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: witness search exceeded 1 states\n"
    assert not proc.stdout


@pytest.mark.parametrize(
    "command, option, value",
    [("witness", "--assignment", "0 0"), ("enumerate", "--box", "1")],
)
def test_negative_budget_exits_2(tmp_path, capsys, command, option, value):
    # no search can enter fewer than 0 states: a negative budget is a bad
    # value, not a search that exceeded it
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, out, err = run(capsys, command, str(basis), option, value, "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: budget must be at least 0\n"


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_regularize_refuses_a_right_degree_below_1(capsys, degree):
    code, out, err = run(capsys, "regularize", TOY1, "--right-degree", degree)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: right degree must be at least 1"


# Option values of every kind: zero, negative, small, huge, fractional and
# malformed.  Vectors and assignments are drawn from their own lists.
_FUZZ_VALUES = [
    "0", "-1", "-3", "1", "2", "3", str(10**18), "1.5", "1/2", "x", "", "inf",
    "1_0", "\uff11", "1_0/2", "\uff11/\uff12",
]
_FUZZ_VECTORS = ["1 0 -1", "0 0 0", "0 0", "1", "1 x", "", f"{10**18} 0 -1", "1.5 0 0"]
# Each subcommand's positional arguments and required options (a value of
# None is drawn), then its optional options.  enumerate always gets a small
# budget: a huge box under a huge budget is a search that long by request.
_FUZZ_COMMANDS = {
    "validate": (["{csp}"], []),
    "regularize": (
        ["{csp}", "--out", "{dir}/reg.csp", "--lineage", "{dir}/reg.json"],
        ["--duplication", "--spread", "--beta", "--right-degree"],
    ),
    "reduce": (
        ["{csp}", "--out", "{dir}/out.basis"],
        ["--p", "--b-var", "--b-x", "--scale", "--prime", "--seed"],
    ),
    "witness": (["{basis}", "--assignment", None], ["--budget"]),
    "enumerate": (["{basis}", "--budget", "1000"], ["--box", "--p"]),
    "extract": (["{basis}", "--vector", None], ["--seed"]),
    "audit": (["{basis}", "--vector", None], []),
    "selftest": ([], ["--seed"]),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    fixed, optional = _FUZZ_COMMANDS[command]
    argv = [command]
    for arg in fixed:
        argv.append(draw(st.sampled_from(_FUZZ_VECTORS)) if arg is None else arg)
    for option in optional:
        if draw(st.booleans()):
            argv += [option, draw(st.sampled_from(_FUZZ_VALUES))]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    basis = work / "toy1.basis"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS]) == 0
    return {"csp": TOY1, "basis": str(basis), "dir": str(work)}


@settings(max_examples=150, deadline=None)
@given(_cli_argv())
@example(["regularize", "{csp}", "--right-degree", "0"])
def test_every_option_value_exits_0_or_2(fuzz_files, argv):
    # no option value of any subcommand may end in a traceback: each run
    # exits 0, or 2 with an error (argparse's own usage errors included)
    argv = [arg.format(**fuzz_files) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())


@pytest.mark.parametrize(
    "argv",
    [
        ["regularize", TOY1, "--right-degree", "0"],
        ["regularize", TOY1, "--right-degree", "-3"],
        ["regularize", TOY1, "--duplication", str(10**18)],
        ["regularize", TOY1, "--spread", str(10**18)],
        ["reduce", TOY1, "--out", "{dir}/out.basis", "--p", str(10**18)],
        ["enumerate", "{basis}", "--p", str(10**18), "--budget", "1000"],
        ["enumerate", "{basis}", "--box", str(10**18), "--budget", "1000"],
        ["witness", "{basis}", "--assignment", "1.5 0"],
        ["extract", "{basis}", "--vector", "1 0 -1", "--seed", "-3"],
        ["selftest", "--seed", str(10**18)],
    ],
)
def test_option_values_without_asserts(fuzz_files, argv):
    # python -O strips assert statements; no exit may rest on one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "svpforge.cli", *(a.format(**fuzz_files) for a in argv)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    names = [l.split()[1] for l in out.splitlines() if l.startswith("ok")]
    assert names == [
        "vandermonde-minors", "hadamard-gram", "holder-fuzz", "toy-pipeline",
        "kernel-differential", "kernel-support",
    ]
    assert "all checks passed" in out
