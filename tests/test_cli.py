"""Command line pipeline, file formats, determinism."""

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpforge import basisio
from svpforge.cli import main
from svpforge.csp import emit_csp, parse_csp
from svpforge.errors import SvpforgeError
from svpforge.reduction import derive_profile

from conftest import DATA, sparse_rows

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


def test_reduce_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.basis", tmp_path / "b.basis"
    run(capsys, "reduce", TOY1, "--out", str(a), *REDUCE_FLAGS)
    run(capsys, "reduce", TOY1, "--out", str(b), *REDUCE_FLAGS)
    assert a.read_bytes() == b.read_bytes()
    a_json = json.loads((tmp_path / "a.basis.json").read_text())
    b_json = json.loads((tmp_path / "b.basis.json").read_text())
    a_json.pop("basis_file"), b_json.pop("basis_file")
    assert a_json == b_json


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


def _edit_one_entry(basis, payload):
    basis.write_text(basis.read_text().replace("1000000", "999999", 1))


def _swap_two_rows(basis, payload):
    # rows 0 and 1 both belong to constraint 0, so each provenance entry
    # still names an accepted tuple
    rows = list(basisio.parse_basis(basis.read_text()))
    rows[0], rows[1] = rows[1], rows[0]
    basis.write_text(basisio.emit_basis(sparse_rows(rows), len(rows[0])))
    prov = payload["row_provenance"]
    prov[0], prov[1] = prov[1], prov[0]


def _drop_last_row(basis, payload):
    rows = basisio.parse_basis(basis.read_text())
    basis.write_text(basisio.emit_basis(sparse_rows(rows[:-1]), len(rows[0])))


def _drop_a_zero_from_each_row(basis, payload):
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


def _double_spaces(basis, payload):
    basis.write_text(basis.read_text().replace(" ", "  "))


def _sign_a_zero_in_a_run(basis, payload):
    # "-0" parses to the same integer, so only the layout differs
    text = basis.read_text()
    assert " 0 0 " in text
    basis.write_text(text.replace(" 0 0 ", " 0 -0 ", 1))


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_edit_one_entry, "basis row 0 is not row 0"),
        (_swap_two_rows, "basis row 0 is not row 0"),
        (_drop_last_row, "basis has 2 rows; the sidecar's reduction has 3"),
        (_drop_a_zero_from_each_row, "basis row 0 is not row 0"),
        (_double_spaces, "not laid out as emit_basis writes it"),
        (_sign_a_zero_in_a_run, "not laid out as emit_basis writes it"),
    ],
    ids=[
        "one-entry-edited",
        "rows-swapped-with-provenance",
        "row-dropped",
        "zero-column-dropped",
        "reformatted",
        "zero-in-run-signed",
    ],
)
def test_tampered_basis_exits_2(tmp_path, capsys, tamper, message):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    sidecar = tmp_path / "toy1.basis.json"
    payload = json.loads(sidecar.read_text())
    tamper(basis, payload)
    sidecar.write_text(json.dumps(payload, indent=2) + "\n")
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
    ],
    ids=["beta-zero-denominator", "beta-not-a-fraction", "p-not-an-integer"],
)
def test_bad_option_values_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_regularize_to_stdout(capsys):
    code, out, _ = run(
        capsys, "regularize", TOY1, "--duplication", "2", "--spread", "2", "--beta", "1/2"
    )
    assert code == 0
    assert out.startswith("csp 4 4 4 2")


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


def test_enumerate_huge_box_refuses_on_budget(tmp_path, capsys):
    # a radius past the leaf block's limit must stay lazy: the budget stops
    # the search before anything of size 2c+1 is built
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    tracemalloc.start()
    try:
        code, _, err = run(
            capsys, "enumerate", str(basis), "--box", "1000000000", "--budget", "1000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error: box enumeration exceeded 1000 nodes" in err
    assert peak < 5_000_000


def test_witness_bad_assignment_is_an_error(tmp_path, capsys):
    basis = tmp_path / "toy1.basis"
    run(capsys, "reduce", TOY1, "--out", str(basis), *REDUCE_FLAGS)
    code, _, err = run(capsys, "witness", str(basis), "--assignment", "0 1")
    assert code == 2
    assert "error:" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    names = [l.split()[1] for l in out.splitlines() if l.startswith("ok")]
    assert names == [
        "vandermonde-minors", "hadamard-gram", "holder-fuzz", "toy-pipeline",
        "kernel-differential", "kernel-support",
    ]
    assert "all checks passed" in out
