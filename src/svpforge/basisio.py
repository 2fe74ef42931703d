"""Text formats for lattice bases and their JSON sidecars.

A basis file holds one bracketed row per line inside an outer bracket pair
(the layout common to lattice tools):

    [[1 0 3]
    [0 2 -1]
    ]

The sidecar is a JSON object describing the reduction output: the profile,
the embedded source instance text, row provenance, and column spans.  All
rationals are serialized as "numerator/denominator" strings.  It is written
by ``sidecar_text``, one fixed template whose bytes are those of
``json.dumps(sidecar_json(...), indent=2)``; ``sidecar_json`` builds the
same object as a dict, the oracle for the template and what a load's
mismatch message is found from.

The sidecar's instance and profile knobs fix both files: ``load_instance``
rebuilds the reduction and accepts the pair only when each file is, byte for
byte, what ``save_instance`` writes for it (the sidecar's ``basis_file`` and
``seed`` aside), reading the basis file once, forward, no further than the
first row that differs.  Both files are ASCII, compared as bytes, never
decoded with newline translation: CRLF newlines or a non-ASCII byte are refused.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .csp import CspInstance, emit_csp, parse_csp
from .errors import ProfileError, SvpforgeError
from .reduction import (
    INFINITY,
    GapSvpInstance,
    ReductionProfile,
    check_cell_budget,
    derive_profile,
    reduce_csp,
)

FORMAT_NAME = "svpforge-basis"
FORMAT_VERSION = 1

_ROW_RE = re.compile(r"\[([^\[\]]*)\]")

# the write unit of save_instance and the read unit of load_instance; open()'s
# default is st_blksize (often 4096 bytes), about one call per row of a large basis
WRITE_BUFFER = 64 * 1024


def emit_basis(rows: Sequence[Sequence], width: Optional[int] = None) -> str:
    """The basis as text: one bracketed row per line, entries separated by
    single spaces, inside an outer bracket pair.

    ``rows`` holds each row's (column, value) entries, columns strictly
    ascending and below ``width``, values nonzero, as ``GapSvpInstance.rows``
    does.  The text is the same as joining ``str`` of every entry of the
    dense rows; it is the ``_basis_pieces`` that ``save_instance`` writes and
    ``load_instance`` reads against, joined and decoded.  Called without a
    width, ``rows`` are dense rows of one width, every entry listed, and are
    reduced to their entries first.  A basis of more than ``CELL_BUDGET`` rows x
    width cells is refused before any text is built, which bounds what
    ``save_instance`` writes and ``load_instance`` reads.
    """
    if width is None and rows:
        width = len(rows[0])
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    return "".join(map(bytes.decode, _basis_pieces(rows, width)))


def _basis_pieces(rows: Sequence[Sequence], width: int) -> Iterator[bytes]:
    """The basis file's bytes in pieces: ``b"["``, one line per row, then
    ``b"]\\n"``.  An empty basis and one past the cell budget are refused
    here, before the first piece is made."""
    if not rows:
        raise SvpforgeError("refusing to emit an empty basis")
    check_cell_budget(len(rows), width)
    return _row_bytes(rows, width)


def _row_bytes(rows: Sequence[Sequence], width: int) -> Iterator[bytes]:
    # each run of k zeros is the slice zeros[:2*k] of one b"0 " * width, and
    # each distinct value's b"%d " is built once
    zeros = b"0 " * width
    text = {}
    yield b"["
    for entries in rows:
        parts = [b"["]
        start = 0
        for j, x in entries:
            if j != start:
                parts.append(zeros[: 2 * (j - start)])
            piece = text.get(x)
            if piece is None:
                piece = text[x] = b"%d " % x
            parts.append(piece)
            start = j + 1
        if start < width:
            parts.append(zeros[: 2 * (width - start) - 1])
        elif start:
            parts[-1] = parts[-1][:-1]  # the space after a nonzero last entry
        parts.append(b"]\n")
        yield b"".join(parts)
    yield b"]\n"


def parse_basis(text: str) -> tuple[tuple[int, ...], ...]:
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise SvpforgeError("basis text must be wrapped in an outer [ ... ] pair")
    inner = stripped[1:-1]
    rows = []
    tail = []
    pos = 0
    for m in _ROW_RE.finditer(inner):
        tail.append(inner[pos : m.start()])
        pos = m.end()
        try:
            rows.append(tuple(int(tok) for tok in m.group(1).split()))
        except ValueError:
            raise SvpforgeError(f"non-integer basis entry in row {len(rows)}") from None
    tail.append(inner[pos:])
    if any(part.strip() for part in tail):
        raise SvpforgeError("unexpected text between basis rows")
    if not rows:
        raise SvpforgeError("basis text holds no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or 0 in widths:
        raise SvpforgeError("basis rows must share one positive width")
    return tuple(rows)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _p_json(p: Optional[int]):
    return INFINITY if p is None else p


def _p_from_json(value) -> Optional[int]:
    if value == INFINITY:
        return None
    if type(value) is int and value >= 1:
        return value
    raise SvpforgeError(f"bad norm index {value!r} in sidecar")


def profile_to_json(prof: ReductionProfile) -> dict:
    return {
        "p": _p_json(prof.p),
        "prime": prof.prime,
        "scale": prof.scale,
        "consistency_width": prof.consistency_width,
        "support_width": prof.support_width,
        "mode": prof.mode,
        "soundness": _frac_str(prof.soundness),
        "num_vars": prof.num_vars,
        "num_constraints": prof.num_constraints,
        "arity": prof.arity,
        "alphabet_size": prof.alphabet_size,
        "degree": prof.degree,
        "padded_alphabet": prof.padded_alphabet,
    }


_KNOBS = ("prime", "scale", "consistency_width", "support_width")


def profile_from_json(d: dict, csp: CspInstance) -> ReductionProfile:
    """The profile a sidecar's six knobs give for ``csp``.

    Only p, mode, prime, scale, consistency_width and support_width are read,
    and ``ReductionProfile`` checks them, their types included; a null knob
    is refused here, since ``derive_profile`` would derive it.  The stored
    soundness and shape fields are checked by ``load_instance``, which
    compares the whole sidecar with the one the rebuilt reduction gives.
    """
    if not isinstance(d, dict):
        raise SvpforgeError("sidecar profile must be a JSON object")
    missing = [k for k in ("p", "mode", *_KNOBS) if d.get(k) is None]
    if missing:
        raise SvpforgeError(f"sidecar profile {missing[0]!r} is missing or null")
    p = _p_from_json(d["p"])
    try:
        return derive_profile(csp, p=p, mode=d["mode"], **{key: d[key] for key in _KNOBS})
    except ProfileError as exc:
        raise SvpforgeError(f"sidecar profile is invalid: {exc}") from None


def sidecar_json(
    inst: GapSvpInstance, basis_file: str, seed: Optional[int] = None
) -> dict:
    """The sidecar as a JSON object, keys in file order: the oracle that
    ``sidecar_text`` writes and that ``load_instance`` names a mismatch by."""
    prof = inst.profile
    gap = prof.gap_factor
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "basis_file": basis_file,
        "profile": profile_to_json(prof),
        "threshold": {"nprime": prof.nprime, "p": _p_json(prof.p)},
        "gap_factor": {
            "base": _frac_str(gap.base),
            "exponent": _frac_str(gap.exponent),
            "floor": gap.floor(),
            "approx": gap.as_float(),
        },
        "shape": {"rows": inst.num_rows, "cols": inst.num_cols},
        "col_spans": {
            "consistency": list(inst.consistency_span),
            "support": list(inst.support_span),
            "spread": list(inst.spread_span),
        },
        "row_provenance": [[t, list(tup)] for t, tup in inst.row_provenance],
        "csp": emit_csp(inst.csp),
        "seed": seed,
    }


def sidecar_text(inst: GapSvpInstance, basis_file: str, seed: Optional[int] = None) -> str:
    """The sidecar file: ``json.dumps(sidecar_json(...), indent=2) + "\\n"``.

    The schema is fixed, so the whole file is one template in
    ``json.dumps(indent=2)``'s layout.  Strings go through
    ``json.encoder.encode_basestring_ascii``, the escaping ``json.dumps``
    uses, the ``approx`` float through ``float.__repr__``, integers through
    ``str``, and a missing seed is ``null``.  The one large field,
    ``row_provenance``, is one ``[t, [a, b, ...]]`` pair of integers per
    row, at 4, 6 and 8 spaces; a row's text after its constraint index
    depends only on its tuple, so each distinct tuple's tail is built once
    per call.
    """
    prof = inst.profile
    gap = prof.gap_factor
    p = '"inf"' if prof.p is None else prof.p
    nprime = prof.nprime
    support = prof.consistency_cols
    spread = support + prof.support_cols
    sep = ",\n        "
    tup_text = {}
    for _, tup in inst.row_provenance:
        if tup not in tup_text:
            tup_text[tup] = f",\n      [\n        {sep.join(map(str, tup))}\n      ]\n    ]"
    rows = ",\n".join([f"    [\n      {t}{tup_text[tup]}" for t, tup in inst.row_provenance])
    provenance = f"[\n{rows}\n  ]" if rows else "[]"
    return f"""{{
  "format": "{FORMAT_NAME}",
  "version": {FORMAT_VERSION},
  "basis_file": {_json_str(basis_file)},
  "profile": {{
    "p": {p},
    "prime": {prof.prime},
    "scale": {prof.scale},
    "consistency_width": {prof.consistency_width},
    "support_width": {prof.support_width},
    "mode": {_json_str(prof.mode)},
    "soundness": "{_frac_str(prof.soundness)}",
    "num_vars": {prof.num_vars},
    "num_constraints": {prof.num_constraints},
    "arity": {prof.arity},
    "alphabet_size": {prof.alphabet_size},
    "degree": {prof.degree},
    "padded_alphabet": {prof.padded_alphabet}
  }},
  "threshold": {{
    "nprime": {nprime},
    "p": {p}
  }},
  "gap_factor": {{
    "base": "{_frac_str(gap.base)}",
    "exponent": "{_frac_str(gap.exponent)}",
    "floor": {gap.floor()},
    "approx": {gap.as_float()!r}
  }},
  "shape": {{
    "rows": {len(inst.rows)},
    "cols": {nprime}
  }},
  "col_spans": {{
    "consistency": [
      0,
      {support}
    ],
    "support": [
      {support},
      {spread}
    ],
    "spread": [
      {spread},
      {nprime}
    ]
  }},
  "row_provenance": {provenance},
  "csp": {_json_str(emit_csp(inst.csp))},
  "seed": {"null" if seed is None else seed}
}}
"""


def save_instance(
    inst: GapSvpInstance, basis_path, seed: Optional[int] = None
) -> tuple[Path, Path]:
    """Write the basis and its sidecar; the sidecar sits next to the basis.

    The basis file is the bytes of ``emit_basis`` of the rows and the sidecar
    the bytes of ``sidecar_text``, the fixed-schema writer that gives
    ``json.dumps(indent=2)``.  An empty basis or one past the cell budget is
    refused before anything is written.  The basis is streamed one row at a
    time through a write buffer of ``WRITE_BUFFER`` bytes (64 KiB), so its
    full text is never held and the disk sees one write per 64 KiB, not one
    per row; each file goes to a temporary file beside its target and is
    moved into place once both are written.
    A failure removes the temporary files; one before the first move, such
    as a failed write, leaves the targets as they were.
    """
    basis_path = Path(basis_path)
    sidecar_path = basis_path.with_name(basis_path.name + ".json")
    pieces = _basis_pieces(inst.rows, inst.num_cols)
    sidecar = sidecar_text(inst, basis_path.name, seed).encode("ascii")
    temps = []
    try:
        for path, chunks in ((basis_path, pieces), (sidecar_path, (sidecar,))):
            tmp, f = _create_beside(path)
            temps.append(tmp)
            with f:
                f.writelines(chunks)
        os.replace(temps[0], basis_path)
        os.replace(temps[1], sidecar_path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    return basis_path, sidecar_path


def _create_beside(path: Path):
    """A new hidden file in ``path``'s directory, opened for binary writing
    through a ``WRITE_BUFFER``-byte buffer, and its path."""
    for k in itertools.count():
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{k}.tmp")
        try:
            return tmp, open(tmp, "xb", buffering=WRITE_BUFFER)
        except FileExistsError:
            pass


def load_instance(basis_path, sidecar_path=None) -> GapSvpInstance:
    """Rebuild a reduction output from its sidecar's instance and profile knobs.

    Both files must be, byte for byte, what ``save_instance`` writes for the
    rebuilt reduction: the basis file the bytes of ``emit_basis`` of its
    rows, and the sidecar those of ``sidecar_text`` of it, the fixed-schema
    writer that gives ``json.dumps(sidecar_json(...), indent=2)``.  The
    sidecar's ``basis_file`` and ``seed`` are the only free fields, so a pair
    renamed together still loads.  Files are read as bytes and never decoded
    with newline translation, so CRLF newlines or a byte outside ASCII are
    refused.  The basis file is compared with the rebuilt rows one emitted
    piece at a time, and read no further than the first piece that differs,
    whose line alone names the mismatch, or one byte past its closing bracket.
    A file too short for the sidecar's shape is refused before the rebuild.
    """
    basis_path = Path(basis_path)
    if sidecar_path is None:
        sidecar_path = basis_path.with_name(basis_path.name + ".json")
    try:
        sidecar = Path(sidecar_path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise SvpforgeError(
            f"sidecar holds byte {exc.object[exc.start]:#04x} at offset {exc.start}, "
            "outside the ASCII that save_instance writes"
        ) from None
    try:
        payload = json.loads(sidecar)
    except json.JSONDecodeError as exc:
        raise SvpforgeError(f"sidecar is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SvpforgeError("sidecar must be a JSON object")
    if payload.get("format") != FORMAT_NAME:
        raise SvpforgeError("sidecar format tag does not match")
    if payload.get("version") != FORMAT_VERSION:
        raise SvpforgeError(f"unsupported sidecar version {payload.get('version')!r}")

    missing = [k for k in ("csp", "profile") if k not in payload]
    if missing:
        raise SvpforgeError(f"sidecar is missing {', '.join(map(repr, missing))}")
    if not isinstance(payload["csp"], str):
        raise SvpforgeError("sidecar 'csp' must be the instance text")
    csp = parse_csp(payload["csp"])
    prof = profile_from_json(payload["profile"], csp)
    rows = sum(len(con.accepted_set) for con in csp.constraints)
    if rows == 0:
        raise SvpforgeError("the sidecar's instance accepts no tuple, so it has no basis")
    # an emitted row takes at least 2 * nprime + 1 bytes
    if basis_path.stat().st_size < rows * (2 * prof.nprime + 1):
        raise SvpforgeError(
            f"basis file is too short for the {rows} x {prof.nprime} basis its sidecar describes"
        )
    basis_file, seed = payload.get("basis_file"), payload.get("seed")
    if not isinstance(basis_file, str):
        raise SvpforgeError(f"sidecar 'basis_file' must be a string, got {basis_file!r}")
    if seed is not None and type(seed) is not int:
        raise SvpforgeError(f"sidecar 'seed' must be an integer or null, got {seed!r}")
    out = reduce_csp(csp, prof)
    with basis_path.open("rb", buffering=WRITE_BUFFER) as f:
        for r, piece in enumerate(_basis_pieces(out.rows, out.num_cols), -1):
            got = f.read(len(piece))
            if got != piece:
                raise SvpforgeError(_basis_mismatch(f, got, r, out))
        if f.read(1):
            raise SvpforgeError(
                "basis text is not laid out as emit_basis writes it: "
                "bytes follow its closing bracket"
            )
    if sidecar != sidecar_text(out, basis_file, seed):
        raise SvpforgeError(_sidecar_mismatch(payload, sidecar_json(out, basis_file, seed)))
    return out


def _basis_mismatch(f, got: bytes, r: int, out: GapSvpInstance) -> str:
    """Why ``got``, read from ``f`` where ``save_instance`` writes row ``r``
    of ``out`` (-1 for the opening bracket, ``len(out.rows)`` for the closing
    one), is not that piece: the rest of its line, at most one row's longest
    line, is read and parsed alone."""
    n = len(out.rows)
    if b"\n" not in got:
        got += f.readline(out.num_cols * (len(str(-out.profile.max_abs_entry)) + 1) + 3 - len(got))
    # a byte outside ASCII becomes U+FFFD, which no integer or bracket is
    line = got.split(b"\n", 1)[0].decode("ascii", errors="replace").strip()
    if r < 0 or (r == n and line.startswith("]")):
        return "basis text is not laid out as emit_basis writes it"
    if line.startswith("]"):
        return f"basis has {r} rows; the sidecar's reduction has {n}"
    m = _ROW_RE.fullmatch(line)
    if m is None:
        return "unexpected text between basis rows"
    try:
        row = tuple(int(tok) for tok in m.group(1).split())
    except ValueError:
        return f"non-integer basis entry in row {r}"
    if r == n:
        return f"basis has more than {n} rows; the sidecar's reduction has {n}"
    if len(row) == out.num_cols and tuple((j, x) for j, x in enumerate(row) if x) == out.rows[r]:
        return "basis text is not laid out as emit_basis writes it"
    return f"basis row {r} is not row {r} of the sidecar's reduction"


def _sidecar_mismatch(payload: dict, expected: dict) -> str:
    for key, want in expected.items():
        if key not in payload or payload[key] != want:
            return f"sidecar {key!r} does not match the reduction it describes"
    return "sidecar is not laid out as save_instance writes it"
