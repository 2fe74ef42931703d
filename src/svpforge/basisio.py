"""Text formats for lattice bases and their JSON sidecars.

A basis file holds one bracketed row per line inside an outer bracket pair
(the layout common to lattice tools):

    [[1 0 3]
    [0 2 -1]
    ]

The sidecar is a JSON object describing the reduction output: the profile,
the embedded source instance text, row provenance, and column spans.  All
rationals are serialized as "numerator/denominator" strings.

The sidecar's instance and profile knobs fix both files: ``load_instance``
rebuilds the reduction and accepts the pair only when each file is, byte for
byte, what ``save_instance`` writes for it (the sidecar's ``basis_file`` and
``seed`` aside).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

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


def emit_basis(rows: Sequence[Sequence], width: Optional[int] = None) -> str:
    """The basis as text: one bracketed row per line, entries separated by
    single spaces, inside an outer bracket pair.

    ``rows`` holds each row's (column, value) entries, columns strictly
    ascending and below ``width``, values nonzero, as ``GapSvpInstance.rows``
    does.  Only those values are turned into strings; each run of k zeros is
    the slice ``zeros[:2*k]`` of one ``"0 " * width`` string.  The text is
    the same as joining ``str`` of every entry of the dense rows.  Called
    without a width, ``rows`` are dense rows of one width, every entry
    listed, and are reduced to their entries first.  A basis of more than
    ``CELL_BUDGET`` rows x width cells is refused before any text is built,
    which bounds what ``save_instance`` writes and ``load_instance`` compares.
    """
    if not rows:
        raise SvpforgeError("refusing to emit an empty basis")
    if width is None:
        width = len(rows[0])
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    check_cell_budget(len(rows), width)
    zeros = "0 " * width
    parts = ["["]
    for entries in rows:
        parts.append("[")
        start = 0
        for j, x in entries:
            parts += (zeros[: 2 * (j - start)], str(x), " ")
            start = j + 1
        if start < width:
            parts.append(zeros[: 2 * (width - start) - 1])
        elif start:
            parts.pop()  # the space after a nonzero last entry
        parts.append("]\n")
    parts.append("]\n")
    return "".join(parts)


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


_KNOB_INTS = ("prime", "scale", "consistency_width", "support_width")


def profile_from_json(d: dict, csp: CspInstance) -> ReductionProfile:
    """Type-check a sidecar profile's six knobs and derive the profile they
    give for ``csp``.

    Only p, mode, prime, scale, consistency_width and support_width are read;
    the stored soundness and shape fields are checked by ``load_instance``,
    which compares the whole sidecar with the one the rebuilt reduction gives.
    """
    if not isinstance(d, dict):
        raise SvpforgeError("sidecar profile must be a JSON object")
    missing = [k for k in ("p", "mode", *_KNOB_INTS) if k not in d]
    if missing:
        raise SvpforgeError(f"sidecar profile is missing {missing[0]!r}")
    for key in _KNOB_INTS:
        if type(d[key]) is not int:  # bool is an int subclass; reject it too
            raise SvpforgeError(f"sidecar profile {key!r} must be an integer, got {d[key]!r}")
    if d["mode"] not in ("asymptotic-default", "explicit"):
        raise SvpforgeError(f"sidecar profile has unknown mode {d['mode']!r}")
    p = _p_from_json(d["p"])
    try:
        return derive_profile(csp, p=p, mode=d["mode"], **{key: d[key] for key in _KNOB_INTS})
    except (ProfileError, ValueError) as exc:  # is_prime refuses moduli >= 3.3e24
        raise SvpforgeError(f"sidecar profile is invalid: {exc}") from None


def sidecar_json(
    inst: GapSvpInstance, basis_file: str, seed: Optional[int] = None
) -> dict:
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


def save_instance(
    inst: GapSvpInstance, basis_path, seed: Optional[int] = None
) -> tuple[Path, Path]:
    """Write the basis and its sidecar; the sidecar sits next to the basis."""
    basis_path = Path(basis_path)
    sidecar_path = basis_path.with_name(basis_path.name + ".json")
    basis_path.write_text(emit_basis(inst.rows, inst.num_cols))
    payload = sidecar_json(inst, basis_path.name, seed=seed)
    sidecar_path.write_text(json.dumps(payload, indent=2) + "\n")
    return basis_path, sidecar_path


def load_instance(basis_path, sidecar_path=None) -> GapSvpInstance:
    """Rebuild a reduction output from its sidecar's instance and profile knobs.

    Both files must be exactly what ``save_instance`` writes for the rebuilt
    reduction: the basis file ``emit_basis`` of its rows, and the sidecar
    ``sidecar_json`` of it laid out by ``json.dumps(indent=2)``.  The
    sidecar's ``basis_file`` and ``seed`` are the only free fields, so a pair
    renamed together still loads.  The basis text is parsed only to report a
    mismatch.
    """
    basis_path = Path(basis_path)
    if sidecar_path is None:
        sidecar_path = basis_path.with_name(basis_path.name + ".json")
    sidecar_text = Path(sidecar_path).read_text()
    try:
        payload = json.loads(sidecar_text)
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
    text = basis_path.read_text()
    rows = sum(len(con.accepted_set) for con in csp.constraints)
    if rows == 0:
        raise SvpforgeError("the sidecar's instance accepts no tuple, so it has no basis")
    # An emitted row takes at least 2 * nprime + 1 characters; refusing a
    # shorter file before the rebuild keeps a small file next to a large
    # sidecar cheap.
    if len(text) < rows * (2 * prof.nprime + 1):
        raise SvpforgeError(
            f"basis file is too short for the {rows} x {prof.nprime} basis its sidecar describes"
        )
    basis_file, seed = payload.get("basis_file"), payload.get("seed")
    if not isinstance(basis_file, str):
        raise SvpforgeError(f"sidecar 'basis_file' must be a string, got {basis_file!r}")
    if seed is not None and type(seed) is not int:
        raise SvpforgeError(f"sidecar 'seed' must be an integer or null, got {seed!r}")
    out = reduce_csp(csp, prof)
    if text != emit_basis(out.rows, out.num_cols):
        raise SvpforgeError(_basis_mismatch(parse_basis(text), out.rows, out.num_cols))
    expected = sidecar_json(out, basis_file, seed)
    if sidecar_text != json.dumps(expected, indent=2) + "\n":
        raise SvpforgeError(_sidecar_mismatch(payload, expected))
    return out


def _basis_mismatch(rows, expected, width) -> str:
    """Why parsed dense ``rows`` are not the ``width``-column basis whose
    rows have the (column, value) entries ``expected``."""
    for r, (got, want) in enumerate(zip(rows, expected)):
        if len(got) != width or tuple((j, x) for j, x in enumerate(got) if x) != want:
            return f"basis row {r} is not row {r} of the sidecar's reduction"
    if len(rows) != len(expected):
        return f"basis has {len(rows)} rows; the sidecar's reduction has {len(expected)}"
    return "basis text is not laid out as emit_basis writes it"


def _sidecar_mismatch(payload: dict, expected: dict) -> str:
    for key, want in expected.items():
        if key not in payload or payload[key] != want:
            return f"sidecar {key!r} does not match the reduction it describes"
    return "sidecar is not laid out as save_instance writes it"
