"""Independent references for the benchmark's output checks.

Nothing here imports svpforge: basis and instance files are parsed with this
module's own code, and every check is plain integer (or Fraction)
arithmetic, so a defect in svpforge cannot also hide in its reference.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np


def parse_basis(text: str) -> list[list[int]]:
    """Rows of a bracketed basis file: "[[a b]\\n[c d]\\n]"."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError("basis text is not bracketed")
    rows = []
    for line in body[1:-1].splitlines():
        line = line.strip()
        if line:
            rows.append([int(x) for x in line.strip("[]").split()])
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("basis rows are missing or ragged")
    return rows


def parse_csp(text: str):
    """(num_vars, alphabet, [(scope, accepted set), ...]) of a CSP file."""
    header = None
    cons = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind, args = toks[0], toks[1:]
        if kind == "csp":
            header = [int(x) for x in args]
        elif kind == "con":
            cons.append((tuple(int(x) for x in args), set()))
        elif kind == "acc":
            cons[-1][1].add(tuple(int(x) for x in args))
    n, m, _q, sigma = header
    if len(cons) != m:
        raise ValueError("constraint count does not match the header")
    return n, sigma, cons


def satisfied_fraction(csp, assignment) -> Fraction:
    n, _sigma, cons = csp
    if len(assignment) != n:
        raise ValueError("assignment length does not match the variable count")
    hits = sum(1 for scope, acc in cons if tuple(assignment[x] for x in scope) in acc)
    return Fraction(hits, len(cons))


def degrees(csp) -> list[int]:
    n, _sigma, cons = csp
    deg = [0] * n
    for scope, _acc in cons:
        for x in scope:
            deg[x] += 1
    return deg


def image(v, rows) -> list[int]:
    out = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return out


def power(img, p) -> int:
    """Sum of |x|**p, or the max-norm for p None."""
    if p is None:
        return max(abs(x) for x in img)
    return sum(abs(x) ** p for x in img)


def unit_width_shape(csp) -> tuple[int, int, int]:
    """(rows, cols, scaled cols) of a basis reduced with unit block widths:
    rows are the accepted (constraint, tuple) pairs, the scaled columns are
    one per (variable, symbol) plus one support column, and each constraint
    owns a Hadamard block of order (alphabet padded to a power of two)**q."""
    n, sigma, cons = csp
    q = len(cons[0][0])
    padded = 1 << (sigma - 1).bit_length()
    scaled = n * sigma + 1
    return sum(len(acc) for _s, acc in cons), scaled + len(cons) * padded**q, scaled


def check_short_vector(rows, csp, v) -> str | None:
    """A satisfying combination must cancel the scaled columns exactly and
    leave a {-1, 0, 1} spread image of max-norm 1."""
    want_rows, want_cols, scaled = unit_width_shape(csp)
    if (len(rows), len(rows[0])) != (want_rows, want_cols):
        return f"basis is {len(rows)}x{len(rows[0])}, expected {want_rows}x{want_cols}"
    if len(v) != len(rows) or not any(v):
        return "coefficient vector has the wrong length or is zero"
    img = image(v, rows)
    if any(img[:scaled]):
        return "scaled blocks do not cancel"
    if power(img, None) != 1:
        return f"image max-norm is {power(img, None)}, expected 1"
    return None


def spread_nonzeros(rows, csp, v) -> int:
    return sum(1 for x in image(v, rows)[unit_width_shape(csp)[2]:] if x)


def box_oracle(rows, c: int, p) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum of power(v * rows) over nonzero v in [-c, c]^m and
    its lexicographically first argmin (coordinates ordered -c..c).

    Images are exact in int64; finite-p powers are screened in float64 and
    every candidate within rounding of the float minimum is recomputed in
    Python integers.
    """
    m = len(rows)
    if m > 12:
        raise ValueError("the brute-force oracle is limited to 12 rows")
    if m * c * max(abs(x) for row in rows for x in row) >= 1 << 62:
        raise ValueError("basis entries too large for exact int64 images")
    b = np.array(rows, dtype=np.int64)
    base = 2 * c + 1
    total = base**m
    place = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
    zero = total // 2  # index of the all-zero vector
    best = None
    cands = []
    for lo in range(0, total, 1 << 15):
        k = np.arange(lo, min(total, lo + (1 << 15)), dtype=np.int64)
        coeffs = (k[:, None] // place) % base - c
        img = coeffs @ b
        if p is None:
            score = np.abs(img).max(axis=1).astype(np.float64)
        else:
            score = (np.abs(img).astype(np.float64) ** p).sum(axis=1)
        score[k == zero] = np.inf
        i = int(np.argmin(score))
        if best is None or score[i] < best:
            best = float(score[i])
        cands.append((k, score))
    result = None
    for k, score in cands:
        for kk in k[score <= best * (1 + 1e-9)]:
            v = tuple(int(kk) // base ** (m - 1 - j) % base - c for j in range(m))
            pw = power(image(v, rows), p)
            if result is None or pw < result[0]:
                result = (pw, v)
    return result


def det3(m) -> int:
    """Determinant of a 3x3 integer matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def absorbed(adjacency, subset) -> int:
    """Left vertices whose whole neighbourhood lies inside ``subset``."""
    inside = set(subset)
    return sum(1 for nbrs in adjacency if set(nbrs) <= inside)


def is_disperser(adjacency, right_size: int, delta: Fraction, beta: Fraction) -> bool:
    """No right subset of size floor(beta*B) absorbs more than delta*A left
    vertices (absorption is monotone, so smaller subsets need no check)."""
    size = int(beta * right_size)
    limit = delta * len(adjacency)
    return all(
        absorbed(adjacency, s) <= limit
        for s in itertools.combinations(range(right_size), size)
    )


def is_biregular(adjacency, right_size: int, left_degree: int) -> bool:
    counts = [0] * right_size
    for nbrs in adjacency:
        if len(set(nbrs)) != left_degree:
            return False
        for r in nbrs:
            counts[r] += 1
    return len(set(counts)) == 1


def combo_rank(combo, n: int) -> int:
    """Position of a sorted index tuple among combinations(range(n), len) in
    lexicographic order."""
    w = len(combo)
    rank, prev = 0, -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, w - 1 - i)
        prev = c
    return rank
