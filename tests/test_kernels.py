"""Differential tests: the kernels against naive oracles."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpforge import kernels
from svpforge.errors import BudgetExceededError

from conftest import sparse_rows


def _naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _naive_det(minor)
        total += -term if j % 2 else term
    return total


def _naive_det_sweep(rows, width):
    for combo in itertools.combinations(range(len(rows)), width):
        sub = [list(rows[i]) for i in combo]
        if _naive_det(sub) == 0:
            return combo
    return None


def _image(v, rows):
    """The nonzero entries of v * rows as a dict, rows as (column, value) entries."""
    image = {}
    for coeff, entries in zip(v, rows):
        for j, x in entries:
            image[j] = image.get(j, 0) + coeff * x
    return image


def _naive_box_minimum(rows, c, p):
    """Minimum and first argmin over every nonzero vector of the box."""
    best = None
    best_vec = None
    for v in itertools.product(range(-c, c + 1), repeat=len(rows)):
        if not any(v):
            continue
        mags = [abs(x) for x in _image(v, rows).values()]
        norm = max(mags, default=0) if p is None else sum(a**p for a in mags)
        if best is None or norm < best:
            best, best_vec = norm, v
    return best, best_vec


def _reference_box_dfs(rows, c, p, budget):
    """A row-by-row search with the look-ahead bound alone, whose minimum
    and lexicographically first argmin ``kernels.box_minimum`` must
    reproduce; it counts a node per coefficient tried, not states.  A
    column closes at its last row with a nonzero entry, and until then the
    later rows can move it by at most its reach, c times the sum of its
    later |value|s.  For p, a node's bound is the closed columns' terms plus
    max(0, |acc| - reach)**p over the open columns of its row; for the
    max-norm it is max(0, |acc| - reach) over every column.  A subtree is
    entered only while the bound stays below the best so far."""
    m = len(rows)
    last = {}
    for r, entries in enumerate(rows):
        for j, x in entries:
            if x:
                last[j] = r
    # reach[d][j]: how far rows after d can still move column j
    reach = [dict.fromkeys(last, 0) for _ in range(m)]
    for d in range(m - 1):
        for entries in rows[d + 1 :]:
            for j, x in entries:
                reach[d][j] += c * abs(x)
    acc = dict.fromkeys(last, 0)
    coeffs = [0] * m
    state = {"best": None, "vec": None, "nodes": 0}

    def bound(depth, finalized):
        if p is None:
            return max([0] + [abs(acc[j]) - reach[depth][j] for j in last])
        opening = {j for j, x in rows[depth] if x and last[j] > depth}
        return finalized + sum(max(0, abs(acc[j]) - reach[depth][j]) ** p for j in opening)

    def dfs(depth, finalized, nonzero):
        if depth == m:
            if nonzero and (state["best"] is None or finalized < state["best"]):
                state["best"] = finalized
                state["vec"] = tuple(coeffs)
            return
        for t in range(-c, c + 1):
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise BudgetExceededError(f"box enumeration exceeded {budget} nodes")
            coeffs[depth] = t
            for j, val in rows[depth]:
                acc[j] = acc.get(j, 0) + t * val
            nf = finalized
            for j in last:
                if last[j] == depth:
                    nf = max(nf, abs(acc[j])) if p is None else nf + abs(acc[j]) ** p
            if state["best"] is None or bound(depth, nf) < state["best"]:
                dfs(depth + 1, nf, nonzero or t != 0)
            for j, val in rows[depth]:
                acc[j] -= t * val
        coeffs[depth] = 0

    dfs(0, 0, False)
    return state["best"], state["vec"], state["nodes"]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_det_sweep_differential(width):
    rng = random.Random(100 + width)
    for trial in range(20):
        nrows = rng.randint(width, width + 4)
        rows = [
            [rng.randint(-9, 9) for _ in range(width)] for _ in range(nrows)
        ]
        if trial % 3 == 0 and nrows > width:
            rows[-1] = rows[0][:]  # plant a guaranteed singular combination
        assert kernels.det_sweep(rows, width) == _naive_det_sweep(rows, width)


def _int64_det_edge(width):
    """The largest |entry| the grouped sweep takes: width! * m**width < 2**63."""
    m = 1
    while math.factorial(width) * (2 * m) ** width < 2**63:
        m *= 2
    lo, hi = m, 2 * m  # the edge lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.factorial(width) * mid**width < 2**63:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def _det_sweep_inputs(draw):
    """Up to width + 10 rows, entries inside the float64 product bound or up
    to the int64 edge, with planted dependent rows: a multiple of one row,
    or that plus or minus another row."""
    width = draw(st.integers(1, 4))
    edge = draw(st.sampled_from([9, 3000, _int64_det_edge(width)]))
    entry = st.one_of(
        st.integers(-edge, edge),
        st.sampled_from([-edge, -edge + 1, -1, 0, 1, edge - 1, edge]),
    )
    nrows = draw(st.integers(width, width + 10))
    rows = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 4))):
        dst, src, other = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        factor = draw(st.sampled_from([1, -1, 2, -3]))
        sign = draw(st.sampled_from([0, 1, -1]))
        new = [factor * x + sign * y for x, y in zip(rows[src], rows[other])]
        if all(abs(x) <= edge for x in new):
            rows[dst] = new
    return rows, width


@settings(max_examples=300, deadline=None)
@given(_det_sweep_inputs())
def test_det_sweep_matches_naive_up_to_int64_edge(case):
    rows, width = case
    assert kernels.det_sweep(rows, width) == _naive_det_sweep(rows, width)


# Singular at prefix (3, 4) through row 8 = rows 3 + 4 + 7, and at prefix
# (0, 6) through row 9 = rows 0 + 6 + 7: the sweep meets (3, 4, 7, 8) in
# the group of last prefix row 4 first, yet (0, 6, 7, 9) sorts before it.
_LATER_GROUP_WINS = [
    [1, 3, 9, 27], [1, 4, 16, 2], [1, 5, 25, 1], [1, 9, 19, 16], [1, 19, 20, 8],
    [1, 25, 5, 1], [1, 26, 25, 30], [1, 28, 9, 4], [3, 56, 48, 28], [3, 57, 43, 61],
]
# Both zeros in the group of last prefix row 5: (0, 5, 8, 9) and (2, 5, 6, 7),
# whose pair comes first in the pair list but whose prefix sorts second.
_SAME_GROUP_PREFIX_ORDER = [
    [1, 4, 16, 2], [1, 7, 18, 2], [1, 13, 14, 27], [1, 15, 8, 27], [1, 16, 8, 4],
    [1, 21, 7, 23], [1, 25, 5, 1], [3, 59, 26, 51], [1, 30, 1, 30], [3, 55, 24, 55],
]
# b = 3: zeros (1, 3, 7) and (1, 6, 8) in one group, or (0, 7, 8) and (1, 2, 3)
# in two, the later one with the earlier pair.
_TWO_ZEROS_ONE_GROUP = [
    [1, 1, 1], [1, 13, 14], [1, 14, 10], [1, 16, 8], [1, 20, 28], [1, 27, 16],
    [1, 29, 4], [2, 29, 22], [2, 42, 18],
]
_TWO_ZEROS_TWO_GROUPS = [
    [1, 9, 19], [1, 12, 20], [1, 20, 28], [2, 32, 48], [1, 23, 2], [1, 24, 18],
    [1, 26, 25], [1, 28, 9], [2, 37, 28],
]


@pytest.mark.parametrize(
    "rows, width, singular, first",
    [
        (_LATER_GROUP_WINS, 4, [(0, 6, 7, 9), (3, 4, 7, 8)], (0, 6, 7, 9)),
        (_SAME_GROUP_PREFIX_ORDER, 4, [(0, 5, 8, 9), (2, 5, 6, 7)], (0, 5, 8, 9)),
        (_TWO_ZEROS_ONE_GROUP, 3, [(1, 3, 7), (1, 6, 8)], (1, 3, 7)),
        (_TWO_ZEROS_TWO_GROUPS, 3, [(0, 7, 8), (1, 2, 3)], (0, 7, 8)),
    ],
)
def test_det_sweep_returns_the_first_of_several_zeros(rows, width, singular, first):
    combos = itertools.combinations(range(len(rows)), width)
    assert [c for c in combos if _naive_det([rows[i] for i in c]) == 0] == singular
    assert kernels.det_sweep(rows, width) == first == _naive_det_sweep(rows, width)


@pytest.mark.parametrize("cells", [1, 16, 64])
def test_det_sweep_in_small_batches(monkeypatch, cells):
    # from one prefix per batch to a few groups per batch: a find carries
    # into later batches, which keep only the prefixes that can still win,
    # and a batch's later groups mask the rows up to their own last row
    monkeypatch.setattr(kernels, "_SLOPE_BATCH_CELLS", cells)
    for rows, width in ((_LATER_GROUP_WINS, 4), (_SAME_GROUP_PREFIX_ORDER, 4),
                        (_TWO_ZEROS_ONE_GROUP, 3), (_TWO_ZEROS_TWO_GROUPS, 3)):
        assert kernels.det_sweep(rows, width) == _naive_det_sweep(rows, width)
    rng = random.Random(cells)
    for _ in range(60):
        width = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(width + 6)]
        dst, src = rng.sample(range(len(rows)), 2)
        rows[dst] = [2 * x + y for x, y in zip(rows[src], rows[rng.randrange(len(rows))])]
        assert kernels.det_sweep(rows, width) == _naive_det_sweep(rows, width)


def _sweep_bound(rows, width):
    """The bound on evaluating every determinant as one dot product of a row
    pair's "tail" with a prefix's "head", in Python integers: sum_k
    max|tail_k| * max|head_k|, for width 3 the cross products of row pairs
    against the rows, for width 4 the complementary 2x2 minors of row pairs
    against the minors."""
    pairs = list(itertools.combinations(rows, 2))
    if width == 3:
        tails = [
            (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
            for u, v in pairs
        ]
        heads = rows
    else:
        cols = list(itertools.combinations(range(4), 2))
        heads = [[u[k] * v[l] - u[l] * v[k] for k, l in cols] for u, v in pairs]
        tails = [m[::-1] for m in heads]
    return sum(
        max(abs(t[k]) for t in tails) * max(abs(h[k]) for h in heads)
        for k in range(len(heads[0]))
    )


# Unimodular inputs whose tail/head bound lies 0.04% and 0.05% above 2**53,
# planted inputs 0.09% and 0.05% below it, and unimodular inputs 18 and 19
# times above it.  Far above, a float64 dot product of a tail and a head
# rounds the determinant to 0 (NumPy with OpenBLAS on x86-64).  The slope
# search never forms a determinant: its projections stay below
# width * (width-2)! * max|entry|**(width-1), far below 2**53 on all six, so
# it takes them all and must still find exactly the planted zeros.
_ABOVE_2_53 = {
    3: [[412442, -378807, -215869], [-378279, 348193, 225837], [413549, -379799, -215546]],
    4: [[1757, 560, -4793, -707], [-11040, 14134, -4128, 8319],
        [9611, -15227, 9322, -7891], [12154, -19164, 11217, -9912]],
}
_BELOW_2_53 = {  # last row = row 0 - row 1 (+ row 2)
    3: [[565546, -218522, -14767], [-333266, -71311, 17216], [385087, -96178, -12294],
        [898812, -147211, -31983]],
    4: [[18453, -19270, -1997, -18946], [-7470, 8513, 960, 8204],
        [-10937, 16720, 2310, 15335], [-3189, 327, -293, 919],
        [14986, -11063, -647, -11815]],
}
_FAR_ABOVE_2_53 = {
    3: [[-255458, 724075, -231820], [-291129, 827583, -264665], [513465, -596047, 296086]],
    4: [[8221, 9328, -9325, 11481], [15455, -5024, 5034, 18354],
        [13121, 1211, -1203, 15945], [-15913, 3789, -3801, -17636]],
}


@pytest.fixture
def sweep_paths(monkeypatch):
    """The sweeps det_sweep runs, by name, in call order."""
    ran = []
    for name in ("_det_sweep_slopes", "_det_sweep_bigint"):
        real = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda rows, b, real=real, name=name: ran.append(name) or real(rows, b)
        )
    return ran


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize(
    "inputs, lo, hi, first",
    [
        (_ABOVE_2_53, 2**53, 2**53 * 1.001, None),
        (_BELOW_2_53, 2**53 * 0.999, 2**53 - 1, "planted"),
        (_FAR_ABOVE_2_53, 2**57, 2**58, None),
    ],
    ids=["just-above", "just-below", "far-above"],
)
def test_det_sweep_float64_edge(sweep_paths, width, inputs, lo, hi, first):
    rows = inputs[width]
    assert lo <= _sweep_bound(rows, width) <= hi
    assert abs(kernels.det_exact(rows[:width])) == 1
    expected = tuple(range(width - 1)) + (width,) if first == "planted" else None
    assert kernels.det_sweep(rows, width) == expected == _naive_det_sweep(rows, width)
    assert sweep_paths == ["_det_sweep_slopes"]


@pytest.mark.parametrize("last, exact", [(2**27 - 1, True), (2**27, False), (2**27 + 1, False)])
def test_float64_gate_is_strictly_below_2_53(sweep_paths, last, exact):
    # width 2 projects each row to itself, bounded by 2 * max|entry|:
    # 2 * (2**52 - 2**27 + last) is 2**53 - 2 below the gate and 2**53 at it
    m = 2**52 - 2**27 + last
    rows = [[m, 1], [m - 1, 1], [m, 1]]
    assert kernels.det_sweep(rows, 2) == (0, 2) == _naive_det_sweep(rows, 2)
    assert sweep_paths == ["_det_sweep_slopes" if exact else "_det_sweep_bigint"]


@pytest.mark.parametrize(
    "bound, dtype",
    [
        (0, "float64"),
        (2**53 - 1, "float64"),
        (2**53, "int64"),
        (2**63 - 1, "int64"),
        (2**63, "object"),
        (2**200, "object"),
    ],
)
def test_exact_dtype_boundaries(bound, dtype):
    assert kernels.exact_dtype(bound) == dtype


def _float64_slope_edge(width):
    """The largest |entry| the slope search takes:
    width * (width-2)! * m**(width-1) < 2**53."""
    def inside(m):
        return width * math.factorial(width - 2) * m ** (width - 1) < 2**53

    lo, hi = 1, 2**53  # inside(lo), not inside(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("width", [2, 3, 4])
def test_det_sweep_leaves_float64_just_past_its_edge(sweep_paths, width):
    # at the edge the slope search runs; one past it, the big-integer sweep
    # does; both give the naive answer
    edge = _float64_slope_edge(width)
    assert edge == {2: 2**52 - 1, 3: 54_794_158, 4: 104_031}[width]
    for m, path in ((edge, "_det_sweep_slopes"), (edge + 1, "_det_sweep_bigint")):
        # an upper triangular block with m on the diagonal, then a copy of
        # row 0: the first singular combination is (0, ..., width - 2, width)
        rows = [[m if j == i else (m - 1) * (j > i) for j in range(width)] for i in range(width)]
        rows.append(list(rows[0]))
        sweep_paths.clear()
        assert kernels.det_sweep(rows, width) == _naive_det_sweep(rows, width)
        assert sweep_paths == [path]


def test_det_sweep_width_1_runs_in_python_integers(sweep_paths):
    # width 1 asks for the first zero entry; it is the big-integer sweep at
    # any size
    for m in (1, 2**53, 2**63, 2**100):
        rows = [[m], [-m], [0], [m + 1], [0]]
        sweep_paths.clear()
        assert kernels.det_sweep(rows, 1) == (2,) == _naive_det_sweep(rows, 1)
        assert sweep_paths == ["_det_sweep_bigint"]


# Slopes Y/X of (X, Y) = (2**25 + 1, 2**50 + 7) and (2**25 + 2, 2**50 +
# 2**25 + 6) round to one float64, though the vectors are not parallel.
# Width 2 projects a row (w0, w1) to (X, Y) = (-w1, w0).
_COLLIDING = [[2**50 + 7, -(2**25 + 1)], [2**50 + 2**25 + 6, -(2**25 + 2)]]


def test_det_sweep_skips_colliding_slopes():
    (y1, x1), (y2, x2) = ((w0, -w1) for w0, w1 in _COLLIDING)
    assert y1 / x1 == y2 / x2 and y1 * x2 != y2 * x1
    assert kernels.det_sweep(_COLLIDING, 2) is None
    # a multiple of row 0 makes (0, 2) the one singular pair in that run
    rows = _COLLIDING + [[2 * x for x in _COLLIDING[0]]]
    assert kernels.det_sweep(rows, 2) == (0, 2) == _naive_det_sweep(rows, 2)


@pytest.mark.parametrize(
    "rows, width, first",
    [
        # X = 0: keys +inf and -inf, folded to one
        ([[1, 2], [5, 0], [3, 7], [-3, 0]], 2, (1, 3)),
        # prefix row (0, 0, 1) projects (w0, w1, w2) to (-w1, w0)
        ([[0, 0, 1], [1, 2, 3], [4, 0, 9], [2, 7, 1], [-2, 0, 5]], 3, (0, 2, 4)),
        # Y = 0: keys -0.0 (X < 0) and +0.0 (X > 0) are equal
        ([[1, 1], [0, 3], [2, 5], [0, -5]], 2, (1, 3)),
        ([[0, 0, 1], [1, 2, 3], [0, 4, 9], [2, 7, 1], [0, -1, 5]], 3, (0, 2, 4)),
    ],
    ids=["vertical-2", "vertical-3", "signed-zero-2", "signed-zero-3"],
)
def test_det_sweep_on_axis_projections(rows, width, first):
    assert kernels.det_sweep(rows, width) == first == _naive_det_sweep(rows, width)


def _vandermonde_rows(width):
    from svpforge.gadgets import reduced_vandermonde

    return [list(r) for r in reduced_vandermonde(13, width).rows]


@pytest.mark.parametrize("width", [2, 3, 4])
def test_det_sweep_certifies_without_exact_determinants(monkeypatch, width):
    # on a certifying matrix no key is a candidate, so no determinant is formed
    monkeypatch.setattr(kernels, "det_exact", lambda m: pytest.fail(f"det_exact({m})"))
    assert kernels.det_sweep(_vandermonde_rows(width), width) is None


@pytest.mark.parametrize("width", [3, 4])
def test_det_sweep_row_inside_the_prefix_span(width):
    # row 9 = 2 * row 0 (+ row 1): every completion of the prefix (0,) or
    # (0, 1) through row 9 is singular, and the first one pairs it with row
    # width - 1
    rows = _vandermonde_rows(width)
    assert kernels.det_sweep(rows, width) is None
    rows[9] = [2 * x + (width == 4) * y for x, y in zip(rows[0], rows[1])]
    first = tuple(range(width - 1)) + (9,)
    assert kernels.det_sweep(rows, width) == first == _naive_det_sweep(rows, width)


@pytest.mark.parametrize("width", [3, 4])
def test_det_sweep_dependent_prefix(width):
    # width 3: row 0 is zero; width 4: row 1 = -3 * row 0.  M = 0, every key
    # is NaN, and the answer is the prefix and its next two rows
    rows = _vandermonde_rows(width)
    if width == 3:
        rows[0] = [0, 0, 0]
    else:
        rows[1] = [-3 * x for x in rows[0]]
    first = tuple(range(width))
    assert kernels.det_sweep(rows, width) == first == _naive_det_sweep(rows, width)


def test_det_sweep_reprojects_when_m01_vanishes(monkeypatch):
    # prefix row (1, 1, 0) has M[0, 1] = 0, so the (0, 1) projection maps
    # every later row to a multiple of one vector and all their keys are
    # equal.  Projected again with M[0, 2] = -1, only rows 2 and 5 share a
    # key ((2, 8, 4) = 2 * (1, 4, 2)), and one determinant of input rows
    # confirms them.
    rows = [[1, 1, 0], [2, 5, 7], [1, 4, 2], [3, 1, 8], [5, 2, 9], [2, 8, 4]]
    dets = []
    real = kernels.det_exact
    monkeypatch.setattr(kernels, "det_exact", lambda m: dets.append(m) or real(m))
    assert kernels.det_sweep(rows, 3) == (0, 2, 5)
    assert [m for m in dets if all(list(r) in rows for r in m)] == [[[1, 1, 0], [1, 4, 2], [2, 8, 4]]]
    assert _naive_det_sweep(rows, 3) == (0, 2, 5)


def test_det_sweep_finds_first_combination():
    rows = [[1, 0], [0, 1], [1, 0], [2, 0]]
    # (0, 2) is the lexicographically first singular pair
    assert kernels.det_sweep(rows, 2) == (0, 2)


def test_det_sweep_bigint_path():
    # entries far beyond the int64-safe window must still be exact
    big = 10**20
    rows = [[big, 1], [big, 2], [2 * big, 2]]
    assert kernels.det_sweep(rows, 2) == (0, 2)  # rows 0 and 2 are proportional
    rows_ok = [[big, 1], [big, 2], [big, 4]]
    assert kernels.det_sweep(rows_ok, 2) is None


def test_det_exact_matches_naive():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert kernels.det_exact(m) == _naive_det(m)


@pytest.mark.parametrize("p", [3, 4, None])
@pytest.mark.parametrize("c", [1, 2])
def test_box_minimum_differential(p, c):
    rng = random.Random(31 * c + (0 if p is None else p))
    for _ in range(8):
        m = rng.randint(2, 4)
        ncols = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(m)]
        if all(not any(row) for row in rows):
            rows[0][0] = 1
        entries = sparse_rows(rows)
        want_norm, _ = _naive_box_minimum(entries, c, p)
        got = kernels.box_minimum(entries, c, p, 10**7)
        assert got[0] == want_norm
        # the reported argmin must achieve the reported norm
        v = got[1]
        image = [sum(v[i] * rows[i][j] for i in range(m)) for j in range(ncols)]
        norm = (
            max(abs(x) for x in image)
            if p is None
            else sum(abs(x) ** p for x in image)
        )
        assert norm == want_norm


def test_box_minimum_lex_smallest_argmin():
    # both signs of the same vector reach the minimum; lex order keeps -1 first
    rows = [((0, 1),), ((0, 1),)]
    power, vec, _ = kernels.box_minimum(rows, 1, 3, 10**6)
    assert power == 0  # the difference cancels the image entirely
    assert vec == (-1, 1)


def test_box_minimum_budget():
    rows = [((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((0, 1), (1, -1))]
    with pytest.raises(BudgetExceededError):
        kernels.box_minimum(rows, 2, 3, budget=3)


def test_box_minimum_exact_on_wide_entries():
    # 2**62 entries overflow any fixed-width accumulator; the result stays exact
    big = 1 << 62
    rows = [((0, big),), ((1, 1),)]
    power, vec, _ = kernels.box_minimum(rows, 1, 3, 10**6)
    assert power == 1 and vec == (0, -1)


def test_backend_name_reports():
    assert kernels.backend_name() == "pure"


@st.composite
def _box_inputs(draw):
    """Contiguous row groups, each with private columns, plus columns every
    row touches.

    ``block`` is the largest T with (2c+1)**T <= 729, and m runs up to two
    rows past it, with groups ending on both sides of row m - T.
    """
    c = draw(st.integers(1, 3))
    block = {1: 6, 2: 4, 3: 3}[c]
    m = draw(st.one_of(st.integers(1, block), st.integers(block + 1, block + 2)))
    p = draw(st.sampled_from([None, 1, 2, 3]))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))) if m > 1 else []
    bounds = [0] + cuts + [m]
    # small entries, totals past int64 (p > 1), and entries past int64
    small = st.integers(-3, 3)
    huge = 1 << 62
    entry = draw(st.sampled_from([
        small,
        st.integers(-10**6, 10**6),
        st.one_of(small, st.sampled_from([-huge, huge, huge + 1])),
    ]))
    nshared = draw(st.integers(0, 3))
    shared_first = draw(st.booleans())
    widths = [draw(st.integers(0, 2)) for _ in bounds[1:]]
    ncols = max(1, nshared + sum(widths))
    nshared = ncols - sum(widths)
    shared = list(range(nshared)) if shared_first else list(range(ncols - nshared, ncols))
    col = nshared if shared_first else 0
    rows = []
    for r0, r1, width in zip(bounds, bounds[1:], widths):
        for _ in range(r0, r1):
            cols = sorted(list(range(col, col + width)) + shared)
            rows.append(tuple((j, x) for j in cols if (x := draw(entry))))
        col += width
    budget = draw(st.one_of(st.integers(0, 2000), st.just(10**9)))
    return rows, c, p, budget


def _assert_count_consistent(rows, c, p):
    """The state count ``box_minimum`` returns is its exact budget: the
    search passes with it and refuses with one less.  Returns the result."""
    got = kernels.box_minimum(rows, c, p, 10**9)
    assert kernels.box_minimum(rows, c, p, got[2]) == got
    with pytest.raises(BudgetExceededError, match=f"exceeded {got[2] - 1} states"):
        kernels.box_minimum(rows, c, p, got[2] - 1)
    return got


def _assert_matches_reference(case):
    """``box_minimum`` gives ``_reference_box_dfs``'s power and argmin on
    ``case`` with a consistent state count, and refuses exactly when that
    count passes the case's budget.  Returns the reference result."""
    rows, c, p, budget = case
    want = _reference_box_dfs(rows, c, p, 10**9)
    got = _assert_count_consistent(rows, c, p)
    assert got[:2] == want[:2]
    if got[2] > budget:
        with pytest.raises(BudgetExceededError):
            kernels.box_minimum(*case)
    else:
        assert kernels.box_minimum(*case) == got
    return want


@settings(max_examples=300, deadline=None)
@given(_box_inputs())
def test_box_minimum_matches_reference_dfs(case):
    _assert_matches_reference(case)


@st.composite
def _sparse_box_inputs(draw):
    """Arbitrary sparse rows: each row touches any subset of the columns, so
    columns end at any row, and some columns are never touched at all (some
    rows may be empty)."""
    c = draw(st.integers(1, 2))
    m = draw(st.integers(1, {1: 8, 2: 5}[c]))
    p = draw(st.sampled_from([None, 1, 3]))
    ncols = draw(st.integers(1, 6))
    value = st.one_of(
        st.integers(-4, 4).filter(bool),
        st.sampled_from([-(10**6), 10**6, 1 << 62]),
    )
    rows = [
        tuple((j, draw(value)) for j in sorted(draw(st.sets(st.integers(0, ncols - 1)))))
        for _ in range(m)
    ]
    return rows, c, p


@settings(max_examples=200, deadline=None)
@given(_sparse_box_inputs())
def test_box_minimum_on_arbitrary_sparse_rows(case):
    rows, c, p = case
    want = _assert_matches_reference((rows, c, p, 10**9))
    assert want[:2] == _naive_box_minimum(rows, c, p)


def test_box_minimum_at_large_radius():
    # 2c+1 = 731 values per row, on entries past int64
    c = 365
    rows = [((0, 1 << 62), (1, 1)), ((1, 2), (2, 7))]
    for p in (None, 3):
        for m in (1, 2):
            got = _assert_count_consistent(rows[:m], c, p)
            assert got[:2] == _reference_box_dfs(rows[:m], c, p, 10**9)[:2]


@st.composite
def _wide_box_inputs(draw):
    """Radii of 4 to 12, so a step bisects over up to 25 digits."""
    c = draw(st.integers(4, 12))
    m = draw(st.integers(1, 3))
    p = draw(st.sampled_from([None, 1, 2, 3]))
    ncols = draw(st.integers(1, 4))
    value = st.sampled_from([-7, -3, -2, -1, 1, 2, 3, 5, 40])
    rows = [
        tuple((j, draw(value)) for j in sorted(draw(st.sets(st.integers(0, ncols - 1)))))
        for _ in range(m)
    ]
    return rows, c, p


@settings(max_examples=150, deadline=None)
@given(_wide_box_inputs())
def test_box_minimum_bisects_wide_steps(case):
    rows, c, p = case
    got = _assert_count_consistent(rows, c, p)
    assert got[:2] == _naive_box_minimum(rows, c, p)


def test_a_huge_box_costs_log_c_per_state():
    # two private columns: each step starts at its least bound, so the
    # first leaf is the minimum, whatever c is
    private = [((0, 1),), ((1, 1),)]
    # a rotated pair: the first step's bound is 0 for every digit, so it
    # walks -c..-1 from the least one, -c, and each digit t improves the
    # best to |t| (p=inf) or 2|t|**3 (p=3); then 0, so c + 2 states
    rotated = [((0, 1), (1, 1)), ((0, 1), (1, -1))]
    start = time.perf_counter()
    for c in (10**4, 10**9):
        assert _assert_count_consistent(private, c, None) == (1, (-1, -1), 3)
        assert _assert_count_consistent(private, c, 3) == (1, (-1, 0), 3)
    assert _assert_count_consistent(rotated, 10**4, None) == (1, (-1, 0), 10**4 + 2)
    assert _assert_count_consistent(rotated, 10**4, 3) == (2, (-1, 0), 10**4 + 2)
    for p in (None, 3):
        with pytest.raises(BudgetExceededError, match="exceeded 10000 states"):
            kernels.box_minimum(rotated, 10**9, p, 10**4)
    assert time.perf_counter() - start < 20
    for p in (None, 3):
        for rows in (private, rotated):
            assert kernels.box_minimum(rows, 3, p, 10**6)[:2] == _naive_box_minimum(rows, 3, p)


def test_box_minimum_ignores_zero_entries():
    # an explicit zero neither keeps a column open nor adds to its reach
    rows = [((0, 2), (1, 1)), ((0, 1), (1, 0)), ((0, 0), (1, 1)), ((1, 0),)]
    stripped = [tuple((j, x) for j, x in entries if x) for entries in rows]
    for p in (None, 3):
        want = _assert_count_consistent(stripped, 1, p)
        assert want[:2] == _reference_box_dfs(stripped, 1, p, 10**6)[:2]
        assert kernels.box_minimum(rows, 1, p, 10**6) == want


def test_box_minimum_deeper_than_the_recursion_limit():
    # 1500 rows, each with a private column.  While the prefix is all zero,
    # 0 comes last: the first path is -1 then the 0s (-1s for the max-norm),
    # a least leaf, and every other path is cut at its first step but for
    # the chain of leading 0s, so 2m - 1 states.  Trying 0 first would give
    # each leading-zero prefix its own walk, about m**2 / 2 states.
    m = 1500
    rows = [((i, 1),) for i in range(m)]
    for p, vec in ((None, (-1,) * m), (3, (-1,) + (0,) * (m - 1))):
        power, got, states = _assert_count_consistent(rows, 1, p)
        assert (power, got) == (1, vec)
        assert states <= 3 * m


@st.composite
def _scaled_box_inputs(draw):
    """Spread-block layouts at scale 10**6: shared columns of multiples of
    10**6 that cancel when rows repeat or negate a pooled pattern, plus +-1
    private columns per row group.  With p >= 3 the totals pass int64 until
    the best leaf cancels the scaled columns."""
    c = draw(st.integers(1, 2))
    block = {1: 6, 2: 4}[c]
    m = draw(st.integers(block + 1, block + 2))
    p = draw(st.sampled_from([3, 4]))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1)))
    bounds = [0] + cuts + [m]
    nshared = draw(st.integers(1, 3))
    scaled = st.lists(st.integers(-2, 2), min_size=nshared, max_size=nshared)
    pool = draw(st.lists(scaled, min_size=1, max_size=3))
    shared_first = draw(st.booleans())
    widths = [draw(st.integers(0, 2)) for _ in bounds[1:]]
    ncols = nshared + sum(widths)
    shared = list(range(nshared)) if shared_first else list(range(ncols - nshared, ncols))
    col = nshared if shared_first else 0
    rows = []
    for r0, r1, width in zip(bounds, bounds[1:], widths):
        for _ in range(r0, r1):
            sign = draw(st.sampled_from([-1, 1]))
            entries = [(j, sign * x * 10**6) for j, x in zip(shared, draw(st.sampled_from(pool)))]
            entries += [(j, draw(st.sampled_from([-1, 0, 1]))) for j in range(col, col + width)]
            rows.append(tuple(sorted((j, x) for j, x in entries if x)))
        col += width
    budget = draw(st.one_of(st.integers(0, 3000), st.just(10**9)))
    return rows, c, p, budget


@settings(max_examples=150, deadline=None)
@given(_scaled_box_inputs())
def test_box_minimum_scaled_matches_reference_dfs(case):
    _assert_matches_reference(case)


@st.composite
def _tied_box_inputs(draw):
    """Rows of +-1 entries, many of them copies or negations of earlier
    rows: power 0 is reachable, and many vectors share each power, so the
    least power's lexicographically first vector is what is tested."""
    c = draw(st.integers(1, 2))
    m = draw(st.integers(1, {1: 6, 2: 4}[c]))
    p = draw(st.sampled_from([None, 1, 2, 3]))
    ncols = draw(st.integers(1, 4))
    unit = st.sampled_from([-1, 1])
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            sign = draw(unit)
            rows.append(tuple((j, sign * x) for j, x in draw(st.sampled_from(rows))))
        else:
            cols = sorted(draw(st.sets(st.integers(0, ncols - 1))))
            rows.append(tuple((j, draw(unit)) for j in cols))
    return rows, c, p


@settings(max_examples=300, deadline=None)
@given(_tied_box_inputs())
def test_box_minimum_breaks_ties_lexicographically(case):
    # the best-first order meets equal powers out of lexicographic order;
    # the result is still the brute force's first argmin
    rows, c, p = case
    got = _assert_count_consistent(rows, c, p)
    assert got[:2] == _naive_box_minimum(rows, c, p)


# Max-norm bases where a state is entered again under a lexicographically
# earlier prefix, with the same value (first case) or a larger one (second):
# a search that skipped such a state would return a later argmin.
_REENTERED_STATE_CASES = [
    ([((2, 2),), ((0, 2), (2, 2)), ((2, 1), (3, -1)), ((0, -1), (1, 2), (2, -1), (3, 2)),
      ((0, 2), (1, 1), (2, 2), (3, 2)), ((0, 1), (1, -1))], 1),
    ([((0, 2), (1, 2), (2, 2), (3, 2)), ((2, 1), (3, 1)), ((3, 1),), ((1, 2), (2, 2))], 2),
]


@pytest.mark.parametrize("rows, c", _REENTERED_STATE_CASES)
def test_box_minimum_keeps_a_state_entered_under_an_earlier_prefix(rows, c):
    want = _naive_box_minimum(rows, c, None)
    assert _assert_count_consistent(rows, c, None)[:2] == want


def _first_listed_below(rows, digits, p, below):
    """The listed search by brute force: over every vector of ``digits`` in
    their order, whose first nonzero digit's negation does not come earlier
    in ``digits``, the first with power below ``below``, or (below, None)."""
    for v in itertools.product(digits, repeat=len(rows)):
        lead = next((t for t in v if t), None)
        if lead is None or -lead in digits[: digits.index(lead)]:
            continue
        mags = [abs(x) for x in _image(v, rows).values()]
        power = max(mags, default=0) if p is None else sum(a**p for a in mags)
        if power < below:
            return power, v
    return below, None


@settings(max_examples=200, deadline=None)
@given(
    _tied_box_inputs(),
    st.sampled_from([(0, 1, -1), (1, 0, -1), (0, -1, 1), (0, 1, -1, 2, -2), (2, -1, 0, 1)]),
    st.integers(1, 12),
)
# the state after rows 0 and 1 (column 1 at 1) is entered at (0, 1) with
# closed value 2 and leads nowhere below 3, then at (1, 0) with 1, where
# (1, 0, 0) has power 2: the search must not skip it
@example(([((0, 1), (1, 1)), ((1, 1), (2, 2)), ((1, -1), (3, 2))], 1, 1), (0, 1, -1), 3)
def test_listed_search_finds_the_first_vector_below_the_bound(case, digits, below):
    # the rows copy and negate earlier ones, so states are entered again;
    # the bound drops only subtrees with no vector below ``below``, and the
    # state count is the search's exact budget
    rows, _c, p = case
    c = max(map(abs, digits))
    plan = kernels.frontier_plan(rows, range(len(rows)))
    power, vec, states = kernels.frontier_search(plan, c, p, 10**9, digits, below)
    assert (power, vec) == _first_listed_below(rows, digits, p, below)
    assert kernels.frontier_search(plan, c, p, states, digits, below) == (power, vec, states)
    with pytest.raises(BudgetExceededError, match=f"exceeded {states - 1} states"):
        kernels.frontier_search(plan, c, p, states - 1, digits, below)


def _small_box(case):
    """``case`` as (rows, c, p), cut to the first rows whose box holds at
    most 729 vectors, so the brute force stays cheap."""
    rows, c, p = case[:3]
    m = 1
    while (2 * c + 1) ** (m + 1) <= 729:
        m += 1
    return rows[:m], c, p


@settings(max_examples=200, deadline=None)
@given(st.one_of(_box_inputs(), _sparse_box_inputs(), _scaled_box_inputs()).map(_small_box))
def test_box_minimum_look_ahead_matches_brute_force(case):
    # the brute force prunes nothing, so the look-ahead bound and the mirror
    # rule drop no strict improvement
    rows, c, p = case
    power, vec, _states = _assert_count_consistent(rows, c, p)
    assert (power, vec) == _naive_box_minimum(rows, c, p)


def test_box_minimum_counts_a_column_listed_twice_once():
    # a row may list a column more than once; its values add up
    rows = [((0, 1), (0, 2), (1, 1)), ((0, -3), (1, 1)), ((1, 2), (1, -1))]
    for p in (None, 1, 3):
        power, vec, _nodes = kernels.box_minimum(rows, 1, p, 10**6)
        assert (power, vec) == _naive_box_minimum(rows, 1, p)
