"""Differential tests: the kernels against naive oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
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
    """The row-by-row search ``kernels.box_minimum`` must reproduce exactly:
    the same minimum, lexicographically first argmin, node count and budget
    refusal.  A column's term is added once its last touching row has a
    coefficient, and a subtree is entered only while the added terms stay
    below the best so far."""
    m = len(rows)
    last = {}
    for r, entries in enumerate(rows):
        for j, _x in entries:
            last[j] = r
    acc = dict.fromkeys(last, 0)
    coeffs = [0] * m
    state = {"best": None, "vec": None, "nodes": 0}

    def combine(a, b):
        return max(a, b) if p is None else a + b

    def term(j):
        return abs(acc[j]) if p is None else abs(acc[j]) ** p

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
                acc[j] += t * val
            nf = finalized
            for j in last:
                if last[j] == depth:
                    nf = combine(nf, term(j))
            if state["best"] is None or nf < state["best"]:
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


@st.composite
def _det_sweep_inputs(draw):
    """Up to width + 10 rows, entries inside the float64 product bound or up
    to the int64 edge, with planted dependent rows: a multiple of one row,
    or that plus or minus another row."""
    width = draw(st.integers(1, 4))
    edge = draw(st.sampled_from([9, 3000, kernels.INT64_DET_MAXABS[width]]))
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


def _sweep_bound(rows, width):
    """sum_k max|tail_k| * max|head_k| of the sweep, in Python integers: for
    width 3 the cross products of row pairs against the rows, for width 4
    the complementary 2x2 minors of row pairs against the minors."""
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


# Unimodular inputs whose bound lies 0.04% and 0.05% above 2**53, planted
# inputs 0.09% and 0.05% below it, and unimodular inputs 18 and 19 times
# above it.  Just above, a float64 product would still be exact (a partial
# sum of a determinant of +-1 stays within (bound + 1) / 2 < 2**53), so the
# verdict the sweep reaches is checked, and the gate itself below.  Far
# above, a float64 product rounds the determinant to 0 (NumPy with OpenBLAS
# on x86-64), so only the int64 product gets them right.
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
def float64_decisions(monkeypatch):
    """The float64 verdicts det_sweep reaches, in call order."""
    seen = []
    real = kernels._float64_exact

    def spy(tail, heads):
        seen.append(real(tail, heads))
        return seen[-1]

    monkeypatch.setattr(kernels, "_float64_exact", spy)
    return seen


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize(
    "inputs, lo, hi, on_float64, first",
    [
        (_ABOVE_2_53, 2**53, 2**53 * 1.001, False, None),
        (_BELOW_2_53, 2**53 * 0.999, 2**53 - 1, True, "planted"),
        (_FAR_ABOVE_2_53, 2**57, 2**58, False, None),
    ],
    ids=["just-above", "just-below", "far-above"],
)
def test_det_sweep_float64_edge(float64_decisions, width, inputs, lo, hi, on_float64, first):
    rows = inputs[width]
    assert lo <= _sweep_bound(rows, width) <= hi
    assert abs(kernels.det_exact(rows[:width])) == 1
    expected = tuple(range(width - 1)) + (width,) if first == "planted" else None
    assert kernels.det_sweep(rows, width) == expected == _naive_det_sweep(rows, width)
    assert float64_decisions == [on_float64]


@pytest.mark.parametrize("last, exact", [(2**27 - 1, True), (2**27, False), (2**27 + 1, False)])
def test_float64_gate_is_strictly_below_2_53(last, exact):
    # bound = 2**27 * (2**26 - 1) + 1 * |last| = 2**53 - 2**27 + |last|
    tail = np.array([[-(2**27), 1], [5, -1]])
    heads = np.array([[2**26 - 1, -last], [3, 0]])
    assert kernels._float64_exact(tail, heads) is exact


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

    Up to two rows more than the leaf block, so entries into the block come
    from all-zero and nonzero prefixes and groups end on both sides of it.
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


def _assert_matches_reference(case):
    """``box_minimum`` equals ``_reference_box_dfs`` on ``case``: result or
    budget refusal, and returns the reference result (None if refused)."""
    try:
        want = _reference_box_dfs(*case)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            kernels.box_minimum(*case)
        return None
    assert kernels.box_minimum(*case) == want
    # the refusal fires exactly past the node count
    *args, _budget = case
    assert kernels.box_minimum(*args, want[2]) == want
    with pytest.raises(BudgetExceededError):
        kernels.box_minimum(*args, want[2] - 1)
    return want


@settings(max_examples=300, deadline=None)
@given(_box_inputs())
def test_box_minimum_matches_reference_dfs(case):
    _assert_matches_reference(case)


@st.composite
def _sparse_box_inputs(draw):
    """Arbitrary sparse rows: each row touches any subset of the columns, so
    columns end at any row, above or inside the leaf block, and some
    columns are never touched at all (some rows may be empty)."""
    c = draw(st.integers(1, 2))
    m = draw(st.integers(1, {1: 8, 2: 5}[c]))  # up to two or one rows above the block
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


def test_box_minimum_without_leaf_block():
    # 2c+1 > BLOCK_LEAVES leaves no block rows: the row search reaches the
    # leaves, here on Python integers
    c = (kernels.BLOCK_LEAVES + 1) // 2
    rows = [((0, 1 << 62), (1, 1)), ((1, 2), (2, 7))]
    for p in (None, 3):
        single = (rows[:1], c, p, 10**6)
        assert kernels.box_minimum(*single) == _reference_box_dfs(*single)
        pair = (rows, c, p, 5000)
        with pytest.raises(BudgetExceededError):
            _reference_box_dfs(*pair)
        with pytest.raises(BudgetExceededError):
            kernels.box_minimum(*pair)


@st.composite
def _scaled_box_inputs(draw):
    """Spread-block layouts at scale 10**6: shared columns of multiples of
    10**6 that cancel when rows repeat or negate a pooled pattern, plus +-1
    private columns per row group.  With p >= 3 the leaf block starts on
    Python integers, and the best leaf, once it cancels the scaled columns,
    brings later entries onto the clipped int64 path."""
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


@pytest.mark.parametrize("last, dtype", [(0, np.int64), (1, object)])
def test_box_minimum_clip_threshold(last, dtype):
    """A leaf of power ``best`` = 726808**3 + 71823**3 + 6612**3 + 462**3
    (+ 1) is found in the first entry into the block, and the later entries
    run with it: best + terms * R**3 is 2**62 - 1 (clipped int64) or 2**62
    (Python integers), R = 727042 the smallest with R**3 >= best."""
    first = [726808, 71823, 6612, 462, last]
    rng = random.Random(5)
    dense = [first + [0] * 6]
    for i in range(6):
        # a private column of 2**20 > R keeps every other vector above best
        dense.append([rng.randint(-3, 3) * 10**5 for _ in first] + [0] * 6)
        dense[-1][len(first) + i] = 1 << 20
    rows = sparse_rows(dense)
    terms, best, root = len(dense[0]), sum(x**3 for x in first), 727042
    assert (root - 1) ** 3 < best <= root**3
    assert best + terms * root**3 == (1 << 62) - 1 + last
    block = kernels._LeafBlock(rows, 1, 3, kernels._closing_columns(rows))
    assert block.terms == terms
    assert block.dtype is object
    assert block._call_dtype(best) == (dtype, root if last == 0 else None)
    want = _assert_matches_reference((rows, 1, 3, 10**9))
    assert want[:2] == (best, (-1,) + (0,) * 6)


@st.composite
def _root_inputs(draw):
    """A power p and a value below 2**62, often a perfect p-th power or one
    away from one."""
    p = draw(st.integers(1, 5))
    r = draw(st.integers(0, 2 ** (62 // p)))
    n = draw(st.one_of(
        st.integers(0, (1 << 62) - 1), st.sampled_from([r**p - 1, r**p, r**p + 1])
    ))
    return p, min(max(n, 0), (1 << 62) - 1)


@settings(max_examples=300, deadline=None)
@given(_root_inputs())
def test_ceil_root(case):
    p, n = case
    r = kernels._ceil_root(n, p)
    assert r**p >= n and (r == 0 or (r - 1) ** p < n)
