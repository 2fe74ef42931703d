"""The exact kernels behind certification and box enumeration.

  det_sweep(rows, width)          -> first singular width x width row combination, or None
  box_minimum(rows, c, p, budget) -> exhaustive norm minimum over a coefficient box

Determinant sweeps evaluate every combination that shares its last prefix
row with one NumPy product, in float64 when a proven bound keeps every
product and partial sum below 2**53 (then BLAS is exact), in int64 when a
proven overflow bound holds, and in Python big integers otherwise, so
results are exact either way.  The box enumeration reads sparse rows and
prunes on the columns whose last touching row has a coefficient.  It is a
depth-first search over the upper rows in Python integers that hands each
entry into the last rows to one NumPy evaluation of every remaining
combination, int64 under a proven bound and Python integers in object
arrays otherwise; minima, argmins and node counts are those of the plain
depth-first search over all rows.  The bound is checked per entry: a
p-norm entry whose totals could pass int64 still runs in int64 once the best
leaf so far is small enough, with every magnitude clipped to the p-th root R
of that best (rounded up).  A value below the best has no term as large as
R**p, so clipping leaves it alone, and clipping keeps every other value at
or above the best, which is all an entry compares with.  Entries before the
first leaf is found, and entries whose best has ``best * (terms + 1) >=
2**62`` (``terms`` the number of touched columns), stay on Python integers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from svpforge.errors import BudgetExceededError

# Largest |entry| for which the int64 determinant formulas cannot overflow:
# the b=4 expansion sums 6 products of two 2x2 minors, each minor at most
# 2*maxabs**2, so |any intermediate| <= 24*maxabs**4; b=3 dots a row with a
# cross product (entries at most 2*maxabs**2), so |any intermediate| <=
# 6*maxabs**3.
INT64_DET_MAXABS = {1: (1 << 62), 2: 2_000_000_000, 3: 1_000_000, 4: 20_000}

# Integers of magnitude below this are exact in float64 (53-bit significand).
FLOAT64_EXACT = 1 << 53

# Leaves per block of a box enumeration: the last T rows are evaluated
# together, T the largest with (2c+1)**T <= BLOCK_LEAVES (0 for c >= 365).
BLOCK_LEAVES = 729

# Laplace expansion of a 4x4 determinant over rows (0,1 | 2,3): the minor of
# rows 0-1 on column pair _PAIRS[k] multiplies the minor of rows 2-3 on the
# complementary pair _PAIRS[5-k], with sign _LAPLACE_SIGNS[k].
_PAIRS = tuple(itertools.combinations(range(4), 2))
_LAPLACE_SIGNS = np.array([1, -1, 1, 1, -1, 1], dtype=np.int64)
# The cross product u x v is the 2x2 minors of rows (u, v) on these columns.
_CROSS = ((1, 2), (2, 0), (0, 1))


def backend_name() -> str:
    """The kernel implementation that runs, as reported by ``enumerate``."""
    return "pure"


def det_sweep(rows, width):
    """Scan all width-row combinations in lexicographic order.

    Returns the index tuple of the first combination whose square submatrix
    has determinant zero, or None when every submatrix is nonsingular.
    ``rows`` is a sequence of integer rows, each exactly ``width`` long.
    """
    n = len(rows)
    if width < 1 or width > n:
        raise ValueError("width must lie in [1, number of rows]")
    if any(len(r) != width for r in rows):
        raise ValueError("rows must be exactly width long")
    maxabs = max((abs(x) for row in rows for x in row), default=0)
    if width <= 4 and maxabs <= INT64_DET_MAXABS[width]:
        return _det_sweep_int64(rows, width)
    return _det_sweep_bigint(rows, width)


def _det_sweep_int64(rows, b):
    """Suffix-product sweep: one matrix product per last prefix row.

    Each row pair (i < j) gets a "tail" vector and each (b-2)-row prefix a
    "head", chosen so that the determinant of prefix + (i, j) is
    tail(i, j) . head(prefix).  Pairs are listed in lexicographic order, so
    the pairs that can follow a prefix ending at row c are the contiguous
    suffix starting at the first pair whose first row is c + 1, the same for
    every prefix ending at c.  Groups of prefixes sharing their last row c
    run in order of c, each as one product of its heads (prefixes ascending)
    with that suffix, and the first zero in (prefix, pair) order is the
    group's candidate.  A prefix (a, c') of a later group sorts before the
    candidate's prefix (a*, c) only when a < a* (for b = 3, never), so later
    groups keep only those prefixes, and the sweep ends when none are left.
    The product runs in float64 when ``_float64_exact`` proves it exact.
    """
    arr = np.array(rows, dtype=np.int64)
    n = len(rows)
    if b == 1:
        zeros = np.flatnonzero(arr[:, 0] == 0)
        return (int(zeros[0]),) if zeros.size else None
    first, second = np.triu_indices(n, 1)
    r, s = arr[first], arr[second]
    if b == 2:
        zeros = np.flatnonzero(r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0] == 0)
        return (int(first[zeros[0]]), int(second[zeros[0]])) if zeros.size else None
    # the 2x2 minors of every row pair, filled column by column to keep
    # temporaries small
    cols = _CROSS if b == 3 else _PAIRS
    minors = np.empty((len(first), len(cols)), dtype=np.int64)
    for m, (k, l) in enumerate(cols):
        minors[:, m] = r[:, k] * s[:, l] - r[:, l] * s[:, k]
    del r, s
    if b == 3:
        tail = minors  # det(c, i, j) = row c . (row i x row j)
        heads = arr  # prefix (c,) has head row c
    else:
        tail = minors[:, ::-1] * _LAPLACE_SIGNS
        # prefix (a, c) has head minor(a, c); ordered by c, then a
        heads = minors[np.lexsort((first, second))]
    if _float64_exact(tail, heads):
        tail, heads = tail.astype(np.float64), heads.astype(np.float64)
    # start[i]: index of the first pair whose first row is >= i
    start = np.searchsorted(first, np.arange(n + 1)).tolist()
    best = None
    keep = n  # leading prefixes of each group that sort before ``best``
    for c in range(b - 3, n - 2):
        # comb(c, b-2) prefixes end before row c, comb(c, b-3) end at it
        lo = math.comb(c, b - 2)
        dets = heads[lo : lo + min(math.comb(c, b - 3), keep)] @ tail[start[c + 1] :].T
        hits = np.flatnonzero(dets == 0)
        if hits.size:
            a, k = divmod(int(hits[0]), dets.shape[1])
            k += start[c + 1]
            prefix = (a, c) if b == 4 else (c,)  # for b = 3, a is 0
            best = prefix + (int(first[k]), int(second[k]))
            keep = a
            if not keep:
                break
    return best


def _float64_exact(tail, heads) -> bool:
    """Whether every dot product of a tail row with a head is exact in float64.

    Every product of two entries and every partial sum of such a dot
    product, in any order and with fused multiply-adds, is an integer of
    magnitude at most sum_k max|tail[:, k]| * max|heads[:, k]|.  When that
    bound is below 2**53, so is every entry that meets a nonzero one (an
    entry float64 cannot hold only ever multiplies zeros), and BLAS
    computes each determinant exactly.
    """
    bound = sum(
        int(t) * int(h)
        for t, h in zip(np.abs(tail).max(axis=0), np.abs(heads).max(axis=0))
    )
    return bound < FLOAT64_EXACT


def _det_sweep_bigint(rows, b):
    for combo in itertools.combinations(range(len(rows)), b):
        sub = [rows[i] for i in combo]
        if det_exact(sub) == 0:
            return combo
    return None


def det_exact(mat):
    """Exact determinant of a small square integer matrix (Python ints)."""
    b = len(mat)
    if b == 1:
        return mat[0][0]
    if b == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if b == 3:
        (a, bb, c), (d, e, f), (g, h, i) = mat
        return a * (e * i - f * h) - bb * (d * i - f * g) + c * (d * h - e * g)
    return _det_bareiss([list(r) for r in mat])


def _det_bareiss(m):
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def box_minimum(rows, c, p, budget):
    """Minimum p-th power norm of v*rows over nonzero v in [-c, c]^m.

    ``rows`` holds each row as its (column, value) entries with nonnegative
    column indices, as ``GapSvpInstance.rows`` does; an absent entry is
    zero.  ``p`` is a positive integer, or None for the max-norm (the
    returned "power" is then the max absolute entry itself).  Coefficient
    vectors are visited in lexicographic order and only strict improvements
    are kept, so ties resolve to the lexicographically smallest vector.

    Each column closes at its last touching row: once that row has a
    coefficient, the column's entry of v*rows is final, and its term (its
    magnitude, or that to the p-th power) joins the running value of the
    closed columns.  Terms are nonnegative and never change afterwards, so
    a running value already at or above the best seen so far prunes a
    subtree that holds no strict improvement.  Columns no row touches are
    zero and never counted.

    The first m-T rows are searched depth first; the last T rows, with
    (2c+1)**T <= BLOCK_LEAVES, are evaluated as one block of every
    combination at once (see ``_LeafBlock``).  Results and node counts are
    those of the depth-first search over all m rows.

    Returns (best_power, best_vector, nodes); ``nodes`` counts coefficient
    assignments and is compared against ``budget``.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("need at least one row")
    if c < 1:
        raise ValueError("box radius must be at least 1")
    closing = _closing_columns(rows)
    block = _LeafBlock(rows, c, p, closing)
    top = m - block.size
    acc = [0] * (max((j for row in rows for j, _x in row), default=-1) + 1)
    coeffs = [0] * m
    state = {"best": None, "vec": None, "nodes": 0}
    inf = p is None

    def dfs(depth, finalized, nonzero):
        if depth == top:
            best = block.cap if state["best"] is None else state["best"]
            power, tail, nodes = block.evaluate(acc, finalized, nonzero, best)
            state["nodes"] += nodes
            if state["nodes"] > budget:
                raise BudgetExceededError(f"box enumeration exceeded {budget} nodes")
            if tail is not None:
                state["best"] = power
                state["vec"] = tuple(coeffs[:top]) + tail
            return
        sup = rows[depth]
        close = closing[depth]
        for t in range(-c, c + 1):
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise BudgetExceededError(
                    f"box enumeration exceeded {budget} nodes"
                )
            coeffs[depth] = t
            if t:
                for j, val in sup:
                    acc[j] += t * val
            nf = finalized
            if inf:
                for j in close:
                    a = acc[j]
                    if a < 0:
                        a = -a
                    if a > nf:
                        nf = a
            else:
                for j in close:
                    a = acc[j]
                    if a < 0:
                        a = -a
                    nf += a**p
            if state["best"] is None or nf < state["best"]:
                dfs(depth + 1, nf, nonzero or t != 0)
            if t:
                for j, val in sup:
                    acc[j] -= t * val
        coeffs[depth] = 0

    dfs(0, 0, False)
    return state["best"], state["vec"], state["nodes"]


def _closing_columns(rows):
    """closing[r]: the columns whose last touching row is r, ascending."""
    last = {}
    for r, entries in enumerate(rows):
        for j, _x in entries:
            last[j] = r
    closing = [[] for _ in rows]
    for j in sorted(last):
        closing[last[j]].append(j)
    return closing


class _LeafBlock:
    """The last ``size`` rows of a box enumeration, evaluated as one table.

    Built once per ``box_minimum`` call from its rows and ``closing`` lists
    (``closing[r]``: the columns whose last touching row is r).  ``coeffs``
    lists every coefficient combination of the block rows in lexicographic
    order.  The columns that close at the k-th block row are read at level
    k (the number of block rows assigned): their table holds the
    contribution of the first k block rows for each of the (2c+1)**k
    prefixes of level k, so a column is finalized once per prefix rather
    than once per leaf.  The last level's columns are those still open at
    the leaves.

    Column values use int64 when |any column| <= m*c*maxabs is below 2**62.
    Norm totals use int64 for the whole block when ``cap``, which exceeds
    every total (one term per touched column, ``terms`` in all), is at most
    2**62.  Otherwise each ``evaluate`` call picks its own dtype: a p-norm
    call runs in int64 when ``best + terms * R**p < 2**62``, R the smallest
    integer with R**p >= ``best``, with every magnitude clipped to R (see
    ``_call_dtype``).  The calls left on Python integers in object arrays,
    through the same code, are the max-norm ones, the entries made before
    the first leaf is found, and any with ``best * (terms + 1) >= 2**62``.
    """

    def __init__(self, rows, c, p, closing):
        m = len(rows)
        width = 2 * c + 1
        size = 0
        while size < m and width ** (size + 1) <= BLOCK_LEAVES:
            size += 1
        top = m - size
        colmax = m * c * max((abs(x) for row in rows for _j, x in row), default=0)
        terms = sum(map(len, closing))
        cap = colmax + 1 if p is None else terms * colmax**p + 1
        entry_dtype = np.int64 if colmax < 1 << 62 else object
        self.width, self.size, self.p, self.cap, self.terms = width, size, p, cap, terms
        self.dtype = np.int64 if cap <= 1 << 62 else object
        self.coeffs = np.array(
            list(itertools.product(range(-c, c + 1), repeat=size)), dtype=np.int64
        ).reshape(width**size, size)
        self.zero = width**size // 2  # the all-zero combination
        values = [dict(row) for row in rows[top:]]

        def table(level, cols):
            prefixes = self.coeffs[:: width ** (size - level), :level]
            block = np.array(
                [[v.get(j, 0) for j in cols] for v in values[:level]], dtype=entry_dtype
            ).reshape(level, len(cols))
            return cols, prefixes.astype(entry_dtype) @ block

        self.closing = {
            level: table(level, closing[top + level - 1])
            for level in range(1, size + 1)
            if closing[top + level - 1]
        }

    def _norms(self, cols, contrib, acc, dtype, clip):
        """Each prefix's norm (max or sum of p-th powers) over ``cols``, in
        ``dtype``, with every magnitude first clipped to ``clip`` if given."""
        mags = np.abs(contrib + np.array([acc[j] for j in cols], dtype=contrib.dtype))
        if self.p is None:
            return mags.max(axis=1, initial=0)
        if clip is not None:
            mags = np.minimum(mags, clip)
        return (mags.astype(dtype, copy=False) ** self.p).sum(axis=1)

    def _call_dtype(self, best):
        """The dtype of one call's totals, and the magnitude clip it needs.

        A call into an object-dtype p-norm block runs in int64 when, with R
        the smallest integer with R**p >= ``best``, ``best + terms * R**p``
        is below 2**62: every magnitude is clipped to R before the power,
        which changes no value below ``best`` (none of its terms reaches
        R**p) and leaves every other value at or above ``best`` (one clipped
        term is enough), and the call compares only with minima at most
        ``best``.  The first check is implied by that bound and keeps the
        root off huge ``best`` values.
        """
        if self.dtype is not object or self.p is None or best * (self.terms + 1) >= 1 << 62:
            return self.dtype, None
        root = _ceil_root(best, self.p)
        if best + self.terms * root**self.p < 1 << 62:
            return np.int64, root
        return object, None

    def _combine(self, a, b):
        return np.maximum(a, b) if self.p is None else a + b

    def evaluate(self, acc, finalized, nonzero, best):
        """Every leaf below one entry into the block, at once.

        ``finalized`` is the entry's value of the closed columns, which is
        below ``best`` (``cap`` when nothing was found yet).  Returns
        (power, tail, nodes): the first minimal leaf and its block
        coefficients when it improves on ``best`` (tail None otherwise), and
        the number of block nodes the row search would visit.  That search
        visits leaves in table order and descends into a prefix iff its
        closed columns' value is below the best leaf before the prefix's
        first leaf; a leaf it prunes is never below that best, so the
        running minimum over all earlier leaves equals the running best, and
        the first argmin is the leaf it keeps.
        """
        dtype, clip = self._call_dtype(best)
        fin = np.full(1, finalized, dtype=dtype)
        prefix_fin = []  # per level: the closed columns' value of each prefix
        for level in range(1, self.size + 1):
            prefix_fin.append(fin)
            fin = np.repeat(fin, self.width)
            if level in self.closing:
                fin = self._combine(fin, self._norms(*self.closing[level], acc, dtype, clip))
        total = fin
        if not nonzero:
            total[self.zero] = best  # never kept, and lowers no running minimum
        running = np.empty_like(total)
        running[0] = best
        running[1:] = total[:-1]
        np.minimum.accumulate(running, out=running)
        descended = sum(
            int(np.count_nonzero(f < running[:: len(total) // len(f)]))
            for f in prefix_fin
        )
        nodes = self.width * descended
        k = int(np.argmin(total))
        if total[k] < best:
            return int(total[k]), tuple(self.coeffs[k].tolist()), nodes
        return best, None, nodes


def _ceil_root(n, p):
    """The smallest integer r >= 0 with r**p >= n, for 0 <= n < 2**62.

    The float seed is within one of the answer for p >= 2 at this size, and
    the loops make it exact.
    """
    if p == 1:
        return n
    r = round(n ** (1 / p))
    while r**p < n:
        r += 1
    while r and (r - 1) ** p >= n:
        r -= 1
    return r
