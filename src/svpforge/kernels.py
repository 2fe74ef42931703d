"""The exact kernels behind certification and box enumeration.

  det_sweep(rows, width)          -> first singular width x width row combination, or None
  box_minimum(rows, c, p, budget) -> exhaustive norm minimum over a coefficient box
  rcm_order(rows, links)          -> a reverse Cuthill-McKee visit order of sparse rows
  frontier_plan(rows, order)      -> the columns each step of that order closes or leaves open

  exact_dtype(bound)              -> the arithmetic that is exact under a magnitude bound

Every certification product (this module's determinant sweep, and the
kernel-support and Gram checks in ``gadgets``) runs in the arithmetic that
``exact_dtype`` picks from a proven bound on the magnitude of every integer
it forms: each entry, each product of two entries and each partial sum, in
any summation order and with fused multiply-adds.  Below 2**53 that is
float64, whose 53-bit significand holds every such integer, so a BLAS
product is exact; below 2**63 it is int64, which cannot overflow; otherwise
it is Python integers in object arrays.  Results are exact on every path.
Determinant sweeps evaluate every combination that shares its last prefix
row with one NumPy product.  The box enumeration reads sparse rows and
is one iterative depth-first search over all rows in Python integers: it
prunes on the closed columns' value plus a bound on what the later rows can
no longer take off the open ones, and keeps its state per level on an
explicit stack, so its depth is not bounded by the interpreter's recursion
limit.  Both exact searches over sparse rows, this one and the witness
search in ``verifier``, read their closing columns and reaches from one
``frontier_plan``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from svpforge.errors import BudgetExceededError

# Integers of magnitude below these are exact in float64 (53-bit
# significand) and in int64.
FLOAT64_EXACT = 1 << 53
INT64_EXACT = 1 << 63

# Laplace expansion of a 4x4 determinant over rows (0,1 | 2,3): the minor of
# rows 0-1 on column pair _PAIRS[k] multiplies the minor of rows 2-3 on the
# complementary pair _PAIRS[5-k], with sign _LAPLACE_SIGNS[k].
_PAIRS = tuple(itertools.combinations(range(4), 2))
_LAPLACE_SIGNS = (1, -1, 1, 1, -1, 1)
# The cross product u x v is the 2x2 minors of rows (u, v) on these columns.
_CROSS = ((1, 2), (2, 0), (0, 1))


def backend_name() -> str:
    """The kernel implementation that runs, as reported by ``enumerate``."""
    return "pure"


def exact_dtype(bound: int) -> str:
    """The NumPy dtype name of the arithmetic that is exact when every
    integer a computation forms has magnitude at most ``bound``: "float64"
    below 2**53, "int64" below 2**63, and "object" (Python integers)
    otherwise."""
    if bound < FLOAT64_EXACT:
        return "float64"
    if bound < INT64_EXACT:
        return "int64"
    return "object"


def _det_bound(width, maxabs):
    """A bound on every integer the int64 sweep of width <= 4 forms from
    entries of magnitude at most ``maxabs``: width! * maxabs**width.  A 2x2
    minor is at most 2*maxabs**2; b=3 dots a row with a cross product (entries
    at most 2*maxabs**2), so at most 6*maxabs**3; b=4 sums 6 products of two
    2x2 minors, so at most 24*maxabs**4."""
    return math.factorial(width) * maxabs**width


def det_sweep(rows, width):
    """Scan all width-row combinations in lexicographic order.

    Returns the index tuple of the first combination whose square submatrix
    has determinant zero, or None when every submatrix is nonsingular.
    ``rows`` is a sequence of integer rows, each exactly ``width`` long.
    Widths up to 4 run the grouped sweep when ``exact_dtype`` keeps
    ``_det_bound`` out of Python integers; other inputs run one exact
    determinant per combination.
    """
    n = len(rows)
    if width < 1 or width > n:
        raise ValueError("width must lie in [1, number of rows]")
    if any(len(r) != width for r in rows):
        raise ValueError("rows must be exactly width long")
    maxabs = max((abs(x) for row in rows for x in row), default=0)
    if width <= 4 and exact_dtype(_det_bound(width, maxabs)) != "object":
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
    import numpy as np  # only certification sweeps need it

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
        tail = minors[:, ::-1] * np.array(_LAPLACE_SIGNS, dtype=np.int64)
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
        for t, h in zip(abs(tail).max(axis=0), abs(heads).max(axis=0))
    )
    return exact_dtype(bound) == "float64"


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

    Each column closes at its last row with a nonzero entry: once that row
    has a coefficient, the column's entry of v*rows is final, and its term
    (its magnitude, or that to the p-th power) joins the running value of
    the closed columns.  A column still open after row d has a reach, c
    times the sum of its |value| over the later rows; no completion moves it
    by more, so its final magnitude is at least max(0, |acc| - reach), where
    acc is its value so far.  At each node the closed value plus the open
    bounds of the row's columns (their p-th powers summed, or all combined
    with max for the max-norm) is a lower bound on every leaf below, and a
    bound at or above the best seen so far prunes a subtree that holds no
    strict improvement.  For p the closed value alone goes down to the next
    level, since an open column's term is counted again when it closes.  For
    the max-norm the bound itself goes down: max counts a column twice
    without harm, and a column's open bound never falls along a path
    (|acc + t*val| - reach >= |acc| - (reach + c*|val|)), so the carried
    value bounds every column touched so far.  Columns no row touches are
    zero and never counted.  Pruning changes neither the visit order nor the
    result, only the node count.

    The closing columns and reaches are ``frontier_plan``'s for the rows in
    their own order, its reach times c.  The search is depth first over all
    m rows, in Python integers, with an explicit stack (no recursion, so any
    number of rows works).  Each level keeps its coefficient, the value
    carried into its row and whether the prefix is nonzero; the column
    values move by one row per step.

    Returns (best_power, best_vector, nodes); ``nodes`` counts coefficient
    assignments and is compared against ``budget``.  A level's 2c+1 nodes
    are counted when it is entered, so the search refuses on entering the
    level that would pass ``budget``.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("need at least one row")
    if c < 1:
        raise ValueError("box radius must be at least 1")
    plan = frontier_plan(rows, range(m))
    steps, closing = plan.entries, plan.closing
    opening = [[(j, c * reach) for j, reach in step] for step in plan.reach]
    # for the max-norm: every column of the row, a closing one with reach 0
    reaches = [[(j, 0) for j in shut] + op for shut, op in zip(closing, opening)]
    width = 2 * c + 1
    acc = [0] * plan.num_slots
    coeffs = [0] * m
    carried = [0] * m  # carried[d]: the value carried into row d
    nonzero = [False] * m  # nonzero[d]: whether a coefficient before row d is
    best = vec = None
    inf = p is None
    last = m - 1
    nodes = 0
    depth = 0
    while True:
        # enter level ``depth``: its coefficient starts one below -c
        nodes += width
        if nodes > budget:
            raise BudgetExceededError(f"box enumeration exceeded {budget} nodes")
        sup = steps[depth]
        for j, val in sup:
            acc[j] -= (c + 1) * val
        coeffs[depth] = t = -c - 1
        while True:
            if t == c:
                # leave the level, and step the one above
                for j, val in sup:
                    acc[j] -= c * val
                coeffs[depth] = 0
                if not depth:
                    return best, vec, nodes
                depth -= 1
                sup = steps[depth]
                t = coeffs[depth]
                continue
            t += 1
            coeffs[depth] = t
            for j, val in sup:
                acc[j] += val
            nf = carried[depth]
            if inf:
                # closing columns have reach 0; the max absorbs the open ones
                for j, reach in reaches[depth]:
                    a = acc[j]
                    if a < 0:
                        a = -a
                    if a - reach > nf:
                        nf = a - reach
                if best is not None and nf >= best:
                    continue
            else:
                for j in closing[depth]:
                    a = acc[j]
                    if a < 0:
                        a = -a
                    nf += a**p
                if best is not None:
                    if nf >= best:
                        continue
                    # add what the later rows cannot take off the open columns
                    lb = nf
                    for j, reach in opening[depth]:
                        a = acc[j]
                        if a < 0:
                            a = -a
                        if a > reach:
                            lb += (a - reach) ** p
                    if lb >= best:
                        continue
            nz = t != 0 or nonzero[depth]
            if depth == last:
                if nz:
                    best, vec = nf, tuple(coeffs)
                continue
            depth += 1
            carried[depth] = nf
            nonzero[depth] = nz
            break


@dataclass(frozen=True)
class FrontierPlan:
    """A visit order for sparse rows and what each step does to the columns.

    Columns get slots 0, 1, ... in the order the steps first touch them.
    Step k visits row ``order[k]``:

    - ``entries[k]``: its (slot, value) pairs with a nonzero value;
    - ``closing[k]``: the slots it touches last (the column is final after it);
    - ``reach[k]``: (slot, reach) for its other slots, where reach is the sum
      of the column's |value| over the later steps;
    - ``frontier[k]``: the slots open after it, touched at or before step k
      and again later, ascending (built on first use: only the witness
      search reads it).
    """

    order: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], ...], ...]
    closing: tuple[tuple[int, ...], ...]
    reach: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_slots(self) -> int:
        return sum(map(len, self.closing))

    @functools.cached_property
    def frontier(self) -> tuple[tuple[int, ...], ...]:
        live = set()
        out = []
        for step, shut in zip(self.entries, self.closing):
            live.update(s for s, _x in step)
            live.difference_update(shut)
            out.append(tuple(sorted(live)))
        return tuple(out)


def rcm_order(rows, links: range) -> tuple[int, ...]:
    """The reverse Cuthill–McKee order of ``rows``.

    Two rows are adjacent when both have a nonzero entry in a column of
    ``links``.  Cuthill–McKee runs a breadth-first search from a least-degree
    row (ties by index), appends each row's unvisited neighbours by degree
    and then index, and restarts the same way in every component it has not
    reached; the order is that sequence reversed.  The search is a queue
    walk, not a recursion, so any number of rows works.
    """
    m = len(rows)
    touching = {}
    for r, entries in enumerate(rows):
        for j, x in entries:
            if x and j in links:
                touching.setdefault(j, []).append(r)
    neighbours = [set() for _ in range(m)]
    for rs in touching.values():
        for r in rs:
            neighbours[r].update(rs)
    for r in range(m):
        neighbours[r].discard(r)
    def degree_then_index(r):
        return len(neighbours[r]), r

    seen = [False] * m
    order = []
    for start in sorted(range(m), key=degree_then_index):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            nxt = sorted((s for s in neighbours[order[head]] if not seen[s]), key=degree_then_index)
            for s in nxt:
                seen[s] = True
            order.extend(nxt)
            head += 1
    order.reverse()
    return tuple(order)


def frontier_plan(rows, order) -> FrontierPlan:
    """The per-step columns of visiting ``rows`` (each its (column, value)
    entries) in ``order``, which lists every row index once."""
    order = tuple(order)
    m = len(order)
    slot = {}
    entries = []
    for r in order:
        step = []
        for j, x in rows[r]:
            if x:
                step.append((slot.setdefault(j, len(slot)), x))
        entries.append(tuple(step))
    tail = [0] * len(slot)
    closing, reach = [None] * m, [None] * m
    for k in range(m - 1, -1, -1):
        # dict.fromkeys drops a column listed twice in one row
        closing[k] = tuple(dict.fromkeys(s for s, _x in entries[k] if not tail[s]))
        reach[k] = tuple(dict.fromkeys((s, tail[s]) for s, _x in entries[k] if tail[s]))
        for s, x in entries[k]:
            tail[s] += abs(x)
    return FrontierPlan(order, tuple(entries), tuple(closing), tuple(reach))
