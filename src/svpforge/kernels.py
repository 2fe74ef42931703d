"""The exact kernels behind certification and the searches over sparse rows.

  det_sweep(rows, width)          -> first singular width x width row combination, or None
  frontier_search(plan, c, p, budget, digits, below)
                                  -> least norm power over a digit box, and its first vector;
                                     or the first vector below a bound over listed digits
  box_minimum(rows, c, p, budget) -> that search over the rows in order with digits -c..c
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
The determinant sweep evaluates no determinant in floating point: for each
prefix of width - 2 rows it projects the later rows to 2-D vectors, which
are parallel exactly when they complete the prefix to a singular
combination (the Plucker identity), sorts their slopes, and confirms each
candidate pair of equal slopes with an exact determinant.  It runs in
float64 or, past that bound, in Python integers.

Both exact searches over sparse rows, the box enumeration behind
``enumerate`` and the witness search, run through one loop,
``frontier_search``: a depth-first branch and bound over a
``frontier_plan`` in Python integers on an explicit stack, which judges
every digit by one bound (the closed columns' value plus a bound on the
open ones) and skips mirrored vectors.  The box search visits each step's
digits -c..c best-first by that convex bound, from its least minimiser
outwards (the zig-zag of Schnorr-Euchner enumeration), and a tie in power
goes to the lexicographically first vector.  The listed search, the
witness's, tries its digits in their order and stops at the first vector
below its bound.  Neither keeps a table: a search holds its plan and a few
arrays as long as the steps, and its state budget bounds both its work and
its memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from svpforge.errors import BudgetExceededError

# Integers of magnitude below these are exact in float64 (53-bit
# significand) and in int64.
FLOAT64_EXACT = 1 << 53
INT64_EXACT = 1 << 63

# Key cells (prefixes x projected rows) per batch of the slope search.  Its
# one product is then at most 2 * width * this many multiply-adds, at or
# below OpenBLAS's one-thread size of 2**18 for widths up to 4.
_SLOPE_BATCH_CELLS = 1 << 15


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


def det_sweep(rows, width):
    """Scan all width-row combinations in lexicographic order.

    Returns the index tuple of the first combination whose square submatrix
    has determinant zero, or None when every submatrix is nonsingular.
    ``rows`` is a sequence of integer rows, each exactly ``width`` long.
    Widths 2 to 4 run the slope search when ``exact_dtype`` puts its bound
    ``width * (width-2)! * max|entry|**(width-1)`` in float64; other inputs
    run one exact determinant per combination.
    """
    n = len(rows)
    if width < 1 or width > n:
        raise ValueError("width must lie in [1, number of rows]")
    if any(len(r) != width for r in rows):
        raise ValueError("rows must be exactly width long")
    maxabs = max((abs(x) for row in rows for x in row), default=0)
    if 2 <= width <= 4:
        bound = width * math.factorial(width - 2) * maxabs ** (width - 1)
        if exact_dtype(bound) == "float64":
            return _det_sweep_slopes(rows, width)
    return _det_sweep_bigint(rows, width)


def _det_sweep_slopes(rows, b):
    """Find the first singular combination by sorting 2-D slopes.

    Fix a prefix S of b - 2 rows.  B(w, x) = det(S; w; x) = w^T M x, where
    M[j, k] = det(S; e_j; e_k) is a signed minor of S on the other columns.
    M is alternating, of rank 2, or 0 when S is dependent.  For (k, l) with
    M[k, l] != 0 the Plucker identity gives
    B(w, x) * M[k, l] = P(w) x P(x), with P(w) = (B(w, e_k), B(w, e_l)), so
    S + (w, x) is singular exactly when P(w) and P(x) are parallel or one of
    them is zero.  Every product and partial sum that forms P(w) is an
    integer of magnitude at most b * (b-2)! * max|entry|**(b-1), so below
    2**53 one float64 product of the rows with M's columns k and l is exact.
    The key of w is the slope Y/X of P(w) = (X, Y), with +-inf folded to
    +inf, and NaN when P(w) = 0.  Division is correctly rounded, so parallel
    vectors get equal keys, and sorting one prefix's keys puts every
    singular pair in a run of equal keys.  Equal keys (two slopes may also
    round to one key) and NaNs are only candidates: ``_first_singular_pair``
    confirms them with ``det_exact``.

    The sweep projects with (k, l) = (0, 1).  When M[0, 1] = 0, every P(w)
    is parallel, so the prefix has equal keys or a NaN and is flagged, and
    ``_first_singular_pair`` projects it again with a pair that holds.

    Prefixes are taken in order of their last row c, then lexicographically,
    in batches of about _SLOPE_BATCH_CELLS keys.  A batch projects the rows
    after its first prefix's last row, and a later prefix gives the rows up
    to its own last row distinct keys below every slope, which never match.
    A prefix (a, c') sorts before a found combination's prefix (a*, c), with
    c < c', only when a < a* (for b = 3, never), so later batches keep only
    those prefixes, and the search ends when none are left.  Every batch
    works in the same two arrays, sized for the largest: fresh arrays would
    cost a page fault per 4 KiB on every batch.  A batch sorts its keys in
    place, in the half of the work array that held X: only the sorted keys
    are read, to flag prefixes, and ``_first_singular_pair`` projects a
    flagged prefix afresh.  A prefix is flagged when two neighbours in its
    row of keys are equal or its last key is NaN; one comparison runs over
    the batch's rows end to end, and drops the pairs that straddle two rows.
    """
    import numpy as np  # only certification sweeps need it

    arr = np.array(rows, dtype=np.float64)
    n = len(rows)
    if b == 2:
        prefixes = np.zeros((1, 0), dtype=np.intp)
    elif b == 3:
        prefixes = np.arange(n - 2)[:, None]
    else:
        first, last = np.triu_indices(n - 2, 1)
        order = np.lexsort((first, last))
        prefixes = np.stack((first[order], last[order]), axis=1)
    cap = max(_SLOPE_BATCH_CELLS, n)
    work, flags = np.empty(2 * cap), np.empty(cap, dtype=bool)
    best = None
    while len(prefixes):
        lo = int(prefixes[0, -1]) + 1 if b > 2 else 0
        m = n - lo
        batch, prefixes = np.split(prefixes, [max(1, _SLOPE_BATCH_CELLS // m)])
        p, cells = len(batch), len(batch) * m
        xy = work[: 2 * cells].reshape(2 * p, -1)
        mask = flags[:cells].reshape(p, -1)
        keys = _slope_keys(arr, arr[batch], lo, (0, 1), xy, mask)
        if b > 2:
            # rows up to the prefix's last row get -2**54 * (row + 1): below
            # every slope (|Y/X| <= |Y| < 2**53), and distinct
            below = np.arange(lo, n)
            np.less_equal(below, batch[:, -1:], out=mask)
            np.copyto(keys, -(2.0**54) * (1 + below), where=mask)
        keys.sort(axis=1)  # NaNs last
        # equal neighbours in one prefix's row (not across two), or a NaN
        flat = keys.reshape(-1)
        same = np.flatnonzero(np.equal(flat[1:], flat[:-1], out=flags[: cells - 1]))
        flagged = np.isnan(keys[:, -1])
        flagged[same[same % m != m - 1] // m] = True
        for i in np.flatnonzero(flagged).tolist():
            prefix = tuple(batch[i].tolist())
            if best is None or prefix < best[:-2]:
                pair = _first_singular_pair(rows, arr, prefix)
                if pair is not None:
                    best = prefix + pair
        if best is not None:
            if b < 4:
                break
            prefixes = prefixes[prefixes[:, 0] < best[0]]
    return best


def _slope_keys(arr, heads, lo, kl, xy, vertical):
    """The slope keys of rows lo, lo + 1, ... of ``arr`` under each prefix
    of ``heads`` (prefix, row, column), projected by columns ``kl`` of its
    M.  Works in ``xy`` (2 * prefixes x rows) and ``vertical`` (prefixes x
    rows, bool), and returns the keys as the first half of ``xy``."""
    import numpy as np

    p = len(heads)
    cols = np.concatenate([_form_column(heads, k) for k in kl])
    np.matmul(cols, arr[lo:].T, out=xy)
    x, y = xy[:p], xy[p:]
    np.equal(x, 0, out=vertical)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(y, x, out=x)
    np.abs(x, out=x, where=vertical)  # +-inf to +inf; 0/0 stays NaN
    return x


def _form_column(heads, k):
    """Column k of each prefix's M: M[j, k] = det(S; e_j; e_k) is
    (-1)**(j+k+1) times the minor of S on the columns other than j and k
    when j < k, its negative when j > k, and 0 at j = k."""
    import numpy as np

    b = heads.shape[-1]
    col = np.zeros((len(heads), b))
    for j in range(b):
        if j == k:
            continue
        rest = [c for c in range(b) if c != j and c != k]
        if b == 2:
            minor = 1.0
        elif b == 3:
            minor = heads[:, 0, rest[0]]
        else:
            r, s = rest
            minor = heads[:, 0, r] * heads[:, 1, s] - heads[:, 0, s] * heads[:, 1, r]
        col[:, j] = -minor if (j + k + (j < k)) % 2 else minor
    return col


def _first_singular_pair(rows, arr, prefix):
    """The lexicographically first pair (i, j) that completes ``prefix`` to
    a singular combination, or None.

    The prefix's rows are projected with the first (k, l) for which
    M[k, l] != 0 (all keys are NaN when M = 0), and only candidates are
    confirmed with ``det_exact``: first the pairs with a NaN row, in
    lexicographic order (the first is singular), then the pairs of each run
    of equal keys in lexicographic order, each run up to its first singular
    pair or the best pair so far.
    """
    import numpy as np

    n, b = arr.shape
    start = prefix[-1] + 1 if prefix else 0
    head = [rows[r] for r in prefix]
    unit = [[int(i == j) for j in range(b)] for i in range(b)]
    pairs = itertools.combinations(range(b), 2)
    kl = next((kl for kl in pairs if det_exact(head + [unit[kl[0]], unit[kl[1]]])), (0, 1))
    rest = n - start
    heads = arr[list(prefix)][None]
    keys = _slope_keys(arr, heads, start, kl, np.empty((2, rest)), np.empty((1, rest), bool))[0]

    def singular(pair):
        return det_exact(head + [rows[pair[0]], rows[pair[1]]]) == 0

    zero = set((np.flatnonzero(np.isnan(keys)) + start).tolist())
    with_zero = (
        (i, j) for i in range(start, n) for j in range(i + 1, n) if i in zero or j in zero
    )
    best = next(filter(singular, with_zero), None) if zero else None
    order = np.argsort(keys)
    ordered = keys[order]
    same = np.flatnonzero(ordered[1:] == ordered[:-1])
    for run in np.split(same, np.flatnonzero(np.diff(same) != 1) + 1):
        if not run.size:
            continue
        members = sorted((order[run[0] : run[-1] + 2] + start).tolist())
        for pair in itertools.combinations(members, 2):
            if best is not None and pair >= best:
                break
            if singular(pair):
                best = pair
                break
    return best


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
    """Minimum p-th power norm of v*rows over nonzero v in [-c, c]^m, p
    None for the max-norm, and the lexicographically first argmin:
    ``frontier_search`` over ``rows`` ((column, value) entries, as
    ``GapSvpInstance.rows``) in their own order, each step's digits
    best-first.  Returns (power, vector, states)."""
    m = len(rows)
    if m == 0:
        raise ValueError("need at least one row")
    if c < 1:
        raise ValueError("box radius must be at least 1")
    try:
        return frontier_search(frontier_plan(rows, range(m)), c, p, budget)
    except BudgetExceededError:
        raise BudgetExceededError(f"box enumeration exceeded {budget} states") from None


def frontier_search(plan, c, p, budget, digits=None, below=None):
    """A short nonzero coefficient vector over the steps of ``plan``, by the
    p-th power norm of its image (max |entry| for p None), from one of two
    searches through one loop.  Returns (power, vector, states), the vector
    in the plan's step order; when no power is below the exclusive bound
    ``below`` (None: no bound) they are ``below`` and None.

    - box search (``digits`` None): the least power over the digits -c..c,
      and its lexicographically first vector.  Each step visits its digits
      best-first by its bound, which is convex in the digit: from the least
      minimiser (found by bisection) outwards, to the neighbour with the
      smaller bound, the smaller digit on a tie, until both sides are cut;
      the last step takes its least value alone.  A digit is cut when its
      bound exceeds the best, or equals it and the path with the digit
      comes after the best vector's prefix.
    - listed search (``digits`` given): the first vector, each step trying
      ``digits`` in their order, whose power is below ``below``; a digit is
      cut when its bound is not.

    ``_step_bound`` judges every digit from acc + t*val: the closed value
    plus a term for each open column from its least final magnitude,
    max(0, |acc| - reach), reach being c times the plan's.  For p the closed
    value alone goes down a step; for the max-norm the bound does, since it
    never falls along a path.  Mirror: while every coefficient so far is 0,
    a digit whose negation came earlier is skipped (-v has the power of v),
    and the box search tries 0 last, so a chain of rows whose bound is 0 at
    digit 0 is not walked all-zero first.

    ``budget`` counts states, the start and each step gone down, and a
    search that would enter more raises ``BudgetExceededError``.  A box
    search state costs O(log c) bounds, so the budget bounds the work;
    listed digits are tried in full, so keep them few.  Neither search keeps
    a table, so past the plan its memory is O(steps) whatever the budget.
    """
    if budget < 0:
        raise ValueError("budget must be at least 0")
    ranged = digits is None
    steps, m = plan.entries, len(plan.entries)
    last = m - 1
    value = [dict(step) for step in steps]
    # (slot, value, reach) of each closing column (reach 0) and of each open one
    shut = [[(j, value[k][j], 0) for j in cols] for k, cols in enumerate(plan.closing)]
    opening = [[(j, value[k][j], c * r) for j, r in cols] for k, cols in enumerate(plan.reach)]
    if not ranged:
        # the digits of a step before any nonzero one: none whose negation
        # came earlier, nor 0 at the last step
        first = [t for i, t in enumerate(digits) if not t or -t not in digits[:i]]
        firsts = [first] * last + [[t for t in first if t]]
    acc = [0] * plan.num_slots  # each column's sum over the steps above
    bounds = [_step_bound(acc, s, o, p) for s, o in zip(shut, opening)]
    coeffs = [0] * m
    carried = [0] * m  # carried[d]: the value carried into step d
    nonzero = [False] * m  # nonzero[d]: whether a coefficient before step d is
    # walk[d]: step d's digits to come (None before it starts): an iterator
    # over listed digits, or the box search's bound values from its
    # bisection, next digits down and up with their bounds (None once cut)
    # and whether 0 is to come
    walk = [None] * m
    best = math.inf if below is None else below
    vec = None
    # the path's first `same` digits are vec's (at most the depth): vec's
    # own prefix until the search backs up past it, then the step where it
    # left it, since a step never revisits a digit
    same = 0
    states = 1
    if states > budget:
        raise BudgetExceededError(f"search exceeded {budget} states")
    depth = 0
    while True:
        into, was_nz = carried[depth], nonzero[depth]
        step_walk = walk[depth]
        if ranged:
            hi = c if was_nz else -1
            f = bounds[depth]
            if step_walk is None:
                # bisect -c..hi to the bound's least minimiser, where it
                # stops falling; `seen` keeps every bound value computed
                seen = {}
                lo, top = -c, hi
                while lo < top:
                    mid = (lo + top) // 2
                    if mid not in seen:
                        seen[mid] = f(into, mid)
                    if mid + 1 not in seen:
                        seen[mid + 1] = f(into, mid + 1)
                    if seen[mid + 1] >= seen[mid]:
                        top = mid
                    else:
                        lo = mid + 1
                more = depth < last  # at the last step only the least value can be a new best
                fdown = seen[lo] if lo in seen else f(into, lo)
                fup = None
                if more and lo < hi:
                    fup = seen[lo + 1] if lo + 1 in seen else f(into, lo + 1)
                step_walk = walk[depth] = [seen, lo, fdown, lo + 1, fup, more and not was_nz]
            seen, down, fdown, up, fup, zero = step_walk
            while True:
                if fdown is not None and (fup is None or fdown <= fup):
                    t, v, side = down, fdown, -1
                elif fup is not None:
                    t, v, side = up, fup, 1
                elif zero:
                    t, v, side, zero = 0, f(into, 0), 0, False
                else:
                    t = None
                    break
                # cut: past the best, or at it and after the best vector
                if v > best or v == best and (
                    vec is None or (coeffs[same] > vec[same] if same < depth else t > vec[depth])
                ):
                    if side < 0:
                        fdown = None
                    elif side:
                        fup = None
                    continue
                if side < 0:
                    down -= 1
                    fdown = None
                    if down >= -c:
                        fdown = seen[down] if down in seen else f(into, down)
                elif side:
                    up += 1
                    fup = None
                    if up <= hi:
                        fup = seen[up] if up in seen else f(into, up)
                break
            step_walk[1:] = down, fdown, up, fup, zero
        else:
            if step_walk is None:
                step_walk = walk[depth] = iter(digits if was_nz else firsts[depth])
            f = bounds[depth]
            for t in step_walk:
                v = f(into, t)
                if v < best:
                    break
            else:
                t = None
        if t is not None and depth == last:
            coeffs[depth] = t
            best, vec, same = v, tuple(coeffs), m
            if not ranged:
                return best, vec, states
            t = None  # the last step's other digits are cut
        if t is None:
            # the step is done: back to the step above, less its digit
            if not depth:
                return best, vec, states
            depth -= 1
            if same > depth:
                same = depth
            t = coeffs[depth]
            if t:
                for j, x in steps[depth]:
                    acc[j] -= t * x
            continue
        nf = v
        if p is not None:
            nf = into
            for j, x, _r in shut[depth]:
                x = acc[j] + t * x
                nf += (x if x >= 0 else -x) ** p
        if t:
            for j, x in steps[depth]:
                acc[j] += t * x
        coeffs[depth] = t
        states += 1
        if states > budget:
            raise BudgetExceededError(f"search exceeded {budget} states")
        depth += 1
        carried[depth] = nf
        nonzero[depth] = was_nz or t != 0
        walk[depth] = None


def _step_bound(acc, closes, opens, p):
    """The bound a step judges a digit t by, as a function of the value
    carried in and t: the value plus |acc + t*x|**p over ``closes`` and
    max(0, |acc + t*x| - reach)**p over ``opens``, or for the max-norm (p
    None) the max of the value and |acc + t*x| - reach over both, reach 0
    for ``closes``.  A sum or max of convex functions of t, so convex."""
    if p is None:
        cols = closes + opens

        def bound(into, t):
            v = into
            for j, x, r in cols:
                x = acc[j] + t * x
                if x < 0:
                    x = -x
                if x - r > v:
                    v = x - r
            return v

    else:

        def bound(into, t):
            v = into
            for j, x, _r in closes:
                x = acc[j] + t * x
                v += (x if x >= 0 else -x) ** p
            for j, x, r in opens:
                x = acc[j] + t * x
                if x < 0:
                    x = -x
                if x > r:
                    v += (x - r) ** p
            return v

    return bound


@dataclass(frozen=True)
class FrontierPlan:
    """A visit order for sparse rows and what each step does to the columns.

    Columns get slots 0, 1, ... in the order the steps first touch them.
    Step k visits row ``order[k]``:

    - ``entries[k]``: one (slot, value) pair per column it touches, the
      values of a column listed twice added, and no zero value;
    - ``closing[k]``: the slots it touches last (the column is final after it);
    - ``reach[k]``: (slot, reach) for its other slots, where reach is the sum
      of the column's |value| over the later steps.
    """

    order: tuple[int, ...]
    entries: tuple[tuple[tuple[int, int], ...], ...]
    closing: tuple[tuple[int, ...], ...]
    reach: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_slots(self) -> int:
        return sum(map(len, self.closing))


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
        merged = {}
        for j, x in rows[r]:
            merged[j] = merged.get(j, 0) + x
        entries.append(tuple((slot.setdefault(j, len(slot)), x) for j, x in merged.items() if x))
    tail = [0] * len(slot)
    closing, reach = [None] * m, [None] * m
    for k in range(m - 1, -1, -1):
        closing[k] = tuple(s for s, _x in entries[k] if not tail[s])
        reach[k] = tuple((s, tail[s]) for s, _x in entries[k] if tail[s])
        for s, x in entries[k]:
            tail[s] += abs(x)
    return FrontierPlan(order, tuple(entries), tuple(closing), tuple(reach))
