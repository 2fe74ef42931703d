"""Small combinatorial building blocks with exact certification helpers.

Everything here is integer-exact: primality is deterministic Miller-Rabin,
determinants are integer determinants, disperser checks enumerate subsets.
The kernel-support search and the Gram check are NumPy products in the
arithmetic ``kernels.exact_dtype`` picks from a proven bound on every
product and partial sum they form: float64 below 2**53, int64 below 2**63,
Python integers otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from . import kernels
from .errors import BudgetExceededError

DEFAULT_SUBSET_BUDGET = 1 << 22

# Candidates (support, value tuple) evaluated per batch of a kernel-support
# search: each column's image and the zero mask hold this many cells.
_KERNEL_CHUNK_CELLS = 1 << 15

# Multiply-adds per row block of the Hadamard Gram product: at most
# OpenBLAS's one-thread size, so the check never wakes a second BLAS thread.
_GRAM_BLOCK_MULADDS = 1 << 18

# Deterministic Miller-Rabin: the first k primes as witnesses decide every
# n below psi_k, the least strong pseudoprime to all of them (Jaeschke 1993;
# Sorenson and Webster 2015).  _MR_PREFIXES pairs each psi_k used with k, so
# n is tested with the shortest prefix that decides it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PREFIXES = (
    (3_215_031_751, 4),  # psi_4
    (341_550_071_728_321, 7),  # psi_7 = psi_8
    (318_665_857_834_031_151_167_461, 12),  # psi_12
    (3_317_044_064_679_887_385_961_981, 13),  # psi_13
)
MR_VALID_BELOW = _MR_PREFIXES[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24 (psi_13)."""
    if n >= MR_VALID_BELOW:
        raise ValueError("deterministic witness set only covers n < 3.3e24")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = next(k for below, k in _MR_PREFIXES if n < below)
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(n: int) -> int:
    """The least prime >= n."""
    cand = max(n, 2)
    while not is_prime(cand):
        cand += 1
    return cand


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


class ReducedVandermonde:
    """The (a-1) x b matrix with row i (1-based) equal to (i**0, ..., i**(b-1)) mod a.

    For prime a and b < a, every b x b row-induced submatrix is nonsingular,
    so a nonzero integer vector orthogonal to all b columns must have more
    than b nonzero entries.

    Rows are computed on demand: ``row(i)`` costs O(b) and ``num_rows`` costs
    nothing, so a caller that reads k rows pays for k rows, not for a-1.
    ``rows`` materializes the whole matrix on first access and caches it;
    only the certification helpers, which sweep every row, need it.  It
    builds the matrix a column at a time, each column the one before it
    times i, mod a (a running product, not a ``pow`` per entry), and
    transposes once.  Rows passed to the constructor (a doctored matrix,
    say) are used as given.
    """

    __slots__ = ("modulus", "width", "_rows")

    def __init__(
        self,
        modulus: int,
        width: int,
        rows: Optional[tuple[tuple[int, ...], ...]] = None,
    ):
        self.modulus = modulus
        self.width = width
        self._rows = rows

    def __repr__(self) -> str:
        return f"ReducedVandermonde(modulus={self.modulus}, width={self.width})"

    @property
    def num_rows(self) -> int:
        return self.modulus - 1 if self._rows is None else len(self._rows)

    def row(self, i: int) -> tuple[int, ...]:
        """Row i, 0-based: ((i+1)**0, ..., (i+1)**(b-1)) mod a."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} outside 0..{self.num_rows - 1}")
        if self._rows is not None:
            return self._rows[i]
        return tuple(pow(i + 1, j, self.modulus) for j in range(self.width))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Every row, built on first access and cached."""
        if self._rows is None:
            a, b = self.modulus, self.width
            if b < 1:
                self._rows = ((),) * (a - 1)
            else:
                bases = range(1, a)
                column = [1] * (a - 1)
                columns = [column]
                for _ in range(b - 1):
                    column = [x * i % a for x, i in zip(column, bases)]
                    columns.append(column)
                self._rows = tuple(zip(*columns))
        return self._rows


def reduced_vandermonde(a: int, b: int) -> ReducedVandermonde:
    """Validate (a prime, 1 <= b < a) and return the lazy matrix in O(1)."""
    if not is_prime(a):
        raise ValueError(f"modulus {a} is not prime")
    if not (1 <= b < a):
        raise ValueError(f"width must satisfy 1 <= b < a, got b={b}, a={a}")
    return ReducedVandermonde(a, b)


def first_singular_submatrix(vm: ReducedVandermonde) -> Optional[tuple[int, ...]]:
    """First width x width row combination with determinant zero, or None.

    None certifies the full-rank property of every row-induced submatrix.
    """
    return kernels.det_sweep(vm.rows, vm.width)


def search_kernel_support_counterexample(
    vm: ReducedVandermonde,
    max_support: int,
    entry_bound: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Exhaustive search for a nonzero v with v*V == 0 and support <= max_support.

    Entries range over [-entry_bound, entry_bound].  Returns the first
    counterexample found or None; None is a certification over the whole box.
    Candidates are taken support size k ascending, supports in lexicographic
    order, nonzero values in ``itertools.product`` order.  The value tuples
    of size k are one table, the nonzero entries indexed by an
    ``np.indices`` grid, with no Python tuple per candidate.  Each batch of
    supports of one size (about _KERNEL_CHUNK_CELLS candidates, so memory
    stays flat) is one (supports x k) by (k x value tuples) product per
    column of V; the columns' zero masks are combined with ``&``, and the
    first candidate whose image is zero on every column is a flat argmax.
    Every product and partial sum of size k is an integer of magnitude at
    most ``k * entry_bound * max|entry|``, and ``kernels.exact_dtype`` picks
    the arithmetic from that bound.  Rows that are not exactly ``width``
    long raise ``det_sweep``'s ValueError before any array is built.
    """
    import numpy as np  # only certification needs it; compiling and checking do not

    n = vm.num_rows
    nonzero_entries = [x for x in range(-entry_bound, entry_bound + 1) if x]
    work = sum(
        comb(n, k) * len(nonzero_entries) ** k for k in range(1, max_support + 1)
    )
    if work > budget:
        raise BudgetExceededError(f"{work} candidate vectors exceed budget {budget}")
    if any(len(r) != vm.width for r in vm.rows):
        raise ValueError("rows must be exactly width long")
    if not nonzero_entries:
        return None
    columns, maxabs = _integer_array(vm.rows)
    columns = columns.reshape(n, vm.width).T  # one row per column of V
    for k in range(1, min(max_support, n) + 1):
        dtype = kernels.exact_dtype(k * entry_bound * maxabs)
        # row r of the grid holds the entry indices of value tuple r, the
        # last index fastest: itertools.product order
        grid = np.indices((len(nonzero_entries),) * k).reshape(k, -1).T
        values = np.array(nonzero_entries, dtype=dtype)[grid]
        cols = columns.astype(dtype)
        chunk = max(1, _KERNEL_CHUNK_CELLS // len(values))
        supports = itertools.combinations(range(n), k)
        while batch := list(itertools.islice(supports, chunk)):
            idx = np.array(batch)
            # zero[s, v]: value tuple v on support s is zero on every column
            zero = np.ones((len(batch), len(values)), dtype=bool)
            for col in cols:
                zero &= col[idx] @ values.T == 0
            first = int(zero.argmax())
            s, i = divmod(first, len(values))
            if zero[s, i]:
                v = [0] * n
                for r, val in zip(batch[s], values[i].tolist()):
                    v[r] = int(val)
                return tuple(v)
    return None


def _integer_array(rows):
    """``rows`` as an int64 array, or as an object array of Python integers
    when an entry does not fit, and its largest |entry| as a Python integer."""
    import numpy as np

    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return arr, max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


@dataclass(frozen=True)
class HadamardMatrix:
    """Sylvester-type Hadamard matrix of order 2**k with entries +-1."""

    k: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return 1 << self.k


def hadamard(k: int) -> HadamardMatrix:
    """Order 2**k matrix from the recursion H_{i+1} = [[H_i, -H_i], [H_i, H_i]].

    The recursion carries -H_i = [[-H_i, H_i], [-H_i, -H_i]] beside H_i, so
    each step only concatenates tuples and negates no entry."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows, negs = [(1,)], [(-1,)]
    for _ in range(k):
        rows, negs = (
            [r + n for r, n in zip(rows, negs)] + [r + r for r in rows],
            [n + r for r, n in zip(rows, negs)] + [n + n for n in negs],
        )
    return HadamardMatrix(k, tuple(rows))


def hadamard_row(k: int, r: int) -> tuple[int, ...]:
    """Row r of ``hadamard(k)``, built alone in O(2**k) steps: step i of the
    recursion appends a copy of the row, negated unless bit i of r is set."""
    if not 0 <= r < 1 << k:
        raise IndexError(f"row {r} outside 0..{(1 << k) - 1}")
    row = [1]
    for i in range(k):
        row += row if r >> i & 1 else [-x for x in row]
    return tuple(row)


def hadamard_gram_ok(h: HadamardMatrix) -> bool:
    """Exact check that H * H^T equals order * identity.

    Products of row blocks with H^T in the arithmetic ``kernels.exact_dtype``
    picks: every product and partial sum of a dot product of two rows is an
    integer of magnitude at most ``order * max|entry|**2``.  A block takes
    at most _GRAM_BLOCK_MULADDS multiply-adds.  A matrix that is not
    order x order, ragged rows included, fails before any array is built.
    """
    import numpy as np

    n = h.order
    if len(h.rows) != n or any(len(r) != n for r in h.rows):
        return False
    mat, maxabs = _integer_array(h.rows)
    mat = mat.astype(kernels.exact_dtype(n * maxabs**2))
    step = max(1, _GRAM_BLOCK_MULADDS // mat.size)
    for r in range(0, n, step):
        block = mat[r : r + step] @ mat.T
        # n on the diagonal and no other nonzero entry
        if not (block.diagonal(r) == n).all() or np.count_nonzero(block) != len(block):
            return False
    return True


@dataclass(frozen=True)
class BipartiteBiregular:
    """Bi-regular bipartite graph: A left vertices of degree w, B right of degree f.

    Adjacency lists are sorted tuples of distinct right vertices, so the
    handshake w*A == f*B holds and no constraint scope built from the graph
    repeats a variable copy.
    """

    left_size: int
    right_size: int
    left_degree: int
    right_degree: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        a, b, w, f = self.left_size, self.right_size, self.left_degree, self.right_degree
        if len(self.adjacency) != a:
            raise ValueError("adjacency must list every left vertex")
        if w * a != f * b:
            raise ValueError("handshake w*A == f*B fails")
        counts = [0] * b
        for i, nbrs in enumerate(self.adjacency):
            if len(nbrs) != w or len(set(nbrs)) != w:
                raise ValueError(f"left vertex {i} must have {w} distinct neighbors")
            if tuple(sorted(nbrs)) != tuple(nbrs):
                raise ValueError(f"left vertex {i} adjacency must be sorted")
            for r in nbrs:
                if not (0 <= r < b):
                    raise ValueError(f"right vertex {r} out of range")
                counts[r] += 1
        if any(cnt != f for cnt in counts):
            raise ValueError(f"right degrees {counts} are not uniformly {f}")


def verify_disperser(
    graph: BipartiteBiregular,
    delta: Fraction,
    beta: Fraction,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Certify: no right subset of size <= beta*B absorbs the full neighborhood
    of more than delta*A left vertices.

    The absorbed-count is monotone under subset inclusion, so only subsets of
    size exactly floor(beta*B) are enumerated.  Returns (True, None) on
    success or (False, violating_subset) on failure.
    """
    a, b = graph.left_size, graph.right_size
    m = int(beta * b)  # floor for nonnegative rationals
    if m <= 0:
        return True, None
    m = min(m, b)
    if comb(b, m) > budget:
        raise BudgetExceededError(f"{comb(b, m)} subsets exceed budget {budget}")
    neighbor_sets = [frozenset(nbrs) for nbrs in graph.adjacency]
    threshold = delta * a
    for subset in itertools.combinations(range(b), m):
        inside = frozenset(subset)
        covered = sum(1 for ns in neighbor_sets if ns <= inside)
        if covered > threshold:
            return False, subset
    return True, None
