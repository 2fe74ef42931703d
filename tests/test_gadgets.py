"""Number-theoretic and combinatorial gadgets."""

import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svpforge import gadgets
from svpforge.errors import BudgetExceededError
from svpforge.gadgets import (
    BipartiteBiregular,
    HadamardMatrix,
    ReducedVandermonde,
    first_singular_submatrix,
    hadamard,
    hadamard_gram_ok,
    hadamard_row,
    is_prime,
    reduced_vandermonde,
    search_kernel_support_counterexample,
    smallest_prime_geq,
    verify_disperser,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat tests; the deterministic witness set must not be fooled
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)
    assert is_prime(2_147_483_647)  # 2**31 - 1


# psi_k: the least strong pseudoprime to the first k prime bases (Jaeschke
# 1993; Sorenson and Webster 2015).  Each is composite, and a test that ran
# only those k witnesses on it would call it prime.
_PSI = {
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,  # 399,165,290,221 * 798,330,580,441
}


@pytest.mark.parametrize("k", sorted(_PSI))
def test_is_prime_refuses_the_strong_pseudoprimes_of_each_witness_prefix(k):
    assert not is_prime(_PSI[k])


@pytest.mark.parametrize(
    "prime",
    [
        3_215_031_749,  # below psi_4
        341_550_071_728_289,  # below psi_7
        318_665_857_834_031_151_167_441,  # below psi_12
        3_317_044_064_679_887_385_961_813,  # below psi_13, the largest prime tested
    ],
)
def test_is_prime_accepts_a_prime_just_below_each_range_bound(prime):
    assert is_prime(prime)


def test_is_prime_refuses_moduli_past_psi_13():
    with pytest.raises(ValueError):
        is_prime(3_317_044_064_679_887_385_961_981)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-5, max_value=20_000))
def test_is_prime_matches_trial_division(n):
    expected = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == expected


def test_smallest_prime_geq():
    assert smallest_prime_geq(1) == 2
    assert smallest_prime_geq(8) == 11
    assert smallest_prime_geq(64) == 67
    assert smallest_prime_geq(67) == 67
    assert smallest_prime_geq(90) == 97


def test_vandermonde_entries():
    vm = reduced_vandermonde(5, 2)
    assert vm.modulus == 5 and vm.width == 2
    assert vm.rows == ((1, 1), (1, 2), (1, 3), (1, 4))


def test_vandermonde_lazy_rows_match_materialized():
    for a, b in ((2, 1), (5, 2), (13, 3), (67, 1), (101, 4)):
        vm = reduced_vandermonde(a, b)
        assert vm.num_rows == a - 1
        rows = [vm.row(i) for i in range(a - 1)]
        assert tuple(rows) == vm.rows
        assert all(vm.row(i) == vm.rows[i] for i in range(a - 1))
        with pytest.raises(IndexError):
            vm.row(a - 1)
        with pytest.raises(IndexError):
            vm.row(-1)
    # a single row of a huge matrix is computed without building the others
    big = reduced_vandermonde(1_000_000_007, 3)
    assert big.num_rows == 1_000_000_006
    assert big.row(1_000_000_005) == (1, 1_000_000_006, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.integers(0, 6))
def test_vandermonde_rows_match_the_pow_definition(a, b):
    # modulus 1 and composites too, and width 0, whose rows are empty
    want = tuple(tuple(pow(i, j, a) for j in range(b)) for i in range(1, a))
    assert tuple(ReducedVandermonde(a, b).row(i) for i in range(a - 1)) == want
    assert ReducedVandermonde(a, b).rows == want


def test_vandermonde_explicit_rows_are_used_as_given():
    given = ((1, 1), (1, 1), (1, 2))
    positional = ReducedVandermonde(5, 2, given)
    by_keyword = ReducedVandermonde(modulus=5, width=2, rows=given)
    for bad in (positional, by_keyword):
        assert bad.num_rows == 3
        assert [bad.row(i) for i in range(3)] == list(given)
        assert bad.rows == given
        with pytest.raises(IndexError):
            bad.row(3)


def test_vandermonde_rejects_bad_params():
    with pytest.raises(ValueError):
        reduced_vandermonde(6, 2)  # composite modulus
    with pytest.raises(ValueError):
        reduced_vandermonde(5, 5)  # width must stay below modulus
    with pytest.raises(ValueError):
        reduced_vandermonde(5, 0)


def test_all_minors_nonsingular_small():
    for a in (2, 3, 5, 7, 11, 13):
        for b in range(1, min(4, a - 1) + 1):
            vm = reduced_vandermonde(a, b)
            assert first_singular_submatrix(vm) is None


def test_singular_detection_on_doctored_matrix():
    # duplicate rows force a zero 2x2 minor; the doctored object skips the constructor
    vm = ReducedVandermonde(modulus=5, width=2, rows=((1, 1), (1, 1), (1, 2)))
    assert first_singular_submatrix(vm) == (0, 1)


def test_kernel_support_counterexample_search():
    for a, b in ((11, 2), (7, 3)):
        vm = reduced_vandermonde(a, b)
        assert search_kernel_support_counterexample(vm, b, 5) is None
    bad = ReducedVandermonde(modulus=5, width=2, rows=((1, 1), (1, 1), (1, 2)))
    hit = search_kernel_support_counterexample(bad, 2, 5)
    assert hit is not None
    v = hit
    assert sum(1 for x in v if x) <= 2
    assert all(
        sum(x * row[j] for x, row in zip(v, bad.rows)) == 0 for j in range(2)
    )


def test_kernel_support_refuses_ragged_rows():
    ragged = ReducedVandermonde(5, 2, ((1, 1), (1,)))
    with pytest.raises(ValueError, match="^rows must be exactly width long$"):
        search_kernel_support_counterexample(ragged, 2, 2)
    with pytest.raises(ValueError, match="^rows must be exactly width long$"):
        first_singular_submatrix(ragged)


def test_kernel_search_budget():
    vm = reduced_vandermonde(13, 3)
    with pytest.raises(
        BudgetExceededError, match="^226720 candidate vectors exceed budget 10$"
    ):
        search_kernel_support_counterexample(vm, 3, 5, budget=10)


def _reference_kernel_support_search(vm, max_support, entry_bound):
    """The candidate-by-candidate loop the batched search replaced."""
    n = vm.num_rows
    nonzero_entries = [x for x in range(-entry_bound, entry_bound + 1) if x]
    for k in range(1, max_support + 1):
        for support in itertools.combinations(range(n), k):
            rows = [vm.rows[i] for i in support]
            for values in itertools.product(nonzero_entries, repeat=k):
                if all(
                    sum(values[t] * rows[t][j] for t in range(k)) == 0
                    for j in range(vm.width)
                ):
                    v = [0] * n
                    for i, val in zip(support, values):
                        v[i] = val
                    return tuple(v)
    return None


def _planted(rows, width=3):
    return ReducedVandermonde(modulus=13, width=width, rows=tuple(map(tuple, rows)))


_CLEAN = [list(r) for r in reduced_vandermonde(13, 3).rows]


@pytest.mark.parametrize(
    "vm, max_support",
    [
        # k = 1: a zero row
        (_planted(_CLEAN[:4] + [[0, 0, 0]] + _CLEAN[5:]), 3),
        # k = 2: row 7 is twice row 3
        (_planted(_CLEAN[:7] + [[2 * x for x in _CLEAN[3]]] + _CLEAN[8:]), 3),
        # k = 3: row 11 is row 1 minus row 6
        (_planted(_CLEAN[:11] + [[a - b for a, b in zip(_CLEAN[1], _CLEAN[6])]]), 3),
        # several hits: two zero rows and a repeated row; row 2 must win
        (_planted(_CLEAN[:2] + [[0, 0, 0], _CLEAN[0], [0, 0, 0]] + _CLEAN[5:]), 2),
        # one width-1 matrix where many pairs cancel
        (_planted([[3], [6], [2], [4], [9]], width=1), 2),
        # entries whose int64 products would wrap to zero: no kernel at all
        (_planted([[2**62]], width=1), 1),
        (_planted([[2**62], [-(2**62)]], width=1), 2),
    ],
)
@pytest.mark.parametrize("entry_bound", [1, 2, 3, 4, 5])
def test_kernel_support_search_matches_reference(vm, max_support, entry_bound):
    got = search_kernel_support_counterexample(vm, max_support, entry_bound)
    assert got == _reference_kernel_support_search(vm, max_support, entry_bound)


def test_kernel_support_hit_in_a_later_chunk():
    # supports (0, 1, 2), ... hold no kernel; row 11 = row 9 + row 10 plants
    # one on the last support, many chunks into the k = 3 sweep
    vm = _planted(_CLEAN[:11] + [[a + b for a, b in zip(_CLEAN[9], _CLEAN[10])]])
    hit = search_kernel_support_counterexample(vm, 3, 5)
    assert hit == _reference_kernel_support_search(vm, 3, 5)
    support = tuple(i for i, x in enumerate(hit) if x)
    per_chunk = gadgets._KERNEL_CHUNK_CELLS // 10**3
    position = list(itertools.combinations(range(12), 3)).index(support)
    assert position >= 4 * per_chunk


def test_kernel_support_batches_keep_memory_flat():
    # a batch holds about _KERNEL_CHUNK_CELLS candidates: one column's image
    # (8 bytes each), the zero mask and its update (1 byte each)
    vm = reduced_vandermonde(13, 3)
    assert search_kernel_support_counterexample(vm, 3, 5) is None  # imports, builds rows
    tracemalloc.start()
    try:
        search_kernel_support_counterexample(vm, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * gadgets._KERNEL_CHUNK_CELLS


@pytest.mark.parametrize("a", [7, 11, 13])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_kernel_support_clean_vandermonde(a, b):
    vm = reduced_vandermonde(a, b)
    assert search_kernel_support_counterexample(vm, b, 5) is None
    if comb(a - 1, b) * 10**b <= 30_000:
        assert _reference_kernel_support_search(vm, b, 5) is None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-3, 3), min_size=w, max_size=w), min_size=1, max_size=7
        )
    ),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_kernel_support_search_random_matrices(rows, max_support, entry_bound):
    vm = _planted(rows, width=len(rows[0]))
    got = search_kernel_support_counterexample(vm, max_support, entry_bound)
    assert got == _reference_kernel_support_search(vm, max_support, entry_bound)


@pytest.fixture
def arithmetic(monkeypatch):
    """The arithmetic names ``kernels.exact_dtype`` returns, in call order."""
    seen = []
    real = gadgets.kernels.exact_dtype

    def spy(bound):
        seen.append(real(bound))
        return seen[-1]

    monkeypatch.setattr(gadgets.kernels, "exact_dtype", spy)
    return seen


_M53 = (2**53 - 1) // 9  # 9 * _M53 = 2**53 - 8


@pytest.mark.parametrize(
    "rows, max_support, entry_bound, expected",
    [
        # k=3 bound 9 * _M53, just below 2**53: row 2 = row 0 - row 1
        ([[_M53, 1], [_M53 - 1, 2], [1, -1]], 3, 3, ["float64"] * 3),
        # k=2 bound exactly 2**53, no kernel vector
        ([[2**51, 3], [2**51 - 1, 3]], 2, 2, ["float64", "int64"]),
        # 2**53 + 1 rounds to 2**53 in float64, where (-1, 1) would look
        # like a kernel vector
        ([[2**53 + 1], [2**53]], 2, 1, ["int64", "int64"]),
        # k=2 bound 2**63 - 2: row 1 = -row 0
        ([[2**62 - 1], [-(2**62 - 1)], [2**62 - 2]], 2, 1, ["int64", "int64"]),
        # k=2 bound exactly 2**63, no kernel vector
        ([[2**62], [2**62 - 1], [1]], 2, 1, ["int64", "object"]),
        # 4 * 2**62 wraps to 0 in int64, where (4,) would look like one
        ([[2**62]], 1, 4, ["object"]),
    ],
    ids=["below-2**53", "at-2**53", "past-2**53", "below-2**63", "at-2**63", "past-2**63"],
)
def test_kernel_support_arithmetic_at_its_bounds(arithmetic, rows, max_support, entry_bound, expected):
    vm = _planted(rows, width=len(rows[0]))
    got = search_kernel_support_counterexample(vm, max_support, entry_bound)
    assert got == _reference_kernel_support_search(vm, max_support, entry_bound)
    assert arithmetic == expected


def _python_gram_ok(h):
    n = h.order
    return len(h.rows) == n and all(
        sum(x * y for x, y in zip(h.rows[i], h.rows[j])) == n * (i == j)
        for i in range(n)
        for j in range(n)
    )


@pytest.mark.parametrize(
    "a, expected",
    [
        (1, "float64"),
        (2**26 - 1, "float64"),  # bound 2 * a**2 just below 2**53
        (2**26, "int64"),  # bound exactly 2**53
        (2**31 - 1, "int64"),  # bound just below 2**63
        (2**31, "object"),  # bound exactly 2**63
        (2**32 + 1, "object"),  # int64 would wrap each diagonal entry to 2
    ],
)
def test_hadamard_gram_arithmetic_at_its_bounds(arithmetic, a, expected):
    # rows (a, b) and (-b, a) are orthogonal; their squared norms equal the
    # order 2 only for a = 1 and b = +-1.  A float64 product cannot round a
    # squared norm of at least a**2 down to 2, so only an int64 product past
    # 2**64 can pass a matrix it should refuse.
    for b in (a, a - 2):
        h = HadamardMatrix(1, ((a, b), (-b, a)))
        arithmetic.clear()
        assert hadamard_gram_ok(h) == _python_gram_ok(h) == (a == 1)
        assert arithmetic == [expected]


def test_hadamard_base_cases():
    assert hadamard(0).rows == ((1,),)
    assert hadamard(1).rows == ((1, -1), (1, 1))
    assert hadamard(2).rows == (
        (1, -1, -1, 1),
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, 1, 1, 1),
    )


def test_hadamard_orders_and_gram():
    for k in range(7):
        h = hadamard(k)
        assert h.order == 2**k
        assert len(h.rows) == 2**k
        assert all(len(r) == 2**k for r in h.rows)
        assert hadamard_gram_ok(h)


def test_hadamard_row_is_the_row_of_the_matrix():
    for k in range(8):
        assert tuple(hadamard_row(k, r) for r in range(1 << k)) == hadamard(k).rows
    for k, r in ((0, 1), (3, 8), (3, -1)):
        with pytest.raises(IndexError):
            hadamard_row(k, r)


def test_hadamard_gram_rejects_doctored():
    h = HadamardMatrix(1, ((1, 1), (1, 1)))
    assert not hadamard_gram_ok(h)


def test_hadamard_gram_on_doctored_rows():
    # the check is H * H^T == order * I, nothing more: 2 * I of order 4 passes
    assert hadamard_gram_ok(HadamardMatrix(2, tuple(
        tuple(2 * (i == j) for j in range(4)) for i in range(4)
    )))
    assert not hadamard_gram_ok(HadamardMatrix(2, hadamard(2).rows[:3] + ((1, 1, 1, -1),)))
    # a short last row, a fifth row, and order-4 rows padded to 5 columns
    # (orthogonal, squared norms 4) are not an order-4 matrix
    assert not hadamard_gram_ok(HadamardMatrix(2, hadamard(2).rows[:3] + ((1, 1, 1),)))
    assert not hadamard_gram_ok(HadamardMatrix(2, hadamard(2).rows + ((1, 1, 1, 1),)))
    assert not hadamard_gram_ok(HadamardMatrix(2, tuple(r + (0,) for r in hadamard(2).rows)))
    # each squared row norm is 2 * 2**64 + 2, which int64 would wrap to 2
    a, b = 2**32 + 1, 2**32 - 1
    assert not hadamard_gram_ok(HadamardMatrix(1, ((a, b), (-b, a))))


@pytest.mark.parametrize("muladds", [1, 3 * 16, 2**18])
def test_hadamard_gram_in_row_blocks(monkeypatch, muladds):
    # order 16 in blocks of 1, 3 (the last one short) and all 16 rows: a
    # doctored entry in the last row or a duplicated row is caught in any block
    monkeypatch.setattr(gadgets, "_GRAM_BLOCK_MULADDS", muladds)
    rows = hadamard(4).rows
    doctored = [
        rows[:15] + (rows[15][:-1] + (-rows[15][-1],),),
        rows[:9] + (rows[3],) + rows[10:],
    ]
    assert hadamard_gram_ok(hadamard(4))
    for bad in doctored:
        h = HadamardMatrix(4, bad)
        assert not hadamard_gram_ok(h) and not _python_gram_ok(h)


def test_biregular_validation():
    g = BipartiteBiregular(4, 2, 2, 4, ((0, 1), (0, 1), (0, 1), (0, 1)))
    assert g.left_degree == 2
    with pytest.raises(ValueError):
        BipartiteBiregular(4, 2, 2, 4, ((0, 1), (0, 1), (0, 1)))  # missing a left vertex
    with pytest.raises(ValueError):
        BipartiteBiregular(4, 2, 2, 4, ((1, 0), (0, 1), (0, 1), (0, 1)))  # unsorted
    with pytest.raises(ValueError):
        BipartiteBiregular(4, 2, 2, 4, ((0, 0), (0, 1), (0, 1), (0, 1)))  # repeat
    with pytest.raises(ValueError):
        BipartiteBiregular(4, 2, 2, 3, ((0, 1), (0, 1), (0, 1), (0, 1)))  # handshake
    with pytest.raises(ValueError):
        # right degrees 3 and 5 instead of uniform 4
        BipartiteBiregular(4, 2, 2, 4, ((0, 1), (0, 1), (0, 1), (1, 1)))


def _cycle_graph(n: int) -> BipartiteBiregular:
    adj = tuple(tuple(sorted((i % n, (i + 1) % n))) for i in range(n))
    return BipartiteBiregular(n, n, 2, 2, adj)


def _paired_graph(n: int) -> BipartiteBiregular:
    adj = tuple((i - i % 2, i - i % 2 + 1) for i in range(n))
    return BipartiteBiregular(n, n, 2, 2, adj)


def test_verify_disperser_pass_and_fail():
    beta = Fraction(1, 4)
    delta = 3 * beta**2  # 3/16
    ok, cert = verify_disperser(_cycle_graph(8), delta, beta)
    assert ok and cert is None
    ok, cert = verify_disperser(_paired_graph(8), delta, beta)
    assert not ok
    assert cert is not None and len(cert) == 2
    lo, hi = cert
    assert hi == lo + 1 and lo % 2 == 0  # a matched pair absorbs two left vertices


def test_verify_disperser_trivial_subset_size():
    # floor(beta * B) == 0 leaves nothing to check
    ok, cert = verify_disperser(_cycle_graph(4), Fraction(1, 2), Fraction(1, 8))
    assert ok and cert is None


def test_verify_disperser_budget():
    with pytest.raises(BudgetExceededError):
        verify_disperser(_cycle_graph(12), Fraction(1, 4), Fraction(1, 2), budget=3)
