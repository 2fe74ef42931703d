"""Number-theoretic and combinatorial gadgets."""

from fractions import Fraction

import pytest

from svpforge.errors import BudgetExceededError
from svpforge.gadgets import (
    BipartiteBiregular,
    HadamardMatrix,
    ReducedVandermonde,
    first_singular_submatrix,
    hadamard,
    hadamard_gram_ok,
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


def test_kernel_search_budget():
    vm = reduced_vandermonde(13, 3)
    with pytest.raises(BudgetExceededError):
        search_kernel_support_counterexample(vm, 3, 5, budget=10)


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


def test_hadamard_gram_rejects_doctored():
    h = HadamardMatrix(1, ((1, 1), (1, 1)))
    assert not hadamard_gram_ok(h)


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
