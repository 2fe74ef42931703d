"""Time the exact kernels on fixed workloads.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Prints best-of-N wall times.  Each determinant sweep result is checked
against an oracle that shares no arithmetic with the float64 slope search
it times: the big-integer sweep below 10**5 combinations, and above it
every determinant modulo a prime below 2**31 in int64, each zero residue
confirmed exactly.  The planted row's answer lies in a later group than
the first zero the search meets, and the scaled rows' entries (10**6 at
width 3, 10**5 at width 4) stay inside the slope search's float64 bound,
though their determinants pass 2**53.  Each box enumeration reads sparse
rows and must report its pinned minimum and a state count that is its
exact budget (the search passes with it and refuses with one less): in the
dense 3^12 box every column closes at the last row, so only the bound on
what the later rows can still take off each open column prunes; the
grouped one prunes on each group's private columns the way spread blocks
do, and on each shared column before and after its last nonzero entry; and
the p=3 odd-cycle basis at scale 10**6 is the 12-row unsatisfiable basis
``enumerate`` reads in the verify benchmark.  Each witness must reach
max-norm 1 and report a state count that is its exact budget the same way:
on M = 20 rows that each close a column at once, and on ``bench_pipeline``'s
cyclic N=8 rung at support width 3, where open support columns let it enter
1,731 states.  The Vandermonde row build must give vm(101, 4) and
vm(211, 3), each built afresh, as the ``pow`` definition ``i**j mod a``
does.  The kernel-support search must certify vm(13, 3) as given and scaled
by 2**48 and 2**58, whose bounds pass 2**53 and 2**63 (scaling keeps the
kernel), and the Gram check must pass the Hadamard matrices of orders 1 to
128.  The last column names the arithmetic each certification product
ran, as ``kernels.exact_dtype`` picked it; the box and witness searches run
in Python integers.
"""

import argparse
import itertools
import math
import random
import time

import numpy as np

from svpforge import kernels
from svpforge.csp import Constraint, CspInstance
from svpforge.errors import BudgetExceededError
from svpforge.gadgets import (
    ReducedVandermonde,
    hadamard,
    hadamard_gram_ok,
    reduced_vandermonde,
    search_kernel_support_counterexample,
)
from svpforge.reduction import derive_profile, reduce_csp
from svpforge.verifier import apply_coefficients, lp_norm_power, witness_from_assignment

import bench_pipeline


ARITHMETIC = {"float64": "float64", "int64": "int64", "object": "python int"}

# A prime below 2**31: a product of two residues stays below 2**62, in int64.
ORACLE_PRIME = 2**31 - 1


def _time(fn, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def _time_products(fn, repeat):
    """_time(fn, repeat), plus the arithmetic ``kernels.exact_dtype`` picked
    for fn's products, each name once in order of first use."""
    seen = []
    real = kernels.exact_dtype

    def spy(bound):
        seen.append(real(bound))
        return seen[-1]

    kernels.exact_dtype = spy
    try:
        dt, result = _time(fn, repeat)
    finally:
        kernels.exact_dtype = real
    return dt, result, "+".join(ARITHMETIC[name] for name in dict.fromkeys(seen))


def _time_states(fn, repeat):
    """_time(fn, repeat), plus the state count of the last
    ``kernels.frontier_search`` call fn made."""
    states = []
    real = kernels.frontier_search

    def spy(*args):
        result = real(*args)
        states.append(result[2])
        return result

    kernels.frontier_search = spy
    try:
        dt, result = _time(fn, repeat)
    finally:
        kernels.frontier_search = real
    return dt, result, states[-1]


def det_workloads():
    for prime, width in ((101, 3), (101, 4), (211, 3)):
        vm = reduced_vandermonde(prime, width)
        yield f"det sweep ({prime}, {width})", vm.rows, width
    # rows 100 = 3 + 4 + 5 and 101 = 0 + 7 + 8: the sweep meets (3, 4, 5, 100)
    # in the group of last prefix row 4, but the answer is (0, 7, 8, 101),
    # three groups later
    rows = reduced_vandermonde(101, 4).rows
    planted = [tuple(map(sum, zip(*(rows[i] for i in idx)))) for idx in ((3, 4, 5), (0, 7, 8))]
    yield "det sweep (101, 4) planted", rows + tuple(planted), 4
    # entries up to 10**6 and 10**5: width * (width-2)! * max|entry|**(width-1)
    # is 3e12 and 8e15, below 2**53
    for prime, width, scale in ((101, 3, 4), (101, 4, 3)):
        rows = reduced_vandermonde(prime, width).rows
        yield (f"det sweep ({prime}, {width}) x10^{scale}",
               tuple(tuple(10**scale * x for x in r) for r in rows), width)


def det_oracle(rows, width):
    """The first singular width-row combination, or None: the big-integer
    sweep below 10**5 combinations, ``first_singular_mod`` above."""
    if math.comb(len(rows), width) < 10**5:
        return kernels._det_sweep_bigint(rows, width)
    return first_singular_mod(rows, width)


def _minors_mod(rows, size):
    """Every 1x1 or 2x2 minor of ``rows`` modulo ORACLE_PRIME: row
    combinations by column subsets, both in lexicographic order."""
    arr = np.array([[x % ORACLE_PRIME for x in r] for r in rows], dtype=np.int64)
    if size == 1:
        return arr
    i, j = np.triu_indices(len(rows), 1)
    cols = itertools.combinations(range(arr.shape[1]), 2)
    return np.stack(
        [(arr[i, a] * arr[j, b] - arr[i, b] * arr[j, a] % ORACLE_PRIME) % ORACLE_PRIME
         for a, b in cols], axis=1)


def first_singular_mod(rows, width):
    """The first width-row combination (width 3 or 4) whose determinant is
    exactly zero, or None.  Every determinant is formed modulo ORACLE_PRIME
    in int64, by Laplace expansion along its first width - 2 rows against
    the 2x2 minors of its last two; each zero residue is confirmed with
    ``kernels.det_exact``.  Head combinations go in lexicographic order, and
    the row pairs after each in theirs, so the first confirmed zero is the
    first singular combination."""
    n, head = len(rows), width - 2
    heads, pairs = _minors_mod(rows, head), _minors_mod(rows, 2)
    pair_k, pair_l = np.triu_indices(n, 1)
    # the pairs (k, l) with k >= r start at index after[r]
    after = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1)), [len(pair_k)]))
    pair_cols = {c: t for t, c in enumerate(itertools.combinations(range(width), 2))}
    terms = []
    for s, cols in enumerate(itertools.combinations(range(width), head)):
        rest = tuple(c for c in range(width) if c not in cols)
        sign = (-1) ** (head * (head + 1) // 2 + sum(c + 1 for c in cols))
        terms.append((s, pair_cols[rest], sign))
    for h, lead in enumerate(itertools.combinations(range(n), head)):
        first = after[lead[-1] + 1]
        det = np.zeros(len(pair_k) - first, dtype=np.int64)
        for s, t, sign in terms:
            det += sign * (heads[h, s] * pairs[first:, t] % ORACLE_PRIME)
        for z in np.flatnonzero(det % ORACLE_PRIME == 0).tolist():
            combo = lead + (int(pair_k[first + z]), int(pair_l[first + z]))
            if kernels.det_exact([rows[r] for r in combo]) == 0:
                return combo
    return None


def box_workloads():
    """(name, rows as (column, value) entries, p, pinned minimum)."""
    rng = random.Random(9)
    rows = [[(j, x) for j in range(18) if (x := rng.randint(-3, 3))] for _ in range(12)]
    yield "box 3^12, p=3", rows, 3, 122
    # six groups of three rows with four private +-1 columns each, as in a
    # spread block, plus seven shared columns
    rng = random.Random(3)
    ngroups, size, private, nshared = 6, 3, 4, 7
    rows = []
    for g in range(ngroups):
        c0 = nshared + g * private
        for _ in range(size):
            shared = [(j, x) for j in range(nshared) if (x := rng.randint(-2, 2))]
            rows.append(shared + [(j, rng.choice((-1, 1))) for j in range(c0, c0 + private)])
    yield "box 3^18 grouped, max", rows, None, 1
    yield "box odd cycle 12, p=3", odd_cycle_instance().rows, 3, 8


def odd_cycle_instance():
    """The unsatisfiable "not equal" instance on a 3-cycle, with step-1 and
    step-2 scopes: 12 rows at p=3 and scale 10**6, whose p-th power
    totals pass int64 (the box search runs on Python integers)."""
    n = 3
    scopes = [(i, (i + s) % n) for s in (1, 2) for i in range(n)]
    inst = CspInstance(n, 2, 2, tuple(Constraint(sc, ((0, 1), (1, 0))) for sc in scopes))
    prof = derive_profile(
        inst, p=3, mode="explicit", consistency_width=1, support_width=1, scale=10**6
    )
    return reduce_csp(inst, prof)


def witness_workloads():
    """(name, reduced instance, satisfying assignment).  The first is 20
    binary constraints on scopes (i, i+1) and (i, i+2) of a 10-cycle, each
    accepting (0, 0) and (1, 1); the second is ``bench_pipeline``'s cyclic
    N=8 rung at support width 3.  The all-zero assignment satisfies both."""
    n = 10
    scopes = [(i, (i + s) % n) for s in (1, 2) for i in range(n)]
    inst = CspInstance(n, 2, 2, tuple(Constraint(sc, ((0, 0), (1, 1))) for sc in scopes))
    cyclic, _vec = bench_pipeline.cyclic_instance(8)
    for name, csp, width in (("witness M=20", inst, 1), ("witness cyclic 8, b_x=3", cyclic, 3)):
        prof = derive_profile(
            csp, p=3, mode="explicit", consistency_width=1, support_width=width, scale=10**6
        )
        yield name, reduce_csp(csp, prof), (0,) * csp.num_vars


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    rows_fmt = "{:<30} {:>10}  {}"
    print(rows_fmt.format("workload", kernels.backend_name(), "arithmetic"))

    for name, rows, width in det_workloads():
        dt, result, arith = _time_products(lambda: kernels.det_sweep(rows, width), args.repeat)
        assert result == det_oracle(rows, width), name
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms", arith))

    for name, rows, p, power in box_workloads():
        dt, result = _time(lambda: kernels.box_minimum(rows, 1, p, 10**9), args.repeat)
        assert result[0] == power, f"{name}: minimum {result[0]}, pinned {power}"
        states = result[2]
        assert kernels.box_minimum(rows, 1, p, states) == result, name
        try:
            kernels.box_minimum(rows, 1, p, states - 1)
        except BudgetExceededError:
            pass
        else:
            raise AssertionError(f"{name}: a budget of {states - 1} states did not refuse")
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms", f"python int, {states} states"))

    for name, out, assignment in witness_workloads():
        dt, v, states = _time_states(lambda: witness_from_assignment(out, assignment), args.repeat)
        assert lp_norm_power(apply_coefficients(v, out.rows, out.num_cols), None) == 1, name
        assert witness_from_assignment(out, assignment, states) == v, name
        try:
            witness_from_assignment(out, assignment, states - 1)
        except BudgetExceededError:
            pass
        else:
            raise AssertionError(f"{name}: a budget of {states - 1} states did not refuse")
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms", f"python int, {states} states"))

    shapes = ((101, 4), (211, 3))
    dt, built = _time(lambda: [reduced_vandermonde(a, b).rows for a, b in shapes], args.repeat)
    assert built == [tuple(tuple(pow(i, j, a) for j in range(b)) for i in range(1, a))
                     for a, b in shapes], "vandermonde rows"
    print(rows_fmt.format("vandermonde rows", f"{dt*1e3:.2f} ms", "python int"))

    rows = reduced_vandermonde(13, 3).rows
    for name, scale in (("", 1), (" x2^48", 2**48), (" x2^58", 2**58)):
        vm = ReducedVandermonde(13, 3, tuple(tuple(scale * x for x in r) for r in rows))
        dt, hit, arith = _time_products(
            lambda: search_kernel_support_counterexample(vm, 3, 5), args.repeat
        )
        assert hit is None, f"kernel support vm(13,3){name}: counterexample {hit}"
        print(rows_fmt.format(f"kernel support vm(13,3){name}", f"{dt*1e3:.1f} ms", arith))

    dt, oks, arith = _time_products(
        lambda: [hadamard_gram_ok(hadamard(k)) for k in range(8)], args.repeat
    )
    assert all(oks), f"hadamard gram k<=7: {oks}"
    print(rows_fmt.format("hadamard gram k<=7", f"{dt*1e3:.1f} ms", arith))


if __name__ == "__main__":
    main()
