"""Time the exact kernels on fixed workloads.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Prints best-of-N wall times.  Each determinant sweep result is checked
against the big-integer sweep, which shares no arithmetic with the float64
slope search it times; the planted row's answer lies in a later group than
the first zero the search meets, and the scaled rows' entries (10**6 at
width 3, 10**5 at width 4) stay inside the slope search's float64 bound,
though their determinants pass 2**53.  Each box enumeration
reads sparse rows and must report its pinned node count: in the dense 3^12
box every column closes at the last row, so only the bound on what the
later rows can still take off each open column prunes; the grouped one
prunes on each group's private columns the way spread blocks do, and on
each shared column before and after its last nonzero entry; and the p=3
odd-cycle basis at scale 10**6 is the 12-row unsatisfiable basis
``enumerate`` reads in the verify benchmark.  The witness search must reach
max-norm 1.  The kernel-support search must certify vm(13, 3) as given and
scaled by 2**48 and 2**58, whose bounds pass 2**53 and 2**63 (scaling keeps
the kernel), and the Gram check must pass the Hadamard matrices of orders 1
to 128.  The last column names the arithmetic each certification product
ran, as ``kernels.exact_dtype`` picked it; the box and witness searches run
in Python integers.
"""

import argparse
import random
import time

from svpforge import kernels
from svpforge.csp import Constraint, CspInstance
from svpforge.gadgets import (
    ReducedVandermonde,
    hadamard,
    hadamard_gram_ok,
    reduced_vandermonde,
    search_kernel_support_counterexample,
)
from svpforge.reduction import derive_profile, reduce_csp
from svpforge.verifier import apply_coefficients, lp_norm_power, witness_from_assignment


ARITHMETIC = {"float64": "float64", "int64": "int64", "object": "python int"}


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


def box_workloads():
    """(name, rows as (column, value) entries, p, pinned node count)."""
    rng = random.Random(9)
    rows = [[(j, x) for j in range(18) if (x := rng.randint(-3, 3))] for _ in range(12)]
    yield "box 3^12, p=3", rows, 3, 83625
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
    yield "box 3^18 grouped, max", rows, None, 6147
    yield "box odd cycle 12, p=3", odd_cycle_instance().rows, 3, 2169


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


def witness_instance():
    """20 binary constraints on scopes (i, i+1) and (i, i+2) of a 10-cycle,
    each accepting (0, 0) and (1, 1): the all-zero assignment satisfies it,
    and the witness search runs over its M = 20 selected rows."""
    n = 10
    scopes = [(i, (i + s) % n) for s in (1, 2) for i in range(n)]
    inst = CspInstance(n, 2, 2, tuple(Constraint(sc, ((0, 0), (1, 1))) for sc in scopes))
    prof = derive_profile(
        inst, p=3, mode="explicit", consistency_width=1, support_width=1, scale=10**6
    )
    return reduce_csp(inst, prof), (0,) * n


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    rows_fmt = "{:<30} {:>10}  {}"
    print(rows_fmt.format("workload", kernels.backend_name(), "arithmetic"))

    for name, rows, width in det_workloads():
        dt, result, arith = _time_products(lambda: kernels.det_sweep(rows, width), args.repeat)
        assert result == kernels._det_sweep_bigint(rows, width), name
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms", arith))

    for name, rows, p, nodes in box_workloads():
        dt, result = _time(lambda: kernels.box_minimum(rows, 1, p, 10**9), args.repeat)
        assert result[2] == nodes, f"{name}: {result[2]} nodes, pinned {nodes}"
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms", "python int"))

    out, assignment = witness_instance()
    dt, v = _time(lambda: witness_from_assignment(out, assignment), args.repeat)
    assert lp_norm_power(apply_coefficients(v, out.rows, out.num_cols), None) == 1, "witness M=20"
    print(rows_fmt.format("witness M=20", f"{dt*1e3:.1f} ms", "python int"))

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
