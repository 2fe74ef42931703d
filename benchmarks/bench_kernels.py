"""Time the exact kernels on fixed workloads.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Prints best-of-N wall times.  Each determinant sweep result is checked
against the big-integer sweep, which shares no arithmetic with the grouped
float64 or int64 products it times; the planted row's answer lies in a
later group than the first zero the sweep meets, and the scaled row's
products pass the float64 bound and run in int64.  Each box enumeration
reads sparse rows and must report its pinned node count: in the dense 3^12
box every column closes at the last row, so nothing is pruned; the grouped
one prunes on each group's private columns the way spread blocks do, and on
each shared column after its last nonzero entry; and the p=3 odd-cycle
basis at scale 10**6 runs the leaf block on Python integers until its best
leaf allows clipped int64 totals.  The witness search must
reach max-norm 1 and the kernel-support search must certify its matrix.
"""

import argparse
import random
import time

from svpforge import kernels
from svpforge.csp import Constraint, CspInstance
from svpforge.gadgets import reduced_vandermonde, search_kernel_support_counterexample
from svpforge.reduction import derive_profile, reduce_csp
from svpforge.verifier import apply_coefficients, lp_norm_power, witness_from_assignment


def _time(fn, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


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
    # entries up to 10**6: the products pass the float64 bound and run in int64
    rows = reduced_vandermonde(101, 3).rows
    yield "det sweep (101, 3) x10^4", tuple(tuple(10**4 * x for x in r) for r in rows), 3


def box_workloads():
    """(name, rows as (column, value) entries, p, pinned node count)."""
    rng = random.Random(9)
    rows = [[(j, x) for j in range(18) if (x := rng.randint(-3, 3))] for _ in range(12)]
    yield "box 3^12, p=3", rows, 3, 797160
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
    yield "box 3^18 grouped, max", rows, None, 127764
    yield "box odd cycle 12, p=3", odd_cycle_instance().rows, 3, 3807


def odd_cycle_instance():
    """The unsatisfiable "not equal" instance on a 3-cycle, with step-1 and
    step-2 scopes: 12 rows at p=3 and scale 10**6, whose box search starts
    on Python integers and finishes on the clipped int64 leaf block."""
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
    and its collision search covers 3^10 sign combinations per half."""
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

    rows_fmt = "{:<28} {:>12}"
    print(rows_fmt.format("workload", kernels.backend_name()))

    for name, rows, width in det_workloads():
        dt, result = _time(lambda: kernels.det_sweep(rows, width), args.repeat)
        assert result == kernels._det_sweep_bigint(rows, width), name
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms"))

    for name, rows, p, nodes in box_workloads():
        dt, result = _time(lambda: kernels.box_minimum(rows, 1, p, 10**9), args.repeat)
        assert result[2] == nodes, f"{name}: {result[2]} nodes, pinned {nodes}"
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms"))

    out, assignment = witness_instance()
    dt, v = _time(lambda: witness_from_assignment(out, assignment), args.repeat)
    assert lp_norm_power(apply_coefficients(v, out.rows, out.num_cols), None) == 1, "witness 3^10"
    print(rows_fmt.format("witness 3^10", f"{dt*1e3:.1f} ms"))

    vm = reduced_vandermonde(13, 3)
    dt, hit = _time(lambda: search_kernel_support_counterexample(vm, 3, 5), args.repeat)
    assert hit is None, f"kernel support vm(13,3): counterexample {hit}"
    print(rows_fmt.format("kernel support vm(13,3)", f"{dt*1e3:.1f} ms"))


if __name__ == "__main__":
    main()
