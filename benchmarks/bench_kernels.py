"""Time the exact kernels on fixed workloads.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Prints best-of-N wall times.  Each determinant sweep result is checked
against the big-integer sweep, which shares no arithmetic with the int64
suffix-product path it times.
"""

import argparse
import random
import time

from svpforge import kernels
from svpforge.gadgets import reduced_vandermonde


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


def box_workload():
    rng = random.Random(9)
    rows = [[rng.randint(-3, 3) for _ in range(18)] for _ in range(12)]
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    rows_fmt = "{:<24} {:>12}"
    print(rows_fmt.format("workload", kernels.backend_name()))

    for name, rows, width in det_workloads():
        dt, result = _time(lambda: kernels.det_sweep(rows, width), args.repeat)
        assert result == kernels._det_sweep_bigint(rows, width), name
        print(rows_fmt.format(name, f"{dt*1e3:.1f} ms"))

    rows = box_workload()
    loose = list(range(len(rows[0])))
    dt, result = _time(
        lambda: kernels.box_minimum(rows, 1, 3, [], loose, 10**9), args.repeat
    )
    print(rows_fmt.format("box minimum 3^12, p=3", f"{dt*1e3:.1f} ms"))
    print(f"\nbox nodes visited: {result[2]}")


if __name__ == "__main__":
    main()
