"""Time the compile pipeline stage by stage on a ladder of cyclic instances.

Usage: PYTHONPATH=src python3 benchmarks/bench_pipeline.py [--repeat N] [--out FILE]

Each rung is a cyclic regular CSP on N variables: M = 2N binary constraints
with scopes (i, i+1) and (i, i+2) mod N, each accepting (0, 0) and one seeded
other tuple, reduced under the default profile at p = inf.  The stages are
``parse_csp`` (of ``emit_csp``'s text, as a load parses the sidecar's
instance), ``emit_csp``, ``reduce_csp``, ``emit_basis``,
``sidecar_text``, ``save_instance``, ``load_instance``,
``witness_from_assignment`` under the all-zero assignment and
``audit_vector`` on the known short vector.  Each stage is first called once
and its output checked, which also warms the caches.  Then N rounds each
call every stage once, in turn, and the table holds each stage's median
over the rounds.  A full garbage collection and then a fixed pure-Python
loop (``calibrate``, as in perfbench) run just before every timed call, and
the call's time is scaled by CALIBRATION_S / the loop's time, so the
numbers are those of a machine on which the loop takes 10 ms; a shared
machine that slows both reads about the same, and no stage pays for
collecting an earlier stage's garbage.  The basis rows, columns and nonzeros and the median raw loop
time (``calibrate_s``) are recorded too.  After the timed rounds, a separate
pass runs each stage once under tracemalloc and records its peak, in MB
above the memory traced when the call started (tracemalloc slows
allocation, so it never runs during the timed rounds).

Where glibc's malloc is used, a stage's time also depends on the allocator
state earlier stages leave: a large freed buffer raises glibc's dynamic
mmap threshold, and later stages' large allocations then come from the heap;
and with that threshold pinned, glibc trims the heap top after each large
free, so the next stage grows the heap again.  So the script runs itself
again with ``MALLOC_MMAP_THRESHOLD_`` (32 MiB) and ``MALLOC_TRIM_THRESHOLD_``
(256 MiB) pinned when either is unset, and records both values.

Checks: the instance text parses back to the instance, the sidecar text is
``json.dumps(sidecar_json(...), indent=2)`` plus a newline, the loaded rows
are the built ones, the witness cancels the scaled columns and reaches
max-norm 1, and the known vector audits to max-norm 1 with support M.  The
basis text itself is checked against the dense ``str`` emitter by
``tests/test_cli.py``.  With ``--out`` the table is also written as JSON.
"""

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from svpforge import kernels
from svpforge.basisio import emit_basis, load_instance, save_instance, sidecar_json, sidecar_text
from svpforge.csp import Constraint, CspInstance, emit_csp, parse_csp
from svpforge.reduction import derive_profile, reduce_csp
from svpforge.verifier import apply_coefficients, audit_vector, witness_from_assignment

LADDER = (32, 128, 512, 1024)
# glibc's mmap threshold (32 MiB) and heap-top trim threshold (256 MiB)
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(256 * 2**20),
}
STAGES = ("parse_csp", "emit_csp", "reduce_csp", "emit_basis", "sidecar_text",
          "save_instance", "load_instance", "witness_from_assignment", "audit_vector")


# calibrate()'s loop copies perfbench's workloads.calibrate, and every time is
# scaled to a machine on which it takes CALIBRATION_S: on a shared machine the
# loop slows with the stages, so a scaled time moves less than a raw one.
CALIBRATION_S = 0.010


def calibrate():
    """Seconds taken by a fixed pure-Python loop of integer arithmetic and
    tuple and dict churn, the kind of work the pure backend does."""
    t0 = time.perf_counter()
    d = {}
    for i in range(16000):
        k = (i % 97, i * i % 101)
        d[k] = d.get(k, 0) + pow(i, 3, 65537)
    return time.perf_counter() - t0


def _time_alternated(stages, repeat):
    """Median calibrated seconds of each stage over ``repeat`` rounds; every
    round calls each stage once, in turn, with a full collection and then
    calibrate() run just before the call, and the call's time scaled by
    CALIBRATION_S / that run.  Also returns the median calibrate() time,
    unscaled."""
    samples = {name: [] for name in stages}
    calibration = []
    for _ in range(repeat):
        for name, fn in stages.items():
            gc.collect()  # an earlier call's garbage is not collected in this one
            cal = calibrate()
            t0 = time.perf_counter()
            fn()  # dropped at once: one large result alive at a time
            dt = time.perf_counter() - t0
            calibration.append(cal)
            samples[name].append(dt * CALIBRATION_S / cal)
    medians = {name: statistics.median(ts) for name, ts in samples.items()}
    return medians, statistics.median(calibration)


def cyclic_instance(n):
    """The cyclic regular CSP on n variables and its known short vector:
    +1 on the (0, 0) row of every step-1 constraint, -1 on that of every
    step-2 constraint, 0 on the other rows."""
    rng = random.Random(n)
    scopes = [(i, (i + s) % n) for s in (1, 2) for i in range(n)]
    others = [(0, 1), (1, 0), (1, 1)]
    cons = tuple(Constraint(sc, ((0, 0), rng.choice(others))) for sc in scopes)
    vec = tuple(x for t in range(2 * n) for x in ((1 if t < n else -1), 0))
    return CspInstance(n, 2, 2, cons), vec


def _peak_mb(fn):
    """Tracemalloc peak of one call of fn, in MB; tracing starts with the
    call, so memory held before it is not counted."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def bench_rung(n, repeat, workdir):
    csp, vec = cyclic_instance(n)
    prof = derive_profile(csp, p=None)
    path = Path(workdir) / f"c{n}.basis"
    row = {"n": n}

    # one checked call of each stage first, which also warms the caches
    csp_text = emit_csp(csp)
    assert parse_csp(csp_text) == csp, f"N={n}: the instance text does not parse back to the instance"
    out = reduce_csp(csp, prof)
    row["rows"], row["cols"] = out.num_rows, out.num_cols
    row["nnz"] = sum(map(len, out.rows))
    sidecar = sidecar_text(out, path.name)
    expected = json.dumps(sidecar_json(out, path.name), indent=2) + "\n"
    assert sidecar == expected, f"N={n}: sidecar_text is not json.dumps of sidecar_json"
    row["text_bytes"] = len(emit_basis(out.rows, out.num_cols))
    save_instance(out, path)
    assert load_instance(path).rows == out.rows, f"N={n}: loaded basis differs"
    wit = witness_from_assignment(out, (0,) * n)
    image = apply_coefficients(wit, out.rows, out.num_cols)
    scaled = image[out.consistency_span[0] : out.support_span[1]]
    assert not any(scaled), f"N={n}: witness leaves a scaled column nonzero"
    assert max(map(abs, image)) == 1, f"N={n}: witness image max-norm is not 1"
    report = audit_vector(vec, out)
    assert report.max_abs == 1 and report.support == 2 * n, f"N={n}: audit {report}"

    stages = {
        "parse_csp": lambda: parse_csp(csp_text),
        "emit_csp": lambda: emit_csp(csp),
        "reduce_csp": lambda: reduce_csp(csp, prof),
        "emit_basis": lambda: emit_basis(out.rows, out.num_cols),
        "sidecar_text": lambda: sidecar_text(out, path.name),
        "save_instance": lambda: save_instance(out, path),
        "load_instance": lambda: load_instance(path),
        "witness_from_assignment": lambda: witness_from_assignment(out, (0,) * n),
        "audit_vector": lambda: audit_vector(vec, out),
    }
    medians, row["calibrate_s"] = _time_alternated(stages, repeat)
    row.update(medians)
    row["peak_mb"] = {name: _peak_mb(fn) for name, fn in stages.items()}
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="alternated timing rounds")
    parser.add_argument("--out", type=Path, help="also write the table as JSON here")
    args = parser.parse_args()
    if not MALLOC_ENV.keys() <= os.environ.keys():
        # fixed, so that no stage moves glibc's thresholds for the later ones;
        # a value already set is kept
        env = {**MALLOC_ENV, **os.environ}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    fmt = "{:>5} {:>14} {:>8}" + " {:>17}" * len(STAGES)
    print(fmt.format("N", "rows x cols", "nnz", *STAGES))
    rungs = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in LADDER:
            row = bench_rung(n, args.repeat, workdir)
            rungs.append(row)
            times = [f"{row[s] * 1e3:.1f} ms" for s in STAGES]
            print(fmt.format(n, f"{row['rows']} x {row['cols']}", row["nnz"], *times))
            peaks = [f"{row['peak_mb'][s]:.1f} MB" for s in STAGES]
            print(fmt.format("", "tracemalloc peak", "", *peaks))

    if args.out:
        payload = {
            "script": "benchmarks/bench_pipeline.py",
            "repeat": args.repeat,
            "backend": kernels.backend_name(),
            "python": platform.python_version(),
            "calibration_s": CALIBRATION_S,
            "malloc_mmap_threshold": os.environ["MALLOC_MMAP_THRESHOLD_"],
            "malloc_trim_threshold": os.environ["MALLOC_TRIM_THRESHOLD_"],
            "unit": (
                "s, median of repeat alternated rounds, each call scaled by "
                "calibration_s / calibrate() run before it; calibrate_s: s, median "
                "calibrate(), unscaled; peak_mb: MB, one call under tracemalloc"
            ),
            "rungs": rungs,
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
