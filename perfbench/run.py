"""svpforge benchmark: compile, verify and certify workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

Workloads are described in workloads.py.  Each run is one process and one
closed-loop client.  After a warm-up pass it repeats the workload's job list
until ``--seconds`` would be exceeded, then prints every metric with its unit
and sample count.  The last stdout line is one JSON object:

    {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s      median wall time of SETUP_RUNS fresh processes, each from
               spawn until it has imported svpforge and written (for verify:
               compiled) the seeded inputs
  pass_s       median wall time of one pass over the job list
  peak_rss_mb  peak resident memory of this process after the passes
Both times are scaled to the reference machine speed of
workloads.calibrate(): pass_s by the calibrations run before every job of
the passes, each set-up sample by calibrations its own process runs after it
is ready, outside the timed interval.  The unscaled medians are printed too.
failed_frac (failed / attempted jobs) is printed and carried by the
"attempted" and "failed" fields.

--trace 1 spends half of ``--seconds`` on untraced passes and half on traced
passes, then one pass under tracemalloc, and reports the per-layer metrics
of tracing.py.  Spans are written to perfbench/_work/ when the run ends.

Runs refuse (exit 3, no result) when the kernel backend differs from the one
recorded in reference.json: compiled and pure kernel numbers differ 30-90x,
so runs on different backends must not be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
SETUP_CALIBRATIONS = 5
WORKLOADS = ("compile", "verify", "certify")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="svpforge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def time_setups(args, work: Path) -> list[tuple[float, float]]:
    """(wall seconds, speed scale) of fresh processes that import svpforge
    and set up.  The wall time runs from spawn to the moment the child is
    ready, on the system-wide monotonic clock both processes read."""
    samples = []
    for k in range(SETUP_RUNS):
        target = work / f"setup{k}"
        target.mkdir(parents=True)
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-into", str(target)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        shutil.rmtree(target)
        if proc.returncode != 0:
            raise SystemExit(f"setup process failed:\n{proc.stdout}{proc.stderr}")
        child = json.loads(proc.stdout.splitlines()[-1])
        samples.append((child["ready"] - t0, child["scale"]))
    return samples


def set_up_once(args, reference) -> int:
    """One timed set-up sample, run in its own process."""
    import workloads

    w = workloads.WORKLOADS[args.workload](Path(args.setup_into), args.seed, reference)
    p = workloads.Pass(calibrated=False)
    w.setup(p)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    failed = p.finish()
    for job in failed:
        print(f"FAIL {job.label}: {job.error}", file=sys.stderr)
    if failed:
        return 1
    calibration = [workloads.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    scale = workloads.CALIBRATION_S / statistics.fmean(calibration)
    print(json.dumps({"ready": ready, "scale": scale}))
    return 0


def check_backend(expected: str, seen: set[str]) -> None:
    if seen != {expected}:
        print(f"refusing to report: kernel backend {sorted(seen)} differs from the "
              f"recorded {expected!r}; numbers from different backends are not "
              "comparable", file=sys.stderr)
        raise SystemExit(3)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "svpforge" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/svpforge", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference = json.loads((HERE / "reference.json").read_text())

    if args.setup_into:
        return set_up_once(args, reference)

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setups = time_setups(args, work)
        return measure(args, reference, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, reference, work, setups) -> int:
    import svpforge.kernels
    import tracing
    import workloads

    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    w = workloads.WORKLOADS[args.workload](inputs, args.seed, reference)
    r = workloads.Runner(w)
    check_backend(reference["backend"], {svpforge.kernels.backend_name()})
    r.one("setup")
    r.one()  # warm-up pass: checked, not timed

    metrics, lines = {}, []
    if args.trace == 0:
        passes = r.loop(args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = workloads.speed_scale(passes)
        wall = [p.busy for p in passes]
        metrics = {
            "setup_s": (statistics.median(t * k for t, k in setups), "s", len(setups)),
            "pass_s": (statistics.median(wall) * scale, "s", len(passes)),
            "peak_rss_mb": (rss, "MB", 1),
        }
        q1, q3 = quartiles(wall)
        lines += [
            f"pass times are scaled by {scale:.4f} to the reference calibration speed",
            f"unscaled: setup_s {statistics.median(t for t, _k in setups):.4f} s, "
            f"pass_s {statistics.median(wall):.4f} s",
            f"pass_s quartiles {q1 * scale:.4f} .. {q3 * scale:.4f} s",
        ]
    else:
        plain = r.loop(args.seconds / 2)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = r.loop(args.seconds / 2, before_pass=lambda i: setattr(tracer, "pass_no", i))
        finally:
            undo()
        mem = tracing.Tracer(memory=True)
        undo = tracing.install(mem)
        try:
            r.one()
        finally:
            undo()
        w.backends |= tracer.backends
        layer = tracing.layer_metrics(tracer, range(len(traced)), mem)

        def scaled_median(passes):
            return statistics.median(p.busy for p in passes) * workloads.speed_scale(passes)

        layer["trace.overhead_frac"] = scaled_median(traced) / scaled_median(plain) - 1
        layer["process.cpu_s"] = statistics.median(p.cpu for p in plain)
        metrics = {k: (v, tracing.METRICS[k], 1 if k.endswith("_mb") else len(traced))
                   for k, v in layer.items()}
        metrics["process.cpu_s"] = (layer["process.cpu_s"], "s", len(plain))
        spans = HERE / "_work" / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        lines.append(f"untraced passes {len(plain)}, traced passes {len(traced)}, "
                     f"spans written to {spans.relative_to(HERE.parent)}")

    r.one("final_checks")
    check_backend(reference["backend"], {svpforge.kernels.backend_name()} | w.backends)

    failed = len(r.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  backend "
          f"{svpforge.kernels.backend_name()}  enumeration backends {sorted(w.backends)}")
    for line in lines:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} n={n}")
    print(f"  {'failed_frac':<48} {failed / r.attempted:>16.6g} ratio  "
          f"({failed} of {r.attempted} jobs)")
    for job in r.failures[:20]:
        print(f"FAIL {job.label}: {job.error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
