"""Per-layer tracing from outside the package.

``install`` wraps the public functions listed in TRACED by rebinding every
name in every loaded ``svpforge`` module that refers to them; names bound
through ``from .x import y`` (``svpforge.reduction.reduced_vandermonde``,
``svpforge.regularize.verify_disperser``, ...) are rebound too, so nested
calls are caught.  The package itself is never edited.

Each call becomes a span (name, start, end, parent).  A layer's self time is
its span minus its direct child spans.  Counters are read from the call's
arguments and result by small hooks; a hook runs inside a "trace.hook" span
so its cost is charged to no layer.  With ``memory=True`` each call of a
MEMORY function also records its tracemalloc peak above the memory in use
when it started; tracemalloc runs only while such a call is open, so the
rest of the pass keeps its speed.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from math import comb
from pathlib import Path

import refs

TRACED = {
    "cli": ("main",),
    "csp": ("parse_csp", "indicator_matrix"),
    "regularize": ("regularize", "build_disperser"),
    "gadgets": (
        "reduced_vandermonde",
        "verify_disperser",
        "search_kernel_support_counterexample",
        "hadamard_gram_ok",
    ),
    "reduction": (
        "derive_profile",
        "build_consistency_block",
        "build_support_block",
        "build_spread_block",
        "reduce_csp",
    ),
    "basisio": ("save_instance", "emit_basis", "load_instance", "parse_basis"),
    "kernels": ("box_minimum", "det_sweep"),
    "verifier": (
        "witness_from_assignment",
        "enumerate_box",
        "audit_vector",
        "extract_assignment",
    ),
}

SPANS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
MEMORY = (
    "reduction.reduce_csp",
    "gadgets.reduced_vandermonde",
    "verifier.witness_from_assignment",
    "basisio.load_instance",
)

# Per-layer metrics reported by a traced run, with units.
METRICS = {f"{name}.self_s": "s" for name in SPANS}
METRICS.update({
    "gadgets.reduced_vandermonde.rows_built": "count",
    "gadgets.vandermonde_rows_used_frac": "ratio",
    "reduction.basis_cells": "count",
    "reduction.basis_nnz": "count",
    "reduction.rows_kept_frac": "ratio",
    "reduction.max_entry_bits": "bits",
    "gadgets.verify_disperser.subsets": "count",
    "basisio.bytes_written": "bytes",
    "basisio.bytes_read": "bytes",
    "kernels.box_minimum.nodes": "count",
    "kernels.box_minimum.nodes_per_s": "1/s",
    "kernels.box_minimum.visited_frac": "ratio",
    "verifier.witness.table_entries": "count",
    "kernels.det_sweep.combos": "count",
    "kernels.det_sweep.combos_per_s": "1/s",
})
METRICS.update({f"{name}.peak_mb": "MB" for name in MEMORY})
METRICS.update({"trace.overhead_frac": "ratio", "process.cpu_s": "s"})


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self, memory: bool = False):
        self.spans = []  # [name, start, end, parent index, pass number]
        self.stack = []  # open span indices
        self.counts = defaultdict(Counter)  # pass number -> counter
        self.backends = set()
        self.pass_no = 0
        self.memory = memory
        self.peaks = Counter()  # name -> largest peak bytes of one call
        self._mem = []  # per open span: [memory at entry, largest peak seen]

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def add(self, key: str, value) -> None:
        self.counts[self.pass_no][key] += value

    def top(self, key: str, value) -> None:
        c = self.counts[self.pass_no]
        c[key] = max(c[key], value)

    def call(self, name, fn, sig, hook, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.pass_no]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        measure = self.memory and name in MEMORY
        if measure:
            if not self._mem:
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            self._mem.append([cur, 0])
            tracemalloc.reset_peak()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if measure:
                entry, seen = self._mem.pop()
                peak = max(seen, tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks[name], peak - entry)
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], peak)
                else:
                    tracemalloc.stop()
        if hook is not None:
            h = ["trace.hook", time.perf_counter(), 0.0, parent, self.pass_no]
            self.spans.append(h)
            hook(self, sig.bind(*args, **kwargs).arguments, result)
            h[2] = time.perf_counter()
        return result

    def self_times(self, pass_no: int) -> Counter:
        """Self seconds per span name within one pass."""
        child = Counter()
        for _name, t0, t1, parent, p in self.spans:
            if p == pass_no and parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _parent, p) in enumerate(self.spans):
            if p == pass_no:
                out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("pass\tname\tstart\tend\tparent\n")
            for name, t0, t1, parent, p in self.spans:
                fh.write(f"{p}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def install(tracer: Tracer):
    """Route every traced function through ``tracer``; returns an undo."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "svpforge" or n.startswith("svpforge."))
    ]
    undo = []
    for mod, fns in TRACED.items():
        owner = sys.modules[f"svpforge.{mod}"]
        for fn_name in fns:
            name = f"{mod}.{fn_name}"
            original = getattr(owner, fn_name)
            wrapper = _wrap(tracer, name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        undo.append((m, attr, original))

    def uninstall():
        for m, attr, original in undo:
            setattr(m, attr, original)

    return uninstall


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, sig, hook, args, kwargs)

    return wrapper


def _vandermonde(t, a, res):
    t.add("gadgets.reduced_vandermonde.rows_built", res.num_rows)
    if t.inside("reduction.reduce_csp"):
        t.add("vm_rows_in_reduce", res.num_rows)


def _reduce(t, a, res):
    prof = res.profile
    t.add("reduction.basis_cells", res.num_rows * res.num_cols)
    t.add("reduction.basis_nnz", sum(1 for row in res.basis for x in row if x))
    t.top("reduction.max_entry_bits", max(abs(x) for row in res.basis for x in row).bit_length())
    t.add("rows_kept", res.num_rows)
    t.add("rows_full", prof.rows_full)
    # The support block reads Vandermonde rows 1..rows_full; the consistency
    # block reads rows 1..(most rows sharing one (variable, symbol) column).
    occ = Counter(
        (x, s)
        for con, tup in res.row_provenance
        for x, s in zip(res.csp.constraints[con].variables, tup)
    )
    t.add("vm_rows_used", prof.rows_full + max(occ.values()))


def _disperser(t, a, res):
    b = a["graph"].right_size
    size = min(int(a["beta"] * b), b)
    if size > 0:
        t.add("gadgets.verify_disperser.subsets", comb(b, size))


def _save(t, a, res):
    t.add("basisio.bytes_written", sum(Path(p).stat().st_size for p in res))


def _load(t, a, res):
    basis = Path(a["basis_path"])
    sidecar = a.get("sidecar_path") or basis.with_name(basis.name + ".json")
    t.add("basisio.bytes_read", basis.stat().st_size + Path(sidecar).stat().st_size)


def _box(t, a, res):
    m, c = len(a["rows"]), a["c"]
    t.add("kernels.box_minimum.nodes", res[2])
    t.add("box_space", sum((2 * c + 1) ** d for d in range(1, m + 1)))


def _enumerate(t, a, res):
    t.backends.add(res.backend)


def _witness(t, a, res):
    t.add("verifier.witness.table_entries", 3 ** (a["inst"].csp.num_constraints // 2))


def _det(t, a, res):
    n, w = len(a["rows"]), a["width"]
    done = comb(n, w) if res is None else refs.combo_rank(res, n) + 1
    t.add("kernels.det_sweep.combos", done)


HOOKS = {
    "gadgets.reduced_vandermonde": _vandermonde,
    "reduction.reduce_csp": _reduce,
    "gadgets.verify_disperser": _disperser,
    "basisio.save_instance": _save,
    "basisio.load_instance": _load,
    "kernels.box_minimum": _box,
    "verifier.enumerate_box": _enumerate,
    "verifier.witness_from_assignment": _witness,
    "kernels.det_sweep": _det,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes, mem: Tracer) -> dict:
    """Median per traced pass of every self time and counter, plus the
    tracemalloc peaks of ``mem``."""
    rows = []
    for p in passes:
        st, c = tracer.self_times(p), tracer.counts[p]
        row = {f"{n}.self_s": st[n] for n in SPANS}
        row.update({k: c[k] for k in METRICS if k in c})
        row["gadgets.vandermonde_rows_used_frac"] = _ratio(c["vm_rows_used"], c["vm_rows_in_reduce"])
        row["reduction.rows_kept_frac"] = _ratio(c["rows_kept"], c["rows_full"])
        row["kernels.box_minimum.visited_frac"] = _ratio(c["kernels.box_minimum.nodes"], c["box_space"])
        row["kernels.box_minimum.nodes_per_s"] = _ratio(
            c["kernels.box_minimum.nodes"], st["kernels.box_minimum"])
        row["kernels.det_sweep.combos_per_s"] = _ratio(
            c["kernels.det_sweep.combos"], st["kernels.det_sweep"])
        rows.append(row)
    out = {}
    for key in METRICS:
        values = [r.get(key, 0) for r in rows]
        if key.endswith(".peak_mb"):
            out[key] = mem.peaks[key[: -len(".peak_mb")]] / 2**20
        elif values:
            out[key] = statistics.median(values)
    return out
