"""Command line front end.

Subcommands mirror the pipeline: validate, regularize, reduce, witness,
enumerate, extract, audit, selftest.  Every command is deterministic given
its arguments; commands that use randomness take an explicit --seed and
record it in their output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import basisio, kernels
from .csp import CspInstance, emit_csp, parse_csp, validate_regular
from .errors import SvpforgeError
from .gadgets import (
    ReducedVandermonde,
    first_singular_submatrix,
    hadamard,
    hadamard_gram_ok,
    reduced_vandermonde,
    search_kernel_support_counterexample,
)
from .reduction import derive_profile, reduce_csp
from .regularize import RegularizeParams, lineage_json, occurring_degrees, regularize
from .verifier import (
    DEFAULT_BOX_BUDGET,
    DEFAULT_WITNESS_BUDGET,
    apply_coefficients,
    audit_vector,
    certifying_box,
    enumerate_box,
    extract_assignment,
    holder_check,
    lp_norm_power,
    structural_facts,
    witness_from_assignment,
)

_SELFTEST_CSP = """\
csp 2 2 2 2
con 0 1
acc 0 0
acc 1 1
con 0 1
acc 0 0
"""


def _ascii(text: str, what: str) -> str:
    """``text``, refused unless it is ASCII with no '_': ``int`` and
    ``Fraction`` would also read digits outside ASCII and '_' between
    digits, which the README's text rule refuses."""
    if "_" in text or not text.isascii():
        raise SvpforgeError(f"not an ASCII {what}: {text!r}")
    return text


def _parse_int(text: str) -> int:
    """The type of every integer option."""
    try:
        return int(_ascii(text, "integer"))
    except ValueError:
        raise SvpforgeError(f"not an integer: {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    toks = _ascii(text, "integer list").replace(",", " ").split()
    if not toks:
        raise SvpforgeError("expected at least one integer")
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise SvpforgeError(f"not an integer list: {text!r}") from None


def _parse_p(text: str):
    if text in ("inf", "profile"):
        return text
    try:
        return int(_ascii(text, "norm index"))
    except ValueError:
        raise SvpforgeError(f"norm index must be an integer or 'inf': {text!r}") from None


def _parse_beta(text: str) -> Fraction:
    try:
        return Fraction(_ascii(text, "fraction"))
    except (ValueError, ZeroDivisionError):
        raise SvpforgeError(f"beta must be a fraction NUM/DEN: {text!r}") from None


def _read_csp(path: str) -> CspInstance:
    return parse_csp(Path(path).read_text())


def cmd_validate(args) -> int:
    inst = _read_csp(args.file)
    report = validate_regular(inst)
    print(
        f"ok: {inst.num_vars} variables, {inst.num_constraints} constraints, "
        f"arity {inst.arity}, alphabet {inst.alphabet_size}, soundness {inst.soundness}"
    )
    if report.is_regular:
        print(f"regular with degree {report.degree}")
    else:
        degs = ",".join(str(d) for d in sorted(set(report.degrees)))
        print(f"irregular (distinct degrees: {degs})")
    return 0


def cmd_regularize(args) -> int:
    inst = _read_csp(args.file)
    occurring_degrees(inst)  # regularize's refusal, before any default is derived
    params = RegularizeParams.defaults(
        inst, duplication=args.duplication, spread=args.spread, beta=args.beta,
        right_degree=args.right_degree,
    )
    reg = regularize(inst, params)
    out = reg.instance
    text = emit_csp(out)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if args.lineage:
        Path(args.lineage).write_text(json.dumps(lineage_json(reg), indent=2) + "\n")
        print(f"wrote {args.lineage}")
    print(
        f"regularized: {inst.num_vars} vars -> {out.num_vars}, "
        f"{inst.num_constraints} constraints -> {out.num_constraints}, "
        f"arity {inst.arity} -> {out.arity}, degree {reg.params.right_degree}"
    )
    return 0


def cmd_reduce(args) -> int:
    inst = _read_csp(args.file)
    knobs = (args.prime, args.scale, args.b_var, args.b_x)
    mode = "asymptotic-default" if knobs == (None,) * 4 else "explicit"
    prof = derive_profile(
        inst, p=args.p, mode=mode, prime=args.prime, scale=args.scale,
        consistency_width=args.b_var, support_width=args.b_x,
    )
    out = reduce_csp(inst, prof)
    basis_path, sidecar_path = basisio.save_instance(out, args.out, seed=args.seed)
    print(f"wrote {basis_path} ({out.num_rows} rows x {out.num_cols} cols)")
    print(f"wrote {sidecar_path}")
    gap = prof.gap_factor
    print(f"gap factor: floor {gap.floor()} (approx {gap.as_float():.6f})")
    pname = "inf" if prof.p is None else str(prof.p)
    print(f"threshold power: {prof.threshold_power} at p={pname}")
    return 0


def cmd_witness(args) -> int:
    inst = basisio.load_instance(args.basis)
    assignment = _parse_ints(args.assignment)
    v = witness_from_assignment(inst, assignment, budget=args.budget)
    print("witness:", " ".join(str(x) for x in v))
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    print(f"image max-norm: {lp_norm_power(image, None)}")
    return 0


def cmd_enumerate(args) -> int:
    inst = basisio.load_instance(args.basis)
    res = enumerate_box(inst, args.box, p=args.p, budget=args.budget)
    pname = "inf" if res.p is None else str(res.p)
    print(f"minimum power: {res.power} (p={pname}, box {res.box})")
    print("argmin:", " ".join(str(x) for x in res.vector))
    print(f"backend: {res.backend}, states: {res.states}")
    if res.floor is not None:
        outside = f"every vector outside box {res.box} has power >= {res.floor}"
        if res.certified:
            print(f"lattice minimum: certified, {outside}")
        else:
            k = certifying_box(inst, res.p, res.power)
            hint = f"box {k} would certify" if k else "no box floor reaches it"
            print(f"lattice minimum: not certified, {outside} < {res.power}; {hint}")
    if res.p == inst.profile.p:
        thr = inst.profile.threshold_power
        rel = "<=" if res.power <= thr else ">"
        print(f"verdict: minimum power {res.power} {rel} threshold power {thr}")
    if not res.certified:
        print(f"note: {res.caveat}")
    return 0


def cmd_extract(args) -> int:
    inst = basisio.load_instance(args.basis)
    v = _parse_ints(args.vector)
    res = extract_assignment(v, inst, seed=args.seed)
    print("assignment:", " ".join(str(x) for x in res.assignment))
    print(f"satisfied fraction: {res.fraction}")
    print(f"mode: {res.mode}, seed: {res.seed}, candidates: {res.combinations}")
    return 0


def cmd_audit(args) -> int:
    inst = basisio.load_instance(args.basis)
    v = _parse_ints(args.vector)
    report = audit_vector(v, inst)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _selftest_checks(seed: int):
    def vandermonde_minors() -> bool:
        for a in (7, 13):
            for b in range(1, 4):
                if first_singular_submatrix(reduced_vandermonde(a, b)) is not None:
                    return False
        return True

    def hadamard_gram() -> bool:
        return all(hadamard_gram_ok(hadamard(k)) for k in range(6))

    def holder_fuzz() -> bool:
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randint(1, 12)
            w = [rng.randint(-9, 9) for _ in range(n)]
            for p in (3, 4, None):
                if not holder_check(w, p):
                    return False
        return True

    def toy_pipeline() -> bool:
        inst = parse_csp(_SELFTEST_CSP)
        prof = derive_profile(
            inst, p=3, mode="explicit",
            consistency_width=1, support_width=1, scale=10**6,
        )
        out = reduce_csp(inst, prof)
        if (out.num_rows, out.num_cols) != (3, 13):
            return False
        v = witness_from_assignment(out, (0, 0))
        if v != (1, 0, -1):
            return False
        res = enumerate_box(out, 1, p="profile")
        if (res.power, res.vector) != (8, (-1, 0, 1)):
            return False
        for vec in itertools.product((-1, 0, 1), repeat=out.num_rows):
            if not any(vec):
                continue
            facts = structural_facts(vec, out)
            if facts.support_price_applicable and not facts.support_price_holds:
                return False
            if facts.block_gap_applicable and not facts.block_gap_holds:
                return False
        ext = extract_assignment(v, out)
        return ext.fraction == 1

    def kernel_differential() -> bool:
        rng = random.Random(seed + 1)
        for width in (2, 3, 4):
            rows = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(12)]
            # plant a dependent row: twice row 4, plus rows 2 and 6 as the width allows
            sources = (4, 2, 6)[: width - 1]
            rows[9] = [2 * x + sum(rest) for x, *rest in zip(*(rows[i] for i in sources))]
            singular = (
                combo
                for combo in itertools.combinations(range(len(rows)), width)
                if kernels.det_exact([rows[i] for i in combo]) == 0
            )
            if kernels.det_sweep(rows, width) != next(singular, None):
                return False
        box_rows = [
            [(j, rng.choice((-3, -2, -1, 1, 2, 3))) for j in range(5) if rng.random() < 0.6]
            for _ in range(4)
        ]
        power, vector, _states = kernels.box_minimum(box_rows, 1, 3, 10**6)
        brute = min(
            (sum(abs(x) ** 3 for x in apply_coefficients(v, box_rows, 5)), v)
            for v in itertools.product((-1, 0, 1), repeat=len(box_rows))
            if any(v)
        )
        return (power, vector) == brute

    def kernel_support() -> bool:
        # vm(13, 3) certifies over supports of size <= 3 and entries in
        # [-5, 5]; with row 11 replaced by row 9 + row 10, the first
        # counterexample is (-5, -5, 5) on the last support of size 3
        vm = reduced_vandermonde(13, 3)
        if search_kernel_support_counterexample(vm, 3, 5) is not None:
            return False
        rows = list(vm.rows)
        rows[11] = tuple(x + y for x, y in zip(rows[9], rows[10]))
        planted = ReducedVandermonde(13, 3, tuple(rows))
        if search_kernel_support_counterexample(planted, 3, 5) != (0,) * 9 + (-5, -5, 5):
            return False
        rng = random.Random(seed + 2)
        rows = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
        rows[4] = (2 * rows[1][0], 2 * rows[1][1])  # plant a support-2 kernel vector
        entries = [x for x in range(-3, 4) if x]
        hits = (
            (support, values)
            for k in (1, 2)
            for support in itertools.combinations(range(len(rows)), k)
            for values in itertools.product(entries, repeat=k)
            if not any(sum(x * rows[i][j] for x, i in zip(values, support)) for j in range(2))
        )
        support, values = next(hits)
        brute = [0] * len(rows)
        for i, x in zip(support, values):
            brute[i] = x
        doctored = ReducedVandermonde(7, 2, tuple(rows))
        return search_kernel_support_counterexample(doctored, 2, 3) == tuple(brute)

    return [
        ("vandermonde-minors", vandermonde_minors),
        ("hadamard-gram", hadamard_gram),
        ("holder-fuzz", holder_fuzz),
        ("toy-pipeline", toy_pipeline),
        ("kernel-differential", kernel_differential),
        ("kernel-support", kernel_support),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    print(f"backend: {kernels.backend_name()}, seed: {args.seed}")
    for name, fn in _selftest_checks(args.seed):
        try:
            ok = fn()
        except Exception as exc:  # a crashing check is a failing check
            print(f"FAIL {name} ({type(exc).__name__}: {exc})")
            failures += 1
            continue
        if ok:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}")
            failures += 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state between calls, each one fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="svpforge",
        description="Compile constraint satisfaction instances into gapped "
        "shortest-vector instances, and check the outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse an instance file and report its shape")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("regularize", help="rewrite an instance to uniform variable degree")
    sp.add_argument("file")
    sp.add_argument("--out", help="write the rewritten instance here (default stdout)")
    sp.add_argument("--lineage", help="write the variable/constraint lineage as JSON")
    sp.add_argument("--duplication", type=_parse_int, help="copies of each constraint")
    sp.add_argument("--spread", type=_parse_int, help="copies of each scope variable read")
    sp.add_argument("--beta", type=_parse_beta, help="disperser parameter as NUM/DEN")
    sp.add_argument("--right-degree", type=_parse_int, help="common output degree")
    sp.set_defaults(func=cmd_regularize)

    sp = sub.add_parser("reduce", help="compile an instance into a lattice basis")
    sp.add_argument("file")
    sp.add_argument("--out", required=True, help="basis output path")
    sp.add_argument("--p", type=_parse_p, default="inf", help="norm index or 'inf'")
    sp.add_argument("--b-var", dest="b_var", type=_parse_int, help="consistency block width")
    sp.add_argument("--b-x", dest="b_x", type=_parse_int, help="support block width")
    sp.add_argument("--scale", type=_parse_int, help="scaling factor for the exact blocks")
    sp.add_argument("--prime", type=_parse_int, help="modulus for the derivative gadget rows")
    sp.add_argument("--seed", type=_parse_int, default=None, help="recorded in the sidecar")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("witness", help="short vector from a satisfying assignment")
    sp.add_argument("basis")
    sp.add_argument("--assignment", required=True, help="symbols, space separated")
    sp.add_argument(
        "--budget", type=_parse_int, default=DEFAULT_WITNESS_BUDGET,
        help="most search states to enter",
    )
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("enumerate", help="exact minimum over a coefficient box")
    sp.add_argument("basis")
    sp.add_argument("--box", type=_parse_int, default=1, help="coefficient bound")
    sp.add_argument("--p", type=_parse_p, default="profile")
    sp.add_argument(
        "--budget", type=_parse_int, default=DEFAULT_BOX_BUDGET,
        help="most search states to enter",
    )
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("extract", help="round a coefficient vector to an assignment")
    sp.add_argument("basis")
    sp.add_argument("--vector", required=True, help="coefficients, space separated")
    sp.add_argument("--seed", type=_parse_int, default=0)
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("audit", help="evaluate every bound for one vector")
    sp.add_argument("basis")
    sp.add_argument("--vector", required=True)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("selftest", help="run the built-in invariant checks")
    sp.add_argument("--seed", type=_parse_int, default=0)
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SvpforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
