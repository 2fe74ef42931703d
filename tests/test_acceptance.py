"""Acceptance gate: ten end-to-end criteria, each a single test.

Every check is exact (integer or rational arithmetic); regression constants
marked PINNED were computed by independent brute-force oracles and must never
drift.  Each test prints one PASS line for log readability under -s.
"""

import itertools
import random
from fractions import Fraction

import pytest

from svpforge import basisio
from svpforge.cli import main
from svpforge.csp import evaluate, max_sat_bruteforce, parse_csp, validate_regular
from svpforge.gadgets import (
    BipartiteBiregular,
    first_singular_submatrix,
    hadamard,
    hadamard_gram_ok,
    is_prime,
    reduced_vandermonde,
    search_kernel_support_counterexample,
    verify_disperser,
)
from svpforge.regularize import RegularizeParams, build_disperser, regularize
from svpforge.verifier import (
    apply_coefficients,
    enumerate_box,
    extract_assignment,
    holder_check,
    structural_facts,
    witness_from_assignment,
)

from conftest import DATA

# PINNED regression constants (independent brute-force oracles, desk scale)
TOY1_MIN_POWER = 8  # min of ||v*G||_3**3 over nonzero v in {-1,0,1}**3
TOY_UNSAT_MIN_POWER = 32  # same box on the unsatisfiable twin
TOY_UNSAT_REGULARIZED_MAXSAT = Fraction(1, 2)
THRESHOLD_POWER = 13  # N' for the explicit toy profile at p=3
SCALE = 10**6


def _box_oracle(inst):
    """Brute-force min of ||v*G||_p**p over all nonzero v in {-1,0,1}**rows."""
    p = inst.profile.p
    best = None
    for v in itertools.product((-1, 0, 1), repeat=inst.num_rows):
        if not any(v):
            continue
        image = apply_coefficients(v, inst.rows, inst.num_cols)
        power = (
            max(abs(x) for x in image)
            if p is None
            else sum(abs(x) ** p for x in image)
        )
        if best is None or power < best:
            best = power
    return best


def test_criterion_01_vandermonde_minors_exhaustive():
    pairs = 0
    for a in (n for n in range(2, 102) if is_prime(n)):
        for b in range(1, min(4, a - 1) + 1):
            vm = reduced_vandermonde(a, b)
            assert first_singular_submatrix(vm) is None, (a, b)
            pairs += 1
    assert pairs == 99
    print(f"PASS criterion 1: {pairs} (prime, width) pairs, all minors nonsingular")


def test_criterion_02_kernel_support_exhaustive():
    for a, b in ((11, 2), (13, 3)):
        vm = reduced_vandermonde(a, b)
        hit = search_kernel_support_counterexample(vm, b, 5)
        assert hit is None, f"counterexample {hit} for ({a}, {b})"
    print("PASS criterion 2: no small-support kernel vector, entries in [-5, 5]")


def test_criterion_03_hadamard_orthogonality():
    for k in range(9):
        assert hadamard_gram_ok(hadamard(k)), f"Gram check failed at k={k}"
    print("PASS criterion 3: H_k Gram identity exact for k <= 8")


def test_criterion_04_holder_fuzz():
    rng = random.Random(2024)
    for trial in range(10_000):
        n = rng.randint(1, 64)
        w = [rng.randint(-(10**6), 10**6) for _ in range(n)]
        for p in (3, 4, None):
            assert holder_check(w, p), (trial, p, w)
    print("PASS criterion 4: 10000 fuzzed vectors, zero violations at p in {3, 4, inf}")


@pytest.fixture(scope="module")
def cli_toy1_basis(tmp_path_factory):
    basis = tmp_path_factory.mktemp("acceptance") / "toy1.basis"
    code = main(
        ["reduce", str(DATA / "toy1.csp"), "--out", str(basis),
         "--p", "3", "--b-var", "1", "--b-x", "1", "--scale", str(SCALE)]
    )
    assert code == 0
    return basis


def test_criterion_05_completeness_via_cli(cli_toy1_basis, capsys):
    code = main(["witness", str(cli_toy1_basis), "--assignment", "0 0"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("witness:"))
    v = tuple(int(t) for t in line.split(":")[1].split())

    inst = basisio.load_instance(cli_toy1_basis)
    assert inst.profile.prime == 67
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    assert max(abs(x) for x in image) == 1
    power = sum(abs(x) ** 3 for x in image)
    assert power <= THRESHOLD_POWER
    print(
        f"PASS criterion 5: witness {v}, max-norm 1, power {power} <= {THRESHOLD_POWER}"
    )


def test_criterion_06_separation_pinned(toy1_reduced, unsat_reduced):
    sat_min = _box_oracle(toy1_reduced)
    unsat_min = _box_oracle(unsat_reduced)
    assert sat_min == TOY1_MIN_POWER
    assert unsat_min == TOY_UNSAT_MIN_POWER
    assert sat_min < unsat_min
    # the production enumerator agrees with the in-test oracle
    assert enumerate_box(toy1_reduced, 1).power == sat_min
    assert enumerate_box(unsat_reduced, 1).power == unsat_min
    print(
        f"PASS criterion 6: min powers {sat_min} (satisfiable) < {unsat_min} (unsatisfiable), both pinned"
    )


def test_criterion_07_structural_facts_zero_violations(toy1_reduced, unsat_reduced):
    vectors = 0
    for inst in (toy1_reduced, unsat_reduced):
        for v in itertools.product((-1, 0, 1), repeat=inst.num_rows):
            if not any(v):
                continue
            facts = structural_facts(v, inst)
            if facts.support_price_applicable:
                image = apply_coefficients(v, inst.rows, inst.num_cols)
                assert max(abs(x) for x in image) >= SCALE, v
            if facts.block_gap_applicable:
                assert facts.block_gap_holds, (v, facts.offending_blocks)
            vectors += 1
    print(f"PASS criterion 7: structural facts hold on all {vectors} box vectors")


def test_criterion_08_regularizer(toy1, toy_unsat):
    params = lambda inst: RegularizeParams.defaults(
        inst, duplication=2, spread=2, beta=Fraction(1, 2)
    )
    reg1 = regularize(toy1, params(toy1))
    report = validate_regular(reg1.instance)
    assert report.is_regular and report.handshake_holds
    lifted = reg1.lift_assignment((0, 0))
    assert evaluate(reg1.instance, lifted) == 1

    reg_bad = regularize(toy_unsat, params(toy_unsat))
    assert validate_regular(reg_bad.instance).is_regular
    best, _ = max_sat_bruteforce(reg_bad.instance)
    assert best == TOY_UNSAT_REGULARIZED_MAXSAT
    assert best < 1
    print(
        "PASS criterion 8: regular output, lifted assignment 100%, "
        f"unsatisfiable twin pinned at {best}"
    )


def test_criterion_09_disperser_certification():
    built = 0
    for a, w, beta in (
        (4, 2, Fraction(1, 2)),
        (6, 2, Fraction(1, 2)),
        (8, 2, Fraction(1, 2)),
        (4, 1, Fraction(1, 2)),
        (6, 3, Fraction(1, 2)),
    ):
        g = build_disperser(a, w, beta)
        assert g.right_size <= 12
        ok, cert = verify_disperser(g, 3 * beta**w, beta)
        assert ok and cert is None, (a, w)
        built += 1

    # a deliberately corrupted graph must fail with a violating subset
    paired = BipartiteBiregular(
        8, 8, 2, 2, tuple((i - i % 2, i - i % 2 + 1) for i in range(8))
    )
    ok, cert = verify_disperser(paired, Fraction(3, 16), Fraction(1, 4))
    assert not ok
    assert cert is not None
    absorbed = sum(
        1 for nbrs in paired.adjacency if set(nbrs) <= set(cert)
    )
    assert absorbed > Fraction(3, 16) * 8
    print(
        f"PASS criterion 9: {built} built graphs certified, corrupted graph "
        f"rejected with certificate {cert}"
    )


def test_criterion_10_extraction(toy1, toy1_reduced):
    v = witness_from_assignment(toy1_reduced, (0, 0))
    res = extract_assignment(v, toy1_reduced)
    best, _ = max_sat_bruteforce(toy1)
    assert res.fraction == 1
    assert res.fraction == best
    assert evaluate(toy1, res.assignment) == 1
    print(
        f"PASS criterion 10: extracted {res.assignment} satisfies fraction {res.fraction}"
    )
