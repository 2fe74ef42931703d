"""Profile derivation and basis assembly."""

import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svpforge import reduction
from svpforge.basisio import load_instance, save_instance, sidecar_json, sidecar_text
from svpforge.csp import Constraint, CspInstance, indicator_matrix, parse_csp
from svpforge.errors import BudgetExceededError, ProfileError, SvpforgeError
from svpforge.gadgets import hadamard, hadamard_row, reduced_vandermonde
from svpforge.reduction import (
    GapFactor,
    ReductionProfile,
    build_spread_block,
    derive_profile,
    normalize_p,
    reduce_csp,
    tuple_rank,
)

from conftest import explicit_profile

SCALE = 10**6


def test_normalize_p():
    assert normalize_p(None) is None
    assert normalize_p("inf") is None
    assert normalize_p(float("inf")) is None
    assert normalize_p(3) == 3
    with pytest.raises(ProfileError):
        normalize_p(0)
    with pytest.raises(ProfileError):
        normalize_p(2.5)


def test_normalize_p_refuses_indices_past_the_largest():
    # a huge p would make every exact power too large to form
    assert normalize_p(reduction.MAX_NORM_INDEX) == reduction.MAX_NORM_INDEX
    for p in (reduction.MAX_NORM_INDEX + 1, 10**18):
        with pytest.raises(ProfileError, match="use 1 to 64, or 'inf'"):
            normalize_p(p)


def test_gap_factor_exact_comparisons():
    g = GapFactor(Fraction(2), Fraction(1, 300))
    # 2**(300/300) == 2, strictly between 1 and 3
    assert g.cmp_power(2, 1, Fraction(300)) == 0
    assert g.cmp_power(1, 1, Fraction(300)) < 0
    assert g.cmp_power(3, 1, Fraction(300)) > 0
    # 2**(1/300) is itself strictly between 1 and 2
    assert g.cmp_power(1, 1) < 0
    assert g.cmp_power(2, 1) > 0
    assert g.floor() == 1
    assert 1.0 < g.as_float() < 1.01


def test_gap_factor_trivial_base():
    g = GapFactor(Fraction(1), Fraction(1, 50))
    assert g.cmp_power(1, 1) == 0
    assert g.floor() == 1


def _linear_floor(g):
    """The gap factor's floor by counting up one integer at a time."""
    n = 1
    while g.cmp_power(n + 1, 1) <= 0:
        n += 1
    return n


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 12),
    st.integers(0, 3),
    st.integers(1, 8),
)
def test_gap_factor_floor_is_the_linear_count(num, den, en, ed):
    assume(num >= den)
    g = GapFactor(Fraction(num, den), Fraction(en, ed))
    assert g.floor() == _linear_floor(g)


@pytest.mark.parametrize("zeros", [300, 400, 1000])
def test_gap_factor_floor_of_a_small_soundness_is_quick(zeros):
    # 10**(zeros/100): counting up to it took 0.5 s at 500 zeros
    g = GapFactor(Fraction(10**zeros), Fraction(1, 100))
    start = time.perf_counter()
    assert g.floor() == 10 ** (zeros // 100)
    assert time.perf_counter() - start < 0.5
    assert g.as_float() == pytest.approx(10 ** (zeros / 100))


def test_gap_factor_past_the_float_range_is_refused():
    # float(10**400) overflows, and so does the value itself
    g = GapFactor(Fraction(10**400), Fraction(1))
    with pytest.raises(ProfileError, match="exceeds the float range"):
        g.as_float()
    with pytest.raises(ProfileError, match="exceeds the float range"):
        g.floor()


def test_gap_factor_floor_at_the_largest_float():
    # the float bracket around the largest float must not round to inf
    top = int(sys.float_info.max)
    assert GapFactor(Fraction(top), Fraction(1)).floor() == top


def test_explicit_profile_values(toy1):
    prof = explicit_profile(toy1)
    assert prof.p == 3
    assert prof.prime == 67
    assert prof.scale == SCALE
    assert prof.consistency_width == 1
    assert prof.support_width == 1
    assert prof.rows_full == 8
    assert prof.consistency_cols == 4
    assert prof.support_cols == 1
    assert prof.spread_cols == 8
    assert prof.nprime == 13
    assert prof.padded_alphabet == 2
    assert prof.threshold_power == 13


def test_asymptotic_profile_values(toy1):
    prof = derive_profile(toy1, p="inf")
    assert prof.p is None
    assert prof.mode == "asymptotic-default"
    # log-cube of M=2 is 1, so widths equal degree and constraint count
    assert prof.consistency_width == 2
    assert prof.support_width == 2
    assert prof.scale == 64  # (M * SIGMA**q * ceil(1/s))**2 = (8 * 1)**2
    assert prof.prime == 67  # least prime >= (M * SIGMA**q)**2 = 64
    assert prof.nprime == 2 * 2 * 2 + 2 + 8
    assert prof.threshold_power == 1


def test_gap_factor_of_tagged_instance(toy_unsat):
    prof = explicit_profile(toy_unsat)
    gap = prof.gap_factor
    assert gap.base == 2  # 1 / (1/2)
    assert gap.exponent == Fraction(1, 300)  # (1/2 - 1/3) / (25 * 2)
    prof_inf = explicit_profile(toy_unsat, p="inf")
    assert prof_inf.gap_factor.exponent == Fraction(1, 100)  # 1 / (50 * 2)


def test_profile_rejections(toy1):
    with pytest.raises(ProfileError):
        derive_profile(toy1, p=2)  # finite p below 3
    with pytest.raises(ProfileError):
        derive_profile(toy1, mode="bogus")
    irregular = parse_csp("csp 3 2 2 2\ncon 0 1\nacc 0 0\ncon 0 2\nacc 0 0\n")
    with pytest.raises(ProfileError):
        derive_profile(irregular)
    unary = parse_csp("csp 1 1 1 2\ncon 0\nacc 0\n")
    with pytest.raises(ProfileError):
        derive_profile(unary)
    with pytest.raises(ProfileError):
        derive_profile(toy1, prime=10)  # composite override
    with pytest.raises(ProfileError):
        derive_profile(toy1, consistency_width=3)  # exceeds degree 2


def test_an_irregular_profile_names_the_distinct_degrees():
    # one constraint over 1,000 variables: the message names degrees 0 and 1,
    # not a tuple with an entry per variable
    spread = parse_csp("csp 1000 1 2 2\ncon 0 1\nacc 0 0\n")
    with pytest.raises(ProfileError) as exc:
        derive_profile(spread)
    assert str(exc.value) == "instance is irregular (distinct degrees: 0,1)"


def test_tuple_rank():
    assert tuple_rank((0, 0), 2) == 0
    assert tuple_rank((1, 0), 2) == 2
    assert tuple_rank((1, 1), 2) == 3
    assert tuple_rank((2, 1), 3) == 7


def test_reduce_toy1_pinned_basis(toy1_reduced):
    inst = toy1_reduced
    assert inst.num_rows == 3
    assert inst.num_cols == 13
    assert inst.row_provenance == ((0, (0, 0)), (0, (1, 1)), (1, (0, 0)))
    s = SCALE
    assert inst.basis == (
        (s, 0, s, 0, s, 1, -1, -1, 1, 0, 0, 0, 0),
        (0, s, 0, s, s, 1, 1, 1, 1, 0, 0, 0, 0),
        (s, 0, s, 0, s, 0, 0, 0, 0, 1, -1, -1, 1),
    )


def test_reduce_cost_does_not_grow_with_the_prime(toy1, toy1_reduced):
    # With unit widths every Vandermonde entry is 1, so a huge prime leaves the
    # basis unchanged.  Reading only the rows the blocks use keeps this instant;
    # building every row of the matrix would take 10**9 rows.
    prof = derive_profile(
        toy1, p=3, mode="explicit",
        consistency_width=1, support_width=1, scale=SCALE, prime=1_000_000_007,
    )
    start = time.perf_counter()
    out = reduce_csp(toy1, prof)
    assert time.perf_counter() - start < 2.0
    assert out.basis == toy1_reduced.basis
    assert out.row_provenance == toy1_reduced.row_provenance


def test_reduce_unsat_shape(unsat_reduced):
    inst = unsat_reduced
    assert inst.num_rows == 4
    assert inst.row_provenance == (
        (0, (0, 1)),
        (0, (1, 0)),
        (1, (0, 0)),
        (1, (1, 1)),
    )


def test_spans_and_groups(toy1_reduced):
    inst = toy1_reduced
    assert inst.consistency_span == (0, 4)
    assert inst.support_span == (4, 5)
    assert inst.spread_span == (5, 13)
    # variable 1's symbol 0 owns consistency column (1 * 2 + 0) * 1, and
    # constraint 1 owns the second run of 4 spread columns
    prof = inst.profile
    assert (1 * prof.alphabet_size + 0) * prof.consistency_width == 2
    per = prof.spread_cols_per_constraint
    assert per == 4
    assert inst.spread_span[0] + 1 * per == 9


def test_spread_block_padding():
    # alphabet 3 pads to 4, so each constraint owns 16 spread columns
    inst = parse_csp(
        "csp 2 2 2 3\n"
        "con 0 1\nacc 0 0\nacc 1 1\nacc 2 2\n"
        "con 0 1\nacc 0 1\nacc 1 2\nacc 2 0\n"
    )
    prof = derive_profile(inst, p=3, mode="explicit", consistency_width=1, support_width=1)
    assert prof.padded_alphabet == 4
    assert prof.spread_cols_per_constraint == 16
    out = reduce_csp(inst, prof)
    assert out.num_rows == 6
    assert out.num_cols == prof.nprime == 2 * 3 * 1 + 1 + 2 * 16
    rows = build_spread_block(inst, prof, reduction._kept_rows(inst))
    assert len(rows) == 6  # one per kept row: rejected tuples get none
    h = hadamard(4)
    lo = out.spread_span[0]
    blocks = {0: set(), 1: set()}
    for entries, (t, (a, b)) in zip(rows, out.row_provenance):
        # the Hadamard row of the tuple's rank over the original alphabet 3,
        # in constraint t's 16 basis columns and nowhere else
        assert entries == tuple(zip(range(lo + 16 * t, lo + 16 * (t + 1)), h.rows[3 * a + b]))
        blocks[t].add(entries)
    # distinct tuples map to distinct Hadamard rows inside one constraint block
    assert len(blocks[0]) == len(blocks[1]) == 3


def test_spread_block_builds_only_the_rows_it_places():
    # one constraint of arity 12 accepting one tuple: a row of 4096 spread
    # entries, where the whole order-4096 Hadamard matrix holds 16.8M
    q = 12
    inst = parse_csp(f"csp {q} 1 {q} 2\ncon {' '.join(map(str, range(q)))}\nacc {' 1' * q}\n")
    prof = derive_profile(inst, p=3, mode="explicit", consistency_width=1, support_width=1)
    tracemalloc.start()
    try:
        out = reduce_csp(inst, prof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    lo = out.spread_span[0]
    assert out.rows[0][-(1 << q):] == tuple(zip(range(lo, lo + (1 << q)), hadamard_row(q, (1 << q) - 1)))


def _cycle_csp(n, accepted):
    return parse_csp(
        f"csp {n} {n} 2 2\n" + "".join(f"con {i} {(i + 1) % n}\n{accepted}" for i in range(n))
    )


def test_dense_view_past_the_cell_budget_is_refused():
    # 1700 constraints accepting all four tuples: 6800 rows x 10201 columns,
    # past CELL_BUDGET, from only 47,600 entries
    inst = _cycle_csp(1700, "acc 0 0\nacc 0 1\nacc 1 0\nacc 1 1\n")
    out = reduce_csp(inst, explicit_profile(inst))
    assert out.num_rows * out.num_cols > reduction.CELL_BUDGET
    with pytest.raises(BudgetExceededError, match=r"^6800 x 10201 basis exceeds budget"):
        out.basis
    assert "basis" not in out.__dict__


def test_reduce_budgets_the_entries_it_builds(monkeypatch):
    # 1500 constraints over 1500 binary variables, one accepted tuple each:
    # 6000 candidate rows x 3000 (variable, symbol) columns would be 18e6
    # dense cells, but the basis has 1500 rows of 2 + 1 + 4 entries
    inst = _cycle_csp(1500, "acc 0 0\n")
    prof = derive_profile(inst, p=3, mode="explicit", consistency_width=1, support_width=1)
    out = reduce_csp(inst, prof)
    assert out.num_rows == 1500
    assert sum(map(len, out.rows)) == 1500 * 7
    # 4096 constraints accepting all 4 tuples, support width 1024: 16384 rows
    # of 2 + 1024 + 4 entries, 16.9e6 > 2**24, refused before any is built
    inst = _cycle_csp(4096, "acc 0 0\nacc 0 1\nacc 1 0\nacc 1 1\n")
    prof = derive_profile(inst, p=3, mode="explicit", consistency_width=1, support_width=1024)

    def build(*args):
        raise AssertionError("rows were built past the entry budget")

    monkeypatch.setattr(reduction, "_kept_rows", build)
    monkeypatch.setattr(reduction, "build_consistency_block", build)
    with pytest.raises(
        BudgetExceededError,
        match=r"^16384 basis rows x 1030 entries per row exceed budget 16777216 entries$",
    ):
        reduce_csp(inst, prof)


def test_a_profile_with_a_prime_below_its_rows_is_refused_when_built():
    # prime 3 leaves 2 Vandermonde rows for 3 * 2**2 = 12 candidate rows;
    # the profile itself refuses it, so no block builder ever sees it
    with pytest.raises(ProfileError, match=r"^prime 3 too small: the support block needs 12 "):
        ReductionProfile(
            p=3, prime=3, scale=1, consistency_width=1, support_width=1, mode="explicit",
            soundness=Fraction(1), num_vars=3, num_constraints=3, arity=2, alphabet_size=2,
            degree=3,
        )


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"prime": 69}, r"^69 is not prime$", id="composite-prime"),
        # toy1 has 8 candidate rows
        pytest.param({"prime": 7}, r"^prime 7 too small", id="prime-too-small"),
        pytest.param(
            {"prime": 10**25}, r"^prime 10{25} is past the primality test's range n < 3317",
            id="prime-past-the-test",
        ),
        pytest.param(
            {"prime": 67.0}, r"^prime must be an integer, got 67\.0$", id="float-prime"
        ),
        pytest.param({"scale": True}, r"^scale must be an integer, got True$", id="bool-scale"),
        pytest.param({"scale": 0}, r"^scale must be positive$", id="scale-0"),
        pytest.param(
            {"consistency_width": 0}, r"^consistency width must lie in \[1, degree 2\]$",
            id="consistency-width-0",
        ),
        pytest.param(
            {"consistency_width": 3}, r"^consistency width must lie in \[1, degree 2\]$",
            id="consistency-width-past-degree",
        ),
        pytest.param(
            {"consistency_width": 67, "degree": 100}, r"^widths must stay below the prime$",
            id="consistency-width-at-prime",
        ),
        pytest.param(
            {"support_width": 0}, r"^support width must lie in \[1, constraint count 2\]$",
            id="support-width-0",
        ),
        pytest.param(
            {"support_width": 3}, r"^support width must lie in \[1, constraint count 2\]$",
            id="support-width-past-count",
        ),
        pytest.param(
            {"support_width": "1"}, r"^support_width must be an integer, got '1'$",
            id="str-support-width",
        ),
        pytest.param({"p": 2}, r"^profiles need p in 3\.\.64 or the max-norm$", id="p-2"),
        pytest.param({"p": 65}, r"^profiles need p in 3\.\.64 or the max-norm$", id="p-65"),
        pytest.param({"mode": "bogus"}, r"^unknown mode 'bogus'$", id="unknown-mode"),
    ],
)
def test_a_replaced_profile_is_checked_again(toy1, change, message):
    prof = explicit_profile(toy1)
    assert (prof.prime, prof.degree, prof.num_constraints, prof.rows_full) == (67, 2, 2, 8)
    with pytest.raises(ProfileError, match=message):
        replace(prof, **change)


def test_reduce_rejects_profile_mismatch(toy1, toy_unsat):
    prof = explicit_profile(toy1)
    with pytest.raises(ProfileError):
        reduce_csp(
            parse_csp("csp 3 3 2 2\ncon 0 1\nacc 0 0\ncon 1 2\nacc 0 0\ncon 0 2\nacc 0 0\n"),
            prof,
        )


MISMATCH_MESSAGES = {
    "degree": "profile was derived for another instance: its degree is 3, the instance's is 2",
    "soundness": "profile was derived for another instance: its soundness is 1/2, "
    "the instance's is 1",
    "irregular": "instance is irregular (distinct degrees: 1,2,3)",
}


def _mismatch_refusals():
    """How ``reduce_csp`` answers a profile that fits an instance's shape
    (N, M, q, SIGMA) but not the instance: another degree, another
    soundness, or an irregular instance of the 4-cycle's shape."""

    def scopes(*pairs):
        lines = [f"csp 4 {len(pairs)} 2 2"]
        for a, b in pairs:
            lines += [f"con {a} {b}", "acc 0 0"]
        return parse_csp("\n".join(lines) + "\n")

    toy1 = parse_csp((Path(__file__).resolve().parent.parent / "data" / "toy1.csp").read_text())
    pairs = {
        "degree": (toy1, replace(explicit_profile(toy1), degree=3)),
        "soundness": (toy1, replace(explicit_profile(toy1), soundness=Fraction(1, 2))),
        "irregular": (
            scopes((0, 1), (0, 2), (0, 3), (1, 2)),
            explicit_profile(scopes((0, 1), (1, 2), (2, 3), (3, 0))),
        ),
    }
    out = {}
    for name, (inst, prof) in pairs.items():
        try:
            reduce_csp(inst, prof)
            out[name] = "reduced"
        except ProfileError as exc:
            out[name] = str(exc)
    return out


def test_reduce_refuses_a_profile_derived_for_another_instance():
    assert _mismatch_refusals() == MISMATCH_MESSAGES


def test_reduce_refuses_a_profile_derived_for_another_instance_without_asserts():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import json, test_reduction; print(json.dumps(test_reduction._mismatch_refusals()))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'tests'}"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == MISMATCH_MESSAGES


def test_scaled_blocks_dominate(toy1_reduced):
    # every consistency or support entry is 0 or a multiple of the scale
    inst = toy1_reduced
    lo, hi = inst.consistency_span[0], inst.support_span[1]
    for row in inst.basis:
        for j in range(lo, hi):
            assert row[j] == 0 or abs(row[j]) >= SCALE
            assert row[j] % SCALE == 0
    # spread entries stay in {-1, 0, 1}
    for row in inst.basis:
        for j in range(*inst.spread_span):
            assert row[j] in (-1, 0, 1)


def _reference_reduce(inst, prof):
    """The dense reduction: build every candidate row of the indicator matrix
    in all three blocks, then delete rows whose consistency part is zero.
    Returns (basis, row_provenance)."""
    matrix = indicator_matrix(inst)
    width, scale = prof.consistency_width, prof.scale
    vc = reduced_vandermonde(prof.prime, width)
    vs = reduced_vandermonde(prof.prime, prof.support_width)
    per = prof.spread_cols_per_constraint
    h = hadamard(per.bit_length() - 1)
    stride = inst.alphabet_size**inst.arity
    consistency = [[0] * (matrix.num_cols * width) for _ in range(matrix.num_rows)]
    occurrences = [0] * matrix.num_cols
    for r in range(matrix.num_rows):
        for col in range(matrix.num_cols):
            if matrix.entries[r][col]:
                occurrences[col] += 1
                vrow = vc.row(occurrences[col] - 1)
                for k in range(width):
                    consistency[r][col * width + k] = scale * vrow[k]
    support = [[scale * x for x in vs.row(r)] for r in range(matrix.num_rows)]
    spread = []
    for r, (t, _tup) in enumerate(matrix.row_index):
        row = [0] * (inst.num_constraints * per)
        row[t * per : (t + 1) * per] = h.rows[r - t * stride]  # the tuple's rank
        spread.append(row)
    basis, provenance = [], []
    for r, pair in enumerate(matrix.row_index):
        if any(consistency[r]):
            basis.append(tuple(consistency[r] + support[r] + spread[r]))
            provenance.append(pair)
    return tuple(basis), tuple(provenance)


@st.composite
def _regular_reductions(draw, max_sigma=3):
    """A small regular CSP (cyclic scopes, one or two shifts, relabelled
    variables, random accept sets in random order) and a profile for it."""
    q = draw(st.integers(2, 3))
    sigma = draw(st.integers(1, max_sigma))
    steps = draw(st.sampled_from([(1,), (1, 2)]))
    n = draw(st.integers(2 * q - 1 if len(steps) == 2 else q, 6))
    label = draw(st.permutations(range(n)))
    candidates = list(itertools.product(range(sigma), repeat=q))
    constraints = []
    for step in steps:
        for i in range(n):
            scope = tuple(label[(i + step * k) % n] for k in range(q))
            picks = draw(st.lists(st.sampled_from(candidates), unique=True))
            constraints.append(Constraint(scope, tuple(picks)))
    soundness = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))
    inst = CspInstance(n, sigma, q, tuple(constraints), soundness)
    p = draw(st.sampled_from([3, 4, "inf"]))
    if draw(st.booleans()):
        prof = derive_profile(inst, p=p)
    else:
        prof = derive_profile(
            inst, p=p, mode="explicit",
            consistency_width=draw(st.integers(1, len(steps) * q)),
            support_width=draw(st.integers(1, len(constraints))),
            scale=draw(st.integers(1, 10**6)),
        )
    return inst, prof


@settings(max_examples=150, deadline=None)
@given(_regular_reductions())
def test_reduce_matches_dense_reference(case):
    inst, prof = case
    out = reduce_csp(inst, prof)
    # equal integer rows emit equal bytes
    assert (out.basis, out.row_provenance) == _reference_reduce(inst, prof)
    assert all(abs(x) <= prof.max_abs_entry for row in out.rows for _, x in row)
    kept = set(out.row_provenance)
    assert len(kept) == out.num_rows
    for t, con in enumerate(inst.constraints):
        for tup in itertools.product(range(inst.alphabet_size), repeat=inst.arity):
            assert ((t, tup) in kept) == (tup in con.accepted_set)
    if out.num_rows:
        with tempfile.TemporaryDirectory() as tmp:
            basis_path, _ = save_instance(out, Path(tmp) / "case.basis")
            assert load_instance(basis_path) == out


@settings(max_examples=100, deadline=None)
@given(_regular_reductions())
def test_reduce_rows_are_ascending_nonzero_entries(case):
    inst, prof = case
    out = reduce_csp(inst, prof)
    for entries in out.rows:
        cols = [j for j, _x in entries]
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert all(0 <= j < prof.nprime for j in cols)
        assert all(x != 0 for _j, x in entries)
    assert "basis" not in out.__dict__  # the dense view is built on demand
    assert out.basis == _reference_reduce(inst, prof)[0]


def _block_relative_rows(inst, prof):
    """The assembly before the builders placed entries at basis columns: each
    block's rows with columns counted inside the block, concatenated after
    shifting support and spread by their block offsets.  The consistency
    part sorts each row's (variable, symbol) columns, and the support part
    reads ``ReducedVandermonde.row``."""
    width, sigma = prof.consistency_width, inst.alphabet_size
    kept = reduction._kept_rows(inst)
    vc = reduced_vandermonde(prof.prime, width)
    occurrences = [0] * (inst.num_vars * sigma)
    scaled = []
    consistency = []
    for t, tup in kept:
        placed = []
        for x, a in zip(inst.constraints[t].variables, tup):
            col = x * sigma + a
            occurrences[col] += 1
            if occurrences[col] > len(scaled):
                scaled.append(tuple(enumerate(prof.scale * v for v in vc.row(occurrences[col] - 1))))
            placed.append(col)
        consistency.append(tuple(
            (col * width + k, sv) for col in sorted(placed) for k, sv in scaled[occurrences[col] - 1]
        ))
    vs = reduced_vandermonde(prof.prime, prof.support_width)
    stride = sigma**inst.arity
    support = [
        tuple(enumerate(prof.scale * x for x in vs.row(t * stride + tuple_rank(tup, sigma))))
        for t, tup in kept
    ]
    per = prof.spread_cols_per_constraint
    h = hadamard(per.bit_length() - 1)
    spread = [
        tuple(zip(range(t * per, (t + 1) * per), h.rows[tuple_rank(tup, sigma)]))
        for t, tup in kept
    ]
    s_lo = prof.consistency_cols
    h_lo = s_lo + prof.support_cols
    return tuple(
        (*c, *[(s_lo + j, x) for j, x in s], *[(h_lo + j, x) for j, x in h])
        for c, s, h in zip(consistency, support, spread)
    )


def _padded_wide_case():
    """Alphabet 3 padded to 4, with both Vandermonde widths 2."""
    inst = parse_csp(
        "csp 2 2 2 3\n"
        "con 1 0\nacc 2 0\nacc 0 0\nacc 1 1\n"
        "con 0 1\nacc 0 1\nacc 2 2\nacc 1 2\n"
    )
    prof = derive_profile(
        inst, p=3, mode="explicit", consistency_width=2, support_width=2, scale=7
    )
    assert prof.padded_alphabet == 4 > inst.alphabet_size
    return inst, prof


def _small_prime_case():
    """Every tuple accepted on the cyclic N=4 binary instance (32 support
    rows), both widths above 2 and the smallest prime the support block
    allows, so the support powers i**j and the consistency powers wrap mod
    the prime."""
    tuples = list(itertools.product(range(2), repeat=2))
    scopes = [(i, (i + s) % 4) for s in (1, 2) for i in range(4)]
    inst = CspInstance(4, 2, 2, tuple(Constraint(sc, tuple(tuples)) for sc in scopes))
    prof = derive_profile(
        inst, p="inf", mode="explicit", prime=37, consistency_width=3, support_width=5, scale=7
    )
    return inst, prof


@settings(max_examples=150, deadline=None)
@given(_regular_reductions())
@example(_padded_wide_case())
@example(_small_prime_case())
def test_builders_place_entries_at_basis_columns(case):
    inst, prof = case
    out = reduce_csp(inst, prof)
    assert out.rows == _block_relative_rows(inst, prof)
    kept = reduction._kept_rows(inst)
    parts = zip(
        reduction.build_consistency_block(inst, prof, kept),
        reduction.build_support_block(inst, prof, kept),
        reduction.build_spread_block(inst, prof, kept),
    )
    spans = (out.consistency_span, out.support_span, out.spread_span)
    for row, blocks in zip(out.rows, parts):
        assert row == sum(blocks, ())
        for entries, (lo, hi) in zip(blocks, spans):
            assert all(lo <= j < hi for j, _x in entries)


def _leaves(node, path):
    """(path, value) for every scalar inside a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _changed(value):
    """A different scalar: null becomes 0, a string gains a trailing space,
    a number grows by 1 (which makes every odd prime even)."""
    if value is None:
        return 0
    if isinstance(value, str):
        return value + " "
    return value + 1


@settings(max_examples=100, deadline=None)
@given(_regular_reductions(), st.one_of(st.none(), st.integers(0, 2**70)), st.data())
def test_sidecar_leaf_edits_are_refused(case, seed, data):
    inst, prof = case
    out = reduce_csp(inst, prof)
    assume(out.num_rows)
    with tempfile.TemporaryDirectory() as tmp:
        basis_path, sidecar_path = save_instance(out, Path(tmp) / "case.basis", seed=seed)
        assert load_instance(basis_path) == out
        payload = json.loads(sidecar_path.read_text())
        key = data.draw(st.sampled_from(sorted(payload)))
        path, value = data.draw(st.sampled_from(list(_leaves(payload[key], (key,)))))
        if path == ("profile", "mode"):
            new = "explicit" if value == "asymptotic-default" else "asymptotic-default"
        else:
            new = _changed(value)
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = new
        sidecar_path.write_text(json.dumps(payload, indent=2) + "\n")
        if key in ("basis_file", "seed"):  # the free fields
            assert load_instance(basis_path) == out
        elif path == ("profile", "mode"):
            # all four knobs are stored, so the mode is only a label
            relabelled = replace(out, profile=replace(prof, mode=new))
            assert load_instance(basis_path) == relabelled
        else:
            with pytest.raises(SvpforgeError):
                load_instance(basis_path)


# Basis file names that JSON must escape: a quote, a backslash, a newline,
# and characters outside ASCII, one of them outside the BMP.
_AWKWARD_NAME = 'a "b" \\ c\nd\u00e9\u03bb\U0001d538.basis'


@settings(max_examples=150, deadline=None)
@given(
    _regular_reductions(),
    st.one_of(st.just(_AWKWARD_NAME), st.text()),
    st.one_of(st.none(), st.integers(max_value=-1), st.integers(min_value=2**64 + 1)),
)
def test_sidecar_text_is_json_dumps(case, basis_file, seed):
    out = reduce_csp(*case)
    expected = json.dumps(sidecar_json(out, basis_file, seed), indent=2) + "\n"
    assert sidecar_text(out, basis_file, seed) == expected


def _reference_sidecar_text(out, basis_file, seed):
    """``sidecar_text`` as first written, every row's provenance text built
    from its own tuple: the oracle for the writer that builds each distinct
    tuple's text once."""
    fields = sidecar_json(out, basis_file, seed)
    fields["row_provenance"] = []
    head, _, tail = json.dumps(fields, indent=2).partition('\n  "row_provenance": []')
    sep = ",\n        "
    rows = ",\n".join(
        f"    [\n      {t},\n      [\n        {sep.join(map(str, tup))}\n      ]\n    ]"
        for t, tup in out.row_provenance
    )
    provenance = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{head}\n  "row_provenance": {provenance}{tail}\n'


@settings(max_examples=100, deadline=None)
@given(_regular_reductions(max_sigma=2), st.one_of(st.none(), st.integers()))
def test_sidecar_text_matches_the_row_per_tuple_reference(case, seed):
    # at most 2**3 tuples over up to 12 constraints, so tuples recur
    out = reduce_csp(*case)
    assert sidecar_text(out, "case.basis", seed) == _reference_sidecar_text(out, "case.basis", seed)
