"""Profile derivation and basis assembly."""

import itertools
import json
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svpforge import reduction
from svpforge.basisio import load_instance, save_instance
from svpforge.csp import Constraint, CspInstance, indicator_matrix, parse_csp
from svpforge.errors import BudgetExceededError, ProfileError, SvpforgeError
from svpforge.gadgets import hadamard, reduced_vandermonde
from svpforge.reduction import (
    GapFactor,
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
    assert inst.consistency_col_span(1, 0) == (2, 3)
    assert inst.spread_col_span(1) == (9, 13)


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
    blocks = {0: set(), 1: set()}
    for entries, (t, (a, b)) in zip(rows, out.row_provenance):
        # the Hadamard row of the tuple's rank over the original alphabet 3,
        # in constraint t's 16 columns and nowhere else
        assert entries == tuple(zip(range(16 * t, 16 * (t + 1)), h.rows[3 * a + b]))
        blocks[t].add(entries)
    # distinct tuples map to distinct Hadamard rows inside one constraint block
    assert len(blocks[0]) == len(blocks[1]) == 3


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


def test_reduce_rejects_profile_mismatch(toy1, toy_unsat):
    prof = explicit_profile(toy1)
    with pytest.raises(ProfileError):
        reduce_csp(
            parse_csp("csp 3 3 2 2\ncon 0 1\nacc 0 0\ncon 1 2\nacc 0 0\ncon 0 2\nacc 0 0\n"),
            prof,
        )


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
def _regular_reductions(draw):
    """A small regular CSP (cyclic scopes, one or two shifts, relabelled
    variables, random accept sets in random order) and a profile for it."""
    q = draw(st.integers(2, 3))
    sigma = draw(st.integers(1, 3))
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
