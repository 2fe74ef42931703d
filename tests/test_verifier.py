"""Witness search, box enumeration, audits, extraction."""

import itertools
from fractions import Fraction

import pytest

from svpforge.csp import parse_csp
from svpforge.errors import BudgetExceededError, WitnessNotFoundError
from svpforge.reduction import GapSvpInstance, reduce_csp
from svpforge.verifier import (
    apply_coefficients,
    audit_vector,
    enumerate_box,
    extract_assignment,
    holder_check,
    indicated_view,
    lp_norm_power,
    structural_facts,
    witness_from_assignment,
)

from conftest import explicit_profile

SCALE = 10**6


def test_lp_norm_power():
    assert lp_norm_power((1, -2, 3), 3) == 1 + 8 + 27
    assert lp_norm_power((1, -2, 3), 1) == 6
    assert lp_norm_power((1, -2, 3), None) == 3
    assert lp_norm_power((1, -2, 3), "inf") == 3
    assert lp_norm_power((), None) == 0


def test_holder_check():
    assert holder_check((), 3)
    assert holder_check((5,), 3)
    assert holder_check((1, 1, 1, 1), 4)
    assert holder_check((3, -4, 5, 0, 2), None)
    with pytest.raises(ValueError):
        holder_check((1, 2), 2)


def test_holder_tightness_on_constant_vectors():
    # equality holds exactly for constant vectors, the extremal case
    for n in (2, 4, 8):
        w = (7,) * n
        assert lp_norm_power(w, 3) ** 2 * n == (sum(x * x for x in w)) ** 3


def test_apply_coefficients(toy1_reduced):
    image = apply_coefficients((1, 0, -1), toy1_reduced.basis)
    assert image[:5] == (0, 0, 0, 0, 0)
    assert image[5:] == (1, -1, -1, 1, -1, 1, 1, -1)
    with pytest.raises(ValueError):
        apply_coefficients((1, 0), toy1_reduced.basis)


def test_witness_toy1(toy1_reduced):
    v = witness_from_assignment(toy1_reduced, (0, 0))
    assert v == (1, 0, -1)
    image = apply_coefficients(v, toy1_reduced.basis)
    assert lp_norm_power(image, None) == 1
    assert lp_norm_power(image, 3) == 8


def test_witness_rejects_bad_assignment(toy1_reduced):
    with pytest.raises(ValueError):
        witness_from_assignment(toy1_reduced, (0, 1))


def test_witness_budget(toy1_reduced):
    with pytest.raises(BudgetExceededError):
        witness_from_assignment(toy1_reduced, (0, 0), budget=2)


def test_witness_not_found_on_single_constraint():
    inst = parse_csp("csp 2 1 2 2\ncon 0 1\nacc 0 0\n")
    out = reduce_csp(inst, explicit_profile(inst))
    with pytest.raises(WitnessNotFoundError):
        witness_from_assignment(out, (0, 0))  # one row cannot cancel its own blocks


def test_enumerate_toy1(toy1_reduced):
    res = enumerate_box(toy1_reduced, 1)
    assert res.p == 3
    assert res.power == 8
    assert res.vector == (-1, 0, 1)
    assert res.nodes > 0
    assert res.backend == "pure"
    assert "not a certified lattice minimum" in res.caveat


def test_enumerate_maxnorm_override(toy1_reduced):
    res = enumerate_box(toy1_reduced, 1, p="inf")
    assert res.p is None
    assert res.power == 1
    assert res.vector == (-1, 0, 1)


def test_enumerate_unsat(unsat_reduced):
    res = enumerate_box(unsat_reduced, 1)
    assert res.power == 32
    assert res.vector == (-1, -1, 1, 1)


@pytest.mark.parametrize(
    "fixture, box, power, nodes",
    [
        ("toy1_reduced", 1, 8, 30),
        ("toy1_reduced", 2, 8, 85),
        ("toy1_reduced", 3, 8, 168),
        ("unsat_reduced", 1, 32, 120),
        ("unsat_reduced", 2, 32, 480),
        ("unsat_reduced", 3, 32, 1456),
    ],
)
def test_enumerate_node_counts_pinned(request, fixture, box, power, nodes):
    # the row search's node counts, which budgets are measured against
    res = enumerate_box(request.getfixturevalue(fixture), box)
    assert (res.power, res.nodes) == (power, nodes)


def test_enumerate_budget(unsat_reduced):
    with pytest.raises(BudgetExceededError):
        enumerate_box(unsat_reduced, 1, budget=2)


def test_indicated_view(toy1_reduced):
    view = indicated_view((1, 0, -1), toy1_reduced)
    assert view.constraints == frozenset({0, 1})
    assert view.tuple_multiplicity == {(0, 0): 2, (1, 0): 2}
    assert view.num_constraints == 2
    assert view.num_distinct_tuples == 2
    assert view.distinct_symbols(0) == (0,)
    assert view.distinct_symbols(1) == (0,)

    view = indicated_view((1, 1, 0), toy1_reduced)
    assert view.constraints == frozenset({0})
    assert view.distinct_symbols(0) == (0, 1)


def test_structural_facts_on_kernel_vector(toy1_reduced):
    facts = structural_facts((1, 0, -1), toy1_reduced)
    assert not facts.support_price_applicable  # the support image cancels
    assert facts.block_gap_applicable
    assert facts.block_gap_holds
    assert facts.offending_blocks == ()


def test_structural_facts_on_non_kernel_vector(toy1_reduced):
    facts = structural_facts((1, 1, 0), toy1_reduced)
    assert facts.support_price_applicable
    assert facts.support_price_holds  # max abs is 2 * SCALE
    assert not facts.block_gap_applicable


def test_structural_facts_flag_doctored_instance(toy1_reduced):
    # zero out one row's scaled blocks; a lone coefficient there now cancels
    # the consistency block while indicating blocks with a single coefficient
    spread_lo = toy1_reduced.spread_span[0]
    rows = [list(r) for r in toy1_reduced.basis]
    rows[2] = [0] * spread_lo + rows[2][spread_lo:]
    doctored = GapSvpInstance(
        csp=toy1_reduced.csp,
        profile=toy1_reduced.profile,
        basis=tuple(tuple(r) for r in rows),
        row_provenance=toy1_reduced.row_provenance,
    )
    facts = structural_facts((0, 0, 1), doctored)
    assert facts.block_gap_applicable
    assert not facts.block_gap_holds
    assert facts.offending_blocks == ((0, 0), (1, 0))


def test_facts_hold_over_whole_box(toy1_reduced, unsat_reduced):
    for inst in (toy1_reduced, unsat_reduced):
        for v in itertools.product((-1, 0, 1), repeat=inst.num_rows):
            if not any(v):
                continue
            facts = structural_facts(v, inst)
            if facts.support_price_applicable:
                assert facts.support_price_holds
            if facts.block_gap_applicable:
                assert facts.block_gap_holds


def test_small_support_lemma_exact_over_box(toy1_reduced, unsat_reduced):
    # unlike the asymptotic bounds, the small-support implication rests only on
    # the exact Vandermonde rank property, so it must hold at any scale
    for inst in (toy1_reduced, unsat_reduced):
        for v in itertools.product((-1, 0, 1), repeat=inst.num_rows):
            if not any(v):
                continue
            report = audit_vector(v, inst)
            check = next(
                c for c in report.checks if c.name == "small-support-blowup"
            )
            if check.hypothesis:
                assert check.conclusion


def test_audit_kernel_vector_unsat(unsat_reduced):
    report = audit_vector((1, 1, -1, -1), unsat_reduced)
    assert report.support == 4
    assert report.norm_power == 32
    assert report.max_abs == 2
    assert report.exceeds_threshold  # 32 > 13 * 2**(3/300)
    assert report.indicated_constraints == 2
    assert report.indicated_distinct_tuples == 4
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {
        "small-support-blowup",
        "large-support-blowup",
        "constraint-concentration",
        "tuple-spread-blowup",
    }
    assert not by_name["small-support-blowup"].hypothesis  # support 4 > width 1
    assert by_name["large-support-blowup"].hypothesis  # 4 >= 2 * gamma**3
    assert by_name["large-support-blowup"].conclusion
    # the tuple-spread hypothesis fires at this tiny scale (4 >= 2 * gamma**4)
    # but its scale-domination conclusion is an asymptotic promise: 32 < scale**3,
    # so the report faithfully shows hypothesis without conclusion
    assert by_name["tuple-spread-blowup"].hypothesis
    assert not by_name["tuple-spread-blowup"].conclusion


def test_audit_witness_toy1(toy1_reduced):
    report = audit_vector((1, 0, -1), toy1_reduced)
    assert report.norm_power == 8
    assert report.max_abs == 1
    assert not report.exceeds_threshold  # 8 <= 13, as completeness promises
    assert report.facts.block_gap_applicable and report.facts.block_gap_holds


def test_audit_json_round_trip(unsat_reduced):
    import json

    report = audit_vector((1, 1, -1, -1), unsat_reduced)
    data = json.loads(json.dumps(report.to_json()))
    assert data["norm_power"] == 32
    assert len(data["checks"]) == 4


def test_extract_from_witness(toy1_reduced):
    res = extract_assignment((1, 0, -1), toy1_reduced)
    assert res.assignment == (0, 0)
    assert res.fraction == 1
    assert res.mode == "exhaustive"
    assert res.combinations == 1


def test_extract_uses_fallback_symbol(toy1_reduced):
    # coefficient on row (0, (1, 1)) only: variable symbols {1}; both vars indicated
    res = extract_assignment((0, 1, 0), toy1_reduced)
    assert res.assignment == (1, 1)
    assert res.fraction == Fraction(1, 2)


def test_extract_lex_smallest_optimum(unsat_reduced):
    # all four rows indicated: candidates {0,1} x {0,1}, optimum value 1/2 is
    # reached by several assignments; exhaustive mode returns the lex-smallest
    res = extract_assignment((1, 1, 1, 1), unsat_reduced)
    assert res.assignment == (0, 0)
    assert res.fraction == Fraction(1, 2)
    assert res.combinations == 4


def test_extract_sampled_is_deterministic(unsat_reduced):
    a = extract_assignment((1, 1, 1, 1), unsat_reduced, mode="sampled", seed=11)
    b = extract_assignment((1, 1, 1, 1), unsat_reduced, mode="sampled", seed=11)
    assert a == b
    assert a.mode == "sampled" and a.seed == 11


def test_extract_exhaustive_budget(unsat_reduced):
    with pytest.raises(BudgetExceededError):
        extract_assignment(
            (1, 1, 1, 1), unsat_reduced, mode="exhaustive", exhaustive_budget=3
        )


def test_extract_auto_switches_to_sampled(unsat_reduced):
    res = extract_assignment(
        (1, 1, 1, 1), unsat_reduced, mode="auto", exhaustive_budget=3, seed=5
    )
    assert res.mode == "sampled"
    assert res.fraction <= Fraction(1, 2)
