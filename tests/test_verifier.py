"""Witness search, box enumeration, audits, extraction."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svpforge.basisio import load_instance, save_instance
from svpforge.csp import Constraint, CspInstance, evaluate, parse_csp
from svpforge.errors import BudgetExceededError, WitnessNotFoundError
from svpforge.reduction import GapSvpInstance, derive_profile, reduce_csp
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

from conftest import explicit_profile, sparse_rows
from test_kernels import _reference_box_dfs

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
    image = apply_coefficients((1, 0, -1), toy1_reduced.rows, toy1_reduced.num_cols)
    assert image[:5] == (0, 0, 0, 0, 0)
    assert image[5:] == (1, -1, -1, 1, -1, 1, 1, -1)
    with pytest.raises(ValueError):
        apply_coefficients((1, 0), toy1_reduced.rows, toy1_reduced.num_cols)


def test_witness_toy1(toy1_reduced):
    v = witness_from_assignment(toy1_reduced, (0, 0))
    assert v == (1, 0, -1)
    image = apply_coefficients(v, toy1_reduced.rows, toy1_reduced.num_cols)
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


def _reference_witness(inst, assignment, budget):
    """The row-by-row collision search ``witness_from_assignment`` replaced:
    every left sign combination rebuilt by a Python loop and kept in a dict,
    then the right half probed in ``itertools.product`` order."""
    csp = inst.csp
    if evaluate(csp, assignment) != 1:
        raise ValueError("witness needs an assignment satisfying every constraint")
    row_of = {prov: r for r, prov in enumerate(inst.row_provenance)}
    selected = [
        row_of[(t, tuple(assignment[x] for x in con.variables))]
        for t, con in enumerate(csp.constraints)
    ]
    lo, hi = inst.consistency_span[0], inst.support_span[1]
    cols = [j for j in range(lo, hi) if any(inst.basis[r][j] for r in selected)]
    images = [tuple(inst.basis[r][j] for j in cols) for r in selected]
    half = len(selected) // 2
    left, right = images[:half], images[half:]
    if 3 ** len(left) + 3 ** len(right) > budget:
        raise BudgetExceededError(
            f"collision search over {len(selected)} rows exceeds budget {budget}"
        )

    def combine(side, signs):
        acc = [0] * len(cols)
        for s, img in zip(signs, side):
            if s:
                for j, val in enumerate(img):
                    acc[j] += s * val
        return tuple(acc)

    zero = (0,) * len(cols)
    table = {}
    nonzero_zero_key = None
    for signs in itertools.product((-1, 0, 1), repeat=len(left)):
        key = combine(left, signs)
        if key not in table:
            table[key] = signs
        if nonzero_zero_key is None and key == zero and any(signs):
            nonzero_zero_key = signs
    found = None
    if nonzero_zero_key is not None:
        found = nonzero_zero_key + (0,) * len(right)
    else:
        for signs in itertools.product((-1, 0, 1), repeat=len(right)):
            if not any(signs):
                continue
            hit = table.get(combine(right, tuple(-s for s in signs)))
            if hit is not None:
                found = hit + signs
                break
    if found is None:
        raise WitnessNotFoundError(
            "no nonzero signed combination of the selected rows cancels the scaled blocks"
        )
    v = [0] * inst.num_rows
    for r, s in zip(selected, found):
        v[r] = s
    return tuple(v)


def _outcome(fn, *args):
    """The return value, or the type and message of what was raised."""
    try:
        return fn(*args)
    except (BudgetExceededError, WitnessNotFoundError) as exc:
        return type(exc), str(exc)


def _cyclic_csp(num_vars, steps, accepts, alphabet=2):
    """Scopes (i, i + step) for each step, constraints in that order."""
    scopes = [(i, (i + s) % num_vars) for s in steps for i in range(num_vars)]
    return CspInstance(
        num_vars, alphabet, 2, tuple(Constraint(sc, acc) for sc, acc in zip(scopes, accepts))
    )


@st.composite
def _satisfiable_reductions(draw):
    """A small satisfiable regular CSP, an assignment satisfying it, and its
    reduction: one scope, or 3 to 14 cyclic scopes with one or two shifts,
    each accepting the assignment's tuple plus random others."""
    q = draw(st.integers(2, 3))
    sigma = draw(st.integers(1, 3))
    steps = draw(st.sampled_from([(), (1,), (1, 2)]))
    if not steps:
        n, scopes = q, [tuple(range(q))]
    else:
        n = draw(st.integers(2 * q - 1, 7) if len(steps) == 2 else st.integers(q, 14))
        scopes = [
            tuple((i + step * k) % n for k in range(q)) for step in steps for i in range(n)
        ]
    label = draw(st.permutations(range(n)))
    assignment = tuple(draw(st.lists(st.integers(0, sigma - 1), min_size=n, max_size=n)))
    candidates = list(itertools.product(range(sigma), repeat=q))
    constraints = []
    for scope in scopes:
        scope = tuple(label[x] for x in scope)
        own = tuple(assignment[x] for x in scope)
        picks = draw(st.lists(st.sampled_from(candidates), unique=True))
        if own not in picks:
            picks.insert(draw(st.integers(0, len(picks))), own)
        constraints.append(Constraint(scope, tuple(picks)))
    inst = CspInstance(n, sigma, q, tuple(constraints))
    prof = derive_profile(
        inst, p=draw(st.sampled_from([3, 4, "inf"])), mode="explicit",
        consistency_width=1,
        support_width=draw(st.integers(1, len(constraints))),
        scale=draw(st.integers(1, 10**6)),
    )
    return reduce_csp(inst, prof), assignment


def _budget_floor(inst):
    m = inst.csp.num_constraints
    return 3 ** (m // 2) + 3 ** (m - m // 2)


@settings(max_examples=60, deadline=None)
@given(_satisfiable_reductions(), st.sampled_from([-1, 0, None]))
def test_witness_matches_reference(case, slack):
    out, assignment = case
    budget = 2_000_000 if slack is None else _budget_floor(out) + slack
    got = _outcome(witness_from_assignment, out, assignment, budget)
    assert got == _outcome(_reference_witness, out, assignment, budget)
    if slack == -1:
        assert got[0] is BudgetExceededError
    elif got[0] not in (BudgetExceededError, WitnessNotFoundError):
        assert lp_norm_power(apply_coefficients(got, out.rows, out.num_cols), None) == 1


def _left_and_right(out, assignment):
    v = witness_from_assignment(out, assignment)
    assert v == _reference_witness(out, assignment, 2_000_000)
    row_of = {prov: r for r, prov in enumerate(out.row_provenance)}
    selected = [
        v[row_of[(t, tuple(assignment[x] for x in con.variables))]]
        for t, con in enumerate(out.csp.constraints)
    ]
    half = len(selected) // 2
    return selected[:half], selected[half:]


def test_witness_left_only_cancellation():
    # 12 constraints: the first six selected rows cancel among themselves
    inst = _cyclic_csp(6, (1, 2), [((0, 0), (1, 1))] * 12)
    out = reduce_csp(inst, explicit_profile(inst))
    left, right = _left_and_right(out, (0,) * 6)
    assert any(left) and not any(right)


def test_witness_cancellation_found_on_the_right(toy1_reduced):
    left, right = _left_and_right(toy1_reduced, (0, 0))
    assert left == [1] and right == [-1]


def test_witness_pairs_the_first_left_combination():
    # Doctored scaled images 2, 1 | 1, 0 in one column, and a private spread
    # column per row.  Left signs (0, 1) and (1, -1) both reach image 1, and
    # the first right signs, (-1, -1), need it: the first of the two wins.
    inst = _cyclic_csp(4, (1,), [((0, 0),)] * 4)
    out = reduce_csp(inst, explicit_profile(inst))
    basis = []
    for t, image in enumerate((2, 1, 1, 0)):
        row = [0] * out.num_cols
        row[0] = image
        row[out.spread_col_span(t)[0]] = 1
        basis.append(tuple(row))
    doctored = replace(out, rows=sparse_rows(basis))
    v = witness_from_assignment(doctored, (0,) * 4)
    assert v == _reference_witness(doctored, (0,) * 4, 2_000_000) == (0, 1, -1, -1)


def test_witness_exact_integer_path():
    # at scale 10**18 the selected rows' support entries times the 4 rows
    # of a half pass 2**63, so the search runs on Python integers
    inst = _cyclic_csp(4, (1, 2), [((0, 0), (0, 1))] * 8)
    prof = derive_profile(
        inst, p=3, mode="explicit", consistency_width=1, support_width=2, scale=10**18
    )
    out = reduce_csp(inst, prof)
    selected = [out.row_provenance.index((t, (0, 0))) for t in range(8)]
    lo, hi = out.consistency_span[0], out.support_span[1]
    assert 4 * max(abs(out.basis[r][j]) for r in selected for j in range(lo, hi)) >= 2**63
    left, right = _left_and_right(out, (0,) * 4)
    assert any(left) and any(right)
    v = witness_from_assignment(out, (0,) * 4)
    assert lp_norm_power(apply_coefficients(v, out.rows, out.num_cols), None) == 1


def test_witness_budget_boundary(toy1_reduced):
    assert _budget_floor(toy1_reduced) == 3 + 3
    assert witness_from_assignment(toy1_reduced, (0, 0), budget=6) == (1, 0, -1)
    with pytest.raises(BudgetExceededError, match="over 2 rows exceeds budget 5"):
        witness_from_assignment(toy1_reduced, (0, 0), budget=5)


def test_no_check_builds_the_dense_view(tmp_path, toy1):
    out = reduce_csp(toy1, explicit_profile(toy1))
    path, _ = save_instance(out, tmp_path / "toy1.basis")
    inst = load_instance(path)
    v = witness_from_assignment(inst, (0, 0))
    assert audit_vector(v, inst).max_abs == 1
    assert structural_facts(v, inst).block_gap_holds
    assert extract_assignment(v, inst).fraction == 1
    assert enumerate_box(inst, 1).power == 8
    assert "basis" not in out.__dict__ and "basis" not in inst.__dict__


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


# The row search's node counts, which budgets are measured against: each
# column closes at its last touching row.
NODES = {
    ("toy1_reduced", 1): 24,
    ("toy1_reduced", 2): 60,
    ("toy1_reduced", 3): 112,
    ("unsat_reduced", 1): 54,
    ("unsat_reduced", 2): 145,
    ("unsat_reduced", 3): 308,
}


@pytest.mark.parametrize(
    "fixture, box, power, spans_only",
    [
        ("toy1_reduced", 1, 8, 30),
        ("toy1_reduced", 2, 8, 85),
        ("toy1_reduced", 3, 8, 168),
        ("unsat_reduced", 1, 32, 120),
        ("unsat_reduced", 2, 32, 480),
        ("unsat_reduced", 3, 32, 1456),
    ],
)
def test_enumerate_node_counts_pinned(request, fixture, box, power, spans_only):
    # ``spans_only``: the counts when only a constraint's spread columns
    # closed early, which closing every column at its last row cannot exceed
    inst = request.getfixturevalue(fixture)
    res = enumerate_box(inst, box)
    nodes = NODES[fixture, box]
    assert (res.power, res.nodes) == (power, nodes)
    assert nodes <= spans_only
    assert _reference_box_dfs(inst.rows, box, 3, 10**9) == (res.power, res.vector, nodes)


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
        rows=sparse_rows(rows),
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


def test_audit_json_writes_offending_blocks_as_arrays(toy1_reduced):
    import json

    # the doctored row of test_structural_facts_flag_doctored_instance
    spread_lo = toy1_reduced.spread_span[0]
    rows = list(toy1_reduced.rows)
    rows[2] = tuple((j, x) for j, x in rows[2] if j >= spread_lo)
    doctored = replace(toy1_reduced, rows=tuple(rows))
    report = audit_vector((0, 0, 1), doctored)
    assert report.facts.offending_blocks == ((0, 0), (1, 0))
    text = json.dumps(report.to_json())
    assert text.endswith('"block_gap_holds": false, "offending_blocks": [[0, 0], [1, 0]]}}')


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
