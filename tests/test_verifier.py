"""Witness search, box enumeration, audits, extraction."""

import importlib.util
import itertools
import pathlib
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svpforge.basisio import load_instance, save_instance
from svpforge.csp import Constraint, CspInstance, evaluate, parse_csp
from svpforge.errors import (
    BudgetExceededError,
    CspValidationError,
    ProfileError,
    WitnessNotFoundError,
)
from svpforge.kernels import frontier_plan, rcm_order
from svpforge.reduction import GapSvpInstance, derive_profile, normalize_p, reduce_csp
from svpforge.verifier import (
    BOX_CAVEAT,
    IndicatedView,
    apply_coefficients,
    audit_vector,
    certifying_box,
    enumerate_box,
    extract_assignment,
    holder_check,
    indicated_view,
    lp_norm_power,
    outside_box_floor,
    structural_facts,
    witness_from_assignment,
)

from conftest import DATA, explicit_profile, sparse_rows, without_asserts
from test_kernels import _reference_box_dfs
from test_regularize import _perfbench_gen

SCALE = 10**6
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_pipeline():
    """``benchmarks/bench_pipeline.py`` as a module, for its cyclic ladder."""
    spec = importlib.util.spec_from_file_location(
        "bench_pipeline", ROOT / "benchmarks" / "bench_pipeline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # the starting state counts too, so a budget of 0 refuses at once
    with pytest.raises(BudgetExceededError, match="exceeded 0 states"):
        witness_from_assignment(toy1_reduced, (0, 0), budget=0)


def test_witness_not_found_on_single_constraint():
    inst = parse_csp("csp 2 1 2 2\ncon 0 1\nacc 0 0\n")
    out = reduce_csp(inst, explicit_profile(inst))
    with pytest.raises(WitnessNotFoundError):
        witness_from_assignment(out, (0, 0))  # one row cannot cancel its own blocks


def _reference_witness(inst, assignment, budget):
    """A meet-in-the-middle collision search over the two halves of the
    selected rows: every left sign combination rebuilt by a Python loop and
    kept in a dict, then the right half probed in ``itertools.product``
    order.  It finds a vector exactly when one exists, so it is the oracle
    for whether ``witness_from_assignment`` must find one; its vector follows
    another rule."""
    csp = inst.csp
    if evaluate(csp, assignment) != 1:
        raise ValueError("witness needs an assignment satisfying every constraint")
    row_of = {prov: r for r, prov in enumerate(inst.row_provenance)}
    selected = [
        row_of[(t, tuple(assignment[x] for x in con.variables))]
        for t, con in enumerate(csp.constraints)
    ]
    lo, hi = inst.profile.consistency_span[0], inst.profile.support_span[1]
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


def _selected_signs(out, assignment, v):
    """The coefficients of v on the rows the assignment selects, by constraint."""
    row_of = {prov: r for r, prov in enumerate(out.row_provenance)}
    return [
        v[row_of[(t, tuple(assignment[x] for x in con.variables))]]
        for t, con in enumerate(out.csp.constraints)
    ]


def _check_witness(out, assignment, v):
    """v is supported on the selected rows, cancels the scaled columns,
    reaches max-norm 1, and its first nonzero coefficient is +1."""
    selected = _selected_signs(out, assignment, v)
    assert sum(1 for x in v if x) == sum(1 for x in selected if x) > 0
    image = apply_coefficients(v, out.rows, out.num_cols)
    lo, hi = out.profile.consistency_span[0], out.profile.support_span[1]
    assert not any(image[lo:hi])
    assert lp_norm_power(image, None) == 1
    assert next(x for x in v if x) == 1


@settings(max_examples=60, deadline=None)
@given(_satisfiable_reductions())
def test_witness_matches_reference(case):
    # a witness is found exactly when the collision search finds one, and it
    # cancels the scaled columns, has max-norm 1 and leads with +1
    out, assignment = case
    got = _outcome(witness_from_assignment, out, assignment, 10**6)
    want = _outcome(_reference_witness, out, assignment, 10**6)
    if want[0] is WitnessNotFoundError:
        assert got == want
    else:
        _check_witness(out, assignment, got)


def _first_in_search_order(out, assignment):
    """The first sign vector on the selected rows, in ``rcm_order``'s
    order with 0 < +1 < -1 at each step and earlier steps first, that
    cancels the scaled columns, by brute force; as a coefficient vector
    negated to lead with +1, or None."""
    row_of = {prov: r for r, prov in enumerate(out.row_provenance)}
    selected = [
        row_of[(t, tuple(assignment[x] for x in con.variables))]
        for t, con in enumerate(out.csp.constraints)
    ]
    lo, hi = out.profile.consistency_span[0], out.profile.support_span[1]
    scaled = [[(j, x) for j, x in out.rows[r] if lo <= j < hi] for r in selected]
    order = rcm_order(scaled, range(*out.profile.consistency_span))
    for signs in itertools.product((0, 1, -1), repeat=len(order)):
        if not any(signs):
            continue
        image = [0] * hi
        for s, i in zip(signs, order):
            for j, x in scaled[i]:
                image[j] += s * x
        if not any(image):
            v = [0] * out.num_rows
            for s, i in zip(signs, order):
                v[selected[i]] = s
            lead = next(x for x in v if x)
            return tuple(lead * x for x in v)
    return None


@settings(max_examples=40, deadline=None)
@given(_satisfiable_reductions())
def test_witness_is_the_first_in_search_order(case):
    # pruning drops only subtrees without a solution
    out, assignment = case
    assume(out.csp.num_constraints <= 8)
    got = _outcome(witness_from_assignment, out, assignment, 10**6)
    want = _first_in_search_order(out, assignment)
    if want is None:
        assert got[0] is WitnessNotFoundError
    else:
        assert got == want


def test_witness_cancellation_found_on_the_right(toy1_reduced):
    # toy1's second selected row cancels its first
    v = witness_from_assignment(toy1_reduced, (0, 0))
    assert _selected_signs(toy1_reduced, (0, 0), v) == [1, -1]


def _doctored(images):
    """Four constraints whose selected rows have the given scaled images in
    one column, and a private spread column each.  All four rows share the
    column and have degree 3, so the search visits rows 3, 2, 1, 0."""
    inst = _cyclic_csp(4, (1,), [((0, 0),)] * 4)
    out = reduce_csp(inst, explicit_profile(inst))
    basis = []
    for t, image in enumerate(images):
        row = [0] * out.num_cols
        row[0] = image
        row[out.profile.spread_span[0] + t * out.profile.spread_cols_per_constraint] = 1
        basis.append(tuple(row))
    return replace(out, rows=sparse_rows(basis))


def test_witness_rule_on_doctored_images():
    # Images 2, 1, 1, 3.  Rows 3 and 2 at 0 lead nowhere (the -1s mirror the
    # +1s), nor do 0, +1 on rows 3, 2 with 0 on row 1; then +1, +1 on rows
    # 2, 1 meet -1 on row 0.  The collision search pairs rows 1 and 2 instead.
    doctored = _doctored((2, 1, 1, 3))
    v = witness_from_assignment(doctored, (0,) * 4)
    assert v == (1, -1, -1, 0)
    assert _reference_witness(doctored, (0,) * 4, 10**6) == (0, 1, -1, 0)


def test_witness_state_count_on_doctored_images():
    # Images 4, 1, 2, 1, visited as 1, 2, 1, 4 with reaches 7, 5, 4.  Sums 1,
    # 2 and 3 before the last row are dead; -1 on row 1 after +1 on row 2
    # reaches sum 1 again, and so do 0 and +1 on row 1 after +1 on row 3
    # (sums 1 and 2).  The search keeps no record of dead sums, so it enters
    # all three again: 14 states in all, the start included
    doctored = _doctored((4, 1, 2, 1))
    assert witness_from_assignment(doctored, (0,) * 4, budget=14) == (0, 1, 0, -1)
    with pytest.raises(BudgetExceededError, match="exceeded 13 states"):
        witness_from_assignment(doctored, (0,) * 4, budget=13)


def test_witness_exact_integer_path():
    # at scale 10**18 the selected rows' support entries times 4 pass 2**63;
    # the search adds Python integers, so nothing overflows
    inst = _cyclic_csp(4, (1, 2), [((0, 0), (0, 1))] * 8)
    prof = derive_profile(
        inst, p=3, mode="explicit", consistency_width=1, support_width=2, scale=10**18
    )
    out = reduce_csp(inst, prof)
    selected = [out.row_provenance.index((t, (0, 0))) for t in range(8)]
    lo, hi = out.profile.consistency_span[0], out.profile.support_span[1]
    assert 4 * max(abs(out.basis[r][j]) for r in selected for j in range(lo, hi)) >= 2**63
    v = witness_from_assignment(out, (0,) * 4)
    _check_witness(out, (0,) * 4, v)
    assert _reference_witness(out, (0,) * 4, 10**6)


def test_witness_budget_boundary(toy1_reduced):
    # three states: the start, row 0 at 0 (a dead end) and row 0 at +1
    assert witness_from_assignment(toy1_reduced, (0, 0), budget=3) == (1, 0, -1)
    with pytest.raises(BudgetExceededError, match="exceeded 2 states"):
        witness_from_assignment(toy1_reduced, (0, 0), budget=2)


def test_witness_deeper_than_the_recursion_limit():
    # 2048 selected rows on bench_pipeline's largest rung
    csp, _vec = _bench_pipeline().cyclic_instance(1024)
    out = reduce_csp(csp, derive_profile(csp, p=None))
    assert csp.num_constraints > sys.getrecursionlimit()
    v = witness_from_assignment(out, (0,) * 1024)
    _check_witness(out, (0,) * 1024, v)


@pytest.mark.parametrize(
    "b_var, b_x, found",
    [(1, 1, True), (1, 2, True), (1, 3, True), (2, 1, False)],
)
def test_witness_at_wider_blocks(b_var, b_x, found):
    # bench_pipeline's cyclic N=8 rung under the all-zero assignment: the
    # scaled columns still cancel at support width 2 and 3, and cannot at
    # consistency width 2 (the search and the collision search agree)
    csp, _vec = _bench_pipeline().cyclic_instance(8)
    prof = derive_profile(
        csp, p=3, mode="explicit", consistency_width=b_var, support_width=b_x, scale=SCALE
    )
    out = reduce_csp(csp, prof)
    assignment = (0,) * 8
    if found:
        _check_witness(out, assignment, witness_from_assignment(out, assignment))
        assert _reference_witness(out, assignment, 10**6)
    else:
        for search in (witness_from_assignment, _reference_witness):
            with pytest.raises(WitnessNotFoundError):
                search(out, assignment, 10**6)


def test_witness_state_count_is_its_exact_budget():
    # cyclic N=8 at support width 3 under the all-zero assignment: the
    # search enters 1,731 states; the witness passes with that budget and
    # is refused with one less
    csp, _vec = _bench_pipeline().cyclic_instance(8)
    prof = derive_profile(
        csp, p=3, mode="explicit", consistency_width=1, support_width=3, scale=SCALE
    )
    out = reduce_csp(csp, prof)
    want = (1, 0, -1, 0, 1, 0, -1, 0, -1, 0, 1, 0, -1, 0, 1, 0,
            -1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0)
    assert witness_from_assignment(out, (0,) * 8, budget=1731) == want
    with pytest.raises(BudgetExceededError, match="witness search exceeded 1730 states"):
        witness_from_assignment(out, (0,) * 8, budget=1730)


def test_refused_witness_search_keeps_flat_memory():
    # cyclic N=32 at support width 5 has no witness within 10,000 states;
    # what the search holds must not grow with the states it enters
    csp = parse_csp(_perfbench_gen().cyclic_regular(32, 1))
    prof = derive_profile(
        csp, p=3, mode="explicit", consistency_width=1, support_width=5, scale=SCALE
    )
    out = reduce_csp(csp, prof)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="exceeded 10000 states"):
            witness_from_assignment(out, (0,) * 32, budget=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _frontier_plan_directly(rows, order):
    """Per step of ``order``: the columns it closes and its open columns'
    reach, by column index and straight from the definitions."""
    steps = [{j: x for j, x in rows[r] if x} for r in order]
    closing, reach = [], []
    for k, step in enumerate(steps):
        tail = {j: sum(abs(s.get(j, 0)) for s in steps[k + 1 :]) for j in step}
        closing.append({j for j in step if not tail[j]})
        reach.append({j: t for j, t in tail.items() if t})
    return closing, reach


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=4),
        min_size=1, max_size=8,
    )
)
def test_frontier_plan_against_the_definitions(dicts):
    rows = [tuple(sorted(d.items())) for d in dicts]
    plan = frontier_plan(rows, rcm_order(rows, range(0, 4)))
    assert sorted(plan.order) == list(range(len(rows)))
    column = {}
    for k, r in enumerate(plan.order):
        assert [x for _s, x in plan.entries[k]] == [x for _j, x in rows[r] if x]
        for (s, _x), (j, _y) in zip(plan.entries[k], [e for e in rows[r] if e[1]]):
            assert column.setdefault(s, j) == j
    assert sorted(column) == list(range(plan.num_slots))
    closing, reach = _frontier_plan_directly(rows, plan.order)
    assert [{column[s] for s in c} for c in plan.closing] == closing
    assert [{column[s]: t for s, t in r} for r in plan.reach] == reach


def test_frontier_plan_is_reverse_cuthill_mckee():
    # rows on a path 3 - 0 - 4 - 1 through link columns 10..13, row 2 alone,
    # and column 20 (not a link) on every row
    rows = [
        ((10, 1), (11, 1), (20, 1)),
        ((12, 1), (20, 1)),
        ((20, 1),),
        ((10, 1), (20, 1)),
        ((11, 1), (12, 1), (20, 1)),
    ]
    plan = frontier_plan(rows, rcm_order(rows, range(10, 14)))
    # degrees 2, 1, 0, 1, 2: start at row 2 (degree 0), then at row 1, the
    # least-degree row left, and walk 1, 4, 0, 3
    assert plan.order == (3, 0, 4, 1, 2)


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
    assert res.states > 0
    assert res.backend == "pure"
    assert "not a certified lattice minimum" in BOX_CAVEAT


def test_enumerate_maxnorm_override(toy1_reduced):
    res = enumerate_box(toy1_reduced, 1, p="inf")
    assert res.p is None
    assert res.power == 1
    assert res.vector == (-1, 0, 1)


def test_enumerate_unsat(unsat_reduced):
    res = enumerate_box(unsat_reduced, 1)
    assert res.power == 32
    assert res.vector == (-1, -1, 1, 1)


def _outside_box_minimum(inst, p, box, outer):
    """Brute force: the least power over the vectors of [-outer, outer]^m
    with a coefficient outside [-box, box]."""
    return min(
        lp_norm_power(apply_coefficients(v, inst.rows, inst.num_cols), p)
        for v in itertools.product(range(-outer, outer + 1), repeat=inst.num_rows)
        if max(map(abs, v)) > box
    )


@pytest.mark.parametrize(
    "name, p, box, floor, certified, hint",
    [
        ("toy1", 3, 1, 32, True, 1),  # 8 <= 4 * 2**3
        ("unsat", 3, 1, 32, True, 1),  # the minimum is 32 itself
        ("unsat", 3, 2, 108, True, 1),  # 4 * 3**3
        ("unsat", 2, 1, 16, True, 1),  # at p=2 the minimum is 16 itself
        ("toy1", None, 1, 2, True, 1),
        ("unsat", None, 1, 2, True, 1),
    ],
)
def test_outside_box_floor_against_brute_force(
    toy1_reduced, unsat_reduced, name, p, box, floor, certified, hint
):
    inst = toy1_reduced if name == "toy1" else unsat_reduced
    res = enumerate_box(inst, box, p=p)
    assert outside_box_floor(inst, res.p, box) == res.floor == floor
    # no vector of a larger box undercuts the floor
    assert _outside_box_minimum(inst, res.p, box, box + 2) >= floor
    assert res.certified == certified
    if certified:
        # a certified box minimum is the minimum of the larger box too
        assert enumerate_box(inst, box + 2, p=p).power == res.power
    assert certifying_box(inst, res.p, res.power) == hint
    assert outside_box_floor(inst, res.p, hint) >= res.power


def test_outside_box_floor_needs_p_at_least_2(toy1_reduced):
    assert outside_box_floor(toy1_reduced, 1, 1) is None
    assert certifying_box(toy1_reduced, 1, 8) is None
    assert enumerate_box(toy1_reduced, 1, p=1).certified is False
    # past scale**p no box floor reaches the power
    assert certifying_box(toy1_reduced, 3, SCALE**3 + 1) is None
    assert certifying_box(toy1_reduced, None, SCALE + 1) is None


@pytest.mark.parametrize("p", [2, 3, 4, 7])
def test_certifying_box_is_the_least_box_whose_floor_reaches_the_power(toy1_reduced, p):
    # per = 4: the floors are 4 * (k+1)**p, so every power up to past box
    # 6's floor, and each floor and its neighbours, is a case
    floors = [outside_box_floor(toy1_reduced, p, k) for k in range(1, 8)]
    powers = set(range(1, 200)) | {f + d for f in floors for d in (-1, 0, 1)}
    for power in sorted(powers):
        want = next(k for k in itertools.count(1) if outside_box_floor(toy1_reduced, p, k) >= power)
        assert certifying_box(toy1_reduced, p, power) == want, power


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
    # the reported state count is the exact budget: the search passes with
    # it and refuses with one less.  ``spans_only``: the node counts (2c+1
    # per level entered) of a search where only a constraint's spread
    # columns closed early; the state count stays under them
    inst = request.getfixturevalue(fixture)
    res = enumerate_box(inst, box)
    assert res.power == power
    assert _reference_box_dfs(inst.rows, box, 3, 10**9)[:2] == (res.power, res.vector)
    assert enumerate_box(inst, box, budget=res.states) == res
    with pytest.raises(BudgetExceededError, match=f"exceeded {res.states - 1} states"):
        enumerate_box(inst, box, budget=res.states - 1)
    assert res.states <= spans_only


def test_enumerate_budget(unsat_reduced):
    with pytest.raises(BudgetExceededError):
        enumerate_box(unsat_reduced, 1, budget=2)


def test_indicated_view(toy1_reduced):
    view = indicated_view((1, 0, -1), toy1_reduced)
    assert view.constraints == frozenset({0, 1})
    assert view.tuple_multiplicity == {(0, 0): 2, (1, 0): 2}
    assert view.num_constraints == 2
    assert view.num_distinct_tuples == 2
    assert view.symbols_by_variable == {0: (0,), 1: (0,)}

    view = indicated_view((1, 1, 0), toy1_reduced)
    assert view.constraints == frozenset({0})
    assert view.symbols_by_variable == {0: (0, 1), 1: (0, 1)}


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 5)), st.integers(1, 4)))
def test_symbols_by_variable_matches_the_per_variable_scan(multiplicity):
    view = IndicatedView(frozenset(), multiplicity)
    for x in range(14):
        scan = tuple(sorted(a for (y, a) in multiplicity if y == x))
        assert view.symbols_by_variable.get(x, ()) == scan
    assert all(view.symbols_by_variable.values())


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
    spread_lo = toy1_reduced.profile.spread_span[0]
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
    spread_lo = toy1_reduced.profile.spread_span[0]
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


def test_extract_sampled_is_deterministic(unsat_reduced, monkeypatch):
    monkeypatch.setattr("svpforge.verifier.EXHAUSTIVE_COMBOS", 3)
    a = extract_assignment((1, 1, 1, 1), unsat_reduced, seed=11)
    b = extract_assignment((1, 1, 1, 1), unsat_reduced, seed=11)
    assert a == b
    assert a.mode == "sampled" and a.seed == 11


def test_extract_auto_switches_to_sampled(unsat_reduced, monkeypatch):
    # 4 candidate assignments: exhaustive at a budget of 4, sampled below it
    monkeypatch.setattr("svpforge.verifier.EXHAUSTIVE_COMBOS", 4)
    exhaustive = extract_assignment((1, 1, 1, 1), unsat_reduced)
    assert exhaustive.mode == "exhaustive"
    monkeypatch.setattr("svpforge.verifier.EXHAUSTIVE_COMBOS", 3)
    res = extract_assignment((1, 1, 1, 1), unsat_reduced, seed=5)
    assert res.mode == "sampled"
    assert res.fraction <= Fraction(1, 2)


@pytest.mark.parametrize("fixture, v", [("unsat_reduced", (1, 1, 1, 1)), ("toy1_reduced", (1, 1, 1))])
def test_extract_sampled_matches_a_scan_of_every_draw(request, monkeypatch, fixture, v):
    # below the 4 candidate assignments, so the draws are sampled; toy1's
    # draws reach a satisfying one, where the scan stops
    inst = request.getfixturevalue(fixture)
    monkeypatch.setattr("svpforge.verifier.EXHAUSTIVE_COMBOS", 3)
    monkeypatch.setattr("svpforge.verifier.SAMPLES", 40)
    res = extract_assignment(v, inst, seed=3)
    assert res.mode == "sampled"
    by_variable = indicated_view(v, inst).symbols_by_variable
    candidates = [by_variable.get(x, (0,)) for x in range(inst.csp.num_vars)]
    rng = random.Random(3)
    draws = [tuple(rng.choice(c) for c in candidates) for _ in range(40)]
    best = max(evaluate(inst.csp, d) for d in draws)
    first = next(d for d in draws if evaluate(inst.csp, d) == best)
    assert (res.fraction, res.assignment) == (best, first)


def test_audit_on_a_max_norm_basis(toy1):
    prof = derive_profile(toy1, p="inf", consistency_width=1, support_width=1, scale=SCALE)
    inst = reduce_csp(toy1, prof)
    witness = audit_vector((1, 0, -1), inst)
    assert (witness.max_abs, witness.norm_power, witness.exceeds_threshold) == (1, 1, False)
    single = audit_vector((1, 0, 0), inst)
    assert (single.max_abs, single.exceeds_threshold) == (SCALE, True)
    small = next(c for c in single.checks if c.name == "small-support-blowup")
    assert small.hypothesis and small.conclusion


def test_enumerate_refuses_a_basis_with_no_rows():
    csp = parse_csp("csp 2 1 2 2\ncon 0 1\n")
    inst = reduce_csp(csp, explicit_profile(csp))
    assert inst.num_rows == 0
    with pytest.raises(ValueError, match="^need at least one row$"):
        enumerate_box(inst, 1)


def _integer_refusals():
    """The norm index, box radius, budgets, coefficients and assignment
    values given as a bool or a float, mapped to the refusal's message.
    Unrefused, a bool p ran as p=1, box 1.5 on toy1 at p=3 gave the float
    power 8.0 with the floor 62.5, though a coefficient outside the box has
    magnitude at least 2, and the audit of (0.5, 0, -0.5), no lattice
    vector, reported the power 1.0 below the threshold."""
    toy1 = parse_csp((DATA / "toy1.csp").read_text())
    out = reduce_csp(toy1, explicit_profile(toy1))
    cases = {
        "bool-p": lambda: normalize_p(True),
        "bool-p-norm": lambda: lp_norm_power([2, -3], True),
        "bool-p-box": lambda: enumerate_box(out, 1, p=True),
        "float-box": lambda: enumerate_box(out, 1.5),
        "float-box-budget": lambda: enumerate_box(out, 1, budget=2.5),
        "float-witness-budget": lambda: witness_from_assignment(out, (0, 0), budget=1e6),
        "float-coefficient-audit": lambda: audit_vector((0.5, 0, -0.5), out),
        "bool-coefficient-facts": lambda: structural_facts((True, 0, -1), out),
        "float-coefficient-image":
            lambda: apply_coefficients((1.0, 0, -1), out.rows, out.num_cols),
        "float-assignment-witness": lambda: witness_from_assignment(out, (0.0, 0)),
        "bool-assignment-evaluate": lambda: evaluate(toy1, (False, 0)),
    }
    got = {}
    for name, call in cases.items():
        try:
            call()
            got[name] = "accepted"
        except (CspValidationError, ProfileError, ValueError) as exc:
            got[name] = str(exc)
    return got


INTEGER_REFUSALS = {
    "bool-p": "unsupported norm index True: use 1 to 64, or 'inf'",
    "bool-p-norm": "unsupported norm index True: use 1 to 64, or 'inf'",
    "bool-p-box": "unsupported norm index True: use 1 to 64, or 'inf'",
    "float-box": "box radius must be an integer, got 1.5",
    "float-box-budget": "budget must be an integer, got 2.5",
    "float-witness-budget": "budget must be an integer, got 1000000.0",
    "float-coefficient-audit": "coefficient must be an integer, got 0.5",
    "bool-coefficient-facts": "coefficient must be an integer, got True",
    "float-coefficient-image": "coefficient must be an integer, got 1.0",
    "float-assignment-witness": "assignment value must be an integer, got 0.0",
    "bool-assignment-evaluate": "assignment value must be an integer, got False",
}


def test_a_bool_norm_index_or_a_float_box_or_budget_is_refused():
    assert _integer_refusals() == INTEGER_REFUSALS


def test_a_bool_norm_index_or_a_float_box_or_budget_is_refused_without_asserts():
    assert without_asserts("test_verifier", "_integer_refusals") == INTEGER_REFUSALS
