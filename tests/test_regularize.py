"""Degree regularization: duplication, dispersers, lifting."""

import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import pathlib
import time
from fractions import Fraction

import pytest

from svpforge.csp import emit_csp, evaluate, max_sat_bruteforce, parse_csp, validate_regular
from svpforge.errors import (
    BudgetExceededError,
    DisperserCertificationError,
    RegularizeError,
)
from svpforge.gadgets import BipartiteBiregular, verify_disperser
from svpforge.regularize import (
    MAX_SCOPE_ENTRIES,
    RegularizeParams,
    _search_certified,
    build_disperser,
    lineage_json,
    regularize,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the package re-exports the function regularize() under the submodule's name
regularize_module = importlib.import_module("svpforge.regularize")

# The smallest shape of the grid below on which no bi-regular graph
# certifies: (a, b, w, f, beta).  Left vertex 0's three neighbours are a
# subset of size floor(beta*b) = 3 that absorbs it, and 1 > delta*a = 3/4.
NO_CERTIFIED_GRAPH = (2, 6, 3, 1, Fraction(1, 2))


def _perfbench_gen():
    """``perfbench/gen.py`` as a module, for its irregular family."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_search_certified(
    a, b, w, f, delta, beta, leaf_budget, subset_budget, counts=None
):
    """Backtracking over left adjacency choices in lex order; first graph to
    pass certification wins, so the result is deterministic.  The recursive
    search ``regularize._search_certified`` replaced; ``counts``, when given,
    receives the candidates tried and the complete graphs reached."""
    choices = list(itertools.combinations(range(b), w))
    caps = [f] * b
    adj: list[tuple[int, ...]] = []
    leaves = 0
    tried = 0

    def backtrack(i):
        nonlocal leaves, tried
        if i == a:
            leaves += 1
            if leaves > leaf_budget:
                raise BudgetExceededError(
                    f"disperser search exceeded {leaf_budget} candidate graphs"
                )
            graph = BipartiteBiregular(a, b, w, f, tuple(adj))
            ok, _cert = verify_disperser(graph, delta, beta, subset_budget)
            return graph if ok else None
        open_rights = sum(1 for r in range(b) if caps[r] > 0)
        if open_rights < w:
            return None
        for subset in choices:
            if all(caps[r] > 0 for r in subset):
                tried += 1
                for r in subset:
                    caps[r] -= 1
                adj.append(subset)
                got = backtrack(i + 1)
                if got is not None:
                    return got
                adj.pop()
                for r in subset:
                    caps[r] += 1
        return None

    got = backtrack(0)
    if counts is not None:
        counts.update(tried=tried, leaves=leaves)
    return got


def _search_grid():
    """Every (a, b, w, f, beta) with a <= 4, b <= 8, w <= 3 and w*a == f*b."""
    for a, b, w in itertools.product(range(1, 5), range(1, 9), range(1, 4)):
        if w <= b and (w * a) % b == 0:
            for beta in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                yield a, b, w, w * a // b, beta


@pytest.fixture
def reg_toy1(toy1):
    params = RegularizeParams.defaults(
        toy1, duplication=2, spread=2, beta=Fraction(1, 2)
    )
    return regularize(toy1, params)


def test_defaults(toy_unsat):
    params = RegularizeParams.defaults(toy_unsat)
    assert params.duplication == 2  # ceil(1 / (1/2))
    assert params.spread == 12  # ceil(6q / c) with q=2, c=1
    assert 0 < params.beta < 1
    # the default beta respects beta**(2q) <= s
    assert params.beta ** (2 * toy_unsat.arity) <= toy_unsat.soundness


def test_defaults_with_unit_soundness(toy1):
    params = RegularizeParams.defaults(toy1)
    assert params.duplication == 1
    assert params.beta == Fraction(1, 2)


def test_param_validation():
    with pytest.raises(RegularizeError):
        RegularizeParams(duplication=0, spread=1, beta=Fraction(1, 2))
    with pytest.raises(RegularizeError):
        RegularizeParams(duplication=1, spread=1, beta=Fraction(3, 2))


def test_right_degree_below_1_is_refused():
    for degree in (0, -3):
        with pytest.raises(RegularizeError, match="right degree must be at least 1"):
            RegularizeParams(duplication=1, spread=1, beta=Fraction(1, 2), right_degree=degree)


@pytest.mark.parametrize("knob", ["duplication", "spread"])
def test_an_output_past_the_size_limit_is_refused_before_building(toy1, knob):
    # toy1 has 4 variable occurrences: duplication * 4 * spread scope
    # entries, refused at once past the limit
    params = RegularizeParams.defaults(toy1, **{knob: 10**18})
    start = time.perf_counter()
    with pytest.raises(RegularizeError, match=f"past the size limit of {MAX_SCOPE_ENTRIES}"):
        regularize(toy1, params)
    assert time.perf_counter() - start < 1


def test_the_size_limit_admits_an_output_of_exactly_its_size(toy1, monkeypatch):
    params = RegularizeParams.defaults(toy1)
    entries = params.duplication * sum(toy1.degrees()) * params.spread
    monkeypatch.setattr(regularize_module, "MAX_SCOPE_ENTRIES", entries)
    out = regularize(toy1, params)
    assert sum(out.instance.degrees()) == entries
    monkeypatch.setattr(regularize_module, "MAX_SCOPE_ENTRIES", entries - 1)
    with pytest.raises(RegularizeError, match="would have"):
        regularize(toy1, params)


def test_duplicate_constraints(toy1, reg_toy1):
    # duplication 2: each source constraint's copies are adjacent, and they
    # accept the same (symbol-repeated) tuples
    assert reg_toy1.con_lineage == ((0, 0), (0, 1), (1, 0), (1, 1))
    out = reg_toy1.instance.constraints
    for (src, _dup), con in zip(reg_toy1.con_lineage, out):
        assert con.accepted == tuple(
            tuple(a for a in tup for _ in range(2)) for tup in toy1.constraints[src].accepted
        )
    assert out[0].accepted == out[1].accepted != out[2].accepted == out[3].accepted


# sha256 of emit_csp(reg.instance) + the lineage file's text, at duplication
# 2, spread 2, beta 1/2: the output of the regularizer that built a
# duplicated instance and searched one disperser per variable
REGULARIZED_DIGESTS = [
    ("toy1", "13ca9121b90cdea0587e5d0c2a1612bc1fca6c082edbc1edc2645989fa4668e6"),
    ("toy_unsat", "264c8523f7f3b2dd55abc160533346c6f12e2f35190bd74d4a05c86fbe674405"),
    ("irregular(1)", "3806c931ecd551e412361f531e1b271c87b066601cfdaf8d11229691aaba3622"),
    ("irregular(2)", "3af078a0eeb073134e01fe2c81b017805d42ac6610beae6e847254aa650e502b"),
    ("irregular(3)", "97b55de44a131813b93486c7ab68c5779ef77a426a0354933016abb56f25221b"),
    ("irregular(4)", "5754a00cb12b9607ff3ab2d4887e2b19877d7812db032061c042e214f5de4ff5"),
    ("irregular(5)", "9efbf1df9d4f9a09e64b602972f984534d932e8968ecd8ac21416ec1907fb0b4"),
    ("cyclic(64)", "194af6d033da433b49d6be72ea015940de3dcff7d0713074ace73fed06c3091e"),
]


def _digest_input(name):
    """toy1, toy_unsat, irregular(seed) or cyclic(n) (seed 1), parsed."""
    if name.startswith("toy"):
        return parse_csp((ROOT / "data" / f"{name}.csp").read_text())
    family, arg = name.rstrip(")").split("(")
    gen = _perfbench_gen()
    text = gen.irregular(int(arg)) if family == "irregular" else gen.cyclic_regular(int(arg), 1)
    return parse_csp(text)


@pytest.mark.parametrize("name, digest", REGULARIZED_DIGESTS)
def test_regularized_output_is_pinned(name, digest):
    inst = _digest_input(name)
    reg = regularize(
        inst, RegularizeParams.defaults(inst, duplication=2, spread=2, beta=Fraction(1, 2))
    )
    text = emit_csp(reg.instance) + json.dumps(lineage_json(reg), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, searches", [("irregular(1)", 3), ("cyclic(64)", 1)])
def test_one_disperser_search_per_distinct_degree(monkeypatch, name, searches):
    # irregular(1)'s degrees 6,4,4,4,3,3 double to three distinct degrees;
    # every variable of cyclic(64) has degree 4
    inst = _digest_input(name)
    calls = []
    build = regularize_module.build_disperser

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(regularize_module, "build_disperser", counting)
    reg = regularize(
        inst, RegularizeParams.defaults(inst, duplication=2, spread=2, beta=Fraction(1, 2))
    )
    assert len(calls) == searches == len(set(calls))
    degrees = [2 * d for d in inst.degrees()]
    assert calls == list(dict.fromkeys(degrees))
    # variables of one degree share that degree's graph
    for x, y in itertools.combinations(range(inst.num_vars), 2):
        assert (reg.dispersers[x] is reg.dispersers[y]) == (degrees[x] == degrees[y])


def test_regularize_toy1_shape(toy1, reg_toy1):
    out = reg_toy1.instance
    assert (out.num_vars, out.num_constraints, out.arity) == (4, 4, 4)
    report = validate_regular(out)
    assert report.is_regular and report.degree == 4
    assert reg_toy1.params.right_degree == 4
    # scopes repeat each original variable's copies, in ascending copy order
    for con in out.constraints:
        assert len(set(con.variables)) == 4


def test_regularize_lift_and_project(toy1, reg_toy1):
    out = reg_toy1.instance
    for assignment in ((0, 0), (1, 1), (0, 1)):
        lifted = reg_toy1.lift_assignment(assignment)
        assert len(lifted) == out.num_vars
        assert reg_toy1.project_assignment(lifted) == tuple(assignment)
    # a satisfying assignment lifts to a fully satisfying assignment
    lifted = reg_toy1.lift_assignment((0, 0))
    assert evaluate(out, lifted) == 1


def test_regularize_preserves_unsat_gap(toy_unsat):
    params = RegularizeParams.defaults(
        toy_unsat, duplication=2, spread=2, beta=Fraction(1, 2)
    )
    reg = regularize(toy_unsat, params)
    best, _ = max_sat_bruteforce(reg.instance)
    assert best == Fraction(1, 2)


def test_regularize_accepted_tuples_repeat_symbols(toy1, reg_toy1):
    out = reg_toy1.instance
    con = out.constraints[0]
    src = toy1.constraints[0]
    assert len(con.accepted) == len(src.accepted)
    for tup, orig in zip(con.accepted, src.accepted):
        assert tup == tuple(a for a in orig for _ in range(2))


def test_regularize_dispersers_certified(reg_toy1):
    params = reg_toy1.params
    delta = 3 * params.beta**params.spread
    for g in reg_toy1.dispersers:
        ok, cert = verify_disperser(g, delta, params.beta)
        assert ok and cert is None


def test_regularize_rejects_bad_right_degree(toy1):
    params = RegularizeParams.defaults(
        toy1, duplication=2, spread=2, beta=Fraction(1, 2), right_degree=3
    )
    with pytest.raises(RegularizeError):
        regularize(toy1, params)  # 3 does not divide w*d = 8


def test_regularize_rejects_unused_variable():
    inst = parse_csp("csp 3 1 2 2\ncon 0 1\nacc 0 0\n")
    params = RegularizeParams.defaults(inst, duplication=1, spread=1)
    with pytest.raises(RegularizeError):
        regularize(inst, params)  # variable 2 has degree zero


def test_build_disperser_small_sizes():
    for a, w, beta in ((4, 2, Fraction(1, 2)), (6, 2, Fraction(1, 2)), (4, 1, Fraction(1, 2))):
        g = build_disperser(a, w, beta)
        assert g.left_size == a and g.left_degree == w
        assert g.right_size <= 12
        ok, _ = verify_disperser(g, 3 * beta**w, beta)
        assert ok


def test_search_matches_the_recursive_reference():
    failing = []
    for a, b, w, f, beta in _search_grid():
        delta = 3 * beta**w
        want = _reference_search_certified(a, b, w, f, delta, beta, 10**6, 10**6)
        assert _search_certified(a, b, w, f, delta, beta) == want, (a, b, w, f, beta)
        if want is None:
            failing.append((a, b, w, f, beta))
    assert failing[0] == NO_CERTIFIED_GRAPH


def test_no_certified_graph_raises():
    a, b, w, _f, beta = NO_CERTIFIED_GRAPH
    with pytest.raises(DisperserCertificationError):
        build_disperser(a, w, beta, right_size=b)


@pytest.mark.parametrize(
    "shape",
    [(4, 4, 2, 2, Fraction(1, 2)), (4, 8, 2, 1, Fraction(1, 4)), NO_CERTIFIED_GRAPH],
    ids=["certified", "none-after-2520-graphs", "none-after-20-graphs"],
)
def test_search_budget_counts_candidates_and_certified_subsets(monkeypatch, shape):
    # one unit per candidate tried, and floor(beta*b)-subsets per graph
    a, b, w, f, beta = shape
    delta = 3 * beta**w
    counts = {}
    want = _reference_search_certified(a, b, w, f, delta, beta, 10**6, 10**6, counts)
    work = counts["tried"] + counts["leaves"] * math.comb(b, int(beta * b))
    monkeypatch.setattr(regularize_module, "SEARCH_BUDGET", work)
    assert _search_certified(a, b, w, f, delta, beta) == want
    monkeypatch.setattr(regularize_module, "SEARCH_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError):
        _search_certified(a, b, w, f, delta, beta)


def test_default_parameters_refuse_a_hopeless_shape_at_once():
    # spread 12 and a degree-6 variable: b = 24 and floor(beta*b) = 12, so a
    # left vertex's 12 neighbours fill one subset and 1 > delta*a = 18/4096
    inst = parse_csp(_perfbench_gen().irregular(1))
    params = RegularizeParams.defaults(inst)
    assert params.spread == 12
    start = time.perf_counter()
    with pytest.raises(
        DisperserCertificationError,
        match="^no bi-regular graph on \\(6, 24\\) .*: a left vertex's 12 neighbours "
        "fit in a right subset of size floor\\(beta\\*B\\) = 12, which absorbs it, "
        "and 1 > delta\\*A = 9/2048$",
    ):
        regularize(inst, params)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "a, w, beta, b",
    [(2, 3, Fraction(1, 2), 6), (6, 12, Fraction(1, 2), 24), (4, 2, Fraction(1, 4), 8)],
)
def test_hopeless_shapes_refuse_before_the_search(monkeypatch, a, w, beta, b):
    # w <= floor(beta*b) and delta*a < 1: refused without a candidate tried
    def no_search(*args):
        raise AssertionError("searched a hopeless shape")

    monkeypatch.setattr(regularize_module, "_search_certified", no_search)
    assert w <= int(beta * b) and 3 * beta**w * a < 1
    with pytest.raises(DisperserCertificationError, match="which absorbs it"):
        build_disperser(a, w, beta, right_size=b)


def test_shapes_just_short_of_hopeless_are_searched():
    # delta*a = 1 exactly, and w > floor(beta*b): the search runs, and here
    # it certifies a graph
    for a, w, beta, b in ((3, 2, Fraction(1, 3), 6), (2, 3, Fraction(1, 4), 6)):
        g = build_disperser(a, w, beta, right_size=b)
        assert verify_disperser(g, 3 * beta**w, beta)[0]


def test_lineage_json(reg_toy1):
    data = lineage_json(reg_toy1)
    assert data["version"] == 2
    assert "strategy" not in data
    assert data["duplication"] == 2
    assert data["spread"] == 2
    assert len(data["variables"]) == reg_toy1.instance.num_vars
    assert len(data["constraints"]) == reg_toy1.instance.num_constraints
