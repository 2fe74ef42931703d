"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import logging
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import svpforge.kernels  # noqa: E402
from svpforge import derive_profile, enumerate_box, parse_csp, reduce_csp  # noqa: E402
from svpforge.basisio import emit_basis  # noqa: E402

import gen  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

logging.disable(logging.WARNING)


def explicit(text, p):
    inst = parse_csp(text)
    return reduce_csp(inst, derive_profile(
        inst, p=p, mode="explicit", consistency_width=1, support_width=1, scale=10**6))


def test_generator_is_deterministic():
    for make in (lambda s: gen.cyclic_regular(8, s), lambda s: gen.odd_cycle(5, s), gen.irregular,
                 lambda s: gen.cyclic_regular(6, 4, relabel_seed=s)):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_generated_families_have_their_promised_shape():
    sat = refs.parse_csp(gen.cyclic_regular(6, 2, relabel_seed=5))
    assert set(refs.degrees(sat)) == {4}
    assert all((0, 0) in acc for _scope, acc in sat[2])
    assert refs.satisfied_fraction(sat, [0] * 6) == 1

    unsat = refs.parse_csp(gen.odd_cycle(5, 2))
    assert set(refs.degrees(unsat)) == {4}
    best = max(refs.satisfied_fraction(unsat, [(a >> i) & 1 for i in range(5)]) for a in range(32))
    assert best < 1

    assert sorted(refs.degrees(refs.parse_csp(gen.irregular(1)))) == [3, 3, 4, 4, 4, 6]


def test_known_short_vector_on_a_tiny_instance():
    text = gen.cyclic_regular(4, 7)
    inst = parse_csp(text)
    basis = reduce_csp(inst, derive_profile(inst)).basis
    rows = refs.parse_basis(emit_basis(basis))
    ref = refs.parse_csp(text)
    vec = gen.known_short_vector(text)
    assert refs.check_short_vector(rows, ref, vec) is None
    assert refs.spread_nonzeros(rows, ref, vec) == 4 * len(ref[2])

    rows[0][0] += 1  # one tampered scaled entry must be caught
    assert refs.check_short_vector(rows, ref, vec) == "scaled blocks do not cancel"


@pytest.mark.parametrize("text,pinned", [(gen.TOY1, 8), (gen.TOY_UNSAT, 32)])
def test_oracle_agrees_with_the_enumerator_on_the_toys(text, pinned):
    out = explicit(text, 3)
    rows = [list(r) for r in out.basis]
    assert refs.box_oracle(rows, 1, 3)[0] == pinned
    for box in (1, 2, 3):
        res = enumerate_box(out, box)
        assert refs.box_oracle(rows, box, 3) == (res.power, res.vector)


def test_oracle_on_a_twelve_row_max_norm_basis():
    out = explicit(gen.odd_cycle(3, 1), "inf")
    res = enumerate_box(out, 1)
    assert refs.box_oracle([list(r) for r in out.basis], 1, None) == (res.power, res.vector)


def test_planted_wrong_output_counts_as_a_failure(tmp_path, monkeypatch):
    w = workloads.Verify(tmp_path, workloads.DEFAULT_SEED, {"digests": {}})
    setup = workloads.Pass()
    w.setup(setup)
    assert setup.finish() == []

    real = svpforge.kernels.box_minimum

    def off_by_one(*args):
        power, vector, nodes = real(*args)
        return power + 1, vector, nodes

    monkeypatch.setattr(svpforge.kernels, "box_minimum", off_by_one)
    p = workloads.Pass()
    w.run_pass(p)
    failed = {j.label for j in p.finish()}
    enumerations = {j.label for j in p.jobs if j.label.startswith("enumerate")}
    assert failed == enumerations
    assert 0 < len(failed) / len(p.jobs) < 1


def test_nonzero_exit_counts_as_a_failure(tmp_path):
    p = workloads.Pass()
    assert p.cli("missing file", ["validate", tmp_path / "absent.csp"]) is None
    assert [j.label for j in p.finish()] == ["missing file"]


def test_tracing_catches_nested_calls_and_uninstalls():
    import svpforge.reduction as reduction

    original = reduction.reduced_vandermonde
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        explicit(gen.TOY1, 3)
    finally:
        undo()
    assert reduction.reduced_vandermonde is original
    names = [s[0] for s in tracer.spans]
    assert names.count("gadgets.reduced_vandermonde") == 2
    parent = tracer.spans[names.index("gadgets.reduced_vandermonde")][3]
    assert tracer.spans[parent][0].startswith("reduction.build_")
    st = tracer.self_times(0)
    total = sum(t1 - t0 for n, t0, t1, par, _p in tracer.spans if par == -1)
    assert sum(st.values()) == pytest.approx(total)
    assert tracer.counts[0]["gadgets.reduced_vandermonde.rows_built"] == 2 * 66


def test_combo_rank_matches_lexicographic_order():
    import itertools

    for rank, combo in enumerate(itertools.combinations(range(7), 3)):
        assert refs.combo_rank(combo, 7) == rank
