"""Instance model, parser, brute-force oracle, indicator matrix."""

import itertools
from fractions import Fraction

import pytest

from svpforge.csp import (
    Constraint,
    CspInstance,
    candidate_rows,
    emit_csp,
    evaluate,
    indicator_matrix,
    max_sat_bruteforce,
    parse_csp,
    validate_regular,
)
from svpforge.errors import BudgetExceededError, CspParseError, CspValidationError


def test_parse_toy1_shape(toy1):
    assert toy1.num_vars == 2
    assert toy1.num_constraints == 2
    assert toy1.arity == 2
    assert toy1.alphabet_size == 2
    assert toy1.soundness == 1
    assert toy1.constraints[0].accepted == ((0, 0), (1, 1))
    assert toy1.constraints[1].accepted == ((0, 0),)


def test_parse_soundness_line(toy_unsat):
    assert toy_unsat.soundness == Fraction(1, 2)


def test_emit_parse_roundtrip(toy1, toy_unsat):
    for inst in (toy1, toy_unsat):
        assert parse_csp(emit_csp(inst)) == inst


def test_emit_omits_trivial_soundness(toy1):
    assert "\ns " not in emit_csp(toy1)


@pytest.mark.parametrize(
    "text,fragment,has_line",
    [
        ("", "header", False),
        ("csp 2 2 2\ncon 0 1\nacc 0 0\n", "header", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 0 0\nacc 0 0\n", "duplicate", True),
        ("csp 2 1 2 2\ncon 0 0\nacc 0 0\n", "repeated variable", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 0 2\n", "symbol", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 0\n", "symbols", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 0 0\ns 1/2\ns 1/2\n", "duplicate", True),
        ("csp 2 1 2 2\ns 0/1\ncon 0 1\nacc 0 0\n", "soundness", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 0 0\ncon 0 1\nacc 0 0\n", "promises", False),
        ("csp 2 1 2 2\nacc 0 0\n", "before", True),
        ("csp 2 1 2 2\ncon 0 x\nacc 0 0\n", "integer", True),
    ],
)
def test_parse_errors(text, fragment, has_line):
    with pytest.raises(CspParseError) as err:
        parse_csp(text)
    message = str(err.value)
    assert fragment in message
    if has_line:
        assert message.startswith("line ")


def test_duplicate_at_the_end_of_a_long_accept_list():
    # every tuple of arity 3 over 16 symbols, then the first one again; the
    # same tuples under a second constraint are not duplicates
    tuples = "".join(f"acc {a} {b} {c}\n" for a, b, c in itertools.product(range(16), repeat=3))
    body = "con 0 1 2\n" + tuples
    assert parse_csp("csp 3 2 3 16\n" + body + body).num_constraints == 2
    with pytest.raises(CspParseError) as err:
        parse_csp("csp 3 1 3 16\n" + body + "acc 0 0 0\n")
    assert err.value.line == 2 + 16**3 + 1
    assert str(err.value) == f"line {2 + 16**3 + 1}: duplicate accepted tuple (0, 0, 0)"


def test_validation_rejects_bad_scope():
    con = Constraint(variables=(0, 0), accepted=((0, 0),))
    with pytest.raises(CspValidationError):
        CspInstance(num_vars=2, alphabet_size=2, arity=2, constraints=(con,))


def test_degrees_and_regularity(toy1):
    assert toy1.degrees() == (2, 2)
    report = validate_regular(toy1)
    assert report.is_regular and report.degree == 2
    assert report.handshake_holds

    lopsided = parse_csp("csp 3 2 2 2\ncon 0 1\nacc 0 0\ncon 0 2\nacc 0 0\n")
    report = validate_regular(lopsided)
    assert not report.is_regular
    assert report.degrees == (2, 1, 1)


def test_randomness_bits(toy1):
    assert toy1.randomness_bits == 1
    three = parse_csp(
        "csp 2 3 2 2\ncon 0 1\nacc 0 0\ncon 0 1\nacc 0 0\ncon 0 1\nacc 0 0\n"
    )
    assert three.randomness_bits is None


def test_evaluate(toy1):
    assert evaluate(toy1, (0, 0)) == 1
    assert evaluate(toy1, (1, 1)) == Fraction(1, 2)
    assert evaluate(toy1, (0, 1)) == 0
    with pytest.raises(CspValidationError):
        evaluate(toy1, (0,))
    with pytest.raises(CspValidationError):
        evaluate(toy1, (0, 2))


def test_max_sat_bruteforce(toy1, toy_unsat):
    assert max_sat_bruteforce(toy1) == (Fraction(1), (0, 0))
    assert max_sat_bruteforce(toy_unsat) == (Fraction(1, 2), (0, 0))


def test_max_sat_budget(toy1):
    with pytest.raises(BudgetExceededError):
        max_sat_bruteforce(toy1, budget=3)


def test_candidate_rows_order(toy1):
    rows = list(candidate_rows(toy1))
    assert rows[:4] == [(0, (0, 0)), (0, (0, 1)), (0, (1, 0)), (0, (1, 1))]
    assert len(rows) == 8


def test_indicator_matrix(toy1):
    mat = indicator_matrix(toy1)
    assert len(mat.row_index) == 8
    assert len(mat.col_index) == 4
    # accepted rows carry exactly arity ones; rejected rows are all zero
    for r, (t, tup) in enumerate(mat.row_index):
        ones = sum(mat.entries[r])
        accepted = tup in toy1.constraints[t].accepted_set
        assert ones == (2 if accepted else 0)
    # the row for constraint 0, tuple (1, 1) marks (var 0, sym 1) and (var 1, sym 1)
    r = mat.row_index.index((0, (1, 1)))
    c01 = mat.col_index.index((0, 1))
    c11 = mat.col_index.index((1, 1))
    assert mat.entries[r][c01] == 1 and mat.entries[r][c11] == 1


def test_indicator_matrix_budget(toy1):
    with pytest.raises(BudgetExceededError):
        indicator_matrix(toy1, cell_budget=4)
