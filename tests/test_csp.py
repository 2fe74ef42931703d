"""Instance model, parser, brute-force oracle, indicator matrix."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svpforge.csp import (
    MAX_VARIABLES,
    Constraint,
    CspInstance,
    best_assignment,
    candidate_rows,
    emit_csp,
    evaluate,
    indicator_matrix,
    max_sat_bruteforce,
    parse_csp,
    validate_regular,
)
from svpforge.errors import BudgetExceededError, CspParseError, CspValidationError

from conftest import without_asserts


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
        ("csp 2 1 2 2\ncon 0 1\nacc 0 x\n", "line 3: expected integer, got 'x'", True),
        ("csp 2 1 2 2\ncon 0 1\nacc 1 0\nacc 0 2\n", "line 4: symbol 2 out of range", True),
        ("csp 2 1 2 2\ncon 0 1\nacc -1 5\n", "line 3: symbol -1 out of range", True),
        ("csp 2 1 2 2\ncon 0 2\n", "line 2: variable 2 out of range", True),
        # arity 0 passes the per-line checks with empty tuples, and min() of
        # an empty tuple must not run; the instance check refuses it
        ("csp 1 1 0 1\ncon\nacc\n", "arity must be at least 1", False),
        # the other shape checks the parser leaves to the end
        ("csp 0 0 2 2\n", "need at least one variable", False),
        ("csp 2 0 2 0\n", "alphabet must be nonempty", False),
        # N is bounded at the header, before any line reads it
        (f"csp {10**20} 1 2 2\ncon 0 1\n", f"line 1: {10**20} variables exceed the limit", True),
        # int() and Fraction() read '1_0' as 10 and a full-width digit as its value
        ("csp 2 1 2 2\ncon 0 1_0\n", "line 2: bad token '1_0': directives are ASCII", True),
        ("csp 1_1 1 2 2\n", "line 1: bad token '1_1'", True),
        ("csp 2 1 2 2\ns 1/1_0\n", "line 2: bad token '1/1_0'", True),
        ("csp 2 1 2 2\ncon 0 \uff11\n", "line 2: bad token '\uff11'", True),
        ("csp 2 1 2 2\ncon 0\u30001\n", "line 2: bad character '\\u3000'", True),
        # a new acc line after one the map already holds is still checked
        ("csp 2 2 2 2\ncon 0 1\nacc 0 0\ncon 1 0\nacc 0 0\nacc 0 0_0\n", "line 6: bad token", True),
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


def _reference_parse_csp(text):
    """The parser as first written: every token converted and range-checked
    on its own.  The oracle for ``parse_csp``'s messages and line numbers."""
    header = None
    soundness = None
    scopes, accepts = [], []

    def int_token(token, lineno):
        try:
            return int(token)
        except ValueError:
            raise CspParseError(f"expected integer, got {token!r}", lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for token in line.split():
            if "_" in token or not token.isascii():
                raise CspParseError(
                    f"bad token {token!r}: directives are ASCII, without '_'", lineno
                )
        for char in line:
            if not char.isascii():
                raise CspParseError(
                    f"bad character {char!r}: directives are ASCII, without '_'", lineno
                )
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "csp":
            if header is not None:
                raise CspParseError("duplicate header", lineno)
            if len(args) != 4:
                raise CspParseError("header needs exactly N M q SIGMA", lineno)
            header = tuple(int_token(a, lineno) for a in args)
            if header[0] > MAX_VARIABLES:
                raise CspParseError(
                    f"{header[0]} variables exceed the limit of {MAX_VARIABLES}", lineno
                )
        elif kind == "s":
            if header is None:
                raise CspParseError("soundness tag before header", lineno)
            if soundness is not None:
                raise CspParseError("duplicate soundness tag", lineno)
            if len(args) != 1:
                raise CspParseError("soundness tag needs one NUM/DEN token", lineno)
            try:
                soundness = Fraction(args[0])
            except (ValueError, ZeroDivisionError):
                raise CspParseError(f"bad rational {args[0]!r}", lineno) from None
            if not (0 < soundness <= 1):
                raise CspParseError("soundness must lie in (0, 1]", lineno)
        elif kind == "con":
            if header is None:
                raise CspParseError("constraint before header", lineno)
            n, _m, q, _sigma = header
            if len(args) != q:
                raise CspParseError(f"expected {q} variables, got {len(args)}", lineno)
            scope = tuple(int_token(a, lineno) for a in args)
            for x in scope:
                if not (0 <= x < n):
                    raise CspParseError(f"variable {x} out of range [0, {n})", lineno)
            if len(set(scope)) != q:
                raise CspParseError("repeated variable in scope", lineno)
            scopes.append(scope)
            accepts.append([])
            seen = set()
        elif kind == "acc":
            if not scopes:
                raise CspParseError("accepted tuple before any constraint", lineno)
            _n, _m, q, sigma = header
            if len(args) != q:
                raise CspParseError(f"expected {q} symbols, got {len(args)}", lineno)
            tup = tuple(int_token(a, lineno) for a in args)
            for a in tup:
                if not (0 <= a < sigma):
                    raise CspParseError(f"symbol {a} out of range [0, {sigma})", lineno)
            if tup in seen:
                raise CspParseError(f"duplicate accepted tuple {tup}", lineno)
            seen.add(tup)
            accepts[-1].append(tup)
        else:
            raise CspParseError(f"unknown directive {kind!r}", lineno)

    if header is None:
        raise CspParseError("missing header")
    n, m, q, sigma = header
    if len(scopes) != m:
        raise CspParseError(f"header promises {m} constraints, found {len(scopes)}")
    constraints = tuple(Constraint(scope, tuple(acc)) for scope, acc in zip(scopes, accepts))
    try:
        return CspInstance(n, sigma, q, constraints, soundness or Fraction(1))
    except CspValidationError as exc:
        raise CspParseError(str(exc)) from exc


def _outcome(parse, text):
    """The instance, or the message and line of the CspParseError; any other
    exception propagates and fails the test."""
    try:
        return "ok", parse(text)
    except CspParseError as exc:
        return "error", str(exc), exc.line


# Integer spellings int() accepts (+1, 01), two more it reads that the
# format refuses (1_0, a digit outside ASCII), a non-integer, values out of
# range, a rational
_ODD_TOKENS = ("+1", "01", "1_0", "x", "-1", "3", "1/2", "\u0661")


@st.composite
def _csp_texts(draw):
    """CSP text in the usual layout (header, soundness tag, constraints and
    their accepted tuples) with odd tokens, lengths and lines mixed in.

    An ``acc`` line often repeats an earlier one, in the same constraint or
    a later one, and each line draws its own trailing comment, so the same
    raw line recurs both verbatim and with another comment; a second header
    may sit anywhere among them."""
    n, q = draw(st.sampled_from((0, 1, 2, 3, 3, 3))), draw(st.sampled_from((0, 1, 2, 2, 3)))
    sigma, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def tokens(count, bound):
        usual = [str(v) for v in range(bound)] * 8 or ["0"]
        k = draw(st.sampled_from((count, count, count, max(count - 1, 0), count + 1)))
        return draw(st.lists(st.sampled_from(usual + list(_ODD_TOKENS)), min_size=k, max_size=k))

    lines = []
    if draw(st.integers(0, 9)):
        lines.append(f"csp {n} {m} {q} {sigma}")
    if not draw(st.integers(0, 3)):
        lines.append("s " + draw(st.sampled_from(("1/2", "2/3", "1", "0/1", "3/2", "1/0", "x"))))
    acc_lines = []
    for _ in range(draw(st.integers(max(m - 1, 0), m + 1))):
        if q <= n and draw(st.integers(0, 3)):
            scope = map(str, draw(st.permutations(range(n)))[:q])
        else:
            scope = tokens(q, n)
        lines.append(" ".join(["con", *scope]))
        for _ in range(draw(st.integers(0, 3))):
            if acc_lines and draw(st.booleans()):
                lines.append(draw(st.sampled_from(acc_lines)))
            else:
                acc_lines.append(" ".join(["acc", *tokens(q, sigma)]))
                lines.append(acc_lines[-1])
    odd_lines = ("bogus 1", "", "# note", "acc", "con", "csp 1 1 1 1", f"csp {n} {m} {q} {sigma}")
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(odd_lines)))
    comment = st.sampled_from(("", "", "", " # note", "#", "\t"))
    return "".join(line + draw(comment) + "\n" for line in lines)


@settings(max_examples=500, deadline=None)
@given(_csp_texts())
@example("csp 2 1 2 2\ncon 0 1\nacc +1 01\n")
@example("csp 11 1 2 12\ncon 1_0 0\nacc 1_0 0\n")
@example("csp 2 1 2 2\ncon 0 1\nacc 0 x\n")
@example("csp 2 1 2 2\ncon 0 1\nacc 0 1 # note\nacc 2 0\n")
@example("csp 2 1 2 2\ncon 0 1\nacc 0 -1\n")
@example("csp 2 1 2 2\ncon 2 1\n")
@example("csp 1 1 0 1\ncon\nacc\n")
@example("csp 4194305 1 2 2\ncon 0 1\n")
@example("csp 1 1 0 1\ncon\nacc\nacc\n")  # the arity-0 tuple () repeated
@example("csp 1 2 0 1\ncon\nacc\ncon\nacc\n")
@example("csp 2 1 2 2\nacc 0 0\nacc 0 0\ncon 0 1\n")  # repeated before any con
@example("csp 2 2 2 2\ncon 0 1\nacc 0 1\ncon 1 0\nacc 0 1\nacc 0 1 # note\n")
@example("csp 2 2 2 2\ncon 0 1\nacc 0 1\ncsp 2 2 2 2\ncon 1 0\nacc 0 1\n")
def test_parser_matches_the_token_by_token_reference(text):
    outcome = _outcome(parse_csp, text)
    assert outcome == _outcome(_reference_parse_csp, text)
    if outcome[0] == "ok":  # equality skips accepted_set, which the parser builds itself
        assert all(con.accepted_set == set(con.accepted) for con in outcome[1].constraints)


def _reference_emit_csp(inst):
    """``emit_csp`` as first written, every ``acc`` line built from its own
    tuple: the oracle for the emitter that builds each distinct line once."""
    lines = [f"csp {inst.num_vars} {inst.num_constraints} {inst.arity} {inst.alphabet_size}"]
    if inst.soundness != 1:
        lines.append(f"s {inst.soundness.numerator}/{inst.soundness.denominator}")
    for con in inst.constraints:
        lines.append("con " + " ".join(map(str, con.variables)))
        lines += ["acc " + " ".join(map(str, tup)) for tup in con.accepted]
    return "\n".join(lines) + "\n"


@st.composite
def _repetitive_instances(draw):
    """Instances whose constraints take their accepted tuples, in any order,
    from a pool of at most three, so most tuples recur across constraints."""
    q, sigma = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(q, 6))
    symbol = st.integers(0, sigma - 1)
    pool = draw(st.lists(st.tuples(*[symbol] * q), min_size=1, max_size=3, unique=True))
    constraints = tuple(
        Constraint(
            tuple(draw(st.permutations(range(n)))[:q]),
            tuple(draw(st.lists(st.sampled_from(pool), unique=True))),
        )
        for _ in range(draw(st.integers(0, 12)))
    )
    soundness = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(2, 3))))
    return CspInstance(n, sigma, q, constraints, soundness)


@settings(max_examples=200, deadline=None)
@given(_repetitive_instances())
def test_emit_matches_the_line_per_tuple_reference(inst):
    text = emit_csp(inst)
    assert text == _reference_emit_csp(inst)
    assert parse_csp(text) == inst


def test_parse_reads_a_sign_and_leading_zeros():
    assert parse_csp("csp 2 1 2 2\ncon 0 1\nacc +1 01\n").constraints[0].accepted == ((1, 1),)


def test_parse_allows_any_comment_text():
    assert parse_csp("csp 2 1 2 2 # \u00fc_1\ncon 0 1\nacc 0 0\n").num_constraints == 1


def test_validation_rejects_bad_scope():
    con = Constraint(variables=(0, 0), accepted=((0, 0),))
    with pytest.raises(CspValidationError):
        CspInstance(num_vars=2, alphabet_size=2, arity=2, constraints=(con,))


@pytest.mark.parametrize(
    "scope, accepted, message",
    [
        ((0,), (), "constraint 1 has arity 1, expected 2"),
        ((0, 1, 2), ((0, 0, 0),), "constraint 1 has arity 3, expected 2"),
        ((2, 2), (), "constraint 1 repeats a variable"),
        ((1, 4), (), "constraint 1 uses variable 4 out of range"),
        ((-1, 5), (), "constraint 1 uses variable -1 out of range"),
        ((4, -2), ((0, 0),), "constraint 1 uses variable 4 out of range"),
        ((0, 1), ((0, 1), (0,), (3, 0)), "constraint 1 has an accepted tuple of wrong arity"),
        ((0, 1), ((0, 1), (1, 3), ()), "constraint 1 accepts symbol 3 out of range"),
        ((0, 1), ((0, 1), (2, -1), (5, 0)), "constraint 1 accepts symbol -1 out of range"),
        ((0, 1), ((0, 1), (0, 2, 1)), "constraint 1 has an accepted tuple of wrong arity"),
    ],
)
def test_validation_names_the_first_offender(scope, accepted, message):
    # constraint 0 is valid; in constraint 1 the first failing check names
    # the first bad value: scope arity, a repeat, a variable by position,
    # then each accepted tuple in order, its arity before its symbols
    good = Constraint(variables=(0, 1), accepted=((0, 1), (2, 2)))
    bad = Constraint(variables=scope, accepted=accepted)
    with pytest.raises(CspValidationError) as exc:
        CspInstance(num_vars=4, alphabet_size=3, arity=2, constraints=(good, bad))
    assert str(exc.value) == message


def test_degrees_and_regularity(toy1):
    assert toy1.degrees() == (2, 2)
    report = validate_regular(toy1)
    assert report.is_regular and report.degree == 2

    lopsided = parse_csp("csp 3 2 2 2\ncon 0 1\nacc 0 0\ncon 0 2\nacc 0 0\n")
    report = validate_regular(lopsided)
    assert not report.is_regular
    assert report.degrees == (2, 1, 1)


def test_the_variable_bound_holds_on_both_construction_paths():
    assert parse_csp(f"csp {MAX_VARIABLES} 0 2 2\n").num_vars == MAX_VARIABLES
    with pytest.raises(CspValidationError, match=f"^{MAX_VARIABLES + 1} variables exceed"):
        CspInstance(num_vars=MAX_VARIABLES + 1, alphabet_size=2, arity=2, constraints=())


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


def test_max_sat_budget(toy1, monkeypatch):
    monkeypatch.setattr("svpforge.csp.ASSIGNMENT_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        max_sat_bruteforce(toy1)


def _reference_best(inst, assignments):
    """The best fraction and its first assignment, by a scan of every one."""
    best, first = Fraction(-1), None
    for values in assignments:
        frac = evaluate(inst, values)
        if frac > best:
            best, first = frac, values
    return best, first


def test_best_assignment_matches_a_full_scan(toy1, toy_unsat):
    space = list(itertools.product(range(2), repeat=2))
    for inst in (toy1, toy_unsat):
        for order in (space, space[::-1]):
            assert best_assignment(inst, order) == _reference_best(inst, order)
    assert best_assignment(toy1, []) == (Fraction(-1), None)


def test_best_assignment_stops_at_a_satisfying_assignment(toy1):
    # (0, 0) satisfies both constraints, so the two after it are never read
    rest = iter([(1, 1), (0, 0), (0, 1), (1, 0)])
    assert best_assignment(toy1, rest) == (Fraction(1), (0, 0))
    assert list(rest) == [(0, 1), (1, 0)]


def _hand_built_refusals():
    """The error each hand-built instance whose text would not round-trip
    through ``parse_csp`` is refused with, by name."""
    con = Constraint((0, 1), ((0, 0),))
    builds = {
        "duplicate-tuple": lambda: CspInstance(2, 2, 2, (Constraint((0, 1), ((0, 0), (0, 0))),)),
        "bool-variable": lambda: CspInstance(2, 2, 2, (Constraint((True, 0), ((0, 0),)),)),
        "float-symbol": lambda: CspInstance(2, 2, 2, (Constraint((0, 1), ((1.0, 0),)),)),
        "float-soundness": lambda: CspInstance(2, 2, 2, (con,), 0.5),
    }
    out = {}
    for name, build in builds.items():
        try:
            build()
            out[name] = "built"
        except CspValidationError as exc:
            out[name] = str(exc)
    return out


HAND_BUILT_REFUSALS = {
    "duplicate-tuple": "constraint 0 accepts a tuple twice",
    "bool-variable": "constraint 0 uses non-int variable True",
    "float-symbol": "constraint 0 accepts non-int symbol 1.0",
    "float-soundness": "soundness tag must be a Fraction, got 0.5",
}


def test_a_built_instance_refuses_what_parse_csp_refuses():
    assert _hand_built_refusals() == HAND_BUILT_REFUSALS


def test_a_built_instance_refuses_what_parse_csp_refuses_without_asserts():
    assert without_asserts("test_csp", "_hand_built_refusals") == HAND_BUILT_REFUSALS


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


def test_indicator_matrix_budget(toy1, monkeypatch):
    monkeypatch.setattr("svpforge.csp.MATRIX_CELL_BUDGET", 4)
    with pytest.raises(BudgetExceededError):
        indicator_matrix(toy1)
