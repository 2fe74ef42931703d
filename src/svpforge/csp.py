"""Constraint satisfaction instances: model, text format, exact evaluation.

An instance is a list of constraints over variables 0..N-1 taking values in
the alphabet 0..SIGMA-1.  Each constraint names exactly q distinct variables
and carries the set of q-tuples it accepts.  Evaluation is exact (fractions,
never floats).

Text format (one directive per line, ``#`` starts a comment):

    csp N M q SIGMA     header, exactly once, first directive
    s NUM/DEN           optional soundness tag, rational in (0, 1], default 1
    con v1 ... vq       starts constraint (q distinct variable indices)
    acc a1 ... aq       adds an accepted tuple to the open constraint

Constraints appear in order; a ``con`` with no ``acc`` lines accepts nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, CspParseError, CspValidationError

ASSIGNMENT_BUDGET = 1 << 21
MATRIX_CELL_BUDGET = 1 << 24
# Most variables an instance may have: a per-variable table (``degrees``)
# is built for every instance, and 2**22 is past what ``reduce`` (bounded
# by its cell budget) or ``regularize`` (bounded by its scope entries) can
# build.
MAX_VARIABLES = 1 << 22


@dataclass(frozen=True)
class Constraint:
    """One constraint: an ordered scope plus the tuples it accepts."""

    variables: tuple[int, ...]
    accepted: tuple[tuple[int, ...], ...]
    accepted_set: frozenset[tuple[int, ...]] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "accepted_set", frozenset(self.accepted))

    @property
    def arity(self) -> int:
        return len(self.variables)

    def satisfied_by(self, values: Sequence[int]) -> bool:
        """True iff the full assignment ``values`` satisfies this constraint."""
        return tuple(values[x] for x in self.variables) in self.accepted_set


@dataclass(frozen=True)
class CspInstance:
    """An arity-q CSP over N variables and an alphabet of size SIGMA.

    ``soundness`` is metadata: the claimed bound on the satisfiable fraction
    of an unsatisfiable instance.  It feeds parameter defaults downstream and
    is never used in a verdict about this instance itself.
    """

    num_vars: int
    alphabet_size: int
    arity: int
    constraints: tuple[Constraint, ...]
    soundness: Fraction = Fraction(1)

    def __post_init__(self):
        n, sigma, q = self.num_vars, self.alphabet_size, self.arity
        _check_shape(n, sigma, q)
        if not isinstance(self.soundness, Fraction):  # emit_csp writes NUM/DEN
            raise CspValidationError(f"soundness tag must be a Fraction, got {self.soundness!r}")
        if not (0 < self.soundness <= 1):
            raise CspValidationError("soundness tag must lie in (0, 1]")
        for idx, con in enumerate(self.constraints):
            if con.arity != q:
                raise CspValidationError(f"constraint {idx} has arity {con.arity}, expected {q}")
            if len(set(con.variables)) != q:
                raise CspValidationError(f"constraint {idx} repeats a variable")
            for x in con.variables:
                if type(x) is not int:  # bool is an int subclass; refuse it too
                    raise CspValidationError(f"constraint {idx} uses non-int variable {x!r}")
                if not (0 <= x < n):
                    raise CspValidationError(f"constraint {idx} uses variable {x} out of range")
            for tup in con.accepted:
                if len(tup) != q:
                    raise CspValidationError(f"constraint {idx} has an accepted tuple of wrong arity")
                for a in tup:
                    if type(a) is not int:
                        raise CspValidationError(f"constraint {idx} accepts non-int symbol {a!r}")
                    if not (0 <= a < sigma):
                        raise CspValidationError(f"constraint {idx} accepts symbol {a} out of range")
            if len(con.accepted_set) != len(con.accepted):
                raise CspValidationError(f"constraint {idx} accepts a tuple twice")

    @classmethod
    def _parsed(cls, num_vars, alphabet_size, arity, constraints, soundness) -> "CspInstance":
        """An instance whose shape is checked here and whose constraints and
        soundness ``parse_csp`` has checked line by line, so the per-element
        checks of ``__post_init__`` do not run again."""
        _check_shape(num_vars, alphabet_size, arity)
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "soundness", soundness)
        return self

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def degrees(self) -> tuple[int, ...]:
        """Occurrence count of every variable across all constraint scopes."""
        counts = [0] * self.num_vars
        for con in self.constraints:
            for x in con.variables:
                counts[x] += 1
        return tuple(counts)


def _check_shape(n: int, sigma: int, q: int) -> None:
    if n < 1:
        raise CspValidationError("need at least one variable")
    if n > MAX_VARIABLES:
        raise CspValidationError(f"{n} variables exceed the limit of {MAX_VARIABLES}")
    if sigma < 1:
        raise CspValidationError("alphabet must be nonempty")
    if q < 1:
        raise CspValidationError("arity must be at least 1")


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    degree: Optional[int]
    degrees: tuple[int, ...]


def validate_regular(inst: CspInstance) -> RegularityReport:
    """Check that every variable occurs in the same number of constraints."""
    degs = inst.degrees()
    regular = len(set(degs)) == 1
    return RegularityReport(regular, degs[0] if regular else None, degs)


def evaluate(inst: CspInstance, assignment: Sequence[int]) -> Fraction:
    """Exact fraction of constraints satisfied by a full assignment."""
    if len(assignment) != inst.num_vars:
        raise CspValidationError(
            f"assignment length {len(assignment)} != variable count {inst.num_vars}"
        )
    for a in assignment:
        if type(a) is not int:  # bool is an int subclass; refuse it too
            raise CspValidationError(f"assignment value must be an integer, got {a!r}")
        if not (0 <= a < inst.alphabet_size):
            raise CspValidationError(f"assignment value {a} out of range")
    if inst.num_constraints == 0:
        return Fraction(1)
    hits = sum(1 for con in inst.constraints if con.satisfied_by(assignment))
    return Fraction(hits, inst.num_constraints)


def max_sat_bruteforce(inst: CspInstance) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive maximum satisfiable fraction and its first witness.

    Enumerates all SIGMA**N assignments in lexicographic order, so the
    returned witness is the lexicographically smallest optimum.  Raises
    BudgetExceededError before starting past ASSIGNMENT_BUDGET assignments.
    """
    total = inst.alphabet_size ** inst.num_vars
    if total > ASSIGNMENT_BUDGET:
        raise BudgetExceededError(f"{total} assignments exceed the budget of {ASSIGNMENT_BUDGET}")
    return best_assignment(
        inst, itertools.product(range(inst.alphabet_size), repeat=inst.num_vars)
    )


def best_assignment(
    inst: CspInstance, assignments: Iterable[Sequence[int]]
) -> tuple[Fraction, Optional[Sequence[int]]]:
    """The largest satisfied fraction over ``assignments`` and the first
    assignment that reaches it, or (-1, None) when there is none.  The scan
    stops at an assignment that satisfies every constraint: no later one
    can replace it."""
    best, best_values = Fraction(-1), None
    for values in assignments:
        frac = evaluate(inst, values)
        if frac > best:
            best, best_values = frac, values
            if best == 1:
                break
    return best, best_values


@dataclass(frozen=True)
class IndicatorMatrix:
    """0/1 matrix pairing candidate (constraint, tuple) rows with (variable, symbol) columns.

    Row order: constraints in instance order, and for each constraint all
    SIGMA**q candidate tuples in lexicographic order (accepted or not).
    Column order: variables ascending, symbols ascending within a variable.
    Entry 1 means: the row's tuple satisfies the row's constraint, the
    column's variable is in the constraint's scope, and the tuple assigns the
    column's symbol to it.  Nonzero rows therefore have exactly q ones.
    """

    entries: tuple[tuple[int, ...], ...]
    row_index: tuple[tuple[int, tuple[int, ...]], ...]  # (constraint, candidate tuple)
    col_index: tuple[tuple[int, int], ...]  # (variable, symbol)

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.col_index)


def candidate_rows(inst: CspInstance) -> Iterable[tuple[int, tuple[int, ...]]]:
    """All (constraint index, candidate tuple) pairs in canonical row order."""
    for t in range(inst.num_constraints):
        for tup in itertools.product(range(inst.alphabet_size), repeat=inst.arity):
            yield t, tup


def indicator_matrix(inst: CspInstance) -> IndicatorMatrix:
    """Build the dense indicator matrix for ``inst``, of at most
    MATRIX_CELL_BUDGET cells."""
    sigma, q = inst.alphabet_size, inst.arity
    num_rows = inst.num_constraints * sigma**q
    num_cols = inst.num_vars * sigma
    if num_rows * num_cols > MATRIX_CELL_BUDGET:
        raise BudgetExceededError(f"indicator matrix with {num_rows * num_cols} cells "
                                  f"exceeds budget {MATRIX_CELL_BUDGET}")
    rows = []
    row_index = []
    for t, tup in candidate_rows(inst):
        con = inst.constraints[t]
        row = [0] * num_cols
        if tup in con.accepted_set:
            for x, a in zip(con.variables, tup):
                row[x * sigma + a] = 1
        rows.append(tuple(row))
        row_index.append((t, tup))
    col_index = [(x, a) for x in range(inst.num_vars) for a in range(sigma)]
    return IndicatorMatrix(tuple(rows), tuple(row_index), tuple(col_index))


def parse_csp(text: str) -> CspInstance:
    """Parse the line-oriented CSP format.  Errors carry 1-based line numbers.

    Each line is split once, and a scope or an accepted tuple is converted
    with one ``map(int, ...)`` and range-checked by its ``min`` and ``max``;
    only a line that fails is looked at token by token, to name the first
    bad token.  An ``acc`` line is checked once per call: its raw text maps
    to its tuple, and a later line with the same text, which the one header
    makes valid too, pays only for the constraint's duplicate check.  The
    instance is built from the checked values without checking them again;
    only its shape (N, SIGMA, q at least 1) is checked at the end.  An N past
    MAX_VARIABLES is refused at the header, naming its line.

    Directive text is ASCII without '_': ``int`` and ``Fraction`` would
    also read digits outside ASCII and '_' between digits (``1_0`` as 10).
    Each line the ``acc`` map has not seen is checked for both at once.
    """
    header = None
    soundness = None
    scopes: list[tuple[int, ...]] = []
    accepts: list[list[tuple[int, ...]]] = []
    accepted_lines: dict[str, tuple[int, ...]] = {}  # raw acc line -> its tuple

    for lineno, line in enumerate(text.splitlines(), start=1):
        tup = accepted_lines.get(line)
        if tup is not None:  # the arity-0 tuple () is falsy
            if tup in seen:
                raise CspParseError(f"duplicate accepted tuple {tup}", lineno)
            seen.add(tup)
            acc.append(tup)
            continue
        raw = line[: line.index("#")] if "#" in line else line
        if "_" in raw or not raw.isascii():
            raise _bad_text(raw, lineno)
        tokens = raw.split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind == "acc":
            if not scopes:
                raise CspParseError("accepted tuple before any constraint", lineno)
            if len(args) != q:
                raise CspParseError(f"expected {q} symbols, got {len(args)}", lineno)
            try:
                tup = tuple(map(int, args))
            except ValueError:
                raise _bad_token(args, lineno) from None
            if tup and (min(tup) < 0 or max(tup) >= sigma):
                a = next(a for a in tup if not 0 <= a < sigma)
                raise CspParseError(f"symbol {a} out of range [0, {sigma})", lineno)
            if tup in seen:
                raise CspParseError(f"duplicate accepted tuple {tup}", lineno)
            accepted_lines[line] = tup
            seen.add(tup)
            acc.append(tup)
        elif kind == "con":
            if header is None:
                raise CspParseError("constraint before header", lineno)
            if len(args) != q:
                raise CspParseError(f"expected {q} variables, got {len(args)}", lineno)
            try:
                scope = tuple(map(int, args))
            except ValueError:
                raise _bad_token(args, lineno) from None
            if scope and (min(scope) < 0 or max(scope) >= n):
                x = next(x for x in scope if not 0 <= x < n)
                raise CspParseError(f"variable {x} out of range [0, {n})", lineno)
            if len(set(scope)) != q:
                raise CspParseError("repeated variable in scope", lineno)
            scopes.append(scope)
            acc = []
            accepts.append(acc)
            seen = set()  # the last constraint's tuples, for the duplicate check
        elif kind == "csp":
            if header is not None:
                raise CspParseError("duplicate header", lineno)
            if len(args) != 4:
                raise CspParseError("header needs exactly N M q SIGMA", lineno)
            try:
                header = n, _m, q, sigma = tuple(map(int, args))
            except ValueError:
                raise _bad_token(args, lineno) from None
            if n > MAX_VARIABLES:
                raise CspParseError(f"{n} variables exceed the limit of {MAX_VARIABLES}", lineno)
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
        else:
            raise CspParseError(f"unknown directive {kind!r}", lineno)

    if header is None:
        raise CspParseError("missing header")
    n, m, q, sigma = header
    if len(scopes) != m:
        raise CspParseError(f"header promises {m} constraints, found {len(scopes)}")
    constraints = tuple(
        Constraint(scope, tuple(acc)) for scope, acc in zip(scopes, accepts)
    )
    try:
        return CspInstance._parsed(n, sigma, q, constraints, soundness or Fraction(1))
    except CspValidationError as exc:
        raise CspParseError(str(exc)) from exc


def emit_csp(inst: CspInstance) -> str:
    """Serialize an instance; parse(emit(inst)) reproduces it exactly.

    Each distinct accepted tuple's ``acc`` line is built once per call and
    reused by every constraint that accepts the tuple.
    """
    lines = [
        f"csp {inst.num_vars} {inst.num_constraints} {inst.arity} {inst.alphabet_size}"
    ]
    if inst.soundness != 1:
        lines.append(f"s {inst.soundness.numerator}/{inst.soundness.denominator}")
    acc_lines = {}
    for con in inst.constraints:
        lines.append("con " + " ".join(map(str, con.variables)))
        for tup in con.accepted:
            line = acc_lines.get(tup)
            if line is None:
                line = acc_lines[tup] = "acc " + " ".join(map(str, tup))
            lines.append(line)
    return "\n".join(lines) + "\n"


def _bad_text(raw: str, lineno: int) -> CspParseError:
    """The error for directive text ``raw`` that holds '_' or a character
    outside ASCII: it names the first token that does, or else the
    character, a space outside ASCII."""
    for token in raw.split():
        if "_" in token or not token.isascii():
            return CspParseError(f"bad token {token!r}: directives are ASCII, without '_'", lineno)
    char = next(ch for ch in raw if not ch.isascii())
    return CspParseError(f"bad character {char!r}: directives are ASCII, without '_'", lineno)


def _bad_token(tokens: list[str], lineno: int) -> CspParseError:
    """The error for the first of ``tokens`` that ``int`` refuses; the caller
    has seen ``map(int, tokens)`` fail, so there is one."""
    for token in tokens:
        try:
            int(token)
        except ValueError:
            break
    return CspParseError(f"expected integer, got {token!r}", lineno)
