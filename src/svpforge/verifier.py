"""Executable checks on reduction outputs.

Everything that decides anything works in exact integer or rational
arithmetic: norm powers are integer sums, threshold comparisons
cross-multiply integer powers, and enumeration minima are exact.  Floats
appear only in report fields.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from . import kernels
from .csp import best_assignment, evaluate
from .errors import BudgetExceededError, SvpforgeError, WitnessNotFoundError
from .gadgets import iroot
from .reduction import GapSvpInstance, normalize_p

DEFAULT_WITNESS_BUDGET = 1_000_000
# States a box search may enter: 20,000,000 // 3, what the search that
# tried digits in order -c..c needed to finish every box a 20,000,000-node
# search did.  Best-first digits enter no subset of those states: on 3,000
# random sparse inputs (m <= 8, c <= 3) they entered at most 1.15 times as
# many, and on bench_kernels' grouped max-norm row 1.38 times (2,808 against
# 2,035), while verify's seed-1 enumerations take 1.0 to 8.1 times fewer.
# So a box that order finished just inside this budget may now be refused.
DEFAULT_BOX_BUDGET = 20_000_000 // 3
EXHAUSTIVE_COMBOS = 1 << 16
SAMPLES = 1024

BOX_CAVEAT = "minimum over the coefficient box only, not a certified lattice minimum"


def lp_norm_power(w: Sequence[int], p) -> int:
    """Exact sum of |w_i|**p for integer p >= 1; the max-norm for p in {None, 'inf'}."""
    pn = normalize_p(p)
    if pn is None:
        return max((abs(x) for x in w), default=0)
    return sum(abs(x) ** pn for x in w)


def holder_check(w: Sequence[int], p) -> bool:
    """Exact check of ||w||_p >= n**(1/p - 1/2) * ||w||_2 for p > 2 or max-norm.

    Both sides are raised to the power 2p (squared for the max-norm), turning
    the comparison into one between integers.
    """
    pn = normalize_p(p)
    n = len(w)
    if n == 0:
        return True
    sum_sq = sum(x * x for x in w)
    if pn is None:
        m = max(abs(x) for x in w)
        return m * m * n >= sum_sq
    if pn <= 2:
        raise ValueError("the comparison is stated for p > 2")
    power = sum(abs(x) ** pn for x in w)
    return power**2 * n ** (pn - 2) >= sum_sq**pn


def apply_coefficients(
    v: Sequence[int], rows: Sequence[Sequence[tuple[int, int]]], width: int
) -> tuple[int, ...]:
    """The row vector v * G, exactly, for the ``width``-column basis G whose
    row r has the (column, value) entries ``rows[r]`` (``GapSvpInstance.rows``).
    Every coefficient must be an ``int``: a fractional one names no lattice vector."""
    if len(v) != len(rows):
        raise ValueError("coefficient count must match the row count")
    out = [0] * width
    for coeff, entries in zip(v, rows):
        if type(coeff) is not int:  # bool is an int subclass; refuse it too
            raise ValueError(f"coefficient must be an integer, got {coeff!r}")
        if coeff:
            for j, x in entries:
                out[j] += coeff * x
    return tuple(out)


def witness_from_assignment(
    inst: GapSvpInstance,
    assignment: Sequence[int],
    budget: int = DEFAULT_WITNESS_BUDGET,
) -> tuple[int, ...]:
    """A nonzero coefficient vector in {-1, 0, 1} with ||v*G||_inf == 1.

    Picks the one basis row per constraint selected by a satisfying
    assignment and searches for signs on those rows that cancel the scaled
    (consistency and support) columns.  Distinct constraints have disjoint
    spread columns, so the spread image of such a combination is one
    Hadamard row per nonzero sign and has max-norm 1.

    The rows are visited in ``kernels.rcm_order``'s reverse Cuthill–McKee order
    over the constraints that share a variable (the selected rows meet in a
    consistency column exactly then).  ``kernels.frontier_search``'s listed
    search runs on their scaled entries in the max-norm, with the signs
    tried in the order 0, +1, -1 and the exclusive bound 1, so it looks for
    a zero image: the shared step bound lets a closed column only be zero,
    and an open one only within its reach.  The result is the first
    solution in that order, negated if needed so that its first nonzero
    coefficient in row order is +1.  ``budget`` bounds the states entered,
    and so the work; the search keeps no table, so beyond the plan its
    memory is O(rows).
    """
    csp = inst.csp
    if evaluate(csp, assignment) != 1:
        raise ValueError("witness needs an assignment satisfying every constraint")
    row_of = {prov: r for r, prov in enumerate(inst.row_provenance)}
    selected = []
    for t, con in enumerate(csp.constraints):
        tup = tuple(assignment[x] for x in con.variables)
        selected.append(row_of[(t, tup)])

    prof = inst.profile
    lo, hi = prof.consistency_span[0], prof.support_span[1]
    scaled = [[(j, x) for j, x in inst.rows[r] if lo <= j < hi] for r in selected]
    plan = kernels.frontier_plan(scaled, kernels.rcm_order(scaled, range(*prof.consistency_span)))
    try:
        _power, signs, _states = kernels.frontier_search(plan, 1, None, budget, (0, 1, -1), 1)
    except BudgetExceededError:
        raise BudgetExceededError(f"witness search exceeded {budget} states") from None
    if signs is None:
        raise WitnessNotFoundError(
            "no nonzero signed combination of the selected rows cancels the scaled blocks"
        )

    v = [0] * inst.num_rows
    for k, s in enumerate(signs):
        v[selected[plan.order[k]]] = s
    if next(x for x in v if x) < 0:
        v = [-x for x in v]
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    if any(image[lo:hi]):
        raise SvpforgeError("scaled blocks must cancel")
    if lp_norm_power(image, None) != 1:
        raise SvpforgeError("witness must reach max-norm exactly 1")
    return tuple(v)


@dataclass(frozen=True)
class EnumerationResult:
    power: int  # minimum sum of |entry|**p, or the max entry for the max-norm
    vector: tuple[int, ...]
    p: Optional[int]
    box: int
    states: int
    backend: str
    # least power outside the box (``outside_box_floor``), None for p < 2
    floor: Optional[int] = None

    @property
    def certified(self) -> bool:
        """Whether the box minimum is the lattice minimum: no vector with a
        coefficient outside the box has a smaller power."""
        return self.floor is not None and self.power <= self.floor


def outside_box_floor(inst: GapSvpInstance, p, box: int) -> Optional[int]:
    """Least power (max entry for the max-norm) of a lattice vector v*G with
    a coefficient outside [-box, box], or None for p < 2.

    If a scaled (consistency or support) column of v*G is nonzero, it is a
    multiple of ``scale``, so the power is at least scale**p.  Otherwise
    take a constraint with a row whose |v_r| > box: its spread columns hold
    sum_r v_r*h_r over distinct rows of a Hadamard matrix of order ``per``,
    whose squared 2-norm is per * sum_r v_r**2 >= per * (box+1)**2.  Over
    those per entries w, the power mean gives, for p >= 2,
    sum |w|**p >= per * (||w||**2 / per)**(p/2) >= per * (box+1)**p, and
    the largest entry is at least box+1.
    """
    prof = inst.profile
    if p is None:
        return min(prof.scale, box + 1)
    if p < 2:
        return None
    return min(prof.scale**p, prof.spread_cols_per_constraint * (box + 1) ** p)


def certifying_box(inst: GapSvpInstance, p, power: int) -> Optional[int]:
    """Least box whose ``outside_box_floor`` reaches ``power``, or None if
    no box's does (power above scale**p, or p < 2).  A minimum of ``power``
    found in a smaller box is then certified by enumerating that box."""
    prof = inst.profile
    if p is None:
        return max(power - 1, 1) if power <= prof.scale else None
    if p < 2 or power > prof.scale**p:
        return None
    # the least k >= 1 with per * (k+1)**p >= power
    need = -(-power // prof.spread_cols_per_constraint)
    return max(iroot(need - 1, p), 1) if need > 1 else 1


def enumerate_box(
    inst: GapSvpInstance,
    box: int,
    p="profile",
    budget: int = DEFAULT_BOX_BUDGET,
) -> EnumerationResult:
    """Exact minimum of ||v*G||_p**p over nonzero v in [-box, box]^rows.

    ``kernels.box_minimum`` runs on ``inst.rows``: each row's coefficient
    goes best-first by the search's bound, and a subtree is dropped only
    when it holds no vector of smaller power, or of equal power and
    lexicographically earlier, so the result is the true box minimum and
    its lexicographically first argmin.  ``floor`` is ``outside_box_floor``
    for the norm used.  A basis with no rows is refused by ``box_minimum``.
    """
    pn = inst.profile.p if p == "profile" else normalize_p(p)
    power, vector, states = kernels.box_minimum(inst.rows, box, pn, budget)
    return EnumerationResult(
        power=power,
        vector=vector,
        p=pn,
        box=box,
        states=states,
        backend=kernels.backend_name(),
        floor=outside_box_floor(inst, pn, box),
    )


@dataclass(frozen=True)
class IndicatedView:
    """What a coefficient vector points at, by provenance.

    Every nonzero coefficient sits on a row (t, tuple) and thereby indicates
    constraint t and, for each scope position i, the (variable, symbol) pair
    (scope[i], tuple[i]); multiplicities count indicating coefficients.
    """

    constraints: frozenset[int]
    tuple_multiplicity: dict[tuple[int, int], int]

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_distinct_tuples(self) -> int:
        return len(self.tuple_multiplicity)

    @cached_property
    def symbols_by_variable(self) -> dict[int, tuple[int, ...]]:
        """Each indicated variable's distinct symbols, ascending, grouped
        in one pass over the (variable, symbol) pairs."""
        grouped = {}
        for x, a in sorted(self.tuple_multiplicity):
            grouped.setdefault(x, []).append(a)
        return {x: tuple(syms) for x, syms in grouped.items()}


def indicated_view(v: Sequence[int], inst: GapSvpInstance) -> IndicatedView:
    if len(v) != inst.num_rows:
        raise ValueError("coefficient count must match the row count")
    constraints = set()
    multiplicity: Counter = Counter()
    for coeff, (t, tup) in zip(v, inst.row_provenance):
        if coeff == 0:
            continue
        constraints.add(t)
        scope = inst.csp.constraints[t].variables
        for x, a in zip(scope, tup):
            multiplicity[(x, a)] += 1
    return IndicatedView(frozenset(constraints), dict(multiplicity))


@dataclass(frozen=True)
class StructuralFacts:
    """Two unconditionally assertable consequences of the construction."""

    support_price_applicable: bool  # v has a nonzero support-block image
    support_price_holds: bool  # then ||v*G||_inf >= scale
    block_gap_applicable: bool  # v cancels the whole consistency block
    block_gap_holds: bool  # then every (var, symbol) block has 0 or > width indicators
    offending_blocks: tuple[tuple[int, int], ...]


def structural_facts(v: Sequence[int], inst: GapSvpInstance) -> StructuralFacts:
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    return _structural_facts(image, indicated_view(v, inst), inst)


def _structural_facts(
    image: Sequence[int], view: IndicatedView, inst: GapSvpInstance
) -> StructuralFacts:
    prof = inst.profile
    s_lo, s_hi = prof.support_span
    c_lo, c_hi = prof.consistency_span

    support_nonzero = any(image[s_lo:s_hi])
    support_holds = True
    if support_nonzero:
        support_holds = max(abs(x) for x in image) >= prof.scale

    consistency_zero = not any(image[c_lo:c_hi])
    block_holds = True
    offending = []
    if consistency_zero:
        width = prof.consistency_width
        for pair, cnt in sorted(view.tuple_multiplicity.items()):
            if 0 < cnt <= width:
                offending.append(pair)
        block_holds = not offending
    return StructuralFacts(
        support_price_applicable=support_nonzero,
        support_price_holds=support_holds,
        block_gap_applicable=consistency_zero,
        block_gap_holds=block_holds,
        offending_blocks=tuple(offending),
    )


@dataclass(frozen=True)
class BoundCheck:
    """One bound evaluated at the profile's concrete numbers.

    ``hypothesis`` and ``conclusion`` are observations about this vector,
    reported side by side; nothing here asserts the implication itself.
    """

    name: str
    hypothesis: bool
    conclusion: bool
    details: dict


@dataclass(frozen=True)
class AuditReport:
    support: int
    norm_power: int
    max_abs: int
    exceeds_threshold: bool
    indicated_constraints: int
    indicated_distinct_tuples: int
    checks: tuple[BoundCheck, ...]
    facts: StructuralFacts

    def to_json(self) -> dict:
        """The report as JSON-ready data: fields in declaration order, nested
        reports as objects, tuples as arrays once serialized."""
        return asdict(self)


def audit_vector(v: Sequence[int], inst: GapSvpInstance) -> AuditReport:
    """Evaluate every bound and structural fact for one coefficient vector."""
    prof = inst.profile
    gap = prof.gap_factor
    p = prof.p
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    support = sum(1 for x in v if x)
    power = lp_norm_power(image, p)
    max_abs = lp_norm_power(image, None)
    view = indicated_view(v, inst)
    m, n = prof.num_constraints, prof.num_vars

    # the max-norm's power is its largest entry, compared as a first power
    e = 1 if p is None else p
    exceeds = gap.cmp_power(power, prof.threshold_power, Fraction(e)) > 0
    at_least_scale = power >= prof.scale**e

    checks = [
        BoundCheck(
            name="small-support-blowup",
            hypothesis=support <= prof.support_width,
            conclusion=at_least_scale and exceeds,
            details={"support": support, "support_width": prof.support_width},
        ),
        BoundCheck(
            name="large-support-blowup",
            hypothesis=gap.cmp_power(support, m, Fraction(3)) >= 0,
            conclusion=exceeds,
            details={"support": support, "constraints": m},
        ),
        BoundCheck(
            name="constraint-concentration",
            hypothesis=gap.cmp_power(m, view.num_constraints, _concentration_exponent(p))
            >= 0,
            conclusion=exceeds,
            details={
                "indicated_constraints": view.num_constraints,
                "constraints": m,
            },
        ),
        BoundCheck(
            name="tuple-spread-blowup",
            hypothesis=gap.cmp_power(view.num_distinct_tuples, n, Fraction(4)) >= 0,
            conclusion=at_least_scale and exceeds,
            details={
                "indicated_distinct_tuples": view.num_distinct_tuples,
                "variables": n,
            },
        ),
    ]
    return AuditReport(
        support=support,
        norm_power=power,
        max_abs=max_abs,
        exceeds_threshold=exceeds,
        indicated_constraints=view.num_constraints,
        indicated_distinct_tuples=view.num_distinct_tuples,
        checks=tuple(checks),
        facts=_structural_facts(image, view, inst),
    )


def _concentration_exponent(p: Optional[int]) -> Fraction:
    """The exponent E with threshold M / gamma**E: E = 2 / (1/2 - 1/p)."""
    if p is None:
        return Fraction(4)
    return Fraction(2) / (Fraction(1, 2) - Fraction(1, p))


@dataclass(frozen=True)
class ExtractionResult:
    assignment: tuple[int, ...]
    fraction: Fraction
    mode: str  # "exhaustive" | "sampled"
    seed: int
    combinations: int


def extract_assignment(v: Sequence[int], inst: GapSvpInstance, seed: int = 0) -> ExtractionResult:
    """Round a coefficient vector to an assignment.

    Per variable, candidates are the symbols its indicated tuples mention
    (falling back to symbol 0 when none).  When the candidate product has
    at most EXHAUSTIVE_COMBOS assignments it is scanned whole and the
    lexicographically smallest optimum is returned; otherwise SAMPLES
    draws from a generator seeded with ``seed`` are made and the first best
    draw is kept.  Both scans are ``csp.best_assignment``, which stops at an
    assignment that satisfies every constraint.  The result's ``mode`` says
    which ran.
    """
    csp = inst.csp
    by_variable = indicated_view(v, inst).symbols_by_variable
    candidates = [by_variable.get(x, (0,)) for x in range(csp.num_vars)]
    combos = 1
    for c in candidates:
        combos *= len(c)

    if combos <= EXHAUSTIVE_COMBOS:
        mode = "exhaustive"
        assignments = itertools.product(*candidates)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        assignments = (tuple(rng.choice(c) for c in candidates) for _ in range(SAMPLES))
    fraction, assignment = best_assignment(csp, assignments)
    return ExtractionResult(
        assignment=assignment,
        fraction=fraction,
        mode=mode,
        seed=seed,
        combinations=combos,
    )
