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
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .csp import evaluate
from .errors import BudgetExceededError, SvpforgeError, WitnessNotFoundError
from .reduction import GapSvpInstance, normalize_p

DEFAULT_COLLISION_BUDGET = 2_000_000
DEFAULT_BOX_BUDGET = 20_000_000
DEFAULT_EXHAUSTIVE_COMBOS = 1 << 16
DEFAULT_SAMPLES = 1024

# Image entries computed per chunk of right-half sign combinations.
_PROBE_CELLS = 1 << 16

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
    row r has the (column, value) entries ``rows[r]`` (``GapSvpInstance.rows``)."""
    if len(v) != len(rows):
        raise ValueError("coefficient count must match the row count")
    out = [0] * width
    for coeff, entries in zip(v, rows):
        if coeff:
            for j, x in entries:
                out[j] += coeff * x
    return tuple(out)


def _row_keys(arr: np.ndarray) -> list:
    """One hashable key per row, equal exactly when the rows are equal."""
    if arr.dtype == object:
        return list(map(tuple, arr.tolist()))
    arr = np.ascontiguousarray(arr)
    return arr.view(np.dtype((np.void, arr.itemsize * arr.shape[1]))).ravel().tolist()


def witness_from_assignment(
    inst: GapSvpInstance,
    assignment: Sequence[int],
    budget: int = DEFAULT_COLLISION_BUDGET,
) -> tuple[int, ...]:
    """A nonzero coefficient vector in {-1, 0, 1} with ||v*G||_inf == 1.

    Picks the one basis row per constraint selected by a satisfying
    assignment, then finds a signed combination cancelling the scaled blocks
    by a meet-in-the-middle collision over the two halves of the row set
    (complete over all {-1, 0, 1} combinations of the selected rows).

    Sign combinations are taken in ``itertools.product((-1, 0, 1), ...)``
    order, so the witness is deterministic: the first nonzero left
    combination that cancels on its own, with zeros on the right; failing
    that, the first nonzero right combination whose negated image some left
    combination reaches, paired with the first such left combination.  The
    left images are one product of a sign table with the left rows, and the
    right half is probed in chunks of the same table.  The arithmetic is
    int64 when ``max(half, m - half) * max|entry| < 2**63`` bounds every
    image entry, and Python integers in object arrays otherwise.
    """
    csp = inst.csp
    if evaluate(csp, assignment) != 1:
        raise ValueError("witness needs an assignment satisfying every constraint")
    row_of = {prov: r for r, prov in enumerate(inst.row_provenance)}
    selected = []
    for t, con in enumerate(csp.constraints):
        tup = tuple(assignment[x] for x in con.variables)
        selected.append(row_of[(t, tup)])

    lo, hi = inst.consistency_span[0], inst.support_span[1]
    scaled = [[(j, x) for j, x in inst.rows[r] if lo <= j < hi] for r in selected]
    cols = sorted({j for entries in scaled for j, _x in entries})
    m = len(selected)
    half = m // 2
    wide = m - half
    if 3**half + 3**wide > budget:
        raise BudgetExceededError(
            f"collision search over {m} rows exceeds budget {budget}"
        )
    maxabs = max(abs(x) for entries in scaled for _j, x in entries)
    dtype = np.int64 if wide * maxabs < 1 << 63 else object
    images = np.zeros((m, len(cols)), dtype=dtype)
    position = {j: k for k, j in enumerate(cols)}
    for i, entries in enumerate(scaled):
        for j, x in entries:
            images[i, position[j]] = x
    # Row i of an h-digit table is the i-th element of
    # itertools.product((-1, 0, 1), repeat=h); the first 3**half rows of the
    # wide table, stripped of their leading -1 columns, are the half table.
    signs = np.indices((3,) * wide).reshape(wide, 3**wide).T - 1
    left_signs = signs[: 3**half, wide - half :]

    left = left_signs @ images[:half]
    found = None
    cancelling = np.flatnonzero(~(left != 0).any(axis=1))
    cancelling = cancelling[cancelling != (3**half - 1) // 2]
    if cancelling.size:
        found = tuple(left_signs[cancelling[0]].tolist()) + (0,) * wide
    else:
        # Later duplicates overwrite earlier ones, so inserting in reverse
        # keeps each key's first combination.
        keys = _row_keys(left)
        table = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        chunk = max(1, _PROBE_CELLS // len(cols))
        zero_row = (3**wide - 1) // 2
        for start in range(0, 3**wide, chunk):
            block = signs[start : start + chunk]
            for i, key in enumerate(_row_keys(-(block @ images[half:]))):
                hit = table.get(key)
                if hit is not None and start + i != zero_row:
                    found = tuple(left_signs[hit].tolist()) + tuple(block[i].tolist())
                    break
            if found is not None:
                break
    if found is None:
        raise WitnessNotFoundError(
            "no nonzero signed combination of the selected rows cancels the scaled blocks"
        )

    v = [0] * inst.num_rows
    for r, s in zip(selected, found):
        v[r] = s
    image = apply_coefficients(v, inst.rows, inst.num_cols)
    if any(image[j] for j in range(lo, hi)):
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
    nodes: int
    backend: str
    caveat: str = BOX_CAVEAT


def enumerate_box(
    inst: GapSvpInstance,
    box: int,
    p="profile",
    budget: int = DEFAULT_BOX_BUDGET,
) -> EnumerationResult:
    """Exact minimum of ||v*G||_p**p over nonzero v in [-box, box]^rows.

    ``kernels.box_minimum`` runs on ``inst.rows``: it visits coefficient
    vectors in lexicographic order and prunes only on columns whose last
    touching row already has a coefficient (a constraint's spread columns,
    and each consistency column after its last row), so the result is the
    true box minimum and ties resolve lexicographically.
    """
    if inst.num_rows == 0:
        raise ValueError("the basis has no rows")
    pn = inst.profile.p if p == "profile" else normalize_p(p)
    power, vector, nodes = kernels.box_minimum(inst.rows, box, pn, budget)
    return EnumerationResult(
        power=power,
        vector=vector,
        p=pn,
        box=box,
        nodes=nodes,
        backend=kernels.backend_name(),
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

    def distinct_symbols(self, var: int) -> tuple[int, ...]:
        return tuple(
            sorted(a for (x, a) in self.tuple_multiplicity if x == var)
        )


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
    scale = inst.profile.scale
    s_lo, s_hi = inst.support_span
    c_lo, c_hi = inst.consistency_span

    support_nonzero = any(image[j] for j in range(s_lo, s_hi))
    support_holds = True
    if support_nonzero:
        support_holds = max(abs(x) for x in image) >= scale

    consistency_zero = all(image[j] == 0 for j in range(c_lo, c_hi))
    block_holds = True
    offending = []
    if consistency_zero:
        width = inst.profile.consistency_width
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

    if p is None:
        exceeds = gap.cmp_power(max_abs, 1, Fraction(1)) > 0
        at_least_scale = max_abs >= prof.scale
    else:
        exceeds = gap.cmp_power(power, prof.nprime, Fraction(p)) > 0
        at_least_scale = power >= prof.scale**p

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


def extract_assignment(
    v: Sequence[int],
    inst: GapSvpInstance,
    mode: str = "auto",
    seed: int = 0,
    exhaustive_budget: int = DEFAULT_EXHAUSTIVE_COMBOS,
    samples: int = DEFAULT_SAMPLES,
) -> ExtractionResult:
    """Round a coefficient vector to an assignment.

    Per variable, candidates are the symbols its indicated tuples mention
    (falling back to symbol 0 when none).  Exhaustive mode scans the whole
    product and returns the lexicographically smallest optimum; sampled mode
    draws from a seeded generator and keeps the best draw.
    """
    csp = inst.csp
    view = indicated_view(v, inst)
    candidates = []
    for x in range(csp.num_vars):
        syms = view.distinct_symbols(x)
        candidates.append(syms if syms else (0,))
    combos = 1
    for c in candidates:
        combos *= len(c)

    if mode == "auto":
        mode = "exhaustive" if combos <= exhaustive_budget else "sampled"
    if mode == "exhaustive" and combos > exhaustive_budget:
        raise BudgetExceededError(
            f"{combos} candidate assignments exceed budget {exhaustive_budget}"
        )

    best = Fraction(-1)
    best_assignment = None
    if mode == "exhaustive":
        for values in itertools.product(*candidates):
            frac = evaluate(csp, values)
            if frac > best:
                best, best_assignment = frac, values
                if best == 1:
                    break
    elif mode == "sampled":
        rng = random.Random(seed)
        for _ in range(samples):
            values = tuple(rng.choice(c) for c in candidates)
            frac = evaluate(csp, values)
            if frac > best:
                best, best_assignment = frac, values
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ExtractionResult(
        assignment=best_assignment,
        fraction=best,
        mode=mode,
        seed=seed,
        combinations=combos,
    )
