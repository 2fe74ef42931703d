"""Compile a regular CSP into a gapped shortest-vector lattice basis.

The basis G = [consistency | support | spread] has one row per (constraint,
accepted tuple) pair, constraints ascending and tuples lexicographic:

  consistency: per (variable, symbol) column block, the j-th row referencing
      that pair (in row order) carries row j of a reduced Vandermonde matrix,
      scaled.  A cancellation inside one block therefore needs more than
      ``consistency_width`` participating rows.
  support: row (t, tuple) carries row t * SIGMA**q + rank(tuple) of another
      reduced Vandermonde matrix, scaled, forcing any cancellation to use
      more than ``support_width`` rows.
  spread: a full +-1 Hadamard row per basis row, placed in the owning
      constraint's column block and indexed by the tuple's rank, so rows of
      one constraint are mutually orthogonal there.

That is what remains of all M * SIGMA**q candidate rows once those with an
all-zero consistency part (the rejected tuples) are deleted; only the kept
rows are built, and each only as its nonzero (column, value) entries.  Both
Vandermonde blocks read only the rows they place, so cost and memory scale
with the basis's nonzeros, not with the prime (about rows_full**2) or the
dense row width.  A basis is a function of (CSP, profile), which is how
``basisio.load_instance`` checks a saved basis and its sidecar.  Short
lattice vectors correspond to consistent assignments: the scaled blocks are
expensive to touch, and the spread block prices whatever cannot cancel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .csp import CspInstance, validate_regular
from .errors import BudgetExceededError, ProfileError
from .gadgets import MR_VALID_BELOW, hadamard_row, is_prime, reduced_vandermonde
from .gadgets import smallest_prime_geq

log = logging.getLogger(__name__)

INFINITY = "inf"

# Largest finite norm index.  The exact checks raise entries to the p-th
# power, so a huge p makes numbers no search can handle; and an n-entry
# vector's p-norm lies within a factor n**(1/p) of its max-norm (below 1.5
# for n < 2**37 at p = 64), so for larger p the max-norm, 'inf', serves.
MAX_NORM_INDEX = 64

# Most (column, value) entries one reduction may build.  A kept row has
# arity * consistency_width consistency entries (a scope names distinct
# variables), support_width support entries and a full Hadamard row of
# spread entries, all nonzero, so the count is known before building.
ENTRY_BUDGET = 1 << 24

# Most rows x cols cells a basis may have to be written as text or viewed
# densely: the text takes about two bytes per cell.
CELL_BUDGET = 1 << 26


def check_cell_budget(rows: int, cols: int) -> None:
    if rows * cols > CELL_BUDGET:
        raise BudgetExceededError(
            f"{rows} x {cols} basis exceeds budget {CELL_BUDGET} cells"
        )


def normalize_p(p) -> Optional[int]:
    """Accept an int in [1, MAX_NORM_INDEX], the string 'inf', None, or
    float('inf'); None means max-norm."""
    if p is None or p == INFINITY:
        return None
    if isinstance(p, float):
        if math.isinf(p) and p > 0:
            return None
        raise ProfileError("non-integer norms are only available as 'inf'")
    if isinstance(p, int) and 1 <= p <= MAX_NORM_INDEX:
        return p
    raise ProfileError(f"unsupported norm index {p!r}: use 1 to {MAX_NORM_INDEX}, or 'inf'")


@dataclass(frozen=True)
class GapFactor:
    """The value base**exponent kept symbolically for exact comparisons.

    base is 1/soundness (>= 1) and exponent is (1/2 - 1/p) / (25 q), so the
    value is irrational in general; comparisons cross-multiply integer powers
    instead of evaluating it.
    """

    base: Fraction
    exponent: Fraction

    def __post_init__(self):
        if self.base < 1 or self.exponent < 0:
            raise ProfileError("gap factor needs base >= 1 and exponent >= 0")

    def cmp_power(self, lhs: int, mult: int, power: Fraction = Fraction(1)) -> int:
        """Exact sign of lhs - mult * value**power for nonnegative integers."""
        if lhs < 0 or mult < 0 or power < 0:
            raise ValueError("cmp_power needs nonnegative arguments")
        e = self.exponent * Fraction(power)
        if self.base == 1 or e == 0:
            return (lhs > mult) - (lhs < mult)
        en, ed = e.numerator, e.denominator
        left = lhs**ed * self.base.denominator**en
        right = mult**ed * self.base.numerator**en
        return (left > right) - (left < right)

    def floor(self) -> int:
        """Exact integer floor of the value: a bisection on ``cmp_power``
        between brackets taken from ``as_float``, widened if they miss."""
        guess = int(self.as_float())
        slack = guess >> 40
        lo, hi = max(1, guess - slack), guess + slack + 1
        if lo > 1 and self.cmp_power(lo, 1) > 0:
            lo = 1  # the value is at least 1
        while self.cmp_power(hi, 1) <= 0:
            hi *= 2
        # lo <= value < hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cmp_power(mid, 1) <= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def as_float(self) -> float:
        """The value as a float; a value past the float range is refused.

        A base past the float range is taken through the logarithms of its
        numerator and denominator, which ``math.log`` reads as integers.
        """
        try:
            ln = math.log(float(self.base))
        except OverflowError:
            ln = math.log(self.base.numerator) - math.log(self.base.denominator)
        ln *= float(self.exponent)
        try:
            return math.exp(ln)
        except OverflowError:
            raise ProfileError(f"gap factor e**{ln:.1f} exceeds the float range") from None


@dataclass(frozen=True)
class ReductionProfile:
    """All knobs of one reduction, plus the source instance's shape.

    Checked when built, however built (derived, loaded, by hand or through
    ``dataclasses.replace``), so a profile that exists is valid and nothing
    downstream checks it again."""

    p: Optional[int]  # None is the max-norm
    prime: int
    scale: int
    consistency_width: int
    support_width: int
    mode: str  # "asymptotic-default" | "explicit"
    soundness: Fraction
    num_vars: int
    num_constraints: int
    arity: int
    alphabet_size: int
    degree: int

    def __post_init__(self):
        if self.p is not None and not (type(self.p) is int and 3 <= self.p <= MAX_NORM_INDEX):
            raise ProfileError(f"profiles need p in 3..{MAX_NORM_INDEX} or the max-norm")
        if self.mode not in ("asymptotic-default", "explicit"):
            raise ProfileError(f"unknown mode {self.mode!r}")
        for key in ("prime", "scale", "consistency_width", "support_width"):
            value = getattr(self, key)
            if type(value) is not int:  # bool is an int subclass; refuse it too
                raise ProfileError(f"{key} must be an integer, got {value!r}")
        if self.prime >= MR_VALID_BELOW:
            raise ProfileError(
                f"prime {self.prime} is past the primality test's range n < {MR_VALID_BELOW}"
            )
        if not is_prime(self.prime):
            raise ProfileError(f"{self.prime} is not prime")
        if self.prime < self.rows_full + 1:
            raise ProfileError(
                f"prime {self.prime} too small: the support block needs "
                f"{self.rows_full} distinct rows"
            )
        if self.scale < 1:
            raise ProfileError("scale must be positive")
        if not (1 <= self.consistency_width <= self.degree):
            raise ProfileError(f"consistency width must lie in [1, degree {self.degree}]")
        if not (1 <= self.support_width <= self.num_constraints):
            raise ProfileError(
                f"support width must lie in [1, constraint count {self.num_constraints}]"
            )
        if self.consistency_width >= self.prime or self.support_width >= self.prime:
            raise ProfileError("widths must stay below the prime")

    @property
    def padded_alphabet(self) -> int:
        """The least power of two >= SIGMA: the Hadamard order per symbol."""
        return 1 << max(0, (self.alphabet_size - 1).bit_length())

    @property
    def rows_full(self) -> int:
        """Candidate row count before deletion: M * SIGMA**q."""
        return self.num_constraints * self.alphabet_size**self.arity

    @property
    def spread_cols_per_constraint(self) -> int:
        return self.padded_alphabet**self.arity

    @property
    def consistency_cols(self) -> int:
        return self.num_vars * self.alphabet_size * self.consistency_width

    @property
    def support_cols(self) -> int:
        return self.support_width

    @property
    def spread_cols(self) -> int:
        return self.num_constraints * self.spread_cols_per_constraint

    @property
    def nprime(self) -> int:
        return self.consistency_cols + self.support_cols + self.spread_cols

    @property
    def max_abs_entry(self) -> int:
        """A bound on |entry| for every basis under this profile: the
        Vandermonde blocks hold scale times residues mod prime, the spread
        block +-1."""
        return self.scale * (self.prime - 1)

    @property
    def gap_factor(self) -> GapFactor:
        q = self.arity
        if self.p is None:
            exponent = Fraction(1, 50 * q)
        else:
            exponent = (Fraction(1, 2) - Fraction(1, self.p)) / (25 * q)
        return GapFactor(1 / self.soundness, exponent)

    @property
    def threshold_power(self) -> int:
        """threshold**p for finite p; the threshold itself (exactly 1) for max-norm."""
        if self.p is None:
            return 1
        return self.nprime


def _instance_fields(inst: CspInstance) -> dict:
    """The profile fields an instance fixes, by field name.  An instance
    the reduction cannot take is refused: arity below 2, no constraints, or
    irregular."""
    if inst.arity < 2:
        raise ProfileError("the reduction needs arity >= 2")
    if not inst.constraints:
        # before the row count m * sigma**q is formed: with no constraints
        # the arity q is bounded by nothing
        raise ProfileError("the reduction needs at least one constraint")
    report = validate_regular(inst)
    if not report.is_regular:
        degs = ",".join(map(str, sorted(set(report.degrees))))
        raise ProfileError(f"instance is irregular (distinct degrees: {degs})")
    return {
        "soundness": inst.soundness,
        "num_vars": inst.num_vars,
        "num_constraints": inst.num_constraints,
        "arity": inst.arity,
        "alphabet_size": inst.alphabet_size,
        "degree": report.degree,
    }


def derive_profile(
    inst: CspInstance,
    p="inf",
    mode: str = "asymptotic-default",
    *,
    prime: Optional[int] = None,
    scale: Optional[int] = None,
    consistency_width: Optional[int] = None,
    support_width: Optional[int] = None,
) -> ReductionProfile:
    """Fix every reduction parameter for ``inst``.

    asymptotic-default instantiates the generic choices at log-cube scaling;
    explicit mode records that knobs were pinned by hand.  Either way the
    overrides win (None derives a knob), and ``ReductionProfile`` checks
    the result as a whole.
    """
    pn = normalize_p(p)
    fields = _instance_fields(inst)
    d, m, q, sigma = (fields[k] for k in ("degree", "num_constraints", "arity", "alphabet_size"))
    rows_full = m * sigma**q
    logcube = max(1, (m - 1).bit_length()) ** 3

    if consistency_width is None:
        consistency_width = d // logcube
        if consistency_width < 1:
            log.warning(
                "degree %d below log-cube %d; clamping consistency width to 1", d, logcube
            )
            consistency_width = 1
    if support_width is None:
        support_width = m // logcube
        if support_width < 1:
            log.warning(
                "constraint count %d below log-cube %d; clamping support width to 1",
                m,
                logcube,
            )
            support_width = 1
    if scale is None:
        scale = (rows_full * math.ceil(1 / inst.soundness)) ** 2
    if prime is None:
        if rows_full**2 >= MR_VALID_BELOW:  # below it, a prime lies past the largest square
            raise ProfileError(
                f"the default prime, at least the square of the {rows_full} candidate rows (M * "
                f"SIGMA**q), is past the primality test's range n < {MR_VALID_BELOW}; pass --prime"
            )
        prime = smallest_prime_geq(max(rows_full**2, rows_full + 1))

    prof = ReductionProfile(
        p=pn,
        prime=prime,
        scale=scale,
        consistency_width=consistency_width,
        support_width=support_width,
        mode=mode,
        **fields,
    )
    if prof.padded_alphabet != sigma:
        log.info("alphabet size %d padded to %d for the spread block", sigma, prof.padded_alphabet)
    return prof


KeptRows = tuple[tuple[int, tuple[int, ...]], ...]


def _kept_rows(inst: CspInstance) -> KeptRows:
    """The (constraint, accepted tuple) pairs behind the basis rows, in row
    order: constraints ascending, accepted tuples in lexicographic order."""
    return tuple(
        (t, tup)
        for t, con in enumerate(inst.constraints)
        for tup in sorted(con.accepted_set)
    )


def build_consistency_block(
    inst: CspInstance, prof: ReductionProfile, kept: KeptRows
) -> list[tuple[tuple[int, int], ...]]:
    """Vandermonde-tagged copy of the indicator matrix, one row per kept row.

    Column block (x, a) spans consistency_width columns; in row order, the
    j-th row whose tuple assigns symbol a to variable x receives scaled
    Vandermonde row j there (j is 1-based, rows of the same block distinct).
    The consistency block starts the basis, so these are basis columns.
    ``kept`` is ``_kept_rows(inst)``, as for the other two block builders.
    A column is placed at most once per kept row (a scope names distinct
    variables), so at most rows_full < prime times, and vm has prime - 1 rows.
    """
    width = prof.consistency_width
    sigma = inst.alphabet_size
    vm = reduced_vandermonde(prof.prime, width)
    occurrences = [0] * (inst.num_vars * sigma)
    # scaled[j]: scale * Vandermonde row j, built the first time some column
    # reaches its (j+1)-th occurrence
    scaled = []
    out = []
    last = None
    for t, tup in kept:
        if t != last:
            # (first column of the variable's symbols, position in the scope),
            # variables ascending, so each row's columns come out ascending
            scope = inst.constraints[t].variables
            slots = sorted((x * sigma, i) for i, x in enumerate(scope))
            last = t
        row = []
        for base, i in slots:
            col = base + tup[i]
            occ = occurrences[col] = occurrences[col] + 1
            if occ > len(scaled):
                scaled.append(tuple(prof.scale * v for v in vm.row(occ - 1)))
            row += enumerate(scaled[occ - 1], col * width)
        out.append(tuple(row))
    return out


def build_support_block(
    inst: CspInstance, prof: ReductionProfile, kept: KeptRows
) -> list[tuple[tuple[int, int], ...]]:
    """Scaled rows of the (prime, support_width) reduced Vandermonde, one per
    kept row, at their basis columns: the row of candidate index
    t * SIGMA**q + rank(tuple), so each kept row carries the row it has among
    all rows_full < prime candidates.  The entries, ``scale`` times the powers
    ``i**j`` mod prime, are computed here, each power from the one before it;
    ``reduced_vandermonde`` is called as in the consistency block."""
    reduced_vandermonde(prof.prime, prof.support_width)
    sigma, stride = inst.alphabet_size, inst.alphabet_size**inst.arity
    prime, scale = prof.prime, prof.scale
    lo = prof.consistency_cols
    first = (lo, scale)  # the zeroth power is 1 in every row
    later = range(lo + 1, lo + prof.support_width)
    out = []
    for t, tup in kept:
        i = t * stride + tuple_rank(tup, sigma) + 1
        row = [first]
        x = 1
        for j in later:
            x = x * i % prime
            row.append((j, scale * x))
        out.append(tuple(row))
    return out


def tuple_rank(tup: Sequence[int], sigma: int) -> int:
    """Lexicographic rank of a tuple over the original alphabet."""
    rank = 0
    for a in tup:
        rank = rank * sigma + a
    return rank


def build_spread_block(
    inst: CspInstance, prof: ReductionProfile, kept: KeptRows
) -> list[tuple[tuple[int, int], ...]]:
    """Block-diagonal Hadamard rows at their basis columns: kept row
    (t, tuple) places the Hadamard row indexed by the tuple's rank into
    constraint t's column block.

    When the alphabet is padded, the Hadamard order grows but row indexing
    still uses ranks over the original alphabet, so the map stays injective.
    Only the rows that kept tuples index are built, each once, so the cost
    is that of the entries placed, not the order**2 of the whole matrix.
    """
    per = prof.spread_cols_per_constraint  # a power of two: padded_alphabet**q
    k = per.bit_length() - 1
    lo = prof.consistency_cols + prof.support_cols
    sigma = inst.alphabet_size
    h_rows = {}  # tuple -> its Hadamard row, built once per distinct tuple
    out = []
    for t, tup in kept:
        h = h_rows.get(tup)
        if h is None:
            h = h_rows[tup] = hadamard_row(k, tuple_rank(tup, sigma))
        out.append(tuple(enumerate(h, lo + t * per)))
    return out


@dataclass(frozen=True)
class GapSvpInstance:
    """A lattice basis with provenance back to the CSP that produced it.

    The lattice is the integer row span of the basis.  ``rows`` holds each
    basis row as its (column, value) entries, columns strictly ascending and
    below ``num_cols``, values nonzero; every other entry is zero.
    row_provenance records the (constraint, accepted tuple) pair behind each
    surviving row, in construction order (constraints ascending, tuples in
    lexicographic order within a constraint).
    """

    csp: CspInstance
    profile: ReductionProfile
    rows: tuple[tuple[tuple[int, int], ...], ...]
    row_provenance: tuple[tuple[int, tuple[int, ...]], ...]

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The dense view of ``rows``, built on first access and cached.

        No path of the package reads it; it is kept for callers that want
        dense rows (tests, benchmarks and their tracers).  A basis of more
        than CELL_BUDGET cells is refused before anything is built.
        """
        check_cell_budget(self.num_rows, self.num_cols)
        dense = []
        for entries in self.rows:
            row = [0] * self.num_cols
            for j, x in entries:
                row[j] = x
            dense.append(tuple(row))
        return tuple(dense)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return self.profile.nprime

    @property
    def consistency_span(self) -> tuple[int, int]:
        return 0, self.profile.consistency_cols

    @property
    def support_span(self) -> tuple[int, int]:
        lo = self.profile.consistency_cols
        return lo, lo + self.profile.support_cols

    @property
    def spread_span(self) -> tuple[int, int]:
        lo = self.profile.consistency_cols + self.profile.support_cols
        return lo, self.profile.nprime


def reduce_csp(inst: CspInstance, prof: ReductionProfile) -> GapSvpInstance:
    """Assemble the basis from the kept rows, one per (constraint, accepted tuple).

    Every placed Vandermonde row starts with a 1 (the zeroth power), so a
    kept row's consistency part is nonzero, and only a rejected tuple's
    would vanish.  Each block builder gives a row as its (column, value)
    entries at their basis columns, so a row is the concatenation of its
    three parts, and its last column is at most nprime - 1.  The entries
    are counted before any is built, and more than ENTRY_BUDGET are refused.
    The profile must be the one ``derive_profile`` gives ``inst`` in every
    field the instance fixes, so its gap factor is the instance's.
    """
    for key, value in _instance_fields(inst).items():
        if getattr(prof, key) != value:
            raise ProfileError(
                f"profile was derived for another instance: its {key} is "
                f"{getattr(prof, key)}, the instance's is {value}"
            )
    num_rows = sum(len(con.accepted_set) for con in inst.constraints)
    per_row = (
        prof.arity * prof.consistency_width + prof.support_cols + prof.spread_cols_per_constraint
    )
    if num_rows * per_row > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{num_rows} basis rows x {per_row} entries per row exceed budget "
            f"{ENTRY_BUDGET} entries"
        )
    kept = _kept_rows(inst)
    consistency = build_consistency_block(inst, prof, kept)
    support = build_support_block(inst, prof, kept)
    spread = build_spread_block(inst, prof, kept)
    rows = tuple(c + s + h for c, s, h in zip(consistency, support, spread))
    return GapSvpInstance(csp=inst, profile=prof, rows=rows, row_provenance=kept)
