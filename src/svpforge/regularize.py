"""Degree regularization by constraint duplication and variable splitting.

Pipeline: duplicate every constraint a fixed number of times, then replace
each variable with a set of copies wired through a certified bi-regular
disperser graph.  Every constraint reads ``spread`` copies of each original
variable in its scope and accepts only tuples that are constant on those
copies and satisfy the original test.  The output has uniform variable
degree equal to the dispersers' right degree.

A (delta, beta)-disperser here is a bipartite graph where no right-side
subset of at most beta*B vertices absorbs the complete neighborhood of more
than delta*A left vertices; graphs are only ever accepted after the
exhaustive subset check in gadgets.verify_disperser.  One exhaustive search
makes every disperser, under one work budget, SEARCH_BUDGET.

The paper's precondition s <= min(1/(3q), 1/SIGMA**c) and its default spread
ceil(6q/c) are used with c = 1.  ``RegularizeParams.defaults`` refuses an
instance with a variable in no constraint, as ``regularize`` does, before
it derives any default.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .csp import Constraint, CspInstance
from .errors import BudgetExceededError, DisperserCertificationError, RegularizeError
from .gadgets import BipartiteBiregular, iroot, verify_disperser

log = logging.getLogger(__name__)

# Work units one disperser search may spend: one per candidate adjacency set
# tried, plus, per complete graph, the subsets its certification may check.
SEARCH_BUDGET = 1 << 20

# The most scope entries (one per disperser edge) a regularized instance may
# have.  A larger one is refused before anything is built: its constraints
# alone would hold more than about 100 MB of Python integers, and its
# dispersers' exact delta = 3 * beta**spread grows with the spread.
MAX_SCOPE_ENTRIES = 1 << 22


def _check_types(beta, optional: dict, **integers) -> None:
    """The type rule of regularize's knobs, refused naming the argument: each
    of ``integers``, and each of ``optional`` that is not None, must be an
    ``int`` (a bool, an int subclass, is refused), and ``beta`` a
    ``Fraction``, since a float beta would be certified in floats."""
    given = {key: value for key, value in optional.items() if value is not None}
    for key, value in {**integers, **given}.items():
        if type(value) is not int:
            raise RegularizeError(f"{key} must be an integer, got {value!r}")
    if type(beta) is not Fraction:
        raise RegularizeError(f"beta must be a Fraction, got {beta!r}")


@dataclass(frozen=True)
class RegularizeParams:
    """Parameters for regularize().

    duplication: copies made of every constraint (default ceil(1/s)).
    spread: copies of each scope variable every constraint reads (left degree w).
    beta: disperser parameter; certification uses delta = 3 * beta**spread.
    right_degree: common output degree f; per-variable copy counts follow as
        spread * degree(x) / f.  None picks a default.
    """

    duplication: int
    spread: int
    beta: Fraction
    right_degree: Optional[int] = None

    def __post_init__(self):
        _check_types(self.beta, {"right_degree": self.right_degree},
                     duplication=self.duplication, spread=self.spread)
        if self.duplication < 1:
            raise RegularizeError("duplication must be at least 1")
        if self.spread < 1:
            raise RegularizeError("spread must be at least 1")
        if not (0 < self.beta < 1):
            raise RegularizeError("beta must lie strictly between 0 and 1")
        if self.right_degree is not None and self.right_degree < 1:
            raise RegularizeError("right degree must be at least 1")

    @classmethod
    def defaults(
        cls, inst: CspInstance, duplication: Optional[int] = None, spread: Optional[int] = None,
        beta: Optional[Fraction] = None, right_degree: Optional[int] = None,
    ) -> "RegularizeParams":
        """Instance-derived defaults; a parameter given (not None) wins.

        An instance ``regularize`` refuses, one with a variable in no
        constraint, is refused first: with no constraints nothing bounds
        the arity q, and the default beta takes a root of 64**(2q)."""
        occurring_degrees(inst)
        if duplication is None:
            duplication = math.ceil(1 / inst.soundness)
        if spread is None:
            spread = 6 * inst.arity
        if beta is None:
            beta = _default_beta(inst.soundness, inst.arity)
        return cls(duplication=duplication, spread=spread, beta=beta, right_degree=right_degree)


def _default_beta(s: Fraction, q: int) -> Fraction:
    """Rational floor approximation of s**(1/(2q)) at resolution 1/64."""
    if s == 1:
        return Fraction(1, 2)
    k = 64
    scaled = (s.numerator * k ** (2 * q)) // s.denominator
    root = iroot(scaled, 2 * q)
    return Fraction(max(root, 1), k)


@dataclass(frozen=True)
class RegularizedCsp:
    """Regularization output with full lineage back to the source instance."""

    instance: CspInstance
    source: CspInstance
    var_lineage: tuple[tuple[int, int], ...]  # new variable -> (original, copy)
    con_lineage: tuple[tuple[int, int], ...]  # new constraint -> (original, duplicate)
    dispersers: tuple[BipartiteBiregular, ...]  # one per original variable
    params: RegularizeParams  # right_degree filled in

    def lift_assignment(self, values: Sequence[int]) -> tuple[int, ...]:
        """Copy each original value onto all copies of its variable."""
        if len(values) != self.source.num_vars:
            raise RegularizeError("assignment length must match the source instance")
        return tuple(values[orig] for orig, _copy in self.var_lineage)

    def project_assignment(self, values: Sequence[int]) -> tuple[int, ...]:
        """Read copy 0 of every original variable."""
        if len(values) != self.instance.num_vars:
            raise RegularizeError("assignment length must match the output instance")
        out = [0] * self.source.num_vars
        for new_idx, (orig, copy) in enumerate(self.var_lineage):
            if copy == 0:
                out[orig] = values[new_idx]
        return tuple(out)


def build_disperser(
    left_size: int,
    spread: int,
    beta: Fraction,
    right_size: Optional[int] = None,
) -> BipartiteBiregular:
    """Produce a bi-regular graph certified as a (3*beta**spread, beta)-disperser.

    Never returns an uncertified graph: the search accepts only a graph that
    passes gadgets.verify_disperser, raises DisperserCertificationError when
    no graph does, and BudgetExceededError past SEARCH_BUDGET.  A shape on
    which no graph can certify is refused before the search: when spread <=
    floor(beta*B) and delta*A < 1, every left vertex's neighbourhood lies in
    a right subset of size floor(beta*B), which absorbs at least that one
    vertex, more than delta*A.  Every argument is type-checked as
    ``RegularizeParams``' fields are.
    """
    _check_types(beta, {"right_size": right_size}, left_size=left_size, spread=spread)
    a, w = left_size, spread
    if a < 1 or w < 1:
        raise RegularizeError("need at least one left vertex and spread >= 1")
    delta = 3 * beta**w
    if right_size is None:
        b = _default_right_size(a, w, beta)
    else:
        b = right_size
    if b < w or (w * a) % b != 0:
        raise RegularizeError(
            f"right size {b} must divide spread*left = {w * a} and be >= spread {w}"
        )
    refusal = f"no bi-regular graph on ({a}, {b}) certifies ({delta}, {beta}) dispersion"
    m = int(beta * b)
    if w <= m and delta * a < 1:
        raise DisperserCertificationError(
            f"{refusal}: a left vertex's {w} neighbours fit in a right subset of "
            f"size floor(beta*B) = {m}, which absorbs it, and 1 > delta*A = {delta * a}"
        )
    got = _search_certified(a, b, w, w * a // b, delta, beta)
    if got is None:
        raise DisperserCertificationError(refusal)
    return got


def _default_right_size(a: int, w: int, beta: Fraction) -> int:
    """Copy count target: matchings for spread 1, else spread*A / f_default
    with f_default = w * ceil(1/beta)**w, rounded to the nearest admissible
    divisor of spread*A (at least spread; ties take the smaller size)."""
    if w == 1:
        return a
    f_default = w * math.ceil(1 / beta) ** w
    target = Fraction(w * a, f_default)
    divisors = [d for d in range(w, w * a + 1) if (w * a) % d == 0]
    return min(divisors, key=lambda d: (abs(d - target), d))


def _search_certified(a, b, w, f, delta, beta):
    """Depth-first search over left adjacency choices in lexicographic order;
    the first graph to pass certification wins, so the result is
    deterministic.  None when no bi-regular graph certifies.

    Left vertex i tries, in lexicographic order, each w-subset of the right
    vertices still below degree f.  Each level keeps a lazy iterator over
    its subsets on an explicit stack, so no level's candidates are listed
    and any number of left vertices works.  Every candidate tried counts one
    unit against SEARCH_BUDGET, and every complete graph the subsets its
    certification may check (those of size floor(beta*b)), so the budget
    bounds all the search's work; passing it raises BudgetExceededError.
    """
    m = min(int(beta * b), b)
    per_graph = math.comb(b, m) if m > 0 else 0
    caps = [f] * b
    adj: list[tuple[int, ...]] = []
    levels = [itertools.combinations(range(b), w)]
    work = 0
    while levels:
        if len(adj) == len(levels):
            # take back this level's previous choice before its next one
            for r in adj.pop():
                caps[r] += 1
        subset = next(levels[-1], None)
        if subset is None:
            levels.pop()
            continue
        work += 1
        if len(adj) == a - 1:
            work += per_graph
        if work > SEARCH_BUDGET:
            raise BudgetExceededError(
                f"disperser search on ({a}, {b}) exceeded its budget of "
                f"{SEARCH_BUDGET} candidates and certified subsets"
            )
        for r in subset:
            caps[r] -= 1
        adj.append(subset)
        if len(adj) < a:
            levels.append(itertools.combinations([r for r in range(b) if caps[r]], w))
            continue
        graph = BipartiteBiregular(a, b, w, f, tuple(adj))
        ok, _cert = verify_disperser(graph, delta, beta)
        if ok:
            return graph
    return None


def occurring_degrees(inst: CspInstance) -> tuple[int, ...]:
    """The variables' degrees, refused if one occurs in no constraint."""
    degrees = inst.degrees()
    if 0 in degrees:
        raise RegularizeError(f"variable {degrees.index(0)} occurs in no constraint")
    return degrees


def regularize(inst: CspInstance, params: RegularizeParams) -> RegularizedCsp:
    """Full regularization; the output passes validate_regular exactly.

    Each source constraint is repeated ``duplication`` times, copies
    adjacent, so a variable of degree d is read duplication * d times.  Its
    disperser has that many left vertices, and the j-th reading takes the
    j-th adjacency set.  The search is deterministic, so variables of one
    degree share one graph, searched once.
    """
    q = inst.arity
    sigma = inst.alphabet_size
    _warn_on_weak_soundness(inst.soundness, q, sigma)
    t, w = params.duplication, params.spread
    degrees = [t * d for d in occurring_degrees(inst)]
    # the output reads one copy per disperser edge: each variable x has
    # degrees[x] left vertices of degree spread
    entries = sum(degrees) * w
    if entries > MAX_SCOPE_ENTRIES:
        raise RegularizeError(
            f"the regularized instance would have {entries} scope entries, "
            f"past the size limit of {MAX_SCOPE_ENTRIES}"
        )

    fprime = params.right_degree
    if fprime is None:
        fprime = _default_right_degree(degrees, w, params.beta)
    for x, d in enumerate(degrees):
        if (w * d) % fprime != 0:
            raise RegularizeError(
                f"right degree {fprime} does not divide spread*degree {w * d} of variable {x}"
            )
        if (w * d) // fprime < w:
            raise RegularizeError(
                f"right degree {fprime} exceeds degree {d} of variable {x}"
            )

    # in order of first occurrence, so the first refusal is the first variable's
    graphs = {
        d: build_disperser(d, w, params.beta, right_size=(w * d) // fprime)
        for d in dict.fromkeys(degrees)
    }
    dispersers = [graphs[d] for d in degrees]

    offsets = []
    total = 0
    for g in dispersers:
        offsets.append(total)
        total += g.right_size
    var_lineage = tuple(
        (x, copy) for x, g in enumerate(dispersers) for copy in range(g.right_size)
    )

    # occurrence rank of each (constraint copy, variable) pair, in output order
    seen = [0] * inst.num_vars
    new_constraints = []
    con_lineage = []
    for idx, con in enumerate(inst.constraints):
        accepted = tuple(tuple(a for a in tup for _ in range(w)) for tup in con.accepted)
        for dup in range(t):
            scope = []
            for x in con.variables:
                scope.extend(offsets[x] + r for r in dispersers[x].adjacency[seen[x]])
                seen[x] += 1
            new_constraints.append(Constraint(tuple(scope), accepted))
            con_lineage.append((idx, dup))

    out = CspInstance(
        total, sigma, q * w, tuple(new_constraints), inst.soundness
    )
    out_degrees = set(out.degrees())
    if out_degrees != {fprime}:
        raise RegularizeError(f"output degrees {out_degrees} != {fprime}")
    return RegularizedCsp(
        instance=out,
        source=inst,
        var_lineage=var_lineage,
        con_lineage=tuple(con_lineage),
        dispersers=tuple(dispersers),
        params=replace(params, right_degree=fprime),
    )


def _default_right_degree(degrees, w, beta) -> int:
    """Largest divisor of spread*gcd(degrees) bounded by the default target
    degree and by min(degrees); spread 1 always uses matchings (degree 1)."""
    if w == 1:
        return 1
    g = w * math.gcd(*degrees)
    f_default = w * math.ceil(1 / beta) ** w
    cap = min(f_default, min(degrees))
    best = 1
    for d in range(1, g + 1):
        if g % d == 0 and d <= cap:
            best = d
    return best


def _warn_on_weak_soundness(s: Fraction, q: int, sigma: int) -> None:
    """The construction's guarantees assume s <= min(1/(3q), 1/SIGMA)."""
    if s > Fraction(1, 3 * q) or s * sigma > 1:
        log.warning(
            "soundness tag %s is above min(1/(3q), 1/SIGMA); "
            "regularization still runs but its guarantees assume smaller s",
            s,
        )


def lineage_json(reg: RegularizedCsp) -> dict:
    """JSON-ready lineage and parameter record."""
    return {
        "format": "regularize-lineage",
        "version": 2,
        "duplication": reg.params.duplication,
        "spread": reg.params.spread,
        "beta": [reg.params.beta.numerator, reg.params.beta.denominator],
        "right_degree": reg.params.right_degree,
        "variables": [list(pair) for pair in reg.var_lineage],
        "constraints": [list(pair) for pair in reg.con_lineage],
        "dispersers": [
            {
                "left_size": g.left_size,
                "right_size": g.right_size,
                "left_degree": g.left_degree,
                "right_degree": g.right_degree,
                "adjacency": [list(nbrs) for nbrs in g.adjacency],
            }
            for g in reg.dispersers
        ],
    }
