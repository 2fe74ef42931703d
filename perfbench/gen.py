"""Seeded instance generator for the benchmark.

Everything here is plain text in svpforge's CSP format; svpforge itself only
ever sees the files written from these strings.  The same seed gives the same
bytes.

Families:

  cyclic regular   N variables, M = 2N constraints with scopes (i, i+1) and
                   (i, i+2) mod N, so every variable has degree 4.  Each
                   accept set is the all-zero tuple plus seeded extra tuples,
                   so the all-zero assignment satisfies everything and the
                   "known short vector" below exists.
  odd cycle        The same scopes on an odd N with "not equal" constraints
                   over two symbols.  The step-1 scopes form an odd cycle, so
                   no assignment satisfies every constraint.
  irregular        Six variables of degrees 6, 4, 4, 4, 3, 3 (twelve binary
                   constraints): the input `regularize` exists for.
"""

from __future__ import annotations

import random

# The two bundled toy instances, kept here so the benchmark does not depend
# on files outside its own directory.  Their box minima at p=3 under the
# explicit profile are pinned: 8 (satisfiable) and 32 (unsatisfiable).
TOY1 = """\
csp 2 2 2 2
con 0 1
acc 0 0
acc 1 1
con 0 1
acc 0 0
"""

TOY_UNSAT = """\
csp 2 2 2 2
s 1/2
con 0 1
acc 0 1
acc 1 0
con 0 1
acc 0 0
acc 1 1
"""


def cyclic_scopes(n: int) -> list[tuple[int, int]]:
    """Step-1 scopes (i, i+1) for every i, then step-2 scopes (i, i+2)."""
    if n < 3:
        raise ValueError("cyclic scopes need at least three variables")
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]


def emit(n: int, sigma: int, scopes, accepts, soundness: str | None = None) -> str:
    lines = [f"csp {n} {len(scopes)} {len(scopes[0])} {sigma}"]
    if soundness is not None:
        lines.append(f"s {soundness}")
    for scope, acc in zip(scopes, accepts):
        lines.append("con " + " ".join(map(str, scope)))
        lines.extend("acc " + " ".join(map(str, tup)) for tup in acc)
    return "\n".join(lines) + "\n"


def relabel(scopes, n: int, seed: int):
    """Rename the variables by a seeded permutation.  For unit block widths
    this permutes consistency columns only, so box work is unchanged."""
    perm = list(range(n))
    random.Random(f"relabel/{n}/{seed}").shuffle(perm)
    return [tuple(perm[x] for x in scope) for scope in scopes]


def cyclic_regular(n: int, seed: int, extra: int = 1, relabel_seed=None) -> str:
    """Satisfiable degree-4 instance over two symbols: every accept set holds
    (0, 0) plus ``extra`` tuples drawn with ``seed``, in lexicographic order.
    With ``relabel_seed`` the variables are renamed afterwards."""
    rng = random.Random(f"cyclic/{n}/{extra}/{seed}")
    others = [(0, 1), (1, 0), (1, 1)]
    scopes = cyclic_scopes(n)
    accepts = [sorted([(0, 0)] + rng.sample(others, extra)) for _ in scopes]
    if relabel_seed is not None:
        scopes = relabel(scopes, n, relabel_seed)
    return emit(n, 2, scopes, accepts)


def odd_cycle(n: int, relabel_seed: int) -> str:
    """Unsatisfiable degree-4 "not equal" instance on an odd number of
    variables, renamed by ``relabel_seed``."""
    if n % 2 == 0:
        raise ValueError("the odd-cycle family needs an odd variable count")
    scopes = relabel(cyclic_scopes(n), n, relabel_seed)
    return emit(n, 2, scopes, [[(0, 1), (1, 0)]] * len(scopes), soundness="1/2")


def irregular(seed: int) -> str:
    """Six variables, twelve binary constraints, degrees 6,4,4,4,3,3.  Each
    accept set is (0, 0) plus one seeded tuple, so it stays satisfiable."""
    rng = random.Random(f"irregular/{seed}")
    scopes = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 0),
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5),
    ]
    others = [(0, 1), (1, 0), (1, 1)]
    accepts = [sorted([(0, 0), rng.choice(others)]) for _ in scopes]
    return emit(6, 2, scopes, accepts)


def known_short_vector(text: str) -> list[int]:
    """Coefficients of the known short vector of a cyclic regular basis.

    +1 on the all-zero-tuple row of every step-1 constraint and -1 on that of
    every step-2 constraint.  With unit block widths every (variable, 0)
    consistency column then sums 2 - 2 = 0 and the support column M/2 - M/2
    = 0, leaving one Hadamard row (all ones) per constraint in the spread
    block: max-norm 1 with exactly 4M nonzero spread entries.  Row order is
    the reduction's: constraints ascending, accepted tuples in lex order.
    """
    n, m = (int(x) for x in text.split("\n", 1)[0].split()[1:3])
    vec = []
    t = -1
    for line in text.splitlines()[1:]:
        kind, *args = line.split()
        if kind == "con":
            t += 1
        elif kind == "acc":
            zero = not any(int(a) for a in args)
            vec.append((1 if t < n else -1) if zero else 0)
    if t + 1 != m:
        raise ValueError("constraint count does not match the header")
    return vec
