"""Closed-form classification of loop tuples, and block embedding.

Triples with two orderings of the same residue class satisfy a pair of
congruences that reduce to the integer system

    p3 - p1 = q * p2,        p2 * (p1 + p3) = 1 + r * p1 * p3,

whose solutions are generated exactly by four parametric families built
from Fibonacci polynomials. Each of the four quadruple cases pairs a
tuple with one fixed partner ordering, and holds when the two pin one
residue class (``tuples.residue_base``).
Larger tuples arise by grouping primes into blocks and lifting a block
level equivalence (``embed``), which is also how the two stock
polynomial families f(x) and g(x) of ``modsearch`` produce irreducible
pairs of unbounded length. ``embed`` takes each block's ordering of its
primes and names the partner by the block positions it takes, the way
``_CASE_PARTNER`` names a quadruple's partner by entry positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import DEFAULT_POLICY, EffortPolicy, NotSquarefree, factor, is_prime
from .tuples import equivalent, residue_base


class BlockCongruenceFailed(ValueError):
    """Raised when a block tuple fails the lifting congruences."""


@dataclass(frozen=True)
class TripleWitness:
    """Integer multipliers certifying the triple system."""

    q: int
    r: int


@dataclass(frozen=True)
class ParametricLine:
    """One member of the four-family parametrization of integer triples."""

    line: int
    n: int = 0
    x: int = 0
    delta: int = 1

    def __post_init__(self) -> None:
        if self.line not in (1, 2, 3, 4):
            raise ValueError("line must be 1..4")
        if self.delta not in (-1, 1):
            raise ValueError("delta must be +-1")


@dataclass(frozen=True)
class QuadrupleCase:
    """Case tag plus the equivalence classes the conditions give rise to."""

    case: str
    classes: tuple[tuple[tuple[int, ...], ...], ...]


def is_multiple_triple(p1: int, p2: int, p3: int) -> bool:
    """Whether (p1, p2, p3) admits a second ordering with the same class.

    The criterion: p2(p1 + p3) = 1 mod p1*p3 and p1 = p3 mod p2, in which
    case the only partner ordering is the reversal.
    """
    return _witness_of(p1, p2, p3) is not None


# Each quadruple case pairs T = (a, b, c, d) with one partner ordering,
# given as positions of T; the case holds when T and its partner pin one
# residue class.
_CASE_PARTNER = {
    "I": (3, 0, 2, 1),    # (d, a, c, b)
    "II": (3, 2, 0, 1),   # (d, c, a, b)
    "III": (3, 1, 2, 0),  # (d, b, c, a)
    "IV": (3, 2, 1, 0),   # (d, c, b, a)
}


# Position map of an equivalent pair (P, Q), Q[i] = P[m[i]], to its case:
# T to S, S to T, and the same between the reversals of T and S.
_CASE_OF_MAP = {
    pm: case
    for case, m in _CASE_PARTNER.items()
    for half in (m, tuple(3 - m[3 - i] for i in range(4)))
    for pm in (half, tuple(half.index(i) for i in range(4)))
}


def quadruple_case(p1: int, p2: int, p3: int, p4: int
                   ) -> Optional[QuadrupleCase]:
    """The first case, I to IV, in which T = (p1..p4) and its partner S
    pin one residue class, with the classes it gives; None if none does.

    Reversal preserves equivalence, so a case gives the classes {T, S}
    and {rev T, rev S}; in case IV, S is rev T and there is one class. At
    most one case holds, since two would put three orderings in one
    class. Distinct primes are all accepted; a repeated entry raises
    NotInvertible.
    """
    T = (p1, p2, p3, p4)
    a = residue_base(T)
    for case, m in _CASE_PARTNER.items():
        S = tuple(T[i] for i in m)
        if residue_base(S) == a:
            classes = ((T, S), (T[::-1], S[::-1]))
            return QuadrupleCase(case, classes[:1] if case == "IV" else classes)
    return None


def quadruple_case_of_pair(P: Sequence[int], Q: Sequence[int]) -> Optional[str]:
    """Case tag of an equivalent quadruple pair, read off the position map
    that takes P to Q; None for any other pair."""
    if len(P) != 4 or not equivalent(P, Q):
        return None
    return _CASE_OF_MAP.get(tuple(P.index(q) for q in Q))


def fib_poly(n: int, x: int) -> int:
    """Fibonacci polynomial F_n at integer x, any sign of n."""
    if n < 0:
        v = fib_poly(-n, x)
        return v if n % 2 else -v
    a, b = 0, 1
    for _ in range(n):
        a, b = b, x * b + a
    return a


def _witness_of(p1: int, p2: int, p3: int) -> Optional[TripleWitness]:
    if p2 != 0:
        if (p3 - p1) % p2:
            return None
        q = (p3 - p1) // p2
    else:
        if p3 != p1:
            return None
        q = 0
    t = p2 * (p1 + p3) - 1
    if p1 * p3 != 0:
        if t % (p1 * p3):
            return None
        r = t // (p1 * p3)
    else:
        if t != 0:
            return None
        r = 0
    return TripleWitness(q, r)


def _evaluate_line(line: int, n: int, x: int, delta: int
                   ) -> tuple[int, int, int]:
    if line == 1:
        f0, f1, f2 = fib_poly(n - 1, x), fib_poly(n, x), fib_poly(n + 1, x)
        fm = fib_poly(-n, x)
        t = (f0 + f1, fm, f1 + f2)
    elif line == 2:
        t = (fib_poly(n, x), fib_poly(-n, x) + fib_poly(-(n + 1), x),
             fib_poly(n + 1, x))
    elif line == 3:
        t = (1, x, 1)
    else:
        t = (x, 1, 1 - x)
    return (delta * t[0], delta * t[1], delta * t[2])


def parametric_triple(p: ParametricLine
                      ) -> tuple[tuple[int, int, int], TripleWitness]:
    """Evaluate one parametric line exactly, with its certifying witness."""
    t = _evaluate_line(p.line, p.n, p.x, p.delta)
    w = _witness_of(*t)
    if w is None:
        raise AssertionError(f"parametric output {t} fails the triple system")
    return t, w


def classify_integer_triple(p1: int, p2: int, p3: int
                            ) -> Optional[tuple[TripleWitness,
                                                list[ParametricLine]]]:
    """Witness and parametric representations of an integer triple.

    Returns None when the triple system has no integer multipliers;
    otherwise the witness together with every representation, solved
    from the witness. Lines 3 and 4 are delta*(1, x, 1) and
    delta*(x, 1, 1 - x), so the entries give x. On lines 1 and 2 the
    identity F_{n+1} - F_{n-1} = x*F_n makes q = +-x on line 1 and
    r = +-x on line 2, so the witness gives x. For x != 0, line 1's
    middle entry and line 2's first entry are +-F_n(x), and
    |F_n(x)| >= F_|n|(1), so no representation has |n| above the
    largest N with F_N(1) <= max(|p1|, |p2|, |p3|, 1). (At x = 0, line 1
    gives +-(1, 1, 1) for every odd n; only n = +-1 are listed there.)
    """
    w = _witness_of(p1, p2, p3)
    if w is None:
        return None
    bound = max(abs(p1), abs(p2), abs(p3), 1)
    n_max = 2
    while fib_poly(n_max + 1, 1) <= bound:
        n_max += 1
    candidates = [ParametricLine(line, n, x, delta)
                  for line, wx in ((1, w.q), (2, w.r))
                  for x in dict.fromkeys((wx, -wx))
                  for delta in (1, -1)
                  for n in range(-n_max, n_max + 1)]
    for delta in (1, -1):
        candidates += [ParametricLine(3, 0, delta * p2, delta),
                       ParametricLine(4, 0, delta * p1, delta)]
    return w, [ln for ln in candidates
               if _evaluate_line(ln.line, ln.n, ln.x, ln.delta)
               == (p1, p2, p3)]


def block_orderings(blocks: Sequence[int],
                    policy: EffortPolicy = DEFAULT_POLICY
                    ) -> tuple[tuple[int, ...], ...]:
    """The primes of each block, ascending and with multiplicity;
    ValueError for a block the policy cannot factor completely."""
    orderings = []
    for b in blocks:
        fz = factor(b, policy)
        if not fz.complete:
            raise ValueError(f"could not factor block {b}")
        orderings.append(tuple(p for p, e in fz.factors for _ in range(e)))
    return tuple(orderings)


def embed(orderings: Sequence[Sequence[int]], order: Sequence[int]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lift a block-level equivalence to the full prime tuple.

    P concatenates the blocks' prime ``orderings``; the partner
    concatenates orderings[i] for i in ``order``, which names block
    positions the way ``_CASE_PARTNER`` names entry positions. Entries
    must be prime and distinct (NotSquarefree otherwise), so the blocks
    are squarefree and pairwise coprime, and the block congruences (each
    block sees equal products of its predecessor blocks in both) hold
    exactly when P and the partner pin one residue class;
    BlockCongruenceFailed is raised otherwise. Returns (P, partner).
    """
    if sorted(order) != list(range(len(orderings))):
        raise ValueError("order must list each block position once")
    if list(order) == sorted(order):
        raise ValueError("order must be non-trivial")
    flat: list[int] = []
    for ordering in orderings:
        if not ordering:
            raise ValueError("blocks must exceed 1")
        if not all(is_prime(p) for p in ordering):
            raise NotSquarefree(f"block {ordering} has a non-prime entry")
        flat.extend(ordering)
    if len(set(flat)) != len(flat):
        raise NotSquarefree("a prime appears twice among the blocks")
    partner = tuple(p for i in order for p in orderings[i])
    if not equivalent(flat, partner):
        raise BlockCongruenceFailed(
            f"blocks {orderings} are not congruent under order {order}")
    return tuple(flat), partner
