"""Equivalence of ordered prime tuples.

A k-tuple of distinct primes (p_1, ..., p_k) names a candidate edge path:
starting values n must satisfy p_i | p_1...p_{i-1} n + 1 for every i. The
admissible n form one invertible residue class modulo the tuple's product,
and two orderings of the same primes are interchangeable as paths exactly
when their residue classes coincide. That residue-class criterion is the
working definition of equivalence here; the permutation-congruence form is
kept in the test suite as an independent oracle.

``ordering_bases`` sums every ordering's base from CRT shares: the class
is n = -1/prod(S_p) (mod p) for each prime p, S_p the primes before p,
so the base is, mod m, the sum over p of a share fixed by p and the set
S_p. Each prime's share of each set is tabulated once, so an ordering
costs k reads and adds; ``residue_base``, one ordering's lift, is the
reference.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

from .arith import is_prime, mod_inverse

MAX_FACTORIAL_K = 10


class TupleTooLong(ValueError):
    """Raised when a factorial-cost operation is asked for k > 10."""


def check_primes(ps: Sequence[int]) -> None:
    """ValueError unless the entries of ``ps`` are distinct primes; run
    where a tuple comes in from outside."""
    if len(set(ps)) != len(ps):
        raise ValueError("entries must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")


@dataclass(frozen=True, order=True)
class PrimeTuple:
    """Ordered tuple of distinct primes, checked by ``check_primes``
    before it is built."""

    primes: tuple[int, ...]

    @cached_property
    def modulus(self) -> int:
        return prod(self.primes)


@dataclass(frozen=True)
class ResidueClass:
    """An invertible residue a modulo m."""

    a: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.a < self.m:
            raise ValueError("residue not reduced")
        if gcd(self.a, self.m) != 1:
            raise ValueError("residue not invertible")


def residue_base(primes: Iterable[int]) -> int:
    """Least nonnegative n with p_i | p_1...p_{i-1} n + 1 for every i."""
    a, M = 0, 1
    for p in primes:
        inv = mod_inverse(M, p)
        # n = -1/M (mod p); lift a by the multiple of M that reaches it
        a += M * ((-inv - a) * inv % p)
        M *= p
    return a


def residue_class(P: Sequence[int]) -> ResidueClass:
    """The arithmetic progression of starting values admitting path P."""
    ps = tuple(P)
    return ResidueClass(residue_base(ps), prod(ps))


def equivalent(P: Sequence[int], Q: Sequence[int]) -> bool:
    """True when P and Q are orderings of one prime set with equal classes."""
    ps, qs = tuple(P), tuple(Q)
    if sorted(ps) != sorted(qs):
        return False
    return residue_base(ps) == residue_base(qs)


def ordering_bases(primes: Sequence[int],
                   ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(residue_base, order) of each ordering of ``primes``, ``order``
    its permutation of their indices."""
    k, m = len(primes), prod(primes)
    sub = [1]  # each mask's product
    for p in primes:
        sub += [s * p for s in sub]
    # share[b][S]: -1/prod(S) mod p_b (by Fermat), 0 mod the other
    # primes; no ordering reads a mask holding b
    share = []
    for p in primes:
        e = m // p * pow(m // p, -1, p)
        share.append([-pow(s, p - 2, p) * e % m for s in sub])
    bits = [1 << b for b in range(k)]
    for order in itertools.permutations(range(k)):
        a = mask = 0
        for b in order:
            a += share[b][mask]
            mask |= bits[b]
        yield a % m, order


def multiplicity(P: Sequence[int]) -> int:
    """Number of orderings of P's primes sharing P's residue class."""
    return len(equivalence_class(P))


def equivalence_class(P: Sequence[int]) -> list[tuple[int, ...]]:
    """All orderings equivalent to P, including P itself, sorted."""
    ps = tuple(P)
    if len(ps) > MAX_FACTORIAL_K:
        raise TupleTooLong(f"k = {len(ps)} exceeds the factorial-search limit")
    check_primes(ps)
    target = residue_base(ps)
    return sorted(tuple(ps[i] for i in order)
                  for a, order in ordering_bases(ps) if a == target)


def _share_proper_prefix(ps: Sequence[int], qs: Sequence[int]) -> bool:
    """Whether two equal-length orderings reach one proper prefix product."""
    pp = qq = 1
    for i in range(len(ps) - 1):
        pp *= ps[i]
        qq *= qs[i]
        if pp == qq:
            return True
    return False


def is_irreducible_pair(P: Sequence[int], Q: Sequence[int]) -> bool:
    """Two equivalent distinct orderings whose proper prefix products
    differ: a loop meeting only at its ends."""
    ps, qs = tuple(P), tuple(Q)
    if ps == qs or len(ps) != len(qs):
        return False
    return equivalent(ps, qs) and not _share_proper_prefix(ps, qs)


def json_int(v: object, key: str) -> int:
    """A JSON integer or ASCII decimal string (-?[0-9]+) from field
    ``key`` as an int; ValueError naming ``key`` for anything else (a
    float, a bool, or a string ``int`` would also take, such as "1_000",
    " 7 ", "+5" or non-ASCII digits)."""
    if isinstance(v, int) and not isinstance(v, bool) or (
            isinstance(v, str) and v.isascii()
            and v.removeprefix("-").isdigit()):
        try:
            return int(v)
        except ValueError:  # a string past int's digit limit
            pass
    raise ValueError(f"{key!r} has {v!r}, not an integer")


@dataclass(frozen=True)
class PairRecord:
    """An unordered equivalent pair of orderings, canonically arranged.

    ``a`` is the base of the one residue class that the two sides pin;
    ``kind`` tags the structural family (triple, quadruple case I to IV,
    general).
    """

    p: PrimeTuple
    q: PrimeTuple
    a: int
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.p.primes > self.q.primes:
            lo, hi = self.q, self.p
            object.__setattr__(self, "p", lo)
            object.__setattr__(self, "q", hi)

    @property
    def modulus(self) -> int:
        return self.p.modulus

    @property
    def residues(self) -> tuple[ResidueClass]:
        """The pair's one residue class, as a 1-tuple."""
        return (ResidueClass(self.a, self.modulus),)

    def to_json_obj(self) -> dict:
        return {
            "p": [str(v) for v in self.p.primes],
            "q": [str(v) for v in self.q.primes],
            "modulus": str(self.modulus),
            "residues": [str(self.a)],
            "kind": self.kind,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    @staticmethod
    def from_json_obj(obj: dict) -> "PairRecord":
        """Parse a record; ValueError unless its fields have their types
        and it is self-consistent: distinct primes p, their product as
        modulus, q a distinct equivalent ordering, and p's one class as
        ``residues``."""
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        for key in ("p", "q", "modulus", "residues"):
            if key not in obj:
                raise ValueError(f"no {key!r}")
        for key in ("p", "q", "residues"):
            if not isinstance(obj[key], list):
                raise ValueError(f"{key!r} is not a list")
        kind = obj.get("kind", "general")
        if not isinstance(kind, str):
            raise ValueError(f"'kind' has {kind!r}, not a string")
        p = tuple(json_int(v, "p") for v in obj["p"])
        q = tuple(json_int(v, "q") for v in obj["q"])
        check_primes(p)
        m = json_int(obj["modulus"], "modulus")
        if m != prod(p):
            raise ValueError(f"modulus {m} is not the product of {p}")
        if p == q:
            raise ValueError(f"{p} is paired with itself")
        # equivalent orderings of p's primes need no check_primes of q
        if not equivalent(p, q):
            raise ValueError(f"{p} and {q} are not equivalent orderings")
        residues = [json_int(v, "residues") for v in obj["residues"]]
        a = residue_base(p)
        if residues != [a]:
            raise ValueError(f"'residues' has {residues}, not the one "
                             f"class [{a}] that {p} pins")
        return PairRecord(PrimeTuple(p), PrimeTuple(q), a, kind)

    @staticmethod
    def from_json_line(line: str) -> "PairRecord":
        return PairRecord.from_json_obj(json.loads(line))

