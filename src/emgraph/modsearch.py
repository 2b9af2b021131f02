"""Exhaustive discovery of equivalent tuple pairs of bounded modulus.

Let m be a squarefree modulus with primes p_1 < ... < p_k. An ordering
P of them admits exactly the starting values a with

    a * prod(S_p) = -1  (mod p)

for every prime p, where S_p is the set of primes before p in P. So the
residue class of P is fixed by its residue vector (prod(S_p) mod p), and
two orderings are equivalent exactly when their vectors agree. The
search walks the orderings depth first, one prime at a time, and packs
the vector into one integer key on the way: the digit of p_b,
prod(S_{p_b}) mod p_b, lies in [1, p_b), and weighting it by
p_1 ... p_{b-1} makes the key a mixed-radix number. Each complete
ordering is filed under its key as one integer code; the pairs are the
combinations inside each key's class whose proper prefix products all
differ, the irreducible pairs.

Irreducible pairs obey a global rule too. Let S and T be the sets of
primes before p in P and in Q. If S = T, the prefixes of length |S| (or
of length 1 if S is empty) have one product, so in an irreducible pair
S != T. Both orderings admit one a, so a*prod(S) = -1 = a*prod(T)
(mod p), hence prod(S) = prod(T) (mod p).
Every prime p of m must therefore see two distinct subsets of the other
primes with equal product mod p. The search checks this first,
largest prime first, and returns nothing when some prime sees all
2^(k-1) subset products distinct.

For the largest prime r of m = n*r the rule bounds r: cancelling the
primes common to S and T leaves disjoint sets A != B of primes of n with
r | prod(A) - prod(B), a nonzero integer below n in size, so r < n and
r^2 < m. So a range at least hi^(3/4) wide sieves nothing: a depth-first
walk over squarefree n with n*P(n) < hi lists the primes r in
(P(n), min(n, hi/n)] dividing such a difference, and only the moduli
n*r reach the search. A narrower range sieves, keeping the moduli the
stream factors completely (a cofactor prime above the sieve bound has
r^2 > m), and tests r^2 < m on the rest. Both sources feed one filter
and walk, so their records agree byte for byte.

The subset products the filter kept prune the walk: the prime placed
next must collide at its predecessor set, and every unplaced prime must
still have a colliding set containing the primes placed so far.
Weighted, they are the key's digits too: the walk computes no product.

Everything the walk reads below a prefix (the pruning and the digits) is
indexed by the mask of primes placed, so the completions of a mask are
the same on every path that reaches it. The walk therefore stops at
depth k - floor(k/2), lists the completions of each mask it reaches
there once, as (key offset, code suffix), and files the prefix OR each
of them. A code chains an ordering's proper prefix masks, the mask after
depth i in the k-bit field i - 1, so two orderings share a proper prefix
exactly when the XOR of their codes has a zero field: one test
(``_codec``), and only the pairs that pass are decoded. Memory grows
with the orderings filed, a key and a k(k - 1)-bit code each (README
gives the peaks).

``brute_force_pairs`` is the oracle the search is checked against. The
pairs of the cubic triple family and the two stock polynomial families
come from here too, so ``_records_for`` builds every record.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import itertools
import multiprocessing
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .arith import (DEFAULT_POLICY, EffortPolicy, Factorization,
                    NotSquarefree, is_prime, sieve_primes, spf_table,
                    squarefree_stream, write_durably)
from .classify import (BlockCongruenceFailed, block_orderings, embed,
                       quadruple_case_of_pair)
from .tuples import (PairRecord, PrimeTuple, _share_proper_prefix,
                     check_primes, ordering_bases, residue_base)


class IncompleteFactorization(ValueError):
    """Raised when a search needs a fully factored modulus."""


class TooManyFactors(ValueError):
    """Raised when brute-force enumeration would be factorially large."""


MAX_BRUTE_OMEGA = 8
_CHUNK = 1 << 16
# chunks drawn ahead of the one emitted, per searching process, so slow
# chunks on one side leave the other work
_AHEAD = 16


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for a range search over moduli."""

    lo: int
    hi: int
    min_k: int = 3
    coprime_to: int = 1
    irreducible_only: bool = True  # True only: False awaits ROADMAP item 14
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.irreducible_only is not True:
            raise ValueError("the range search lists irreducible pairs only")
        if not 1 <= self.lo <= self.hi:
            raise ValueError("need 1 <= lo <= hi")
        if self.min_k < 3:
            raise ValueError("min_k must be >= 3: shorter tuples admit "
                             "no second ordering")
        if self.coprime_to < 1 or self.worker_count < 1:
            raise ValueError("coprime_to and worker_count must be positive")


@dataclass(frozen=True)
class DensityReport:
    """Expected node spacing between loop bases of one modulus."""

    modulus: int
    class_count: int
    inverse_density: Fraction


@functools.lru_cache(maxsize=None)
def _mask_tables(k: int) -> tuple[list[list[int]], list[list[int]]]:
    """For masks over k primes: the masks without each bit, and the bit
    list of each mask, in increasing order."""
    without = [[mask for mask in range(1 << k) if not mask >> b & 1]
               for b in range(k)]
    bits = [[b for b in range(k) if mask >> b & 1] for mask in range(1 << k)]
    return without, bits


def _collision_tables(primes: Sequence[int],
                      ) -> Optional[tuple[list[int], list[int],
                                          list[list[int]]]]:
    """Per-prime tables indexed by the mask ``used`` of primes already
    placed in P; None when some prime p sees the subset products of the
    other primes pairwise distinct mod p, which rules out every
    irreducible pair.

    ``exact[used]`` holds the primes outside ``used`` for which ``used``
    collides mod p with another subset: the primes that may take the next
    position. ``allow[used]`` holds the primes that have a colliding
    subset containing ``used``: every unplaced prime must be among them.
    ``digit[b][used]``, for ``used`` without bit b, is p_b's digit of the
    class key: prod(used) mod p_b, times p_1 ... p_{b-1}.
    """
    half = 1 << (len(primes) - 1)  # subsets of the other primes
    residues: list[list[int]] = []
    # largest prime first; a prime p <= half has more subsets than nonzero
    # residues, so its products must collide
    for p in reversed(primes):
        prods = [1]
        for q in primes:
            if q != p:
                # a plain loop: a comprehension costs more on lists this
                # short
                for x in prods[:]:
                    prods.append(x * q % p)
        if half < p and len(set(prods)) == half:
            return None
        residues.append(prods)
    # residues[b][i] belongs to the i-th mask without bit b
    residues.reverse()
    k = len(primes)
    without = _mask_tables(k)[0]
    exact = [0] * (1 << k)
    digit = [[0] * (1 << k) for _ in primes]
    weight = 1  # p_1 ... p_{b-1}
    for b, res in enumerate(residues):
        bit, row = 1 << b, digit[b]
        first: dict[int, int] = {}  # residue -> its first mask
        for mask, r in zip(without[b], res):
            row[mask] = r * weight
            m0 = first.setdefault(r, mask)
            if m0 != mask:
                exact[m0] |= bit
                exact[mask] |= bit
        weight *= primes[b]
    allow = exact[:]
    for b, masks in enumerate(without):
        bit = 1 << b
        for mask in masks:
            allow[mask] |= allow[mask | bit]
    return exact, allow, digit


def _pair_search(m: int, primes: Sequence[int],
                 ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Core search; returns canonical (P, Q) tuples."""
    # the lemma (r^2 < m) and the filter first: a modulus they reject
    # builds none of the walk's closures
    if len(primes) < 3 or primes[-1] ** 2 > m:
        return []
    tables = _collision_tables(primes)
    if tables is None:
        return []
    return _backtrack(primes, *tables)


def _backtrack(primes: Sequence[int], exact: list[int], allow: list[int],
               digit: list[list[int]],
               ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pruned walk over orderings behind ``_pair_search``, grouping
    them by residue vector, with the ``_collision_tables`` of
    ``primes``."""
    k = len(primes)
    full = (1 << k) - 1
    bits = _mask_tables(k)[1]

    # the filter passed, so every prime collides somewhere and the root
    # meets allow; each child is checked before the descent
    def extend(used: int, key: int, code: int, shift: int, depth: int,
               leaf: Callable[[int, int, int], object]) -> None:
        """Call ``leaf(mask, key, code)`` after each pruned walk of
        ``depth`` more primes from ``used``; ``code`` holds the masks
        before ``mask``, the next at bit ``shift``."""
        for b in bits[exact[used]]:
            nused = used | 1 << b
            if allow[nused] | nused == full:
                nkey = key + digit[b][used]
                if depth == 1:
                    leaf(nused, nkey, code)
                else:
                    extend(nused, nkey, code | nused << shift, shift + k,
                           depth - 1, leaf)

    # the walk stops at depth k - half (see the module docstring); tails
    # holds each cut-depth mask's completions as (key offset, code suffix)
    half = k // 2
    cut = (k - half - 1) * k  # the cut-depth mask's field
    tails: list[Optional[list[tuple[int, int]]]] = [None] * (full + 1)
    first: dict[int, int] = {}  # class key -> code of its first ordering
    # class key -> codes of the others, as a tuple: most hold one code, and
    # regrowing a tuple copies no more than the class's pairs
    more: dict[int, tuple[int, ...]] = {}

    def graft(used: int, key: int, code: int) -> None:
        tail = tails[used]
        if tail is None:  # an empty list is memoised too
            tail = tails[used] = []
            extend(used, 0, 0, cut + k, half,
                   lambda _, off, suf: tail.append((off, suf)))
        code |= used << cut
        for off, suf in tail:
            ncode = code | suf
            if first.setdefault(key + off, ncode) != ncode:
                more[key + off] = more.get(key + off, ()) + (ncode,)

    extend(0, 0, 0, 0, k - half, graft)
    if not more:
        return []
    irreducible, ordering = _codec(primes)
    pairs = []
    for key, codes in more.items():
        for c, d in itertools.combinations((first[key], *codes), 2):
            if irreducible(c ^ d):
                P, Q = ordering(c), ordering(d)
                pairs.append((P, Q) if P < Q else (Q, P))
    return sorted(pairs)


def _codec(primes: Sequence[int],
           ) -> tuple[Callable[[int], bool], Callable[[int], tuple]]:
    """For ``_backtrack``'s codes of orderings of ``primes``: whether two
    codes with XOR z share no proper prefix, and the ordering of a code."""
    k = len(primes)
    full = (1 << k) - 1
    low = sum(1 << s for s in range(0, k * k - k, k))  # each field's bit 0
    high = low << k - 1
    top = full << k * k - k  # the full mask, after depth k
    prime = {1 << b: p for b, p in enumerate(primes)}
    shifts = range(0, k * k, k)

    def ordering(code: int) -> tuple[int, ...]:
        code |= top
        code ^= code << k  # field i: the prime placed at depth i + 1
        return tuple([prime[code >> s & full] for s in shifts])
    # a field of z is 0 (a shared prefix) exactly when taking 1 from each
    # field sets a high bit that z lacks
    return lambda z: (z - low) & ~z & high == 0, ordering


def _records_for(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
                 ) -> list[PairRecord]:
    """The records of pairs of orderings of one modulus's primes."""
    if not pairs:
        return []
    # every pair orders the same primes: check them once, not per record
    check_primes(pairs[0][0])
    out = []
    base: dict[tuple[int, ...], int] = {}  # equivalent orderings share one
    for P, Q in pairs:
        if P not in base:
            base[P] = base[Q] = residue_base(P)
        a = base[P]
        kind = "general"
        if len(P) == 3:
            kind = "triple"
        elif len(P) == 4:
            tag = quadruple_case_of_pair(P, Q)
            if tag is not None:
                kind = f"quadruple-case-{tag}"
        out.append(PairRecord(PrimeTuple(P), PrimeTuple(Q), a, kind))
    out.sort(key=lambda r: (r.a, r.p.primes))
    return out


def _require_squarefree(m: int, fz: Factorization) -> tuple[int, ...]:
    if not fz.complete:
        raise IncompleteFactorization(f"{m} has an unfactored cofactor")
    if not fz.squarefree:
        raise NotSquarefree(f"{m} is not squarefree")
    if fz.n != m:
        raise ValueError("factorization does not match modulus")
    return fz.primes


def search_modulus(m: int, fz: Factorization) -> list[PairRecord]:
    """A canonical record, with its residue class, of every irreducible
    pair {P, Q} of equivalent orderings of m: their proper prefix
    products all differ, so each is a genuine loop."""
    primes = _require_squarefree(m, fz)
    return _records_for(_pair_search(m, primes))


def brute_force_pairs(m: int, fz: Factorization,
                      irreducible_only: bool = True) -> list[PairRecord]:
    """Ground-truth oracle for ``search_modulus``: the irreducible pairs
    of each class of two or more orderings, all k! grouped by the CRT
    shares of ``tuples.ordering_bases``.

    Factorially expensive, so limited to omega <= 8.
    """
    if irreducible_only is not True:
        raise ValueError("the oracle lists irreducible pairs only")
    primes = _require_squarefree(m, fz)
    if len(primes) > MAX_BRUTE_OMEGA:
        raise TooManyFactors(f"omega({m}) exceeds {MAX_BRUTE_OMEGA}")
    groups: dict[int, list[tuple[int, ...]]] = {}
    for a, order in ordering_bases(primes):
        groups.setdefault(a, []).append(order)
    pairs = []
    for orders in groups.values():
        if len(orders) > 1:
            members = sorted(tuple(primes[i] for i in o) for o in orders)
            pairs += [(P, Q) for P, Q in itertools.combinations(members, 2)
                      if not _share_proper_prefix(P, Q)]
    return _records_for(sorted(pairs))


# The blocks of each stock polynomial family at x; the family's value is
# their product.
_FAMILY_BLOCKS = {
    "A": lambda x: (x * x + x + 1, x * x + 1, x ** 3 + x * x + 2 * x + 1),
    "B": lambda x: (x, x * x - x + 1, x * x + 1),
}


def generate_prime_triples(x_max: int) -> Iterator[PairRecord]:
    """Prime outputs of the cubic-family triple for x = 1..x_max.

    The triple is family A's blocks; each hit is emitted as the
    irreducible pair formed with its reversal.
    """
    for x in range(1, x_max + 1):
        t = _FAMILY_BLOCKS["A"](x)
        if all(is_prime(v) for v in t):
            yield from _records_for([(t, t[::-1])])


def manypairs_generator(q: int, x_max: int, mode: str = "A",
                        policy: EffortPolicy = DEFAULT_POLICY,
                        ) -> Iterator[PairRecord]:
    """Irreducible pairs from the stock polynomial families.

    Mode A keeps the x whose family value is squarefree and coprime to
    q; mode B those with gcd(value, q^2) = q and value/q squarefree, so
    q divides every modulus it emits.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if mode not in _FAMILY_BLOCKS:
        raise ValueError("mode must be 'A' or 'B'")
    # gcd(value, q) = 1 exactly when gcd(value, q^2) = 1
    share = 1 if mode == "A" else q
    for x in range(1, x_max + 1):
        blocks = _FAMILY_BLOCKS[mode](x)
        value = prod(blocks)
        if gcd(value, q * q) != share or any(b <= 1 for b in blocks):
            continue
        try:
            P, Q = embed(block_orderings(blocks, policy), (2, 1, 0))
        except (NotSquarefree, BlockCongruenceFailed):
            continue
        # embed has checked equivalence; irreducible needs distinct prefixes
        if not _share_proper_prefix(P, Q):
            yield from _records_for([(P, Q)])


def density_report(records: Sequence[PairRecord]) -> DensityReport:
    """phi(modulus) over the number of distinct residue classes."""
    if not records:
        raise ValueError("need at least one record")
    m = records[0].modulus
    if any(r.modulus != m for r in records):
        raise ValueError("records must share one modulus")
    classes = {r.a for r in records}
    phi = prod(p - 1 for p in records[0].p.primes)
    return DensityReport(m, len(classes), Fraction(phi, len(classes)))


def _largest_prime_candidates(lo: int, hi: int, min_k: int, coprime_to: int,
                              ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(primes of n, primes r) with each n*r in [lo, hi], at least
    ``min_k`` primes and no prime of ``coprime_to``. Every squarefree
    modulus there with those properties and an irreducible pair is one
    of the n*r.

    r = P(n*r) divides some prod(A) - prod(B) (the module docstring).
    Each pair (A, B) is kept once, as the subset products (x, y) with the
    smallest prime of A | B in A.
    """
    root = isqrt(hi)
    base = [p for p in sieve_primes(root) if coprime_to % p]
    spf = spf_table(root)
    need = max(2, min_k - 1)

    def visit(i0: int, n: int, ps: tuple[int, ...], xs: list[int],
              ys: list[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        if len(ps) >= need:
            r_lo = max(ps[-1] + 1, -(-lo // n))
            r_hi = min(n - 1, hi // n)
            if r_lo <= r_hi:
                if n <= root:  # every difference is below n <= root
                    found = set()
                    for d in map(sub, xs, ys):
                        d = abs(d)
                        while d > 1:
                            p = spf[d]
                            if p >= r_lo:
                                found.add(p)
                            d //= p
                    rs = sorted(p for p in found if coprime_to % p)
                else:  # r <= hi/n < root, so the few primes in range
                    rs = base[bisect.bisect_left(base, r_lo):
                              bisect.bisect_right(base, r_hi)]
                    if rs:
                        g = gcd(prod(map(sub, xs, ys)), prod(rs))
                        rs = [r for r in rs if g % r == 0] if g > 1 else []
                if rs:
                    yield ps, rs
        for j in range(i0, len(base)):
            q = base[j]
            if n * q * q >= hi:
                break
            yield from visit(j + 1, n * q, ps + (q,),
                             [*xs, *(x * q for x in xs), *xs, q],
                             [*ys, *ys, *(y * q for y in ys), 1])

    return visit(0, 1, (), [], [])


def _generates_candidates(cfg: SearchConfig) -> bool:
    """Whether a range search takes its moduli from the largest-prime
    generator rather than the sieve.

    The generator visits about hi^0.7 values of n whatever the width, so
    it serves ranges at least hi^(3/4) wide.
    """
    return (cfg.hi - cfg.lo + 1) ** 4 >= cfg.hi ** 3


def _candidate_chunks(cfg: SearchConfig, bounds: Sequence[tuple[int, int]],
                      ) -> Iterator[tuple]:
    """The ``_search_chunk`` arguments of the chunks ``bounds`` on the
    generator path, each with its candidate moduli in increasing order,
    generated in the calling thread and listed when drawn."""
    lo = bounds[0][0]
    nodes: list[tuple[int, ...]] = []
    # per chunk, flat (modulus, index of its n in nodes) pairs: 16 bytes a
    # candidate, where a tuple with its prime list would take about 200
    buckets = [array("q") for _ in bounds]
    for ps, rs in _largest_prime_candidates(lo, cfg.hi, cfg.min_k,
                                            cfg.coprime_to):
        n = prod(ps)
        for r in rs:
            buckets[(n * r - lo) // _CHUNK].extend((n * r, len(nodes)))
        nodes.append(ps)

    def moduli(flat: array) -> list[tuple[int, list[int]]]:
        return [(m, [*nodes[i], m // prod(nodes[i])])
                for m, i in sorted(zip(flat[::2], flat[1::2]))]
    return ((start, end, cfg.min_k, cfg.coprime_to, moduli(flat))
            for (start, end), flat in zip(bounds, buckets))


def _search_chunk(args: tuple) -> list[PairRecord]:
    """The records of one chunk (lo, hi, min_k, coprime_to), from the
    sieve or, when a fifth item is given, from that list of (modulus,
    primes) candidates."""
    lo, hi, min_k, coprime_to = args[:4]
    moduli: Iterable[tuple[int, list[int]]] = (
        args[4] if len(args) > 4 else
        # a modulus with a prime above the sieve bound has r^2 > m
        squarefree_stream(lo, hi, min_k, coprime_to, primes_only=True,
                          smooth=True))
    out: list[PairRecord] = []
    for m, primes in moduli:
        pairs = _pair_search(m, primes)
        if pairs:
            out.extend(_records_for(pairs))
    return out


def read_checkpoint(path: str) -> Optional[tuple[int, int]]:
    """(last fully processed modulus, records emitted so far), or None when
    the file does not exist; anything but two integers is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().split()
    except FileNotFoundError:
        return None
    try:
        last, count = map(int, text)
    except ValueError:
        raise ValueError(f"checkpoint {path} does not hold two integers "
                         "(last modulus, record count)") from None
    if count < 0:
        raise ValueError(f"checkpoint {path} has a negative record count")
    return last, count


def _write_checkpoint(path: str, last: int, count: int) -> None:
    write_durably(path, f"{last} {count}\n")


def resume_point(cfg: SearchConfig,
                 checkpoint: Optional[str]) -> tuple[int, int]:
    """(first modulus left to search, records already emitted) for a run
    of ``cfg`` that resumes from ``checkpoint``.

    A job checkpoints only its chunk ends: hi, or the last modulus of
    whole chunks from lo.
    """
    state = read_checkpoint(checkpoint) if checkpoint is not None else None
    if state is None:
        return cfg.lo, 0
    last, count = state
    if not (cfg.lo <= last <= cfg.hi and
            (last == cfg.hi or (last - cfg.lo + 1) % _CHUNK == 0)):
        raise ValueError(f"checkpoint {checkpoint} ends at modulus {last}, "
                         f"not a chunk end of the job on [{cfg.lo}, "
                         f"{cfg.hi}]: it belongs to another job")
    return last + 1, count


def _ordered(pool, workers: int,
             chunks: Iterable[tuple]) -> Iterator[list[PairRecord]]:
    """The records of each chunk, in order: the caller searches every
    ``workers``-th chunk and ``pool`` the others, drawing at most
    ``_AHEAD * workers`` chunks ahead of the one emitted."""
    window: collections.deque[Callable[[], list[PairRecord]]] = (
        collections.deque())
    for i, args in enumerate(chunks):
        window.append(pool.apply_async(_search_chunk, (args,)).get
                      if i % workers else
                      functools.partial(_search_chunk, args))
        if len(window) == _AHEAD * workers:
            yield window.popleft()()
    while window:
        yield window.popleft()()


def search_range(cfg: SearchConfig,
                 checkpoint: Optional[str] = None) -> Iterator[PairRecord]:
    """Stream every pair record with modulus in [cfg.lo, cfg.hi], in order.

    Fixed chunks are emitted left to right, so output is the same for
    any worker count; the checkpoint holds the last emitted chunk end and
    the record count, and a run given it yields only what follows. The
    caller and min(worker_count, chunks) - 1 helpers search
    (``_ordered``). An error in a chunk leaves this generator with the
    checkpoint at the chunk end before it.
    """
    lo, emitted = resume_point(cfg, checkpoint)
    if lo > cfg.hi:
        return
    bounds = [(start, min(start + _CHUNK - 1, cfg.hi))
              for start in range(lo, cfg.hi + 1, _CHUNK)]

    # a pool starts all its workers at once: no more than there are chunks
    workers = min(cfg.worker_count, len(bounds))
    with (multiprocessing.Pool(workers - 1) if workers > 1
          else contextlib.nullcontext()) as pool:
        # the helpers start before the candidates exist, so hold no copy
        chunks: Iterable[tuple] = (
            _candidate_chunks(cfg, bounds) if _generates_candidates(cfg)
            else [(start, end, cfg.min_k, cfg.coprime_to)
                  for start, end in bounds])
        for (_, end), recs in zip(bounds, _ordered(pool, workers, chunks)):
            yield from recs
            emitted += len(recs)
            if checkpoint is not None:
                _write_checkpoint(checkpoint, end, emitted)
