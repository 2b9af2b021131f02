"""Arbitrary-precision arithmetic services.

Baillie-PSW primality testing (exact below 2**64), small-prime
extraction by a remainder tree under the product of the small primes, a
staged factoring ladder (small primes, a short pass of
Brent's cycle method, elliptic curves with Montgomery's stage 2, then a
long Brent pass) backed by a persistent factor cache, modular inverses,
a segmented squarefree enumerator that never falls back to general
factoring, and the durable file write behind every checkpoint.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Sequence, Union


class NotInvertible(ValueError):
    """Raised when an inverse is requested for a non-unit residue."""


class NotSquarefree(ValueError):
    """Raised when an operation requires a squarefree argument."""


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd, positive
    a %= n
    sign = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge parameter search: D = 5, -7, 9, -11, ... with (D|n) = -1.
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # Lucas sequences for P = 1, by binary double-and-add.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, V + D * U
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW primality test: a strong probable-prime test to base 2
    and a strong Lucas test with Selfridge's parameters.

    Exact below 2**64: no BPSW pseudoprime lies there (Gilchrist, 2009,
    checked against Feitsma's list of base-2 strong pseudoprimes), and
    none is known above. Returns False for 0 and 1.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 40401:  # 201**2: fully screened by the table above
        return True
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


@dataclass(frozen=True)
class EffortPolicy:
    """Knobs for the factoring ladder.

    The ladder strips the primes up to ``trial_bound`` (and always those
    up to 199) by gcds. Each composite left then tries, in order: the
    factor cache and the perfect-power test, which always run; a short
    Brent rho pass, one polynomial with a budget of min(``rho_iterations``,
    2048); ``ecm_curves`` elliptic curves, each with stage 1 to its B1 and
    stage 2 to 100*B1; last, Brent rho over five polynomials, each with the
    budget ``rho_iterations``. A rho polynomial runs whole rounds of
    r = 1, 2, 4, ... until the sum of their r reaches its budget, and a
    round takes r steps plus up to r more with products. So a polynomial
    that splits nothing takes twice the first sum 2**j - 1 at or above the
    budget, under four times the budget: 8,190 steps for 2048, 2,046 for
    1000. The first half of the curves climb a ramp of 6 curves at
    B1 = 500, 25 at 2000 and 90 at 11000, each B1 capped at ``ecm_b1``;
    the rest run at ``ecm_b1`` (the default 50 curves: 6 at 500, 19 at
    2000, 25 at 50000). The short pass's budget and the first rung are
    those the level census ran fastest with, by its wall time. With
    ``ecm_curves`` of 0 (or ``ecm_b1`` below 2) only the last rho pass
    runs. These fields alone bound a ``factor`` call's work, so its result
    depends on its arguments, never on the machine's speed. A field that
    is not an int (a bool included) or is negative raises ValueError.
    """

    trial_bound: int = 10_000
    rho_iterations: int = 400_000
    ecm_curves: int = 50
    ecm_b1: int = 50_000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # refuses bool, a subclass of int
                raise ValueError(f"policy field {f.name} must be int, not "
                                 f"{value!r}")
            if value < 0:
                raise ValueError(f"policy field {f.name} must be nonnegative")

    @property
    def small_prime_bound(self) -> int:
        """Every prime factor up to this bound is found by ``factor``:
        ``trial_bound``, and never less than the table's 199."""
        return max(self.trial_bound, _SMALL_PRIMES[-1])


DEFAULT_POLICY = EffortPolicy()


@dataclass(frozen=True)
class Factorization:
    """A certified, possibly partial, prime-power decomposition.

    ``factors`` lists (prime, exponent) with primes strictly increasing;
    ``cofactor`` is 1 when the decomposition is complete and a proven
    composite otherwise.
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def squarefree(self) -> bool:
        return self.cofactor == 1 and all(e == 1 for _, e in self.factors)

    def product(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p ** e
        return out

    def verify(self) -> bool:
        """Full consistency check (used by tests; not on hot paths)."""
        if self.product() != self.n:
            return False
        if any(e < 1 for _, e in self.factors):
            return False
        ps = self.primes
        if list(ps) != sorted(set(ps)):
            return False
        if not all(is_prime(p) for p in ps):
            return False
        return self.cofactor == 1 or not is_prime(self.cofactor)


class FactorCache:
    """Persistent store of known nontrivial splits, kept in the file at
    ``path``.

    Plain text, one entry per line, ``composite=factor,factor,...`` in
    decimal. Loaded eagerly (a missing file is an empty cache); a
    malformed line, or one whose factors are not all proper divisors of
    its composite, raises ValueError naming the file and line. ``add``
    merges a split and appends its line under one lock, so threads of
    one process that share a cache neither write a split twice nor
    interleave their lines. The lock does nothing across processes:
    jobs in separate processes must not append to one file at once.
    """

    def __init__(self, path: str):
        self.path = path
        self._known: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        left, right = line.split("=", 1)
                        self._merge(int(left), [int(t) for t in
                                                right.split(",") if t])
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}: malformed factor cache "
                            f"line {line!r}") from None
        except FileNotFoundError:
            pass

    def _merge(self, composite: int, factors: list[int]) -> bool:
        if not factors or not all(1 < f < composite and composite % f == 0
                                  for f in factors):
            raise ValueError(f"{factors} are not proper divisors of "
                             f"{composite}")
        known = self._known.setdefault(composite, [])
        new = [f for f in factors if f not in known]
        known.extend(new)
        return bool(new)

    def lookup(self, composite: int) -> Optional[list[int]]:
        facs = self._known.get(composite)
        return list(facs) if facs else None

    def add(self, composite: int, factors: Sequence[int]) -> None:
        with self._lock:
            if not self._merge(composite, list(factors)):
                return
            line = "%d=%s\n" % (
                composite, ",".join(str(f) for f in sorted(set(factors))))
            with open(self.path, "a+b") as fh:
                # never run on from a last line left unterminated
                fh.seek(max(fh.tell() - 1, 0))
                if fh.read(1) not in (b"", b"\n"):
                    line = "\n" + line
                fh.write(line.encode())


def write_durably(path: str, text: str) -> None:
    """Replace the file at ``path`` by one holding ``text``: it is written
    beside ``path``, flushed and fsynced, renamed over it, and the rename
    fsynced through the directory, so a crash leaves the old file or the
    new one whole."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    return list(itertools.compress(range(limit + 1),
                                   _prime_flags(0, limit + 1)))


def spf_table(limit: int) -> list[int]:
    """spf[d] is the smallest prime factor of d, for 2 <= d <= limit."""
    spf = list(range(limit + 1))
    # larger primes first, so the smallest prime of d writes spf[d] last
    for p in reversed(sieve_primes(math.isqrt(limit))):
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def _prime_flags(lo: int, hi: int) -> bytearray:
    """flags[i] == 1 exactly when lo + i is prime, for lo <= lo + i < hi."""
    flags = bytearray([1]) * (hi - lo)
    for i in range(lo, min(2, hi)):  # 0 and 1
        flags[i - lo] = 0
    for p in sieve_primes(math.isqrt(hi - 1)):
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo::p] = bytes(len(range(first, hi, p)))
    return flags


@functools.lru_cache(maxsize=4)
def _primorial(bound: int) -> tuple[int, tuple[int, ...]]:
    """The product of the primes <= bound, and those primes."""
    ps = sieve_primes(bound)
    return math.prod(_product_tree(ps)[-1]), tuple(ps)


# primes per block of _prime_blocks. Split-only times of the g's of the
# walks from 1 (7,797 at 2^16 to level 28; 15,112 at 2^20 to level 21),
# against 35 and 580 ms by trial division: 64 primes took 7.6-8.1 and
# 118-125 ms; 32 took 9.2-9.3 and 149-161; 128 took 8.4-8.9 and 105-106.
# The 2^16 walk, the benchmark's, decides.
_SPLIT_BLOCK = 64


@functools.lru_cache(maxsize=4)
def _prime_blocks(bound: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The primes <= bound in blocks of _SPLIT_BLOCK consecutive primes:
    (first prime squared, product of the block, the block's primes)."""
    ps = _primorial(bound)[1]
    return tuple((ps[i] ** 2, math.prod(ps[i:i + _SPLIT_BLOCK]),
                  ps[i:i + _SPLIT_BLOCK])
                 for i in range(0, len(ps), _SPLIT_BLOCK))


def _product_tree(xs: list[int]) -> list[list[int]]:
    """The levels of the product tree of xs, from the leaves to the root."""
    tree = [xs]
    while len(tree[-1]) > 1:
        lv = tree[-1]
        tree.append([math.prod(lv[i:i + 2]) for i in range(0, len(lv), 2)])
    return tree


# _mod leaves to divmod, which takes time |q|*|b| in CPython 3.11, every
# division whose quotient has at most this many bits, and every divisor of
# at most 3 times as many, where splitting costs more than it saves (a
# 16-kbit by 8-kbit division took 0.25 ms split, 0.12 ms by divmod; at 64
# by 32 kbits, 0.96 ms split against 1.83 ms).
_DIV_LIMIT = 4000


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b << n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:  # make n even, with b's top bit still at n - 1
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int
             ) -> tuple[int, int]:
    """divmod(a12 << n | a3, b) for b = b1 << n | b2 with b1 of exactly n
    bits, a12 < b and a3 < 2**n: the quotient of a12 by b1 overshoots by at
    most 2, and the loop takes it back."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _mod(a: int, b: int) -> int:
    """a % b for a >= 0 and b >= 1, in Burnikel and Ziegler's recursive
    division ("Fast Recursive Division", 1998) when both are long: a is
    cut into digits of b's length, and each 2n-by-n step halves into two
    3n/2-by-n steps, each one n-by-n/2 division, itself recursive, and one
    n/2-by-n/2 product, which CPython multiplies by Karatsuba."""
    n = b.bit_length()
    if n <= 3 * _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return a % b
    mask = (1 << n) - 1
    r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        r = _div2n1n(r << n | a >> shift & mask, b, n)[1]
    return r


def _remainders(m: int, xs: list[int]) -> list[int]:
    """m mod x for every x of xs, carried down a product tree of xs."""
    rs = [m]
    for lv in reversed(_product_tree(xs)):
        rs = [_mod(rs[i >> 1], x) for i, x in enumerate(lv)]
    return rs


def _groups(xs: Iterable[int], bits: int) -> Iterator[list[int]]:
    """Consecutive runs of xs, each closed once its bit lengths sum to
    ``bits``; an x below 1 raises ValueError."""
    group: list[int] = []
    total = 0
    for x in xs:
        if x < 1:
            raise ValueError(f"small primes of {x}: need x >= 1")
        group.append(x)
        total += x.bit_length()
        if total >= bits:
            yield group
            group, total = [], 0
    if group:
        yield group


def small_prime_factors_many(xs: Iterable[int], bound: int
                             ) -> list[list[int]]:
    """The distinct primes <= bound dividing each x >= 1 of xs, ascending.

    With P the product of the primes <= bound, g = gcd(x, P mod x) is the
    product of those primes that divide x. The remainders come from one
    remainder tree per run of xs as long as P, so a tree holds O(|P|) bits.
    g is split by its gcd h with the product of each block of consecutive
    primes in turn, not prime by prime: an h below the square of its
    block's first prime is one prime, since any two primes of the block
    multiply to more, and a larger h is divided by the block's primes.
    """
    P = _primorial(bound)[0]
    blocks = _prime_blocks(bound)
    out = []
    for group in _groups(xs, P.bit_length()):
        for x, r in zip(group, _remainders(P, group)):
            g = math.gcd(x, r)
            found = []
            # g is squarefree with every prime <= bound, so once p*p > g
            # for the least prime p that may still divide g, what is left
            # of g is 1 or a prime; the same rule splits h in its block
            for p0_sq, block, ps in blocks:
                if p0_sq > g:
                    break
                h = math.gcd(block, g)
                if h == 1:
                    continue
                g //= h
                for p in ps:
                    if p * p > h:
                        break
                    if h % p == 0:
                        found.append(p)
                        h //= p
                found.append(h)
            if g > 1:
                found.append(g)
            out.append(found)
    return out


def small_prime_factors(x: int, bound: int) -> list[int]:
    """The distinct primes <= bound dividing x >= 1, ascending."""
    return small_prime_factors_many([x], bound)[0]


def _iroot(n: int, k: int) -> int:
    if n < 2 or k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> Optional[tuple[int, int]]:
    for k in sieve_primes(n.bit_length() - 1):  # every prime k, 2**k <= n
        r = _iroot(n, k)
        if r > 1 and r ** k == n:
            return r, k
    return None


def _rho_brent(n: int, max_iters: int,
               polynomials: Sequence[int] = (1, 3, 5, 7, 11)) -> Optional[int]:
    # Brent-style cycle finding with a gcd per batch of 128 products; n odd
    # composite.
    for c in polynomials:
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        count = 0
        while g == 1 and count < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g > 1:
                    break
            count += r
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


# Stage 2 of a curve with stage-1 bound B1 covers the primes up to
# _ECM_B2_RATIO * B1, as q = m*D +- j with 0 < j < D/2 coprime to D.
_ECM_B2_RATIO = 100


@functools.lru_cache(maxsize=8)
def _ecm_plan(b2: int) -> tuple[int, tuple[int, ...]]:
    """(D, baby) of a stage 2 to b2, baby the odd j < D/2 coprime to D:
    the D of a few with the fewest products, at 6 per differential
    addition and 4 per batched-inversion entry. The baby steps cost about
    D/4 additions and len(baby) + 1 entries, each of about b2/D giant
    steps one of each."""
    def cost(plan):
        d, baby = plan
        return 6 * (baby[-1] // 2 + b2 // d) + 4 * (len(baby) + b2 // d)
    return min(((d, tuple(j for j in range(1, d // 2, 2)
                          if math.gcd(j, d) == 1))
                for d in (210, 420, 630, 1050, 2310, 4620)), key=cost)


_ECM_ROWS = 64  # giant steps per sieved segment of stage 2


def _ecm_stage2_rows(b1: int, b2: int) -> Iterator[tuple[int, list[bytes]]]:
    """(m0, rows) for each segment of at most _ECM_ROWS giant steps m = m0,
    m0 + 1, ...: rows[m - m0][i] is 1 when m*D - j or m*D + j, j =
    baby[i], is a prime in (b1, b2], for (D, baby) = _ecm_plan(b2).
    Sieved a segment at a time, so memory does not grow with b2; the
    primes below D/2 are left to the baby steps themselves."""
    d, baby = _ecm_plan(b2)
    half, width = d // 2, len(baby)
    m0, m_end = max(1, (b1 + half) // d), (b2 + half) // d + 1
    for ma in range(m0, m_end, _ECM_ROWS):
        rows = min(_ECM_ROWS, m_end - ma)
        base = ma * d - half  # q = m*D +- j sits at q - base
        pf = _prime_flags(base, base + (rows + 1) * d)
        if b1 >= base:
            pf[:b1 + 1 - base] = bytes(b1 + 1 - base)
        if b2 + 1 - base < len(pf):
            pf[b2 + 1 - base:] = bytes(len(pf) - (b2 + 1 - base))
        seg = bytearray(rows * width)
        for i, j in enumerate(baby):
            lo = int.from_bytes(pf[half - j::d][:rows], "little")
            hi = int.from_bytes(pf[half + j::d][:rows], "little")
            seg[i::width] = (lo | hi).to_bytes(rows, "little")
        table = bytes(seg)
        yield ma, [table[r * width:(r + 1) * width] for r in range(rows)]


# The factoring ladder's fixed effort: the short rho pass before the
# curves, and the curve count at each rising B1. At most half of a
# policy's curves climb this ramp; the others use the policy's ecm_b1.
# The budget and the first rung are those the level census ran fastest
# with (perfbench census wall_s); the later rungs are Zimmermann and
# Dodson's choice for factors of 15 and of 20 digits.
_RHO_SHORT = 1 << 11
_ECM_RAMP = ((6, 500), (25, 2_000), (90, 11_000))

# Raised whenever the same policy fields come to run a different ladder.
# Census checkpoints record it with the policy, so one saved under another
# ladder, whose blocked counts this one need not reproduce, is refused
# rather than resumed or overwritten: delete it to start again.
LADDER_VERSION = 5

# Stage-2 rows up to the ramp's largest B2 (at most about 180 KB) are kept
# for the next curve; larger ones are sieved by each curve and freed. A
# policy's B1 at or below the ramp's largest caps the rungs above it, so
# the kept B2 are at most one per rung, and a climb sieves each once.
_ECM_KEEP_B2 = 1_100_000


@functools.lru_cache(maxsize=len(_ECM_RAMP))
def _ecm_stage2_kept(b1: int, b2: int) -> tuple[tuple[int, list[bytes]], ...]:
    return tuple(_ecm_stage2_rows(b1, b2))


# Stage-1 scalar bits between gcd checks. A check can split n before the
# orders mod both primes divide the whole scalar, so pieces set the splits.
_ECM_PIECE_BITS = 4096


@functools.lru_cache(maxsize=4)
def _ecm_stage1_scalars(b1: int) -> tuple[int, ...]:
    """The stage-1 scalar K, the product of the largest power <= b1 of
    each prime <= b1, as factors of about _ECM_PIECE_BITS bits each."""
    pieces, k = [], 1
    for p in sieve_primes(b1):
        pe = p
        while pe * p <= b1:
            pe *= p
        k *= pe
        if k.bit_length() >= _ECM_PIECE_BITS:
            pieces.append(k)
            k = 1
    if k > 1:
        pieces.append(k)
    return tuple(pieces)


def _ecm_ladder(k: int, x0: int, a24: int,
                n: int) -> tuple[int, int, int, int]:
    """X and Z of k*P and of (k+1)*P, k >= 1, for P = (x0 : 1) on the
    Montgomery curve with (A + 2)/4 = a24 mod n. With P's Z at 1 each
    differential addition costs one product less."""
    s, d = (x0 + 1) * (x0 + 1) % n, (x0 - 1) * (x0 - 1) % n
    t = s - d
    x1, z1, x2, z2 = x0, 1, s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        d1, s1, d2, s2 = x1 - z1, x1 + z1, x2 - z2, x2 + z2
        a, b = d1 * s2, s1 * d2
        e, f = (a + b) % n, (a - b) % n
        xa, za = e * e % n, x0 * f * f % n  # the sum, P its difference
        if bit == "1":  # (k, k+1) -> (2k+1, 2k+2)
            s, d = s2 * s2 % n, d2 * d2 % n
            t = s - d
            x1, z1, x2, z2 = xa, za, s * d % n, t * (d + a24 * t) % n
        else:  # (k, k+1) -> (2k, 2k+1)
            s, d = s1 * s1 % n, d1 * d1 % n
            t = s - d
            x1, z1, x2, z2 = s * d % n, t * (d + a24 * t) % n, xa, za
    return x1, z1, x2, z2


def _ecm_affine(points: list[tuple[int, int]], n: int
                ) -> tuple[int, list[int]]:
    """(g, xs): xs[i] = x/z mod n of points[i] = (x, z), all by one
    inversion (Montgomery's trick), when g = gcd(prod z, n) is 1; when g
    exceeds 1, xs is empty."""
    prefix, acc = [], 1
    for _, z in points:
        prefix.append(acc)
        acc = acc * z % n
    g = math.gcd(acc, n)
    if g > 1:
        return g, []
    inv = pow(acc, -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * inv * prefix[i] % n
        inv = inv * z % n
    return 1, xs


def _ecm_curve(n: int, b1: int, sigma: int) -> Optional[int]:
    """One elliptic curve on n: stage 1 to b1, then Montgomery's standard
    continuation to _ECM_B2_RATIO * b1. A proper factor of n, or None.

    Montgomery curve, Suyama parametrization, x-only arithmetic. Stage 1
    multiplies the start point by each factor of _ecm_stage1_scalars(b1)
    in one ladder, scaling the point to Z = 1 between factors. Stage 2,
    with D and the baby steps sized to B2 by _ecm_plan, scales the baby
    steps, and each segment's giant steps, to Z = 1 by one inversion, so
    each of its primes costs one product. A Z that is not invertible mod
    n splits n there."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    num = pow(v - u, 3, n) * (3 * u + v) % n
    den = 16 * x * v % n
    g = math.gcd(den, n)  # z = v**3 is a unit when den is
    if g > 1:
        return g if g < n else None
    inv = pow(den * z, -1, n)
    a24, x = num * z * inv % n, x * den * inv % n

    for k in _ecm_stage1_scalars(b1):
        x, z, _, _ = _ecm_ladder(k, x, a24, n)
        g = math.gcd(z, n)
        if g > 1:
            return g if g < n else None
        x = x * pow(z, -1, n) % n

    def x_add(x1, z1, x2, z2, xd, zd):
        a = (x1 - z1) * (x2 + z2) % n
        b = (x1 + z1) * (x2 - z2) % n
        return zd * (a + b) * (a + b) % n, xd * (a - b) * (a - b) % n

    # Baby steps x(j*Q) for the odd j < D/2 coprime to D, and the giant
    # step R = D*Q. Their z's vanish mod p when Q's order divides j or D.
    b2 = _ECM_B2_RATIO * b1
    d, baby = _ecm_plan(b2)
    x2, z2, x3, z3 = _ecm_ladder(2, x, a24, n)
    odd = [(x, 1), (x3, z3)]  # Q, 3Q, 5Q, ...
    while len(odd) <= baby[-1] // 2:
        odd.append(x_add(*odd[-1], x2, z2, *odd[-2]))
    g, xs = _ecm_affine([*(odd[j // 2] for j in baby),
                         _ecm_ladder(d, x, a24, n)[:2]], n)
    if g > 1:
        return g if g < n else None
    rx = xs.pop()

    # Giant steps m*R: q*Q = O mod p for q = m*D +- j exactly when
    # x(m*R) = x(j*Q) mod p, so multiply the differences together.
    segments = (_ecm_stage2_kept(b1, b2) if b2 <= _ECM_KEEP_B2
                else _ecm_stage2_rows(b1, b2))
    acc, xm = 1, None
    for ma, rows in segments:
        if xm is None:
            xm, zm, xn, zn = _ecm_ladder(ma, rx, a24, n)
        giant = []
        for _ in rows:
            giant.append((xm, zm))
            xm, zm, (xn, zn) = xn, zn, x_add(xn, zn, rx, 1, xm, zm)
        g, gxs = _ecm_affine(giant, n)
        if g > 1:
            return g if g < n else None
        for gx, flags in zip(gxs, rows):
            for xj in itertools.compress(xs, flags):
                acc = acc * (gx - xj) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _ecm_bounds(policy: EffortPolicy) -> Iterator[int]:
    """The B1 of each of the policy's curves, rising to ecm_b1."""
    ramp = list(itertools.islice(itertools.chain.from_iterable(
        itertools.repeat(min(b1, policy.ecm_b1), count)
        for count, b1 in _ECM_RAMP), policy.ecm_curves // 2))
    return itertools.chain(
        ramp, itertools.repeat(policy.ecm_b1, policy.ecm_curves - len(ramp)))


def _split_composite(m: int, policy: EffortPolicy,
                     cache: Optional[FactorCache]) -> Optional[list[int]]:
    if cache is not None:
        entry = cache.lookup(m)
        if entry:
            parts: list[int] = []
            rem = m
            for f in entry:
                if rem % f == 0 and 1 < f < rem:
                    parts.append(f)
                    rem //= f
            if parts:
                if rem > 1:
                    parts.append(rem)
                return parts
    power = _perfect_power(m)
    if power is not None:
        base, exp = power
        return [base] * exp
    if policy.ecm_curves and policy.ecm_b1 >= 2:
        if policy.rho_iterations:
            d = _rho_brent(m, min(policy.rho_iterations, _RHO_SHORT), (1,))
            if d is not None:
                return [d, m // d]
        for sigma, b1 in zip(itertools.count(6), _ecm_bounds(policy)):
            d = _ecm_curve(m, b1, sigma)
            if d is not None:
                return [d, m // d]
    if policy.rho_iterations:
        d = _rho_brent(m, policy.rho_iterations)
        if d is not None:
            return [d, m // d]
    return None


def factor(n: int, policy: EffortPolicy = DEFAULT_POLICY,
           cache: Optional[FactorCache] = None) -> Factorization:
    """Factor n >= 1 through the staged ladder.

    Returns a complete decomposition when the policy's effort suffices,
    otherwise a partial one whose cofactor is a proven composite. Every
    split discovered beyond the 64-bit range is recorded in the cache.
    """
    if n < 1:
        raise ValueError("factor() requires n >= 1")
    counts: dict[int, int] = {}
    rest = n
    for p in small_prime_factors(n, policy.small_prime_bound):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        counts[p] = e

    stack = [rest] if rest > 1 else []
    leftover: list[int] = []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        parts = _split_composite(m, policy, cache)
        if parts is None:
            leftover.append(m)
            continue
        if cache is not None and m >= 1 << 64:
            cache.add(m, parts)
        stack.extend(parts)

    cofactor = 1
    for m in leftover:
        cofactor *= m
    return Factorization(n, tuple(sorted(counts.items())), cofactor)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m). Raises NotInvertible on gcd > 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a % m, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {m}") from None


@functools.lru_cache(maxsize=4)
def _base_primes(bits: int) -> tuple[int, ...]:
    """The primes below 2**bits, kept for every later stream call."""
    return tuple(sieve_primes((1 << bits) - 1))


def squarefree_stream(lo: int, hi: int, min_omega: int = 0,
                      coprime_to: int = 1, *, primes_only: bool = False,
                      smooth: bool = False,
                      ) -> Iterator[tuple[int, Union[Factorization,
                                                     list[int]]]]:
    """Yield each squarefree m in [lo, hi] with its complete factorization.

    Filters to at least ``min_omega`` distinct prime factors and
    gcd(m, coprime_to) == 1. With ``primes_only`` each m comes with the
    list of its primes in increasing order instead of a Factorization.
    Entirely sieve-driven: each segment of 2**16 integers is sieved by
    the primes up to the square root of its end, and m over the product
    of the primes found is 1 or a single large prime. With ``smooth``
    the m with such a prime r are skipped; each has r**2 > m.
    """
    if lo < 1 or lo > hi:
        raise ValueError("need 1 <= lo <= hi")
    if coprime_to < 1:
        raise ValueError("coprime_to must be >= 1")
    base = _base_primes(math.isqrt(hi).bit_length())
    seg = 1 << 16
    gcd, prod = math.gcd, math.prod
    for start in range(lo, hi + 1, seg):
        end = min(start + seg - 1, hi)
        size = end - start + 1
        root = math.isqrt(end)
        facs: list[list[int]] = [[] for _ in range(size)]
        sqf = bytearray([1]) * size
        for p in base:
            if p > root:
                break
            for fs in facs[-start % p::p]:
                fs.append(p)
            pp = p * p
            first = -start % pp
            if first < size:
                sqf[first::pp] = bytes((size - 1 - first) // pp + 1)
        for i in itertools.compress(range(size), sqf):
            fs = facs[i]
            if len(fs) + 1 < min_omega:
                continue  # the cofactor adds at most one prime
            m = start + i
            if coprime_to > 1 and gcd(m, coprime_to) != 1:
                continue
            r = m // prod(fs)
            if r > 1:
                if smooth:
                    continue
                fs.append(r)
            if len(fs) < min_omega:
                continue
            yield m, (fs if primes_only
                      else Factorization(m, tuple((p, 1) for p in fs)))
