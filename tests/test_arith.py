"""Tests for primality, factoring, CRT, and the squarefree sieve."""

import itertools
import math
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from emgraph import arith


def trial_factorization(n):
    """Independent oracle: exhaustive trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def mobius_sieve(limit):
    mu = [1] * (limit + 1)
    for p in arith.sieve_primes(limit):
        for i in range(p, limit + 1, p):
            mu[i] *= -1
        for i in range(p * p, limit + 1, p * p):
            mu[i] = 0
    return mu


# primality -------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [
    (0, False), (1, False), (2, True), (3, True), (4, False),
    (6221671, True), (38891, True), (1807, False),
])
def test_is_prime_examples(n, expected):
    assert arith.is_prime(n) is expected


def test_is_prime_small_range():
    for n in range(50000):
        assert arith.is_prime(n) == sympy.isprime(n), n


@given(st.integers(min_value=2, max_value=1 << 70))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_reference(n):
    assert arith.is_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=1 << 100, max_value=1 << 140))
@settings(max_examples=60, deadline=None)
def test_is_prime_matches_reference_large(n):
    assert arith.is_prime(n) == sympy.isprime(n)


def strong_probable_prime_base_2(n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1
                                  for r in range(1, s))


def test_is_prime_rejects_base_2_strong_pseudoprimes():
    # the base-2 half of the test passes these; the Lucas half must not
    primes = set(arith.sieve_primes(2 * 10 ** 6))
    pseudo = [n for n in range(3, 2 * 10 ** 6, 2)
              if n not in primes and strong_probable_prime_base_2(n)]
    # 46 below 10^6, as Pomerance, Selfridge and Wagstaff (1980) count
    assert sum(n < 10 ** 6 for n in pseudo) == 46
    assert len(pseudo) == 73 and 1093 ** 2 in pseudo
    # strong pseudoprimes to bases 2 (3511^2), to 2, 3, 5, 7, to the
    # primes up to 23, and to the primes up to 37
    pseudo += [3511 ** 2, 3215031751, 149491 * 747451 * 34233211,
               399165290221 * 798330580441]
    assert 3215031751 == 151 * 751 * 28351
    for n in pseudo:
        assert not arith.is_prime(n), n


def test_is_prime_known_big():
    # 63-digit edge prime from the known double-path node
    p = int("72694522396969116359394297872290691367374465585642863181531"
            "83")
    assert arith.is_prime(p)
    assert not arith.is_prime(p * 3)


# factoring -------------------------------------------------------------

@pytest.mark.parametrize("n,factors", [
    (1807, ((13, 1), (139, 1))),
    (2, ((2, 1),)),
    (1806, ((2, 1), (3, 1), (7, 1), (43, 1))),
    (1, ()),
    (1024, ((2, 10),)),
])
def test_factor_examples(n, factors):
    fz = arith.factor(n)
    assert fz.factors == factors and fz.cofactor == 1
    assert fz.verify()


@pytest.mark.parametrize("field,value", [
    ("ecm_curves", "50"), ("trial_bound", 1.5), ("ecm_b1", True),
    ("rho_iterations", None), ("ecm_curves", -1),
])
def test_effort_policy_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        arith.EffortPolicy(**{field: value})


def test_factor_against_trial_division():
    policy = arith.EffortPolicy(trial_bound=500, rho_iterations=50_000,
                                ecm_curves=0)
    for n in range(1, 100_001):
        fz = arith.factor(n, policy)
        assert fz.complete, n
        assert fz.factors == trial_factorization(n), n


def test_factor_semiprime_rho():
    p, q = 1000003, 999999999989
    fz = arith.factor(p * q)
    assert fz.complete and fz.primes == (p, q)


def test_factor_ecm_only():
    n = 10000000019 * 10000000033
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=0,
                             ecm_curves=300, ecm_b1=20000)
    fz = arith.factor(n, pol)
    assert fz.complete and fz.primes == (10000000019, 10000000033)


def test_factor_partial_cofactor_is_composite():
    hard = 2 ** 101 - 1
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=50,
                             ecm_curves=0)
    fz = arith.factor(hard, pol)
    assert not fz.complete
    assert not arith.is_prime(fz.cofactor)
    assert fz.verify()


def test_factor_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.txt")
    hard = 2 ** 101 - 1
    cache = arith.FactorCache(path)
    cache.add(hard, [7432339208719])
    # a fresh handle reads the same file and unblocks the factorization
    reloaded = arith.FactorCache(path)
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=0, ecm_curves=0)
    fz = arith.factor(hard, pol, cache=reloaded)
    assert fz.complete
    assert fz.primes == (7432339208719, 341117531003194129)


def test_factor_records_new_splits(tmp_path):
    path = str(tmp_path / "cache.txt")
    cache = arith.FactorCache(path)
    n = 10000000019 * 10000000033
    arith.factor(n, cache=cache)
    assert arith.FactorCache(path).lookup(n)


@pytest.mark.parametrize("bound", [0, 10])
def test_factor_strips_table_primes_below_any_bound(bound):
    # 11, 13 and 197 exceed the bound but not the 199 of is_prime's table
    n = 11 * 13 * 197 * 1000000007
    pol = arith.EffortPolicy(trial_bound=bound, rho_iterations=0,
                             ecm_curves=0)
    fz = arith.factor(n, pol)
    assert fz.complete
    assert fz.primes == (11, 13, 197, 1000000007)


def test_factor_cache_appends_after_unterminated_last_line(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("35=5,7")
    arith.factor(2 ** 67 - 1, cache=arith.FactorCache(str(path)))
    assert path.read_text() == (
        "35=5,7\n147573952589676412927=193707721,761838257287\n")
    reloaded = arith.FactorCache(str(path))
    assert reloaded.lookup(35) == [5, 7]
    assert reloaded.lookup(2 ** 67 - 1) == [193707721, 761838257287]


def test_factor_cache_rejects_malformed_line(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("15=3,5\n\n91 7,13\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3")):
        arith.FactorCache(str(path))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        arith.factor(0)


def test_factor_independent_of_cache_entry_order(tmp_path):
    n = 7432339208719 * 341117531003194129 * 1000003
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=0, ecm_curves=0)
    results = []
    for tag, entry in (("a", "7432339208719,341117531003194129"),
                       ("b", "341117531003194129,7432339208719")):
        path = tmp_path / tag
        path.write_text(f"{n}={entry}\n")
        fz = arith.factor(n, pol, cache=arith.FactorCache(str(path)))
        results.append(fz)
    assert results[0] == results[1]
    assert results[0].complete and results[0].verify()


@pytest.mark.parametrize("n,factors", [
    (211 ** 11, ((211, 11),)),
    (2 * 10007 ** 11, ((2, 1), (10007, 11))),
])
def test_factor_perfect_power_with_large_exponent(n, factors):
    # exponents of 11 and beyond are tried at any size, at zero cost
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=0, ecm_curves=0)
    fz = arith.factor(n, pol)
    assert fz.complete and fz.factors == factors


@pytest.mark.parametrize("line", ["91=5", "91=91", "91=1,7", "91="])
def test_factor_cache_rejects_non_divisor(tmp_path, line):
    path = tmp_path / "cache.txt"
    path.write_text(f"15=3,5\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
        arith.FactorCache(str(path))


# small primes ----------------------------------------------------------

def small_primes_oracle(x, bound):
    """Independent oracle: every prime up to the bound, tried in turn."""
    return [p for p in arith.sieve_primes(bound) if x % p == 0]


@given(st.integers(min_value=1, max_value=1 << 300),
       st.sampled_from([2, 3, 5, 139, 140, 1000, 1 << 16]))
@settings(max_examples=200, deadline=None)
def test_small_prime_factors_matches_oracle(x, bound):
    assert arith.small_prime_factors(x, bound) == small_primes_oracle(x, bound)


@pytest.mark.parametrize("x,bound", [
    (1, 2), (1, 1 << 16), (2, 2), (3, 2), (2 ** 20, 10), (3 ** 40, 3),
    (139 ** 7, 139), (138 * 139, 139), (138 * 139, 138),
    (2 ** 400 + 1, 5), (3 * 5 * 2 ** 400, 5),
    (2 ** 400 * 3 ** 200 * 5 ** 100 + 30, 5),
])
def test_small_prime_factors_edge_cases(x, bound):
    assert arith.small_prime_factors(x, bound) == small_primes_oracle(x, bound)


def test_small_prime_factors_above_the_product():
    # factor()'s case: an x far longer than the product of the primes
    rng = random.Random(9)
    primes = arith.sieve_primes(10_000)
    for _ in range(5):
        x = rng.getrandbits(20_000) | 1 << 19_999
        x *= math.prod(rng.sample(primes, 40))
        assert x.bit_length() > arith._primorial(10_000)[0].bit_length()
        assert (arith.small_prime_factors(x, 10_000)
                == small_primes_oracle(x, 10_000))


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 139, 1000])
def test_primorial_is_product_of_primes(bound):
    primes = arith.sieve_primes(bound)
    assert arith._primorial(bound) == (math.prod(primes), tuple(primes))


# 1 << 14: P has 23,452 bits, so tree nodes near the root divide recursively
@pytest.mark.parametrize("bound", [2, 5, 139, 1000, 1 << 14])
def test_small_prime_factors_many_matches_oracle(bound, monkeypatch):
    # mixed sizes, so groups close at varied points and trees are uneven
    rng = random.Random(bound)
    primes = arith.sieve_primes(bound)
    xs = []
    for _ in range(400):
        x = rng.getrandbits(rng.choice([1, 8, 64, 300, 3000])) + 1
        if rng.random() < 0.5:
            x *= math.prod(rng.choices(primes, k=rng.randrange(1, 6)))
        xs.append(x)
    P = arith._primorial(bound)[0]
    assert sum(x.bit_length() for x in xs) > 10 * P.bit_length()
    steps = []
    div3n2n = arith._div3n2n
    monkeypatch.setattr(arith, "_div3n2n",
                        lambda *a: steps.append(a) or div3n2n(*a))
    assert arith.small_prime_factors_many(xs, bound) == [
        small_primes_oracle(x, bound) for x in xs]
    assert bool(steps) == (P.bit_length() > 3 * arith._DIV_LIMIT)
    assert arith.small_prime_factors_many(iter(xs[:7]), bound) == [
        arith.small_prime_factors(x, bound) for x in xs[:7]]


def test_small_prime_factors_many_block_edges():
    # blocks of B primes: bounds that end a block and that start one, and
    # g's whose primes sit at a block's first, inner and last places
    B = arith._SPLIT_BLOCK
    primes = arith.sieve_primes(10_000)
    assert len(primes) > 3 * B
    big = (2 ** 61 - 1) * (2 ** 89 - 1)  # primes above every bound here
    for bound in (primes[2 * B - 1], primes[2 * B]):
        ps = arith.sieve_primes(bound)
        assert ps[-1] == bound
        gs = [1, 2, 3 * 5, 2 * ps[B - 1], ps[B - 2] * ps[B - 1],
              ps[B + 1] * ps[B + 5], ps[B - 1] * ps[B], ps[B],
              ps[B] * ps[B + 3], ps[B] * ps[2 * B - 1], ps[-1],
              ps[-2] * ps[-1], ps[B] * ps[-1], math.prod(ps[B:2 * B]),
              math.prod(ps)]
        xs = [g * c for g in gs for c in (1, 2 ** 61 - 1, big)]
        assert arith.small_prime_factors_many(xs, bound) == [
            small_primes_oracle(x, bound) for x in xs]


def test_small_prime_factors_many_at_two_to_the_twenty():
    # the double-path hunt's bound, with the block edges among the primes
    bound = 1 << 20
    primes = arith.sieve_primes(bound)
    B = arith._SPLIT_BLOCK
    rng = random.Random(20)
    edges = [primes[-1], primes[-2], primes[B], primes[B - 1],
             primes[-(len(primes) % B or B)]]
    xs = []
    for i in range(40):
        x = rng.getrandbits(rng.choice([1, 64, 300, 2000])) + 1
        x *= math.prod(rng.sample(primes, rng.randrange(0, 4)))
        xs.append(x * edges[i % len(edges)] if i % 3 == 0 else x)
    # small_primes_oracle's rule, over one sieve of the primes
    rs = [[p for p in primes if x % p == 0] for x in xs]
    assert arith.small_prime_factors_many(xs, bound) == rs
    assert any(len(r) > 2 for r in rs) and any(primes[-1] in r for r in rs)


def _mod_operands(rng):
    """Divisors from 1 bit to 6 times the divmod limit, of even and odd
    bit lengths on both sides of the cutover, with random dividends up to
    5 divisors long and the edge cases named below."""
    limit = arith._DIV_LIMIT
    for bits in (1, 64, limit, 3 * limit, 3 * limit + 1, 4 * limit + 1,
                 5 * limit - 1, 6 * limit, 6 * limit + 3):
        for _ in range(6):
            b = rng.getrandbits(bits) | 1 << (bits - 1)
            yield rng.getrandbits(rng.randrange(1, 5 * bits + 2)), b
        ones = (1 << bits) - 1
        yield 0, ones
        yield ones - 1, ones  # a < b
        yield ones, ones
        yield rng.getrandbits(3 * bits), ones
        q = rng.getrandbits(2 * bits + limit)
        yield q * ones + ones - 1, ones
        b = rng.getrandbits(bits) | 1 << (bits - 1)
        yield q * b + b - 1, b


def test_mod_matches_remainder():
    rng = random.Random(26)
    for a, b in _mod_operands(rng):
        assert arith._mod(a, b) == a % b, (a.bit_length(), b.bit_length())


def test_div2n1n_matches_divmod():
    # the quotients matter too: each step's remainder is built from them
    rng = random.Random(27)
    for n in (arith._DIV_LIMIT + 1, 3 * arith._DIV_LIMIT + 1,
              5 * arith._DIV_LIMIT, 5 * arith._DIV_LIMIT + 7):
        bs = [(1 << n) - 1, 1 << (n - 1), rng.getrandbits(n) | 1 << (n - 1)]
        for b in bs:
            for a in ((b << n) - 1, rng.randrange(b << n), b << (n - 1),
                      (b - 1) << n | rng.getrandbits(n)):
                assert arith._div2n1n(a, b, n) == divmod(a, b)


def test_mod_corrects_the_quotient_estimate(monkeypatch):
    # a == q*b + b - 1 needs the estimate of each 3n-by-2n step taken back
    # by up to 2, Burnikel and Ziegler's bound
    overshoots = []
    div3n2n = arith._div3n2n

    def counted(a12, a3, b, b1, b2, n):
        q, r = div3n2n(a12, a3, b, b1, b2, n)
        overshoots.append(min(a12 // b1, (1 << n) - 1) - q)
        return q, r

    monkeypatch.setattr(arith, "_div3n2n", counted)
    rng = random.Random(28)
    bits = 4 * arith._DIV_LIMIT + 1
    for _ in range(20):
        b = rng.getrandbits(bits) | 1 << (bits - 1)
        q = rng.getrandbits(bits)
        assert arith._mod(q * b + b - 1, b) == b - 1
    assert min(overshoots) == 0 and max(overshoots) == 2


def test_small_prime_factors_many_empty_and_bound_below_two():
    assert arith.small_prime_factors_many([], 100) == []
    assert arith.small_prime_factors_many([6, 1, 35], 1) == [[], [], []]


@pytest.mark.parametrize("x", [0, -1, -30])
def test_small_prime_factors_rejects_below_one(x):
    with pytest.raises(ValueError):
        arith.small_prime_factors(x, 30)
    with pytest.raises(ValueError):
        arith.small_prime_factors_many([6, x, 10], 30)


# elliptic curves -------------------------------------------------------

def _ec_add(P, Q, A, B, p):
    """Affine sum on B*y^2 = x^3 + A*x^2 + x mod p; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + 1) * pow(2 * B * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (B * lam * lam - A - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k, P, A, B, p):
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, A, B, p)
        P = _ec_add(P, P, A, B, p)
        k >>= 1
    return R


def _stage1_point_order(sigma, p, b1):
    """Order mod p of the stage-1 point of Suyama's curve for sigma.

    Independent of arith: affine arithmetic, the point found by stepping
    through the Hasse interval, then cut down prime by prime.
    """
    u, v = (sigma * sigma - 5) % p, 4 * sigma % p
    x = pow(u, 3, p) * pow(v, -3, p) % p
    A = (pow(v - u, 3, p) * (3 * u + v) * pow(4 * pow(u, 3, p) * v, -1, p)
         - 2) % p
    B = (x ** 3 + A * x * x + x) % p  # puts (x, 1) on the curve
    Q = (x, 1)
    for q in sympy.primerange(2, b1 + 1):
        Q = _ec_mul(q ** sympy.integer_log(b1, q)[0], Q, A, B, p)
    N = p + 1 - 2 * math.isqrt(p) - 2
    R = _ec_mul(N, Q, A, B, p)
    while R is not None:
        R = _ec_add(R, Q, A, B, p)
        N += 1
    for r in sympy.factorint(N):
        while N % r == 0 and _ec_mul(N // r, Q, A, B, p) is None:
            N //= r
    return N


# (p, sigma): the stage-1 point's order mod p at B1 = 2000 is a prime
# in (B1, 100*B1], so only stage 2 can find p
STAGE2_ONLY = [(9000011, 6), (9000011, 9), (9000041, 8), (9000049, 8)]


@pytest.mark.parametrize("p,sigma", STAGE2_ONLY)
def test_ecm_stage2_finds_what_stage1_cannot(p, sigma):
    b1 = 2000
    order = _stage1_point_order(sigma, p, b1)
    assert b1 < max(sympy.factorint(order)) <= 100 * b1
    assert arith._ecm_curve(p * (2 ** 61 - 1), b1, sigma) == p


# (p, sigma): the stage-1 point's order mod p at B1 = 500 is a prime in
# (B1, 100*B1]. Stage 2 there runs at D = 420, where 727 is no longer a
# baby step, as it was at D = 2310, but the cell 2*420 - 113.
STAGE2_ONLY_500 = [(9000011, 6), (9000011, 7), (9000059, 9)]


@pytest.mark.parametrize("p,sigma", STAGE2_ONLY_500)
def test_ecm_stage2_at_the_first_rung_finds_what_stage1_cannot(p, sigma):
    b1 = 500
    order = _stage1_point_order(sigma, p, b1)
    assert sympy.isprime(order) and b1 < order <= 100 * b1
    assert arith._ecm_curve(p * (2 ** 61 - 1), b1, sigma) == p


def test_ecm_plan_sizes_d_to_b2():
    # the ramp's rungs, then the default policy's ecm_b1
    b2s = [arith._ECM_B2_RATIO * b1 for _, b1 in arith._ECM_RAMP]
    assert [arith._ecm_plan(b2)[0] for b2 in b2s] == [420, 1050, 2310]
    assert arith._ecm_plan(5_000_000)[0] == 4620
    d, baby = arith._ecm_plan(50_000)
    assert baby == tuple(j for j in range(1, d // 2)
                         if j % 2 and math.gcd(j, d) == 1)
    assert len(baby) == 48 and baby[-1] == 209


@pytest.mark.parametrize("b1,b2", [
    (500, 50_000), (2000, 200_000), (11_000, 1_100_000),
    (50_000, 5_000_000), (13, 97), (11, 1100), (100, 10_000),
    (1000, 3001)])
def test_ecm_stage2_rows_and_baby_steps_cover_each_prime(b1, b2):
    # each flagged cell m*D +- j holds a prime of (b1, b2], and each such
    # prime is in a flagged cell or is a baby step j itself
    d, baby = arith._ecm_plan(b2)
    top = b2 + d  # past the last cell
    prime = bytearray([1]) * top  # a plain sieve of Eratosthenes
    prime[:b1 + 1], prime[b2 + 1:] = bytes(b1 + 1), bytes(top - b2 - 1)
    for q in range(2, math.isqrt(top) + 1):
        prime[q * q::q] = bytes(len(range(q * q, top, q)))
    covered = bytearray(top)
    for m0, rows in arith._ecm_stage2_rows(b1, b2):
        for m, flags in enumerate(rows, m0):
            for j in itertools.compress(baby, flags):
                lo, hi = m * d - j, m * d + j
                assert prime[lo] or prime[hi], (m, j)
                covered[lo] = covered[hi] = 1
    for j in baby:
        covered[j] = 1
    assert not any(itertools.compress(prime, (1 - c for c in covered)))


# (p, sigma, b1): the stage-1 point is O mod p, so stage 1 alone finds p.
# At B1 = 50000 the stage-1 scalar is cut into pieces, and the start
# points' orders, 2**2*3*5*37501 and 2**2*3**2*31249, end in a late one.
STAGE1_SPLITS = [(9000011, 7, 2000), (9000011, 8, 2000), (9000041, 6, 2000),
                 (9000059, 9, 50000), (9000119, 7, 50000)]

# (p, sigma): the stage-1 point's order mod p at B1 = 2000 is a prime
# above 100*B1, past stage 2 as well
BEYOND_STAGE2 = [(9000049, 7), (9000059, 6), (9000067, 7)]


@pytest.mark.parametrize("p,sigma,b1", STAGE1_SPLITS)
def test_ecm_stage1_finds_points_of_smooth_order(monkeypatch, p, sigma, b1):
    assert _stage1_point_order(sigma, p, b1) == 1

    def no_stage2(*args):
        raise AssertionError("stage 2 ran")
    monkeypatch.setattr(arith, "_ecm_stage2_kept", no_stage2)
    monkeypatch.setattr(arith, "_ecm_stage2_rows", no_stage2)
    assert arith._ecm_curve(p * (2 ** 61 - 1), b1, sigma) == p


@pytest.mark.parametrize("p,sigma", BEYOND_STAGE2)
def test_ecm_misses_points_of_order_past_stage2(p, sigma):
    b1 = 2000
    order = _stage1_point_order(sigma, p, b1)
    assert max(sympy.factorint(order)) > 100 * b1
    assert arith._ecm_curve(p * (2 ** 61 - 1), b1, sigma) is None


@pytest.mark.parametrize("b1", [2, 2000, 2187, 50000])
def test_ecm_stage1_scalars_multiply_to_k(b1):
    pieces = arith._ecm_stage1_scalars(b1)
    assert math.prod(pieces) == math.prod(
        p ** sympy.integer_log(b1, p)[0] for p in sympy.primerange(2, b1 + 1))
    # each piece closes once it reaches the piece size, and each prime
    # power adds at most b1's bits
    assert all(k.bit_length() < arith._ECM_PIECE_BITS + b1.bit_length()
               for k in pieces)


# the four slowest cofactors of the level census to level 10 under rho
CENSUS_COFACTORS = [
    (836312735653, 1368845206580129),
    (539402497343, 1595326837717),
    (40530851701, 97272377313541),
    (127770091783, 4680225641471129),
]


@pytest.mark.parametrize("p,q", CENSUS_COFACTORS)
def test_factor_ecm_only_splits_census_cofactors(p, q):
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=0, ecm_b1=2000)
    fz = arith.factor(p * q, pol)
    assert fz.complete and fz.primes == (p, q)


@pytest.mark.parametrize("bits", range(24, 45, 4))
def test_default_policy_splits_factors_the_ramp_targets(bits, monkeypatch):
    # the short rho pass or the ramp's curves split each, never the long
    # rho pass behind them
    p, q = sympy.nextprime(3 << (bits - 2)), sympy.nextprime(1 << 63)
    budgets, rho = [], arith._rho_brent
    monkeypatch.setattr(arith, "_rho_brent", lambda n, iters, *args: (
        budgets.append(iters), rho(n, iters, *args))[1])
    fz = arith.factor(p * q)
    assert fz.complete and fz.primes == (p, q)
    assert budgets == [arith._RHO_SHORT]


def test_ecm_bounds_keep_half_the_curves_at_ecm_b1():
    def bounds(**kw):
        return list(arith._ecm_bounds(arith.EffortPolicy(**kw)))
    assert bounds() == [500] * 6 + [2000] * 19 + [50000] * 25
    assert bounds(ecm_curves=120) == ([500] * 6 + [2000] * 25 + [11000] * 29
                                      + [50000] * 60)
    assert bounds(ecm_curves=300) == ([500] * 6 + [2000] * 25 + [11000] * 90
                                      + [50000] * 179)
    assert bounds(ecm_curves=4, ecm_b1=5000) == [500, 500, 5000, 5000]
    assert bounds(ecm_curves=3, ecm_b1=1000) == [500, 1000, 1000]
    assert bounds(ecm_curves=1) == [50000]


def test_factor_without_curves_matches_rho_only_ladder(tmp_path):
    # results and cache lines as the rho-then-curves ladder wrote them
    pol = arith.EffortPolicy(trial_bound=100, rho_iterations=200_000,
                             ecm_curves=0)
    path = tmp_path / "cache.txt"
    cache = arith.FactorCache(str(path))
    got = [arith.factor(n, pol, cache) for n in (
        10000000019 * 10000000033,
        1000003 * 999999999989 * 1000000007,
        2 ** 101 - 1,
        998244353 * 1000000007 ** 2,
    )]
    assert [fz.factors for fz in got] == [
        ((10000000019, 1), (10000000033, 1)),
        ((1000003, 1), (1000000007, 1), (999999999989, 1)),
        (),
        ((998244353, 1), (1000000007, 2)),
    ]
    assert got[2].cofactor == 2 ** 101 - 1
    assert path.read_text().splitlines() == [
        "100000000520000000627=10000000019,10000000033",
        "1000003006989020966922999769=1000003,1000000006988999999923",
        "1000000006988999999923=1000000007,999999999989",
        "998244366975420990913973297=998244353,1000000014000000049",
    ]


def _seeded_semiprimes(bits):
    """32 pairs (p, q), p a random prime of ``bits`` <= 46 bits and q one
    of 100 - bits bits, so p*q has 100 bits, drawn by random.Random(bits)."""
    rng = random.Random(bits)

    def prime(size):
        while True:
            p = rng.getrandbits(size) | 1 << (size - 1) | 1
            while p.bit_length() == size:
                if arith.is_prime(p):
                    return p
                p += 2
    return [(prime(bits), prime(100 - bits)) for _ in range(32)]


def _curve_rounds(ns, b1):
    """(tries, splits) of rounds of one curve at B1 b1 on each of ns, the
    curve of round j with sigma 6 + j as the ladder numbers its curves,
    until a round brings the splits to 24, or for 8 rounds."""
    rounds = splits = 0
    while rounds < 8 and splits < 24:
        splits += sum(arith._ecm_curve(n, b1, 6 + rounds) is not None
                      for n in ns)
        rounds += 1
    return rounds * len(ns), splits


# (tries, splits) of the short rho pass at each budget and of the curves
# at each B1 on the seeded semiprimes of each size; B1 = 250 at 22 bits
# moved with stage 2's D (ladder 5)
LADDER_SPLITS = {
    20: {"rho": {1024: (32, 32), 2048: (32, 32), 4096: (32, 32)},
         "ecm": {250: (32, 29), 500: (32, 31), 1000: (32, 32),
                 2000: (32, 32)}},
    22: {"rho": {1024: (32, 23), 2048: (32, 32), 4096: (32, 32)},
         "ecm": {250: (64, 46)}},
}


def test_ladder_split_counts_on_seeded_semiprimes():
    for bits, cells in LADDER_SPLITS.items():
        pairs = _seeded_semiprimes(bits)
        for p, q in pairs:
            assert arith.is_prime(p) and arith.is_prime(q)
            assert (p.bit_length(), q.bit_length()) == (bits, 100 - bits)
        ns = [p * q for p, q in pairs]
        got = {"rho": {budget: (len(ns), sum(
            arith._rho_brent(n, budget, (1,)) is not None for n in ns))
            for budget in cells["rho"]},
            "ecm": {b1: _curve_rounds(ns, b1) for b1 in cells["ecm"]}}
        assert got == cells, bits


# modular helpers -------------------------------------------------------

@pytest.mark.parametrize("a,m,x", [(2, 5, 3), (35, 17, 1)])
def test_mod_inverse_examples(a, m, x):
    assert arith.mod_inverse(a, m) == x


def test_mod_inverse_not_invertible():
    with pytest.raises(arith.NotInvertible):
        arith.mod_inverse(4, 6)


@given(st.integers(min_value=2, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_mod_inverse_property(m, a):
    if math.gcd(a, m) != 1:
        with pytest.raises(arith.NotInvertible):
            arith.mod_inverse(a, m)
    else:
        x = arith.mod_inverse(a, m)
        assert 1 <= x < m and a * x % m == 1


# squarefree stream ------------------------------------------------------

def test_squarefree_stream_examples():
    got = dict(arith.squarefree_stream(2, 40, 3, 1))
    assert 30 in got and got[30].primes == (2, 3, 5)
    for bad in (12, 36, 35):
        assert bad not in got
    got = dict(arith.squarefree_stream(2, 2000, 3, 1806))
    assert 1290 not in got
    [(m, fz)] = list(arith.squarefree_stream(595, 595, 3, 1))
    assert m == 595 and fz.primes == (5, 7, 17)


def test_squarefree_stream_against_mobius():
    limit = 100_000
    mu = mobius_sieve(limit)
    expect = {n for n in range(2, limit + 1) if mu[n] != 0}
    got = {}
    for m, fz in arith.squarefree_stream(2, limit, 0, 1):
        got[m] = fz
    assert set(got) == expect
    # spot-check complete factorizations on a stride
    for m in range(2, limit + 1, 97):
        if m in got:
            assert got[m].factors == trial_factorization(m)
            assert got[m].squarefree


def test_squarefree_stream_min_omega_and_coprime():
    for m, fz in arith.squarefree_stream(2, 5000, 4, 15):
        assert fz.omega >= 4
        assert math.gcd(m, 15) == 1
        assert fz.product() == m


def check_stream(lo, hi, min_omega=0, coprime_to=1):
    """Both item kinds of the stream against trial division of every n."""
    expect = []
    for n in range(lo, hi + 1):
        facs = trial_factorization(n)
        if (all(e == 1 for _, e in facs) and len(facs) >= min_omega
                and math.gcd(n, coprime_to) == 1):
            expect.append((n, facs))
    full = list(arith.squarefree_stream(lo, hi, min_omega, coprime_to))
    lean = list(arith.squarefree_stream(lo, hi, min_omega, coprime_to,
                                        primes_only=True))
    assert [(m, fz.n, fz.factors, fz.cofactor) for m, fz in full] == \
        [(n, n, facs, 1) for n, facs in expect]
    assert lean == [(n, [p for p, _ in facs]) for n, facs in expect]
    return expect


def test_squarefree_stream_crosses_segment_boundary():
    # segments are 2^16 wide from lo, so the second starts at lo + 65536
    expect = check_stream(2, 2 + 65536 + 3000, 3)
    assert any(m >= 2 + 65536 for m, _ in expect)


@pytest.mark.parametrize("lo, hi, min_omega, coprime_to", [
    (2, 2 + 65536 + 3000, 0, 1),  # the second segment starts at 65538
    (2, 2 + 65536 + 3000, 3, 2 * 3 * 7 * 43),
    (10 ** 8, 10 ** 8 + 5000, 4, 15),
])
def test_squarefree_stream_smooth(lo, hi, min_omega, coprime_to):
    # smooth drops only moduli whose largest prime r has r^2 > m
    full = dict(arith.squarefree_stream(lo, hi, min_omega, coprime_to,
                                        primes_only=True))
    smooth = list(arith.squarefree_stream(lo, hi, min_omega, coprime_to,
                                          primes_only=True, smooth=True))
    assert all(full[m] == primes for m, primes in smooth)
    kept = [m for m, _ in smooth]
    assert kept == sorted(kept)
    assert set(kept) >= {m for m, primes in full.items()
                         if primes[-1] ** 2 < m}
    assert len(kept) < len(full)
    assert [(m, fz.primes) for m, fz in arith.squarefree_stream(
        lo, hi, min_omega, coprime_to, smooth=True)] == \
        [(m, tuple(primes)) for m, primes in smooth]


def test_squarefree_stream_one():
    assert check_stream(1, 1) == [(1, ())]
    assert check_stream(1, 1, 1) == []


def test_squarefree_stream_high_window():
    # above 1e8 most base primes exceed the 5000-wide segment
    check_stream(10 ** 8, 10 ** 8 + 5000)


def test_squarefree_stream_large_cofactor():
    # 6p and 30p reach the minimum omega only through the cofactor p,
    # a prime above the square root of hi
    for m in (6 * 1009, 6 * 65537, 30 * 99991):
        assert check_stream(m, m, 3) == [(m, trial_factorization(m))]
    expect = check_stream(6000, 6100, 3)
    assert (6 * 1009, ((2, 1), (3, 1), (1009, 1))) in expect


def test_squarefree_stream_coprime_filter():
    expect = check_stream(2, 20000, 3, 2 * 3 * 7 * 43)
    assert expect and all(p not in (2, 3, 7, 43)
                          for _, facs in expect for p, _ in facs)
