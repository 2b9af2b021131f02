"""Tests for primality, factoring, CRT, and the squarefree sieve."""

import math
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


def test_crt_examples():
    assert arith.crt([(1, 2), (1, 3), (4, 5)]) == (19, 30)
    assert arith.crt([(0, 7)]) == (0, 7)
    with pytest.raises(arith.ModuliNotCoprime):
        arith.crt([(1, 4), (3, 6)])


@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1,
                max_size=6),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_crt_property(residues, skip):
    # build pairwise coprime moduli from distinct primes
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29][skip:]
    congruences = [(r % p, p) for r, p in zip(residues, pool)]
    r, M = arith.crt(congruences)
    assert 0 <= r < M
    assert M == math.prod(p for _, p in congruences)
    for res, mod in congruences:
        assert r % mod == res


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
