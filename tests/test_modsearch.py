"""Tests for the bounded-modulus pair search and its brute-force oracle."""

import hashlib
import itertools
import math
import multiprocessing
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgraph import arith
from emgraph import modsearch as ms
from emgraph import tuples as tp
from emgraph.arith import NotSquarefree, Factorization, factor, squarefree_stream
from emgraph.graph import verify_path

from table_data import COPRIME_ROWS


def residues_of(records):
    return {rc.a for r in records for rc in r.residues}


# search_modulus -----------------------------------------------------------

def test_search_modulus_30():
    recs = ms.search_modulus(30, factor(30))
    assert len(recs) == 2
    assert [(r.p.primes, r.q.primes) for r in recs] == \
        [((2, 3, 5), (5, 3, 2)), ((3, 2, 5), (5, 2, 3))]
    assert residues_of(recs) == {19, 29}


def test_search_modulus_small_omega_empty():
    assert ms.search_modulus(6, factor(6)) == []
    assert ms.search_modulus(105, factor(105)) == []


def test_search_modulus_210():
    recs = ms.search_modulus(210, factor(210))
    assert residues_of(recs) == {107, 149}
    assert all(r.kind == "quadruple-case-II" for r in recs)


def test_search_modulus_858():
    recs = ms.search_modulus(858, factor(858))
    assert residues_of(recs) == {467, 779, 571, 857}
    kinds = sorted(r.kind for r in recs)
    assert kinds == ["quadruple-case-I", "quadruple-case-I",
                     "quadruple-case-IV", "quadruple-case-IV"]


def test_search_modulus_validation():
    with pytest.raises(NotSquarefree):
        ms.search_modulus(12, factor(12))
    partial = Factorization(2813785 * 4294967311,
                            ((5, 1),), 2813785 * 4294967311 // 5)
    with pytest.raises(ms.IncompleteFactorization):
        ms.search_modulus(partial.n, partial)


def test_search_records_verify():
    for m in (30, 210, 546, 858, 1722, 4930, 5590, 6882):
        for rec in ms.search_modulus(m, factor(m)):
            assert tp.equivalent(rec.p.primes, rec.q.primes)
            assert tp.is_irreducible_pair(rec.p.primes, rec.q.primes)
            a = rec.a
            assert verify_path(a, rec.p.primes)
            assert verify_path(a, rec.q.primes)


def test_record_surface_the_benchmark_reads():
    # perfbench's workloads read these attributes of pair records
    line = ('{"kind":"triple","modulus":"30","p":["2","3","5"],'
            '"q":["5","3","2"],"residues":["19"]}')
    rec = tp.PairRecord.from_json_line(line)
    assert rec.p.primes == (2, 3, 5) and rec.q.primes == (5, 3, 2)
    assert rec.residues == (tp.ResidueClass(19, 30),)
    recs = ms.brute_force_pairs(30, factor(30), irreducible_only=True)
    assert [r.residues[0].a for r in recs] == [r.a for r in recs] == [19, 29]


# brute force oracle ---------------------------------------------------------

def test_brute_force_examples():
    assert ms.brute_force_pairs(105, factor(105)) == []
    recs = ms.brute_force_pairs(30, factor(30))
    assert recs == ms.search_modulus(30, factor(30))


def test_one_search_mode():
    # the search and its oracle list irreducible pairs only, and the
    # keyword that names that mode takes no other value
    with pytest.raises(ValueError, match="irreducible pairs only"):
        ms.SearchConfig(2, 100, irreducible_only=False)
    with pytest.raises(ValueError, match="irreducible pairs only"):
        ms.brute_force_pairs(30, factor(30), irreducible_only=False)


def test_brute_force_guard():
    m = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    with pytest.raises(ms.TooManyFactors):
        ms.brute_force_pairs(m, factor(m))


@pytest.mark.parametrize("row", COPRIME_ROWS[:6])
def test_brute_force_coprime_rows(row, request):
    prime_set, m, residues, inv_density = row
    fz = factor(m)
    assert fz.primes == tuple(sorted(prime_set))
    recs = ms.brute_force_pairs(m, fz)
    assert residues_of(recs) == set(residues)
    rep = ms.density_report(recs)
    assert rep.inverse_density == inv_density


def test_oracle_pinned_outputs():
    # perfbench's walk watches the classes of the coprime-table moduli and
    # counts on 42 of them
    classes = {rc for _, m, _, _ in COPRIME_ROWS
               for r in ms.brute_force_pairs(m, factor(m))
               for rc in r.residues}
    assert len(COPRIME_ROWS) == 18 and len(classes) == 42
    fz = factor(9699690)
    recs = ms.brute_force_pairs(9699690, fz)
    assert len(recs) == 102 and recs == ms.search_modulus(9699690, fz)


def test_oracle_equivalence_sampled():
    for m, fz in squarefree_stream(2, 6000, 3):
        assert ms.search_modulus(m, fz) == ms.brute_force_pairs(m, fz), m


@given(st.integers(min_value=6000, max_value=99999))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_random(m):
    entries = list(squarefree_stream(m, m, 3))
    if not entries:
        return
    m, fz = entries[0]
    assert ms.search_modulus(m, fz) == ms.brute_force_pairs(m, fz)


@pytest.mark.parametrize("m", [510510, 570570, 9699690,
                               500439030, 500982690])
def test_oracle_equivalence_deep_chains(m):
    # nothing below 1e5 has 7+ prime factors, so exercise those chain
    # depths explicitly against the permutation oracle; in the last two
    # (k = 8, largest primes 263 and 97) the walk's field test rejects
    # 2116 of the 2146 pairs in 1718 classes of two or more codes and
    # 1220 of the 1238 pairs in 1234 such classes
    fz = factor(m)
    assert fz.omega >= 7
    assert ms.search_modulus(m, fz) == ms.brute_force_pairs(m, fz)


def _prefix_code(perm, primes):
    # by definition: the mask of perm's first i primes in the k-bit field
    # i - 1, for each proper prefix
    k = len(primes)
    code = mask = 0
    for i, p in enumerate(perm[:-1]):
        mask |= 1 << primes.index(p)
        code |= mask << i * k
    return code


def _pairs_sharing_one_prefix(primes, depth, rng, count):
    # pairs of orderings whose prefixes of length ``depth`` are one set and
    # whose other proper prefixes all differ
    k = len(primes)
    out = []
    while len(out) < count:
        P, Q = rng.sample(primes, k), rng.sample(primes, k)
        if set(P[:depth]) == set(Q[:depth]) and not any(
                set(P[:i]) == set(Q[:i]) for i in range(1, k) if i != depth):
            out.append((P, Q))
    return out


def test_prefix_codes_against_the_definition():
    # the walk's field test on the XOR of two codes says whether the two
    # orderings share no proper prefix product; every pair for k <= 5,
    # 2000 seeded pairs for k = 6..10, among them 100 that share only the
    # first and 100 that share only the last proper prefix
    rng = random.Random(33)
    for k in range(1, 11):
        primes = arith.sieve_primes(29)[:k]
        irreducible, ordering = ms._codec(primes)
        if k <= 6:
            code = {P: _prefix_code(P, primes)
                    for P in itertools.permutations(primes)}
            assert all(ordering(c) == P for P, c in code.items())
        if k <= 5:
            pairs = list(itertools.product(code, repeat=2))
        else:
            pairs = [(rng.sample(primes, k), rng.sample(primes, k))
                     for _ in range(1800)]
            pairs += _pairs_sharing_one_prefix(primes, 1, rng, 100)
            pairs += _pairs_sharing_one_prefix(primes, k - 1, rng, 100)
        for P, Q in pairs:
            z = _prefix_code(P, primes) ^ _prefix_code(Q, primes)
            assert irreducible(z) == (not tp._share_proper_prefix(P, Q))


@pytest.mark.parametrize("count, digest", [
    (668, "5aa6dc919bf09a0c1819c206aedc93eadbaa07ee27f27bb6c6a5713d9cd21d62"),
], ids=["irreducible"])
def test_nine_primes_pinned(count, digest):
    # the oracle stops at omega 8; count and sha256 of the JSONL records
    # of the product of the first nine primes are pinned instead
    m = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    recs = ms.search_modulus(m, factor(m))
    assert len(recs) == count
    text = "".join(r.to_json_line() + "\n" for r in recs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert all(tp.is_irreducible_pair(r.p.primes, r.q.primes) for r in recs)


def test_search_modulus_checks_primes():
    # records are built from the primes of the factorization unchecked,
    # after one check of those primes per modulus
    fz = Factorization(270, ((2, 1), (3, 1), (5, 1), (9, 1)))
    assert ms._pair_search(270, fz.primes)
    with pytest.raises(ValueError, match="9 is not prime"):
        ms.search_modulus(270, fz)


@pytest.mark.parametrize("lo, hi", [(10 ** 8, 10 ** 8 + 3000), (2, 60000)],
                         ids=["irr-100000000-100003000", "irr-2-60000"])
def test_search_chunk_matches_search_modulus(lo, hi):
    # the range driver takes plain prime lists from the stream; its
    # records must be those of search_modulus on the Factorization items
    expect = [rec for m, fz in squarefree_stream(lo, hi, 3)
              for rec in ms.search_modulus(m, fz)]
    assert ms._search_chunk((lo, hi, 3, 1)) == expect


def test_search_chunk_builds_no_factorization(monkeypatch):
    expect = ms._search_chunk((2, 20000, 3, 1))
    assert expect

    def refuse(*args, **kwargs):
        raise AssertionError("a Factorization was built per modulus")

    monkeypatch.setattr(arith, "Factorization", refuse)
    assert ms._search_chunk((2, 20000, 3, 1)) == expect


# collision filter -----------------------------------------------------------

def test_oracle_equivalence_high_window():
    # above 1e8 the primes are large enough that the filter decides most
    # moduli, unlike below 1e5 where 2^(k-1) often exceeds a prime
    rejected = set()
    for m, fz in squarefree_stream(10 ** 8, 10 ** 8 + 3000, 3):
        if fz.omega > 7:
            continue
        assert ms.search_modulus(m, fz) == ms.brute_force_pairs(m, fz), m
        if ms._collision_tables(fz.primes) is None:
            rejected.add(fz.omega)
    assert rejected >= {3, 4, 5}


def test_collision_lemma_on_coprime_rows():
    # each prime of an irreducible pair has distinct predecessor sets S, T
    # in P and Q with equal products mod the prime
    for _, m, _, _ in COPRIME_ROWS:
        recs = ms.brute_force_pairs(m, factor(m))
        assert recs
        for r in recs:
            P, Q = r.p.primes, r.q.primes
            for p in P:
                S, T = P[:P.index(p)], Q[:Q.index(p)]
                assert set(S) != set(T)
                assert math.prod(S) % p == math.prod(T) % p
            assert ms._collision_tables(sorted(P)) is not None


@pytest.mark.parametrize("lo, hi", [(2, 4 * 65536 + 1),
                                    (10 ** 8, 10 ** 8 + 3000)])
def test_largest_prime_lemma(lo, hi):
    # the largest prime r of m = n*r divides a nonzero difference of two
    # subset products of n's primes, so r < n: with r^2 > m the filter
    # always finds r collision-free
    above = 0
    for m, primes in squarefree_stream(lo, hi, primes_only=True):
        if primes[-1] ** 2 > m:
            above += 1
            assert ms._collision_tables(primes) is None, m
    assert above > (hi - lo) // 4


@pytest.mark.parametrize("lo, hi", [(2, 2 * 10 ** 5),
                                    (10 ** 8, 10 ** 8 + 3000)])
def test_generator_covers_what_the_filter_passes(lo, hi):
    generated = [math.prod(ps) * r for ps, rs in
                 ms._largest_prime_candidates(lo, hi, 3, 1) for r in rs]
    assert len(generated) == len(set(generated))
    assert all(lo <= m <= hi for m in generated)
    passed = {m for m, primes in squarefree_stream(lo, hi, 3,
                                                   primes_only=True)
              if ms._collision_tables(primes) is not None}
    assert passed and passed <= set(generated)


def test_generator_emits_primes_in_order():
    for ps, rs in ms._largest_prime_candidates(2, 10 ** 5, 4, 1806):
        assert len(ps) >= 3 and list(ps) == sorted(ps) and rs == sorted(rs)
        assert ps[-1] < rs[0] and rs[-1] < math.prod(ps)
        assert all(math.gcd(p, 1806) == 1 for p in (*ps, *rs))
        assert factor(math.prod(ps) * rs[-1]).primes == (*ps, rs[-1])


def test_collision_tables_match_definition():
    # 4930 = 2*5*17*29; the others pass the filter, k = 5, 5, 6 and 6, and
    # 1006005 has irreducible pairs; digit[b][s] is p_b's digit of the
    # class key after the primes of s
    for m in (4930, 1000246, 1001455, 1000110, 1006005):
        primes = factor(m).primes
        k = len(primes)
        value = [math.prod(primes[b] for b in range(k) if mask >> b & 1)
                 for mask in range(1 << k)]
        exact, allow, digit = ms._collision_tables(primes)
        for b, p in enumerate(primes):
            others = [s for s in range(1 << k) if not s >> b & 1]
            weight = math.prod(primes[:b])
            assert len(digit[b]) == 1 << k, m
            for s in others:
                assert digit[b][s] == value[s] % p * weight, m
            collides = {s for s in others
                        if any(t != s and (value[t] - value[s]) % p == 0
                               for t in others)}
            for used in range(1 << k):
                assert bool(exact[used] >> b & 1) == (used in collides), m
                assert bool(allow[used] >> b & 1) == \
                    any(s & used == used for s in collides), m


@pytest.mark.parametrize("lo, hi", [(2, 20000), (10 ** 8, 10 ** 8 + 3000)])
def test_collision_tables_reject_exactly_the_collision_free(lo, hi):
    # None exactly when some prime sees the products of all subsets of the
    # other primes pairwise distinct mod p, listed here by combinations
    seen = set()
    for m, primes in squarefree_stream(lo, hi, 3, primes_only=True):
        free = False
        for p in primes:
            others = [q for q in primes if q != p]
            prods = [math.prod(s) % p for n in range(len(others) + 1)
                     for s in itertools.combinations(others, n)]
            free = free or len(set(prods)) == len(prods)
        assert (ms._collision_tables(primes) is None) == free, m
        seen.add(free)
    assert seen == {False, True}


def test_lemma_skips_the_filter(monkeypatch):
    # with P(m)^2 > m the search answers before the filter; the chunk's
    # stream drops every such m of this window, so the full stream is
    # searched too
    lo, hi = 10 ** 8, 10 ** 8 + 3000
    expect = ms._search_chunk((lo, hi, 3, 1))
    moduli = list(squarefree_stream(lo, hi, 3, primes_only=True))
    assert any(primes[-1] ** 2 > m for m, primes in moduli)
    pairs = [ms._pair_search(m, primes) for m, primes in moduli]
    filter_ = ms._collision_tables

    def guarded(primes):
        assert primes[-1] ** 2 < math.prod(primes), primes
        return filter_(primes)

    monkeypatch.setattr(ms, "_collision_tables", guarded)
    assert ms._search_chunk((lo, hi, 3, 1)) == expect
    assert [ms._pair_search(m, primes) for m, primes in moduli] == pairs


@pytest.mark.parametrize("lo, digest", [
    (10 ** 8,
     "1e799dc65723ae85f6e6ccf1be83e6d974842f046757d6a3a96242c488b0a46d"),
    # the search finds no pair above 10^8 in 20000, but 34 on 3 moduli
    # above 10^6
    (10 ** 6,
     "53d0af209f3ebaedd5938fa23c5c47e7043dbdb48791b9470c4eca47f21fa4d6"),
], ids=["1e8-irr", "1e6-irr"])
def test_pair_search_pinned(lo, digest):
    # sha256 of one line "m [pairs]" per squarefree modulus with k >= 3
    text = "".join(f"{m} {ms._pair_search(m, primes)}\n"
                   for m, primes in squarefree_stream(lo, lo + 20000, 3,
                                                      primes_only=True))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# polynomial families -------------------------------------------------------

def test_generate_prime_triples():
    recs = list(ms.generate_prime_triples(2))
    assert sorted(r.modulus for r in recs) == [30, 595]
    recs = list(ms.generate_prime_triples(14))
    assert any(r.p.primes == (211, 197, 2969) for r in recs)
    assert list(ms.generate_prime_triples(0)) == []
    for r in recs:
        assert r.kind == "triple"
        assert tp.is_irreducible_pair(r.p.primes, r.q.primes)


def test_manypairs_modes():
    recs = list(ms.manypairs_generator(1, 2, "A"))
    assert any(r.modulus == 595 for r in recs)
    assert all(r.modulus != 595 for r in ms.manypairs_generator(595, 2, "A"))
    assert any(r.modulus == 30 for r in ms.manypairs_generator(2, 2, "B"))
    for r in ms.manypairs_generator(1, 25, "A"):
        assert tp.is_irreducible_pair(r.p.primes, r.q.primes)
        assert tp.equivalent(r.p.primes, r.q.primes)
    for r in ms.manypairs_generator(6, 25, "B"):
        assert tp.is_irreducible_pair(r.p.primes, r.q.primes)
        assert r.modulus % 6 == 0


def test_manypairs_raises_on_a_block_the_policy_cannot_factor():
    # only the family's filters skip an x; an unfactored block is an error
    weak = arith.EffortPolicy(trial_bound=0, rho_iterations=0, ecm_curves=0)
    with pytest.raises(ValueError, match="could not factor block 169511"):
        list(ms.manypairs_generator(1, 400, "A", weak))


# cubic triples, then f(x) and g(x) for each q and mode, up to x = 150
FAMILY_RUNS = [(1, "A"), (595, "A"), (7, "A"), (2, "B"), (6, "B"), (30, "B")]


def test_family_records_pinned():
    lines = [r.to_json_line() + "\n" for r in ms.generate_prime_triples(3000)]
    assert len(lines) == 11
    for q, mode in FAMILY_RUNS:
        lines += [r.to_json_line() + "\n"
                  for r in ms.manypairs_generator(q, 150, mode)]
    assert len(lines) == 368
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "7735f295e3602162356a1dae68dc17b3e16fc301392845f386bf29e870e6458b")


# density -------------------------------------------------------------------

def test_density_examples():
    recs = ms.search_modulus(30, factor(30))
    rep = ms.density_report(recs)
    assert rep == ms.DensityReport(30, 2, 4)


def test_density_858():
    recs = ms.search_modulus(858, factor(858))
    rep = ms.density_report(recs)
    assert rep.class_count == 4
    assert rep.inverse_density == 60


def test_density_reduced_fraction():
    base = ms.search_modulus(30, factor(30))
    extra = tp.PairRecord(base[0].p, base[0].q, 1, "general")
    rep = ms.density_report(base + [extra])
    assert rep.class_count == 3
    assert rep.inverse_density == Fraction(8, 3)


# search_range ---------------------------------------------------------------

def test_search_range_examples():
    cfg = ms.SearchConfig(2, 10_000)
    recs = list(ms.search_range(cfg))
    by_modulus = {}
    for r in recs:
        by_modulus.setdefault(r.modulus, []).append(r)
    # every tabulated modulus below 1e4 shows up; longer-tuple families
    # (2310, 2730, ...) are additional legitimate finds
    assert set(by_modulus) >= {30, 210, 546, 595, 858, 1254, 1722,
                               4930, 5590, 6882}
    assert len(by_modulus[30]) == 2
    assert len(by_modulus[210]) == 2
    assert len(by_modulus[1722]) == 4
    assert min(by_modulus) == 30
    # ordered by modulus
    mods = [r.modulus for r in recs]
    assert mods == sorted(mods)


def test_search_range_empty_below_30():
    assert list(ms.search_range(ms.SearchConfig(2, 29))) == []


def test_search_range_coprime_filter():
    cfg = ms.SearchConfig(2, 10 ** 6, coprime_to=1806)
    assert list(ms.search_range(cfg)) == []


def _stub_pool(sizes, pooled):
    """Patch in a pool that searches in this process, when a result is
    read, and records its size and the start of each chunk handed to it."""
    class StubPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, func, args):
            pooled.append(args[0][0])
            return mock.Mock(get=lambda: func(*args))

    return mock.patch.object(ms.multiprocessing, "Pool", StubPool)


def test_search_range_worker_invariance():
    for generate in (True, False):
        with _on_path(generate):
            sizes, pooled = [], []
            with _stub_pool(sizes, pooled):  # one worker starts no pool
                base = list(ms.search_range(ms.SearchConfig(2, 300_000)))
            assert sizes == pooled == []
            assert list(ms.search_range(ms.SearchConfig(
                2, 300_000, worker_count=3))) == base
            # [2, 200000] is 4 chunks and [2, 300000] 5, counts that the
            # workers do not divide; the caller searches every N-th chunk
            # and a pool of N - 1 processes the others
            for hi, n in ((200_000, 3), (300_000, 2), (300_000, 3)):
                sizes, pooled = [], []
                with _stub_pool(sizes, pooled):
                    assert list(ms.search_range(ms.SearchConfig(
                        2, hi, worker_count=n))) == [r for r in base
                                                     if r.modulus <= hi]
                assert sizes == [n - 1]
                assert pooled == [s for i, s in enumerate(range(2, hi, 65536))
                                  if i % n]
    # N is min(workers, chunks), and a job of one chunk starts no pool
    sizes = []
    with _stub_pool(sizes, []):
        assert list(ms.search_range(ms.SearchConfig(
            2, 200_000, worker_count=64))) == [r for r in base
                                               if r.modulus <= 200_000]
        one = ms.SearchConfig(2, 100, worker_count=64)
        assert list(ms.search_range(one)) == [r for r in base
                                               if r.modulus <= 100]
    assert sizes == [3]


@pytest.mark.parametrize("failing", [1, 2])
def test_search_range_chunk_error(tmp_path, failing):
    # on two workers the pool searches chunk 1 and the caller chunk 2; a
    # chunk of two items cannot be unpacked, so it raises where it is
    # searched
    cfg = ms.SearchConfig(2, 300_000, worker_count=2)
    full = list(ms.search_range(cfg))
    chunks = ms._candidate_chunks

    def broken(cfg, bounds):
        for i, args in enumerate(chunks(cfg, bounds)):
            yield args[:2] if i == failing else args

    ck, head = str(tmp_path / "ck"), []
    with _on_path(True), mock.patch.object(ms, "_candidate_chunks", broken):
        with pytest.raises(ValueError, match="not enough values"):
            for rec in ms.search_range(cfg, checkpoint=ck):
                head.append(rec)
    end = 1 + failing * 65536
    assert ms.read_checkpoint(ck) == (end, len(head))
    assert head == [r for r in full if r.modulus <= end]
    assert multiprocessing.active_children() == []


def _on_path(generate):
    """Force the range search's source of moduli, for one block."""
    return mock.patch.object(ms, "_generates_candidates",
                             lambda cfg: generate)


def test_generator_path_rule():
    # wide ranges generate; windows sieve
    assert ms._generates_candidates(ms.SearchConfig(2, 4 * 65536 + 1))
    assert ms._generates_candidates(ms.SearchConfig(10 ** 8, 2 * 10 ** 8))
    assert not ms._generates_candidates(ms.SearchConfig(10 ** 8,
                                                        10 ** 8 + 4999))


@given(st.integers(2, 150_000), st.integers(0, 150_000),
       st.sampled_from([3, 5]), st.sampled_from([1, 1806]))
@settings(max_examples=25, deadline=None)
def test_search_range_same_records_on_both_paths(lo, width, min_k,
                                                  coprime_to):
    cfg = ms.SearchConfig(lo, lo + width, min_k, coprime_to)
    with _on_path(True):
        generated = list(ms.search_range(cfg))
    with _on_path(False):
        sieved = list(ms.search_range(cfg))
    assert generated == sieved


def test_search_range_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "resume.txt")
    assert ms._generates_candidates(ms.SearchConfig(2, 140_000))
    full = list(ms.search_range(ms.SearchConfig(2, 140_000)))
    first = []
    gen = ms.search_range(ms.SearchConfig(2, 140_000), checkpoint=ck)
    for rec in gen:
        first.append(rec)
        if rec.modulus > 70_000:
            gen.close()
            break
    state = ms.read_checkpoint(ck)
    assert state is not None and state[0] < 140_000
    count = state[1]
    assert 0 < count < len(first)  # the interrupted chunk is searched again
    rest = list(ms.search_range(ms.SearchConfig(2, 140_000), checkpoint=ck))
    assert first[:count] + rest == full
    # a finished job resumes to nothing
    assert list(ms.search_range(ms.SearchConfig(2, 140_000),
                                checkpoint=ck)) == []


@pytest.mark.parametrize("first, then", [(False, True), (True, False)])
def test_resume_across_paths(tmp_path, first, then):
    # a checkpoint marks chunk ends, which both paths share
    cfg = ms.SearchConfig(30_000, 300_000, min_k=4, worker_count=2)
    ck = str(tmp_path / "ck")
    full = list(ms.search_range(cfg))
    with _on_path(first):
        gen = ms.search_range(cfg, checkpoint=ck)
        head = [rec for rec in itertools.takewhile(
            lambda rec: rec.modulus < 200_000, gen)]
        gen.close()
    last, count = ms.read_checkpoint(ck)
    assert (last - cfg.lo + 1) % 65536 == 0 and 0 < count <= len(head)
    with _on_path(then):
        rest = list(ms.search_range(cfg, checkpoint=ck))
    assert head[:count] + rest == full


def test_checkpoint_validation(tmp_path):
    ck = tmp_path / "ck"
    assert ms.read_checkpoint(str(ck)) is None
    for text in ("", "12\n", "12 3 4\n", "12 x\n", "12 -1\n"):
        ck.write_text(text)
        with pytest.raises(ValueError):
            ms.read_checkpoint(str(ck))
    # a chunk end outside [lo, hi] belongs to another job
    ck.write_text("3000 40\n")
    assert ms.resume_point(ms.SearchConfig(2, 3000), str(ck)) == (3001, 40)
    for cfg in (ms.SearchConfig(2, 1000), ms.SearchConfig(3001, 5000)):
        with pytest.raises(ValueError):
            ms.resume_point(cfg, str(ck))
    # inside [lo, hi] but not one of the job's chunk ends: another job
    ck.write_text("65537 271\n")
    assert ms.resume_point(ms.SearchConfig(2, 140_000), str(ck)) == (65538,
                                                                     271)
    with pytest.raises(ValueError):
        ms.resume_point(ms.SearchConfig(10_000, 140_000), str(ck))


@pytest.mark.parametrize("generate", [True, False])
@pytest.mark.parametrize("lo, hi", [(0, 100_000), (-5, 300_000)])
def test_search_range_rejects_lo_below_one(generate, lo, hi):
    # the generator has no lower limit of its own, so the check cannot be
    # left to the sieve
    with _on_path(generate), pytest.raises(ValueError, match="1 <= lo"):
        list(ms.search_range(ms.SearchConfig(lo, hi)))


def test_search_config_validation():
    with pytest.raises(ValueError):
        ms.SearchConfig(10, 5)
    with pytest.raises(ValueError):
        ms.SearchConfig(2, 10, min_k=2)
