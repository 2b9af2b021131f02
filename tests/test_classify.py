"""Tests for triple/quadruple classification and parametric generation."""

import itertools
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emgraph import classify as cf
from emgraph import tuples as tp
from emgraph.arith import factor, sieve_primes

from table_data import TRIPLE_ROWS, QUADRUPLE_ROWS

PRIMES_50 = sieve_primes(50)


def satisfies_triple_system(p1, p2, p3):
    return cf._witness_of(p1, p2, p3) is not None


# triples ----------------------------------------------------------------

def test_is_multiple_triple_examples():
    assert cf.is_multiple_triple(2, 3, 5)
    assert cf.is_multiple_triple(7, 5, 17)
    assert not cf.is_multiple_triple(3, 5, 2)


@pytest.mark.parametrize("row", TRIPLE_ROWS)
def test_triple_rows_satisfy_criterion(row):
    (p1, p2, p3), _, _ = row
    assert cf.is_multiple_triple(p1, p2, p3)
    assert tp.multiplicity((p1, p2, p3)) == 2


def test_triple_criterion_matches_multiplicity():
    for combo in itertools.permutations(PRIMES_50[:10], 3):
        expected = tp.multiplicity(combo) > 1
        assert cf.is_multiple_triple(*combo) == expected, combo


# quadruples ---------------------------------------------------------------

@pytest.mark.parametrize("row", QUADRUPLE_ROWS)
def test_quadruple_rows_match_case(row):
    primes, _, _, case = row
    qc = cf.quadruple_case(*primes)
    assert qc is not None and qc.case == case


def test_quadruple_case_examples():
    qc = cf.quadruple_case(2, 5, 7, 3)
    assert qc.case == "II"
    assert qc.classes == (((2, 5, 7, 3), (3, 7, 2, 5)),
                          ((3, 7, 5, 2), (5, 2, 7, 3)))
    qc = cf.quadruple_case(11, 3, 2, 13)
    assert qc.case == "IV"
    assert qc.classes == (((11, 3, 2, 13), (13, 2, 3, 11)),)
    assert cf.quadruple_case(2, 3, 5, 7) is None


def test_quadruple_case_agrees_with_multiplicity():
    # wherever a case matches, every emitted class member has
    # multiplicity exactly two, and the class members are equivalent;
    # exhaustive over all primes below 50
    hits = 0
    for combo in itertools.combinations(PRIMES_50, 4):
        for perm in itertools.permutations(combo):
            qc = cf.quadruple_case(*perm)
            if qc is None:
                continue
            hits += 1
            for cls in qc.classes:
                assert tp.equivalent(cls[0], cls[1])
                for member in cls:
                    assert tp.multiplicity(member) == 2
    assert hits > 0


def test_case_iv_reversal_is_case_iv():
    # a case-IV system is reversal-invariant: the reversal of a case-IV
    # tuple is in case IV, with the one class it shares
    for primes, _, _, case in QUADRUPLE_ROWS:
        if case != "IV":
            continue
        rev = tuple(reversed(primes))
        qc, qr = cf.quadruple_case(*primes), cf.quadruple_case(*rev)
        assert qc.case == qr.case == "IV"
        assert set(qc.classes[0]) == set(qr.classes[0]) == {primes, rev}


def test_quadruple_case_of_pair():
    assert cf.quadruple_case_of_pair((2, 5, 7, 3), (3, 7, 2, 5)) == "II"
    assert cf.quadruple_case_of_pair((11, 3, 2, 13), (13, 2, 3, 11)) == "IV"
    assert cf.quadruple_case_of_pair((2, 3, 5, 7), (7, 5, 3, 2)) is None
    assert cf.quadruple_case_of_pair((2, 3, 5), (5, 3, 2)) is None


def test_quadruple_case_rejects_repeated_entry():
    with pytest.raises(ValueError):
        cf.quadruple_case(2, 2, 3, 5)


# The paper's four congruence systems, one per case, each with the classes
# it gives: an oracle independent of the residue-class test.
def congruence_case(a, b, c, d):
    systems = (
        ("I", (d - 1) % a == 0 and (c * (a * b + d) - 1) % (b * d) == 0
         and (b - d) % c == 0,
         (((a, b, c, d), (d, a, c, b)), ((d, c, b, a), (b, c, a, d)))),
        ("II", (c * (a * b + d) - 1) % (a * b * d) == 0
         and (a * b - d) % c == 0,
         (((a, b, c, d), (d, c, a, b)), ((d, c, b, a), (b, a, c, d)))),
        ("III", ((a + d) * b * c - 1) % (a * d) == 0
         and (a - d) % (b * c) == 0,
         (((a, b, c, d), (d, b, c, a)), ((d, c, b, a), (a, c, b, d)))),
        ("IV", ((a + d) * b * c - 1) % (a * d) == 0
         and (a - c * d) % b == 0 and (a * b - d) % c == 0,
         (((a, b, c, d), (d, c, b, a)),)),
    )
    for case, holds, classes in systems:
        if holds:
            return case, classes
    return None


def congruence_case_of_pair(P, Q):
    # scan the 24 orderings of the primes through the congruence systems
    for T in itertools.permutations(sorted(P)):
        hit = congruence_case(*T)
        if hit and any(set(cls) == {tuple(P), tuple(Q)} for cls in hit[1]):
            return hit[0]
    return None


def test_quadruple_case_matches_congruence_systems():
    hits = 0
    for combo in itertools.combinations(sieve_primes(60), 4):
        for T in itertools.permutations(combo):
            qc = cf.quadruple_case(*T)
            expected = congruence_case(*T)
            assert (qc and (qc.case, qc.classes)) == expected, T
            hits += expected is not None
    assert hits == 28


def test_quadruple_case_of_pair_matches_ordering_scan():
    pairs = tagged = 0
    for combo in itertools.combinations(sieve_primes(100), 4):
        by_class = {}
        for T in itertools.permutations(combo):
            by_class.setdefault(tp.residue_base(T), []).append(T)
        for members in by_class.values():
            for P, Q in itertools.permutations(members, 2):
                tag = cf.quadruple_case_of_pair(P, Q)
                assert tag == congruence_case_of_pair(P, Q), (P, Q)
                pairs += 1
                tagged += tag is not None
    assert (pairs, tagged) == (312, 48)


# Fibonacci machinery -----------------------------------------------------

def test_fib_poly_examples():
    assert cf.fib_poly(0, 9) == 0
    assert cf.fib_poly(3, 2) == 5
    assert cf.fib_poly(-3, 2) == 5


def test_fib_identities_exact():
    for n in range(-20, 21):
        for x in range(-20, 21):
            f_prev = cf.fib_poly(n - 1, x)
            f = cf.fib_poly(n, x)
            f_next = cf.fib_poly(n + 1, x)
            sign = 1 if n % 2 == 0 else -1
            assert f_next * f_prev == f * f + sign
            assert f_next ** 2 - f ** 2 == x * f * f_next + sign
            assert cf.fib_poly(-n, x) == cf.fib_poly(n, -x)


def test_parametric_examples():
    t, _ = cf.parametric_triple(cf.ParametricLine(1, 3, 2, 1))
    assert t == (7, 5, 17)
    t, _ = cf.parametric_triple(cf.ParametricLine(1, 3, 14, 1))
    assert t == (211, 197, 2969)
    t, _ = cf.parametric_triple(cf.ParametricLine(3, 0, 5, 1))
    assert t == (1, 5, 1)


def test_parametric_always_satisfies_system():
    for line in (1, 2, 3, 4):
        for n in range(-7, 8):
            for x in range(-20, 21):
                for delta in (1, -1):
                    t, w = cf.parametric_triple(
                        cf.ParametricLine(line, n, x, delta))
                    p1, p2, p3 = t
                    assert p3 - p1 == w.q * p2
                    assert p2 * (p1 + p3) == 1 + w.r * p1 * p3


def reps(res):
    return {(ln.line, ln.n, ln.x, ln.delta) for ln in res[1]}


def test_classify_examples():
    w, lines = cf.classify_integer_triple(2, 3, 5)
    assert (w.q, w.r) == (1, 2) and lines
    for ln in lines:
        assert cf.parametric_triple(ln)[0] == (2, 3, 5)
    assert reps(cf.classify_integer_triple(1, 7, 1)) == {(3, 0, 7, 1)}
    assert cf.classify_integer_triple(4, 9, 25) is None


# every representation, as (line, n, x, delta), of each TRIPLE_ROWS entry
TRIPLE_ROW_REPS = {
    (2, 3, 5): {(2, 2, 2, 1)},
    (3, 2, 5): {(1, 3, 1, 1), (2, 4, 1, 1)},
    (7, 5, 17): {(1, 3, 2, 1)},
    (211, 197, 2969): {(1, 3, 14, 1)},
    (601, 577, 14449): {(1, 3, 24, 1)},
    (8191, 8101, 737281): {(1, 3, 90, 1)},
    (22921, 21169, 276949): {(1, 5, 12, 1)},
}


@pytest.mark.parametrize("row", TRIPLE_ROWS)
def test_classify_recovers_triple_rows(row):
    primes, _, _ = row
    res = cf.classify_integer_triple(*primes)
    assert res is not None and reps(res) == TRIPLE_ROW_REPS[primes]
    for ln in res[1]:
        assert cf.parametric_triple(ln)[0] == primes


def test_classify_finds_every_enumerated_representation():
    # x = 0 is left out: line 1 gives +-(1, 1, 1) there for every odd n
    enumerated = {}
    for line in (1, 2, 3, 4):
        for n in (range(-6, 7) if line <= 2 else (0,)):
            for x in [v for v in range(-12, 13) if v]:
                for delta in (1, -1):
                    t = cf._evaluate_line(line, n, x, delta)
                    enumerated.setdefault(t, set()).add((line, n, x, delta))
    checked = 0
    for t, expected in enumerated.items():
        if 0 in t:
            continue
        res = cf.classify_integer_triple(*t)
        assert res is not None and expected <= reps(res), t
        for ln in res[1]:
            assert cf.parametric_triple(ln)[0] == t
        checked += 1
    assert checked == 1152


def test_classify_box_completeness_small():
    bound = 12
    rng = [v for v in range(-bound, bound + 1) if v != 0]
    for p1 in rng:
        for p2 in rng:
            for p3 in rng:
                res = cf.classify_integer_triple(p1, p2, p3)
                if not satisfies_triple_system(p1, p2, p3):
                    assert res is None
                    continue
                assert res is not None and res[1], (p1, p2, p3)


# block embedding -----------------------------------------------------------

def test_embed_examples():
    P, Q = cf.embed(cf.block_orderings((10, 7, 3)), (2, 1, 0))
    assert (P, Q) == ((2, 5, 7, 3), (3, 7, 2, 5))
    assert tp.equivalent(P, Q)
    assert tp.is_irreducible_pair(P, Q)

    P, Q = cf.embed(cf.block_orderings((2, 3, 5)), (2, 1, 0))
    assert (P, Q) == ((2, 3, 5), (5, 3, 2))

    with pytest.raises(cf.NotSquarefree, match="appears twice"):
        cf.embed(cf.block_orderings((4, 3, 5)), (2, 1, 0))


def test_embed_requires_congruences():
    with pytest.raises(cf.BlockCongruenceFailed):
        cf.embed(cf.block_orderings((3, 7, 11)), (2, 1, 0))


def test_embed_rejects_identity():
    with pytest.raises(ValueError):
        cf.embed(cf.block_orderings((2, 3, 5)), (0, 1, 2))


def test_embed_reducible_when_block_prefixes_repeat():
    # fix the first block, swap an inner multiple triple: equivalent but
    # the shared leading block makes the pair reducible
    P, Q = cf.embed(cf.block_orderings((7, 2, 3, 5)), (0, 3, 2, 1))
    assert (P, Q) == ((7, 2, 3, 5), (7, 5, 3, 2))
    assert tp.equivalent(P, Q)
    assert not tp.is_irreducible_pair(P, Q)


def test_embed_names_partner_as_quadruple_cases_do():
    # single-prime blocks: embed's order is the case's partner table row,
    # not its inverse (cases I and II are not involutions)
    rows = {}
    for row in QUADRUPLE_ROWS:
        rows.setdefault(row[3], row[0])
    assert set(rows) == set(cf._CASE_PARTNER)
    for case, T in rows.items():
        order = cf._CASE_PARTNER[case]
        assert (cf.embed([(p,) for p in T], order)
                == cf.quadruple_case(*T).classes[0]), case


def block_congruences_hold(blocks, order):
    # block i sees equal products of its predecessor blocks on both sides;
    # in the partner it stands at position order.index(i)
    q_blocks = [blocks[i] for i in order]
    return all((prod(blocks[:i]) - prod(q_blocks[:order.index(i)])) % b == 0
               for i, b in enumerate(blocks))


def test_embed_matches_block_congruences():
    # every ordered triple of pairwise coprime squarefree blocks below 40,
    # the middle block's primes descending, under each non-trivial order
    squarefree = {n: factor(n).primes for n in range(2, 40)
                  if factor(n).squarefree}
    orders = list(itertools.permutations(range(3)))[1:]
    lifted = 0
    for combo in itertools.combinations(squarefree, 3):
        if any(gcd(u, v) > 1 for u, v in itertools.combinations(combo, 2)):
            continue
        for blocks in itertools.permutations(combo):
            orderings = tuple(squarefree[b][::(-1) ** i]
                              for i, b in enumerate(blocks))
            for order in orders:
                holds = block_congruences_hold(blocks, order)
                try:
                    P, Q = cf.embed(orderings, order)
                except cf.BlockCongruenceFailed:
                    assert not holds, (blocks, order)
                    continue
                assert holds and tp.equivalent(P, Q), (blocks, order)
                lifted += 1
    assert lifted == 14


@given(st.integers(min_value=1, max_value=60),
       st.data())
@settings(max_examples=40, deadline=None)
def test_embed_property_on_family(x, data):
    blocks = (x * x + x + 1, x * x + 1, x ** 3 + x * x + 2 * x + 1)
    try:
        shuffled = tuple(tuple(data.draw(st.permutations(list(o))))
                         for o in cf.block_orderings(blocks))
        P, Q = cf.embed(shuffled, (2, 1, 0))
    except cf.NotSquarefree:
        assume(False)
        return
    assert tp.equivalent(P, Q)
    # distinct block prefix products here, so always irreducible
    assert tp.is_irreducible_pair(P, Q)

