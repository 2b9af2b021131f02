"""Tests for tuple equivalence, multiplicity, and pair records."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgraph import tuples as tp
from emgraph.arith import sieve_primes
from emgraph.graph import verify_path

from table_data import TRIPLE_ROWS, QUADRUPLE_ROWS, COPRIME_ROWS

PRIMES_100 = sieve_primes(100)
PRIMES_50 = sieve_primes(50)


def definition_equivalent(P, Q):
    """Oracle: the permutation/congruence form of equivalence.

    Scans every permutation relating the orderings and checks the prefix
    product congruence at each position.
    """
    if sorted(P) != sorted(Q):
        return False
    k = len(P)
    pos_q = {p: j for j, p in enumerate(Q)}
    # distinct entries: the permutation is determined by values
    pi = [pos_q[p] for p in P]
    pre_p = [1]
    pre_q = [1]
    for i in range(k):
        pre_p.append(pre_p[-1] * P[i])
        pre_q.append(pre_q[-1] * Q[i])
    return all((pre_p[i] - pre_q[pi[i]]) % P[i] == 0 for i in range(k))


def distinct_prime_tuples(pool, k):
    return st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                    unique=True).map(tuple)


# residue classes --------------------------------------------------------

@pytest.mark.parametrize("primes,m,a", [
    ((2, 3, 5), 30, 19),
    ((7, 5, 17), 595, 237),
    ((7,), 7, 6),
])
def test_residue_class_examples(primes, m, a):
    rc = tp.residue_class(primes)
    assert (rc.a, rc.m) == (a, m)


@pytest.mark.parametrize("row", TRIPLE_ROWS)
def test_residue_class_triple_rows(row):
    primes, m, a = row
    rc = tp.residue_class(primes)
    assert (rc.a, rc.m) == (a, m)


def test_residue_witnesses_satisfy_chain():
    # both the least representative and the next one admit the path
    for primes, m, a in TRIPLE_ROWS:
        assert verify_path(a, primes)
        assert verify_path(a + m, primes)
    for primes, m, residues, _ in QUADRUPLE_ROWS[:8]:
        rc = tp.residue_class(primes)
        assert rc.a in residues
        assert verify_path(rc.a, primes)
        assert verify_path(rc.a + m, primes)


# equivalence ------------------------------------------------------------

def test_equivalent_examples():
    assert tp.equivalent((2, 3, 5), (5, 3, 2))
    assert not tp.equivalent((2, 3, 5), (3, 2, 5))
    assert tp.equivalent((2, 3, 5), (2, 3, 5))


@pytest.mark.parametrize("prime_set", [(2, 3, 5), (2, 5, 7, 3),
                                       (5, 13, 73, 593)])
def test_equivalent_matches_definition_oracle(prime_set):
    for P in itertools.permutations(prime_set):
        for Q in itertools.permutations(prime_set):
            assert tp.equivalent(P, Q) == definition_equivalent(P, Q), (P, Q)


def test_multiplicity_examples():
    assert tp.multiplicity((2, 3)) == 1
    assert tp.multiplicity((2, 3, 5)) == 2
    assert tp.multiplicity((3, 5, 2)) == 1


def test_multiplicity_guard():
    with pytest.raises(tp.TupleTooLong):
        tp.multiplicity(tuple(PRIMES_100[:11]))


def test_equivalence_class_examples():
    cls = tp.equivalence_class((2, 3, 5))
    assert cls == [(2, 3, 5), (5, 3, 2)]
    cls = tp.equivalence_class((2, 5, 7, 3))
    assert sorted(cls) == [(2, 5, 7, 3), (3, 7, 2, 5)]
    assert tp.equivalence_class((7,)) == [(7,)]


def test_no_multiple_pairs_or_singletons():
    # exhaustive over primes < 50: k <= 2 always has multiplicity 1
    for a, b in itertools.combinations(PRIMES_50, 2):
        for t in ((a,), (a, b), (b, a)):
            assert tp.multiplicity(t) == 1, t


def test_small_tuples_multiplicity_at_most_two():
    # exhaustive over primes < 50: k in (3, 4) never exceeds 2
    for combo in itertools.combinations(PRIMES_50, 3):
        groups = {}
        for perm in itertools.permutations(combo):
            groups.setdefault(tp.residue_base(perm), []).append(perm)
        assert max(len(g) for g in groups.values()) <= 2
    for combo in itertools.combinations(PRIMES_50, 4):
        groups = {}
        for perm in itertools.permutations(combo):
            groups.setdefault(tp.residue_base(perm), []).append(perm)
        assert max(len(g) for g in groups.values()) <= 2


# reversal ---------------------------------------------------------------

@given(distinct_prime_tuples(PRIMES_100, 4),
       st.permutations(range(4)))
@settings(max_examples=150, deadline=None)
def test_reversal_preserves_equivalence(P, images):
    Q = tuple(P[i] for i in images)
    if tp.equivalent(P, Q):
        assert tp.equivalent(tuple(reversed(P)), tuple(reversed(Q)))
    assert tp.multiplicity(P) == tp.multiplicity(tuple(reversed(P)))


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=100, deadline=None)
def test_reversal_multiplicity_property(k, data):
    P = data.draw(distinct_prime_tuples(PRIMES_100, k))
    assert tp.multiplicity(P) == tp.multiplicity(tuple(reversed(P)))


# irreducible pairs -------------------------------------------------------

def test_is_irreducible_pair_examples():
    assert tp.is_irreducible_pair((2, 3, 5), (5, 3, 2))
    assert not tp.is_irreducible_pair((7, 2, 3, 5), (7, 5, 3, 2))
    assert not tp.is_irreducible_pair((2, 3, 5), (2, 3, 5))


def test_is_irreducible_pair_symmetric():
    cases = [((2, 3, 5), (5, 3, 2)), ((7, 2, 3, 5), (7, 5, 3, 2)),
             ((2, 5, 7, 3), (3, 7, 2, 5))]
    for P, Q in cases:
        assert tp.is_irreducible_pair(P, Q) == tp.is_irreducible_pair(Q, P)


# records ----------------------------------------------------------------

def test_pair_record_canonical_and_roundtrip():
    r = tp.PairRecord(tp.PrimeTuple((5, 3, 2)), tp.PrimeTuple((2, 3, 5)),
                      19, kind="triple")
    assert r.p.primes == (2, 3, 5) and r.q.primes == (5, 3, 2)
    assert r.modulus == 30 and r.a == 19
    assert r.residues == (tp.ResidueClass(19, 30),)
    again = tp.PairRecord.from_json_line(r.to_json_line())
    assert again == r
    assert again.to_json_line() == r.to_json_line()


def test_pair_record_large_values_roundtrip():
    primes, m, residues, case = QUADRUPLE_ROWS[-1]
    a, b, c, d = primes
    assert case == "II"  # whose class pairs (a, b, c, d) with (d, c, a, b)
    r = tp.PairRecord(tp.PrimeTuple(primes), tp.PrimeTuple((d, c, a, b)),
                      tp.residue_base(primes))
    again = tp.PairRecord.from_json_line(r.to_json_line())
    assert again.modulus == m == r.modulus


@pytest.mark.parametrize("field, value", [
    ("modulus", "31"),  # not the product of p
    ("q", ["3", "2", "5"]),  # not equivalent to p
    ("residues", ["1"]),  # not the class p pins
    ("q", ["2", "3", "5"]),  # p paired with itself
])
def test_pair_record_rejects_inconsistent_record(field, value):
    obj = tp.PairRecord(tp.PrimeTuple((2, 3, 5)),
                        tp.PrimeTuple((5, 3, 2)), 19).to_json_obj()
    tp.PairRecord.from_json_obj(obj)
    obj[field] = value
    with pytest.raises(ValueError):
        tp.PairRecord.from_json_obj(obj)


@pytest.mark.parametrize("field, value", [
    ("p", 5), ("p", "235"), ("q", {"5": 3}), ("residues", "19"),
    ("p", [2.0, "3", "5"]), ("q", ["5", True, "2"]), ("q", ["5", "x", "2"]),
    ("modulus", 30.0), ("modulus", ["30"]), ("modulus", None),
    ("residues", [None]), ("kind", 5), ("kind", None), ("kind", ["triple"]),
])
def test_pair_record_rejects_wrong_type(field, value):
    obj = tp.PairRecord(tp.PrimeTuple((2, 3, 5)),
                        tp.PrimeTuple((5, 3, 2)), 19).to_json_obj()
    obj[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        tp.PairRecord.from_json_obj(obj)


@pytest.mark.parametrize("obj", [[1], "x", None, 30])
def test_pair_record_rejects_non_object(obj):
    with pytest.raises(ValueError, match="not a JSON object"):
        tp.PairRecord.from_json_obj(obj)


@pytest.mark.parametrize("key", ["p", "q", "modulus", "residues"])
def test_pair_record_rejects_missing_field(key):
    obj = tp.PairRecord(tp.PrimeTuple((2, 3, 5)),
                        tp.PrimeTuple((5, 3, 2)), 19).to_json_obj()
    del obj[key]
    with pytest.raises(ValueError, match=f"no '{key}'"):
        tp.PairRecord.from_json_obj(obj)


def test_pair_record_accepts_json_integers():
    obj = {"p": [2, 3, 5], "q": [5, 3, 2], "modulus": 30, "residues": [19]}
    assert tp.PairRecord.from_json_obj(obj) == tp.PairRecord(
        tp.PrimeTuple((2, 3, 5)), tp.PrimeTuple((5, 3, 2)), 19)


@pytest.mark.parametrize("residues", [[], ["19", "19"], ["1"], ["49"]])
def test_pair_record_requires_the_one_residue(residues):
    obj = {"p": ["2", "3", "5"], "q": ["5", "3", "2"], "modulus": "30",
           "residues": residues}
    with pytest.raises(ValueError, match="'residues' has .* not the one "
                                         r"class \[19\]"):
        tp.PairRecord.from_json_obj(obj)


def test_check_primes_at_input_boundary():
    # PrimeTuple holds its primes unchecked; each way a tuple comes in
    # from outside runs check_primes
    tp.check_primes((2, 3, 5))
    for primes, message in [((2, 2, 3), "entries must be distinct"),
                            ((4, 3), "4 is not prime")]:
        with pytest.raises(ValueError, match=message):
            tp.check_primes(primes)
        with pytest.raises(ValueError, match=message):
            tp.equivalence_class(primes)
        p = [str(v) for v in primes]
        obj = {"p": p, "q": p[::-1], "modulus": str(math.prod(primes)),
               "residues": ["1"]}
        with pytest.raises(ValueError, match=message):
            tp.PairRecord.from_json_obj(obj)


def test_coprime_rows_residues_are_invertible():
    for prime_set, m, residues, _ in COPRIME_ROWS:
        for a in residues:
            tp.ResidueClass(a, m)  # validates reduction and gcd
