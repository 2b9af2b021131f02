"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion as it completes. Criteria with stated wall-clock
budgets assert them; the minutes-scale searches use a generous ceiling.
"""

import collections
import contextlib
import hashlib
import itertools
import time

from emgraph import classify as cf
from emgraph import graph as gr
from emgraph import modsearch as ms
from emgraph import tuples as tp
from emgraph.arith import EffortPolicy, factor, squarefree_stream

from table_data import (COPRIME_ROWS, LARGEST_RULE_PREFIX,
                        LEAST_RULE_PREFIX, QUADRUPLE_ROWS, TRIPLE_ROWS)


@contextlib.contextmanager
def criterion(num, title, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {title}", flush=True)
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s")
    print(f"PASS  criterion {num}: {title}  [{elapsed:.2f}s]", flush=True)


def test_criterion_01_triple_table():
    with criterion(1, "triple table residues reproduce exactly", budget=1.0):
        for primes, modulus, a in TRIPLE_ROWS:
            rc = tp.residue_class(primes)
            assert (rc.a, rc.m) == (a, modulus)


def test_criterion_02_quadruple_table():
    with criterion(2, "quadruple table cases and residues reproduce",
                   budget=1.0):
        expected_by_modulus = {}
        for primes, modulus, residues, case in QUADRUPLE_ROWS:
            qc = cf.quadruple_case(*primes)
            assert qc is not None and qc.case == case, (primes, case)
            expected_by_modulus.setdefault(modulus, set()).update(residues)
        for modulus, expect in expected_by_modulus.items():
            recs = ms.search_modulus(modulus, factor(modulus))
            got = {rc.a for r in recs for rc in r.residues}
            assert got == expect, (modulus, got, expect)


def test_criterion_03_coprime_table_and_density():
    with criterion(3, "coprime-modulus table and densities reproduce",
                   budget=10.0):
        for prime_set, modulus, residues, inv_density in COPRIME_ROWS:
            fz = factor(modulus)
            assert fz.primes == tuple(sorted(prime_set))
            recs = ms.brute_force_pairs(modulus, fz)
            got = {rc.a for r in recs for rc in r.residues}
            assert got == set(residues), (modulus, got)
            rep = ms.density_report(recs)
            assert rep.inverse_density == inv_density, modulus


def test_criterion_04_oracle_equivalence():
    with criterion(4, "search equals brute force for every squarefree "
                      "modulus below 1e5", budget=900.0):
        for m, fz in squarefree_stream(2, 10 ** 5, 3):
            assert ms.search_modulus(m, fz) == ms.brute_force_pairs(m, fz), m


def test_criterion_05_range_search_to_1e7():
    with criterion(5, "range search to 1e7 covers the tabulated rows",
                   budget=900.0):
        cfg = ms.SearchConfig(2, 10 ** 7, worker_count=2)
        found = {}
        kinds = collections.Counter()
        for rec in ms.search_range(cfg):
            assert rec.modulus >= 30
            found.setdefault(rec.modulus, set()).update(
                rc.a for rc in rec.residues)
            kinds[rec.kind] += 1
        assert (sum(kinds.values()), len(found)) == (7802, 1301)
        assert kinds == {"general": 7770, "triple": 3,
                         "quadruple-case-I": 6, "quadruple-case-II": 8,
                         "quadruple-case-III": 4, "quadruple-case-IV": 11}
        for primes, modulus, a in TRIPLE_ROWS:
            if modulus < 10 ** 7:
                assert a in found.get(modulus, set()), (modulus, a)
        for primes, modulus, residues, _ in QUADRUPLE_ROWS:
            if modulus < 10 ** 7:
                assert set(residues) <= found.get(modulus, set()), modulus
        # the full tally below 1e9 is an offline reproduction, not gated
        print(f"      ({sum(len(v) for v in found.values())} residue "
              f"classes over {len(found)} moduli below 1e7)", flush=True)


def test_criterion_06_level_census():
    with criterion(6, "level census matches through level 8 "
                      "(9 and 10 as stretch)", budget=900.0):
        sums = gr.bfs_levels(1, 8)
        assert [s.node_count for s in sums] == [1, 1, 1, 1, 1, 2, 4, 9, 24]
        assert all(s.composite_count == 0 for s in sums)
        stretch = EffortPolicy(rho_iterations=800_000, ecm_curves=120)
        sums = gr.bfs_levels(1, 10, stretch)
        assert [s.node_count for s in sums[9:]] == [52, 165]
        assert all(s.composite_count == 0 for s in sums)


def test_criterion_07_double_path_verification():
    with criterion(7, "both double-path nodes verify with the 73/593 swap",
                   budget=1.0):
        rep = gr.verify_double_paths()
        assert rep.ok, [l for l in rep.lines() if l.startswith("FAIL")]


def test_criterion_08_sequences():
    with criterion(8, "least/largest sequences and the ninth least term",
                   budget=60.0):
        assert gr.euclid_mullin(1, 8, rule="least") == LEAST_RULE_PREFIX[:8]
        assert gr.euclid_mullin(1, 6, rule="largest") == LARGEST_RULE_PREFIX
        # independent oracle for term 9: factor the step value directly
        acc = 1
        for t in LEAST_RULE_PREFIX[:8]:
            acc *= t
        fz = factor(acc + 1)
        assert fz.complete and fz.primes[0] == LEAST_RULE_PREFIX[8]
        assert gr.euclid_mullin(1, 9)[8] == LEAST_RULE_PREFIX[8]


def test_criterion_09_parametric_completeness():
    with criterion(9, "every box triple satisfying the system is "
                      "reproduced parametrically", budget=900.0):
        bound = 30
        rng = [v for v in range(-bound, bound + 1) if v != 0]
        checked = 0
        for p1 in rng:
            for p2 in rng:
                for p3 in rng:
                    res = cf.classify_integer_triple(p1, p2, p3)
                    if cf._witness_of(p1, p2, p3) is None:
                        assert res is None
                        continue
                    checked += 1
                    assert res is not None and res[1], (p1, p2, p3)
                    t, w = cf.parametric_triple(res[1][0])
                    assert t == (p1, p2, p3)
        assert checked > 500


def test_criterion_10_loop_self_consistency():
    with criterion(10, "bounded exploration loop and watch consistency",
                   budget=900.0):
        watch = gr.WatchList(tuple(
            tp.ResidueClass(a, m)
            for _, m, residues, _ in COPRIME_ROWS for a in residues))
        reaches = {}
        hits = []
        for nd in gr.bounded_explore([1], 1 << 16, 20):
            reaches.setdefault(nd.value, []).append(nd.edge_primes)
            for pair in gr.watch_hits([nd], watch):
                hits.append(pair)
        for value, tuples in reaches.items():
            for a, b in itertools.combinations(tuples, 2):
                assert tp.equivalent(a, b), (value, a, b)
        for nd, rc in hits:
            primes = tuple(sorted(factor(rc.m).primes))
            for ordering in tp.equivalence_class(primes):
                if tp.residue_class(ordering).a == rc.a:
                    assert gr.verify_path(nd.value, ordering)
        # the same machinery on a root known to head a loop class
        dup = {}
        for nd in gr.bounded_explore([19], 7, 3):
            dup.setdefault(nd.value, []).append(nd.edge_primes)
        assert sorted(dup[570]) == [(2, 3, 5), (5, 3, 2)]
        assert tp.equivalent(*dup[570])


def test_criterion_11_growth_model():
    with criterion(11, "growth model terminal ratio near the predicted "
                       "scale", budget=60.0):
        stats = gr.simulate_growth_model(10 ** 6, 20, 12345)
        assert 0.9 <= stats.mean <= 1.1, stats.mean
        again = gr.simulate_growth_model(10 ** 6, 20, 12345)
        assert stats == again
        # the ratios of the per-step loop, before draws were skipped
        hexes = " ".join(r.hex() for r in stats.ratios)
        assert hashlib.sha256(hexes.encode()).hexdigest() == \
            "e2c5b2fb6c9729ec7550b0a5c41dcb1dd5362bf6419d02921154fab225cac40d"
