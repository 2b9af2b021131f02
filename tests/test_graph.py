"""Tests for graph expansion, paths, sequences, and the growth model."""

import hashlib
import json
import math
import os
import pickle
import random
import re
import stat

import pytest

from emgraph import arith, cli
from emgraph import graph as gr
from emgraph import modsearch as ms
from emgraph import tuples as tp
from emgraph.arith import (EffortPolicy, FactorCache, factor, is_prime,
                           sieve_primes)

from table_data import (COPRIME_ROWS, LEAST_RULE_PREFIX,
                        LARGEST_RULE_PREFIX, TRIPLE_ROWS)


# node expansion -------------------------------------------------------------

def test_expand_node_examples():
    assert gr.expand_node(1) == (True, [2])
    complete, children = gr.expand_node(1806)  # 1807 = 13 * 139
    assert complete and sorted(children) == [1806 * 13, 1806 * 139]
    assert gr.expand_node(2) == (True, [6])


def test_expand_node_partial_marks_incomplete():
    # a cheap policy cannot split this, so the expansion is incomplete
    pol = EffortPolicy(trial_bound=10, rho_iterations=10, ecm_curves=0)
    complete, _ = gr.expand_node(2 ** 101 - 2, pol)
    assert not complete


def test_expanded_edges_are_coprime_to_parent():
    frontier = [1]
    for _ in range(6):
        nxt = []
        for v in frontier:
            _, children = gr.expand_node(v)
            for ch in children:
                p, rest = divmod(ch, v)
                assert rest == 0 and is_prime(p)
                assert math.gcd(p, v) == 1
            nxt.extend(children)
        frontier = nxt


# level census ----------------------------------------------------------------

def test_bfs_levels_shallow():
    sums = gr.bfs_levels(1, 7)
    assert [s.node_count for s in sums] == [1, 1, 1, 1, 1, 2, 4, 9]
    assert all(s.composite_count == 0 for s in sums)


def test_bfs_levels_other_root():
    sums = gr.bfs_levels(2, 1)
    assert sums[-1] == gr.LevelSummary(1, 1, 0)


def test_bfs_levels_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "frontier.jsonl")
    first = gr.bfs_levels(1, 5, checkpoint=ck)
    resumed = gr.bfs_levels(1, 7, checkpoint=ck)
    assert resumed[:6] == first
    assert [s.node_count for s in resumed] == [1, 1, 1, 1, 1, 2, 4, 9]
    # a checkpoint at or past max_level answers from its summaries, and
    # is left as it is
    path = tmp_path / "frontier.jsonl"
    header, rest = path.read_text().split("\n", 1)
    obj = json.loads(header)
    obj["summaries"][-1][2] = 99  # a blocked count only this file has
    path.write_text(json.dumps(obj) + "\n" + rest)
    before = path.read_bytes()
    assert gr.bfs_levels(1, 7, checkpoint=ck)[-1].composite_count == 99
    assert path.read_bytes() == before


def test_bfs_levels_refuses_checkpoint_of_another_ladder(tmp_path, capsys):
    ck = tmp_path / "frontier.jsonl"
    gr.bfs_levels(1, 5, checkpoint=str(ck))
    header, rest = ck.read_text().split("\n", 1)
    obj = json.loads(header)
    # as saved before the ladder was versioned: the policy fields alone
    pol = gr.DEFAULT_POLICY
    obj["policy"] = (f"{pol.trial_bound}:{pol.rho_iterations}:"
                     f"{pol.ecm_curves}:{pol.ecm_b1}")
    ck.write_text(json.dumps(obj) + "\n" + rest)
    before = ck.read_bytes()
    with pytest.raises(ValueError, match=re.escape(
            f"under policy {obj['policy']}, not root 1 under policy "
            f"{gr._policy_fingerprint(pol)}: delete it")):
        gr.bfs_levels(1, 7, checkpoint=str(ck))
    assert ck.read_bytes() == before
    # as saved by the ladder before the one-ladder stage 1, by the one
    # before the measured first rung and short rho budget, by the one
    # before stage 2's D was sized to B2, and by this ladder while the
    # policy still had a time budget
    assert arith.LADDER_VERSION == 5
    now = gr._policy_fingerprint(pol)
    assert now == "10000:400000:50:50000:ladder5"
    for old in [*(now.replace(":ladder5", f":ladder{v}") for v in (2, 3, 4)),
                "10000:400000:50:50000:0.0:ladder5"]:
        obj["policy"] = old
        ck.write_text(json.dumps(obj) + "\n" + rest)
        before = ck.read_bytes()
        capsys.readouterr()
        assert cli.run(["expand", "--max-level", "7", "--checkpoint",
                        str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"under policy {obj['policy']}" in captured.err
        assert ck.read_bytes() == before


def test_load_frontier_rejects_header_without_root(tmp_path):
    ck = tmp_path / "frontier.jsonl"
    gr.bfs_levels(1, 3, checkpoint=str(ck))
    header, rest = ck.read_text().split("\n", 1)
    obj = json.loads(header)
    del obj["root"]
    ck.write_text(json.dumps(obj) + "\n" + rest)
    with pytest.raises(ValueError, match="malformed"):
        gr.bfs_levels(1, 4, checkpoint=str(ck))


def test_census_checkpoint_is_header_then_one_value_per_line(tmp_path):
    ck = tmp_path / "frontier.ck"
    gr.bfs_levels(1, 6, checkpoint=str(ck))
    head, *lines = ck.read_text().splitlines()
    assert json.loads(head) == {
        "level": 6, "policy": gr._policy_fingerprint(gr.DEFAULT_POLICY),
        "root": "1",
        "summaries": [[0, 1, 0], [1, 1, 0], [2, 1, 0], [3, 1, 0],
                      [4, 1, 0], [5, 2, 0], [6, 4, 0]],
        "values_sha256": hashlib.sha256(
            "".join(v + "\n" for v in lines).encode()).hexdigest()}
    # 1806 * 13 * {53, 443} and 1806 * 139 * {5, 50207}
    assert lines == ["1244334", "1255170", "10400754", "12603664038"]
    assert list(tmp_path.iterdir()) == [ck]  # written aside, then renamed


def test_save_frontier_killed_mid_write_keeps_old_checkpoint(tmp_path):
    ck = tmp_path / "frontier.ck"
    summaries = gr.bfs_levels(1, 6, checkpoint=str(ck))
    before = ck.read_bytes()

    def values():
        yield 1244334
        raise RuntimeError("killed")

    with pytest.raises(RuntimeError, match="killed"):
        gr.save_frontier(str(ck), 1, 7, gr.DEFAULT_POLICY, values(),
                         summaries)
    assert ck.read_bytes() == before


@pytest.mark.parametrize("writer", ["write_durably", "search", "census"])
def test_checkpoint_fsynced_before_rename(tmp_path, monkeypatch, writer):
    # the new file reaches the disk before it replaces the old one, and
    # the rename itself is made durable through the directory
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    ck = tmp_path / "ck"
    if writer == "write_durably":
        arith.write_durably(str(ck), "12 3\n")
        want = b"12 3\n"
    elif writer == "search":
        ms._write_checkpoint(str(ck), 65537, 271)
        want = b"65537 271\n"
    else:
        gr.save_frontier(str(ck), 1, 0, gr.DEFAULT_POLICY, [1],
                         [gr.LevelSummary(0, 1, 0)])
        want = None
    assert events == ["fsync file", "replace", "fsync dir"]
    assert list(tmp_path.iterdir()) == [ck]
    if want is not None:
        assert ck.read_bytes() == want
    else:
        assert gr.load_frontier(str(ck))[4] == [1]


def test_bfs_levels_deterministic():
    assert gr.bfs_levels(1, 6) == gr.bfs_levels(1, 6)


def test_bfs_levels_independent_of_expansion_order():
    # hand-rolled census expanding the frontier in reverse order: the
    # per-level value sets must agree
    frontier = {1}
    counts = [len(frontier)]
    for _ in range(7):
        nxt = set()
        for v in sorted(frontier, reverse=True):
            nxt.update(gr.expand_node(v)[1])
        frontier = nxt
        counts.append(len(frontier))
    assert counts == [s.node_count for s in gr.bfs_levels(1, 7)]


# bounded exploration ---------------------------------------------------------

def test_node_is_a_value_and_its_edge_primes():
    nd = gr.Node(1).child(2).child(3)
    assert nd == (6, (2, 3)) and nd.level == 2
    assert gr.Node._fields == ("value", "edge_primes")
    assert pickle.loads(pickle.dumps(nd)) == nd


def test_bounded_explore_examples():
    values = sorted(n.value for n in gr.bounded_explore([1], 5, 3))
    assert values == [1, 2, 6]
    values = sorted(n.value for n in gr.bounded_explore([1], 3, 10))
    assert values == [1, 2, 6]
    values = sorted(n.value for n in gr.bounded_explore([1], 2, 1))
    assert values == [1, 2]


def test_bounded_explore_respects_bound():
    # 1807 = 13 * 139: only the edges below the bound are followed
    nodes = list(gr.bounded_explore([1806], 12, 1))
    assert [n.value for n in nodes] == [1806]
    nodes = list(gr.bounded_explore([1806], 20, 1))
    assert sorted(n.value for n in nodes) == [1806, 1806 * 13]


def test_bounded_explore_nodes_well_formed():
    for nd in gr.bounded_explore([1, 19], 1 << 10, 8):
        assert len(set(nd.edge_primes)) == len(nd.edge_primes)
        root = nd.value // math.prod(nd.edge_primes)
        for p in nd.edge_primes:
            assert math.gcd(p, root) == 1


def test_bounded_explore_finds_loops():
    # 19 heads the class of (2,3,5), so 570 is reached along two paths
    reaches = {}
    for nd in gr.bounded_explore([19], 5, 3):
        reaches.setdefault(nd.value, []).append(nd.edge_primes)
    assert sorted(reaches[570]) == [(2, 3, 5), (5, 3, 2)]
    assert tp.equivalent(*reaches[570])


def _blocked_small_primes(x, bound, block=512):
    """The one-number blocked-gcd extraction that preceded the batch."""
    ps = sieve_primes(bound)
    out = []
    for i in range(0, len(ps), block):
        chunk = ps[i:i + block]
        g = math.gcd(x, math.prod(chunk))
        for p in chunk:
            if g == 1:
                break
            if g % p == 0:
                out.append(p)
                g //= p
    return out


def _per_node_explore(roots, bound, max_level):
    """Oracle: the walk that factored one node at a time."""
    frontier = [gr.Node(r) for r in roots]
    seen = {nd.value for nd in frontier}
    yield from frontier
    level = 0
    while frontier and level < max_level:
        nxt = []
        for nd in frontier:
            for p in _blocked_small_primes(nd.value + 1, bound):
                ch = nd.child(p)
                yield ch
                if ch.value not in seen:
                    seen.add(ch.value)
                    nxt.append(ch)
        frontier = nxt
        level += 1


@pytest.mark.parametrize("roots", [
    [1], [19], [1, 19], [1806], [19, 19], [1806, 1806]])
@pytest.mark.parametrize("bound,max_level", [
    (2, 6), (5, 8), (1 << 10, 8), (1 << 16, 7)])
def test_bounded_explore_matches_per_node_walk(roots, bound, max_level):
    assert (list(gr.bounded_explore(roots, bound, max_level))
            == list(_per_node_explore(roots, bound, max_level)))


def test_bounded_explore_walk_pinned():
    # recorded from the per-node walk: 9612 reaches, edge primes one
    # comma-joined line each
    nodes = list(gr.bounded_explore([1], 1 << 16, 28))
    text = "".join(",".join(map(str, nd.edge_primes)) + "\n"
                   for nd in nodes)
    assert len(nodes) == 9612
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c04f72e1fd0e8b216e258a2e9400d6538eda9f3c24e8bf9a703f1116141919ac")


@pytest.mark.parametrize("roots,bound,max_level", [
    ([-1], 30, 1), ([0], 30, 1), ([1, -5], 30, 1), ([0], 30, 0),
    ([1], 30, -1), ([1], 1, 1)])
def test_bounded_explore_rejects_bad_input(roots, bound, max_level):
    with pytest.raises(ValueError):
        list(gr.bounded_explore(roots, bound, max_level))


def test_bfs_levels_rejects_negative_max_level():
    with pytest.raises(ValueError, match="max_level"):
        gr.bfs_levels(1, -2)


def test_small_prime_factors():
    assert gr.small_prime_factors(1807, 12) == []
    assert gr.small_prime_factors(1807, 100) == [13]
    assert gr.small_prime_factors(1807, 139) == [13, 139]
    assert gr.small_prime_factors(2 ** 20, 10) == [2]


# watches ---------------------------------------------------------------------

def test_watch_hits():
    w = gr.WatchList((tp.ResidueClass(19, 30),))
    hits = list(gr.watch_hits([gr.Node(19), gr.Node(20)], w))
    assert len(hits) == 1 and hits[0][0].value == 19
    big = COPRIME_ROWS[0]
    rc = tp.ResidueClass(big[2][0], big[1])
    w = gr.WatchList((rc,))
    node = gr.Node(big[2][0] + big[1])
    assert list(gr.watch_hits([node], w)) == [(node, rc)]


def test_watch_hits_match_a_scan_of_every_class():
    # several classes per modulus, the moduli interleaved, and moduli that
    # divide one another, so one node can land in classes of several
    classes = [tp.ResidueClass(a, m) for a, m in
               ((1, 6), (19, 30), (5, 6), (7, 10), (29, 30), (1, 10),
                (3, 10), (23, 30), (1, 7), (3, 7))]
    w = gr.WatchList(tuple(classes))
    nodes = [gr.Node(v) for v in range(1, 400)]
    want = [(nd, rc) for nd in nodes for rc in classes
            if nd.value % rc.m == rc.a]
    assert list(gr.watch_hits(nodes, w)) == want
    assert any(a[0] == b[0] for a, b in zip(want, want[1:]))


def test_watch_list_file_roundtrip(tmp_path):
    path = tmp_path / "watch.jsonl"
    w = gr.WatchList(tuple(tp.ResidueClass(a, m)
                           for _, m, residues, _ in COPRIME_ROWS[:3]
                           for a in residues))
    path.write_text("".join(json.dumps({"a": str(rc.a), "m": str(rc.m)})
                            + "\n" for rc in w.classes))
    assert gr.WatchList.load(str(path)) == w


@pytest.mark.parametrize("line", [
    '[19, 30]', '"19 mod 30"', '{"a": "19", "m": ',   # not a JSON object
    '{"m": "30"}', '{"a": "19"}',                      # a or m missing
    '{"a": 19.5, "m": 30}', '{"a": "x", "m": "30"}',   # not an integer
    '{"a": true, "m": 30}', '{"a": "19", "m": null}',
    '{"a": "31", "m": "30"}',                          # not a reduced class
    '{"a": 1, "m": 30}',                               # line 1's class again
])
def test_watch_list_rejects_bad_line(tmp_path, line):
    path = tmp_path / "watch.jsonl"
    path.write_text('{"a": "1", "m": "30"}\n\n' + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
        gr.WatchList.load(str(path))


@pytest.mark.parametrize("line, key", [
    ('{"a": 19.5, "m": 30}', "a"), ('{"a": "x", "m": "30"}', "a"),
    ('{"a": true, "m": 30}', "a"), ('{"a": "19", "m": null}', "m"),
])
def test_watch_list_bad_integer_names_key(tmp_path, line, key):
    path = tmp_path / "watch.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=f": {key!r} has "):
        gr.WatchList.load(str(path))


def test_watch_hit_admits_all_class_paths():
    # a watched hit is a loop base: every ordering in the class is a path
    a, m = 19, 30
    node = gr.Node(a)
    for t in tp.equivalence_class((2, 3, 5)):
        assert gr.verify_path(node.value, t)


# path verification -------------------------------------------------------------

def test_verify_path_examples():
    assert gr.verify_path(1, (2, 3, 7, 43, 13))
    assert not gr.verify_path(1, (2, 5))
    assert gr.verify_path(1, ())


@pytest.mark.parametrize("row", TRIPLE_ROWS)
def test_verify_path_triple_rows(row):
    primes, _, a = row
    assert gr.verify_path(a, primes)


def test_verify_double_paths():
    rep = gr.verify_double_paths()
    assert rep.ok, rep.lines()
    assert len(rep.checks) == 16


# sequences ---------------------------------------------------------------------

def test_euclid_mullin_least():
    assert gr.euclid_mullin(1, 8) == LEAST_RULE_PREFIX[:8]


def test_euclid_mullin_largest():
    assert gr.euclid_mullin(1, 6, rule="largest") == LARGEST_RULE_PREFIX


def test_euclid_mullin_step9_against_rho_oracle():
    # independent check: factor 1 + the product of the first 8 terms
    acc = 1
    for t in LEAST_RULE_PREFIX[:8]:
        acc *= t
    fz = factor(acc + 1)
    assert fz.complete
    assert fz.primes[0] == LEAST_RULE_PREFIX[8]
    assert gr.euclid_mullin(1, 9)[8] == LEAST_RULE_PREFIX[8]


def test_euclid_mullin_stops_when_effort_exhausted():
    pol = EffortPolicy(trial_bound=100, rho_iterations=5, ecm_curves=0)
    terms = gr.euclid_mullin(1, 30, pol)
    assert terms == LEAST_RULE_PREFIX[:len(terms)]
    assert len(terms) < 30


def test_euclid_mullin_least_prime_of_table_is_certain_at_any_bound():
    # start + 1 = 3·p·q with p and q primes of 20 digits: with no rho or
    # curves the cofactor stays whole, but 3 is found whatever the bound
    start = 4952862588761800911605208807760844003510
    pol = EffortPolicy(trial_bound=0, rho_iterations=0, ecm_curves=0)
    assert gr.euclid_mullin(start, 1, pol) == [3]


def test_euclid_mullin_matches_leftmost_branch():
    terms = gr.euclid_mullin(1, 7)
    value = 1
    for expected in terms:
        _, children = gr.expand_node(value)
        value, parent = min(children), value
        assert value // parent == expected


# unique chains --------------------------------------------------------------------

def test_unique_chain_examples():
    assert list(gr.unique_chain_scan([gr.Node(1)], 4)) == [gr.Node(1)]
    assert list(gr.unique_chain_scan([gr.Node(6, (2, 3))], 1)) \
        == [gr.Node(6, (2, 3))]
    assert list(gr.unique_chain_scan([gr.Node(1806, (2, 3, 7, 43))], 1)) \
        == []


# growth model ----------------------------------------------------------------------

def test_growth_model_deterministic():
    a = gr.simulate_growth_model(2000, 4, 99)
    b = gr.simulate_growth_model(2000, 4, 99)
    assert a == b


def test_growth_model_sign_of_the_first_steps_from_one():
    # From n = 1 (l = log n = 0) one step gives l = (log 2)**theta, in
    # (log 2, 1], so every ratio log(l)/sqrt(2) is <= 0. The second step
    # adds log(e**l + 1)**theta >= 1, as log(e**l + 1) > log 3 > 1, so
    # l > log 2 + 1 > 1 and every ratio is > 0.
    one = gr.simulate_growth_model(1, 5, 3)
    assert all(math.isfinite(r) and r <= 0 for r in one.ratios)
    assert all(r > 0 for r in gr.simulate_growth_model(2, 5, 3).ratios)


def test_growth_model_ratio_scale():
    st = gr.simulate_growth_model(200_000, 6, 7)
    assert 0.85 < st.mean < 1.0


def _small_regime(rng, k_max):
    """The growth model's small regime from n = 1: (log n, steps taken)."""
    log1p, exp = math.log1p, math.exp
    l, k = 0.0, 0
    while k < k_max and l < 120.0:
        theta = rng.random()
        l += (l + log1p(exp(-l))) ** theta
        k += 1
    return l, k


def _growth_reference(k_max, trials, seed):
    """The growth model with one Python step per draw and no skipping."""
    log1p, exp, log = math.log1p, math.exp, math.log
    ratios = []
    scale = math.sqrt(2 * k_max)
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        l, k = _small_regime(rng, k_max)
        if k == k_max:
            ratios.append(log(l) / scale)
            continue
        y = log(l)
        for _ in range(k_max - k):
            theta = rng.random()
            y += log1p(exp((theta - 1.0) * y))
        ratios.append(y / scale)
    mean = sum(ratios) / trials
    var = sum((r - mean) ** 2 for r in ratios) / trials
    return gr.GrowthStats(k_max, trials, seed, tuple(ratios),
                          mean, math.sqrt(var))


# both trials of seed 99 hand over to the log-log regime at this step
_SEED_99_HANDOVER = 15


# Past the handover the draws are skipped chunk by chunk. For seed 99 the
# two k_max around a chunk edge leave one chunk one draw short, and one
# full chunk then a chunk of one draw; 200_000 crosses about 195 edges.
@pytest.mark.parametrize("k_max", [
    1, 10, 1000, _SEED_99_HANDOVER + gr._GROWTH_CHUNK - 1,
    _SEED_99_HANDOVER + gr._GROWTH_CHUNK + 1, 200_000])
def test_growth_model_matches_per_step_reference(k_max):
    # a change to the small regime must fail here, not move the chunk grid
    assert [_small_regime(random.Random(f"99:{t}"), math.inf)[1]
            for t in range(2)] == [_SEED_99_HANDOVER] * 2
    for seed in (7, 99, 12345):
        assert gr.simulate_growth_model(k_max, 2, seed) \
            == _growth_reference(k_max, 2, seed)


# factor cache interplay ----------------------------------------------------------

def test_expansion_uses_injected_factorization(tmp_path):
    path = str(tmp_path / "cache.txt")
    blocked = 2 ** 101 - 2
    pol = EffortPolicy(trial_bound=10, rho_iterations=10, ecm_curves=0)
    cache = FactorCache(path)
    complete, _ = gr.expand_node(blocked, pol, cache)
    assert not complete
    cache.add(blocked + 1, [7432339208719])
    complete, children = gr.expand_node(blocked, pol, cache)
    assert complete
    assert {c // blocked for c in children} == \
        {7432339208719, 341117531003194129}
