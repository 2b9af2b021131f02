"""Construction and exploration of the Euclid-Mullin graph.

The graph rooted at n has an edge from m to m*p for every distinct prime
p dividing m+1, so a directed path is a tuple of edge primes. This module
expands nodes through the factoring ladder, runs level censuses with
checkpoints, explores deep levels following only small-prime edges,
watches for residue classes that base loops, computes the least/largest
prime factor sequences, scans for unique-child chains, and simulates the
heuristic growth model for node sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import astuple, dataclass
from functools import partial
from itertools import repeat, starmap
from operator import le
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

# small_prime_factors is not called here. perfbench/tracing.py patches it,
# and perfbench/test_perfbench.py fails on a missing patch point
# (untraced_patch_points == []); ROADMAP item 5 deletes both together.
from .arith import (DEFAULT_POLICY, LADDER_VERSION, EffortPolicy,
                    FactorCache, factor, is_prime, small_prime_factors,
                    small_prime_factors_many, write_durably)
from .tuples import ResidueClass, json_int


class Node(NamedTuple):
    """A graph node: its value and the edge primes of one path to it."""

    value: int
    edge_primes: tuple[int, ...] = ()

    @property
    def level(self) -> int:
        return len(self.edge_primes)

    def child(self, p: int) -> "Node":
        return Node(self.value * p, self.edge_primes + (p,))


@dataclass(frozen=True)
class LevelSummary:
    """Distinct node values at one level, plus blocked expansions into it."""

    level: int
    node_count: int
    composite_count: int


def _watch_int(obj: dict, key: str) -> int:
    """The integer at ``key`` of a watch line: a JSON integer or a decimal
    string, never a float or a bool."""
    if key not in obj:
        raise ValueError(f"no {key!r}")
    return json_int(obj[key], key)


@dataclass(frozen=True)
class WatchList:
    classes: tuple[ResidueClass, ...]

    @staticmethod
    def load(path: str) -> "WatchList":
        """Read one JSON object per line, its residue ``a`` and modulus
        ``m`` integers or decimal strings. A line that is not such an
        object, or not an invertible reduced class, or a class listed
        on an earlier line, raises ValueError naming the file and line."""
        classes: dict[ResidueClass, int] = {}  # class -> its line
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("not a JSON object")
                    a, m = (_watch_int(obj, key) for key in ("a", "m"))
                    rc = ResidueClass(a, m)
                    if rc in classes:
                        raise ValueError("repeats the class on line "
                                         f"{classes[rc]}")
                    classes[rc] = lineno
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad watch line "
                                     f"{line!r}: {exc}") from None
        return WatchList(tuple(classes))


def expand_node(value: int, policy: EffortPolicy = DEFAULT_POLICY,
                cache: Optional[FactorCache] = None
                ) -> tuple[bool, list[int]]:
    """(complete, children) of a node value: one child value*p for each
    distinct known prime p of value+1.

    ``complete`` is False when the factorization left a composite
    cofactor, whose primes are children still hidden; a grown cache can
    retry it.
    """
    fz = factor(value + 1, policy, cache)
    return fz.complete, [value * p for p in fz.primes]


def _policy_fingerprint(policy: EffortPolicy) -> str:
    return ":".join([*(str(v) for v in astuple(policy)),
                     f"ladder{LADDER_VERSION}"])


def save_frontier(path: str, root: int, level: int, policy: EffortPolicy,
                  values: Iterable[int],
                  summaries: Sequence[LevelSummary]) -> None:
    """Write a census checkpoint: a JSON header line, then one frontier
    value per line in decimal. The header carries the sha256 of the value
    lines. ``write_durably`` writes it, so a run killed mid-write keeps
    the last checkpoint whole."""
    body = "".join(f"{v}\n" for v in values)
    header = json.dumps({
        "level": level,
        "policy": _policy_fingerprint(policy),
        "root": str(root),
        "summaries": [[s.level, s.node_count, s.composite_count]
                      for s in summaries],
        "values_sha256": hashlib.sha256(body.encode()).hexdigest(),
    }, sort_keys=True)
    write_durably(path, header + "\n" + body)


def _int_triple(row: object) -> bool:
    return (isinstance(row, list) and len(row) == 3
            and all(type(x) is int for x in row))


def load_frontier(path: str) -> tuple[int, int, str, list[LevelSummary],
                                      list[int]]:
    """(root, level, policy fingerprint, summaries, frontier values) of a
    census checkpoint.

    ValueError naming the file unless the header holds an integer triple
    for each level 0 to ``level``, and the lines after it, each ended by
    a newline, are as many values as the last triple counts: positive
    integers in strictly increasing order, whose lines have the sha256
    that the header gives.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        head, *lines, end = text.split("\n")
        if end:
            raise ValueError("the last line is cut short")
        header = json.loads(head)
        level, rows = header["level"], header["summaries"]
        if not (type(level) is int and all(map(_int_triple, rows))
                and [row[0] for row in rows] == list(range(level + 1))):
            raise ValueError("the summaries are not integer triples for "
                             f"levels 0 to {level}")
        summaries = [LevelSummary(*row) for row in rows]
        values = [int(line) for line in lines]
        if len(values) != summaries[-1].node_count:
            raise ValueError(f"{len(values)} values, but level {level} "
                             f"counts {summaries[-1].node_count}")
        if values and values[0] < 1 or any(
                a >= b for a, b in zip(values, values[1:])):
            raise ValueError("the values are not positive and strictly "
                             "increasing")
        if header["values_sha256"] != hashlib.sha256(
                text[len(head) + 1:].encode()).hexdigest():
            raise ValueError("the value lines do not match values_sha256")
        return (json_int(header["root"], "root"), level, header["policy"],
                summaries, values)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed census checkpoint: "
                         f"{exc}") from exc


def bfs_levels(root: int, max_level: int,
               policy: EffortPolicy = DEFAULT_POLICY,
               cache: Optional[FactorCache] = None,
               checkpoint: Optional[str] = None) -> list[LevelSummary]:
    """Level census by breadth-first expansion with value deduplication.

    ``composite_count`` for level L counts the unfactored cofactors hit
    while expanding level L-1, i.e. the children still hidden at L. The
    frontier values and the summaries so far are checkpointed after each
    level for resumption from the same root under the same policy and
    factoring ladder. A checkpoint already at or past max_level answers
    from its summaries and is left as it is. A root below 1, a negative
    max_level, a malformed checkpoint, or one of another root, policy or
    ladder raises ValueError and leaves the file as it is: delete it to
    start again.
    """
    if root < 1:
        raise ValueError("root must be >= 1")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    frontier = [root]
    level = 0
    summaries = [LevelSummary(0, 1, 0)]
    if checkpoint is not None:
        try:
            saved_root, lv, fp, sums, values = load_frontier(checkpoint)
        except FileNotFoundError:
            pass
        else:
            want = _policy_fingerprint(policy)
            if (saved_root, fp) != (root, want):
                raise ValueError(
                    f"checkpoint {checkpoint} is a census from root "
                    f"{saved_root} under policy {fp}, not root {root} under "
                    f"policy {want}: delete it to start again")
            if lv >= max_level:
                return sums[:max_level + 1]
            level, summaries, frontier = lv, sums, values

    while level < max_level:
        children: set[int] = set()
        blocked = 0
        for v in frontier:
            complete, found = expand_node(v, policy, cache)
            blocked += not complete
            children.update(found)
        frontier = sorted(children)
        level += 1
        summaries.append(LevelSummary(level, len(frontier), blocked))
        if checkpoint is not None:
            save_frontier(checkpoint, root, level, policy, frontier,
                          summaries)
    return summaries


def bounded_explore(roots: Sequence[int], bound: int,
                    max_level: int) -> Iterator[Node]:
    """Breadth-first walk following only edges with prime <= bound.

    Child primes are the primes up to the bound dividing value+1, found
    for a whole level at once by one remainder tree under the product of
    those primes: no general factoring is ever attempted. Every reach is
    yielded, but each value is expanded only once, so a value surfacing
    twice in the stream marks two distinct edge paths to it. A root below
    1, a bound below 2 or a negative max_level raises ValueError.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    frontier = [Node(r) for r in roots]
    seen = {nd.value for nd in frontier}
    if min(seen, default=1) < 1:
        raise ValueError("roots must be >= 1")
    for nd in frontier:
        yield nd
    level = 0
    while frontier and level < max_level:
        nxt = []
        children = small_prime_factors_many(
            [nd.value + 1 for nd in frontier], bound)
        for nd, ps in zip(frontier, children):
            for p in ps:
                ch = nd.child(p)
                yield ch
                v = ch.value
                if v not in seen:
                    seen.add(v)
                    nxt.append(ch)
        frontier = nxt
        level += 1


def watch_hits(nodes: Iterable[Node], w: WatchList
               ) -> Iterator[tuple[Node, ResidueClass]]:
    """Nodes landing in a watched residue class: each is a loop base.

    Per node the hits come in the order of ``w.classes``. Each node takes
    one remainder per distinct modulus, which lands in at most one of its
    classes.
    """
    by_modulus: dict[int, dict[int, ResidueClass]] = {}
    for rc in w.classes:
        by_modulus.setdefault(rc.m, {})[rc.a] = rc
    groups = list(by_modulus.items())
    order = {rc: i for i, rc in enumerate(w.classes)}.__getitem__
    for nd in nodes:
        v = nd.value
        hits = [rc for m, classes in groups
                if (rc := classes.get(v % m)) is not None]
        if len(hits) > 1:
            hits.sort(key=order)
        for rc in hits:
            yield nd, rc


def verify_path(n: int, primes: Sequence[int]) -> bool:
    """Check the full divisibility chain for edge list ``primes`` from n."""
    ps = tuple(primes)
    if len(set(ps)) != len(ps):
        return False
    if not all(is_prime(p) for p in ps):
        return False
    acc = n
    for p in ps:
        if (acc + 1) % p:
            return False
        acc *= p
    return True


# Edge primes of the two known level-21 values reachable from 1 by two
# distinct paths; swapping 73 and 593 gives the second path of each.
DOUBLE_PATH_EDGE_LISTS = (
    tuple(int(s) for s in (
        "2", "3", "7", "43", "139", "50207", "1607", "38891",
        "71609249149971437", "104851",
        "5914302068415095755097398828253214149923",
        "103", "1750880132687750604376675981842334069",
        "103451", "193", "22133", "5587528960270206397663051",
        "73", "5", "13", "593",
    )),
    tuple(int(s) for s in (
        "2", "3", "7", "43", "139", "50207", "23", "217733",
        "4024572619121", "539402497343", "72208156847017648587223", "79",
        "7269452239696911635939429787229069136737446558564286318153183",
        "8689", "107",
        "2895777621755988962510175673615781760909999040975810951",
        "531543631", "73", "5", "13", "593",
    )),
)

_LOOP_BLOCK = (73, 5, 13, 593)
_LOOP_BLOCK_RESIDUES = (1125513, 1861426)


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def lines(self) -> list[str]:
        return [f"{'PASS' if p else 'FAIL'}  {name}" for name, p in self.checks]


def _swap(seq: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    return tuple(b if v == a else a if v == b else v for v in seq)


def verify_double_paths() -> CheckReport:
    """Certify the two known nodes connected to 1 by two distinct paths.

    For each edge list: the stated order is a valid path from 1, the
    order with 73 and 593 swapped is a second valid path, the two orders
    are distinct tuples of equal product, both end in the quadruple block
    {73, 5, 13, 593}, and the block's loop base lands in a known residue
    class of modulus 2813785. A control swap (5 and 13) must fail.
    """
    checks: list[tuple[str, bool]] = []
    loop_modulus = math.prod(_LOOP_BLOCK)
    for i, edges in enumerate(DOUBLE_PATH_EDGE_LISTS, start=1):
        swapped = _swap(edges, 73, 593)
        checks.append((f"number {i}: stated order is a valid path from 1",
                       verify_path(1, edges)))
        checks.append((f"number {i}: 73<->593 swap is a valid path from 1",
                       verify_path(1, swapped)))
        checks.append((f"number {i}: the two orders are distinct",
                       edges != swapped))
        checks.append((f"number {i}: the two orders reach one value",
                       math.prod(edges) == math.prod(swapped)))
        checks.append((f"number {i}: level is 21", len(edges) == 21))
        tail = edges[-4:]
        checks.append((f"number {i}: path ends in the {{73,5,13,593}} block",
                       sorted(tail) == sorted(_LOOP_BLOCK)))
        base = math.prod(edges[:-4])
        checks.append(
            (f"number {i}: loop base lies in a known class mod {loop_modulus}",
             base % loop_modulus in _LOOP_BLOCK_RESIDUES))
        checks.append((f"number {i}: control 5<->13 swap is not a valid path",
                       not verify_path(1, _swap(edges, 5, 13))))
    return CheckReport(tuple(checks))


def euclid_mullin(n: int, steps: int, policy: EffortPolicy = DEFAULT_POLICY,
                  rule: str = "least",
                  cache: Optional[FactorCache] = None) -> list[int]:
    """Iterate the least/largest prime factor sequence from start value n.

    Stops early with a partial list when the factoring effort cannot
    certify the requested prime: the least factor is still certain when
    the smallest known prime is within the policy's small-prime bound
    (``factor`` finds every prime up to it), while the largest
    requires a complete factorization. A start below 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("start must be >= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rule not in ("least", "largest"):
        raise ValueError("rule must be 'least' or 'largest'")
    out: list[int] = []
    acc = n
    for _ in range(steps):
        fz = factor(acc + 1, policy, cache)
        if not fz.primes:
            break
        if rule == "least":
            p = fz.primes[0]
            if not fz.complete and p > policy.small_prime_bound:
                break
        else:
            if not fz.complete:
                break
            p = fz.primes[-1]
        out.append(p)
        acc *= p
    return out


def unique_chain_scan(nodes: Iterable[Node], ell: int) -> Iterator[Node]:
    """Nodes whose next ell descendants each have exactly one child.

    Equivalent to value+1 being prime at each of the ell successive steps.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    for nd in nodes:
        v = nd.value
        ok = True
        for _ in range(ell):
            nxt = v + 1
            if not is_prime(nxt):
                ok = False
                break
            v *= nxt
        if ok:
            yield nd


# draws per cut in the growth model's log-log regime
_GROWTH_CHUNK = 1024


@dataclass(frozen=True)
class GrowthStats:
    """Per-trial terminal ratios of the growth model, with aggregates."""

    k_max: int
    trials: int
    seed: int
    ratios: tuple[float, ...]
    mean: float
    stddev: float


def simulate_growth_model(k_max: int, trials: int, seed: int) -> GrowthStats:
    """Randomized growth model for node sizes along a path from the root.

    Each trial starts at n = 1, and each step multiplies n by
    exp(log(n+1)**theta) with theta uniform on [0, 1). The iteration
    tracks log(n) while values are small, then y = log(log(n)) with the
    update y += log1p(exp((theta-1)*y)), numerically stable because the
    exponent is nonpositive. Reports y/sqrt(2k) per trial.

    In the log-log regime most steps leave y exactly as it was, and only
    the draws that can move it reach Python code. The thetas are drawn in
    chunks; a draw below cut = 1 + (log(ulp(y)) - 2)/y, taken at the start
    of its chunk, is skipped. Skipping is exact: for theta < cut the
    increment is at most exp((theta-1)*y) < ulp(y)*e**-2 (log1p(u) <= u),
    well under the half ulp that y + increment rounds away. A cut taken
    at the chunk's start stays below the true one, since y never
    decreases and cut(y) never decreases with it: within a binade it
    rises with y, and where the ulp doubles it jumps up. Every theta is
    still drawn, one per step, so the random stream is unchanged and the
    result is bit-identical to a per-step loop.
    """
    if k_max < 1 or trials < 1:
        raise ValueError("k_max and trials must be >= 1")
    log1p, exp, log, ulp = math.log1p, math.exp, math.log, math.ulp
    ratios = []
    scale = math.sqrt(2 * k_max)
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        l = 0.0  # log of the node value, from n = 1
        k = 0
        # small regime: keep the +1 inside log(n+1) exact
        while k < k_max and l < 120.0:
            theta = rng.random()
            l += (l + log1p(exp(-l))) ** theta
            k += 1
        if k == k_max:
            ratios.append(log(l) / scale)
            continue
        y = log(l)
        for start in range(k, k_max, _GROWTH_CHUNK):
            cut = 1.0 + (log(ulp(y)) - 2.0) / y
            draws = starmap(rng.random,
                            repeat((), min(_GROWTH_CHUNK, k_max - start)))
            for theta in filter(partial(le, cut), draws):
                y += log1p(exp((theta - 1.0) * y))
        ratios.append(y / scale)
    mean = sum(ratios) / trials
    var = sum((r - mean) ** 2 for r in ratios) / trials
    return GrowthStats(k_max, trials, seed, tuple(ratios),
                       mean, math.sqrt(var))
