"""Span tracing of the emgraph layers, from outside the package.

A traced job runs with wrappers installed over the module attributes
through which the layers call each other (``graph.factor`` is what
``graph`` calls, so wrapping it times every factoring call the census
makes). Each wrapped call, and each ``next()`` on a wrapped generator,
records one span: id, parent span, name, start, end and a tag (the tuple
size of a modulus search, the outcome of a factoring call). Spans stay in
memory and are written out when the benchmark ends; ``layer_metrics``
reduces them to per-layer counts, totals and self times.

Spans do not cross ``fork``, so traced pair searches run with one worker.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

# (owner, attribute, span name, is generator, tag from (args, result));
# the owner is a module of the package, or a class in one
PATCH_POINTS: list[tuple[str, str, str, bool, Optional[Callable]]] = [
    ("cli", "run", "cli.run", False, None),
    ("arith", "is_prime", "arith.is_prime", False, None),
    ("tuples", "is_prime", "arith.is_prime", False, None),
    ("modsearch", "squarefree_stream", "arith.squarefree_stream", True, None),
    ("modsearch", "search_range", "modsearch.search_range", True, None),
    ("modsearch", "_search_chunk", "modsearch.chunk", False, None),
    # search_range reaches the per-modulus search through _pair_search;
    # the tag is (number of primes, pairs found)
    ("modsearch", "_pair_search", "modsearch.search", False,
     lambda a, r: (len(a[1]), len(r))),
    ("modsearch", "residue_base", "tuples.residue_base", False, None),
    ("modsearch", "quadruple_case_of_pair", "classify.kind", False, None),
    ("tuples.PairRecord", "to_json_line", "tuples.encode", False, None),
    ("graph", "bfs_levels", "graph.bfs_levels", False, None),
    ("graph", "expand_node", "graph.expand_node", False, None),
    ("graph", "factor", "arith.factor", False, lambda a, r: r.complete),
    ("graph", "save_frontier", "graph.save_frontier", False, None),
    ("graph", "bounded_explore", "graph.bounded_explore", True, None),
    ("graph", "small_prime_factors", "graph.small_prime_factors", False,
     None),
    ("graph", "watch_hits", "graph.watch_hits", True, None),
    ("graph", "simulate_growth_model", "graph.growth", False,
     lambda a, r: r.k_max * r.trials),
]

# tag of the span recorded for the next() that ends a generator
END = "end"


class Tracer:
    """In-memory span recorder that patches the layer boundaries."""

    def __init__(self, package: Any, run_id: str):
        self.package = package  # namespace of the package's modules
        self.run_id = run_id
        # (span id, parent id, name, start, end, tag)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[Any, str, Any]] = []

    def _call(self, name: str, fn: Callable, tag: Optional[Callable]
              ) -> Callable:
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, name, start, end,
                          tag(args, result) if tag else None))
            return result
        return traced

    def _generator(self, name: str, fn: Callable) -> Callable:
        clock, stack, spans = time.perf_counter, self._stack, self.spans

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    sid = self._next_id
                    self._next_id = sid + 1
                    parent = stack[-1]
                    stack.append(sid)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        spans.append((sid, parent, name, start, clock(), END))
                        return
                    finally:
                        stack.pop()
                    spans.append((sid, parent, name, start, clock(), None))
                    yield item
            finally:
                it.close()
        return traced

    def install(self) -> None:
        """Wrap every patch point; a point that no longer exists is noted."""
        for owner_name, attr, name, is_gen, tag in PATCH_POINTS:
            try:
                owner = self.package
                for part in owner_name.split("."):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                if f"{owner_name}.{attr}" not in self.missing:
                    self.missing.append(f"{owner_name}.{attr}")
                continue
            wrapped = (self._generator(name, original) if is_gen
                       else self._call(name, original, tag))
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,span,parent,name,start,end,tag\n")
            for sid, parent, name, start, end, tag in self.spans:
                if isinstance(tag, tuple):
                    tag = ":".join(str(v) for v in tag)
                fh.write(f"{self.run_id},{sid},{parent},{name},{start:.9f},"
                         f"{end:.9f},{'' if tag is None else tag}\n")


K_BUCKETS = ("k3", "k4", "k5", "k6", "k7plus")

# name -> unit, in the order printed
PER_LAYER_UNITS: dict[str, str] = {
    "arith.sieve_s": "s",
    "arith.sieve_moduli": "count",
    "arith.factor_calls": "count",
    "arith.factor_s": "s",
    "arith.factor_p50_ms": "ms",
    "arith.factor_p90_ms": "ms",
    "arith.factor_max_ms": "ms",
    "arith.factor_blocked": "count",
    "arith.is_prime_calls": "count",
    "arith.is_prime_s": "s",
    "arith.cache_writes": "count",
    **{f"modsearch.search_s.{k}": "s" for k in K_BUCKETS},
    **{f"modsearch.moduli.{k}": "count" for k in K_BUCKETS},
    **{f"modsearch.pairs.{k}": "count" for k in K_BUCKETS},
    "modsearch.search_p50_us": "us",
    "modsearch.search_p999_us": "us",
    "modsearch.chunks": "count",
    "modsearch.chunk_max_s": "s",
    "modsearch.parallel_eff": "ratio",
    "tuples.residue_base_calls": "count",
    "tuples.residue_base_s": "s",
    "tuples.encode_s": "s",
    "tuples.records": "count",
    "classify.kind_calls": "count",
    "classify.kind_s": "s",
    "graph.expand_calls": "count",
    "graph.expand_s": "s",
    "graph.census_self_s": "s",
    "graph.frontier_save_s": "s",
    "graph.reaches": "count",
    "graph.small_prime_factors_calls": "count",
    "graph.small_prime_factors_s": "s",
    "graph.explore_self_s": "s",
    "graph.watch_s": "s",
    "graph.watch_hits": "count",
    "graph.growth_s": "s",
    "graph.growth_steps": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: Iterable[tuple], jobs: int) -> dict[str, float]:
    """Per-layer counts and times, per traced job, from recorded spans.

    Totals and counts are divided by ``jobs``; quantiles and maxima are
    over all spans. A layer the workload never calls reads 0.
    """
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _tag in spans:
        child_time[parent] += end - start
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    search_by_k = {k: [0.0, 0, 0] for k in K_BUCKETS}
    blocked = 0
    steps = 0
    for sid, _parent, name, start, end, tag in spans:
        d = end - start
        total[name] += d
        self_time[name] += d - child_time[sid]
        if tag != END:
            count[name] += 1
        if name in ("arith.factor", "modsearch.search", "modsearch.chunk"):
            durations[name].append(d)
        if name == "modsearch.search":
            k, found = tag
            bucket = search_by_k[K_BUCKETS[min(k, 7) - 3]]
            bucket[0] += d
            bucket[1] += 1
            bucket[2] += found
        elif name == "arith.factor" and not tag:
            blocked += 1
        elif name == "graph.growth":
            steps += tag
    n = max(jobs, 1)
    out = {
        "arith.sieve_s": total["arith.squarefree_stream"] / n,
        "arith.sieve_moduli": count["arith.squarefree_stream"] / n,
        "arith.factor_calls": count["arith.factor"] / n,
        "arith.factor_s": total["arith.factor"] / n,
        "arith.factor_p50_ms": 1e3 * _quantile(durations["arith.factor"], 0.5),
        "arith.factor_p90_ms": 1e3 * _quantile(durations["arith.factor"], 0.9),
        "arith.factor_max_ms": 1e3 * max(durations["arith.factor"],
                                         default=0.0),
        "arith.factor_blocked": blocked / n,
        "arith.is_prime_calls": count["arith.is_prime"] / n,
        "arith.is_prime_s": total["arith.is_prime"] / n,
        "modsearch.search_p50_us":
            1e6 * _quantile(durations["modsearch.search"], 0.5),
        "modsearch.search_p999_us":
            1e6 * _quantile(durations["modsearch.search"], 0.999),
        "modsearch.chunks": count["modsearch.chunk"] / n,
        "modsearch.chunk_max_s": max(durations["modsearch.chunk"],
                                     default=0.0),
        "tuples.residue_base_calls": count["tuples.residue_base"] / n,
        "tuples.residue_base_s": total["tuples.residue_base"] / n,
        "tuples.encode_s": total["tuples.encode"] / n,
        "classify.kind_calls": count["classify.kind"] / n,
        "classify.kind_s": total["classify.kind"] / n,
        "graph.expand_calls": count["graph.expand_node"] / n,
        "graph.expand_s": total["graph.expand_node"] / n,
        "graph.census_self_s": self_time["graph.bfs_levels"] / n,
        "graph.frontier_save_s": total["graph.save_frontier"] / n,
        "graph.reaches": count["graph.bounded_explore"] / n,
        "graph.small_prime_factors_calls":
            count["graph.small_prime_factors"] / n,
        "graph.small_prime_factors_s": total["graph.small_prime_factors"] / n,
        "graph.explore_self_s": self_time["graph.bounded_explore"] / n,
        "graph.watch_s": self_time["graph.watch_hits"] / n,
        "graph.watch_hits": count["graph.watch_hits"] / n,
        "graph.growth_s": total["graph.growth"] / n,
        "graph.growth_steps": steps / n,
        "cli.self_s": self_time["cli.run"] / n,
    }
    for k, (secs, moduli, pairs) in search_by_k.items():
        out[f"modsearch.search_s.{k}"] = secs / n
        out[f"modsearch.moduli.{k}"] = moduli / n
        out[f"modsearch.pairs.{k}"] = pairs / n
    return out
