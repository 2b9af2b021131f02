"""Command-line front end.

Data goes to stdout (or --out) as JSONL or CSV with every integer
rendered as a decimal string; diagnostics go to stderr. Exit codes:
0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence, TextIO

from .arith import DEFAULT_POLICY, EffortPolicy, FactorCache
from . import graph, modsearch
from .tuples import PairRecord


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _factoring(args: argparse.Namespace
               ) -> tuple[EffortPolicy, Optional[FactorCache]]:
    """The policy (the defaults, then the flags) and the factor cache of a
    command that factors."""
    flags = {f.name: getattr(args, f.name) for f in fields(EffortPolicy)
             if getattr(args, f.name) is not None}
    return (replace(DEFAULT_POLICY, **flags),
            FactorCache(args.cache) if args.cache else None)


def _emit(out: TextIO, line: str) -> None:
    out.write(line + "\n")


def _emit_json(out: TextIO, obj: dict) -> None:
    _emit(out, json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _record_csv_row(r: PairRecord, density: object = "") -> str:
    return ",".join([
        " ".join(str(v) for v in r.p.primes),
        " ".join(str(v) for v in r.q.primes),
        str(r.modulus),
        str(r.a),
        r.kind,
        str(density),
    ])


TABLE_HEADER = "tuple,partner,modulus,residues,kind,inverse_density"


def export_tables(records: Sequence[PairRecord]) -> list[str]:
    """CSV rows for record groups, one row per record, grouped by modulus.

    Each group's inverse density (totient over distinct residue classes)
    is repeated on its rows.
    """
    lines = [TABLE_HEADER]
    by_modulus: dict[int, list[PairRecord]] = {}
    for r in records:
        by_modulus.setdefault(r.modulus, []).append(r)
    for m in sorted(by_modulus):
        group = by_modulus[m]
        density = modsearch.density_report(group).inverse_density
        for r in group:
            lines.append(_record_csv_row(r, density))
    return lines


def _search_config(args: argparse.Namespace) -> modsearch.SearchConfig:
    return modsearch.SearchConfig(
        lo=args.lo, hi=args.hi, min_k=args.min_k,
        coprime_to=args.coprime_to, worker_count=args.workers)


def _records_kept(args: argparse.Namespace) -> int:
    """Records of --out that a resumed search-pairs run keeps: the count in
    its checkpoint."""
    if args.command != "search-pairs" or not args.checkpoint:
        return 0
    return modsearch.resume_point(_search_config(args), args.checkpoint)[1]


class _Out:
    """The --out file, opened at the first line written: input rejected
    before any output leaves an existing file as it was. A resumed
    search-pairs run keeps the first ``keep`` lines, checked here, and
    writes after them."""

    def __init__(self, path: str, keep: int):
        self.path, self.keep = path, keep
        self.kept_bytes = 0
        self.fh: Optional[TextIO] = None
        if keep:
            with open(path, "rb") as fh:
                for _ in range(keep):
                    if not fh.readline().endswith(b"\n"):
                        raise ValueError(f"{path} holds fewer than the "
                                         f"{keep} records its checkpoint "
                                         "counts")
                self.kept_bytes = fh.tell()

    def open(self) -> TextIO:
        """The file, truncated after its kept lines on the first call."""
        if self.fh is None:
            if self.keep:
                os.truncate(self.path, self.kept_bytes)
            self.fh = open(self.path, "a" if self.keep else "w",
                           encoding="utf-8")
        return self.fh

    def write(self, text: str) -> int:
        return self.open().write(text)

    def flush(self) -> None:
        self.open().flush()

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _cmd_search_pairs(args: argparse.Namespace, out: TextIO) -> int:
    for r in modsearch.search_range(_search_config(args),
                                    checkpoint=args.checkpoint):
        _emit(out, r.to_json_line())
        # the record reaches the file before a checkpoint counts it
        out.flush()
    return 0


def _cmd_expand(args: argparse.Namespace, out: TextIO) -> int:
    policy, cache = _factoring(args)
    summaries = graph.bfs_levels(args.root, args.max_level, policy, cache,
                                 checkpoint=args.checkpoint)
    if args.format == "csv":
        _emit(out, "level,nodes,composites")
        for s in summaries:
            _emit(out, f"{s.level},{s.node_count},{s.composite_count}")
    else:
        for s in summaries:
            _emit_json(out, {
                "level": str(s.level), "nodes": str(s.node_count),
                "composites": str(s.composite_count)})
    return 0


def _node_obj(nd: graph.Node, root: int) -> dict:
    return {"root": str(root), "edges": [str(p) for p in nd.edge_primes],
            "level": str(nd.level), "value": str(nd.value)}


def _cmd_explore(args: argparse.Namespace, out: TextIO) -> int:
    nodes = graph.bounded_explore([args.root], args.bound, args.max_level)
    if args.watch:
        w = graph.WatchList.load(args.watch)
        for nd, rc in graph.watch_hits(nodes, w):
            obj = _node_obj(nd, args.root)
            obj["hit_a"] = str(rc.a)
            obj["hit_m"] = str(rc.m)
            _emit_json(out, obj)
    else:
        for nd in nodes:
            _emit_json(out, _node_obj(nd, args.root))
    return 0


def _cmd_verify_theorem(args: argparse.Namespace, out: TextIO) -> int:
    rep = graph.verify_double_paths()
    for line in rep.lines():
        _emit(out, line)
    _emit(out, "OK" if rep.ok else "FAILED")
    return 0 if rep.ok else 2


def _cmd_sequence(args: argparse.Namespace, out: TextIO) -> int:
    policy, cache = _factoring(args)
    terms = graph.euclid_mullin(args.start, args.steps, policy,
                                rule=args.rule, cache=cache)
    for t in terms:
        _emit(out, str(t))
    if len(terms) < args.steps:
        print(f"stopped after {len(terms)} terms: factoring effort "
              "exhausted", file=sys.stderr)
    return 0


def _cmd_chains(args: argparse.Namespace, out: TextIO) -> int:
    nodes = graph.bounded_explore([args.root], args.bound, args.max_level)
    for nd in graph.unique_chain_scan(nodes, args.ell):
        _emit_json(out, _node_obj(nd, args.root))
    return 0


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    # every k runs before the first line is written, so a k that is
    # rejected leaves --out as it was
    runs = [graph.simulate_growth_model(k, args.trials, args.seed)
            for k in args.k]
    for st in runs:
        _emit_json(out, {
            "k_max": str(st.k_max), "trials": str(st.trials),
            "seed": str(st.seed),
            "ratios": [repr(r) for r in st.ratios],
            "mean": repr(st.mean), "stddev": repr(st.stddev),
        })
    return 0


def _cmd_tables(args: argparse.Namespace, out: TextIO) -> int:
    source = open(args.records, "r", encoding="utf-8") if args.records \
        else sys.stdin
    records = []
    try:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                rec = PairRecord.from_json_line(line)
                # the records layer derives the kind; PairRecord cannot
                # check it, as classify imports tuples
                built = modsearch._records_for(
                    [(rec.p.primes, rec.q.primes)])
                if [rec] != built:
                    raise ValueError("the search writes this pair with kind "
                                     f"{built[0].kind!r}")
                records.append(rec)
            except ValueError as exc:
                raise ValueError(f"{args.records or '<stdin>'}:{lineno}: "
                                 f"bad pair record: {exc}") from None
    finally:
        if args.records:
            source.close()
    for line in export_tables(records):
        _emit(out, line)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="emgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name: str, func, help: str, *,
                factors: bool = False) -> argparse.ArgumentParser:
        """A subcommand with --out, plus --cache and one flag per
        EffortPolicy field when it factors."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="output file (stdout)")
        if factors:
            p.add_argument("--cache", default=None, help="factor cache file")
            for f in fields(EffortPolicy):
                p.add_argument("--" + f.name.replace("_", "-"),
                               type=type(f.default), default=None)
        return p

    p = command("search-pairs", _cmd_search_pairs,
                "find equivalent tuple pairs by modulus range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--min-k", type=int, default=3)
    p.add_argument("--coprime-to", type=int, default=1)
    p.add_argument("--irreducible-only", action="store_true",
                   help="no effect: every search is irreducible")
    p.add_argument("--workers", type=int, default=1,
                   help="searching processes, this one among them")
    p.add_argument("--checkpoint", default=None)

    p = command("expand", _cmd_expand, "level census from a root",
                factors=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--root", type=int, default=1)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--checkpoint", default=None)

    p = command("explore", _cmd_explore,
                "deep walk following only small-prime edges")
    p.add_argument("--root", type=int, default=1)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--watch", default=None,
                   help="JSONL residue classes to report hits against")

    command("verify-theorem", _cmd_verify_theorem,
            "check the two known double-path nodes")

    p = command("sequence", _cmd_sequence,
                "least/largest prime factor walk", factors=True)
    p.add_argument("--rule", choices=("least", "largest"), default="least")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", type=int, default=1)

    p = command("chains", _cmd_chains, "nodes followed by unique-child runs")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--root", type=int, default=1)
    p.add_argument("--bound", type=int, default=1 << 16)
    p.add_argument("--max-level", type=int, default=10)

    p = command("simulate", _cmd_simulate,
                "growth model statistics, one line per k")
    p.add_argument("--k", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("tables", _cmd_tables, "render records as grouped CSV")
    p.add_argument("--records", default=None,
                   help="JSONL input file (default stdin)")
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = None
    try:
        keep = _records_kept(args)
        if args.out:
            out = _Out(args.out, keep)
        code = args.func(args, out or sys.stdout)
        if out is not None:
            out.open()  # a run with no output still truncates the file
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not None:
            out.close()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
