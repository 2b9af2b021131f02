#!/usr/bin/env python3
"""Time one fixed job five times and append a record to its BENCH file.

Jobs:
  census   bfs_levels(1, 10) under the stretch factoring policy (800000
           rho iterations, 120 elliptic curves) with no factor cache, so
           every run pays for every factorization. Keeps the node and
           blocked counts of each level.
  explore  bounded_explore([1], 2**16, 28), the walk of the ``walk``
           workload. Keeps the number of reaches and the sha256 of the
           reaches' edge primes, one comma-joined line each.
  explore20
           bounded_explore([1], 2**20, 21), a walk at the edge bound of
           the double-path hunt (ROADMAP item 17). Keeps the explore
           job's summary.
  growth   simulate_growth_model(10**6, 20, 12345), the size of acceptance
           criterion 11. Keeps the sha256 of the ratios' hex strings
           joined by spaces.
  pairs    search_range over [2, 2**22] for irreducible pairs on one
           worker. Keeps the record count, the records per tuple size k
           and the sha256 of the JSONL output.
  pairs2   the pairs job on two workers: the caller and one helper
           process. Keeps the pairs job's summary.
  window   search_range over [5*10**8, 5*10**8 + 2**20) for irreducible
           pairs on one worker, a window narrow enough to be sieved.
           Keeps the pairs job's summary and, counted outside the timing,
           the survivors of each stage: the moduli sieved (k >= 3), those
           whose largest prime r has r**2 < m, those that pass the
           collision filter, and those with pairs.
  modulus  search_modulus(6469693230) for irreducible pairs: the product
           of the first ten primes (no modulus below 10**10 has more
           primes), whose walk files all 10! orderings. Keeps
           the record count, the sha256 of the JSONL output and the peak
           resident set of the process in MB, over all its runs, so it
           also counts what one run leaves alive into the next.
  curve    one elliptic curve (sigma 6) at each B1 of 500, 2000, 11000
           and 50000 on a fixed 210-bit semiprime whose two primes no
           curve can find. Keeps what each curve returned (null: no
           split).
  oracle   brute_force_pairs, the permutation oracle, on the 18 moduli
           of the coprime table (the classes the ``walk`` workload
           watches) and on 9699690 (k = 8), factored outside the timing.
           Keeps the record count and the sha256 of the records' JSONL.

Each record holds the job's parameters, the median and the individual
wall times, the git revision of the checkout, the core count, the Python
version and the job's output summary, so records of different revisions
show whether the output moved. It is appended to ``BENCH_<job>.json`` at
the root of the checkout unless --out names another file.

A shared machine's speed drifts by up to 1.8x over minutes, so the raw
times of two records taken one after the other cannot resolve a change
under about 20%. So every time is taken by one ``Timer``: as
``perfbench/run.py`` does, a fixed pure-Python loop (the probe) is timed
before the first timed call and after each, and each call's time is also
scaled to the reference speed, times ``REF_PROBE_MS`` over the mean of
the probes around it. A repeat's time is the sum of its timed calls. The
record also keeps the probes (``probe_ms``) and the median of the scaled
times (``median_wall_s_at_ref``); a job whose repeat makes several timed
calls (``curve``, one per B1) keeps each call's median ms over the
repeats, raw (``median_ms``) and scaled (``median_ms_at_ref``).

Example:
    PYTHONPATH=src python scripts/bench.py census --note "after the change"
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from emgraph.arith import (EffortPolicy, _ecm_curve, factor,
                           squarefree_stream)
from emgraph.graph import bfs_levels, bounded_explore, simulate_growth_model
from emgraph.modsearch import (SearchConfig, _collision_tables,
                               brute_force_pairs, search_modulus,
                               search_range)

ROOT = Path(__file__).resolve().parent.parent
STRETCH = EffortPolicy(rho_iterations=800_000, ecm_curves=120)
REPEATS = 5
PROBE_LOOPS = 10
# the probe's time on a 2-core x86-64 VM (Python 3.11) at its fast speed,
# the reference of perfbench/run.py
REF_PROBE_MS = 7.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _search(p: dict, timed) -> list:
    return timed(lambda: list(search_range(
        SearchConfig(p["lo"], p["hi"], worker_count=p["workers"]))))


def cpu_probe_ms() -> float:
    """Mean time of perfbench's fixed pure-Python loop: the machine's
    speed now."""
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.mean(times)


class Timer:
    """Probe-scaled timing: the probe is timed when the timer is made and
    after each call, and each call's seconds are kept raw (``walls``) and
    scaled to the reference speed (``at_ref``): times ``REF_PROBE_MS``
    over the mean of the two probes around the call."""

    def __init__(self):
        self.probes, self.walls, self.at_ref = [cpu_probe_ms()], [], []

    def __call__(self, fn, *args):
        """fn(*args), timed."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.probes.append(cpu_probe_ms())
        self.walls.append(wall)
        self.at_ref.append(wall * 2 * REF_PROBE_MS / sum(self.probes[-2:]))
        return result


def _jsonl_sha256(recs: list) -> str:
    return _sha256("".join(r.to_json_line() + "\n" for r in recs))


def _pairs_summary(recs: list) -> dict:
    return {"records": len(recs),
            "per_k": {str(k): n for k, n in sorted(Counter(
                len(r.p.primes) for r in recs).items())},
            "jsonl_sha256": _jsonl_sha256(recs)}


def _stages(p: dict, recs: list) -> dict:
    """Survivors of each pruning stage of the sieve path over the range."""
    sieved = lemma = passed = 0
    for m, primes in squarefree_stream(p["lo"], p["hi"], 3, primes_only=True):
        sieved += 1
        if primes[-1] ** 2 < m:
            lemma += 1
            passed += _collision_tables(primes) is not None
    return {"sieved": sieved, "lemma": lemma, "filter": passed,
            "pairs": len({r.modulus for r in recs})}


def _explore(bound: int, max_level: int) -> tuple:
    """The job of the walk from 1 under bound to max_level."""
    return (
        {"roots": [1], "bound": bound, "max_level": max_level},
        lambda p, timed: timed(lambda: list(bounded_explore(
            p["roots"], p["bound"], p["max_level"]))),
        lambda nodes: {"reaches": len(nodes), "edges_sha256": _sha256("".join(
            ",".join(map(str, nd.edge_primes)) + "\n" for nd in nodes))})


# nextprime(10**31) * nextprime(10**32)
CURVE = {"semiprime": (10 ** 31 + 33) * (10 ** 32 + 49),
         "b1": [500, 2000, 11000, 50000], "sigma": 6}

WINDOW = {"lo": 5 * 10 ** 8, "hi": 5 * 10 ** 8 + (1 << 20) - 1, "workers": 1}

# the moduli of tests/table_data.py's COPRIME_ROWS, then 9699690
ORACLE_MODULI = [
    2813785, 29541655, 32972095, 51254005, 115908845, 123412423, 155186405,
    179491195, 183631045, 241819435, 274715155, 405125435, 451629145,
    471892265, 714350695, 782534665, 805149301, 863399185, 9699690]


def _oracle(p: dict, timed) -> list:
    fzs = [(m, factor(m)) for m in p["moduli"]]
    return timed(lambda: [r for m, fz in fzs
                          for r in brute_force_pairs(m, fz)])

# job -> (the parameters kept in its record, a run of those parameters
# that times its work through the Timer it is given, and the summary kept
# in its record of the last run's output)
JOBS = {
    "census": (
        {"policy": STRETCH.__dict__, "max_level": 10},
        lambda p, timed: timed(bfs_levels, 1, p["max_level"], STRETCH),
        lambda sums: {"levels": [s.node_count for s in sums],
                      "blocked": [s.composite_count for s in sums]}),
    "explore": _explore(1 << 16, 28),
    "explore20": _explore(1 << 20, 21),
    "growth": (
        {"k_max": 10 ** 6, "trials": 20, "seed": 12345},
        lambda p, timed: timed(simulate_growth_model, p["k_max"],
                               p["trials"], p["seed"]),
        lambda stats: {"ratios_sha256": _sha256(
            " ".join(r.hex() for r in stats.ratios))}),
    "pairs": ({"lo": 2, "hi": 1 << 22, "workers": 1}, _search,
              _pairs_summary),
    "pairs2": ({"lo": 2, "hi": 1 << 22, "workers": 2}, _search,
               _pairs_summary),
    "window": (WINDOW, _search, lambda recs: {
        **_pairs_summary(recs), "stages": _stages(WINDOW, recs)}),
    "modulus": (
        {"modulus": 6469693230},
        lambda p, timed: timed(lambda: search_modulus(
            p["modulus"], factor(p["modulus"]))),
        lambda recs: {
            "records": len(recs), "jsonl_sha256": _jsonl_sha256(recs),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}),
    "oracle": ({"moduli": ORACLE_MODULI}, _oracle, lambda recs: {
        "records": len(recs), "jsonl_sha256": _jsonl_sha256(recs)}),
    "curve": (
        CURVE,
        lambda p, timed: [timed(_ecm_curve, p["semiprime"], b1, p["sigma"])
                          for b1 in p["b1"]],
        lambda ds: {"splits": ds}),
}


def revision() -> str:
    """HEAD's short hash, suffixed ``-dirty`` when ``src/`` has edits."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        return rev + ("-dirty" if git("status", "--porcelain", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("job", choices=JOBS)
    ap.add_argument("--out", default=None,
                    help="record file (default BENCH_<job>.json at the root)")
    ap.add_argument("--note", default="", help="free text kept in the record")
    args = ap.parse_args(argv)

    params, run, summary = JOBS[args.job]
    timer, walls, at_ref = Timer(), [], []
    for _ in range(REPEATS):
        done = len(timer.walls)
        result = run(params, timer)
        walls.append(round(sum(timer.walls[done:]), 4))
        at_ref.append(sum(timer.at_ref[done:]))
    calls = len(timer.walls) // REPEATS
    record = {"revision": revision(), "note": args.note, **params,
              "repeats": REPEATS, "median_wall_s": statistics.median(walls),
              "wall_s": walls,
              "median_wall_s_at_ref": round(statistics.median(at_ref), 4),
              "probe_ms": [round(p, 3) for p in timer.probes],
              "cores": os.cpu_count(),
              "python": platform.python_version()}
    if calls > 1:
        for key, times in (("median_ms", timer.walls),
                           ("median_ms_at_ref", timer.at_ref)):
            record[key] = [round(1e3 * statistics.median(times[i::calls]), 2)
                           for i in range(calls)]
    record |= summary(result)
    out = Path(args.out or ROOT / f"BENCH_{args.job}.json")
    records = json.loads(out.read_text())["records"] if out.exists() else []
    records.append(record)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
