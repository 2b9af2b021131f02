#!/usr/bin/env python3
"""Split rates of one elliptic curve and of the short rho pass, by the
size of the smallest factor, and the ladder constants they select.

For each size b of 20, 22, ..., 70 bits, SEMIPRIMES semiprimes n = p*q
are drawn by ``random.Random(b)``: p a random prime of b bits and q one
of max(100 - b, b + 8) bits, so n has 100 bits until p has 46. On them:

  rho  the short pass of the factoring ladder (one Brent rho polynomial)
       at each budget of RHO_BUDGETS, once on each semiprime;
  ecm  one curve at each B1 of ECM_B1 (stage 2 to 100*B1), in rounds of
       one curve on each semiprime, the curve of round j with sigma
       6 + j as the ladder numbers its curves. A B1 stops after the
       first round that brings its splits to SPLITS, or after ROUNDS.

Each cell keeps its tries, its splits and its seconds; the rate is
splits per try and the ms per split is the cell's time over its splits.
The semiprimes, curves and so the tries and splits are deterministic;
only the seconds vary with the machine.

The rule (``choose``): the short rho pass and a first rung of curves
in front of the ramp's 2000 rung are chosen together. For a rho budget
and a ramp, the expected ms to split a semiprime of one size is that of
the short pass, then of each curve, rung by rung, until one splits, each
try costing the table's ms per try at that size and splitting at its
rate (curves past the ramp are not counted). Of every budget of the
table and every first rung (count, B1) with count 0 to MAX_COUNT and a
B1 of the table below 2000, followed by the later rungs LATER_RUNGS
(Zimmermann and Dodson's rows for factors of 15 and 20 digits, "20
Years of ECM", ANTS 2006), the rule takes the one with the least
geometric mean of that expected ms over every size of the table. The
geometric mean weighs a saving of a tenth at one size as much as at any
other, so neither the cheap small factors nor the dear large ones set
the choice alone.

Writes ``SPLIT_RATES.json`` at the root of the checkout (or --out) and
prints the selection. About seven minutes on one core of a 2-core VM.

Example:
    PYTHONPATH=src python scripts/split_rates.py
"""

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

from emgraph.arith import _ecm_curve, _rho_brent, is_prime

ROOT = Path(__file__).resolve().parent.parent
SIZES = range(20, 71, 2)
SEMIPRIMES = 32
RHO_BUDGETS = (1024, 2048, 4096)
ECM_B1 = (250, 500, 1000, 2000, 11000)
SPLITS, ROUNDS = 24, 8

LATER_RUNGS = ((25, 2000), (90, 11000))
MAX_COUNT = 60


def _prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        while p.bit_length() == bits:
            if is_prime(p):
                return p
            p += 2


def semiprimes(bits: int) -> list[tuple[int, int]]:
    """The primes (p, q) of the semiprimes of one size, the same on every
    run."""
    rng = random.Random(bits)
    return [(_prime(rng, bits), _prime(rng, max(100 - bits, bits + 8)))
            for _ in range(SEMIPRIMES)]


def _cell(tries: int, splits: int, seconds: float) -> dict:
    return {"tries": tries, "splits": splits, "s": round(seconds, 4),
            "rate": round(splits / tries, 4),
            "ms_per_split": (round(1000 * seconds / splits, 2)
                             if splits else None)}


def measure(bits: int, budgets=RHO_BUDGETS, b1s=ECM_B1) -> dict:
    """The row of one factor size."""
    ns = [p * q for p, q in semiprimes(bits)]
    row = {"bits": bits, "rho": {}, "ecm": {}}
    for budget in budgets:
        t0, splits = time.perf_counter(), 0
        for n in ns:
            splits += _rho_brent(n, budget, None, (1,)) is not None
        row["rho"][str(budget)] = _cell(len(ns), splits,
                                        time.perf_counter() - t0)
    for b1 in b1s:
        t0, splits, rounds = time.perf_counter(), 0, 0
        while rounds < ROUNDS and splits < SPLITS:
            for n in ns:
                splits += _ecm_curve(n, b1, 6 + rounds, None) is not None
            rounds += 1
        row["ecm"][str(b1)] = _cell(rounds * len(ns), splits,
                                    time.perf_counter() - t0)
    return row


def _ladder_ms(row: dict, budget: int, rungs) -> float:
    """Expected ms to split a semiprime of the row's size: the short pass,
    then curves rung by rung until one splits."""
    def per_try(cell):
        return 1000 * cell["s"] / cell["tries"], cell["splits"] / cell["tries"]

    ms, left = per_try(row["rho"][str(budget)])
    left = 1 - left  # the share the short pass leaves
    for count, b1 in rungs:
        t, rate = per_try(row["ecm"][str(b1)])
        miss = (1 - rate) ** count
        ms += left * t * (count if rate == 0 else (1 - miss) / rate)
        left *= miss
    return ms


def choose(table: dict) -> dict:
    """The short rho budget and the ramp the rule selects from a table."""
    rows = table["rows"]
    best = None
    for budget in RHO_BUDGETS:
        for b1 in (b for b in ECM_B1 if b < LATER_RUNGS[0][1]):
            for count in range(MAX_COUNT + 1):
                ramp = ((count, b1),) * bool(count) + LATER_RUNGS
                ms = math.exp(sum(math.log(_ladder_ms(r, budget, ramp))
                                  for r in rows) / len(rows))
                if best is None or ms < best[0]:
                    best = (ms, budget, ramp)
    ms, budget, ramp = best
    return {"rho_short": budget, "ecm_ramp": [list(r) for r in ramp],
            "geomean_ms": round(ms, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=str(ROOT / "SPLIT_RATES.json"),
                    help="table file (default SPLIT_RATES.json at the root)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench import revision

    rows = []
    for bits in SIZES:
        rows.append(measure(bits))
        print(json.dumps(rows[-1]), file=sys.stderr)
    table = {"revision": revision(), "cores": os.cpu_count(),
             "python": platform.python_version(),
             "semiprimes": SEMIPRIMES, "splits": SPLITS, "rounds": ROUNDS,
             "rows": rows}
    table["selected"] = choose(table)
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    print(json.dumps(table["selected"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
