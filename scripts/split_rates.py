#!/usr/bin/env python3
"""Split rates of one elliptic curve and of the short rho pass, by the
size of the smallest factor.

For each size b of 20, 22, ..., 70 bits, SEMIPRIMES semiprimes n = p*q
are drawn by ``random.Random(b)``: p a random prime of b bits and q one
of max(100 - b, b + 8) bits, so n has 100 bits until p has 46. On them:

  rho  the short pass of the factoring ladder (one Brent rho polynomial)
       at each budget of RHO_BUDGETS, once on each semiprime;
  ecm  one curve at each B1 of ECM_B1 (stage 2 to 100*B1), in rounds of
       one curve on each semiprime, the curve of round j with sigma
       6 + j as the ladder numbers its curves. A B1 stops after the
       first round that brings its splits to SPLITS, or after ROUNDS.

Each cell keeps its tries, its splits and its seconds, timed by
``bench.Timer`` and so scaled to the probe's reference speed; the rate is
splits per try and the ms per split is the cell's time over its splits.
The semiprimes, curves and so the tries and splits are deterministic;
only the seconds vary with the machine.

The table is per-size data for the factoring ladder, not the arbiter of
its constants: the short rho budget and first rung of ``arith`` were set
by the census's wall time, whose composites (56 to 119 bits) are not
these semiprimes of 100 bits and more.

Writes ``SPLIT_RATES.json`` at the root of the checkout (or --out), with
the ladder version (``arith.LADDER_VERSION``) it was measured at. About
eight minutes on one core of a 2-core VM.

Example:
    PYTHONPATH=src python scripts/split_rates.py
"""

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path

import bench
from emgraph.arith import LADDER_VERSION, _ecm_curve, _rho_brent, is_prime

ROOT = Path(__file__).resolve().parent.parent
SIZES = range(20, 71, 2)
SEMIPRIMES = 32
RHO_BUDGETS = (1024, 2048, 4096)
ECM_B1 = (250, 500, 1000, 2000, 11000)
SPLITS, ROUNDS = 24, 8


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


def _rounds(ns: list, b1: int) -> tuple[int, int]:
    """(rounds, splits) of the curves at B1 b1, in rounds of one curve on
    each of ns."""
    rounds = splits = 0
    while rounds < ROUNDS and splits < SPLITS:
        splits += sum(_ecm_curve(n, b1, 6 + rounds) is not None for n in ns)
        rounds += 1
    return rounds, splits


def measure(bits: int, budgets=RHO_BUDGETS, b1s=ECM_B1) -> dict:
    """The row of one factor size."""
    ns = [p * q for p, q in semiprimes(bits)]
    row = {"bits": bits, "rho": {}, "ecm": {}}
    timed = bench.Timer()
    for budget in budgets:
        splits = timed(lambda: sum(_rho_brent(n, budget, (1,))
                                   is not None for n in ns))
        row["rho"][str(budget)] = _cell(len(ns), splits, timed.at_ref[-1])
    for b1 in b1s:
        rounds, splits = timed(_rounds, ns, b1)
        row["ecm"][str(b1)] = _cell(rounds * len(ns), splits,
                                    timed.at_ref[-1])
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=str(ROOT / "SPLIT_RATES.json"),
                    help="table file (default SPLIT_RATES.json at the root)")
    args = ap.parse_args(argv)

    rows = []
    for bits in SIZES:
        rows.append(measure(bits))
        print(json.dumps(rows[-1]), file=sys.stderr)
    table = {"revision": bench.revision(), "ladder": LADDER_VERSION,
             "ref_probe_ms": bench.REF_PROBE_MS, "cores": os.cpu_count(),
             "python": platform.python_version(),
             "semiprimes": SEMIPRIMES, "splits": SPLITS, "rounds": ROUNDS,
             "rows": rows}
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
