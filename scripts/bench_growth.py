#!/usr/bin/env python3
"""Time the growth model at 10^6 steps and append a BENCH record.

Runs ``simulate_growth_model(10**6, 20, 12345)``, the size of acceptance
criterion 11, five times. Appends one record to ``BENCH_growth.json``: the
median and the individual wall times, the git revision of the checkout,
the core count, the Python version, and the sha256 of the ratios' hex
strings joined by spaces, so records of different revisions show whether
the output moved.

Example:
    PYTHONPATH=src python scripts/bench_growth.py --note "after the change"
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from bench_census import ROOT, revision
from emgraph.graph import simulate_growth_model

K_MAX, TRIALS, SEED = 10 ** 6, 20, 12345
REPEATS = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(ROOT / "BENCH_growth.json"))
    ap.add_argument("--note", default="", help="free text kept in the record")
    args = ap.parse_args()

    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stats = simulate_growth_model(K_MAX, TRIALS, SEED)
        walls.append(round(time.perf_counter() - t0, 4))
    digest = hashlib.sha256(
        " ".join(r.hex() for r in stats.ratios).encode()).hexdigest()
    record = {
        "revision": revision(),
        "note": args.note,
        "k_max": K_MAX,
        "trials": TRIALS,
        "seed": SEED,
        "repeats": REPEATS,
        "median_wall_s": statistics.median(walls),
        "wall_s": walls,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "ratios_sha256": digest,
    }
    out = Path(args.out)
    records = json.loads(out.read_text())["records"] if out.exists() else []
    records.append(record)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
