#!/usr/bin/env python3
"""Time the small-prime walk of the benchmark and append a BENCH record.

Runs ``bounded_explore([1], 2**16, 28)``, the walk of the ``walk``
workload, five times. Appends one record to ``BENCH_explore.json``: the
median and the individual wall times, the git revision of the checkout,
the core count, the Python version, the number of reaches and the sha256
of the reaches' edge primes (one comma-joined line each), so records of
different revisions show whether the output moved.

Example:
    PYTHONPATH=src python scripts/bench_explore.py --note "after the change"
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
from emgraph.graph import bounded_explore

ROOTS, BOUND, LEVELS = [1], 1 << 16, 28
REPEATS = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(ROOT / "BENCH_explore.json"))
    ap.add_argument("--note", default="", help="free text kept in the record")
    args = ap.parse_args()

    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        nodes = list(bounded_explore(ROOTS, BOUND, LEVELS))
        walls.append(round(time.perf_counter() - t0, 4))
    text = "".join(",".join(map(str, nd.edge_primes)) + "\n" for nd in nodes)
    record = {
        "revision": revision(),
        "note": args.note,
        "roots": ROOTS,
        "bound": BOUND,
        "max_level": LEVELS,
        "repeats": REPEATS,
        "median_wall_s": statistics.median(walls),
        "wall_s": walls,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "reaches": len(nodes),
        "edges_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    out = Path(args.out)
    records = json.loads(out.read_text())["records"] if out.exists() else []
    records.append(record)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
