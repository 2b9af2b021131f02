#!/usr/bin/env python3
"""Time the level census from 1 to level 10 and append a BENCH record.

Runs ``bfs_levels(1, 10)`` under the stretch factoring policy (800000 rho
iterations, 120 elliptic curves) with no factor cache, so every run pays
for every factorization. Appends one record to ``BENCH_census.json``: the
median and the individual wall times, the git revision of the checkout,
the core count, the Python version, and the node and blocked counts of
each level.

Example:
    PYTHONPATH=src python scripts/bench_census.py --note "after the change"
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from emgraph.arith import EffortPolicy
from emgraph.graph import bfs_levels

ROOT = Path(__file__).resolve().parent.parent
STRETCH = EffortPolicy(rho_iterations=800_000, ecm_curves=120)
MAX_LEVEL = 10
REPEATS = 5


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(ROOT / "BENCH_census.json"))
    ap.add_argument("--note", default="", help="free text kept in the record")
    args = ap.parse_args()

    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sums = bfs_levels(1, MAX_LEVEL, STRETCH)
        walls.append(round(time.perf_counter() - t0, 4))
    record = {
        "revision": revision(),
        "note": args.note,
        "policy": STRETCH.__dict__,
        "max_level": MAX_LEVEL,
        "repeats": REPEATS,
        "median_wall_s": statistics.median(walls),
        "wall_s": walls,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "levels": [s.node_count for s in sums],
        "blocked": [s.composite_count for s in sums],
    }
    out = Path(args.out)
    records = json.loads(out.read_text())["records"] if out.exists() else []
    records.append(record)
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
