#!/usr/bin/env python3
"""Benchmark of the emgraph package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pairs-window --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):
``pairs-dense``, ``pairs-window``, ``census`` and ``walk``. Each run sets
up several times (fresh import of the package from ``src/`` plus input
generation) and reports the median as ``setup_s``, then repeats the
workload's job in a closed loop for ``--seconds`` and checks every
output.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics: ``wall_s`` (median job time), ``setup_s`` and ``peak_rss_mb``
(peak resident set of this process plus its largest child). The line
before it is a report with provenance, the raw wall times with their
tail and sample count, ``moduli_per_s`` for the pair searches and
``failed_frac``.

Both times are given at a reference machine speed. A shared machine's
speed drifts by up to 1.8x, over seconds and over minutes, and a drift
over minutes cannot be averaged away inside one run. So a fixed
pure-Python loop (the probe) is timed just before and just after every
job, and before and after the set-ups, and each time is scaled by
``REF_PROBE_MS`` over the mean of its two probes: the time the job would
take on a machine where the probe takes ``REF_PROBE_MS``. A change to
the program moves the job times and not the probe, so it shows in full.
The raw times and the probes are in the report line.

With ``--trace 1`` the jobs run untraced first, then the same jobs again
with spans recorded at every layer boundary (``tracing.py``); the last
line carries the per-layer metrics and ``trace.overhead_frac``. The
traced pair search runs with one worker, because spans do not cross
fork. Spans are written to ``.perfbench/trace-<workload>.csv``.

``--smoke`` shrinks every input so a run takes seconds (used by
``test_perfbench.py``); ``--corrupt`` flips one byte of the first job's
output before it is checked, to show that the checks catch it;
``--record-digests`` replaces the workload's entries in ``digests.json``
with digests of its checked outputs for the default seed, full size and
smoke size.

The exit code is 0 when every output checks, 1 when a check fails and 2
when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("arith", "tuples", "classify", "modsearch", "graph", "cli")
SETUP_REPS = 9
PROBE_LOOPS = 40
# the probe's time on a 2-core x86-64 VM (Python 3.11) at its fast speed
REF_PROBE_MS = 7.0
DEFAULT_SEED = 0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package() -> SimpleNamespace:
    """Import every layer afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules
                 if n == "emgraph" or n.startswith("emgraph.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module(f"emgraph.{n}") for n in LAYERS}
    origin = Path(mods["arith"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"emgraph was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int, smoke: bool, tmp: Path):
    """Set up SETUP_REPS times; return the last workload, times, probes.

    The set-ups are short, so one probe before and one after them all
    give each its speed: the probes are the same for every set-up.
    """
    times, before = [], cpu_probe_ms()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        em = import_package()
        wl = workloads.WORKLOADS[name](em, seed, smoke, tmp)
        times.append(time.perf_counter() - start)
    return wl, times, [before, cpu_probe_ms()]


def run_job(wl, i: int, workers=None, tracer=None):
    """Job i; one that raises is returned as failed, with its run time."""
    start = time.perf_counter()
    try:
        return wl.job(i, workers, tracer)
    except Exception as exc:  # noqa: BLE001 - counted as a failed job
        traceback.print_exc()
        return workloads.Job(i, "", time.perf_counter() - start, "",
                             raised=repr(exc))


def timed_loop(wl, seconds: float, workers=None) -> tuple[list, list]:
    """Jobs 0, 1, ... until the next one would end past ``seconds``.

    Returns the jobs and the probes around them: job i ran between
    probes i and i + 1.
    """
    jobs = []
    start = time.perf_counter()
    probes = [cpu_probe_ms()]
    while True:
        jobs.append(run_job(wl, len(jobs), workers))
        probes.append(cpu_probe_ms())
        if time.perf_counter() - start + jobs[-1].wall > seconds:
            return jobs, probes


def at_ref_speed(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to the reference speed by the probes around it."""
    return [t * 2 * REF_PROBE_MS / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def tail(values: list[float]) -> tuple:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return None, None


def cpu_probe_ms() -> float:
    """Mean time of a fixed pure-Python loop: the machine's speed now.

    The mean, not the median: the speed can switch within the probe, and
    the probe should average it as a job does.
    """
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.mean(times)


def provenance(wl, args, load: tuple, probes: dict) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    src = hashlib.sha256()
    for path in sorted((SRC / "emgraph").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy,
        "workers": wl.workers,
        "seed": args.seed,
        "loadavg_start": load,
        "cpu_probe_ms": probes,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def git_revision():
    """HEAD of the checkout when it is a git work tree, read directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def corrupt(job) -> None:
    """Change the first digit of the job's output."""
    for i, ch in enumerate(job.text):
        if ch.isdigit():
            job.text = job.text[:i] + str((int(ch) + 1) % 10) + job.text[i + 1:]
            break
    else:
        job.text += "0"
    job.digest = workloads.sha256(job.text)


def measure_traced(wl, seconds: float, run_id: str):
    """Per-layer metrics from traced jobs, and what tracing costs.

    The untraced loop warms the process up and sets the job count n.
    Then each of the n jobs runs untraced and traced in turn, on one
    worker, since spans do not cross fork; with more workers, the
    one-worker times also give the parallel efficiency.
    """
    untraced, _ = timed_loop(wl, seconds / (5 if wl.workers > 1 else 3))
    n = len(untraced)
    tracer = tracing.Tracer(wl.em, run_id)
    single, traced = [], []
    for i in range(n):
        single.append(run_job(wl, i, 1))
        traced.append(run_job(wl, i, 1, tracer))
    base_wall = sum(j.wall for j in single)
    metrics = tracing.layer_metrics(tracer.spans, n)
    metrics["trace.overhead_frac"] = sum(j.wall for j in traced) / base_wall - 1
    metrics["modsearch.parallel_eff"] = (
        base_wall / (wl.workers * sum(j.wall for j in untraced))
        if wl.workers > 1 else 0.0)
    metrics["tuples.records"] = sum(j.extra.get("records", 0)
                                    for j in traced) / n
    metrics["arith.cache_writes"] = sum(len(j.extra.get("cache_lines", ()))
                                        for j in traced) / n
    return untraced, untraced + single + traced, metrics, tracer


def record_digests(wl, tmp: Path) -> int:
    """Replace the workload's digests with those of its checked outputs.

    Covers the default seed's inputs at full and at smoke size, so the
    smoke tests compare digests too.
    """
    digests: dict[str, str] = {}
    for smoke in (False, True):
        fresh = type(wl)(wl.em, DEFAULT_SEED, smoke, tmp)
        fresh.digests = {}
        errors = fresh.check([fresh.job(i) for i in range(fresh.period)])
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        digests.update(fresh.seen)
    table = (json.loads(workloads.DIGESTS.read_text())
             if workloads.DIGESTS.exists() else {})
    table[wl.name] = dict(sorted(digests.items()))
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                                 + "\n")
    print(f"recorded {len(digests)} digests for {wl.name}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    load = os.getloadavg()
    os.environ.pop("EMGRAPH_POLICY", None)  # the policy comes from flags
    if not (SRC / "emgraph").is_dir():
        print(f"perfbench: no package source at {SRC / 'emgraph'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_times, setup_probes = set_up(args.workload, args.seed,
                                               args.smoke, tmp)
    except ImportError as exc:
        print(f"perfbench: cannot import emgraph: {exc}", file=sys.stderr)
        return 2
    if args.record_digests:
        status = record_digests(wl, tmp)
        shutil.rmtree(tmp, ignore_errors=True)
        return status

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.trace:
        timed, jobs, layer, tracer = measure_traced(wl, args.seconds, run_id)
        job_probes = []
    else:
        timed, job_probes = timed_loop(wl, args.seconds)
        jobs = timed
        layer = tracer = None
    rss = peak_rss_mb()  # before the checks, which hold more data
    if args.corrupt:
        corrupt(jobs[0])
    errors = wl.check(jobs)
    shutil.rmtree(tmp, ignore_errors=True)

    attempted = max(sum(j.ops for j in jobs), 1)
    failed = attempted if errors else 0  # a failed check fails the run
    walls = [j.wall for j in timed]
    pct, tail_value = tail(walls)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(wl, args, load, {
            "ref": REF_PROBE_MS, "setup": setup_probes, "jobs": job_probes}),
        "jobs": len(jobs),
        "wall_s": {"median": statistics.median(walls), "tail_pct": pct,
                   "tail": tail_value, "max": max(walls), "n": len(walls),
                   "samples": walls},
        "setup_s": setup_times,
        "failed_frac": failed / attempted,
        "errors": errors[:20],
    }
    if isinstance(wl, workloads.PairSearch):
        report["moduli_per_s"] = sum(j.ops for j in timed) / sum(walls)
    if tracer is not None:
        path = SCRATCH / f"trace-{args.workload}.csv"
        tracer.dump(str(path))
        report["trace_file"] = str(path.relative_to(ROOT))
        report["untraced_patch_points"] = tracer.missing
        units = tracing.PER_LAYER_UNITS
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        setup = at_ref_speed([statistics.median(setup_times)], setup_probes)
        values = {"wall_s": statistics.median(at_ref_speed(walls,
                                                          job_probes)),
                  "setup_s": setup[0],
                  "peak_rss_mb": rss}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"report": report}))
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
