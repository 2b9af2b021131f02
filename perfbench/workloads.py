"""The benchmark's workloads: inputs made from the seed, one job, checks.

Every workload is a closed loop: the job loop in ``run.py`` starts job i+1
only after job i has returned. A job's ``wall`` runs from the call into
the entry point until its last output byte is flushed; everything a check
needs is gathered after that. Checks use the package's own predicates
(``is_irreducible_pair``, ``brute_force_pairs``, ``equivalent``) and the
digests in ``digests.json``, recorded with ``run.py --record-digests``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

DIGESTS = Path(__file__).with_name("digests.json")


@dataclass
class Job:
    index: int
    key: str  # names the job's input in the digest table
    wall: float
    text: str  # the output the digest covers
    ops: int = 0  # operations attempted, set by the check
    extra: dict = field(default_factory=dict)
    raised: str = ""  # the exception a failed job raised

    def __post_init__(self) -> None:
        self.digest = sha256(self.text)


class timed:
    """Times its block; a tracer, if given, records spans only inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0

    def __enter__(self) -> "timed":
        if self.tracer is not None:
            self.tracer.install()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.remove()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    workers = 1
    period = 1  # distinct job inputs: job i runs input i mod period

    def __init__(self, em: Any, seed: int, smoke: bool, tmp: Path):
        self.em = em
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests: dict[str, str] = table.get(self.name, {})
        self.seen: dict[str, str] = {}

    def job(self, i: int, workers: Optional[int] = None,
            tracer: Any = None) -> Job:
        """Run job i; spans go to ``tracer`` when one is given."""
        raise NotImplementedError

    def check(self, jobs: list[Job]) -> list[str]:
        """Check every job's output and set its ``ops``; return errors."""
        raise NotImplementedError

    def check_digest(self, job: Job, errors: list[str]) -> None:
        """Same input, same output: across jobs and against the table."""
        if job.raised:
            errors.append(f"job {job.index} raised {job.raised}")
            return
        digest = job.digest
        if self.seen.setdefault(job.key, digest) != digest:
            errors.append(f"job {job.index}: output differs from an earlier "
                          f"job on the same input {job.key}")
        want = self.digests.get(job.key)
        if want is not None and want != digest:
            errors.append(f"job {job.index}: output digest for {job.key} "
                          "differs from the recorded one")

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp)


def _check_pair_lines(em: Any, lines: list[str], lo: int, hi: int,
                      where: str, errors: list[str]) -> dict[int, set]:
    """Check record lines; return {modulus: {(p, q, residue)}}."""
    tp = em.tuples
    by_modulus: dict[int, set] = {}
    prev = None
    for n, line in enumerate(lines):
        try:
            rec = tp.PairRecord.from_json_line(line)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{where} line {n}: unreadable record: {exc}")
            continue
        m, p, q = rec.modulus, rec.p.primes, rec.q.primes
        a = tp.residue_base(p)
        if not lo <= m <= hi:
            errors.append(f"{where} line {n}: modulus {m} outside [{lo}, {hi}]")
        if not tp.is_irreducible_pair(p, q):
            errors.append(f"{where} line {n}: not an irreducible pair")
        if rec.residues != (tp.ResidueClass(a, m),):
            errors.append(f"{where} line {n}: wrong residue class")
        key = (m, a, p, q)
        if prev is not None and key <= prev:
            errors.append(f"{where} line {n}: records out of order")
        prev = key
        by_modulus.setdefault(m, set()).add((p, q, a))
    return by_modulus


def _cross_check(em: Any, moduli: list[tuple[int, Any]],
                 found: dict[int, set], errors: list[str]) -> None:
    """Compare the records of each sampled modulus with the oracle."""
    for m, fz in moduli:
        want = {(r.p.primes, r.q.primes, r.residues[0].a) for r in
                em.modsearch.brute_force_pairs(m, fz, irreducible_only=True)}
        if want != found.get(m, set()):
            errors.append(f"modulus {m}: records differ from brute force")


class PairSearch(Workload):
    """Shared checks of the two pair-search workloads."""

    sample = 0  # random moduli cross-checked against brute force per run
    sample_found = 0  # moduli with records cross-checked per run

    def windows(self, i: int) -> list[tuple[int, int]]:
        """The modulus ranges job i searches, in increasing order."""
        raise NotImplementedError

    def check(self, jobs: list[Job]) -> list[str]:
        em = self.em
        errors: list[str] = []
        moduli: dict[tuple[int, int], list] = {}
        found: dict[int, set] = {}
        for job in jobs:
            wins = self.windows(job.index)
            for w in wins:
                if w not in moduli:
                    moduli[w] = list(em.arith.squarefree_stream(*w, 3))
            job.ops = sum(len(moduli[w]) for w in wins)
            if job.extra.get("rc", 0) != 0:
                errors.append(f"job {job.index}: exit code {job.extra['rc']}")
            lines = job.text.splitlines()
            lo, hi = wins[0][0], wins[-1][1]
            recs = _check_pair_lines(em, lines, lo, hi, f"job {job.index}",
                                     errors)
            if any(not any(a <= m <= b for a, b in wins) for m in recs):
                errors.append(f"job {job.index}: modulus between windows")
            ck = job.extra.get("checkpoint")
            if ck is not None and ck.split() != [str(hi), str(len(lines))]:
                errors.append(f"job {job.index}: checkpoint {ck!r} does not "
                              "mark the whole range done")
            self.check_digest(job, errors)
            for m, pairs in recs.items():
                found.setdefault(m, set()).update(pairs)
        rng = random.Random(f"{self.name}:check:{self.seed}")
        limit = em.modsearch.MAX_BRUTE_OMEGA
        pool = [(m, fz) for ms in moduli.values() for m, fz in ms
                if fz.omega <= limit]
        with_records = [(m, fz) for m, fz in pool if m in found]
        picked = rng.sample(pool, min(self.sample, len(pool)))
        picked += rng.sample(with_records,
                             min(self.sample_found, len(with_records)))
        _cross_check(em, picked, found, errors)
        return errors


class PairsDense(PairSearch):
    """All irreducible pairs of modulus in [2, 262145] through the CLI.

    Four chunks of the range driver, so two workers each take two.
    """

    name = "pairs-dense"
    workers = 2
    sample = 40
    sample_found = 40

    def __init__(self, *args):
        super().__init__(*args)
        self.lo, self.hi = 2, (20_000 if self.smoke else 4 * 65536 + 1)

    def windows(self, i: int) -> list[tuple[int, int]]:
        return [(self.lo, self.hi)]

    def job(self, i: int, workers: Optional[int] = None,
            tracer: Any = None) -> Job:
        d = self._fresh_dir()
        out, ck = os.path.join(d, "pairs.jsonl"), os.path.join(d, "pairs.ck")
        argv = ["search-pairs", "--lo", str(self.lo), "--hi", str(self.hi),
                "--irreducible-only", "--workers", str(workers or self.workers),
                "--checkpoint", ck, "--out", out]
        try:
            with timed(tracer) as t:
                rc = self.em.cli.run(argv)
            text = Path(out).read_text() if os.path.exists(out) else ""
            checkpoint = Path(ck).read_text() if os.path.exists(ck) else ""
        finally:
            shutil.rmtree(d)
        return Job(i, f"{self.lo}-{self.hi}", t.wall, text,
                   extra={"rc": rc, "checkpoint": checkpoint,
                          "records": len(text.splitlines())})


class PairsWindow(PairSearch):
    """Irreducible pairs in eight windows of 5000 spread above 1e8.

    Window j starts at 1e8 + 80000 j, so the job samples the deep (k >= 7)
    searches across [1e8, 1e8 + 640000) and every job does the same work.
    The seed orders the windows; each is searched on its own, and the
    output lists them in increasing order. How many deep searches a
    window holds varies a lot, so a job of fewer windows, or of windows
    picked by the seed, would add that variation to the run-to-run spread.
    """

    name = "pairs-window"
    base = 10 ** 8
    stride = 80_000
    width = 5_000
    count = 8
    sample = 16
    sample_found = 6

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.width = 2_000
        self.order = [(self.base + j * self.stride,
                       self.base + j * self.stride + self.width - 1)
                      for j in range(self.count)]
        random.Random(f"{self.name}:{self.seed}").shuffle(self.order)

    def windows(self, i: int) -> list[tuple[int, int]]:
        return sorted(self.order)

    def job(self, i: int, workers: Optional[int] = None,
            tracer: Any = None) -> Job:
        ms = self.em.modsearch
        found = {}
        with timed(tracer) as t:
            for lo, hi in self.order:
                cfg = ms.SearchConfig(lo, hi, irreducible_only=True,
                                      worker_count=workers or self.workers)
                found[lo] = list(ms.search_range(cfg))
        records = [r for lo in sorted(found) for r in found[lo]]
        text = "".join(r.to_json_line() + "\n" for r in records)
        return Job(i, f"{self.count}x{self.width}@{self.stride}", t.wall, text,
                   extra={"records": len(records)})


# node counts of levels 0..10 of the graph from 1
CENSUS_LEVELS = (1, 1, 1, 1, 1, 2, 4, 9, 24, 52, 165)


class Census(Workload):
    """Level census from 1 to level 10 under the stretch factoring policy.

    Fresh cache and checkpoint per job: a warm cache would skip rho.
    """

    name = "census"

    def __init__(self, *args):
        super().__init__(*args)
        self.max_level = 8 if self.smoke else 10

    def job(self, i: int, workers: Optional[int] = None,
            tracer: Any = None) -> Job:
        d = self._fresh_dir()
        out, ck, cache = (os.path.join(d, n)
                          for n in ("levels.jsonl", "frontier.ck", "cache.txt"))
        argv = ["expand", "--root", "1", "--max-level", str(self.max_level),
                "--rho-iterations", "800000", "--ecm-curves", "120",
                "--cache", cache, "--checkpoint", ck, "--out", out]
        try:
            with timed(tracer) as t:
                rc = self.em.cli.run(argv)
            text = Path(out).read_text() if os.path.exists(out) else ""
            header = (Path(ck).read_text().split("\n", 1)[0]
                      if os.path.exists(ck) else "")
            cache_lines = (Path(cache).read_text().splitlines()
                           if os.path.exists(cache) else [])
        finally:
            shutil.rmtree(d)
        return Job(i, f"1-{self.max_level}", t.wall, text,
                   extra={"rc": rc, "frontier": header,
                          "cache_lines": cache_lines})

    def check(self, jobs: list[Job]) -> list[str]:
        errors: list[str] = []
        want = list(CENSUS_LEVELS[:self.max_level + 1])
        for job in jobs:
            where = f"job {job.index}"
            if job.extra.get("rc", 0) != 0:
                errors.append(f"{where}: exit code {job.extra['rc']}")
            try:
                rows = [json.loads(line) for line in job.text.splitlines()]
                levels = [int(r["level"]) for r in rows]
                nodes = [int(r["nodes"]) for r in rows]
                blocked = [int(r["composites"]) for r in rows]
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"{where}: unreadable census output: {exc}")
                levels, nodes, blocked = [], [], []
            job.ops = sum(want[:-1])  # nodes of every level but the last
            if levels != list(range(len(want))) or nodes != want:
                errors.append(f"{where}: level counts {nodes}, want {want}")
            if any(blocked):
                errors.append(f"{where}: {sum(blocked)} blocked expansions")
            try:
                level = json.loads(job.extra.get("frontier", ""))["level"]
            except (ValueError, KeyError, TypeError):
                level = None
            if level != self.max_level:
                errors.append(f"{where}: frontier checkpoint at level {level}")
            for line in job.extra.get("cache_lines", ()):
                comp, _, facs = line.partition("=")
                try:
                    c, fs = int(comp), [int(f) for f in facs.split(",")]
                    good = all(1 < f < c and c % f == 0 for f in fs)
                except ValueError:
                    good = False
                if not good:
                    errors.append(f"{where}: bad factor cache line {line!r}")
            self.check_digest(job, errors)
        return errors


# moduli of the coprime table: every multiple-tuple modulus below 1e9
# coprime to 2*3*7*43; their irreducible classes are the 42 watched ones
COPRIME_MODULI = (
    2813785, 29541655, 32972095, 51254005, 115908845, 123412423, 155186405,
    179491195, 183631045, 241819435, 274715155, 405125435, 451629145,
    471892265, 714350695, 782534665, 805149301, 863399185,
)
WATCH_CLASSES = 42


class Walk(Workload):
    """Small-prime walk from 1 with residue watch, then the growth model.

    The seed picks the growth model's seed; the walk itself is fixed.
    """

    name = "walk"
    bound = 1 << 16

    def __init__(self, *args):
        super().__init__(*args)
        em = self.em
        self.levels, self.steps, self.trials = ((8, 1000, 2) if self.smoke
                                                else (28, 250_000, 20))
        self.growth_seed = random.Random(
            f"{self.name}:{self.seed}").randrange(1 << 31)
        classes = []
        for m in COPRIME_MODULI:
            recs = em.modsearch.brute_force_pairs(m, em.arith.factor(m),
                                                  irreducible_only=True)
            classes += sorted({r.residues[0] for r in recs},
                              key=lambda rc: rc.a)
        if len(classes) != WATCH_CLASSES:
            raise RuntimeError(f"coprime table gives {len(classes)} classes, "
                               f"not {WATCH_CLASSES}")
        self.watch = em.graph.WatchList(tuple(classes))

    def job(self, i: int, workers: Optional[int] = None,
            tracer: Any = None) -> Job:
        g = self.em.graph
        with timed(tracer) as t:
            nodes = list(g.bounded_explore([1], self.bound, self.levels))
            hits = list(g.watch_hits(nodes, self.watch))
            stats = g.simulate_growth_model(self.steps, self.trials,
                                            self.growth_seed)
        text = "".join(",".join(map(str, nd.edge_primes)) + "\n"
                       for nd in nodes)
        text += "".join(f"hit {nd.value} {rc.a} {rc.m}\n" for nd, rc in hits)
        growth = json.dumps({"ratios": [r.hex() for r in stats.ratios],
                             "mean": stats.mean.hex(),
                             "stddev": stats.stddev.hex()})
        job = Job(i, f"explore-{self.bound}-{self.levels}", t.wall, text,
                  extra={"reaches": len(nodes), "growth": growth})
        # only the first job keeps its output beyond the digest, so memory
        # does not grow with the number of jobs
        if i == 0:
            job.extra.update(nodes=nodes, hits=hits)
        else:
            job.text = ""
        return job

    def growth_key(self) -> str:
        return f"growth-{self.steps}-{self.trials}-{self.growth_seed}"

    def check(self, jobs: list[Job]) -> list[str]:
        errors: list[str] = []
        for job in jobs:
            job.ops = job.extra.get("reaches", 0) + self.trials
            self.check_digest(job, errors)
            growth = Job(job.index, self.growth_key(), 0.0,
                         job.extra.get("growth", ""))
            self.check_digest(growth, errors)
        if errors:
            return errors
        # the jobs agree, so structural checks on the first one cover all
        first = jobs[0]
        self._check_walk(first.extra["nodes"], first.extra["hits"], errors)
        ratios = json.loads(first.extra["growth"])["ratios"]
        if len(ratios) != self.trials or not all(
                0 < float.fromhex(r) < float("inf") for r in ratios):
            errors.append("growth model ratios malformed")
        return errors

    def _check_walk(self, nodes: list, hits: list, errors: list[str]) -> None:
        em = self.em
        primes = em.arith.sieve_primes(self.bound)
        prime_set = set(primes)
        by_value: dict[int, list] = {}
        expanded = []
        for nd in nodes:
            v = nd.value
            if nd.edge_primes:
                p = nd.edge_primes[-1]
                if p not in prime_set or (v // p + 1) % p:
                    errors.append(f"reach {nd.edge_primes}: bad edge {p}")
                    return
            if nd.level > self.levels:
                errors.append(f"reach {nd.edge_primes}: beyond max level")
                return
            if v not in by_value and nd.level < self.levels:
                expanded.append(nd)
            by_value.setdefault(v, []).append(nd.edge_primes)
        for v, paths in by_value.items():
            for other in paths[1:]:
                if not em.tuples.equivalent(paths[0], other):
                    errors.append(f"value {v}: inequivalent paths")
                    return
        # completeness: sampled expanded nodes have every small-prime child
        rng = random.Random(f"{self.name}:check:{self.seed}")
        children: dict[int, set] = {}
        for nd in nodes:
            if nd.edge_primes:
                children.setdefault(nd.value // nd.edge_primes[-1],
                                    set()).add(nd.edge_primes[-1])
        for nd in rng.sample(expanded, min(40, len(expanded))):
            v = nd.value + 1
            want = {p for p in primes if v % p == 0}
            if children.get(nd.value, set()) != want:
                errors.append(f"node {nd.edge_primes}: children missing")
        want_hits = sum(1 for nd in nodes for rc in self.watch.classes
                        if nd.value % rc.m == rc.a)
        if want_hits != len(hits) or any(nd.value % rc.m != rc.a
                                         for nd, rc in hits):
            errors.append("watch hits differ from a direct recount")


WORKLOADS = {w.name: w for w in (PairsDense, PairsWindow, Census, Walk)}
