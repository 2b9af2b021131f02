"""The bench harness, one repeat of each job, against its committed record.

Each job's new record must have the keys of the last record committed in
``BENCH_<job>.json``, in the same order, and the same output summary, so
the history in those files stays comparable. The committed files are
copied, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_FIELDS = {"census": ("levels", "blocked"),
                 "explore": ("reaches", "edges_sha256"),
                 "explore20": ("reaches", "edges_sha256"),
                 "growth": ("ratios_sha256",),
                 "pairs": ("records", "per_k", "jsonl_sha256"),
                 "pairs2": ("records", "per_k", "jsonl_sha256"),
                 "window": ("records", "per_k", "jsonl_sha256", "stages"),
                 "modulus": ("records", "jsonl_sha256"),
                 "curve": ("splits",)}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.REPEATS = 1
    return module


@pytest.mark.parametrize("job", sorted(OUTPUT_FIELDS))
def test_bench_record_matches_committed_record(bench, job, tmp_path, capsys):
    assert set(bench.JOBS) == set(OUTPUT_FIELDS)
    committed = ROOT / f"BENCH_{job}.json"
    before = committed.read_bytes()
    history = json.loads(before)["records"]
    out = tmp_path / "bench.json"
    out.write_bytes(before)
    assert bench.main([job, "--out", str(out), "--note", "test"]) == 0
    records = json.loads(out.read_text())["records"]
    assert records[:-1] == history  # appended, the history kept
    new, last = records[-1], history[-1]
    assert list(new) == list(last)
    assert new["note"] == "test" and new["repeats"] == 1
    (wall,), probes = new["wall_s"], new["probe_ms"]
    # the ms of each timed call of the run, each between two probes
    ms = new.get("median_ms", [1e3 * wall])
    assert len(probes) == len(ms) + 1
    assert sum(ms) == pytest.approx(1e3 * wall, rel=1e-3)
    at_ref = [t * 2 * bench.REF_PROBE_MS / (before + after)
              for t, before, after in zip(ms, probes, probes[1:])]
    assert new.get("median_ms_at_ref", at_ref) == pytest.approx(at_ref,
                                                                rel=1e-2)
    assert 1e3 * new["median_wall_s_at_ref"] == pytest.approx(sum(at_ref),
                                                              rel=1e-2)
    for key in OUTPUT_FIELDS[job]:
        assert new[key] == last[key], key
    assert json.loads(capsys.readouterr().out) == new
    assert committed.read_bytes() == before
