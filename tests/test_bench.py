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
                 "growth": ("ratios_sha256",),
                 "pairs": ("records", "per_k", "jsonl_sha256"),
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
    assert len(new["wall_s"]) == 1 and len(new["probe_ms"]) == 2
    (wall,), probes = new["wall_s"], new["probe_ms"]
    assert new["median_wall_s_at_ref"] == pytest.approx(
        wall * 2 * bench.REF_PROBE_MS / sum(probes), rel=1e-2)
    for key in OUTPUT_FIELDS[job]:
        assert new[key] == last[key], key
    assert json.loads(capsys.readouterr().out) == new
    assert committed.read_bytes() == before
