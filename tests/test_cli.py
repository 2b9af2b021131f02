"""Tests for the command-line front end."""

import argparse
import dataclasses
import io
import json
import contextlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from emgraph import cli, graph
from emgraph.arith import DEFAULT_POLICY, EffortPolicy
from emgraph.tuples import PairRecord


def run_capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def test_search_pairs_stream():
    code, out = run_capture(["search-pairs", "--lo", "2", "--hi", "1000"])
    assert code == 0
    lines = out.strip().splitlines()
    records = [PairRecord.from_json_line(l) for l in lines]
    assert {r.modulus for r in records} == {30, 210, 546, 595, 858}
    assert all("\"modulus\"" in l for l in lines)


def test_search_pairs_round_trip_and_determinism(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["search-pairs", "--lo", "2", "--hi", "2000"]
    assert cli.run(argv + ["--out", str(out1)]) == 0
    assert cli.run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [PairRecord.from_json_line(l)
               for l in out1.read_text().splitlines()]
    assert all(r.to_json_line() == l
               for r, l in zip(records, out1.read_text().splitlines()))


def test_search_pairs_flag_changes_nothing(tmp_path):
    # every search is irreducible; --irreducible-only still parses
    argv = ["search-pairs", "--lo", "2", "--hi", "140000", "--out"]
    plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
    assert cli.run(argv + [str(plain)]) == 0
    assert cli.run(argv + [str(flagged), "--irreducible-only"]) == 0
    assert len(plain.read_bytes().splitlines()) == 416
    assert plain.read_bytes() == flagged.read_bytes()


def _search_argv(out, ck):
    return ["search-pairs", "--lo", "2", "--hi", "140000",
            "--checkpoint", str(ck), "--out", str(out)]


def test_search_pairs_rerun_keeps_output(tmp_path):
    out, ck = tmp_path / "pairs.jsonl", tmp_path / "pairs.ck"
    assert cli.run(_search_argv(out, ck)) == 0
    full = out.read_bytes()
    assert ck.read_text().split() == ["140000", str(len(full.splitlines()))]
    assert cli.run(_search_argv(out, ck)) == 0
    assert out.read_bytes() == full


def test_search_pairs_resume_after_kill(tmp_path):
    out, ck = tmp_path / "pairs.jsonl", tmp_path / "pairs.ck"
    assert cli.run(_search_argv(out, ck)) == 0
    full = out.read_bytes()
    lines = full.splitlines(keepends=True)
    # killed after the first chunk's checkpoint, with records of the
    # second chunk already written: those are dropped and searched again
    count = sum(PairRecord.from_json_line(l).modulus <= 65537 for l in lines)
    assert 0 < count < len(lines)
    ck.write_text(f"65537 {count}\n")
    out.write_bytes(b"".join(lines[:count + 3]))
    assert cli.run(_search_argv(out, ck)) == 0
    assert out.read_bytes() == full
    # an output holding fewer records than the checkpoint counts
    ck.write_text(f"65537 {count}\n")
    out.write_bytes(b"".join(lines[:count - 1]))
    assert cli.run(_search_argv(out, ck)) == 2


def test_search_pairs_damaged_checkpoint(tmp_path):
    out, ck = tmp_path / "pairs.jsonl", tmp_path / "pairs.ck"
    out.write_text("kept\n")
    ck.write_text("12\n")
    assert cli.run(_search_argv(out, ck)) == 2
    assert out.read_text() == "kept\n"


def test_search_pairs_checkpoint_of_another_job(tmp_path):
    out, ck = tmp_path / "pairs.jsonl", tmp_path / "pairs.ck"
    argv = ["search-pairs", "--lo", "2", "--checkpoint", str(ck),
            "--out", str(out)]
    assert cli.run(argv + ["--hi", "3000"]) == 0
    full = out.read_bytes()
    assert len(full.splitlines()) == 40
    # the checkpoint's last modulus, 3000, lies outside [2, 1000]
    assert cli.run(argv + ["--hi", "1000"]) == 2
    assert out.read_bytes() == full


def test_search_pairs_checkpoint_of_overlapping_job(tmp_path):
    out, ck = tmp_path / "pairs.jsonl", tmp_path / "pairs.ck"
    argv = ["search-pairs", "--checkpoint", str(ck), "--out", str(out)]
    assert cli.run(argv + ["--lo", "2", "--hi", "65537"]) == 0
    full, state = out.read_bytes(), ck.read_bytes()
    assert state == b"65537 271\n"
    # 65537 lies in [10000, 140000] but is no chunk end of that job
    assert cli.run(argv + ["--lo", "10000", "--hi", "140000"]) == 2
    assert out.read_bytes() == full and ck.read_bytes() == state


def test_expand_checkpoint_of_another_root(tmp_path):
    ck = tmp_path / "frontier.ck"
    argv = ["expand", "--max-level", "3", "--checkpoint", str(ck)]
    code, five = run_capture(argv + ["--root", "5"])
    assert code == 0
    assert json.loads(ck.read_text().split("\n")[0])["root"] == "5"
    code, out = run_capture(argv + ["--root", "1"])
    assert code == 2 and out == ""
    # the same root resumes
    assert run_capture(argv + ["--root", "5"]) == (0, five)


def test_expand_shorter_census_keeps_deeper_checkpoint(tmp_path):
    ck = tmp_path / "frontier.ck"
    assert cli.run(["expand", "--max-level", "8", "--checkpoint",
                    str(ck)]) == 0
    deep = ck.read_bytes()
    code, out = run_capture(["expand", "--max-level", "3", "--checkpoint",
                             str(ck)])
    assert (code, out) == run_capture(["expand", "--max-level", "3"])
    assert ck.read_bytes() == deep


def test_expand_checkpoint_of_another_policy_exit_two(tmp_path, capsys):
    ck = tmp_path / "frontier.ck"
    assert cli.run(["expand", "--max-level", "8", "--checkpoint", str(ck),
                    "--ecm-curves", "60"]) == 0
    deep = ck.read_bytes()
    capsys.readouterr()
    assert cli.run(["expand", "--max-level", "3", "--checkpoint",
                    str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delete it to start again" in captured.err
    assert ck.read_bytes() == deep


@pytest.fixture(scope="module")
def level8_checkpoint(tmp_path_factory):
    ck = tmp_path_factory.mktemp("census") / "frontier.ck"
    graph.bfs_levels(1, 8, checkpoint=str(ck))
    return ck.read_text()


def _edit_summaries(edit):
    def corrupt(text):
        head, rest = text.split("\n", 1)
        obj = json.loads(head)
        obj["summaries"] = edit(obj["summaries"])
        return json.dumps(obj) + "\n" + rest
    return corrupt


def _edit_values(edit):
    def corrupt(text):
        head, *values, end = text.split("\n")
        return "\n".join([head, *edit(values), end])
    return corrupt


# corrupt forms of a level-8 census checkpoint
CORRUPT_CHECKPOINTS = {
    "first-15-lines": lambda t: "".join(t.splitlines(True)[:15]),
    "last-line-cut": lambda t: t[:-3],
    "unterminated-line-after-values": lambda t: t + "99999999999999999",
    "summaries-cut-to-three": _edit_summaries(lambda rows: rows[:3]),
    "summaries-as-strings": _edit_summaries(
        lambda rows: [[str(x) for x in row] for row in rows]),
    "summary-counts-as-strings": _edit_summaries(
        lambda rows: [[lv, str(n), str(c)] for lv, n, c in rows[:-1]]
        + rows[-1:]),
    "summary-not-a-triple": _edit_summaries(
        lambda rows: rows[:-1] + [rows[-1][:2]]),
    "summaries-out-of-order": _edit_summaries(
        lambda rows: [rows[1], rows[0], *rows[2:]]),
    "value-zero": _edit_values(lambda vs: ["0", *vs[1:]]),
    "value-not-an-integer": _edit_values(lambda vs: ["x", *vs[1:]]),
    "values-out-of-order": _edit_values(lambda vs: [vs[1], vs[0], *vs[2:]]),
    "value-repeated": _edit_values(lambda vs: [vs[0], *vs[:-1]]),
    "old-node-lines": _edit_values(lambda vs: [json.dumps(
        {"complete": True, "edges": [], "root": "1"})] * len(vs)),
    "value-raised-by-one": _edit_values(
        lambda vs: [str(int(vs[0]) + 1), *vs[1:]]),
}


@pytest.mark.parametrize("form", CORRUPT_CHECKPOINTS)
def test_expand_corrupt_checkpoint_exit_two(tmp_path, capsys,
                                            level8_checkpoint, form):
    ck = tmp_path / "frontier.ck"
    ck.write_text(CORRUPT_CHECKPOINTS[form](level8_checkpoint))
    before = ck.read_bytes()
    assert before != level8_checkpoint.encode()
    assert cli.run(["expand", "--max-level", "9", "--checkpoint",
                    str(ck)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{ck}: malformed census checkpoint" in err
    assert ck.read_bytes() == before


def test_verify_theorem_exit_code():
    code, out = run_capture(["verify-theorem"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "OK"
    assert all(line.startswith("PASS") for line in
               out.strip().splitlines()[:-1])


def test_module_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "emgraph.cli",
                           "verify-theorem"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "OK"


def test_expand_levels_csv():
    code, out = run_capture(["expand", "--root", "1", "--max-level", "8",
                             "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "level,nodes,composites"
    assert rows[-1] == "8,24,0"


def test_expand_levels_jsonl():
    code, out = run_capture(["expand", "--root", "1", "--max-level", "5"])
    assert code == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert last == {"level": "5", "nodes": "2", "composites": "0"}


def test_sequence_least_and_largest():
    code, out = run_capture(["sequence", "--rule", "least", "--steps", "8"])
    assert code == 0
    assert out.split() == ["2", "3", "7", "43", "13", "53", "5", "6221671"]
    code, out = run_capture(["sequence", "--rule", "largest", "--steps", "6"])
    assert code == 0
    assert out.split() == ["2", "3", "7", "43", "139", "50207"]


@pytest.mark.parametrize("start", ["0", "-5"])
def test_sequence_start_below_one_exit_two(capsys, start):
    # 0 + 1 has no prime factor: a usage error, not exhausted effort
    assert cli.run(["sequence", "--steps", "3", "--start", start]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "start must be >= 1" in err


def test_explore_with_watch(tmp_path):
    watch = tmp_path / "watch.jsonl"
    watch.write_text('{"a": "19", "m": "30"}\n')
    code, out = run_capture(["explore", "--root", "19", "--bound", "5",
                             "--max-level", "3", "--watch", str(watch)])
    assert code == 0
    hits = [json.loads(l) for l in out.strip().splitlines()]
    assert any(h["value"] == "19" for h in hits)
    assert all(h["hit_m"] == "30" for h in hits)


def test_explore_streams_nodes():
    code, out = run_capture(["explore", "--root", "1", "--bound", "5",
                             "--max-level", "3"])
    assert code == 0
    values = {json.loads(l)["value"] for l in out.strip().splitlines()}
    assert values == {"1", "2", "6"}


def test_chains_cli():
    code, out = run_capture(["chains", "--ell", "4", "--root", "1",
                             "--bound", "100", "--max-level", "2"])
    assert code == 0
    values = [json.loads(l)["value"] for l in out.strip().splitlines()]
    assert "1" in values


_EXPLORE_19 = ["explore", "--root", "19", "--bound", "5", "--max-level", "3"]


@pytest.mark.parametrize("argv, want", [
    (_EXPLORE_19, (
        '{"edges":[],"level":"0","root":"19","value":"19"}\n'
        '{"edges":["2"],"level":"1","root":"19","value":"38"}\n'
        '{"edges":["5"],"level":"1","root":"19","value":"95"}\n'
        '{"edges":["2","3"],"level":"2","root":"19","value":"114"}\n'
        '{"edges":["5","2"],"level":"2","root":"19","value":"190"}\n'
        '{"edges":["5","3"],"level":"2","root":"19","value":"285"}\n'
        '{"edges":["2","3","5"],"level":"3","root":"19","value":"570"}\n'
        '{"edges":["5","3","2"],"level":"3","root":"19","value":"570"}\n')),
    (_EXPLORE_19 + ["--watch"], (
        '{"edges":[],"hit_a":"19","hit_m":"30","level":"0","root":"19",'
        '"value":"19"}\n')),
    (["chains", "--ell", "4", "--root", "1", "--bound", "100",
      "--max-level", "2"], (
        '{"edges":[],"level":"0","root":"1","value":"1"}\n')),
])
def test_walk_output_pinned(tmp_path, argv, want):
    # every field of every line, the two paths to 570 included
    if argv[-1] == "--watch":
        watch = tmp_path / "watch.jsonl"
        watch.write_text('{"a": "19", "m": "30"}\n')
        argv = argv + [str(watch)]
    assert run_capture(argv) == (0, want)


def test_simulate_deterministic_output():
    code1, out1 = run_capture(["simulate", "--k", "500", "--trials", "3",
                               "--seed", "11"])
    code2, out2 = run_capture(["simulate", "--k", "500", "--trials", "3",
                               "--seed", "11"])
    assert code1 == code2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert obj["k_max"] == "500" and len(obj["ratios"]) == 3


def test_simulate_several_k_is_the_single_k_runs_in_order():
    args = ["--trials", "3", "--seed", "11"]
    code, both = run_capture(["simulate", "--k", "500", "40", *args])
    code1, out1 = run_capture(["simulate", "--k", "500", *args])
    code2, out2 = run_capture(["simulate", "--k", "40", *args])
    assert code == code1 == code2 == 0
    assert both == out1 + out2
    assert [json.loads(l)["k_max"] for l in both.splitlines()] == ["500", "40"]


def test_tables_csv(tmp_path):
    recs = tmp_path / "recs.jsonl"
    assert cli.run(["search-pairs", "--lo", "2", "--hi", "2000",
                    "--out", str(recs)]) == 0
    code, out = run_capture(["tables", "--records", str(recs)])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == cli.TABLE_HEADER
    assert any(",1722," in r for r in rows)


def test_tables_empty_input(tmp_path):
    recs = tmp_path / "empty.jsonl"
    recs.write_text("")
    code, out = run_capture(["tables", "--records", str(recs)])
    assert code == 0
    assert out.strip() == cli.TABLE_HEADER


def test_tables_rejects_inconsistent_record(tmp_path):
    recs = tmp_path / "recs.jsonl"
    recs.write_text('{"kind":"triple","modulus":"31","p":["2","3","5"],'
                    '"q":["5","3","2"],"residues":["19"]}\n')
    code, out = run_capture(["tables", "--records", str(recs)])
    assert code == 2
    assert out == ""


GOOD_RECORD = ('{"kind":"triple","modulus":"30","p":["2","3","5"],'
               '"q":["5","3","2"],"residues":["19"]}')


@pytest.mark.parametrize("line", [
    '[1]', '"x"',                                      # not a JSON object
    '{"q":["2"]}',                                     # p and more missing
    '{"p":5,"q":["2"],"modulus":"2","residues":[]}',   # a field's type
    GOOD_RECORD.replace('"triple"', '5'),              # kind not a string
    GOOD_RECORD.replace('"triple"', '"a,b"'),          # not its kind
    GOOD_RECORD.replace('"triple"', '"quadruple-case-I"'),
    GOOD_RECORD.replace('["19"]', '["19","19"]'),      # a repeated residue
    GOOD_RECORD.replace('["19"]', '[]'),               # no residue
])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_tables_malformed_record_exit_two(tmp_path, monkeypatch, capsys,
                                          line, from_stdin):
    text = GOOD_RECORD + "\n\n" + line + "\n"
    recs = tmp_path / "recs.jsonl"
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv, where = ["tables"], "<stdin>:3: "
    else:
        recs.write_text(text)
        argv, where = ["tables", "--records", str(recs)], f"{recs}:3: "
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}bad pair record")


def test_usage_errors_exit_one():
    assert cli.run(["search-pairs", "--lo", "2"]) == 1
    assert cli.run(["no-such-command"]) == 1
    assert cli.run([]) == 1


def test_runtime_error_exit_two(tmp_path):
    # unreadable watch file -> runtime failure
    code = cli.run(["explore", "--root", "1", "--bound", "5",
                    "--max-level", "2", "--watch",
                    str(tmp_path / "missing.jsonl")])
    assert code == 2


def test_malformed_watch_line_exit_two(tmp_path, capsys):
    watch = tmp_path / "watch.jsonl"
    watch.write_text('{"a": "19"}\n')
    code = cli.run(["explore", "--root", "1", "--bound", "5",
                    "--max-level", "2", "--watch", str(watch)])
    assert code == 2
    assert f"{watch}:1" in capsys.readouterr().err


def test_repeated_watch_class_exit_two(tmp_path, capsys):
    watch = tmp_path / "watch.jsonl"
    watch.write_text('{"a":"1","m":"2"}\n{"a":"1","m":"2"}\n')
    code = cli.run(["explore", "--bound", "5", "--max-level", "2",
                    "--watch", str(watch)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{watch}:2: " in captured.err
    assert "repeats the class on line 1" in captured.err


@pytest.mark.parametrize("bad_input", ["policy flag", "cache line",
                                       "search lo", "watch file",
                                       "second k"])
def test_bad_input_leaves_out_intact(tmp_path, bad_input):
    out = tmp_path / "kept.jsonl"
    out.write_text("kept\n")
    bad = tmp_path / "bad"
    if bad_input == "policy flag":
        argv = ["expand", "--max-level", "3", "--ecm-curves", "-1"]
    elif bad_input == "cache line":
        bad.write_text("not a cache line\n")
        argv = ["sequence", "--steps", "3", "--cache", str(bad)]
    elif bad_input == "search lo":  # a job for the generator path
        argv = ["search-pairs", "--lo", "0", "--hi", "100000"]
    elif bad_input == "watch file":  # a missing file
        argv = ["explore", "--bound", "5", "--max-level", "2",
                "--watch", str(bad)]
    else:  # the first k is good
        argv = ["simulate", "--k", "5", "0", "--trials", "1", "--seed", "1"]
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv", [
    ["explore", "--root=-1", "--bound", "30", "--max-level", "1"],
    ["explore", "--root", "0", "--bound", "30", "--max-level", "1"],
    ["chains", "--root=-1", "--ell", "2", "--max-level", "1"],
    ["explore", "--bound", "30", "--max-level", "-1"],
    ["chains", "--ell", "2", "--max-level", "-1"],
    ["expand", "--root", "1", "--max-level", "-2"],
])
def test_bad_root_or_level_exit_two(tmp_path, argv):
    out = tmp_path / "kept.jsonl"
    out.write_text("kept\n")
    assert cli.run(argv) == 2
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_run_without_output_truncates_out(tmp_path):
    out, watch = tmp_path / "hits.jsonl", tmp_path / "watch.jsonl"
    out.write_text("old\n")
    watch.write_text("")
    assert cli.run(["explore", "--bound", "5", "--max-level", "2",
                    "--watch", str(watch), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_malformed_cache_exit_two(tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("not a cache line\n")
    code = cli.run(["sequence", "--steps", "1", "--cache", str(cache)])
    assert code == 2


def test_cache_line_with_non_divisor_exit_two(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    cache.write_text("91=5\n")
    code = cli.run(["sequence", "--steps", "1", "--cache", str(cache)])
    assert code == 2
    assert f"{cache}:1" in capsys.readouterr().err


def test_policy_flags_set_the_factoring_effort(capsys):
    code = cli.run(["sequence", "--steps", "12", "--trial-bound", "100",
                    "--rho-iterations", "5", "--ecm-curves", "0"])
    out, err = capsys.readouterr()
    assert code == 0
    # the cheap policy cannot certify all 12 terms
    assert len(out.split()) < 12
    assert f"stopped after {len(out.split())} terms" in err


@pytest.mark.parametrize("flag,field", [(["--ecm-curves", "-1"], "ecm_curves"),
                                        (["--ecm-b1=-1"], "ecm_b1")])
def test_negative_policy_flag_exit_two(capsys, flag, field):
    assert cli.run(["sequence", "--steps", "3"] + flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"policy field {field} must be nonnegative" in err


def test_cache_flag(tmp_path):
    cache = tmp_path / "cache.txt"
    blocked = 2 ** 101 - 2
    cache.write_text(f"{blocked + 1}=7432339208719\n")
    code, out = run_capture(["sequence", "--steps", "1", "--start",
                             str(blocked), "--cache", str(cache),
                             "--rho-iterations", "0", "--ecm-curves", "0"])
    assert code == 0
    assert out.split() == ["7432339208719"]


def test_sequence_prints_table_prime_below_trial_bound():
    code, out = run_capture(["sequence", "--start",
                             "4952862588761800911605208807760844003510",
                             "--steps", "1", "--trial-bound", "0",
                             "--rho-iterations", "0", "--ecm-curves", "0"])
    assert (code, out.split()) == (0, ["3"])


# each command takes only the options it reads ---------------------------

# a valid call of each command, to take one option the command does not read
_BASE_ARGV = {
    "search-pairs": ["search-pairs", "--lo", "2", "--hi", "100"],
    "explore": ["explore", "--bound", "5", "--max-level", "2"],
    "verify-theorem": ["verify-theorem"],
    "chains": ["chains", "--ell", "2", "--max-level", "2"],
    "simulate": ["simulate", "--k", "10", "--trials", "1", "--seed", "1"],
    "tables": ["tables", "--records", os.devnull],
    "sequence": ["sequence", "--steps", "2"],
    "expand": ["expand", "--max-level", "2"],
}


@pytest.mark.parametrize("command,option", [
    ("search-pairs", ["--cache", "x"]),
    *((c, o) for c in ("explore", "verify-theorem", "chains", "simulate",
                       "tables")
      for o in (["--cache", "x"], ["--format", "csv"])),
    ("sequence", ["--format", "csv"]),
    ("search-pairs", ["--format", "csv"]),
    # no flag limits the seconds a factoring call takes
    ("expand", ["--time-budget", "1"]),
    ("sequence", ["--time-budget", "1"]),
])
def test_option_a_command_does_not_read_is_a_usage_error(command, option,
                                                         capsys):
    assert cli.run(_BASE_ARGV[command] + option) == 1
    out, err = capsys.readouterr()
    assert out == "" and option[0] in err


def test_every_policy_field_is_a_flag_of_the_factoring_commands():
    parsers = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("expand", "sequence"):
        dests = {a.dest for a in parsers[command]._actions}
        assert {f.name for f in dataclasses.fields(EffortPolicy)} <= dests


def _readme_command_lines():
    """The lines of README.md's fenced sh blocks that run emgraph, with
    backslash continuations joined. Inline spans are left out: they hold
    placeholders such as --workers N."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        lines += [line for line in
                  re.sub(r"\\\n\s*", " ", block).splitlines()
                  if line.startswith("emgraph ")]
    return lines


def test_readme_commands_parse_and_cover_every_subcommand():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    shown = set()
    for line in _readme_command_lines():
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README.md: {line!r}: {exc}")
        shown.add(argv[0])
    assert shown == set(commands)


def test_every_policy_field_changes_the_census_fingerprint():
    base = graph._policy_fingerprint(DEFAULT_POLICY)
    for f in dataclasses.fields(EffortPolicy):
        other = dataclasses.replace(
            DEFAULT_POLICY, **{f.name: getattr(DEFAULT_POLICY, f.name) + 1})
        assert graph._policy_fingerprint(other) != base, f.name
