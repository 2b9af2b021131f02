"""The ladder's short rho budget and B1 ramp against the split-rate table.

``scripts/split_rates.py`` measures, on seeded random semiprimes, the
split rate and time of the short rho pass and of one curve at each B1,
and selects the constants by one rule. The committed table
``SPLIT_RATES.json`` must reproduce in its split counts, and the rule
applied to it must give the constants of ``arith``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from emgraph import arith

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def split_rates():
    spec = importlib.util.spec_from_file_location(
        "split_rates", ROOT / "scripts" / "split_rates.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def table():
    return json.loads((ROOT / "SPLIT_RATES.json").read_text())


def test_rule_selects_the_ladder_constants(split_rates, table):
    assert [r["bits"] for r in table["rows"]] == list(split_rates.SIZES)
    selected = split_rates.choose(table)
    assert selected == table["selected"]
    assert selected["rho_short"] == arith._RHO_SHORT
    assert tuple(map(tuple, selected["ecm_ramp"])) == arith._ECM_RAMP


def test_table_split_counts_reproduce(split_rates, table):
    # a smoke slice: every rho budget and every B1 but the largest, at the
    # smallest size, where each takes one or two rounds
    b1s = split_rates.ECM_B1[:-1]
    row = split_rates.measure(split_rates.SIZES[0], b1s=b1s)
    committed = table["rows"][0]
    for stage, cells in (("rho", split_rates.RHO_BUDGETS), ("ecm", b1s)):
        for key in map(str, cells):
            got, want = row[stage][key], committed[stage][key]
            assert (got["tries"], got["splits"]) == (
                want["tries"], want["splits"]), (stage, key)


def test_semiprimes_have_the_stated_sizes(split_rates):
    for bits in (20, 46, 70):
        pairs = split_rates.semiprimes(bits)
        assert len(pairs) == split_rates.SEMIPRIMES
        for p, q in pairs:
            assert arith.is_prime(p) and arith.is_prime(q)
            assert p.bit_length() == bits
            assert q.bit_length() == max(100 - bits, bits + 8)
