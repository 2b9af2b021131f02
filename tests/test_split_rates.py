"""The split-rate table against the factoring ladder's curves.

``scripts/split_rates.py`` measures, on seeded random semiprimes, the
split rate and time of the short rho pass and of one curve at each B1.
The committed table ``SPLIT_RATES.json`` must reproduce in its split
counts.
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


def test_table_split_counts_reproduce(split_rates, table):
    # a smoke slice: every rho budget and every B1 but the largest at the
    # smallest size, where each takes one or two rounds, and B1 = 250 at
    # 22 bits, whose count moved with stage 2's D (ladder 5)
    assert [r["bits"] for r in table["rows"]] == list(split_rates.SIZES)
    slices = ((0, split_rates.RHO_BUDGETS, split_rates.ECM_B1[:-1]),
              (1, (), (250,)))
    for i, budgets, b1s in slices:
        row = split_rates.measure(split_rates.SIZES[i], budgets, b1s)
        for stage, cells in (("rho", budgets), ("ecm", b1s)):
            for key in map(str, cells):
                got, want = row[stage][key], table["rows"][i][stage][key]
                assert (got["tries"], got["splits"]) == (
                    want["tries"], want["splits"]), (row["bits"], stage, key)


def test_semiprimes_have_the_stated_sizes(split_rates):
    for bits in (20, 46, 70):
        pairs = split_rates.semiprimes(bits)
        assert len(pairs) == split_rates.SEMIPRIMES
        for p, q in pairs:
            assert arith.is_prime(p) and arith.is_prime(q)
            assert p.bit_length() == bits
            assert q.bit_length() == max(100 - bits, bits + 8)
