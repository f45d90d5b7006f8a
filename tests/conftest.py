"""The tests' oracles: the direct scan, the oracle of `exact_distribution`'s
rank law (every m x n matrix over GF(q), ranked by elimination and counted
entry by entry), and json.dumps, the oracle of the CLI's JSON writer."""

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from fqrank.counting import rank_count
from fqrank.field import field_from_order
from fqrank.matrices import SubsetA, _decode, _rank_stack

_SCAN_ENTRIES = 1 << 20  # matrix entries decoded per block


@lru_cache(maxsize=None)
def _scan_tallies(q: int, m: int, n: int, amask: int) -> np.ndarray:
    """Entry [k, v]: the number of rank-k m x n matrices with v entries in A.
    One scan of the q^(mn) matrices tallies every rank, so the ranks of one
    shape share it."""
    ctx, member = field_from_order(q), SubsetA(q, amask).member_table()
    total, width = q ** (m * n), m * n + 1
    tallies = np.zeros((min(m, n) + 1) * width, dtype=np.int64)
    step = max(1, _SCAN_ENTRIES // (m * n or 1))
    for lo in range(0, total, step):
        mats = _decode(q, np.arange(lo, min(lo + step, total), dtype=np.int64), m, n)
        cells = _rank_stack(ctx, mats) * width + member[mats].sum(axis=(1, 2))
        tallies += np.bincount(cells, minlength=len(tallies))
    tallies = tallies.reshape(-1, width)
    found = tallies.sum(axis=1).tolist()
    expected = [int(rank_count(q, m, n, k)) for k in range(len(found))]
    assert found == expected, f"the scan found {found} matrices per rank, formulas say {expected}"
    return tallies


def scan_law(ctx, m, n, r, subset_a) -> tuple[dict[int, Fraction], Fraction, Fraction]:
    """The law of the entry count over the rank-r matrices, its mean and its
    variance, by the scan and the definitions."""
    counts = _scan_tallies(ctx.q, m, n, subset_a.mask)[r].tolist()
    total = sum(counts)
    law = {v: Fraction(c, total) for v, c in enumerate(counts) if c}
    mean = sum(v * p for v, p in law.items())
    return law, mean, sum((v - mean) ** 2 * p for v, p in law.items())


@pytest.fixture(scope="session")
def scan():
    """`scan_law`, for tests that check exact_distribution against it."""
    return scan_law


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {key: _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_jsonify(val) for val in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def json_text(obj) -> str:
    """What `cli._emit` must write: obj with each Fraction as its str and each
    float rounded to 12 significant digits, through json.dumps(indent=2)."""
    return json.dumps(_jsonify(obj), indent=2) + "\n"


@pytest.fixture(scope="session")
def json_oracle():
    """`json_text`, for tests that check the CLI's writer against it."""
    return json_text
