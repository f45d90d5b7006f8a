"""Acceptance gate: one test per shipped guarantee, printed as PASS/FAIL lines.

Each test is self-contained and recomputes its oracle from scratch (exhaustive
enumeration or an independent closed form), so a pass here certifies the
installed package, not the other test files.
"""

import json
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fqrank.characters import verification_battery
from fqrank.counting import (
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    MomentParams,
    rank_count,
    tv_closed_form_exact,
)
from fqrank.field import field_from_order, make_field
from fqrank.matrices import SubsetA, ct, mat_mul, matrix, rank
from fqrank.sampling import SeedSpec, uniform_matrix, uniform_rank_r
from fqrank.decomposition import (
    decompose_ct,
    expected_char_sum,
    row_char_sum,
    zero_count_moments,
    count_zero_rows,
)
from fqrank.exact import exact_distribution
from fqrank.stats import run_clt
from fqrank.characters import all_subsets, character_table


def report(criterion, ok, detail):
    line = f"CRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def all_matrices(ctx, rows, cols):
    for entries in product(range(ctx.q), repeat=rows * cols):
        yield matrix(ctx, [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)])


def test_criterion_1_counting_exactness():
    """rank_count equals exhaustive enumeration and partitions the space."""
    worst = None
    for q in (2, 3):
        ctx = field_from_order(q)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                counts = [0] * (min(m, n) + 1)
                for mat in all_matrices(ctx, m, n):
                    counts[rank(mat)] += 1
                for r, enumerated in enumerate(counts):
                    formula = rank_count(q, m, n, r)
                    if formula != enumerated:
                        worst = (q, m, n, r, enumerated, str(formula))
                if sum(counts) != q ** (m * n):
                    worst = (q, m, n, "partition")
    report(1, worst is None, f"rank_count vs enumeration, q in 2,3 m,n<=3 ({worst})")


def enumerate_matrix_tv(q, m, n, r):
    """Total variation between the product law and the uniform rank-r law,
    summed over all m x n matrices, via direct python enumeration."""
    ctx = field_from_order(q)
    xs = list(all_matrices(ctx, m, r))
    ys = list(all_matrices(ctx, r, n))
    prod_law = {}
    for x in xs:
        for y in ys:
            key = mat_mul(x, y)
            prod_law[key] = prod_law.get(key, 0) + 1
    pairs = len(xs) * len(ys)
    n_rank = rank_count(q, m, n, r)
    tv = Fraction(0)
    for mat in all_matrices(ctx, m, n):
        p_prod = Fraction(prod_law.get(mat, 0), pairs)
        p_rank = Fraction(1, int(n_rank)) if rank(mat) == r else Fraction(0)
        tv += abs(p_prod - p_rank)
    return tv


def test_criterion_2_tv_closed_form():
    """Closed-form total variation equals the enumerated sum at four points."""
    cases = [(2, 2, 2, 1), (2, 2, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1)]
    bad = []
    for q, m, n, r in cases:
        closed = tv_closed_form_exact(q, m, n, r)
        enumerated = enumerate_matrix_tv(q, m, n, r)
        if closed != enumerated:
            bad.append((q, m, n, r, str(closed), str(enumerated)))
    ok = not bad and tv_closed_form_exact(2, 2, 2, 1) == Fraction(7, 8)
    report(2, ok, f"tv closed form vs enumeration at {cases} ({bad})")


EXPECTED_TOLERANCES = {
    "orthogonality_additive_char_sum": 1e-12,
    "orthogonality_multiplicative_char_sum": 1e-12,
    "orthogonality_additive_element_sum": 1e-12,
    "orthogonality_multiplicative_element_sum": 1e-12,
    "mobius_component_support": 1e-12,
    "mobius_reconstruction": 1e-12,
    "fourier_round_trip": 1e-10,
    "mobius_fourier_inversion": 1e-9,
    "component_transform_consistency": 1e-10,
    "jacobi_embedded_trivial": 1e-10,
    "jacobi_component_trivial": 1e-10,
    "alternating_subset_identity": 0.0,
}


def test_criterion_3_character_battery():
    """Orthogonality, Fourier and Mobius inversion, and Jacobi closed forms."""
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_from_order(q)
        r = 3 if q <= 5 else 2  # sizes <= 3 for the Jacobi checks where required
        battery = verification_battery(ctx, r=r, seed=0, trials=2)
        for name, entry in battery.items():
            if entry["tolerance"] != EXPECTED_TOLERANCES[name]:
                failures.append((q, name, "tolerance drift", entry["tolerance"]))
            if not entry["ok"]:
                failures.append((q, name, entry["residual"]))
    report(3, not failures, f"character battery q in 2..9 ({failures})")


def test_criterion_4_sampler_exactness():
    """Every rank-r outcome equally likely: 5-standard-error bound per outcome."""
    spec = SeedSpec(2024)
    failures = []
    for idx, (q, m, n, r) in enumerate([(2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1)]):
        ctx = field_from_order(q)
        outcomes = int(rank_count(q, m, n, r))
        draws = 10_000 * outcomes
        rng = spec.stream(idx)
        counts = {}
        for _ in range(draws):
            key = uniform_rank_r(ctx, m, n, r, rng).data.tobytes()
            counts[key] = counts.get(key, 0) + 1
        p = 1 / outcomes
        se = np.sqrt(p * (1 - p) / draws)
        if len(counts) != outcomes:
            failures.append((q, m, n, r, "missing outcomes", len(counts)))
        worst = max(abs(c / draws - p) for c in counts.values())
        if worst > 5 * se:
            failures.append((q, m, n, r, "deviation", worst, 5 * se))
    report(4, not failures, f"uniform_rank_r chi-square at 3 parameter points ({failures})")


def test_criterion_5_decomposition_identity():
    """Max |residual| <= 1e-6 over seeded pairs, plus the hand instance."""
    spec = SeedSpec(7)
    worst = 0.0
    idx = 0
    for q in (2, 3):
        ctx = field_from_order(q)
        subsets = [SubsetA.from_indices(q, [1]), SubsetA.nonzero(q)]
        for r in (1, 2):
            for m in (2, 4, 8):
                for n in (2, 4, 8):
                    rng = spec.stream(idx)
                    idx += 1
                    for _ in range(100):
                        x = uniform_matrix(ctx, m, r, rng)
                        y = uniform_matrix(ctx, r, n, rng)
                        for subset in subsets:
                            worst = max(worst, abs(decompose_ct(x, y, subset).residual))
    ctx = make_field(2, 1)
    dec = decompose_ct(
        matrix(ctx, [[1], [0]]), matrix(ctx, [[1, 1]]), SubsetA.from_indices(2, [1])
    )
    hand_ok = (
        dec.ct_value == 2
        and dec.mean_term == 1.0
        and abs(dec.zero_row_term) < 1e-12
        and abs(dec.zero_col_term - 1.0) < 1e-12
        and abs(dec.main_term) < 1e-12
    )
    ok = worst <= 1e-6 and hand_ok
    report(5, ok, f"7200 seeded pairs, max residual {worst:.3g}; hand instance {hand_ok}")


def test_criterion_6_moment_lemmas():
    """Expected character sums and zero-count moments vs exact averages."""
    failures = []
    for q in (2, 3):
        ctx = field_from_order(q)
        table = character_table(ctx)
        for r in (1, 2):
            for m in (1, 2):
                mats = list(all_matrices(ctx, m, r))
                for subset in all_subsets(r):
                    for chis in product(range(q - 1), repeat=subset.size):
                        avg = sum(row_char_sum(x, subset, chis, table) for x in mats) / len(mats)
                        want = complex(float(expected_char_sum(q, subset, chis, m)))
                        if abs(avg - want) > 1e-9:
                            failures.append(("char", q, r, m, subset.members(), chis))
                zs = [count_zero_rows(x) for x in mats]
                mean = Fraction(sum(zs), len(zs))
                var = Fraction(sum(z * z for z in zs), len(zs)) - mean**2
                if (mean, var) != zero_count_moments(q, r, m):
                    failures.append(("zero", q, r, m))
    dist = exact_distribution(make_field(2, 1), 2, 2, 1, SubsetA.from_indices(2, [1]))
    if dist.mean != Fraction(16, 9):
        failures.append(("E[ct]", str(dist.mean)))
    report(6, not failures, f"moment formulas vs enumeration; E[ct]=16/9 ({failures})")


def test_criterion_7_clt_property():
    """Normalised counts look standard normal at large size, and the fit
    improves from m=n=16 to m=n=256."""
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    rep = run_clt(ctx, subset, 1, 256, 256, 10_000, seed=42, mode="exact", workers=4)
    close = abs(rep.mean) <= 0.1 and abs(rep.variance - 1.0) <= 0.1 and rep.ks <= 0.05
    ks_by_size = {}
    for m in (16, 256):
        vals = [
            run_clt(ctx, subset, 1, m, m, 10_000, seed=s, workers=4).ks
            for s in range(1, 6)
        ]
        ks_by_size[m] = sum(vals) / len(vals)
    improves = ks_by_size[16] > ks_by_size[256]
    ok = close and improves
    report(
        7,
        ok,
        f"m=256 seed=42: mean {rep.mean:+.4f}, var {rep.variance:.4f}, ks {rep.ks:.4f}; "
        f"mean ks 16 vs 256: {ks_by_size[16]:.4f} > {ks_by_size[256]:.4f}",
    )


def test_criterion_8_centering_gap_decay():
    """|E_exact - mu| / sigma strictly decreases along m = n in {2, 3, 4}."""
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    gaps = []
    for m in (2, 3, 4):
        dist = exact_distribution(ctx, m, m, 1, subset)
        params = MomentParams(q=2, r=1, m=m, n=m, subset=subset)
        mu = asymptotic_ct_mean(params)
        sigma = float(asymptotic_ct_variance(params)) ** 0.5
        gaps.append(abs(float(dist.mean - mu)) / sigma)
    ok = gaps[0] > gaps[1] > gaps[2]
    report(8, ok, f"gaps at m=2,3,4: {[f'{g:.4f}' for g in gaps]}")


def test_criterion_9_cli_reproducibility():
    """Byte-identical clt JSON for --workers 1 vs --workers 4."""
    base = [
        sys.executable, "-m", "fqrank.cli",
        "clt", "--field", "2", "--A", "1", "--r", "1",
        "--m", "64", "--n", "64", "--N", "2000", "--seed", "11",
    ]
    outs = []
    for workers in ("1", "4"):
        proc = subprocess.run(
            base + ["--workers", workers], capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] and json.loads(outs[0])["N"] == 2000
    report(9, ok, f"clt stdout identical across worker counts ({len(outs[0])} bytes)")
