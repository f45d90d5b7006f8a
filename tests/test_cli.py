import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fqrank
from fqrank import cli, sampling
from fqrank.cli import main
from fqrank.field import FqrankError, make_field
from fqrank.matrices import dump_matrix, load_matrix, mat_mul, matrix, rank
from fqrank.sampling import SeedSpec, draw_factor_pair


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- count -----------------------------------------------------------------

def test_count_basic(capsys):
    rc, out, err = run_cli(capsys, ["count", "--field", "2", "--m", "2", "--n", "2", "--r", "1"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["rank_count"] == "9"
    assert doc["tv_closed_form"]["exact"] == "7/8"
    assert doc["rank_prob"]["decimal"] == pytest.approx(9 / 16)
    assert "A" not in doc


def test_count_with_subset(capsys):
    rc, out, _ = run_cli(
        capsys, ["count", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", "1"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["A"] == [1]
    assert doc["mean"]["exact"] == "1"
    assert doc["variance"]["exact"] == "1"
    assert doc["subset_bias"]["exact"] == "1/2"
    # the zeros of a 2 x 2 matrix are 4 minus its ones: the mean moves, the variance stays
    rc, out, _ = run_cli(
        capsys, ["count", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", "zero"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["A"] == [0]
    assert doc["mean"]["exact"] == "3"
    assert doc["variance"]["exact"] == "1"


def test_count_deterministic_output(capsys):
    argv = ["count", "--field", "3^2", "--m", "3", "--n", "4", "--r", "2", "--A", "nonzero"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


# --- sample -----------------------------------------------------------------

def test_sample_text_round_trip(capsys):
    argv = [
        "sample", "--field", "3", "--m", "3", "--n", "4", "--r", "2",
        "--count", "3", "--seed", "11",
    ]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 3
    for block in blocks:
        mat = load_matrix(block)
        assert mat.data.shape == (3, 4)
        assert rank(mat) == 2
    rc2, out2, _ = run_cli(capsys, argv)
    assert out2 == out  # same seed, same bytes


def test_sample_json(capsys):
    argv = [
        "sample", "--field", "2", "--m", "2", "--n", "2", "--r", "1",
        "--count", "2", "--seed", "0", "--format", "json",
    ]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 2 and doc["mode"] == "exact" and len(doc["matrices"]) == 2
    ctx = make_field(2, 1)
    for rows in doc["matrices"]:
        assert rank(matrix(ctx, rows)) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("mode", ["exact", "product"])
def test_sample_blocks_are_per_stream_products(capsys, monkeypatch, mode, fmt):
    # 60 entries per block: 2 samples of 3x4 from rank-2 factors, so 7 blocks
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", 60)
    argv = [
        "sample", "--field", "3", "--m", "3", "--n", "4", "--r", "2",
        "--count", "13", "--seed", "11", "--mode", mode, "--format", fmt,
    ]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    ctx = make_field(3, 1)
    spec = SeedSpec(11)
    mats = [mat_mul(*draw_factor_pair(ctx, 3, 4, 2, spec.stream(i), mode)) for i in range(13)]
    if fmt == "text":
        assert out == "\n".join(dump_matrix(mat) for mat in mats)
    else:
        assert json.loads(out)["matrices"] == [mat.data.tolist() for mat in mats]


def test_sample_product_mode_needs_positive_rank(capsys):
    rc, _, err = run_cli(
        capsys,
        ["sample", "--field", "2", "--m", "2", "--n", "2", "--r", "0", "--mode", "product"],
    )
    assert rc == 2 and "--r" in err


# --- exact ------------------------------------------------------------------

def test_exact_frozen(capsys):
    rc, out, _ = run_cli(
        capsys, ["exact", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", "1"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean"]["exact"] == "16/9"
    assert doc["matrix_tv"]["exact"] == "7/8"
    assert doc["rank_dist"] == {"1": "4/9", "2": "4/9", "4": "1/9"}
    assert doc["product_dist"]["0"] == "7/16"
    assert doc["method"] == "pairs"


# --- identity -----------------------------------------------------------------

def test_identity_random_pairs(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["identity", "--field", "3", "--A", "nonzero", "--m", "3", "--n", "3",
         "--r", "2", "--count", "10", "--seed", "4"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["pairs"] == 10
    assert doc["max_residual"] <= 1e-6
    assert len(doc["terms"]) == 10


def test_identity_from_files(tmp_path, capsys):
    ctx = make_field(2, 1)
    x = matrix(ctx, [[1], [0]])
    y = matrix(ctx, [[1, 1]])
    xfile = tmp_path / "x.txt"
    yfile = tmp_path / "y.txt"
    xfile.write_text(dump_matrix(x))
    yfile.write_text(dump_matrix(y))
    rc, out, _ = run_cli(
        capsys,
        ["identity", "--field", "2", "--A", "1",
         "--x-file", str(xfile), "--y-file", str(yfile)],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pairs"] == 1
    term = doc["terms"][0]
    assert term["ct"] == 2
    assert term["mean_term"] == pytest.approx(1.0)
    assert term["zero_col_term"] == pytest.approx(1.0)
    assert term["residual_abs"] <= 1e-12
    assert doc["config"]["m"] == 2 and doc["config"]["r"] == 1 and doc["config"]["n"] == 2


def test_identity_requires_both_files(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text(dump_matrix(matrix(make_field(2, 1), [[1], [0]])))
    rc, _, err = run_cli(
        capsys, ["identity", "--field", "2", "--A", "1", "--x-file", str(f)]
    )
    assert rc == 2 and "file" in err


def test_identity_failure_exit_code(capsys):
    rc, out, err = run_cli(
        capsys,
        # GF(3)'s residuals are rounding noise above 0, so tolerance 0 fails
        ["identity", "--field", "3", "--A", "1", "--count", "2", "--tolerance", "0"],
    )
    assert rc == 1
    assert json.loads(out)["pass"] is False
    assert "residual" in err


# --- lemmas --------------------------------------------------------------------

def test_lemmas_pass(capsys):
    rc, out, err = run_cli(capsys, ["lemmas", "--field", "4", "--r", "2", "--trials", "1"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["checks"]
    for name, entry in doc["checks"].items():
        assert entry["ok"] is True, name
        assert entry["residual"] <= entry["tolerance"]


def test_lemmas_refuses_a_rank_past_the_cap_quickly(capsys):
    # (q-1)^r = 1 at q = 2 bounds nothing: without the (2q)^r cap r = 40 asks for 2^40 entries
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["lemmas", "--field", "2", "--r", "40"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", "error: battery at (2q)^r = 4^40 exceeds the cap 2^17\n")


def test_lemmas_refuses_a_large_field_before_its_table(capsys):
    # at r = 1 the battery's q^2 work passes the cap: GF(4096) took 0.9 s, plus 0.9 s for its table
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["lemmas", "--field", "4096", "--r", "1"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert err == "error: battery at (2q)^r + q^2/16 = 1056768 at q = 4096 exceeds the cap 2^17 = 131072\n"


def test_exact_rank_zero_is_a_point_mass_at_any_size(capsys):
    # the zero matrix alone, with all of its 2000 x 2000 entries in A = {0}
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "exact --field 2 --m 2000 --n 2000 --r 0 --A 0".split())
    assert time.perf_counter() - start < 1.0
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["rank_dist"] == doc["product_dist"] == {"4000000": "1"}
    assert doc["mean"]["exact"] == "4000000"
    assert doc["variance"]["exact"] == doc["matrix_tv"]["exact"] == "0"


def test_lemmas_failure_exit_code(capsys, monkeypatch):
    failing = {"orthogonality": {"residual": 1.0, "tolerance": 0.0, "ok": False}}
    monkeypatch.setattr(cli, "verification_battery", lambda *args, **kwargs: failing)
    rc, out, err = run_cli(capsys, ["lemmas", "--field", "2"])
    assert rc == 1
    assert json.loads(out)["all_ok"] is False
    assert err == "lemma checks failed: orthogonality\n"


# --- clt ------------------------------------------------------------------------

def test_clt_report(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["clt", "--field", "2", "--A", "1", "--r", "1", "--m", "8", "--n", "8",
         "--N", "150", "--seed", "9"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 150
    assert sum(doc["histogram"]["counts"]) == 150
    assert len(doc["histogram"]["edges"]) == 82
    assert "workers" not in doc


def test_clt_equal_samples_have_zero_variance_and_skewness(capsys):
    # [1] is the only rank-1 1 x 1 matrix over GF(2): every sample is the same
    argv = "clt --field 2 --A 1 --r 1 --m 1 --n 1 --N 100 --seed 0".split()
    rc, out, _ = run_cli(capsys, argv)
    doc = json.loads(out)
    assert rc == 0 and max(doc["histogram"]["counts"]) == 100
    assert (doc["variance"], doc["skewness"]) == (0.0, 0.0)


def test_clt_worker_invariance(capsys):
    base = ["clt", "--field", "2", "--A", "1", "--r", "1", "--m", "8", "--n", "8",
            "--N", "120", "--seed", "3"]
    _, one, _ = run_cli(capsys, base + ["--workers", "1"])
    _, two, _ = run_cli(capsys, base + ["--workers", "2"])
    assert one == two


def test_clt_csv_outputs(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    samples = tmp_path / "samples.csv"
    rc, _, _ = run_cli(
        capsys,
        ["clt", "--field", "2", "--A", "1", "--r", "1", "--m", "8", "--n", "8",
         "--N", "110", "--seed", "2", "--bins", "21",
         "--csv-hist", str(hist), "--csv-samples", str(samples)],
    )
    assert rc == 0
    hist_lines = hist.read_text().strip().splitlines()
    assert hist_lines[0] == "bin_center,count"
    assert len(hist_lines) == 22
    assert sum(int(line.split(",")[1]) for line in hist_lines[1:]) == 110
    sample_lines = samples.read_text().strip().splitlines()
    assert len(sample_lines) == 111
    value, cdf = map(float, sample_lines[1].split(","))
    assert 0.0 <= cdf <= 1.0


# --- usage errors ------------------------------------------------------------------

def test_composite_field_rejected(capsys):
    rc, _, err = run_cli(capsys, ["count", "--field", "6", "--m", "2", "--n", "2", "--r", "1"])
    assert rc == 2 and "--field" in err


def test_bad_subset_rejected(capsys):
    rc, _, err = run_cli(
        capsys, ["exact", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", "7"]
    )
    assert rc == 2 and "--A" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "element 5 outside range(2)"),
        ("x", "expected comma-separated element indices or nonzero/zero, got 'x'"),
        (",", "subset is empty"),
    ],
)
def test_subset_flag_messages(capsys, text, message):
    argv = ["count", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", text]
    assert run_cli(capsys, argv) == (2, "", f"error: --A: {message}\n")


def test_identity_refuses_a_negative_rank(capsys):
    argv = ["identity", "--field", "3", "--A", "1", "--r", "-1"]
    assert run_cli(capsys, argv) == (2, "", "error: --r: rank -1 is negative\n")


def test_bad_rank_rejected(capsys):
    rc, _, err = run_cli(
        capsys, ["exact", "--field", "2", "--m", "2", "--n", "2", "--r", "5", "--A", "1"]
    )
    assert rc == 2 and "--r" in err


@pytest.mark.parametrize(
    "argv, shape",
    [
        ("exact --field 2 --A 1 --m -1 --n 2 --r 0", "-1 x 2"),
        ("clt --field 2 --A 1 --m -1 --n 2 --r 0 --N 100 --seed 0", "-1 x 2"),
        ("count --field 2 --m -1 --n 2 --r 0", "-1 x 2"),
        ("count --field 2 --m 2 --n -3 --r 1", "2 x -3"),
        ("sample --field 2 --m -1 --n 2 --r 0", "-1 x 2"),
        ("identity --field 2 --A 1 --m -1 --n 2 --r 0", "-1 x 2"),
    ],
)
def test_negative_dimension_is_blamed_on_the_dimensions(capsys, argv, shape):
    expected = f"error: --m/--n: dimensions must be >= 0, got {shape}\n"
    assert run_cli(capsys, argv.split()) == (2, "", expected)


def test_bad_seed_rejected(capsys):
    rc, _, err = run_cli(
        capsys,
        ["clt", "--field", "2", "--A", "1", "--r", "1", "--m", "8", "--n", "8",
         "--N", "120", "--seed", "-3"],
    )
    assert rc == 2 and "--seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --field 2 --m 0 --n 2 --r 0 --A 1",
        "identity --field 2 --A 1 --m -1",
        "identity --field 2 --A 1 --x-file {bad} --y-file {bad}",
        "identity --field 2 --A 1 --count 0",
        "sample --field 2 --m 2 --n 2 --r 1 --count -2",
        "sample --field 2 --m -1 --n 2 --r 1 --mode product",
        "lemmas --field 2 --r -1",
        "lemmas --field 2 --r 2 --trials 0",
        "lemmas --field 2 --seed -5",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 120 --seed 1 --bins 0",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 99 --seed 1",
        "clt --field 2 --A 0,1 --r 1 --m 8 --n 8 --N 120 --seed 1",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --workers 0",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --workers -3",
        # an unwritable CSV path must not leave a report on stdout
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --csv-hist {bad}/h.csv",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --csv-samples {bad}/s.csv",
        "identity --field 2 --A 1 --tolerance nan",
        "identity --field 2 --A 1 --tolerance -1",
        # 3^9 terms are within the term gate; r = 9 is past the rank gate
        "identity --field 3 --A 1 --m 2 --n 2 --r 9 --count 1",
        # gate messages name the power, not its 9543 decimal digits
        "exact --field 3 --m 100 --n 100 --r 100 --A 1",
        # values past Python's int-to-str limit of 4300 digits
        "count --field 3 --m 100 --n 100 --r 100",
        "count --field 2 --m 3000 --n 3000 --r 3000",
    ],
)
def test_library_input_errors_exit_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 2\n1\nx\n")
    rc, out, err = run_cli(capsys, argv.format(bad=bad).split())
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("order", ["8192", "10000", "1000000000000000003"])
def test_field_order_past_the_maximum_is_refused_at_once(capsys, order):
    """Prime, prime power or composite, an order past 4096 gets one message;
    trial division of the prime 1000000000000000003 would run for minutes."""
    rc, out, err = run_cli(capsys, ["count", "--field", order, "--m", "2", "--n", "2", "--r", "1"])
    assert (rc, out) == (2, "")
    assert err == f"error: --field: order {order} exceeds the supported maximum 4096\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "sample --field 3 --m 3 --n 4 --r 2 --count 5 --seed 11",
            "b8664b9f93d74c41a908cdaa0847a096aa6d15de49747da7d6e5f85046f15ffb",
        ),
        (
            "sample --field 4 --m 5 --n 3 --r 2 --count 5 --seed 7 --mode product --format json",
            "3000b339c66a0532afa2cf25deb6b8062b515b6d815a58f274d6004be2c020c7",
        ),
        (
            "identity --field 3 --A nonzero --m 4 --n 4 --r 2 --count 5 --seed 4",
            "ca3187f09aee2cee8edf87e721c2df72ab8662b67b74b8ca385bfcc0fb5baa81",
        ),
        (
            # r = 0: empty factors and a zero product, which `sample --mode product` refuses
            "identity --field 3 --A 0,1 --m 3 --n 2 --r 0 --count 2 --seed 1",
            "121c689cdee1bc93b5438a5bbefdbba60b8fed946c452014e686d25f92f01f83",
        ),
        (
            # m*n*log10(q) is past 4300, yet every integer printed is shorter
            "count --field 2 --m 120 --n 120 --r 60",
            "581c7226f39ddcc3e6a164fa973c90ecb2512d1f22ecfe323cdf13d5f234120d",
        ),
        (
            "exact --field 2 --m 4 --n 5 --r 2 --A 1",
            "45e102ebb2c2eb9fd508b096d9ec6a8121f3573703bba3e44a2ab8026500d23a",
        ),
        (
            # the transpose of 4 x 5: the same laws, printed with m and n swapped
            "exact --field 2 --m 5 --n 4 --r 2 --A 1",
            "37ad4b939ef5c229ab52f5642f1184fbdab6615f7cd4abc4d3360c0ba2e698f6",
        ),
        (
            # GF(2)^3 has 16 subspaces
            "exact --field 2 --m 4 --n 4 --r 3 --A 1",
            "b876fceab0b74515fa673ef3458377efa94d90f32cb314c83d66d15e150890a9",
        ),
        (
            "exact --field 7 --m 2 --n 2 --r 2 --A 1",
            "2bdd1a8b6f9fa0aa67a5921ec91719d1fe9373d0024678ee9d41e86e6337cf6a",
        ),
        (
            "exact --field 8 --m 2 --n 2 --r 2 --A 1",
            "75783200f1de459d67c2c00097408b7b758d004e299e2e6ba26ea675d59f3e5a",
        ),
        (
            # 84 compositions of 6 into 4 codes, not 715 row spaces; matrix_tv in closed form
            "exact --field 2 --m 6 --n 6 --r 2 --A 1",
            "a6155714329d41fdb7d166d33b602bba029988d13de52a59cccbf0de557f9591",
        ),
        (
            "exact --field 4 --m 2 --n 3 --r 2 --A 1,2",
            "12458f9b75c71c87511e4bb40e5be6be8b5de739743945a57e3d045254ee4477",
        ),
        (
            "exact --field 5 --m 3 --n 2 --r 2 --A 1",
            "7340042310e4b2f472a30ca201ec98eb1f4170139760de73beebf4523309d986",
        ),
        (
            "exact --field 2 --m 3 --n 3 --r 0 --A 0",
            "33c0560fc5717b7eece396a2fb0b83e85d691305d683905e742c15aebfb1afb2",
        ),
        (
            # 2^25 matrices, past the scan oracle: matrix_tv is the closed form all the same
            "exact --field 2 --m 5 --n 5 --r 1 --A 1",
            "d243e57a5b038ca3749c15d0554b97e66e4fc6ff3982b4bc7e64767789bbaa48",
        ),
        (
            # 2^22 rank-1 matrices, listed from 2 right factors of the transpose
            "exact --field 2 --m 1 --n 22 --r 1 --A 1",
            "a423b89eec0cf55f041da927954fa5ed0c53b776ab3188afb87da2edc6dbdacb",
        ),
        (
            # at q=2, m=n=r=2 most streams are drawn again by the rejection loop
            "sample --field 2 --m 2 --n 2 --r 2 --count 50 --seed 5",
            "30d4e6fa4aa58e0449aaeca9f2df81466d7bc2933bd34ecc1191870483b5e7f5",
        ),
        (
            "clt --field 2 --A 1 --r 2 --m 2 --n 2 --N 400 --seed 3",
            "2a5efbf79e332a3604b1eb77aed85affc3429bf27381934e7cbcaefd07c0fb9d",
        ),
        (
            "clt --field 2 --A 1 --r 2 --m 2 --n 2 --N 400 --seed 3 --workers 2",
            "2a5efbf79e332a3604b1eb77aed85affc3429bf27381934e7cbcaefd07c0fb9d",
        ),
        (
            "lemmas --field 9 --r 3 --seed 5",
            "2c56154ea0109824aa3bdefd78b869b0c3d4f64ad842795c8f4035ef9e98296c",
        ),
        (
            # every pair takes the product route
            "clt --field 3 --A 1 --r 2 --m 2 --n 2 --N 400 --seed 3",
            "53a70e83dd12f395a091edb0526fad6bcdfa39a1598477e80a4ef80115c458a0",
        ),
        (
            "clt --field 3 --A 1 --r 2 --m 2 --n 2 --N 400 --seed 3 --workers 2",
            "53a70e83dd12f395a091edb0526fad6bcdfa39a1598477e80a4ef80115c458a0",
        ),
        (
            "clt --field 256 --A 1 --r 2 --m 8 --n 8 --N 200 --seed 1",
            "bf16ce45853b28103b6cf93c632c864e71b090067e47092917a76f845ca9bdf7",
        ),
        (
            # q^r > m: each pair gathers its own codes from a float32 transform
            "clt --field 16 --A 1 --r 4 --m 256 --n 256 --N 100 --seed 2",
            "306a488cf5c31777fce30403cd2edf51eb5d7b45672f1b62832228a1096be314",
        ),
        (
            "clt --field 16 --A 1 --r 4 --m 256 --n 256 --N 100 --seed 2 --workers 2",
            "306a488cf5c31777fce30403cd2edf51eb5d7b45672f1b62832228a1096be314",
        ),
        (
            "clt --field 16 --A 1 --r 4 --m 256 --n 256 --N 100 --seed 2 --workers 3",
            "306a488cf5c31777fce30403cd2edf51eb5d7b45672f1b62832228a1096be314",
        ),
        (
            # q^r > m, 2000 pairs to a block: the codes-first layout with many pairs
            "clt --field 3 --A 1 --r 2 --m 8 --n 8 --N 2000 --seed 7",
            "e56b548097ce45a3694e4f4d9cc40fb34d9479e21abdb5e35f3850f00c6614df",
        ),
        (
            "clt --field 3 --A 1 --r 2 --m 8 --n 8 --N 2000 --seed 7 --workers 2",
            "e56b548097ce45a3694e4f4d9cc40fb34d9479e21abdb5e35f3850f00c6614df",
        ),
        (
            # odd p: the transform stays complex
            "clt --field 9 --A 1,2 --r 3 --m 64 --n 64 --N 200 --seed 4",
            "9176c22ba151975fc038d12aea41e4c613ed23405f9a3e418529e39367ac13a4",
        ),
        (
            # a 6 x 2 factor over GF(2) has a singular leading 2 x 2 block
            # 5/8 of the time, and then is ranked in full
            "sample --field 2 --m 6 --n 3 --r 2 --count 50 --seed 9",
            "6aa5f6a9cd90c5c9cc87a9f67730d22c34e9c130cf1ee7ee8c10be0d8e0f0a3c",
        ),
        (
            "sample --field 16 --m 9 --n 4 --r 3 --count 20 --seed 6 --format json",
            "2caa1c3bf2ec1b156b84d5cc633e646ebcec9aca0886cf146aa40c8aff55b69b",
        ),
        (
            # r = 1: both factors are vectors, ranked by a nonzero test
            "sample --field 8 --m 6 --n 5 --r 1 --count 4 --format json",
            "77ce3071003d69536c3e234a17d6ca488fef0c8ce6e8685adc22fb970aa739de",
        ),
        (
            # odd q: residues by % q; vector factors; the row tally at q^r <= m
            "clt --field 3 --A 1 --r 1 --m 64 --n 64 --N 500 --seed 9",
            "aebb6870205c141acf23c004021957cacbfd36f6db8ceb0aebf8a94e5ffe8605",
        ),
        (
            "clt --field 3 --A 1 --r 1 --m 64 --n 64 --N 500 --seed 9 --workers 2",
            "aebb6870205c141acf23c004021957cacbfd36f6db8ceb0aebf8a94e5ffe8605",
        ),
        (
            # q = 2, r = 1: both factors' two-code tallies come from row sums
            "clt --field 2 --A 1 --r 1 --m 64 --n 64 --N 500 --seed 9",
            "69d3ca2ef4b50b5479fbbc7a16e3f8a3e6e9139808719bd3e7ced1b31bfa6698",
        ),
        (
            "clt --field 2 --A 1 --r 1 --m 64 --n 64 --N 500 --seed 9 --workers 2",
            "69d3ca2ef4b50b5479fbbc7a16e3f8a3e6e9139808719bd3e7ced1b31bfa6698",
        ),
        (
            "clt --field 2 --A 0 --r 1 --m 64 --n 64 --N 500 --seed 9",
            "d4274bfa3447bb9fed6c5cdca0a45b1875adb0931ea7f74fdc6153a905bba04e",
        ),
        (
            "clt --field 2 --A 0 --r 1 --m 64 --n 64 --N 500 --seed 9 --workers 2",
            "d4274bfa3447bb9fed6c5cdca0a45b1875adb0931ea7f74fdc6153a905bba04e",
        ),
        (
            # power-of-two residues, and pair-major tallies of both factors at B > 1
            "clt --field 4 --A 1,2 --r 2 --m 16 --n 16 --N 300 --seed 4",
            "11fa9faaadea90f39e317d649e3c7528ff418e369596359570754f1a5023f374",
        ),
    ],
)
def test_pinned_output_bytes(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "--field", "2", "--m", "2"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sample", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--mode", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:  # exact has one route, and no --method to choose it
        main(["exact", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--A", "1", "--method", "pairs"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --method pairs\n")


def _fresh_process(argv, **env):
    # the child must import the same fqrank as the tests, installed or not
    src = str(Path(fqrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fqrank.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_console_entry_point():
    proc = _fresh_process(["count", "--field", "2", "--m", "2", "--n", "2", "--r", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank_count"] == "9"


def test_main_calls_in_one_process_print_what_fresh_processes_do(capsys, monkeypatch):
    """main builds its parser once per process; an argparse usage error in
    one call leaves nothing behind for the next."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    calls = ["exact --field 2 --m 2 --n 2 --A 1", "exact --field 2 --m 2 --n 2 --r 1 --A 1"]
    for argv in calls:
        try:
            rc = main(argv.split())
        except SystemExit as exc:
            rc = exc.code
        fresh = _fresh_process(argv.split(), COLUMNS="80")
        assert (rc, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr)


# --- the JSON writer and the one parse -------------------------------------------

_scalars = st.one_of(
    st.text(max_size=6),  # quotes, backslashes, control and non-ASCII characters among them
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.floats(),  # nan, infinities, -0.0 and subnormals among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16, 0.1 + 0.2, 5e-324, 2.2e-308]),
    st.floats().map(np.float64),  # a float subclass, as numpy 1.24 hands out
)
_documents = st.recursive(
    _scalars,
    lambda items: st.one_of(
        st.lists(items, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), items, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(obj=_documents)
def test_emit_writes_the_bytes_of_json_dumps(json_oracle, obj):
    out = io.StringIO()
    cli._emit(obj, out)
    assert out.getvalue() == json_oracle(obj)


@pytest.mark.parametrize("obj", [np.int64(3), {"a": b"x"}, [object()], {(1, 2): 0}])
def test_emit_refuses_what_json_dumps_refuses(json_oracle, obj):
    with pytest.raises(TypeError):
        json_oracle(obj)
    with pytest.raises(TypeError):
        cli._emit(obj, io.StringIO())


def _main_by_the_top_level_parser(argv):
    """main as it was: one parse of the whole argv by the top-level parser."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FqrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize(
    "argv",
    [
        # argparse's own errors and help, which exit through SystemExit
        "",
        "-h",
        "--help",
        "--version",
        "bogus --field 2",
        "exact",
        "exact -h",
        "exact --help",
        "count --field 2 --m 2",
        "sample --field 2 --m 2 --n 2 --r 1 --mode bogus",
        "exact --field 2 --m 2 --n 2 --r 1 --A 1 --method pairs",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N x --seed 1",
        "exact --fie 2 --m 2 --n 2 --r 1 --A 1",
        "exact --field 2 --m 2 --n 2 --r 1 --A 1 stray",
        # the handlers' usage errors, which return 2
        "count --field 6 --m 2 --n 2 --r 1",
        "count --field 8192 --m 2 --n 2 --r 1",
        "exact --field 2 --m 2 --n 2 --r 1 --A 7",
        "count --field 2 --m 2 --n 2 --r 1 --A x",
        "count --field 2 --m 2 --n 2 --r 1 --A ,",
        "identity --field 3 --A 1 --r -1",
        "exact --field 2 --m 2 --n 2 --r 5 --A 1",
        "exact --field 2 --A 1 --m -1 --n 2 --r 0",
        "count --field 2 --m 2 --n -3 --r 1",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 120 --seed -3",
        "identity --field 2 --A 1 --x-file {bad} --y-file {bad}",
        "identity --field 2 --A 1 --x-file {bad}",
        "identity --field 2 --A 1 --tolerance nan",
        "sample --field 2 --m -1 --n 2 --r 1 --mode product",
        "lemmas --field 2 --r 40",
        "lemmas --field 4096 --r 1",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --workers 0",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 100 --seed 1 --csv-hist {bad}/h.csv",
        "exact --field 3 --m 100 --n 100 --r 100 --A 1",
        "count --field 2 --m 3000 --n 3000 --r 3000",
    ],
)
def test_main_parses_once_as_the_top_level_parser_did(tmp_path, capsys, monkeypatch, argv):
    """Each command's own parser gives the exit code, stdout and stderr that
    the top-level parser's one pass over the whole argv gave."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 2\n1\nx\n")
    argv = argv.format(bad=bad).split()
    results = []
    for run in (main, _main_by_the_top_level_parser):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
        results.append((rc, *capsys.readouterr()))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "argv",
    [
        "exact --field 2 --m 4 --n 5 --r 2 --A 1",
        "sample --fi 3 --m 3 --n 4 --r 2 --count 5 --seed 11 --format=json",
        "identity --field 16 --A nonzero --r 3 --x-file x.txt --y-file y.txt",
        "clt --field 2 --A 1 --r 1 --m 8 --n 8 --N 120 --seed 1 --workers 2 --csv-hist -",
    ],
)
def test_parse_gives_the_namespace_of_the_top_level_parser(argv):
    argv = argv.split()
    assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))
