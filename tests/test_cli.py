import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqrank
from fqrank import cli, sampling
from fqrank.cli import main
from fqrank.field import make_field
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


def test_exact_direct_method(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["exact", "--field", "2", "--m", "2", "--n", "2", "--r", "2", "--A", "1",
         "--method", "direct"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "direct"
    assert doc["rank_dist"] == {"2": "1/3", "3": "2/3"}
    assert doc["product_dist"] is None and doc["matrix_tv"] is None


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
        "exact --field 3 --m 100 --n 100 --r 100 --A 1 --method pairs",
        "exact --field 3 --m 100 --n 100 --r 100 --A 1 --method direct",
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
            # m*n*log10(q) is past 4300, yet every integer printed is shorter
            "count --field 2 --m 120 --n 120 --r 60",
            "581c7226f39ddcc3e6a164fa973c90ecb2512d1f22ecfe323cdf13d5f234120d",
        ),
        (
            "exact --field 2 --m 4 --n 5 --r 2 --A 1",
            "45e102ebb2c2eb9fd508b096d9ec6a8121f3573703bba3e44a2ab8026500d23a",
        ),
        (
            "exact --field 3 --m 2 --n 3 --r 1 --A 1,2 --method direct",
            "41431df9703b31ee1db16cf18d00629fc9d5149a51d18864d9789a8910ee9cbf",
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
            "lemmas --field 9 --r 3 --seed 5",
            "2c56154ea0109824aa3bdefd78b869b0c3d4f64ad842795c8f4035ef9e98296c",
        ),
        (
            # every pair takes the product route
            "clt --field 3 --A 1 --r 2 --m 2 --n 2 --N 400 --seed 3",
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
    ],
)
def test_pinned_output_bytes(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["count", "--field", "2", "--m", "2"])  # missing required flags
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sample", "--field", "2", "--m", "2", "--n", "2", "--r", "1", "--mode", "bogus"])
    assert info.value.code == 2


def test_console_entry_point():
    # the child must import the same fqrank as the tests, installed or not
    src = str(Path(fqrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fqrank.cli",
         "count", "--field", "2", "--m", "2", "--n", "2", "--r", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank_count"] == "9"
