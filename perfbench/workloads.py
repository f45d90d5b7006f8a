"""The four benchmark workloads and the checks on their outputs.

Each workload is one fixed `fqrank` command.  Seeded workloads take the
fqrank `--seed` of each repetition from a pool of seeds whose outputs are
recorded in goldens.json, so every repetition is checked against the output
of the unmodified program.  This module imports nothing from fqrank at
import time: run.py reads it in a process that never loads the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "clt", "identity" or "exact"
    argv: tuple[str, ...]  # fqrank argv without --seed
    seeded: bool
    items: int  # samples, factor pairs or enumerated factor pairs per command
    setup_reps: int  # fresh interpreters that time set-up in one run
    golden_workers: str | None = None  # --workers value the golden was recorded at

    def command(self, seed: int | None, workers: str | None = None) -> list[str]:
        argv = list(self.argv)
        if workers is not None:
            argv[argv.index("--workers") + 1] = workers
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


CLT_N = 4000
FALLBACK_N = 100  # the CLI's minimum; one sample costs about 19 ms serially
IDENTITY_PAIRS = 3

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clt-gf2-r1",
            "clt",
            ("clt", "--field", "2", "--A", "1", "--r", "1", "--m", "256", "--n", "256",
             "--N", str(CLT_N), "--workers", "1"),
            seeded=True,
            items=CLT_N,
            setup_reps=5,
        ),
        Workload(
            "clt-gf16-r4-fallback",
            "clt",
            ("clt", "--field", "16", "--A", "1", "--r", "4", "--m", "512", "--n", "512",
             "--N", str(FALLBACK_N), "--workers", "2"),
            seeded=True,
            items=FALLBACK_N,
            setup_reps=5,
            golden_workers="1",
        ),
        Workload(
            "identity-gf16-r3",
            "identity",
            ("identity", "--field", "16", "--A", "nonzero", "--m", "64", "--n", "64",
             "--r", "3", "--count", str(IDENTITY_PAIRS)),
            seeded=True,
            items=IDENTITY_PAIRS,
            setup_reps=2,  # each cold set-up takes about 7 s
        ),
        Workload(
            "exact-gf2-4x5-r2",
            "exact",
            ("exact", "--field", "2", "--m", "4", "--n", "5", "--r", "2", "--A", "1"),
            seeded=False,
            items=2 ** (4 * 2 + 2 * 5),
            setup_reps=5,
        ),
    )
}


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def seed_schedule(w: Workload, goldens: dict, bench_seed: int, holdout: bool):
    """Endless sequence of fqrank seeds for the repetitions of one run.

    The bench seed picks the starting point in the recorded pool; the
    held-out pool is used only for claim checks.
    """
    if not w.seeded:
        while True:
            yield None
    pool = [int(s) for s in goldens[w.name]["holdout" if holdout else "pool"]]
    k = bench_seed % len(pool)
    while True:
        yield pool[k]
        k = (k + 1) % len(pool)


def golden_of(w: Workload, stdout: str):
    """What goldens.json records for one command's stdout."""
    if w.kind == "identity":
        return [rec["ct"] for rec in json.loads(stdout)["terms"]]
    return hashlib.sha256(stdout.encode()).hexdigest()


def expected_golden(w: Workload, goldens: dict, seed: int | None):
    recorded = goldens[w.name]
    if seed is None:
        return recorded["single"]
    return recorded["pool"].get(str(seed), recorded["holdout"].get(str(seed)))


def check_output(w: Workload, goldens: dict, seed: int | None, code: int, stdout: str) -> str | None:
    """None when the command's output matches its golden, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if w.kind == "identity":
        # The residual is a float; only the integer counts and the verdict are
        # fixed, so a faster kernel may change its last bits.
        out = json.loads(stdout)
        if out["pass"] is not True:
            return "identity pass is not true"
        if not out["max_residual"] <= out["tolerance"]:
            return f"max_residual {out['max_residual']} above tolerance"
        if out["pairs"] != w.items:
            return f"{out['pairs']} pairs, expected {w.items}"
    got, expected = golden_of(w, stdout), expected_golden(w, goldens, seed)
    if got != expected:
        return f"output {got} differs from golden {expected}"
    return None
