"""One fresh interpreter of the benchmark; run.py starts it.

    python3 perfbench/child.py import
    python3 perfbench/child.py setup <workload>
    python3 perfbench/child.py e2e   <workload> <seed> <seconds> [--holdout]
    python3 perfbench/child.py trace <workload> <seed> <seconds> [--holdout]

`import` only loads fqrank (it warms the caches before anything is
timed).  `setup` times `import fqrank` plus the public set-up calls the
workload's command depends on.  `e2e` sets up, then runs the command through
`fqrank.cli.main` until the time is up, checking every output.  `trace`
sets up, then replays the command layer by layer (see replay.py).  Each mode
prints one JSON object as its last line of stdout.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, Workload, check_output, load_goldens, seed_schedule  # noqa: E402

def import_fqrank():
    import fqrank
    import fqrank.cli

    where = Path(fqrank.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"fqrank imported from {where}, not from {SRC}")
    return fqrank


def set_up(w: Workload, sampler: SpeedSampler) -> dict:
    """Cold set-up of one workload in this (fresh) interpreter.

    Times are scaled to reference speed (speed.py) like every other time.
    """
    with sampler.span() as span:
        layers = _set_up(w)
    out = {k: v if k == "characters.coefficient_terms" else v * span.factor
           for k, v in layers.items()}
    out["setup_s"] = span.seconds
    out["setup_raw_s"] = span.wall
    return out


def _set_up(w: Workload) -> dict:
    out = {}
    clock = time.perf_counter
    t0 = clock()
    fq = import_fqrank()
    t1 = clock()
    ctx = fq.parse_field_spec(w.flag("--field"))
    t2 = clock()
    out["cli.import_s"] = t1 - t0
    out["field.make_field_s"] = t2 - t1
    r = int(w.flag("--r"))
    if w.kind == "clt":
        subset = fq.SubsetA.from_indices(ctx.q, [int(w.flag("--A"))])
        m, n = int(w.flag("--m")), int(w.flag("--n"))
        t = clock()
        params = fq.MomentParams(q=ctx.q, r=r, m=m, n=n, subset=subset)
        fq.asymptotic_ct_mean(params)
        fq.asymptotic_ct_variance(params)
        out["counting.moments_ms"] = (clock() - t) * 1e3
        left, right = fq.draw_factor_pair(ctx, m, n, r, fq.SeedSpec(0).stream(0), "exact")
        t = clock()
        try:
            fq.product_ct(left, right, subset)  # the first call builds the pattern table
            out["stats.pattern_table_s"] = clock() - t
        except fq.TooLargeToEnumerate:
            pass  # q^(2r) over the table gate: the command forms the product instead
    elif w.kind == "identity":
        subset = fq.SubsetA.nonzero(ctx.q)
        t = clock()
        fq.character_table(ctx)
        t_table = clock()
        coeffs = fq.subset_coefficients(ctx, subset, r)
        out["characters.table_s"] = t_table - t
        out["characters.coefficients_s"] = clock() - t_table
        out["characters.coefficient_terms"] = len(coeffs)
    return out


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def run_command(argv: list[str]) -> tuple[int, str]:
    """fqrank.cli.main in-process with stdout captured; an exception is a failure."""
    from fqrank import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # the benchmark must record the failure and go on
        traceback.print_exc()
        return -1, ""
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def run_e2e(w: Workload, bench_seed: int, seconds: float, holdout: bool, sampler) -> dict:
    setup = set_up(w, sampler)
    goldens = load_goldens()
    seeds = seed_schedule(w, goldens, bench_seed, holdout)
    walls: list[float] = []
    raw_walls: list[float] = []
    cpus: list[float] = []
    failures: list[str] = []

    def attempt():
        seed = next(seeds)
        with sampler.span(cpu_seconds) as span:
            code, stdout = run_command(w.command(seed))
        reason = check_output(w, goldens, seed, code, stdout)
        if reason is not None:
            failures.append(f"seed {seed}: {reason}")
        return span

    attempt()  # warm-up: checked, not timed
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < 3:
        span = attempt()
        walls.append(span.seconds)
        raw_walls.append(span.wall)
        cpus.append(span.cpu * span.factor)
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "setup": setup,
        "walls": walls,
        "raw_walls": raw_walls,
        "cpus": cpus,
        "attempted": len(walls) + 1,
        "failures": failures,
        "peak_rss_mb": peak_kib / 1024,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        import_fqrank()
        print("{}")
        return 0
    w = WORKLOADS[argv[1]]
    sampler = SpeedSampler()
    sampler.start()
    try:
        if mode == "setup":
            result = {"setup": set_up(w, sampler)}
        elif mode in ("e2e", "trace"):
            bench_seed, seconds = int(argv[2]), float(argv[3])
            holdout = "--holdout" in argv[4:]
            if mode == "e2e":
                result = run_e2e(w, bench_seed, seconds, holdout, sampler)
            else:
                setup = set_up(w, sampler)
                import replay

                result = replay.run_trace(w, bench_seed, seconds, holdout, run_command, sampler)
                result["setup"] = setup
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
