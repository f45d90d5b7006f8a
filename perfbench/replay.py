"""Outside-in trace: replay a workload's command one public call at a time.

The replay calls the same public functions, in the same order and on the
same seed streams, as the command does, and times each call.  Calls made
inside a library function (`rank` inside the rejection draw or the exact
enumeration, `uniform_matrix` inside the draw) are counted by a Probe that
wraps the name in the calling module for the length of the replay.  Every
replay is checked against the program: clt values must equal
`run_clt(...).samples` bit for bit, identity and exact results must equal
the CLI's.  Each repetition is also run untraced through the CLI, so the
trace's own cost shows as `trace.overhead_pct`.  Times are scaled to
reference core speed per repetition (speed.py); `bench.core_speed` reports
the scale, 1 being the reference speed.

Only the layers the workload reaches are returned.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import ExitStack

import numpy as np

import fqrank
import fqrank.sampling
import fqrank.stats
from workloads import Workload, check_output, expected_golden, load_goldens, seed_schedule

clock = time.perf_counter

COUNTS = ("matrices.rank_calls", "bench.items")
UNSCALED = COUNTS + ("stats.pool_efficiency",)
BINS = 81  # the CLI's default --bins, which the workloads keep


class ReplayMismatch(AssertionError):
    """The replay did not reproduce what the program computed."""


class Probe:
    """Counts and times the calls one module makes to one name.

    A module that no longer has the name leaves the probe at zero calls.
    """

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.calls = 0
        self.seconds = 0.0

    def __enter__(self) -> "Probe":
        self.original = getattr(self.module, self.name, None)
        if self.original is not None:
            original = self.original

            def timed(*args, **kwargs):
                t = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds += clock() - t
                    self.calls += 1

            setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        if self.original is not None:
            setattr(self.module, self.name, self.original)

    def per_call(self, scale: float) -> float:
        return self.seconds / self.calls * scale if self.calls else 0.0


def _reduce(values: np.ndarray) -> dict:
    """The reductions run_clt applies to the assembled samples."""
    mean = float(values.mean())
    variance = float(values.var())
    skewness = float(((values - mean) ** 3).mean() / variance**1.5) if variance > 0 else 0.0
    edges = np.linspace(-4.0, 4.0, BINS + 1)
    counts, _ = np.histogram(np.clip(values, -4.0, 4.0), bins=edges)
    return {
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "ks": fqrank.ks_distance(values),
        "counts": tuple(int(c) for c in counts),
    }


def _check_clt_report(values: np.ndarray, reduced: dict, report, label: str) -> None:
    if values.tobytes() != report.samples.tobytes():
        raise ReplayMismatch(f"replayed clt values differ from run_clt samples ({label})")
    for key in ("mean", "variance", "skewness", "ks", "counts"):
        if reduced[key] != getattr(report, key):
            raise ReplayMismatch(f"replayed {key} differs from run_clt ({label})")


def replay_clt(w: Workload, seed: int, first: bool, sampler) -> dict:
    ctx = fqrank.parse_field_spec(w.flag("--field"))
    subset = fqrank.SubsetA.from_indices(ctx.q, [int(w.flag("--A"))])
    r, m, n = int(w.flag("--r")), int(w.flag("--m")), int(w.flag("--n"))
    params = fqrank.MomentParams(q=ctx.q, r=r, m=m, n=n, subset=subset)
    mu = float(fqrank.asymptotic_ct_mean(params))
    sigma = math.sqrt(float(fqrank.asymptotic_ct_variance(params)))
    samples = int(w.flag("--N"))
    spec = fqrank.SeedSpec(seed)
    values = np.empty(samples, dtype=np.float64)
    t_stream = t_draw = t_count = t_mul = t_ct = 0.0
    table_route = True
    with ExitStack() as stack:
        rank = stack.enter_context(Probe(fqrank.sampling, "rank"))
        uniform = stack.enter_context(Probe(fqrank.sampling, "uniform_matrix"))
        for i in range(samples):
            t0 = clock()
            rng = spec.stream(i)
            t1 = clock()
            left, right = fqrank.draw_factor_pair(ctx, m, n, r, rng, "exact")
            t2 = clock()
            c = None
            if table_route:
                try:
                    c = fqrank.product_ct(left, right, subset)
                    t_count += clock() - t2
                except fqrank.TooLargeToEnumerate:
                    table_route = False
            if c is None:
                t3 = clock()
                prod = fqrank.mat_mul(left, right)
                t4 = clock()
                c = fqrank.ct(prod, subset)
                t_ct += clock() - t4
                t_mul += t4 - t3
            values[i] = (c - mu) / sigma
            t_stream += t1 - t0
            t_draw += t2 - t1
    t = clock()
    reduced = _reduce(values)
    t_reduce = clock() - t
    out = {
        "sampling.stream_us": t_stream / samples * 1e6,
        "sampling.draw_us": t_draw / samples * 1e6,
        "sampling.uniform_matrix_us": uniform.per_call(1e6),
        "matrices.rank_us": rank.per_call(1e6),
        "matrices.rank_calls": rank.calls,
        "stats.reduce_ms": t_reduce * 1e3,
        "traced_s": t_stream + t_draw + t_count + t_mul + t_ct + t_reduce,
    }
    if table_route:
        out["stats.product_ct_us"] = t_count / samples * 1e6
    else:
        out["matrices.mat_mul_ms"] = t_mul / samples * 1e3
        out["matrices.ct_ms"] = t_ct / samples * 1e3
    if first:
        # Proof that the replay is the program, and the pool's efficiency.
        workers = int(w.flag("--workers"))
        walls = {}
        for k in sorted({1, workers}):
            with sampler.span() as span:
                report = fqrank.run_clt(ctx, subset, r, m, n, samples, seed, workers=k)
            walls[k] = span.seconds
            _check_clt_report(values, reduced, report, f"workers={k}")
        if workers > 1:
            out["stats.pool_efficiency"] = walls[1] / (workers * walls[workers])
    return out


def replay_identity(w: Workload, seed: int, golden_cts: list[int]) -> dict:
    ctx = fqrank.parse_field_spec(w.flag("--field"))
    subset = fqrank.SubsetA.nonzero(ctx.q)
    r, m, n = int(w.flag("--r")), int(w.flag("--m")), int(w.flag("--n"))
    pairs = int(w.flag("--count"))
    table = fqrank.character_table(ctx)
    keys = [(fqrank.IndexSubset(r, mask), chis)
            for mask, chis in fqrank.subset_coefficients(ctx, subset, r)]
    spec = fqrank.SeedSpec(seed)
    t_stream = t_uniform = t_dec = t_sums = t_mul = t_ct = 0.0
    cts = []
    for i in range(pairs):
        t0 = clock()
        rng = spec.stream(i)
        t1 = clock()
        x = fqrank.uniform_matrix(ctx, m, r, rng)
        y = fqrank.uniform_matrix(ctx, r, n, rng)
        t2 = clock()
        dec = fqrank.decompose_ct(x, y, subset)
        t3 = clock()
        for positions, chis in keys:
            fqrank.row_char_sum(x, positions, chis, table)
            fqrank.col_char_sum(y, positions, chis, table)
        t4 = clock()
        prod = fqrank.mat_mul(x, y)
        t5 = clock()
        c = fqrank.ct(prod, subset)
        t6 = clock()
        if c != dec.ct_value:
            raise ReplayMismatch(f"pair {i}: ct {c} but decompose_ct says {dec.ct_value}")
        cts.append(c)
        t_stream += t1 - t0
        t_uniform += t2 - t1
        t_dec += t3 - t2
        t_sums += t4 - t3
        t_mul += t5 - t4
        t_ct += t6 - t5
    if cts != golden_cts:
        raise ReplayMismatch(f"replayed ct values {cts} differ from the CLI's {golden_cts}")
    return {
        "sampling.stream_us": t_stream / pairs * 1e6,
        "sampling.uniform_matrix_us": t_uniform / (2 * pairs) * 1e6,
        "matrices.mat_mul_ms": t_mul / pairs * 1e3,
        "matrices.ct_ms": t_ct / pairs * 1e3,
        "characters.char_sums_ms": t_sums / pairs * 1e3,
        "stats.decompose_ms": t_dec / pairs * 1e3,
        "traced_s": t_stream + t_uniform + t_dec,
    }


def replay_exact(w: Workload, cli_stdout: str) -> dict:
    ctx = fqrank.parse_field_spec(w.flag("--field"))
    subset = fqrank.SubsetA.from_indices(ctx.q, [int(w.flag("--A"))])
    r, m, n = int(w.flag("--r")), int(w.flag("--m")), int(w.flag("--n"))
    with Probe(fqrank.stats, "rank") as rank:
        t = clock()
        dist = fqrank.exact_distribution(ctx, m, n, r, subset)
        exact_s = clock() - t
    cli = json.loads(cli_stdout)
    if (str(dist.mean), str(dist.variance)) != (cli["mean"]["exact"], cli["variance"]["exact"]):
        raise ReplayMismatch("replayed exact moments differ from the CLI's")
    if {str(v): str(p) for v, p in dist.rank_dist.items()} != cli["rank_dist"]:
        raise ReplayMismatch("replayed exact rank law differs from the CLI's")
    return {
        "matrices.rank_us": rank.per_call(1e6),
        "matrices.rank_calls": rank.calls,
        "stats.exact_s": exact_s,
        "stats.exact_self_s": exact_s - rank.seconds,
        "traced_s": exact_s,
    }


def run_trace(w: Workload, bench_seed: int, seconds: float, holdout: bool, run_command,
              sampler) -> dict:
    """Alternate traced replays and untraced CLI runs until the time is up."""
    goldens = load_goldens()
    seeds = seed_schedule(w, goldens, bench_seed, holdout)
    reps: list[dict] = []
    untraced: list[float] = []
    failures: list[str] = []
    start = clock()
    while clock() - start < seconds or len(reps) < 2:
        seed = next(seeds)
        # The untraced reference runs in one process, like the replay.
        workers = "1" if "--workers" in w.argv else None
        with sampler.span() as span:
            code, stdout = run_command(w.command(seed, workers))
        untraced.append(span.seconds / w.items)
        reason = check_output(w, goldens, seed, code, stdout)
        if reason is not None:
            failures.append(f"seed {seed}: {reason}")
            break
        try:
            with sampler.span() as span:
                if w.kind == "clt":
                    rep = replay_clt(w, seed, not reps, sampler)
                elif w.kind == "identity":
                    rep = replay_identity(w, seed, expected_golden(w, goldens, seed))
                else:
                    rep = replay_exact(w, stdout)
            rep = {k: v if k in UNSCALED else v * span.factor for k, v in rep.items()}
            rep["bench.core_speed"] = span.factor
            rep["bench.items"] = w.items
            for name in COUNTS:
                if reps and rep.get(name, 0) != reps[0].get(name, 0):
                    raise ReplayMismatch(f"{name} differs from the first repetition's")
        except ReplayMismatch as exc:
            failures.append(f"seed {seed}: {exc}")
            break
        reps.append(rep)
    names = {name for rep in reps for name in rep} - {"traced_s"}
    metrics = {name: statistics.median(rep[name] for rep in reps if name in rep) for name in names}
    if reps:
        traced = statistics.median(rep["traced_s"] / w.items for rep in reps)
        metrics["trace.overhead_pct"] = (traced / statistics.median(untraced) - 1) * 100
    return {"layers": metrics, "attempted": len(untraced), "failures": failures}
