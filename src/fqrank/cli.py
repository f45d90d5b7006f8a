"""Command-line entry point.

Subcommands: count, sample, exact, identity, lemmas, clt.  Data goes to
stdout as JSON (matrices optionally as plain text), diagnostics to stderr.
Exit codes: 0 success, 1 verification failure, 2 usage error.

Output is reproducible: identical argv (and seed) produces byte-identical
JSON regardless of --workers, with rationals rendered as strings and floats
rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import IO

import numpy as np

from .characters import verification_battery
from .counting import (
    MomentParams,
    RankOutOfRange,
    _check_rank,
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    full_rank_pair_prob_exact,
    rank_count,
    subset_bias,
    tv_closed_form_exact,
)
from .decomposition import decompose_ct
from .exact import exact_distribution
from .field import FieldCtx, FqrankError, parse_field_spec
from .matrices import MatrixFq, SubsetA, _blocks, _index_matmul, dump_matrix, load_matrix
from .sampling import SeedSpec, _draw_seeded_block
from .stats import _normal_cdf_array, run_clt


class UsageError(FqrankError):
    """Bad flag values; rendered on stderr with exit code 2."""


def _float_text(x: float) -> str:
    x = float(f"{x:.12g}")
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# The text of each scalar type, in json's order of tests: bool before int.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    Fraction: lambda x: encode_basestring_ascii(str(x)),
    type(None): lambda x: "null",
    bool: lambda x: "true" if x else "false",
    int: int.__repr__,
    float: _float_text,
}


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, int) and not isinstance(key, bool):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def _json_text(obj, indent: str) -> str:
    text = _SCALAR_TEXT.get(type(obj))  # exact types first; subclasses (np.float64) below
    if text is not None:
        return text(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{_key_text(key)}: {_json_text(val, inner)}" for key, val in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_json_text(val, inner) for val in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    for cls, text in _SCALAR_TEXT.items():
        if isinstance(obj, cls):
            return text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(obj, stream: IO[str]) -> None:
    """Write obj as JSON in one pass: two spaces a level, ASCII only, int
    keys quoted, each Fraction as its str and each float rounded to 12
    significant digits, as json.dumps(..., indent=2) spells them."""
    stream.write(_json_text(obj, "") + "\n")


def _rational(value: Fraction) -> dict:
    return {"exact": str(value), "decimal": float(value)}


def _field_from_args(args: argparse.Namespace) -> FieldCtx:
    try:
        return parse_field_spec(args.field)
    except FqrankError as exc:
        raise UsageError(f"--field: {exc}") from exc


def _subset_from_args(args: argparse.Namespace, q: int) -> SubsetA:
    text = args.A.strip().lower()
    if text == "nonzero":
        return SubsetA.nonzero(q)
    if text == "zero":
        return SubsetA.zero_only(q)
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(
            f"--A: expected comma-separated element indices or nonzero/zero, got {args.A!r}"
        ) from exc
    if not indices:
        raise UsageError("--A: subset is empty")
    try:
        return SubsetA.from_indices(q, indices)
    except FqrankError as exc:
        raise UsageError(f"--A: {exc}") from exc


def _check_shape_flags(m: int, n: int, r: int | None = None, least: int = 0) -> None:
    """The one check of --m/--n of the five shape commands, then of --r as
    the rank of an m x n matrix where r is given, then of --m/--n against
    `least`, 1 where the command normalises the count (MomentParams' bound)."""
    if min(m, n) < 0:  # first, else the rank check would blame --r
        raise UsageError(f"--m/--n: dimensions must be >= 0, got {m} x {n}")
    if r is not None:
        try:
            _check_rank(r, m, n)
        except RankOutOfRange as exc:
            raise UsageError(f"--r: {exc}") from exc
    if min(m, n) < least:
        raise UsageError(f"--m/--n: dimensions must be >= {least}, got {m} x {n}")


def _seed_flag(seed: int) -> int:
    try:
        return SeedSpec(seed).master_seed
    except FqrankError as exc:
        raise UsageError(f"--seed: {exc}") from exc


def _count_flag(count: int) -> int:
    if count < 1:
        raise UsageError(f"--count: need at least 1, got {count}")
    return count


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    ctx = _field_from_args(args)
    q, m, n, r = ctx.q, args.m, args.n, args.r
    _check_shape_flags(m, n, r, least=int(args.A is not None))
    # Python prints no int of more than `limit` digits.  In lowest terms
    # rank_prob is c / q^(mn - r(r-1)/2) with c prime to q: refuse before
    # building values that far past the limit, then check the built ones.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = f"--m/--n/--r: the exact values need over {limit} digits, Python's limit"
    if limit and (m * n - r * (r - 1) // 2) * math.log10(q) > limit + 1:
        raise UsageError(too_long)
    count = rank_count(q, m, n, r)
    probs = {
        "rank_prob": count / Fraction(q) ** (m * n),
        "full_rank_pair_prob": full_rank_pair_prob_exact(q, m, n, r),
        "tv_closed_form": tv_closed_form_exact(q, m, n, r),
    }
    if limit and any(
        max(v.numerator, v.denominator) >= 10**limit for v in (count, *probs.values())
    ):
        raise UsageError(too_long)
    out = {"q": q, "m": m, "n": n, "r": r, "rank_count": count}
    out.update((key, _rational(value)) for key, value in probs.items())
    if args.A is not None:
        subset = _subset_from_args(args, q)
        params = MomentParams(q=q, r=r, m=m, n=n, subset=subset)
        out["A"] = list(subset.members())
        out["subset_bias"] = _rational(subset_bias(q, subset))
        out["mean"] = _rational(asymptotic_ct_mean(params))
        out["variance"] = _rational(asymptotic_ct_variance(params))
    _emit(out, sys.stdout)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    ctx = _field_from_args(args)
    m, n, r = args.m, args.n, args.r
    seed = _seed_flag(args.seed)
    count = _count_flag(args.count)
    _check_shape_flags(m, n)
    # blocks of bounded size, so only the output grows with --count
    mats: list = []
    for start, stop in _blocks(0, count, (m + n) * r + m * n):
        try:
            lefts, rights = _draw_seeded_block(ctx, m, n, r, seed, start, stop, args.mode)
        except FqrankError as exc:  # the draw checks --r for its mode
            raise UsageError(f"--r: {exc}") from exc
        products = _index_matmul(ctx, lefts, rights)
        if args.format == "text":
            mats.extend(dump_matrix(MatrixFq(ctx, mat)) for mat in products)
        else:
            mats.extend(products.tolist())
    if args.format == "text":
        sys.stdout.write("\n".join(mats))
    else:
        out = {
            "q": ctx.q,
            "m": m,
            "n": n,
            "r": r,
            "mode": args.mode,
            "seed": args.seed,
            "matrices": mats,
        }
        _emit(out, sys.stdout)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    ctx = _field_from_args(args)
    m, n, r = args.m, args.n, args.r
    _check_shape_flags(m, n, r)
    subset = _subset_from_args(args, ctx.q)
    dist = exact_distribution(ctx, m, n, r, subset)
    out = {
        "q": ctx.q,
        "m": m,
        "n": n,
        "r": r,
        "A": list(subset.members()),
        "method": "pairs",  # the one route; the key stays so that the output keeps its bytes
        "rank_dist": dist.rank_dist,  # json writes its int keys as strings
        "mean": _rational(dist.mean),
        "variance": _rational(dist.variance),
        "product_dist": dist.product_dist,
        "matrix_tv": _rational(dist.matrix_tv),
        "tv_closed_form": _rational(dist.matrix_tv),  # the closed form, by construction
    }
    _emit(out, sys.stdout)
    return 0


def _decomposition_record(dec) -> dict:
    return {
        "ct": dec.ct_value,
        "mean_term": dec.mean_term,
        "main_term": {"re": dec.main_term.real, "im": dec.main_term.imag},
        "zero_row_term": dec.zero_row_term,
        "zero_col_term": dec.zero_col_term,
        "total": {"re": dec.total.real, "im": dec.total.imag},
        "residual_abs": abs(dec.residual),
    }


def _cmd_identity(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # also refuses NaN, which no residual can meet
        raise UsageError(f"--tolerance: need a number >= 0, got {args.tolerance}")
    ctx = _field_from_args(args)
    subset = _subset_from_args(args, ctx.q)
    if (args.x_file is None) != (args.y_file is None):
        raise UsageError("--x-file/--y-file: supply both files or neither")

    records = []
    if args.x_file is not None:
        with open(args.x_file, encoding="utf-8") as fh:
            x = load_matrix(fh.read(), ctx)
        with open(args.y_file, encoding="utf-8") as fh:
            y = load_matrix(fh.read(), ctx)
        records.append(_decomposition_record(decompose_ct(x, y, subset)))
        config = {"q": ctx.q, "m": x.rows, "r": x.cols, "n": y.cols}
    else:
        m, n, r = args.m, args.n, args.r
        _check_shape_flags(m, n)
        if r < 0:
            raise UsageError(f"--r: rank {r} is negative")
        seed, count = _seed_flag(args.seed), _count_flag(args.count)
        mode = "product" if r else "exact"  # r = 0 draws nothing, and only exact mode takes it
        for start, stop in _blocks(0, count, (m + n) * r):
            lefts, rights = _draw_seeded_block(ctx, m, n, r, seed, start, stop, mode)
            records.extend(
                _decomposition_record(decompose_ct(MatrixFq(ctx, x), MatrixFq(ctx, y), subset))
                for x, y in zip(lefts, rights)
            )
        config = {"q": ctx.q, "m": m, "r": r, "n": n, "seed": args.seed}

    worst = max(rec["residual_abs"] for rec in records)
    ok = worst <= args.tolerance
    out = {
        "config": config,
        "A": list(subset.members()),
        "pairs": len(records),
        "max_residual": worst,
        "tolerance": args.tolerance,
        "pass": ok,
        "terms": records,
    }
    _emit(out, sys.stdout)
    if not ok:
        print(
            f"identity check failed: max residual {worst:.3e} > {args.tolerance:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lemmas(args: argparse.Namespace) -> int:
    ctx = _field_from_args(args)
    report = verification_battery(
        ctx, r=args.r, seed=_seed_flag(args.seed), trials=args.trials
    )
    failures = [name for name, entry in report.items() if not entry["ok"]]
    out = {
        "q": ctx.q,
        "r": args.r,
        "seed": args.seed,
        "checks": report,
        "all_ok": not failures,
    }
    _emit(out, sys.stdout)
    if failures:
        print("lemma checks failed: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_clt(args: argparse.Namespace) -> int:
    ctx = _field_from_args(args)
    subset = _subset_from_args(args, ctx.q)
    _check_shape_flags(args.m, args.n, args.r, least=1)
    report = run_clt(ctx, subset, args.r, args.m, args.n, args.N, _seed_flag(args.seed),
                     mode=args.mode, workers=args.workers, bins=args.bins)
    if args.csv_hist is not None:
        with open(args.csv_hist, "w", encoding="utf-8") as fh:
            fh.write("bin_center,count\n")
            for left, right, cnt in zip(
                report.bin_edges[:-1], report.bin_edges[1:], report.counts
            ):
                fh.write(f"{(left + right) / 2:.12g},{cnt}\n")
    if args.csv_samples is not None:
        with open(args.csv_samples, "w", encoding="utf-8") as fh:
            fh.write("sample,normal_cdf\n")
            xs = np.sort(report.samples)
            for v, cdf in zip(xs, _normal_cdf_array(xs).tolist()):
                fh.write(f"{v:.12g},{cdf:.12g}\n")
    _emit(report.to_dict(), sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)  # one set of parsers per process, built at the first call, not at import
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="fqrank",
        description="Entry statistics of random fixed-rank matrices over GF(q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", required=True, help="field order, 'p^e' or a prime power")

    def add_shape(p: argparse.ArgumentParser, m=None, n=None, r=None) -> None:
        for flag, default in (("--m", m), ("--n", n), ("--r", r)):
            p.add_argument(flag, type=int, default=default, required=default is None)

    p_count = sub.add_parser("count", help="closed-form counts and moment constants")
    add_field(p_count)
    add_shape(p_count)
    p_count.add_argument("--A", help="entry subset: indices like 1,2 or nonzero/zero")
    p_count.set_defaults(handler=_cmd_count)

    p_sample = sub.add_parser("sample", help="draw matrices from the samplers")
    add_field(p_sample)
    add_shape(p_sample)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--mode", choices=["exact", "product"], default="exact")
    p_sample.add_argument("--format", choices=["text", "json"], default="text")
    p_sample.set_defaults(handler=_cmd_sample)

    p_exact = sub.add_parser("exact", help="exact entry-count law by enumeration")
    add_field(p_exact)
    add_shape(p_exact)
    p_exact.add_argument("--A", required=True)
    p_exact.set_defaults(handler=_cmd_exact)

    p_ident = sub.add_parser("identity", help="verify the entry-count decomposition")
    add_field(p_ident)
    p_ident.add_argument("--A", required=True)
    add_shape(p_ident, 4, 4, 2)
    p_ident.add_argument("--count", type=int, default=20)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--x-file", help="left factor in matrix text format")
    p_ident.add_argument("--y-file", help="right factor in matrix text format")
    p_ident.add_argument("--tolerance", type=float, default=1e-6)
    p_ident.set_defaults(handler=_cmd_identity)

    p_lemmas = sub.add_parser("lemmas", help="run the character identity battery")
    add_field(p_lemmas)
    p_lemmas.add_argument("--r", type=int, default=2)
    p_lemmas.add_argument("--seed", type=int, default=0)
    p_lemmas.add_argument("--trials", type=int, default=3)
    p_lemmas.set_defaults(handler=_cmd_lemmas)

    p_clt = sub.add_parser("clt", help="Monte Carlo normality report")
    add_field(p_clt)
    p_clt.add_argument("--A", required=True)
    add_shape(p_clt)
    p_clt.add_argument("--N", type=int, required=True)
    p_clt.add_argument("--seed", type=int, required=True)
    p_clt.add_argument("--mode", choices=["exact", "product"], default="exact")
    p_clt.add_argument("--workers", type=int, default=1)
    p_clt.add_argument("--bins", type=int, default=81)
    p_clt.add_argument("--csv-hist", help="write histogram CSV to this path")
    p_clt.add_argument("--csv-samples", help="write sorted samples CSV to this path")
    p_clt.set_defaults(handler=_cmd_clt)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: by its subcommand's parser when the first word
    names one, with the top-level parser's usage and exit code 2 for words
    left over; any other argv (none, -h, an unknown command) by the
    top-level parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except (FqrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
