"""fqrank benchmark: one workload, one run.

    python3 perfbench/run.py --workload clt-gf2-r1 --seed 3 --seconds 10 --trace 0

Run it from the root of a source tree of fqrank (it loads `src/fqrank`, never
an installed copy).  `--trace 0` measures the end-to-end metrics: set-up in
several fresh interpreters, then the workload's CLI command repeated in one
fresh process for `--seconds`, every output checked against goldens.json.
`--trace 1` replays the command one public call at a time and reports the
per-layer metrics.  `--holdout` draws fqrank seeds from the held-out pool
kept for claim checks.  A summary goes to stdout, then, as the last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

This process never imports fqrank; it starts every interpreter it measures
and waits for each (killing its process group on timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GOLDENS, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
SPEC = ROOT / "BENCHMARK.json"


class ChildFailed(RuntimeError):
    """A measured interpreter exited nonzero or printed no result."""


def child(*args: str) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {' '.join(args)} timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args, w, spec: dict) -> tuple[dict, int, list[str], list[str]]:
    """Metrics with units, commands attempted, failures, and summary lines."""
    mode = "trace" if args.trace else "e2e"
    tail = ["--holdout"] if args.holdout else []
    child("import")  # warms the file cache (and writes bytecode, where allowed)
    main = child(mode, w.name, str(args.seed), str(args.seconds), *tail)
    setups = [main["setup"]] + [child("setup", w.name)["setup"] for _ in range(w.setup_reps - 1)]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    lines = [f"workload {w.name}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        layers = dict(main["layers"])
        for name in setups[0].keys() - {"setup_s", "setup_raw_s"}:
            layers[name] = statistics.median(s[name] for s in setups)
        # A layer the workload never reaches reports 0.
        metrics = {
            m["name"]: {
                "value": (int if m["unit"] == "count" else float)(layers.get(m["name"], 0)),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        for name, m in metrics.items():
            lines.append(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
        return metrics, main["attempted"], main["failures"], lines

    walls, cpus = main["walls"], main["cpus"]
    q1, wall_s, q3 = quartiles(walls)
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    raw_q1, raw_wall, raw_q3 = quartiles(main["raw_walls"])
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": w.items / wall_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    failed = len(main["failures"])
    lines += [
        "  (times at reference core speed; raw wall-clock in brackets)",
        f"  setup_s      {setup_s:10.4f} s      median of {len(setups)} fresh interpreters"
        f"  [{raw_setup:.4f}]",
        f"  wall_s       {wall_s:10.4f} s      q1 {q1:.4f}  q3 {q3:.4f}  over {len(walls)} commands"
        f"  [{raw_wall:.4f}, q1 {raw_q1:.4f}, q3 {raw_q3:.4f}]",
        f"  items_per_s  {w.items / wall_s:10.1f} 1/s    {w.items} items per command",
        f"  cpu_s        {values['cpu_s']:10.4f} s",
        f"  peak_rss_mb  {main['peak_rss_mb']:10.1f} MiB",
        f"  fail_ratio   {failed / main['attempted']:10.4f} 1      {failed} of {main['attempted']} commands",
    ]
    return metrics, main["attempted"], main["failures"], lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fqrank" / "__init__.py").is_file():
        print(f"error: no fqrank source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for needed in (GOLDENS, SPEC):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    try:
        metrics, attempted, failures, lines = measure(args, WORKLOADS[args.workload], spec)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in failures:
        lines.append(f"  FAILED {reason}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
