"""Record the output of every benchmark command at the current source tree.

    python3 perfbench/record_goldens.py

Run it only on the commit whose outputs are the reference: every later run
of the benchmark checks its outputs against goldens.json.  A seeded
workload gets a pool of seeds the benchmark draws from and a separate
held-out pool kept for claim checks (`run.py --holdout`).
"""

from __future__ import annotations

import json
import sys

from child import import_fqrank, run_command
from workloads import GOLDENS, WORKLOADS, golden_of

POOL = range(1000, 1064)
HOLDOUT = range(900_001, 900_005)


def record(w, seed):
    code, stdout = run_command(w.command(seed, w.golden_workers))
    if code != 0:
        raise SystemExit(f"{w.name} seed {seed}: exit code {code}")
    return golden_of(w, stdout)


def main() -> int:
    import_fqrank()
    goldens = {}
    for w in WORKLOADS.values():
        if w.seeded:
            goldens[w.name] = {
                "pool": {str(s): record(w, s) for s in POOL},
                "holdout": {str(s): record(w, s) for s in HOLDOUT},
            }
        else:
            goldens[w.name] = {"single": record(w, None)}
        print(f"recorded {w.name}", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
