"""The contract's command: one pass of one workload, one JSON line.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric, ``--trace 1`` every per-layer metric, as the last stdout line.
Exits non-zero, printing no result, when the program under test is not
there to import.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The package is imported as ``ledger`` here and as ``benchmarks.ledger``
# under ``python -m``; inside it every import is relative.
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from ledger.passes import run_pass
    from ledger.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    # Users run unpinned, so the ledger does too (README, hazard 2); the
    # scheduler's share of every number is read against these two facts.
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    print(f"ledger: nproc {os.cpu_count()} · affinity {affinity} (left as given)", file=sys.stderr)
    result = run_pass(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(result.contract_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
