"""``python -m benchmarks.ledger run | compare | stability``.

Every pass runs in its own process through ``run.py`` — the contract's
command — so a ledger row is exactly what the driver would measure:
cold interpreter, its own peak RSS, nothing left over from the pass
before.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .engine import OUT_DIR
from .passes import environment

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_pass_process(workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` invocation; returns the detail file the pass wrote."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract()["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}\n{done.stderr}")
    json.loads(done.stdout.strip().splitlines()[-1])  # the contract line must parse
    detail = OUT_DIR / f"pass-{workload}-{trace}.json"
    return json.loads(detail.read_text(encoding="utf-8"))


def failed_frac(detail: dict) -> float:
    """(exceptions + oracle violations + probe misses) / attempted."""
    return len(detail["failures"]) / max(1, detail["attempted"])


def _print_rows(detail: dict) -> None:
    kind = "per-layer" if detail["traced"] else "end-to-end"
    verdict = "correct" if not detail["failures"] else f"{len(detail['failures'])} FAILED"
    print(f"\n== {detail['workload']} · {kind} · seed {detail['seed']} · "
          f"{detail['attempted']} attempted · {verdict}")
    for failure in detail["failures"][:10]:
        print(f"   FAILED {failure}")
    rows = dict(detail["rows"])
    if not detail["traced"]:  # the ninth end-to-end metric: the contract line's failed/attempted
        rows["failed_frac"] = [failed_frac(detail), "ratio", detail["attempted"]]
    for name, (value, unit, samples) in rows.items():
        print(f"   {name:42s} {value:14.4f} {unit:6s} n={samples}")


def ledger_text(ledger: dict) -> str:
    """A ledger file: JSON with one row per line, so two ledgers diff row by row."""
    passes = []
    for detail in ledger["passes"]:
        head = json.dumps({key: value for key, value in detail.items() if key != "rows"})
        rows = ",\n".join(
            f"   {json.dumps(name)}: {json.dumps(row)}" for name, row in detail["rows"].items()
        )
        passes.append(f'  {head[:-1]}, "rows": {{\n{rows}\n  }}}}')
    head = json.dumps({key: value for key, value in ledger.items() if key != "passes"}, indent=1)
    return f'{head[:-2]},\n "passes": [\n' + ",\n".join(passes) + "\n ]\n}\n"


def command_run(args) -> int:
    ledger = {"schema": 2, **environment(), "seed": args.seed,
              "seconds": contract()["run_seconds"], "passes": []}
    print(f"ledger: commit {ledger['commit']} · python {ledger['python']} · "
          f"nproc {ledger['nproc']} · affinity {ledger['affinity']} (left as given) · "
          f"loadavg {ledger['loadavg']:.2f}")
    print(f"        FileStore policy: {ledger['filestore_policy']}")
    failed = 0
    for workload in contract()["workloads"]:
        for trace in (0, 1):
            detail = run_pass_process(workload["name"], args.seed, trace)
            _print_rows(detail)
            ledger["passes"].append(detail)
            failed += len(detail["failures"])
    target = OUT_DIR / f"ledger-seed{args.seed}.json"
    target.write_text(ledger_text(ledger), encoding="utf-8")
    print(f"\nrows written to {target}")
    return 1 if failed else 0


# -- compare -----------------------------------------------------------


def end_to_end_values(paths: str) -> tuple[dict[tuple[str, str], list[float]], int]:
    """(workload, metric) -> one value per untraced pass, pooled over the
    comma-separated ledger files (a file may hold several runs' passes),
    and the number of runs found.  ``failed_frac`` is added from each
    pass's totals."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths.split(","):
        for detail in json.loads(Path(path).read_text(encoding="utf-8"))["passes"]:
            if detail["traced"]:
                continue
            for name, row in detail["rows"].items():
                values.setdefault((detail["workload"], name), []).append(row[0])
            values.setdefault((detail["workload"], "failed_frac"), []).append(failed_frac(detail))
    return values, max((len(series) for series in values.values()), default=0)


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative: it improved)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def command_compare(args) -> int:
    old, old_runs = end_to_end_values(args.old)
    new, new_runs = end_to_end_values(args.new)
    spec = contract()
    print(f"medians of {old_runs} old and {new_runs} new run(s)")
    if min(old_runs, new_runs) < 3:
        print("note: a bound is meant for medians of several runs a side; about one TCP run "
              "in ten is slow for its whole length, so a verdict on fewer than three is advisory")
    regressions = 0
    print(f"{'workload':16s} {'metric':18s} {'old':>12s} {'new':>12s} {'new/old':>9s} "
          f"{'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in old or key not in new:
                # A side that did not measure the pair cannot show it held.
                regressions += 1
                print(f"{workload:16s} {metric['name']:18s} "
                      f"{'-' if key not in old else 'present':>12s} "
                      f"{'-' if key not in new else 'present':>12s} {'':>9s} "
                      f"{metric['bound']:6.2f}  MISSING")
                continue
            before, after = statistics.median(old[key]), statistics.median(new[key])
            regressed = worse_by(before, after, metric["better"]) > metric["bound"]
            regressions += regressed
            ratio = after / before if before else float("nan")
            print(f"{workload:16s} {metric['name']:18s} {before:12.4f} {after:12.4f} "
                  f"{ratio:9.3f} {metric['bound']:6.2f}  "
                  f"{'REGRESSION' if regressed else 'ok'} (base {before:.4f})")
        key = (workload, "failed_frac")
        if key in old and key in new:  # absent only with every row above, already counted
            before, after = max(old[key]), max(new[key])
            regressions += after > before
            print(f"{workload:16s} {'failed_frac':18s} {before:12.4f} {after:12.4f} "
                  f"{'':>9s} {'0':>6s}  {'REGRESSION' if after > before else 'ok'} "
                  f"(worst run a side; any rise fails)")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# -- stability ---------------------------------------------------------

EXACT = ("mixed-sim", "superset-fanout")  # msgs_per_op repeats exactly for a seed there


def command_stability(args) -> int:
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    # sets[s][(workload, metric)] -> values, one per run; sets interleave
    # so slow drift of the box lands on both alike.  Run r uses seed r.
    sets: list[dict[tuple[str, str], list[float]]] = [{} for _ in range(args.sets)]
    for run in range(args.runs):
        for number, values in enumerate(sets):
            for name in names:
                detail = run_pass_process(name, run, 0)
                for metric, row in detail["rows"].items():
                    values.setdefault((name, metric), []).append(row[0])
                print(f"set {number} run {run} {name}: "
                      f"{len(detail['failures'])} failed", flush=True)
    misses = 0
    print(f"{'workload':16s} {'metric':18s} " + " ".join(f"{'set' + str(i):>12s}"
                                                         for i in range(args.sets))
          + f" {'gap':>8s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            medians = [statistics.median(values[name, metric["name"]]) for values in sets]
            gap = max(abs(worse_by(medians[0], other, metric["better"])) for other in medians)
            missed = gap > metric["bound"]
            misses += missed
            print(f"{name:16s} {metric['name']:18s} "
                  + " ".join(f"{median:12.4f}" for median in medians)
                  + f" {gap:8.4f} {metric['bound']:6.2f}{'  MISS' if missed else ''}")
    for name in EXACT:
        counts = [values[name, "msgs_per_op"] for values in sets]
        repeats = all(other == counts[0] for other in counts)
        misses += not repeats
        print(f"{name:16s} msgs_per_op per seed, every set: "
              f"{'repeats exactly' if repeats else f'DIFFERS {counts}'}")
    print(f"{misses} check(s) missed")
    return 1 if misses else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="every workload, untraced then traced; print the "
                                          "rows and write them to out/ledger-seed<N>.json")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(handler=command_run)
    compare = commands.add_parser(
        "compare", help="apply BENCHMARK.json's bounds to the medians of two sides' ledgers")
    compare.add_argument("old", help="ledger file, or several separated by commas")
    compare.add_argument("new", help="ledger file, or several separated by commas")
    compare.set_defaults(handler=command_compare)
    stability = commands.add_parser("stability", help="interleaved sets must agree within bounds")
    stability.add_argument("--sets", type=int, default=2)
    stability.add_argument("--runs", type=int, default=3)
    stability.set_defaults(handler=command_stability)
    args = parser.parse_args(argv)
    return args.handler(args)
