"""The repo benchmark: one command, three keep-alive HTTP workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search_single --seed 1 --seconds 12 --trace 0

``--trace 0`` runs the workload against a real ``python -m repro serve``
child and prints the end-to-end metrics; ``--trace 1`` feeds the same
generated inputs through each layer's public calls in process, with
spans recorded around the calls, and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run
record (per-epoch counts, resource samples, property shares, spans) is
written under ``perfbench/out/``.  A failed correctness check exits 1.

``--smoke`` shrinks the corpus and phases for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_table(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} correct={record['correct']}")
    for error in record.get("errors", []):
        print(f"  MISMATCH {error}")
    for error in record.get("request_errors", [])[:5]:
        print(f"  FAILED {error}")
    for name, m in record.get("info", {}).items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}  (recorded, not gated)")
    if "layers" in record:
        print(f"  {'span':<30} {'count':>7} {'p50_us':>11} {'p99_us':>11} "
              f"{'self_p50_us':>11} {'unaccounted':>11}")
        for name, row in record["layers"].items():
            share = row.get("unaccounted_share")
            print(f"  {name:<30} {row['count']:>7} {row['p50_us']:>11.1f} {row['p99_us']:>11.1f} "
                  f"{row['self_p50_us']:>11.1f} {'' if share is None else f'{share:.3f}':>11}")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = dataclasses.replace(wl, n_videos=max(4, wl.n_videos // 20))
    out = HERE / "out"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            from traced import run_traced

            record = run_traced(wl, args.seed, args.seconds, work, smoke=args.smoke)
        else:
            from endtoend import run_end_to_end

            record = run_end_to_end(wl, args.seed, args.seconds, work, SRC, smoke=args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    _print_table(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
