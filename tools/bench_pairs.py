"""Paired perfbench runs of two checkouts: the end-to-end metrics of each
pair and their medians.

Pair i (seeds ``--first-seed`` onwards) runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each checkout, each with its own ``perfbench/`` and ``src/``; the
parent runs first in even pairs and the change in odd ones, so that a drift
of the host's speed favours neither side.  Each run's metrics are the
``metrics`` of the JSON object on the last line of its stdout.  The tool
prints one line per pair and metric (parent, change, change/parent), then
the median of each side, and with ``--json PATH`` writes every run and the
medians there.  A run that exits non-zero or reports ``correct: false``
stops the tool with exit 1.  It imports nothing from either checkout.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload rep-large \\
        --pairs 10 [--seconds 15] [--first-seed 1] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON object of one untraced perfbench run."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # no output, or no JSON line last
        result = {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", type=Path)
    args = p.parse_args()
    sides = ("parent", "change")
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed,
                             args.seconds)
        pairs.append(pair)
        for k, a in pair["parent"]["metrics"].items():
            b = pair["change"]["metrics"][k]
            print(f"pair {i} seed {seed} ({order[0]} first) {k}: "
                  f"{a:.6g} -> {b:.6g} ({b / a:.3f})", flush=True)
    medians = {side: {k: statistics.median(p[side]["metrics"][k]
                                           for p in pairs)
                      for k in pairs[0][side]["metrics"]}
               for side in sides}
    for k, a in medians["parent"].items():
        b = medians["change"][k]
        print(f"median of {len(pairs)} {args.workload} {k}: "
              f"{a:.6g} -> {b:.6g} ({b / a:.3f})")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "pairs": pairs, "medians": medians}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
