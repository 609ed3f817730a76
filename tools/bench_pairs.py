"""Paired perfbench runs of two checkouts: the end-to-end metrics of each
pair, their medians, the change's wins and each side's quartiles.

Pair i (seeds ``--first-seed`` onwards) of each ``--workload`` runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each checkout, each with its own ``perfbench/`` and ``src/``; the
parent runs first in even pairs and the change in odd ones, so that a drift
of the host's speed favours neither side.  Each run's metrics are the
``metrics`` of the JSON object on the last line of its stdout.  The tool
prints one line per pair and metric (parent, change, change/parent), then
per metric the median of each side, the pairs the change won (better by
the direction ``BENCHMARK.json`` gives the metric, lower if it names none;
ties count for neither side), and each side's quartiles: a gain is clear
when the change wins nearly every pair and its median lies beyond the
parent's interquartile range.  With ``--json PATH`` it writes every run
and summary there.  A run that exits non-zero or reports
``correct: false`` stops the tool with exit 1.  It imports nothing from
either checkout.

Before the first pair the tool byte-compiles ``src/qvr`` in both
checkouts (``python3 -m compileall``), so that neither side's
``setup_s`` pays for compiling qvr while the other's reads a bytecode
cache: with a cache in the parent's checkout only, external-sim read
``setup_s`` 0.143 s (parent) against 0.166 s (change) in 10 of 10 pairs,
and 0.164 against 0.165 s once neither side held one.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload rep-small \\
        [--workload rep-large ...] --pairs 10 [--seconds 15] \\
        [--first-seed 1] [--json out.json]

With ``--preset P`` (repeatable) in place of ``--workload``, pair i times

    python3 -m qvr.cli bench --preset P --seed i

in each checkout instead, at the preset's own counts, with that checkout's
``src/`` as ``PYTHONPATH``, in the same alternating order, and reports its
wall time ``wall_s`` (lower is better) with the same summary.  A pair
whose two reports differ in their bytes is flagged ``reports differ``, as
a change that keeps every report should never be.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def compile_sources(checkout: Path) -> None:
    """Write the bytecode cache of the checkout's ``src/qvr``."""
    cmd = ["python3", "-m", "compileall", "-q", "src/qvr"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")


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


def run_preset(checkout: Path, preset: str, seed: int) -> dict:
    """The wall time of one ``qvr bench`` run in a child interpreter, and
    the sha256 of its report."""
    cmd = ["python3", "-m", "qvr.cli", "bench", "--preset", preset,
           "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{out.returncode}:\n{out.stderr[-2000:].decode()}")
    return {"metrics": {"wall_s": wall},
            "report_sha256": hashlib.sha256(out.stdout).hexdigest()}


def better_higher(checkout: Path) -> set:
    """The end-to-end metrics that ``BENCHMARK.json`` calls better when
    higher."""
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return set()
    return {m["name"] for m in spec.get("end_to_end", ())
            if m.get("better") == "higher"}


def summarize(pairs: list, higher: set) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won."""
    out = {}
    for k in pairs[0]["parent"]["metrics"]:
        a = [p["parent"]["metrics"][k] for p in pairs]
        b = [p["change"]["metrics"][k] for p in pairs]
        sign = 1 if k in higher else -1
        q = {side: statistics.quantiles(v, n=4, method="inclusive")
             for side, v in (("parent", a), ("change", b))}
        out[k] = {"better": "higher" if sign > 0 else "lower",
                  "median": {"parent": statistics.median(a),
                             "change": statistics.median(b)},
                  "quartiles": {s: [q[s][0], q[s][2]] for s in q},
                  "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                  "parent_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b))}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--preset", action="append", default=[])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", type=Path)
    args = p.parse_args()
    if not args.workload and not args.preset:
        p.error("give a --workload or a --preset")
    sides = ("parent", "change")
    higher = better_higher(args.change)
    for side in sides:
        compile_sources(getattr(args, side))
    results = {}
    jobs = ([(w, lambda side, seed, w=w: run(side, w, seed, args.seconds))
             for w in args.workload]
            + [(f"preset-{p}", lambda side, seed, p=p: run_preset(
                side, p, seed)) for p in args.preset])
    for workload, job in jobs:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = job(getattr(args, side), seed)
            pairs.append(pair)
            for k, a in pair["parent"]["metrics"].items():
                b = pair["change"]["metrics"][k]
                print(f"{workload} pair {i} seed {seed} ({order[0]} first) "
                      f"{k}: {a:.6g} -> {b:.6g} ({b / a:.3f})", flush=True)
            if "report_sha256" in pair["parent"] and (
                    pair["parent"]["report_sha256"]
                    != pair["change"]["report_sha256"]):
                print(f"{workload} pair {i} seed {seed}: reports differ",
                      flush=True)
        summary = summarize(pairs, higher)
        results[workload] = {"pairs": pairs, "summary": summary}
        for k, m in summary.items():
            a, b = m["median"]["parent"], m["median"]["change"]
            qa, qb = m["quartiles"]["parent"], m["quartiles"]["change"]
            print(f"{workload} {k} ({m['better']} is better), median of "
                  f"{len(pairs)}: {a:.6g} -> {b:.6g} ({b / a:.3f}); change "
                  f"won {m['change_wins']}/{len(pairs)}, parent "
                  f"{m['parent_wins']}; quartiles parent {qa[0]:.6g}-"
                  f"{qa[1]:.6g} (IQR {qa[1] - qa[0]:.3g}), change "
                  f"{qb[0]:.6g}-{qb[1]:.6g}; median gap {abs(b - a):.3g}",
                  flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seconds": args.seconds, "workloads": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
