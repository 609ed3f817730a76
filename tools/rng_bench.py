"""Microbenchmark: microseconds per random-stream generator.

For R = 1, 8 and 81 streams (one generator, an n=2000 block of
replications, an n=200 block), times two ways of getting a Philox
generator keyed for each stream of the engine's paths ``(seed, (r,))``:

- ``block``: ``qvr.sampling.each_generator`` on
  ``StreamBlock.of(RngStream(seed), range(R))``, the engine's path: the
  keys in one numpy pass, then one Philox re-keyed per stream;
- ``generators``: ``RngStream.generator()`` of each of the R streams, a new
  generator per stream.

The process pins itself to one CPU, the lowest it may run on.  Each run
times enough calls for about 0.2 s, after one warm-up call; the tool
prints the median of the runs in microseconds per generator (``--json``:
every run).  qvr is imported from ``src/`` next to this directory.  Not
part of the test suite:

    python tools/rng_bench.py [--runs 7] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qvr.sampling import RngStream, StreamBlock, each_generator  # noqa: E402

SEED = 11
SIZES = (1, 8, 81)
RUN_S = 0.2


def _generators(streams):
    return [s.generator() for s in streams]


def _block(streams):
    for _ in each_generator(StreamBlock.of(RngStream(SEED),
                                           range(len(streams)))):
        pass


WAYS = (("block", _block), ("generators", _generators))


def _runs(build, streams, runs: int) -> list[float]:
    build(streams)
    start = perf_counter()
    build(streams)
    calls = max(1, int(RUN_S / max(perf_counter() - start, 1e-7)))
    out = []
    for _ in range(runs):
        start = perf_counter()
        for _ in range(calls):
            build(streams)
        out.append((perf_counter() - start) / calls / len(streams) * 1e6)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7,
                    help="timed runs per size and way (at least 5)")
    ap.add_argument("--json", action="store_true",
                    help="print one JSON object instead of a table")
    args = ap.parse_args()
    if args.runs < 5:
        ap.error("--runs must be at least 5")
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    result: dict = {"cpu": cpu, "unit": "us_per_generator", "sizes": {}}
    for R in SIZES:
        streams = [RngStream(SEED, (r,)) for r in range(R)]
        result["sizes"][R] = {
            name: {"median": round(statistics.median(runs), 2),
                   "runs": [round(t, 2) for t in runs]}
            for name, build in WAYS
            for runs in [_runs(build, streams, args.runs)]}
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"us per generator, median of {args.runs} runs, CPU {cpu}")
    print(f"{'R':>4}" + "".join(f" {name:>13}" for name, _ in WAYS))
    for R, ways in result["sizes"].items():
        print(f"{R:>4}" + "".join(f" {ways[name]['median']:>13.2f}"
                                  for name, _ in WAYS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
