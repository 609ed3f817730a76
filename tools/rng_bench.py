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
alternates the two ways call by call (which goes first alternates too)
for about 0.2 s, after one warm-up call of each, and records each way's
microseconds per generator and their ratio block / generators.  The
host's speed then moves both ways of a run alike, so the ratio compares
two commits where the times alone cannot: on a shared host whose speed
swings 2x within seconds, two runs of one commit read R = 1 ``block`` at
31.5-35.4 us and at 33.9-60.1 us.  The tool prints per size the median of
the runs for each way and the median ratio with its range (``--json``:
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


def _runs(streams, runs: int) -> list[list[float]]:
    """Per run, each way's us per generator, the ways taking turns."""
    for _, build in WAYS:
        build(streams)
    start = perf_counter()
    for _, build in WAYS:
        build(streams)
    calls = max(1, int(RUN_S / max(perf_counter() - start, 1e-7)))
    out = []
    for _ in range(runs):
        spent = [0.0] * len(WAYS)
        for k in range(calls):
            for i in ((0, 1), (1, 0))[k % 2]:
                start = perf_counter()
                WAYS[i][1](streams)
                spent[i] += perf_counter() - start
        out.append([t / calls / len(streams) * 1e6 for t in spent])
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
        runs = _runs([RngStream(SEED, (r,)) for r in range(R)], args.runs)
        ways = {name: [run[i] for run in runs]
                for i, (name, _) in enumerate(WAYS)}
        ways["ratio"] = [b / g for b, g in zip(ways["block"],
                                                ways["generators"])]
        result["sizes"][R] = {
            name: {"median": round(statistics.median(v), 3),
                   "min": round(min(v), 3), "max": round(max(v), 3),
                   "runs": [round(t, 3) for t in v]}
            for name, v in ways.items()}
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"us per generator and block/generators, median of {args.runs} "
          f"interleaved runs, CPU {cpu}")
    print(f"{'R':>4}" + "".join(f" {name:>13}" for name, _ in WAYS)
          + f" {'ratio':>7} {'range':>13}")
    for R, ways in result["sizes"].items():
        ratio = ways["ratio"]
        print(f"{R:>4}" + "".join(f" {ways[name]['median']:>13.2f}"
                                  for name, _ in WAYS)
              + f" {ratio['median']:>7.3f} {ratio['min']:>6.3f}-"
                f"{ratio['max']:<6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
