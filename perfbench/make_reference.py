"""Compute the references that the benchmark's correctness check uses.

* ``quantiles``: the true 0.95-quantile of each builtin model, from
  ``qvr.bench.ground_truth_quantile`` on 10^7 plain Monte Carlo samples.
* ``expected``: for every job of every workload, the mean and standard
  error of its estimator over 10^4 replications (``run_replications`` on the
  job's in-process config).  The mean is the truth plus the estimator's
  small-sample bias at its n (the published n=200 ee mean is 5% high, acs3
  1% low), so the check compares each job with its own expected mean and
  can catch a bias of a few percent.

The values are stored in ``perfbench/reference.json`` together with the
command and seeds that produced them, so the timed load never computes them.
It takes several minutes.

Usage, from the repository root:
    python3 perfbench/make_reference.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from qvr import RngStream, builtin_model, ground_truth_quantile  # noqa: E402
from qvr.bench import run_replications  # noqa: E402

import workloads  # noqa: E402

ALPHA = 0.95
SAMPLES = 10**7
SEED = 20080218
EXPECTED_SEED = SEED + 1
EXPECTED_REPLICATIONS = 10**4
MODELS = ("toy1d", "toy2d")


def main():
    quantiles = {}
    for i, name in enumerate(MODELS):
        t0 = time.perf_counter()
        quantiles[name] = ground_truth_quantile(
            builtin_model(name), ALPHA, SAMPLES, RngStream(SEED, (i,)))
        print(f"{name}: {quantiles[name]!r} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
    expected = {}
    for w in workloads.WORKLOADS.values():
        for job in w.jobs:
            t0 = time.perf_counter()
            report = run_replications(
                job.reference_config(EXPECTED_SEED, EXPECTED_REPLICATIONS))
            if report.errors:
                raise RuntimeError(f"{job.label}: {len(report.errors)} "
                                   f"replications failed")
            expected[job.label] = {"mean": report.mean, "sem": report.sem}
            print(f"{job.label}: mean {report.mean!r} sem {report.sem!r} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    payload = {
        "command": "python3 perfbench/make_reference.py",
        "function": "qvr.bench.ground_truth_quantile",
        "alpha": ALPHA,
        "samples": SAMPLES,
        "seed": SEED,
        "streams": {name: [SEED, [i]] for i, name in enumerate(MODELS)},
        "quantiles": quantiles,
        "expected_function": "qvr.bench.run_replications",
        "expected_replications": EXPECTED_REPLICATIONS,
        "expected_seed": EXPECTED_SEED,
        "expected": expected,
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
