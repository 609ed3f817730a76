"""Set-up probe: one fresh interpreter, timed from ``import qvr`` until every
config of a workload has returned one warm-up result.

Warm-up runs ``run_replications`` with 2 replications (1 would make the
acs ddof=1 std warn), or one ``estimate_with_bootstrap`` call per
estimator.  Prints ``{"setup_s": ...}``.  ``run.py`` starts it; by hand:

    PYTHONPATH=src python3 perfbench/probe.py rep-small 0
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import workloads  # imports qvr

    sims = workloads.SimChildren(None)
    try:
        for job in workloads.WORKLOADS[name].jobs:
            workloads.run_job(job, job.make(seed, 2))
            sims.close()
    finally:
        sims.uninstall()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
