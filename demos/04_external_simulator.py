"""Driving an external simulator process through the line-JSON protocol.

The expensive model can live in a separate executable: the adapter sends
``{"id": ..., "x": [...]}`` lines on stdin and reads ``{"id": ..., "y": ...}``
lines from stdout, keeping at most ``batch_size`` requests in flight and
tolerating out-of-order replies.  Here the "simulator" is a tiny inline
Python child evaluating the same 1D oscillatory function.

Run:  python demos/04_external_simulator.py
"""

import sys
import tempfile
from pathlib import Path

from qvr import RngStream, subprocess_pair, toy1d
from qvr.model import standard_normal_input
from qvr.sampling import (
    AllocationPlan,
    evaluate_full,
    sample_strata,
    strata_from_cutpoints,
)
from qvr.strata import cs_quantile

CHILD = """\
import json, math, sys
for line in sys.stdin:
    req = json.loads(line)
    x = req["x"][0]
    y = 0.95 * x * x * (1 + 0.5 * math.cos(10 * x) + 0.5 * math.cos(20 * x))
    print(json.dumps({"id": req["id"], "y": y}), flush=True)
"""

with tempfile.TemporaryDirectory() as tmp:
    script = Path(tmp) / "simulator.py"
    script.write_text(CHILD)

    pair = subprocess_pair(
        command=f"{sys.executable} {script}",
        input_dist=standard_normal_input(1),
        f_r=lambda x: x[:, 0] ** 2,   # the metamodel stays in-process
        batch_size=64,
    )

    spec = strata_from_cutpoints(toy1d(), [0.0, 0.5, 0.9, 0.95, 1.0])
    sample, n_r = sample_strata(pair, spec, AllocationPlan((50, 50, 50, 50)), RngStream(0))
    sample = evaluate_full(pair, sample)
    est = cs_quantile(sample, spec, 0.95)
    pair.f.close()

    print(f"stratified 0.95-quantile estimate from the child process: {est:.3f}")
    print(f"metamodel draws consumed to fill the strata: {n_r}")
    print("(the in-process toy model gives the identical value for the same"
          " seed)")

    ref, _ = sample_strata(toy1d(), spec, AllocationPlan((50, 50, 50, 50)), RngStream(0))
    ref = evaluate_full(toy1d(), ref)
    print(f"in-process reference: {cs_quantile(ref, spec, 0.95):.3f}")
