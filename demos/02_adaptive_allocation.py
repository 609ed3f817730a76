"""Two-phase adaptive stratification walkthrough.

A pilot run estimates the per-stratum conditional probabilities at a first
quantile guess; the optimal (Neyman-type) allocation computed from the pilot
then steers the remaining budget.  With three strata the top 5% of the
metamodel range ends up receiving ~34% of the full-model calls instead of
the nominal 5%.

Run:  python demos/02_adaptive_allocation.py
"""

import numpy as np

from qvr import (
    ExperimentConfig,
    RngStream,
    ground_truth_quantile,
    run_replications,
    toy1d,
)
from qvr.sampling import strata_from_cutpoints
from qvr.strata import AcsConfig, acs_quantile

ALPHA = 0.95
N = 2000
REPS = 300
CUTPOINTS = [0.0, 0.85, 0.95, 1.0]

pair = toy1d()
spec = strata_from_cutpoints(pair, CUTPOINTS)
config = AcsConfig(spec=spec, n=N)

one = acs_quantile(pair, config, ALPHA, RngStream(0, (0,)))
print("single adaptive run (n = 2000, pilot = 200 per stratum):")
print(f"  pilot quantile guess : {one.pilot_quantile:.4f}")
print(f"  estimated allocation : {np.round(one.beta_tilde, 3)}")
print(f"  realized allocation  : {np.round(one.realized_fractions, 3)}")
print(f"  final stratum counts : {one.final_counts.tolist()}")
print(f"  metamodel draws used : {one.draw_count}")
print(f"  quantile estimate    : {one.estimate:.4f}\n")

# The first stratum is pinned at its pilot floor: the optimal share of the
# bottom 85% of the metamodel range is below the 10% already spent on the
# pilot, so the clamped allocation keeps those points and spends the rest
# on the informative upper strata.

est = run_replications(ExperimentConfig(
    model="toy1d", estimator="acs", alpha=ALPHA, n=N, replications=REPS,
    seed=1, params={"cutpoints": CUTPOINTS})).estimates
truth = ground_truth_quantile(pair, ALPHA, 10**7, RngStream(2))
print(f"over {REPS} replications: mean {est.mean():.3f}, "
      f"std {est.std(ddof=1):.3f}  (truth {truth:.3f})")
print("compare ~0.33 for the plain empirical estimator at the same budget:"
      "\nthe adaptive scheme is ~3x tighter.")
