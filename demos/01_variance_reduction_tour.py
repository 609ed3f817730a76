"""Tour of the core estimators on the 1D oscillatory toy model.

The toy model pairs an expensive oscillatory function f with a cheap
quadratic metamodel f_r = x^2.  We estimate the 0.95-quantile of Y = f(X)
with a budget of 200 full-model calls and compare the plain empirical
estimator against the metamodel-assisted ones over many replications.

Run:  python demos/01_variance_reduction_tour.py
"""

from qvr import (
    ExperimentConfig,
    RngStream,
    ground_truth_quantile,
    run_replications,
    toy1d,
)

ALPHA = 0.95
N = 200
REPS = 2000

pair = toy1d()

truth = ground_truth_quantile(pair, ALPHA, 10**7, RngStream(0))
print(f"ground truth y_{ALPHA}: {truth:.4f}  (10^7-sample Monte Carlo)\n")


def replicate(estimator, seed, **params):
    """REPS estimates; replication r draws from RngStream(seed, (r,))."""
    config = ExperimentConfig(model="toy1d", estimator=estimator, alpha=ALPHA,
                              n=N, replications=REPS, seed=seed, params=params)
    return run_replications(config).estimates


# Empirical + control variate draw the same paired (y, z) samples (seed 1).
# The metamodel quantile is known in closed form for this model; it anchors
# both the control variate and the strata boundaries.
ee = replicate("ee", 1)
cv = replicate("cv", 1)
# Controlled stratification rejects inputs until each metamodel stratum
# holds its quota, then runs the full model once per accepted point.
cs = replicate("cs", 2, cutpoints=[0.0, 0.5, 0.9, 0.95, 1.0],
               allocation=[50, 50, 50, 50])

print(f"{'method':<24}{'mean':>8}{'std':>8}{'std vs EE':>12}")
for name, vals in (("empirical", ee), ("control variate", cv),
                   ("controlled strata", cs)):
    print(f"{name:<24}{vals.mean():>8.3f}{vals.std(ddof=1):>8.3f}"
          f"{vals.std(ddof=1) / ee.std(ddof=1):>11.2f}x")

print("\nThe stratified estimator cuts the standard deviation roughly in"
      "\nhalf at the same full-model budget: the metamodel steers most of"
      "\nthe 200 evaluations into the quantile-relevant output region.")
