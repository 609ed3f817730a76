"""Metamodel-guided importance sampling, including its failure mode.

The metamodel selects a biased Gaussian input distribution concentrated on
the upper-tail event {f_r(X) > z_alpha}; full-model outputs are reweighted
by the likelihood ratio.  On the 2D model this works well.  On the 1D model
the event is two-sided (x^2 large means |x| large on either side), no single
Gaussian can cover it, and the fit is rejected with a diagnostic instead of
returning a silently biased number.

Run:  python demos/03_importance_sampling.py
"""

import numpy as np

from qvr import (
    CisNonConvergence,
    RngStream,
    ground_truth_quantile,
    toy1d,
    toy2d,
)
from qvr.importance import (
    BiasedFamily,
    draw_weighted_sample,
    fit_biased_member,
    tail_quantile,
)
from qvr.sampling import metamodel_quantiles

ALPHA = 0.95
N = 200

pair = toy2d()
family = BiasedFamily("joint_gaussian")

# The member is fitted once from metamodel-only pilot draws (cheap), then
# shared by every replication.  Its tail event lies beyond z_alpha, the
# alpha-quantile of Z = f_r(X): toy2d has no closed form for it, so it is
# a Monte Carlo order statistic of draws from the given stream.
z_alpha = metamodel_quantiles(pair, [ALPHA], RngStream(0).child(10))[0]
params, diag = fit_biased_member(pair, family, z_alpha, RngStream(0),
                                 pilot_count=100_000)
print("2D model: fitted biased member")
print(f"  center lambda        : {np.round(params.lam, 3)}")
print(f"  mass in tail event   : {diag.mass_in_event:.2f}")
print(f"  center inside event  : {diag.center_in_event}\n")

# Each replication draws N points from the member and inverts the tail-mass
# cdf, as the replication engine's cis design does with the member it fits.
est = np.array([
    tail_quantile(draw_weighted_sample(pair, family, params,
                                       RngStream(1, (r,)).child(1), N), ALPHA)
    for r in range(1000)
])
truth = ground_truth_quantile(pair, ALPHA, 10**7, RngStream(2))
print(f"  1000 replications at n={N}: mean {est.mean():.3f}, "
      f"std {est.std(ddof=1):.3f}  (truth {truth:.3f})")
print("  the plain empirical estimator runs at std ~0.52 here — the biased"
      "\n  distribution devotes nearly the whole budget to the tail.\n")

print("1D model: the tail event is symmetric in x, a Gaussian cannot cover"
      "\nboth lobes, and the fit is rejected:")
pair = toy1d()
try:
    fit_biased_member(pair, family, metamodel_quantiles(pair, [ALPHA])[0],
                      RngStream(3), pilot_count=100_000)
except CisNonConvergence as err:
    d = err.diagnostics
    print(f"  rejected: mass_in_event={d.mass_in_event:.2f}, "
          f"center_in_event={d.center_in_event}")
    print("  (the CLI surfaces this as exit code 3)")
