"""Test-local per-row copies of the acs phase-two rounding, as qvr computed
one replication at a time before it computed a block's rows in one pass
(``strata.largest_remainder`` by rows and ``strata.phase_two_rows``).  They
are the references the row functions and the engine's acs rows are
compared against, bit for bit."""

import numpy as np

from qvr.strata import StrataError


def largest_remainder(targets):
    """Round nonnegative reals to integers preserving their (rounded) sum."""
    t = np.asarray(targets, dtype=float)
    if np.any(t < 0):
        raise ValueError("targets must be nonnegative")
    floors = np.floor(t).astype(int)
    short = int(round(t.sum())) - int(floors.sum())
    if short > 0:
        order = np.argsort(-(t - floors), kind="stable")
        floors[order[:short]] += 1
    return floors


def phase_two_counts(beta_tilde, pilot, n, min_per_stratum, widths):
    """Phase-two allocation of one row toward targets beta_tilde * n, and
    the indices of its floored strata."""
    targets = largest_remainder(beta_tilde * n)
    floored = []
    for j in range(len(targets)):
        if widths[j] > 0 and targets[j] < min_per_stratum:
            floored.append(j)
            targets[j] = min_per_stratum
    budget = n - int(pilot.sum())
    if budget < 0:
        raise StrataError("pilot already exceeds the total budget")
    deficits = np.maximum(targets - pilot, 0).astype(float)
    if deficits.sum() > 0:
        extra = largest_remainder(budget * deficits / deficits.sum())
    else:
        extra = largest_remainder(budget * widths / widths.sum())
    gap = budget - int(extra.sum())
    if gap != 0:
        extra[int(np.argmax(extra))] += gap
    return extra.astype(int), tuple(floored)
