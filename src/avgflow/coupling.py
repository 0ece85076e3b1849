"""Endpoint couplings for deterministic flow matching.

This module only pairs: it decides which target sample each start is steered
to.  The controls of a coupled pair come from the one steering law,
:func:`avgflow.bridge.bridge_controls`, through the exact deterministic
controller.

Training pairs (x0_i, xf_i) can couple the endpoint samples two ways:

* product coupling: independent draws.  Regression on such pairs can only
  recover the conditional-mean control, so every start is steered toward the
  same mean target (the collapse case);
* optimal transport coupling: a minimum quadratic-cost bijection between the
  two clouds, which preserves the full target law under the learned flow.

The assignment is exact (Hungarian-type solver on the squared-distance cost),
with a deterministic cleanup pass that resolves cost ties toward the lowest
target index.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


@dataclass
class CouplingPlan:
    """Bijection i -> permutation[i] with per-pair squared costs."""

    permutation: np.ndarray
    pair_costs: np.ndarray
    total_cost: float
    kind: str = "ot"


def ot_assignment(sources, targets):
    """Exact minimum-cost pairing under squared Euclidean cost.

    :param sources: (N, d) start points.
    :param targets: (N, d) target points.
    :returns: CouplingPlan whose permutation maps source index to target
        index; exact cost ties are broken toward the lowest target index.
    """
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have identical shapes")
    if not (np.all(np.isfinite(sources)) and np.all(np.isfinite(targets))):
        raise ValueError("assignment requires finite points")
    cost = cdist(sources, targets, metric="sqeuclidean")
    _, perm = linear_sum_assignment(cost)
    perm = _tie_cleanup(cost, perm)
    pair_costs = cost[np.arange(len(perm)), perm]
    return CouplingPlan(
        permutation=perm,
        pair_costs=pair_costs,
        total_cost=float(pair_costs.sum()),
        kind="ot",
    )


def _tie_cleanup(cost, perm):
    """Swap assignments toward lower target indices when cost-neutral.

    Applies exact-equality two-swaps, scanning sources in ascending order and
    always taking the lowest reachable target index, until stable.  Degenerate
    instances (duplicated points, all-equal costs) thereby resolve to the
    lowest-index pairing; generic instances are untouched.
    """
    perm = perm.copy()
    n = len(perm)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            ks = np.arange(i + 1, n)
            pk = perm[ks]
            swapped = cost[i, pk] + cost[ks, perm[i]]
            current = cost[i, perm[i]] + cost[ks, pk]
            candidates = ks[(swapped == current) & (pk < perm[i])]
            if candidates.size:
                k = candidates[np.argmin(perm[candidates])]
                perm[i], perm[k] = perm[k], perm[i]
                changed = True
    return perm


def product_plan(n):
    """Identity pairing for independently drawn endpoint samples."""
    perm = np.arange(n)
    return CouplingPlan(
        permutation=perm,
        pair_costs=np.zeros(n),
        total_cost=0.0,
        kind="product",
    )


def export_plan_csv(path, plan):
    """Write the coupling plan as CSV rows i, pi_i, cost_i."""
    with open(path, "w") as fh:
        fh.write("i,pi_i,cost_i\n")
        for i, (p, c) in enumerate(zip(plan.permutation, plan.pair_costs)):
            fh.write(f"{i},{p},{c:.17g}\n")
