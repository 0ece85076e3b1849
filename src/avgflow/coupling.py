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

The assignment is exact up to floating-point rounding: a
shortest-augmenting-path solver on the squared-distance cost less entropic
dual potentials, then a deterministic cleanup pass over cost-neutral
two-swaps.  The reduced cost carries the rounding of the subtractions, so the
plan's total can exceed the optimum by that rounding, of order n units in the
last place of the largest cost.  An instance whose optimal plan beats every
other plan by more than that gets that plan bitwise; a near-tied instance may
get another plan within the margin; a tied one gets a plan of optimal cost
(up to the margin) on which no cost-neutral two-swap lowers a target index.
"""

from dataclasses import dataclass

import numpy as np


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
        index, with ``pair_costs`` read from the raw squared distances.  The
        permutation is optimal for the reduced cost, so its total is within
        the reduction's rounding (of order n ulps of the largest cost) of
        the optimum.  It is the optimal plan itself when that plan beats
        every other by more than the rounding; on a tied instance no
        cost-neutral two-swap moves it toward a lower target index (see
        :func:`_tie_cleanup`).
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have identical shapes")
    if not (np.all(np.isfinite(sources)) and np.all(np.isfinite(targets))):
        raise ValueError("assignment requires finite points")
    reduced = cdist(sources, targets, metric="sqeuclidean")
    _warm_start(reduced)
    _, perm = linear_sum_assignment(reduced)
    del reduced
    cost = cdist(sources, targets, metric="sqeuclidean")
    perm = _tie_cleanup(cost, perm)
    pair_costs = cost[np.arange(len(perm)), perm]
    return CouplingPlan(
        permutation=perm,
        pair_costs=pair_costs,
        total_cost=float(pair_costs.sum()),
        kind="ot",
    )


# Entropic temperatures of the warm start, as fractions of the mean reduced
# cost, and the scaling sweeps run at each one.
_ANNEAL = (0.1, 0.03, 0.01, 0.003)
_SWEEPS = 15


def _warm_start(cost):
    """Subtract near-optimal dual potentials from ``cost`` in place.

    In exact arithmetic any ``cost[i, j] - f[i] - g[j]`` has the same
    optimal assignments as ``cost``; in floating point each entry also
    carries the rounding of up to ten subtractions, which can reorder plans
    closer than that.  The assignment solver starts from zero duals and
    finishes far sooner on a cost whose optimal pairs are already near
    zero.  The potentials are row then column minima, then entropic-OT
    scaling (Cuturi 2013) annealed over temperatures ``_ANNEAL`` times the
    mean reduced cost (Schmitzer 2019): at each, ``_SWEEPS`` sweeps of
    ``a = 1 / (K b)``, ``b = 1 / (a K)`` with ``K = exp(-cost / eps)``,
    after which ``eps log a`` and ``eps log b`` are folded into ``cost``.
    Annealing stops at the first temperature whose potentials are not
    finite; that only leaves the solver more work.  While it runs, ``cost``
    and the kernel are two (N, N) float64 arrays.

    :returns: the number of temperatures folded into ``cost``.
    """
    if not cost.size:
        return 0
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)
    kernel = np.empty_like(cost)
    with np.errstate(all="ignore"):
        scale = cost.mean()
        for stage, fraction in enumerate(_ANNEAL):
            eps = fraction * scale
            np.divide(cost, -eps, out=kernel)
            np.exp(kernel, out=kernel)
            b = np.ones(cost.shape[1])
            for _ in range(_SWEEPS):
                a = 1.0 / (kernel @ b)
                b = 1.0 / (a @ kernel)
            f = eps * np.log(a)
            g = eps * np.log(b)
            if not (np.isfinite(f).all() and np.isfinite(g).all()):
                return stage
            cost -= f[:, None]
            cost -= g
    return len(_ANNEAL)


def _tie_cleanup(cost, perm):
    """Swap assignments toward lower target indices when cost-neutral.

    Applies exact-equality two-swaps, scanning sources in ascending order and
    always taking the lowest reachable target index, until stable.  The
    result has no sources ``i < k`` whose swap keeps the cost and gives
    ``i`` a lower target.  That is a pairwise order only: which optimal plan
    a tied instance ends on still depends on where the solver started, and
    it need not be the lexicographically lowest.  Generic instances are
    untouched.
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
