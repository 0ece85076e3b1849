"""Endpoint couplings and the exact steering controls of coupled pairs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from avgflow import (
    DeterministicExactController,
    export_plan_csv,
    ot_assignment,
    product_plan,
    rollout_deterministic,
)
from avgflow.coupling import _ANNEAL, _tie_cleanup, _warm_start


def brute_force_cost(sources, targets):
    """Minimum total squared cost over all permutations."""
    best = np.inf
    for perm in itertools.permutations(range(len(sources))):
        cost = sum(
            np.sum((sources[i] - targets[p]) ** 2) for i, p in enumerate(perm)
        )
        best = min(best, cost)
    return best


class TestOtAssignment:
    def test_identical_clouds_match_in_place(self):
        rng = np.random.Generator(np.random.Philox(key=[61, 0]))
        pts = rng.normal(size=(12, 2))
        plan = ot_assignment(pts, pts)
        np.testing.assert_array_equal(plan.permutation, np.arange(12))
        np.testing.assert_allclose(plan.pair_costs, 0.0, atol=1e-15)
        assert plan.total_cost == pytest.approx(0.0, abs=1e-15)
        assert plan.kind == "ot"

    def test_matches_exhaustive_search(self):
        rng = np.random.Generator(np.random.Philox(key=[62, 0]))
        for trial in range(20):
            n = int(rng.integers(2, 6))
            sources = rng.normal(size=(n, 2))
            targets = rng.normal(size=(n, 2))
            plan = ot_assignment(sources, targets)
            assert plan.total_cost == pytest.approx(
                brute_force_cost(sources, targets), rel=1e-12
            )

    def test_one_dimensional_coupling_is_monotone(self):
        rng = np.random.Generator(np.random.Philox(key=[63, 0]))
        sources = rng.normal(size=(40, 1))
        targets = rng.normal(size=(40, 1)) + 2.0
        plan = ot_assignment(sources, targets)
        order = np.argsort(sources[:, 0])
        matched = targets[plan.permutation[order], 0]
        assert np.all(np.diff(matched) >= 0)

    def test_beats_random_permutations(self):
        rng = np.random.Generator(np.random.Philox(key=[64, 0]))
        sources = rng.normal(size=(30, 2))
        targets = rng.normal(size=(30, 2))
        plan = ot_assignment(sources, targets)
        cost = np.sum((sources - targets[plan.permutation]) ** 2)
        assert plan.total_cost == pytest.approx(cost, rel=1e-12)
        for _ in range(1000):
            perm = rng.permutation(30)
            shuffled = np.sum((sources - targets[perm]) ** 2)
            assert plan.total_cost <= shuffled + 1e-12

    def test_tie_break_prefers_lowest_target_index(self):
        # Two sources equidistant from two coincident targets: any pairing
        # has the same cost, so the cleanup pass must pick the identity.
        sources = np.array([[0.0, 0.0], [0.0, 0.0]])
        targets = np.array([[1.0, 0.0], [1.0, 0.0]])
        plan = ot_assignment(sources, targets)
        np.testing.assert_array_equal(plan.permutation, [0, 1])

    def test_empty_clouds_give_an_empty_plan(self):
        plan = ot_assignment(np.zeros((0, 2)), np.zeros((0, 2)))
        assert plan.permutation.size == 0
        assert plan.total_cost == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ot_assignment(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_product_plan_is_identity(self):
        plan = product_plan(5)
        np.testing.assert_array_equal(plan.permutation, np.arange(5))
        assert plan.kind == "product"


def plain_assignment(sources, targets):
    """The solver on the raw squared-distance cost, with no warm start."""
    cost = cdist(sources, targets, metric="sqeuclidean")
    _, perm = linear_sum_assignment(cost)
    return _tie_cleanup(cost, perm)


def cloud_pair(seed, n, d, scale=1.0):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return scale * rng.normal(size=(n, d)), scale * rng.normal(size=(n, d)) + scale


class TestWarmStart:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 300),
        st.sampled_from([1, 2, 3]),
        st.integers(-150, 150),
    )
    @settings(max_examples=60, deadline=None)
    def test_generic_clouds_keep_the_plain_permutation(self, seed, n, d, exponent):
        sources, targets = cloud_pair(seed, n, d, 10.0**exponent)
        np.testing.assert_array_equal(
            ot_assignment(sources, targets).permutation,
            plain_assignment(sources, targets),
        )

    def test_far_outlier_keeps_the_plain_permutation(self):
        sources, targets = cloud_pair(71, 200, 2)
        sources[17] = [1e6, -3e5]
        targets[101] = [-2e4, 8e4]
        np.testing.assert_array_equal(
            ot_assignment(sources, targets).permutation,
            plain_assignment(sources, targets),
        )

    def test_pair_costs_are_the_raw_squared_distances(self):
        sources, targets = cloud_pair(72, 150, 3)
        plan = ot_assignment(sources, targets)
        cost = cdist(sources, targets, metric="sqeuclidean")
        np.testing.assert_array_equal(
            plan.pair_costs, cost[np.arange(150), plan.permutation]
        )

    def test_near_tied_plans_are_optimal_up_to_rounding(self):
        # A target a few ulps off another puts two plans within rounding of
        # each other.  The reduced cost may order them either way, and so
        # may the plain solver's own duals, so only the totals must agree,
        # to within n ulps of the largest cost.
        rng = np.random.Generator(np.random.Philox(key=[75, 0]))
        for _ in range(100):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 3))
            sources = rng.normal(size=(n, d))
            targets = rng.normal(size=(n, d))
            i, j = rng.choice(n, 2, replace=False)
            targets[j] = targets[i] + rng.integers(1, 4) * np.spacing(targets[i])
            plan = ot_assignment(sources, targets)
            cost = cdist(sources, targets, metric="sqeuclidean")
            reference = cost[np.arange(n), plain_assignment(sources, targets)].sum()
            np.testing.assert_array_equal(np.sort(plan.permutation), np.arange(n))
            assert abs(plan.total_cost - reference) <= n * np.spacing(cost.max())

    def test_tied_grid_plans_are_optimal_and_two_swap_stable(self):
        rng = np.random.Generator(np.random.Philox(key=[73, 0]))
        for _ in range(40):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 3))
            sources = rng.integers(0, 4, size=(n, d)).astype(float)
            targets = rng.integers(0, 4, size=(n, d)).astype(float)
            plan = ot_assignment(sources, targets)
            cost = cdist(sources, targets, metric="sqeuclidean")
            reference = plain_assignment(sources, targets)
            assert plan.total_cost == cost[np.arange(n), reference].sum()
            perm = plan.permutation
            for i in range(n - 1):
                ks = np.arange(i + 1, n)
                neutral = (
                    cost[i, perm[ks]] + cost[ks, perm[i]]
                    == cost[i, perm[i]] + cost[ks, perm[ks]]
                )
                assert not np.any(neutral & (perm[ks] < perm[i]))

    def test_non_finite_stage_still_gives_the_exact_plan(self):
        # Squared distances near 1e307 overflow the mean that sets the
        # temperature, so the first annealing stage is not finite.
        sources, targets = cloud_pair(74, 40, 2, 1e153)
        cost = cdist(sources, targets, metric="sqeuclidean")
        assert np.isfinite(cost).all()
        assert _warm_start(cost) < len(_ANNEAL)
        np.testing.assert_array_equal(
            ot_assignment(sources, targets).permutation,
            plain_assignment(sources, targets),
        )


def coupled_controls(table, x0s, targets, plan=None):
    """Exact open-loop controls of the pairs (x0_i, targets[plan[i]])."""
    if plan is None:
        plan = product_plan(x0s.shape[0])
    coupled = targets[plan.permutation]
    return coupled, DeterministicExactController(coupled).open_loop(table, x0s)


class TestTeacherControls:
    def test_constant_family_straight_lines(self, const_table):
        x0s = np.array([[0.0, 0.0], [1.0, -1.0]])
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, controls = coupled_controls(const_table, x0s, targets)
        n1 = const_table.n_steps + 1
        np.testing.assert_allclose(
            controls[0],
            np.broadcast_to([0.0, 1.0], (n1, 2)),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            controls[1],
            np.broadcast_to([0.0, 1.0], (n1, 2)),
            atol=1e-12,
        )

    def test_zero_residual_means_zero_controls(self, ou2d_table):
        x0s = np.array([[0.7, -0.4], [0.2, 0.9]])
        n = ou2d_table.n_steps
        targets = x0s @ ou2d_table.m_avg[n].T
        _, controls = coupled_controls(ou2d_table, x0s, targets, plan=product_plan(2))
        np.testing.assert_allclose(controls, 0.0, atol=1e-12)

    def test_matches_per_pair_deterministic_control(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[65, 0]))
        x0s = rng.normal(size=(6, 2))
        targets = rng.normal(size=(6, 2)) + [1.0, 1.0]
        coupled, controls = coupled_controls(ou2d_table, x0s, targets)
        n = ou2d_table.n_steps
        for i in range(6):
            # u(t_j) = Phi(t_f, t_j)^T G_{t_f,0}^{-1} (xf - M(t_f) x0)
            residual = coupled[i] - ou2d_table.m_avg[n] @ x0s[i]
            steer = np.linalg.solve(ou2d_table.g_fwd[n], residual)
            for j in (0, 57, 200):
                np.testing.assert_allclose(
                    controls[i, j],
                    ou2d_table.phi_lag[n - j].T @ steer,
                    atol=1e-12,
                )

    def test_rollout_reaches_coupled_targets(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[66, 0]))
        x0s = rng.normal(size=(8, 2)) * 0.3
        targets = rng.normal(size=(8, 2)) * 0.3 + [1.0, 1.0]
        coupled, _ = coupled_controls(ou2d_table, x0s, targets)
        ens = rollout_deterministic(
            ou2d_table, DeterministicExactController(coupled), x0s
        )
        err = np.max(np.abs(ens.states[:, -1] - coupled))
        assert err <= 1e-3

    def test_explicit_plan_is_respected(self, ou2d_table):
        x0s = np.array([[0.0, 0.0], [1.0, 1.0]])
        targets = np.array([[1.0, 1.0], [0.0, 0.0]])
        swap = ot_assignment(x0s, targets)
        keep = product_plan(2)
        _, swapped = coupled_controls(ou2d_table, x0s, targets, plan=swap)
        _, kept = coupled_controls(ou2d_table, x0s, targets, plan=keep)
        assert not np.allclose(swapped, kept)
        np.testing.assert_array_equal(swap.permutation, [1, 0])


class TestPlanCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=[67, 0]))
        plan = ot_assignment(rng.normal(size=(9, 2)), rng.normal(size=(9, 2)))
        out = tmp_path / "plan.csv"
        export_plan_csv(str(out), plan)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "i,pi_i,cost_i"
        data = [r.split(",") for r in rows[1:]]
        np.testing.assert_array_equal(
            [int(r[1]) for r in data], plan.permutation
        )
        np.testing.assert_allclose(
            [float(r[2]) for r in data], plan.pair_costs, rtol=1e-15
        )
