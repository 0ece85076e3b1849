"""Endpoint couplings and the teacher control table built from them."""

import itertools

import numpy as np
import pytest

from avgflow import (
    export_plan_csv,
    ot_assignment,
    product_plan,
    rollout_deterministic,
    teacher_controls,
)
from avgflow.sim import TeacherController


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ot_assignment(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_product_plan_is_identity(self):
        plan = product_plan(5)
        np.testing.assert_array_equal(plan.permutation, np.arange(5))
        assert plan.kind == "product"


class TestTeacherControls:
    def test_constant_family_straight_lines(self, const_table):
        x0s = np.array([[0.0, 0.0], [1.0, -1.0]])
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        teacher = teacher_controls(const_table, x0s, targets)
        n1 = const_table.n_steps + 1
        np.testing.assert_allclose(
            teacher.controls[0],
            np.broadcast_to([0.0, 1.0], (n1, 2)),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            teacher.controls[1],
            np.broadcast_to([0.0, 1.0], (n1, 2)),
            atol=1e-12,
        )

    def test_zero_residual_means_zero_controls(self, ou2d_table):
        x0s = np.array([[0.7, -0.4], [0.2, 0.9]])
        n = ou2d_table.n_steps
        targets = x0s @ ou2d_table.m_avg[n].T
        teacher = teacher_controls(ou2d_table, x0s, targets, plan=product_plan(2))
        np.testing.assert_allclose(teacher.controls, 0.0, atol=1e-12)

    def test_matches_per_pair_deterministic_control(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[65, 0]))
        x0s = rng.normal(size=(6, 2))
        targets = rng.normal(size=(6, 2)) + [1.0, 1.0]
        teacher = teacher_controls(ou2d_table, x0s, targets)
        n = ou2d_table.n_steps
        for i in range(6):
            # u(t_j) = Phi(t_f, t_j)^T G_{t_f,0}^{-1} (xf - M(t_f) x0)
            residual = targets[teacher.plan.permutation[i]] - ou2d_table.m_avg[n] @ x0s[i]
            steer = np.linalg.solve(ou2d_table.g_fwd[n], residual)
            for j in (0, 57, 200):
                np.testing.assert_allclose(
                    teacher.controls[i, j],
                    ou2d_table.phi_lag[n - j].T @ steer,
                    atol=1e-12,
                )

    def test_rollout_reaches_coupled_targets(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[66, 0]))
        x0s = rng.normal(size=(8, 2)) * 0.3
        targets = rng.normal(size=(8, 2)) * 0.3 + [1.0, 1.0]
        teacher = teacher_controls(ou2d_table, x0s, targets)
        ens = rollout_deterministic(
            ou2d_table, TeacherController(teacher.controls), x0s
        )
        coupled = targets[teacher.plan.permutation]
        err = np.max(np.abs(ens.states[:, -1] - coupled))
        assert err <= 1e-3

    def test_explicit_plan_is_respected(self, ou2d_table):
        x0s = np.array([[0.0, 0.0], [1.0, 1.0]])
        targets = np.array([[1.0, 1.0], [0.0, 0.0]])
        swap = ot_assignment(x0s, targets)
        keep = product_plan(2)
        swapped = teacher_controls(ou2d_table, x0s, targets, plan=swap)
        kept = teacher_controls(ou2d_table, x0s, targets, plan=keep)
        assert not np.allclose(swapped.controls, kept.controls)
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
