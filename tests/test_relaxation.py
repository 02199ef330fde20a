"""Relaxation solvers, hyperplane rounding, and the rounding-ratio constant."""

import numpy as np
import pytest

from wsqopt.generators import complete_graph, random_graph
from wsqopt.problems import (
    QuboProblem,
    WeightedGraph,
    brute_force,
    cut_value,
    maxcut_to_ising,
    portfolio_qubo,
    qubo_to_ising,
)
from wsqopt.generators import GbmConfig, gbm_portfolio
from wsqopt.relaxation import (
    GramFactor,
    NotConvexError,
    expected_cut_value,
    goemans_williamson_alpha,
    gw_best_cuts,
    gw_round,
    _kkt_residual,
    solve_maxcut_sdp,
    solve_qp,
)


def triangle():
    return WeightedGraph(n=3, edges=[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def triangle_factor():
    # three unit vectors at 120 degrees in the plane
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    vectors = np.array([[np.cos(a), np.sin(a)] for a in angles])
    return GramFactor(vectors=vectors, objective=2.25)


class TestSolveQp:
    def test_identity_zero(self):
        result = solve_qp(QuboProblem(sigma=np.eye(2), mu=[0.0, 0.0]))
        np.testing.assert_allclose(result.c_star, [0.0, 0.0], atol=1e-7)
        assert result.objective == pytest.approx(0.0, abs=1e-7)

    def test_clipped_optimum(self):
        result = solve_qp(QuboProblem(sigma=np.eye(2), mu=[-4.0, -1.0]))
        np.testing.assert_allclose(result.c_star, [1.0, 0.5], atol=1e-7)
        assert result.objective == pytest.approx(-3.25, abs=1e-9)

    def test_penalized_budget(self):
        instance = gbm_portfolio(GbmConfig(n_assets=6, seed=21), q=2.0, budget=3, penalty=3.0)
        result = solve_qp(portfolio_qubo(instance))
        assert abs(result.c_star.sum() - 3.0) <= 0.05

    def test_rejects_indefinite(self):
        with pytest.raises(NotConvexError):
            solve_qp(QuboProblem(sigma=[[0.0, 1.0], [1.0, 0.0]], mu=[0.0, 0.0]))

    def test_lower_bounds_binary_optimum(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            qubo = QuboProblem(sigma=a @ a.T, mu=rng.normal(size=n))
            relaxed = solve_qp(qubo)
            _, binary_opt = brute_force(qubo_to_ising(qubo))
            assert relaxed.objective <= binary_opt + 1e-6

    def test_kkt_certificate(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(5, 5))
        qubo = QuboProblem(sigma=a @ a.T, mu=rng.normal(size=5))
        result = solve_qp(qubo)
        grad = 2.0 * qubo.sigma @ result.c_star + qubo.mu
        for value, slope in zip(result.c_star, grad):
            if value <= 1e-9:
                assert slope >= -1e-7
            elif value >= 1 - 1e-9:
                assert slope <= 1e-7
            else:
                assert abs(slope) <= 1e-7

    def test_kkt_residual_near_upper_bound(self):
        # within 1e-5 of the bound but not on it: the coordinate is interior,
        # so its whole gradient is a violation
        assert _kkt_residual(np.array([1.0 - 7e-6]), np.array([-8.4e-6])) == 8.4e-6
        assert _kkt_residual(np.array([1.0]), np.array([-8.4e-6])) == 0.0


class TestSolveMaxcutSdp:
    def test_single_edge_antipodal(self):
        factor = solve_maxcut_sdp(WeightedGraph(n=2, edges=[(0, 1, 1.0)]), seed=1)
        assert factor.objective == pytest.approx(1.0, abs=1e-7)
        assert factor.vectors[0] @ factor.vectors[1] == pytest.approx(-1.0, abs=1e-7)

    def test_triangle_value(self):
        # 1-D oracle: all pairwise cosines equal c, feasible iff 1 + 2c >= 0,
        # objective 1.5 (1 - c) maximized at c = -1/2
        cosines = np.linspace(-1.0, 1.0, 20001)
        feasible = cosines[1.0 + 2.0 * cosines >= 0.0]
        oracle = float(np.max(1.5 * (1.0 - feasible)))
        assert oracle == pytest.approx(2.25, abs=1e-3)
        factor = solve_maxcut_sdp(triangle(), seed=3)
        assert factor.objective == pytest.approx(2.25, abs=1e-6)

    def test_upper_bounds_maxcut(self):
        rng = np.random.default_rng(29)
        for trial in range(30):
            n = int(rng.integers(3, 9))
            g = complete_graph(n, seed=trial)
            factor = solve_maxcut_sdp(g, seed=trial)
            _, ground = brute_force(maxcut_to_ising(g))
            assert factor.objective >= -ground - 1e-6

    def test_unit_row_invariant(self):
        factor = solve_maxcut_sdp(complete_graph(7, seed=2), seed=2)
        np.testing.assert_allclose(
            np.linalg.norm(factor.vectors, axis=1), 1.0, atol=1e-9
        )


class TestGwRound:
    def test_antipodal_always_cut(self):
        factor = GramFactor(vectors=np.array([[1.0, 0.0], [-1.0, 0.0]]), objective=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            cut = gw_round(factor, rng)
            assert cut.z[0] != cut.z[1]

    def test_identical_never_cut(self):
        factor = GramFactor(vectors=np.array([[1.0, 0.0], [1.0, 0.0]]), objective=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            cut = gw_round(factor, rng)
            assert cut.z[0] == cut.z[1]

    def test_triangle_mean_matches_expectation(self):
        factor = triangle_factor()
        rng = np.random.default_rng(8)
        total = 0.0
        rounds = 100_000
        for _ in range(rounds):
            total += cut_value(triangle(), gw_round(factor, rng).z)
        assert total / rounds == pytest.approx(2.0, abs=0.02)

    def test_unbiasedness_bound(self):
        g = complete_graph(8, seed=12)
        factor = solve_maxcut_sdp(g, seed=12)
        expected = expected_cut_value(g, factor)
        rng = np.random.default_rng(12)
        rounds = 4000
        mean = np.mean([cut_value(g, gw_round(factor, rng).z) for _ in range(rounds)])
        budget = 4.0 / np.sqrt(rounds) * sum(abs(w) for _, _, w in g.edges)
        assert abs(mean - expected) <= budget


class TestExpectedCutValue:
    def test_antipodal_pair(self):
        f = GramFactor(vectors=np.array([[1.0, 0.0], [-1.0, 0.0]]), objective=1.0)
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        assert expected_cut_value(g, f) == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        f = GramFactor(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]), objective=0.5)
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        assert expected_cut_value(g, f) == pytest.approx(0.5)

    def test_triangle_closed_form(self):
        assert expected_cut_value(triangle(), triangle_factor()) == pytest.approx(
            3.0 * np.arccos(-0.5) / np.pi
        )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(41)
        g = complete_graph(6, seed=41)
        factor = solve_maxcut_sdp(g, seed=41)
        basis, _ = np.linalg.qr(rng.normal(size=(factor.k, factor.k)))
        rotated = GramFactor(vectors=factor.vectors @ basis, objective=factor.objective)
        assert expected_cut_value(g, rotated) == pytest.approx(
            expected_cut_value(g, factor), abs=1e-9
        )

    def test_alpha_guarantee_on_positive_weights(self):
        for seed in range(5):
            g = random_graph(8, 0.8, weights=(1.0, 2.0, 3.0), seed=seed)
            if g.m == 0:
                continue
            factor = solve_maxcut_sdp(g, seed=seed)
            assert (
                expected_cut_value(g, factor)
                >= goemans_williamson_alpha() * factor.objective - 1e-9
            )


class TestGwBestCuts:
    def test_single_sample(self):
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        cuts = gw_best_cuts(g, 1, 1, seed=0)
        assert len(cuts) == 1

    def test_antipodal_dedupe(self):
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        cuts = gw_best_cuts(g, 50, 50, seed=0)
        assert len(cuts) == 1
        assert cuts[0].z.tolist() == [1, -1]

    def test_sorted_by_value(self):
        g = complete_graph(10, seed=9)
        cuts = gw_best_cuts(g, 20, 5, seed=9)
        values = [cut_value(g, c.z) for c in cuts]
        assert values == sorted(values, reverse=True)
        keys = {c.key() for c in cuts}
        assert len(keys) == len(cuts)

    def test_requires_sane_counts(self):
        with pytest.raises(ValueError):
            gw_best_cuts(triangle(), 1, 2, seed=0)

    def test_best_of_ten_ratio_bracket(self):
        # best retained cut on 20-node complete graphs lands well above the
        # all-roundings average
        ratios = []
        for seed in range(3):
            g = complete_graph(20, seed=seed)
            cuts = gw_best_cuts(g, 10, 5, seed=seed)
            _, ground = brute_force(maxcut_to_ising(g))
            ratios.append(cut_value(g, cuts[0].z) / -ground)
        assert 0.85 <= np.mean(ratios) <= 1.0


class TestAlphaConstant:
    def test_value_bracket(self):
        alpha = goemans_williamson_alpha()
        assert 0.87856 < alpha < 0.87857

    def test_matches_dense_scan(self):
        thetas = np.linspace(1e-4, np.pi, 200_001)
        scan = float(np.min(2.0 / np.pi * thetas / (1.0 - np.cos(thetas))))
        assert goemans_williamson_alpha() == pytest.approx(scan, abs=1e-5)
