"""Recursive elimination: correlation matrices, pinning, and full runs."""

import numpy as np
import pytest

from wsqopt.generators import complete_graph
from wsqopt.problems import (
    CutAssignment,
    WeightedGraph,
    brute_force,
    cut_value,
    maxcut_to_ising,
)
from wsqopt.rqaoa import (
    AmbiguousEliminationError,
    RqaoaConfig,
    aggregate_correlations,
    correlation_matrix_depth1,
    correlation_matrix_from_cuts,
    correlation_matrix_from_state,
    eliminate,
    run_classical_recursive_gw,
    run_rqaoa,
)
from wsqopt.simulator import STANDARD_X, WARM_START_ROUNDED, QaoaParams, qaoa_state


def path3():
    return WeightedGraph(n=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])


class TestCorrelationMatrix:
    def test_product_state_signs(self):
        g = complete_graph(5, seed=1)
        bits = np.array([0, 1, 1, 0, 1])
        matrix = correlation_matrix_depth1(
            g, bits.astype(float), 0.0, 0.0, 0.0, WARM_START_ROUNDED
        )
        z = 1 - 2 * bits
        for i, j, _ in g.edges:
            assert matrix[i, j] == pytest.approx(z[i] * z[j], abs=1e-12)

    def test_symmetry_and_sparsity(self):
        g = path3()
        matrix = correlation_matrix_depth1(g, np.full(3, 0.3), 0.25, 0.5, 0.8, WARM_START_ROUNDED)
        assert np.array_equal(matrix, matrix.T)
        assert matrix[0, 2] == 0.0
        assert np.all(np.diag(matrix) == 0.0)

    def test_matches_statevector(self):
        rng = np.random.default_rng(2)
        g = complete_graph(10, seed=2)
        c = rng.uniform(0, 1, 10)
        beta, gamma = 0.6, 1.1
        state = qaoa_state(
            maxcut_to_ising(g),
            WARM_START_ROUNDED,
            QaoaParams([beta], [gamma]),
            c_star=c,
            epsilon=0.25,
        )
        oracle = correlation_matrix_from_state(state, g)
        fast = correlation_matrix_depth1(g, c, 0.25, beta, gamma, WARM_START_ROUNDED)
        np.testing.assert_allclose(fast, oracle, atol=1e-9)

    def test_entries_bounded(self):
        g = complete_graph(8, seed=3)
        matrix = correlation_matrix_depth1(
            g, np.random.default_rng(3).uniform(0, 1, 8), 0.25, 1.3, 2.2, STANDARD_X
        )
        assert np.max(np.abs(matrix)) <= 1.0 + 1e-9


class TestAggregate:
    def test_single_run_identity(self):
        matrix = np.array([[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_array_equal(aggregate_correlations([matrix]), matrix)

    def test_identical_runs_unchanged(self):
        matrix = np.array([[0.0, -0.2], [-0.2, 0.0]])
        np.testing.assert_allclose(aggregate_correlations([matrix, matrix]), matrix)

    def test_two_basis_states(self):
        g = WeightedGraph(n=3, edges=[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        z1 = CutAssignment(np.array([1, -1, 1]))
        z2 = CutAssignment(np.array([1, 1, -1]))
        mats = [correlation_matrix_from_cuts([c], g) for c in (z1, z2)]
        combined = aggregate_correlations(mats)
        for i, j, _ in g.edges:
            expected = 0.5 * (z1.z[i] * z1.z[j] + z2.z[i] * z2.z[j])
            assert combined[i, j] == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_correlations([])


class TestEliminate:
    def test_negative_sign_recorded(self):
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        matrix = np.array([[0.0, -0.9], [-0.9, 0.0]])
        reduced, record, offset = eliminate(g, matrix)
        assert (record.eliminated, record.kept, record.sign) == (1, 0, -1)
        assert reduced.n == 1
        assert offset == pytest.approx(1.0)

    def test_tie_break_lexicographic(self):
        g = WeightedGraph(n=3, edges=[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        matrix = np.zeros((3, 3))
        matrix[0, 1] = matrix[1, 0] = 0.9
        matrix[0, 2] = matrix[2, 0] = 0.9
        _, record, _ = eliminate(g, matrix)
        assert (record.kept, record.eliminated) == (0, 1)

    def test_zero_matrix_raises(self):
        g = WeightedGraph(n=2, edges=[(0, 1, 1.0)])
        with pytest.raises(AmbiguousEliminationError):
            eliminate(g, np.zeros((2, 2)))

    def test_offset_bookkeeping_random(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = complete_graph(8, seed=trial)
            matrix = np.zeros((8, 8))
            for i, j, _ in g.edges:
                matrix[i, j] = matrix[j, i] = rng.uniform(-1, 1)
            reduced, record, offset = eliminate(g, matrix)
            _, ground_reduced = brute_force(maxcut_to_ising(reduced))
            # constrained optimum of the original equals reduced optimum + offset
            best = -np.inf
            for assignment in range(1 << 8):
                z = 1 - 2 * np.array([(assignment >> b) & 1 for b in range(8)])
                if z[record.eliminated] != record.sign * z[record.kept]:
                    continue
                best = max(best, cut_value(g, z))
            assert best == pytest.approx(-ground_reduced + offset, abs=1e-9)


class TestRunRqaoa:
    def test_small_graph_is_exact(self):
        g = path3()
        cfg = RqaoaConfig(n_stop=3, mode="standard")
        result = run_rqaoa(g, cfg, seed=1)
        assert result.value == pytest.approx(2.0)
        assert result.records == []

    def test_path_graph_standard(self):
        cfg = RqaoaConfig(n_stop=1, mode="standard", n_samples=1, keep=1)
        result = run_rqaoa(path3(), cfg, seed=2)
        assert result.value == pytest.approx(2.0)
        assert len(result.records) == 2

    def test_elimination_count_and_uniqueness(self):
        g = complete_graph(9, seed=6)
        cfg = RqaoaConfig(n_stop=4, mode="warm-start", n_samples=4, keep=2)
        result = run_rqaoa(g, cfg, seed=6)
        assert len(result.records) == 5
        eliminated = [r.eliminated for r in result.records]
        assert len(set(eliminated)) == len(eliminated)

    def test_warm_start_zero_epsilon_follows_best_cut(self):
        from wsqopt.relaxation import gw_best_cuts
        from wsqopt.seeding import derive_seed

        g = complete_graph(8, seed=7)
        cfg = RqaoaConfig(n_stop=2, mode="warm-start", n_samples=6, keep=1, epsilon=0.0)
        result = run_rqaoa(g, cfg, seed=7)
        # the first-round presolve inside the run uses this derived seed
        best = gw_best_cuts(g, 6, 1, seed=derive_seed(7, "gw", 0))[0]
        assert result.value >= cut_value(g, best.z) - 1e-9

    def test_trace_shape(self):
        g = complete_graph(7, seed=8)
        cfg = RqaoaConfig(n_stop=4, mode="classical-gw")
        result = run_rqaoa(g, cfg, seed=8)
        assert len(result.trace) == 3
        for row in result.trace:
            assert set(row) == {
                "iter", "n", "chosen_pair", "sign", "correlator", "gw_best_value",
            }
            assert row["sign"] in (-1, 1)

    def test_determinism(self):
        g = complete_graph(8, seed=9)
        cfg = RqaoaConfig(n_stop=4, mode="warm-start", n_samples=5, keep=3)
        a = run_rqaoa(g, cfg, seed=10)
        b = run_rqaoa(g, cfg, seed=10)
        assert a.value == b.value
        assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]

    def test_classical_wrapper(self):
        g = complete_graph(8, seed=11)
        cfg = RqaoaConfig(n_stop=4, mode="warm-start")
        cut, value = run_classical_recursive_gw(g, cfg, seed=11)
        assert value == pytest.approx(cut_value(g, cut.z))

    def test_classical_single_cut_reproduced(self):
        from wsqopt.relaxation import gw_best_cuts
        from wsqopt.seeding import derive_seed

        # with one retained cut every correlator is an exact sign product,
        # so the recursion can only improve on that cut
        g = complete_graph(9, seed=12)
        cfg = RqaoaConfig(n_stop=2, mode="classical-gw", n_samples=7, keep=1)
        _, value = run_classical_recursive_gw(g, cfg, seed=12)
        best = gw_best_cuts(g, 7, 1, seed=derive_seed(12, "gw", 0))[0]
        assert value >= cut_value(g, best.z) - 1e-9

    def test_depth_guard(self):
        with pytest.raises(TypeError):
            RqaoaConfig(n_stop=2, depth=2)
