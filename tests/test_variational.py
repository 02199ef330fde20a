"""Derivative-free optimizer, grid seeding, and circuit tuning."""

import numpy as np
import pytest

from wsqopt.generators import complete_graph
from wsqopt.problems import IsingModel, cut_value, maxcut_to_ising
from wsqopt.simulator import STANDARD_X, WARM_START, WARM_START_ROUNDED, plus_state
from wsqopt.variational import (
    MAX_EVALS,
    GridSpec,
    cut_probability,
    grid_search,
    minimize,
    probability_of,
    run_qaoa,
)


class TestMinimize:
    def test_quadratic(self):
        result = minimize(lambda x: (x[0] - 3.0) ** 2, [0.0])
        assert result.x[0] == pytest.approx(3.0, abs=1e-4)

    def test_rosenbrock(self):
        def rosenbrock(x):
            return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

        result = minimize(rosenbrock, [0.0, 0.0])
        assert result.reason == "tolerance"
        assert result.fun <= 1e-3

    def test_never_exceeds_start(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            coeffs = rng.normal(size=4)

            def bumpy(x, c=coeffs):
                return float(c[0] * np.sin(x[0]) + c[1] * x[0] ** 2 + c[2] * np.cos(c[3] * x[0]))

            x0 = rng.normal(size=1)
            result = minimize(bumpy, x0)
            assert result.fun <= bumpy(x0) + 1e-15

    def test_determinism(self):
        def noisyish(x):
            return float(np.sin(3 * x[0]) + 0.1 * x[0] ** 2 + np.cos(2 * x[1]))

        a = minimize(noisyish, [0.3, -0.4])
        b = minimize(noisyish, [0.3, -0.4])
        assert np.array_equal(a.x, b.x) and a.fun == b.fun and a.evals == b.evals

    def test_eval_budget_respected(self):
        calls = []

        def unbounded(x):
            calls.append(1)
            return -float(x[0])

        result = minimize(unbounded, [0.0])
        assert len(calls) == result.evals == MAX_EVALS
        assert result.reason == "max_evals"

    def test_constant_function_terminates(self):
        result = minimize(lambda x: 1.0, [0.0, 0.0])
        assert result.reason == "tolerance"
        assert result.fun == 1.0


class TestGridSearch:
    def test_quadratic_bowl(self):
        spec = GridSpec(beta_points=31, gamma_points=31)
        beta, gamma = spec.beta_axis()[10], spec.gamma_axis()[20]
        point = grid_search(lambda b, g: (b - beta) ** 2 + (g - gamma) ** 2, spec)
        assert point == (beta, gamma)

    def test_constant_tie_break(self):
        spec = GridSpec(beta_points=4, gamma_points=4)
        assert grid_search(lambda b, g: 7.0, spec) == (0.0, 0.0)

    def test_containment(self):
        spec = GridSpec()
        betas, gammas = spec.beta_axis(), spec.gamma_axis()
        assert np.isclose(betas, np.pi / 2).any()
        assert gammas[0] == 0.0
        value = grid_search(lambda b, g: (b - np.pi / 2) ** 2 + g**2, spec)
        assert value[0] == pytest.approx(np.pi / 2) and value[1] == 0.0


class TestRunQaoa:
    def test_single_qubit_exact(self):
        ising = IsingModel(n=1, fields=[1.0])
        result = run_qaoa(ising, STANDARD_X, p=1, seeding=("random", 5), seed=3)
        assert result.energy == pytest.approx(-1.0, abs=1e-6)

    def test_rounded_grid_never_worse_than_seed_cut(self):
        g = complete_graph(6, seed=20)
        ising = maxcut_to_ising(g)
        cut_bits = np.array([0, 1, 0, 1, 1, 0])
        z = 1 - 2 * cut_bits
        result = run_qaoa(
            ising,
            WARM_START_ROUNDED,
            c_star=cut_bits.astype(float),
            epsilon=0.25,
            p=1,
            seeding="grid",
        )
        assert result.energy <= -cut_value(g, z) + 1e-9

    def test_zero_padded_depth_extension(self):
        g = complete_graph(5, seed=21)
        ising = maxcut_to_ising(g)
        rng = np.random.default_rng(21)
        c = rng.uniform(0, 1, 5)
        shallow = run_qaoa(ising, WARM_START, c_star=c, epsilon=0.2, p=1, seeding="grid")
        padded = np.array(
            [shallow.params.betas[0], 0.0, shallow.params.gammas[0], 0.0]
        )
        deep = run_qaoa(
            ising, WARM_START, c_star=c, epsilon=0.2, p=2, seeding=("explicit", padded)
        )
        assert deep.energy <= shallow.energy + 1e-9

    def test_energy_matches_state(self):
        from wsqopt.simulator import expectation

        g = complete_graph(4, seed=22)
        ising = maxcut_to_ising(g)
        result = run_qaoa(ising, STANDARD_X, p=2, seeding=("random", 3), seed=5)
        assert result.energy == pytest.approx(expectation(result.state, ising), abs=1e-10)

    def test_multistart_determinism(self):
        g = complete_graph(4, seed=23)
        ising = maxcut_to_ising(g)
        a = run_qaoa(ising, STANDARD_X, p=1, seeding=("random", 4), seed=11)
        b = run_qaoa(ising, STANDARD_X, p=1, seeding=("random", 4), seed=11)
        assert np.array_equal(a.params.betas, b.params.betas)
        assert np.array_equal(a.params.gammas, b.params.gammas)
        assert a.energy == b.energy

    def test_target_probability(self):
        ising = IsingModel(n=2)
        result = run_qaoa(
            ising, STANDARD_X, p=1, seeding=("explicit", [0.0, 0.0]), target=[0, 0]
        )
        assert result.p_target == pytest.approx(0.25, abs=1e-12)


class TestProbabilities:
    def test_basis_state(self):
        state = plus_state(1)
        assert probability_of(state, [0]) == pytest.approx(0.5)

    def test_plus_state_uniform(self):
        state = plus_state(4)
        assert probability_of(state, [1, 0, 1, 1]) == pytest.approx(1 / 16)

    def test_cut_probability_takes_complement_max(self):
        import numpy as np

        from wsqopt.simulator import StateVector, index_of_bits

        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[index_of_bits([1, 0])] = 1.0
        state = StateVector(amplitudes, 2)
        assert cut_probability(state, np.array([1, -1])) == pytest.approx(1.0)
        assert cut_probability(state, np.array([-1, 1])) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            probability_of(plus_state(2), [0, 1, 0])
