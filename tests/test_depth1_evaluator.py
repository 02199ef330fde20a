"""The batched depth-one evaluator against the statevector and the wrappers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsqopt.generators import complete_graph
from wsqopt.problems import IsingModel, WeightedGraph, maxcut_to_ising
from wsqopt.rqaoa import correlation_matrix_depth1, depth1_energy
from wsqopt.simulator import (
    MIXER_KINDS,
    STANDARD_X,
    WARM_START,
    WARM_START_ROUNDED,
    Circuit,
    Depth1Evaluator,
    QaoaParams,
    depth1_edge_correlators,
)
from wsqopt.variational import GridSpec, grid_search, minimize, run_qaoa

TOL = 1e-10

# fractional, negative and exactly zero values
values = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
)


@st.composite
def models(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    # with no couplings at all in some draws
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    couplings = {pair: draw(values) for pair, keep in zip(pairs, present) if keep}
    fields = draw(st.lists(values, min_size=n, max_size=n))
    return IsingModel(n=n, couplings=couplings, fields=np.array(fields), offset=draw(values))


def spins(n: int) -> np.ndarray:
    """(2^n, n) spin of every qubit in every basis state."""
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)


def all_pairs(n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2)


@settings(max_examples=150, deadline=None)
@given(
    ising=models(),
    kind=st.sampled_from(MIXER_KINDS),
    epsilon=st.sampled_from([0.0, 0.25, 0.5]),
    c_seed=st.integers(0, 2**16),
    beta=st.floats(-np.pi, np.pi),
    gamma=st.floats(-2 * np.pi, 2 * np.pi),
    second_layer=st.booleans(),
)
def test_matches_statevector(ising, kind, epsilon, c_seed, beta, gamma, second_layer):
    c_star = None if kind == STANDARD_X else np.random.default_rng(c_seed).uniform(0, 1, ising.n)
    circuit = Circuit(ising, kind, c_star, epsilon)
    # a p = 2 point whose second layer is zeroed is the same depth-one state
    params = QaoaParams([beta, 0.0], [gamma, 0.0]) if second_layer else QaoaParams([beta], [gamma])
    state = circuit.state(params)
    probs = state.probabilities()
    z = spins(ising.n)
    pairs = all_pairs(ising.n)

    evaluator = Depth1Evaluator(ising, kind, c_star, epsilon, pairs)
    np.testing.assert_allclose(evaluator.magnetizations(beta, gamma), probs @ z, rtol=0, atol=TOL)
    oracle = np.array([probs @ (z[:, i] * z[:, j]) for i, j in pairs])
    np.testing.assert_allclose(evaluator.correlators(beta, gamma), oracle, rtol=0, atol=TOL)
    energy = Depth1Evaluator(ising, kind, c_star, epsilon).energy(beta, gamma)
    assert energy == pytest.approx(circuit.energy(state), abs=TOL)


@pytest.mark.parametrize("kind", MIXER_KINDS)
def test_grid_equals_per_point_energy(kind):
    g = complete_graph(10, seed=21)
    c_star = None if kind == STANDARD_X else np.random.default_rng(4).uniform(0, 1, 10)
    spec = GridSpec()
    betas, gammas = spec.beta_axis(), spec.gamma_axis()
    grid = Depth1Evaluator(maxcut_to_ising(g), kind, c_star, 0.25).energy(
        betas[:, None], gammas[None, :]
    )
    assert grid.shape == (24, 24)
    per_point = np.array(
        [[depth1_energy(g, c_star, 0.25, b, gm, kind) for gm in gammas] for b in betas]
    )
    np.testing.assert_allclose(grid, per_point, rtol=0, atol=1e-12)


def test_grid_seeding_at_depth_two_starts_from_depth_one_grid():
    ising = IsingModel(
        n=4,
        couplings={(0, 1): 0.5, (0, 2): -1.25, (1, 3): 2.0, (2, 3): 0.75},
        fields=np.array([0.3, -0.7, 0.0, 1.1]),
        offset=0.4,
    )
    c_star = np.array([0.1, 0.9, 0.5, 0.3])
    spec = GridSpec(beta_points=7, gamma_points=9)
    result = run_qaoa(ising, WARM_START, c_star, 0.25, p=2, seeding="grid", grid=spec)

    beta, gamma = grid_search(Depth1Evaluator(ising, WARM_START, c_star, 0.25).energy, spec)
    circuit = Circuit(ising, WARM_START, c_star, 0.25)
    refine = minimize(
        lambda x: circuit.energy(circuit.state(QaoaParams(x[:2], x[2:]))),
        [beta, 0.0, gamma, 0.0],
    )
    np.testing.assert_array_equal(result.params.betas, refine.x[:2])
    np.testing.assert_array_equal(result.params.gammas, refine.x[2:])
    assert result.evals == 7 * 9 + refine.evals


@pytest.mark.parametrize("kind", MIXER_KINDS)
def test_grid_seeding_at_depth_one_refines_on_the_evaluator(kind, monkeypatch):
    """At p = 1 grid and refinement read Depth1Evaluator; the statevector is
    simulated once, for the returned angles."""
    ising = maxcut_to_ising(complete_graph(6, seed=13))
    c_star = None if kind == STANDARD_X else np.array([0.0, 1.0, 0.3, 0.7, 1.0, 0.0])
    spec = GridSpec(beta_points=7, gamma_points=9)
    states = []
    original = Circuit.state

    def counted(self, params):
        states.append(params)
        return original(self, params)

    monkeypatch.setattr(Circuit, "state", counted)
    result = run_qaoa(ising, kind, c_star, 0.25, p=1, seeding="grid", grid=spec)
    assert len(states) == 1

    depth1 = Depth1Evaluator(ising, kind, c_star, 0.25)
    beta, gamma = grid_search(depth1.energy, spec)
    refine = minimize(lambda x: depth1.energy(x[0], x[1]), [beta, gamma])
    np.testing.assert_array_equal(result.params.betas, refine.x[:1])
    np.testing.assert_array_equal(result.params.gammas, refine.x[1:])
    assert result.evals == 7 * 9 + refine.evals


@settings(max_examples=100, deadline=None)
@given(
    ising=models(),
    kind=st.sampled_from(MIXER_KINDS),
    epsilon=st.sampled_from([0.0, 0.25]),
    c_seed=st.integers(0, 2**16),
)
def test_depth_one_energy_is_the_evaluator_energy(ising, kind, epsilon, c_seed):
    c_star = None if kind == STANDARD_X else np.random.default_rng(c_seed).uniform(0, 1, ising.n)
    spec = GridSpec(beta_points=5, gamma_points=6)
    result = run_qaoa(ising, kind, c_star, epsilon, p=1, seeding="grid", grid=spec)
    depth1 = Depth1Evaluator(ising, kind, c_star, epsilon)
    expected = depth1.energy(result.params.betas[0], result.params.gammas[0])
    assert result.energy == pytest.approx(expected, abs=TOL)


class TestEdgeInputs:
    def test_graph_without_edges(self):
        g = WeightedGraph(n=3, edges=[])
        spec = GridSpec()
        for kind in MIXER_KINDS:
            c_star = None if kind == STANDARD_X else np.array([0.2, 0.5, 1.0])
            evaluator = Depth1Evaluator(maxcut_to_ising(g), kind, c_star, 0.25)
            grid = evaluator.energy(spec.beta_axis()[:, None], spec.gamma_axis()[None, :])
            assert grid.shape == (24, 24)
            assert np.all(grid == 0.0)
            matrix = correlation_matrix_depth1(g, c_star, 0.25, 0.4, 1.3, kind)
            np.testing.assert_array_equal(matrix, np.zeros((3, 3)))

    def test_model_without_couplings_has_its_offset_energy(self):
        ising = IsingModel(n=2, offset=-2.5)
        spec = GridSpec()
        grid = Depth1Evaluator(ising, STANDARD_X).energy(
            spec.beta_axis()[:, None], spec.gamma_axis()[None, :]
        )
        np.testing.assert_allclose(grid, -2.5, rtol=0, atol=1e-15)

    def test_empty_pairs(self):
        g = complete_graph(4, seed=2)
        pairs = np.zeros((0, 2), dtype=int)
        out = depth1_edge_correlators(g, None, 0.25, 0.3, 0.7, pairs, STANDARD_X)
        assert out.shape == (0,)
        grid = Depth1Evaluator(maxcut_to_ising(g), STANDARD_X, pairs=pairs).correlators(
            np.zeros((3, 1)), np.zeros((1, 5))
        )
        assert grid.shape == (3, 5, 0)

    def test_single_qubit_with_field(self):
        ising = IsingModel(n=1, fields=np.array([1.5]), offset=0.25)
        for kind in MIXER_KINDS:
            c_star = None if kind == STANDARD_X else np.array([0.8])
            circuit = Circuit(ising, kind, c_star, 0.1)
            evaluator = Depth1Evaluator(ising, kind, c_star, 0.1)
            for beta, gamma in ((0.0, 0.0), (0.7, 1.9), (-2.0, 4.4)):
                state = circuit.state(QaoaParams([beta], [gamma]))
                assert evaluator.energy(beta, gamma) == pytest.approx(circuit.energy(state), abs=TOL)
            assert evaluator.correlators(0.3, 0.2).shape == (0,)

    def test_rejects_bad_pairs(self):
        ising = maxcut_to_ising(complete_graph(3, seed=1))
        for pairs in ([[0, 0]], [[0, 3]], [[0, 1, 2]]):
            with pytest.raises(ValueError):
                Depth1Evaluator(ising, STANDARD_X, pairs=np.array(pairs))

    def test_rejects_points_that_are_not_an_outer_grid(self):
        evaluator = Depth1Evaluator(maxcut_to_ising(complete_graph(3, seed=1)), STANDARD_X)
        with pytest.raises(ValueError):
            evaluator.energy(np.zeros(4), np.zeros(4))


class TestGridSearch:
    def test_objective_called_once_on_the_whole_grid(self):
        spec = GridSpec(beta_points=3, gamma_points=5)
        calls = []

        def objective(beta, gamma):
            calls.append((np.shape(beta), np.shape(gamma)))
            return beta + gamma

        assert grid_search(objective, spec) == (0.0, 0.0)
        assert calls == [((3, 1), (1, 5))]

    def test_first_exact_minimum_in_beta_gamma_order(self):
        spec = GridSpec(beta_points=4, gamma_points=4)
        values = np.ones((4, 4))
        values[2, 1] = values[1, 3] = values[3, 0] = 0.0
        assert grid_search(lambda b, g: values, spec) == (spec.beta_axis()[1], spec.gamma_axis()[3])

    def test_nan_points_are_skipped(self):
        spec = GridSpec(beta_points=2, gamma_points=2)
        values = np.array([[np.nan, 2.0], [1.0, np.nan]])
        assert grid_search(lambda b, g: values, spec) == (np.pi / 2, 0.0)


def test_rounded_mixer_returns_the_cut():
    """beta = pi/2, gamma = 0 maps a clamped cut back to a basis state."""
    g = complete_graph(6, seed=3)
    bits = np.array([0, 1, 1, 0, 1, 0], dtype=float)
    evaluator = Depth1Evaluator(maxcut_to_ising(g), WARM_START_ROUNDED, bits, 0.25, all_pairs(6))
    z = 1 - 2 * bits
    expected = np.array([z[i] * z[j] for i, j in all_pairs(6)])
    np.testing.assert_allclose(evaluator.correlators(np.pi / 2, 0.0), expected, rtol=0, atol=1e-12)
