"""Statevector simulation: state prep, mixers, evolution, and correlators."""

import numpy as np
import pytest

from wsqopt.generators import complete_graph, random_graph
from wsqopt.problems import IsingModel, WeightedGraph, maxcut_to_ising
from wsqopt.rqaoa import correlation_matrix_from_state
from wsqopt.simulator import (
    STANDARD_X,
    WARM_START,
    WARM_START_ROUNDED,
    Circuit,
    MixerSpec,
    QaoaParams,
    StateTooLargeError,
    StateVector,
    WarmStartAngles,
    apply_cost_evolution,
    apply_mixer,
    bits_of_index,
    bitstring_of_index,
    depth1_correlator,
    expectation,
    index_of_bits,
    mixer_unitary,
    plus_state,
    prepare_ws_state,
    qaoa_state,
    sample,
    ws_mixer_hamiltonian,
)


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes))


class TestPrepareWsState:
    def test_half_gives_plus(self):
        state = prepare_ws_state([0.5, 0.5], epsilon=0.1)
        np.testing.assert_allclose(state.amplitudes, plus_state(2).amplitudes, atol=1e-12)

    def test_binary_without_regularization(self):
        state = prepare_ws_state([1.0, 0.0], epsilon=0.0)
        # qubit 0 in |1>, qubit 1 in |0> -> index 1
        np.testing.assert_allclose(np.abs(state.amplitudes[index_of_bits([1, 0])]), 1.0)

    def test_clamped_angle(self):
        state = prepare_ws_state([0.0], epsilon=0.25)
        np.testing.assert_allclose(
            state.amplitudes, [np.sqrt(3) / 2, 0.5], atol=1e-12
        )

    def test_one_probabilities_match_clamp(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(0, 1, 5)
        state = prepare_ws_state(c, epsilon=0.2)
        clamped = np.clip(c, 0.2, 0.8)
        probs = state.probabilities()
        idx = np.arange(32)
        for i in range(5):
            p_one = probs[(idx >> i) & 1 == 1].sum()
            assert p_one == pytest.approx(clamped[i], abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            prepare_ws_state([1.2], epsilon=0.0)
        with pytest.raises(ValueError):
            prepare_ws_state([0.5], epsilon=0.7)

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("WSQOPT_MAX_QUBITS", "3")
        with pytest.raises(StateTooLargeError):
            plus_state(4)


class TestCostEvolution:
    def test_gamma_zero_identity(self):
        state = plus_state(3)
        ising = maxcut_to_ising(complete_graph(3, seed=1))
        out = apply_cost_evolution(state, ising, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_single_qubit_phases(self):
        ising = IsingModel(n=1, fields=[1.0])
        state = plus_state(1)
        out = apply_cost_evolution(state, ising, np.pi)
        # E(|0>) = +1, E(|1>) = -1
        expected = state.amplitudes * np.array([np.exp(-1j * np.pi), np.exp(1j * np.pi)])
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
        amplitudes /= np.linalg.norm(amplitudes)
        state = StateVector(amplitudes, 4)
        ising = maxcut_to_ising(complete_graph(4, seed=3))
        out = apply_cost_evolution(state, ising, 1.7)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-12
        )


class TestMixers:
    def test_beta_zero_identity_all_kinds(self):
        angles = WarmStartAngles.from_c_star([0.3, 0.8], epsilon=0.1)
        state = prepare_ws_state([0.3, 0.8], epsilon=0.1)
        for kind in (STANDARD_X, WARM_START, WARM_START_ROUNDED):
            spec = MixerSpec(kind=kind, angles=None if kind == STANDARD_X else angles)
            out = apply_mixer(state, spec, 0.0)
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_warm_start_fixes_prepared_state(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(0, 1, 6)
        angles = WarmStartAngles.from_c_star(c, epsilon=0.15)
        state = prepare_ws_state(c, epsilon=0.15)
        for beta in rng.uniform(-3, 3, 5):
            out = apply_mixer(state, MixerSpec(WARM_START, angles), beta)
            assert fidelity(out, state) == pytest.approx(1.0, abs=1e-10)
            # each per-qubit mixer contributes a phase exp(+i beta) on its
            # -1 eigenstate, so the n-qubit state picks up exp(+i n beta)
            np.testing.assert_allclose(
                out.amplitudes, np.exp(1j * 6 * beta) * state.amplitudes, atol=1e-10
            )

    def test_rounded_kind_bit_flips_at_recovery_point(self):
        state = prepare_ws_state([0.25], epsilon=0.25)
        angles = WarmStartAngles.from_c_star([0.25], epsilon=0.25)
        out = apply_mixer(state, MixerSpec(WARM_START_ROUNDED, angles), np.pi / 2)
        np.testing.assert_allclose(out.amplitudes, [0.0, -1j], atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = rng.uniform(0, np.pi)
            beta = rng.uniform(-5, 5)
            for kind in (STANDARD_X, WARM_START, WARM_START_ROUNDED):
                u = mixer_unitary(kind, theta, beta)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_generator_identity(self):
        rng = np.random.default_rng(6)
        for c in rng.uniform(0, 1, 20):
            theta = 2 * np.arcsin(np.sqrt(c))
            x = np.array([[0, 1], [1, 0]])
            z = np.array([[1, 0], [0, -1]])
            expected = -np.sin(theta) * x - np.cos(theta) * z
            np.testing.assert_allclose(ws_mixer_hamiltonian(c), expected, atol=1e-12)

    def test_mixer_is_exponential_of_generator(self):
        # U = exp(-i beta H) for the warm family
        c, beta = 0.3, 0.9
        theta = 2 * np.arcsin(np.sqrt(c))
        h = ws_mixer_hamiltonian(c)
        eigvals, eigvecs = np.linalg.eigh(h)
        expected = eigvecs @ np.diag(np.exp(-1j * beta * eigvals)) @ eigvecs.conj().T
        np.testing.assert_allclose(
            mixer_unitary(WARM_START, theta, beta), expected, atol=1e-12
        )


class TestQaoaState:
    def test_zero_parameters_keep_initial(self):
        g = complete_graph(4, seed=7)
        ising = maxcut_to_ising(g)
        c = np.array([0.2, 0.6, 0.9, 0.4])
        state = qaoa_state(ising, WARM_START, QaoaParams([0.0], [0.0]), c_star=c, epsilon=0.1)
        np.testing.assert_allclose(
            state.amplitudes, prepare_ws_state(c, 0.1).amplitudes, atol=1e-12
        )

    def test_rounded_recovery_produces_flipped_cut(self):
        g = complete_graph(6, seed=8)
        ising = maxcut_to_ising(g)
        bits = np.array([0, 1, 1, 0, 1, 0])
        state = qaoa_state(
            ising,
            WARM_START_ROUNDED,
            QaoaParams([np.pi / 2], [0.0]),
            c_star=bits.astype(float),
            epsilon=0.25,
        )
        flipped = index_of_bits(1 - bits)
        assert abs(state.amplitudes[flipped]) == pytest.approx(1.0, abs=1e-9)

    def test_half_epsilon_equals_standard(self):
        rng = np.random.default_rng(9)
        g = complete_graph(6, seed=9)
        ising = maxcut_to_ising(g)
        params = QaoaParams(rng.uniform(0, np.pi, 2), rng.uniform(0, 2 * np.pi, 2))
        warm = qaoa_state(ising, WARM_START, params, c_star=rng.uniform(0, 1, 6), epsilon=0.5)
        standard = qaoa_state(ising, STANDARD_X, params)
        assert 1.0 - fidelity(warm, standard) <= 1e-12

    def test_circuit_reused_across_parameters(self):
        rng = np.random.default_rng(11)
        ising = maxcut_to_ising(complete_graph(5, seed=11))
        c = rng.uniform(0, 1, 5)
        circuit = Circuit(ising, WARM_START, c_star=c, epsilon=0.2)
        params = [QaoaParams(rng.uniform(0, np.pi, p), rng.uniform(0, 2 * np.pi, p)) for p in (1, 2, 1)]
        states = [circuit.state(x) for x in params]
        for x, state in zip(params, states):
            fresh = qaoa_state(ising, WARM_START, x, c_star=c, epsilon=0.2)
            np.testing.assert_array_equal(state.amplitudes, fresh.amplitudes)
            assert circuit.energy(state) == pytest.approx(expectation(state, ising), abs=1e-12)

    def test_requires_c_star_for_warm_kinds(self):
        ising = maxcut_to_ising(complete_graph(3, seed=1))
        with pytest.raises(ValueError):
            qaoa_state(ising, WARM_START, QaoaParams([0.1], [0.1]))

    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_graph(5, 0.7, weights=(-2.0, 1.0), seed=int(rng.integers(1000)))
            ising = maxcut_to_ising(g)
            p = int(rng.integers(1, 4))
            params = QaoaParams(rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))
            state = qaoa_state(
                ising, WARM_START_ROUNDED, params, c_star=rng.uniform(0, 1, 5), epsilon=0.2
            )
            assert abs(state.norm() ** 2 - 1.0) <= 1e-10


class TestExpectation:
    def test_basis_state_energy(self):
        ising = maxcut_to_ising(WeightedGraph(n=2, edges=[(0, 1, 1.0)]))
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[index_of_bits([1, 0])] = 1.0
        assert expectation(StateVector(amplitudes, 2), ising) == pytest.approx(-1.0)

    def test_plus_state_gives_mean_energy(self):
        g = complete_graph(5, seed=11)
        ising = maxcut_to_ising(g)
        # uniform average over assignments: coupling terms vanish
        assert expectation(plus_state(5), ising) == pytest.approx(ising.offset, abs=1e-10)

    def test_matches_enumeration_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            g = complete_graph(n, seed=int(rng.integers(1000)))
            ising = maxcut_to_ising(g)
            amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amplitudes /= np.linalg.norm(amplitudes)
            state = StateVector(amplitudes, n)
            direct = sum(
                abs(amplitudes[k]) ** 2 * ising.energy(1 - 2 * bits_of_index(k, n))
                for k in range(1 << n)
            )
            assert expectation(state, ising) == pytest.approx(direct, abs=1e-9)


class TestSample:
    def test_basis_state_deterministic(self):
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[2] = 1.0
        counts = sample(StateVector(amplitudes, 2), shots=100, seed=1)
        assert counts == {bitstring_of_index(2, 2): 100}

    def test_unbiased_on_plus(self):
        counts = sample(plus_state(1), shots=100_000, seed=2)
        for key in ("0", "1"):
            assert abs(counts.get(key, 0) - 50_000) < 4 * np.sqrt(100_000 * 0.25)

    def test_seed_determinism(self):
        state = plus_state(3)
        assert sample(state, 500, seed=9) == sample(state, 500, seed=9)

    def test_counts_sum_to_shots(self):
        counts = sample(plus_state(4), shots=1234, seed=3)
        assert sum(counts.values()) == 1234


class TestDepth1Correlator:
    def test_product_state_closed_form(self):
        g = complete_graph(5, seed=13)
        rng = np.random.default_rng(13)
        c = rng.uniform(0, 1, 5)
        eps = 0.1
        clamped = np.clip(c, eps, 1 - eps)
        for i, j, _ in g.edges[:4]:
            value = depth1_correlator(g, c, eps, 0.0, 0.0, i, j, WARM_START)
            expected = (1 - 2 * clamped[i]) * (1 - 2 * clamped[j])
            assert value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_superposition_vanishes(self):
        g = complete_graph(5, seed=14)
        for gamma in (0.0, 0.7, 2.1):
            value = depth1_correlator(
                g, np.full(5, 0.3), 0.5, 0.0, gamma, 0, 1, WARM_START
            )
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_statevector_all_kinds(self):
        rng = np.random.default_rng(15)
        for trial in range(6):
            g = complete_graph(7, seed=trial)
            ising = maxcut_to_ising(g)
            c = rng.uniform(0, 1, 7)
            beta, gamma = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            for kind in (WARM_START, WARM_START_ROUNDED, STANDARD_X):
                state = qaoa_state(
                    ising,
                    kind,
                    QaoaParams([beta], [gamma]),
                    c_star=None if kind == STANDARD_X else c,
                    epsilon=0.25,
                )
                oracle = correlation_matrix_from_state(state, g)
                for i, j, _ in g.edges:
                    fast = depth1_correlator(
                        g, None if kind == STANDARD_X else c, 0.25, beta, gamma, i, j, kind
                    )
                    assert fast == pytest.approx(oracle[i, j], abs=1e-9)

    def test_rejects_equal_indices(self):
        g = complete_graph(3, seed=1)
        with pytest.raises(ValueError):
            depth1_correlator(g, np.full(3, 0.5), 0.25, 0.1, 0.1, 1, 1, WARM_START)


class TestBitConventions:
    def test_round_trip(self):
        for index in range(16):
            assert index_of_bits(bits_of_index(index, 4)) == index
            assert index_of_bits(bitstring_of_index(index, 4)) == index

    def test_qubit_zero_is_lsb(self):
        assert index_of_bits([1, 0, 0]) == 1
        assert index_of_bits([0, 0, 1]) == 4
