"""The stacked mixer build of ``Circuit.state`` against a per-qubit loop, bit for bit.

The reference rebuilds every qubit's mixer with ``mixer_unitary`` and applies
it with the same einsum, on the same phased amplitudes, so any change of the
arithmetic shows up as an inequality, not as a tolerance to be chosen.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wsqopt.problems import IsingModel
from wsqopt.simulator import (
    MIXER_KINDS,
    STANDARD_X,
    Circuit,
    QaoaParams,
    apply_mixer,
    mixer_unitary,
)

# fractional, negative and exactly zero values
values = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
)
# exact 0/1 entries give the degenerate warm start, whose qubits start in
# basis states when epsilon is 0
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
betas = st.floats(-np.pi, np.pi)
gammas = st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def circuits(draw, max_qubits=8):
    n = draw(st.integers(1, max_qubits))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    couplings = {pair: draw(values) for pair, keep in zip(pairs, present) if keep}
    fields = draw(st.lists(values, min_size=n, max_size=n))
    ising = IsingModel(n=n, couplings=couplings, fields=np.array(fields), offset=draw(values))
    kind = draw(st.sampled_from(MIXER_KINDS))
    c_star = None if kind == STANDARD_X else draw(st.lists(probabilities, min_size=n, max_size=n))
    epsilon = draw(st.sampled_from([0.0, 0.25, 0.5]))
    return Circuit(ising, kind, c_star, epsilon)


def reference_state(circuit: Circuit, params: QaoaParams) -> np.ndarray:
    """Per-qubit ``mixer_unitary`` and einsum after each cost phase."""
    n = circuit.initial.n
    spec = circuit.mixer
    theta = np.zeros(n) if spec.kind == STANDARD_X else spec.angles.theta
    amplitudes = circuit.initial.amplitudes
    for beta, gamma in zip(params.betas, params.gammas):
        amplitudes = amplitudes * np.exp(-1j * gamma * circuit.table)
        for qubit in range(n):
            u = mixer_unitary(spec.kind, theta[qubit], beta)
            shaped = amplitudes.reshape(1 << (n - qubit - 1), 2, 1 << qubit)
            amplitudes = np.einsum("ab,hbl->hal", u, shaped).reshape(-1)
    return amplitudes


@settings(max_examples=200, deadline=None)
@given(circuit=circuits(), layers=st.lists(st.tuples(betas, gammas), min_size=1, max_size=3))
def test_circuit_state_equals_per_qubit_loop(circuit, layers):
    params = QaoaParams([beta for beta, _ in layers], [gamma for _, gamma in layers])
    assert np.array_equal(circuit.state(params).amplitudes, reference_state(circuit, params))


@settings(max_examples=100, deadline=None)
@given(circuit=circuits(), beta=betas)
def test_apply_mixer_equals_circuit_at_zero_gamma(circuit, beta):
    single = apply_mixer(circuit.initial, circuit.mixer, beta)
    layer = circuit.state(QaoaParams([beta], [0.0]))
    assert np.array_equal(single.amplitudes, layer.amplitudes)


@settings(max_examples=100, deadline=None)
@given(circuit=circuits(max_qubits=14), beta=betas)
def test_stacked_unitaries_equal_mixer_unitary(circuit, beta):
    spec = circuit.mixer
    n = circuit.initial.n
    stacked = spec.unitaries(beta, n)
    assert stacked.shape == (n, 2, 2)
    for qubit in range(n):
        theta = 0.0 if spec.kind == STANDARD_X else spec.angles.theta[qubit]
        assert np.array_equal(stacked[qubit], mixer_unitary(spec.kind, theta, beta))
