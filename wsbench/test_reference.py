"""Tests of the benchmark's reference code on cases small enough to check by hand.

Run from the repository root: ``python3 -m pytest -q wsbench``.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import reference as ref

TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_cut_table_triangle():
    # index 0b001 puts node 0 alone: edges (0,1) and (0,2) cross
    cuts = ref.cut_table(3, TRIANGLE)
    assert cuts.tolist() == [0, 2, 2, 2, 2, 2, 2, 0]


def test_cut_table_mixed_signs():
    edges = [(0, 1, 3.0), (1, 2, -2.0)]
    cuts = ref.cut_table(3, edges)
    assert cuts.max() == 3.0  # cut only (0, 1): z = (+, -, -)
    assert cuts.min() == -2.0  # cut only (1, 2)
    assert ref.cut_of(edges, [1, -1, -1]) == 3.0


def test_lexicographic_argmin_reads_x0_first():
    # x = (x0, x1) at index x0 + 2 x1; minima at index 1 = "10" and 2 = "01"
    table = np.array([5.0, 0.0, 0.0, 5.0])
    assert ref.lexicographic_argmin(table, 2) == 2


def test_portfolio_table_by_hand():
    sigma = [[1.0, 0.5], [0.5, 2.0]]
    mu = [1.0, 3.0]
    table = ref.portfolio_table(sigma, mu, q=2.0, budget=1, penalty=3.0)
    # x=00: 3; x=10: 2*1 - 1 = 1; x=01: 2*2 - 3 = 1; x=11: 2*4 - 4 + 3 = 7
    assert table.tolist() == pytest.approx([3.0, 1.0, 1.0, 7.0])
    assert ref.portfolio_objective(sigma, mu, 2.0, 1, 3.0, [1, 1]) == pytest.approx(7.0)


def test_portfolio_gradient_by_hand():
    # f = 2 x'Sx - mu'x + 3 (x0 + x1 - 1)^2 at x = (1, 0): grad = 4 S x - mu + 6 (x0 + x1 - 1) 1
    sigma = [[1.0, 0.5], [0.5, 2.0]]
    h, g = ref.portfolio_quadratic(sigma, [1.0, 3.0], q=2.0, budget=1, penalty=3.0)
    assert (h @ [1.0, 0.0] + g).tolist() == pytest.approx([4.0 - 1.0, 2.0 - 3.0])


def test_box_kkt_residual():
    # a lower bound needs grad >= 0, an upper bound grad <= 0, the interior grad = 0
    assert ref.box_kkt_residual([0.0, 1.0, 0.5], [2.0, -1.0, 0.0]) == 0.0
    assert ref.box_kkt_residual([0.0, 1.0, 0.5], [-2.0, 0.0, 0.0]) == 2.0
    assert ref.box_kkt_residual([0.0, 1.0, 0.5], [0.0, 0.0, 0.25]) == 0.25


def test_box_minimiser_separable_case():
    # f = x0^2 - x0 + x1^2 - 4 x1: x0 = 1/2 inside, x1 = 2 clipped to the bound
    x = ref.box_minimiser([[1.0, 0.0], [0.0, 1.0]], [1.0, 4.0], q=1.0, budget=0, penalty=0.0)
    assert x == pytest.approx([0.5, 1.0], abs=1e-12)


def test_expected_hyperplane_cut():
    orthogonal = [[1.0, 0.0], [0.0, 1.0]]
    antipodal = [[1.0, 0.0], [-1.0, 0.0]]
    assert ref.expected_hyperplane_cut([(0, 1, 2.0)], orthogonal) == pytest.approx(1.0)
    assert ref.expected_hyperplane_cut([(0, 1, 2.0)], antipodal) == pytest.approx(2.0)
    assert ref.vector_program_value([(0, 1, 2.0)], antipodal) == pytest.approx(2.0)


def test_standard_mixer_keeps_plus_state():
    probs = ref.qaoa_probabilities(np.zeros(4), 2, ref.STANDARD_X, None, [0.7], [0.0])
    assert probs == pytest.approx([0.25] * 4)


def test_warm_start_state_has_clamped_probabilities():
    theta = ref.warm_angles([0.0, 1.0], 0.25)
    probs = ref.qaoa_probabilities(np.zeros(4), 2, ref.WARM_START, theta, [0.0], [0.0])
    # P(x0 = 1) = 0.25 and P(x1 = 1) = 0.75
    assert probs == pytest.approx([0.75 * 0.25, 0.25 * 0.25, 0.75 * 0.75, 0.25 * 0.75])


def test_rounded_mixer_maps_cut_to_basis_state():
    # a cut clamped to 1/4 and 3/4 returns to a basis state at beta = pi/2
    theta = ref.warm_angles([1.0], 0.25)
    probs = ref.qaoa_probabilities(np.zeros(2), 1, ref.WARM_START_ROUNDED, theta, [np.pi / 2], [0.0])
    assert probs == pytest.approx([1.0, 0.0], abs=1e-12)


def dense_probabilities(energies, n, kind, theta, betas, gammas):
    """The same circuit from 2^n x 2^n matrices, one Kronecker factor per qubit."""

    def on_qubit(op, qubit):
        # qubit i is bit i of the index, the last factor of the Kronecker product
        mats = [np.eye(2)] * n
        mats[n - 1 - qubit] = op
        out = np.array([[1.0]])
        for m in mats:
            out = np.kron(out, m)
        return out

    if kind == ref.STANDARD_X:
        generators = [-X] * n
        state = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    else:
        flip = 1.0 if kind == ref.WARM_START else -1.0
        generators = [-flip * np.sin(t) * X - np.cos(t) * Z for t in theta]
        state = np.array([1.0 + 0j])
        for t in theta:
            state = np.kron(np.array([np.cos(t / 2), np.sin(t / 2)]), state)
    for beta, gamma in zip(betas, gammas):
        state = np.exp(-1j * gamma * np.asarray(energies)) * state
        for qubit, h in enumerate(generators):
            state = on_qubit(expm(-1j * beta * h), qubit) @ state
    return np.abs(state) ** 2


@pytest.mark.parametrize("kind", [ref.STANDARD_X, ref.WARM_START, ref.WARM_START_ROUNDED])
def test_statevector_matches_dense_matrices(kind):
    n = 3
    energies = -ref.cut_table(n, [(0, 1, 2.0), (1, 2, -1.0), (0, 2, 3.0)])
    theta = ref.warm_angles([0.2, 0.9, 0.5], 0.1)
    betas, gammas = [0.3, 1.1], [0.7, -0.4]
    fast = ref.qaoa_probabilities(energies, n, kind, theta, betas, gammas)
    dense = dense_probabilities(energies, n, kind, theta, betas, gammas)
    assert fast == pytest.approx(dense, abs=1e-12)
    assert fast.sum() == pytest.approx(1.0)


def test_normalised_ratio():
    assert ref.normalised_ratio(-5.0, -5.0, 3.0) == 1.0
    assert ref.normalised_ratio(3.0, -5.0, 3.0) == 0.0
