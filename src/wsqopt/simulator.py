"""Dense statevector simulation of alternating-operator circuits.

Bit convention: qubit ``i`` is the i-th least significant bit of a basis
state index, and bitstrings are written with qubit 0 first, so ``|10>`` on
two qubits means qubit 0 in ``|1>`` (index 1). Bits map to spins through
``z = 1 - 2x``.

Three per-qubit mixer families are supported:

* ``standard-x``  -- the limit of the warm-start family at probability 1/2,
  ``U(beta) = exp(-i beta H)`` with ``H = -X``;
* ``warm-start``  -- ``RY(theta) RZ(-2 beta) RY(-theta)``, generated by
  ``-sin(theta) X - cos(theta) Z``, which fixes the prepared product state;
* ``warm-start-rounded`` -- ``RY(-theta) RZ(-2 beta) RY(theta)``, the same
  generator with the off-diagonal sign flipped, so a prepared cut (clamped
  to 1/4 and 3/4) is mapped back to a basis state at beta = pi/2, gamma = 0.

Cost evolution multiplies amplitudes by ``exp(-i gamma E(x))`` where E is
the Ising energy of the corresponding spin string; the model offset enters
as a global phase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .problems import IsingModel, WeightedGraph

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "WSQOPT_MAX_QUBITS"

STANDARD_X = "standard-x"
WARM_START = "warm-start"
WARM_START_ROUNDED = "warm-start-rounded"
MIXER_KINDS = (STANDARD_X, WARM_START, WARM_START_ROUNDED)


class StateTooLargeError(ValueError):
    """Requested qubit count exceeds the configured statevector cap."""


def max_qubits() -> int:
    """Statevector cap; overridable through the WSQOPT_MAX_QUBITS env var."""
    value = os.environ.get(MAX_QUBITS_ENV)
    if value is None:
        return DEFAULT_MAX_QUBITS
    return int(value)


def _check_qubits(n: int):
    cap = max_qubits()
    if n > cap:
        raise StateTooLargeError(f"{n} qubits exceed the cap of {cap}")
    if n < 1:
        raise ValueError("need at least one qubit")


@dataclass
class StateVector:
    """2^n complex amplitudes over the computational basis."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude vector must have length 2^n")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n)


def clamp_probabilities(c_star, epsilon: float) -> np.ndarray:
    """Clamp relaxed values into [epsilon, 1 - epsilon].

    Keeps every basis state reachable: values below epsilon are raised to
    epsilon, values above 1 - epsilon lowered, the rest untouched. At
    epsilon = 0.5 all values collapse to 1/2.
    """
    c = np.asarray(c_star, dtype=float)
    if np.any(c < -1e-12) or np.any(c > 1.0 + 1e-12):
        raise ValueError("relaxed values must lie in [0, 1]")
    if not (0.0 <= epsilon <= 0.5):
        raise ValueError("epsilon must lie in [0, 0.5]")
    return np.clip(c, epsilon, 1.0 - epsilon)


@dataclass
class WarmStartAngles:
    """Per-qubit Y-rotation angles theta_i = 2 arcsin(sqrt(clamped c_i))."""

    theta: np.ndarray
    epsilon: float

    @classmethod
    def from_c_star(cls, c_star, epsilon: float) -> "WarmStartAngles":
        return cls.from_probabilities(clamp_probabilities(c_star, epsilon), epsilon)

    @classmethod
    def from_probabilities(cls, clamped, epsilon: float) -> "WarmStartAngles":
        """Angles of already clamped one-probabilities."""
        return cls(theta=2.0 * np.arcsin(np.sqrt(clamped)), epsilon=float(epsilon))

    @property
    def n(self) -> int:
        return self.theta.size

    def probabilities(self) -> np.ndarray:
        """Per-qubit probability of measuring one: sin^2(theta / 2)."""
        return np.sin(self.theta / 2.0) ** 2


@dataclass
class MixerSpec:
    """Mixer family plus the angles the warm families are built from."""

    kind: str
    angles: WarmStartAngles | None = None

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in MIXER_KINDS:
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        if kind != STANDARD_X and self.angles is None:
            raise ValueError(f"mixer kind {kind!r} requires angles")
        self.kind = kind


@dataclass
class QaoaParams:
    """Layer parameters: betas drive the mixer, gammas the cost evolution."""

    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        self.betas = np.atleast_1d(np.asarray(self.betas, dtype=float))
        self.gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if self.betas.shape != self.gammas.shape or self.betas.size < 1:
            raise ValueError("betas and gammas must have equal length p >= 1")

    @property
    def p(self) -> int:
        return self.betas.size


def index_of_bits(bits) -> int:
    """Basis index of a bitstring given qubit-0-first (LSB-first)."""
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    index = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index |= bit << i
    return index


def bits_of_index(index: int, n: int) -> np.ndarray:
    """Bit vector (qubit 0 first) of a basis index."""
    return np.array([(index >> i) & 1 for i in range(n)], dtype=int)


def bitstring_of_index(index: int, n: int) -> str:
    return "".join(str((index >> i) & 1) for i in range(n))


def prepare_ws_state(c_star, epsilon: float) -> StateVector:
    """Product state with per-qubit amplitudes (cos(t/2), sin(t/2)).

    The probability of measuring one on qubit i equals the clamped c_i.
    """
    return _product_state(WarmStartAngles.from_c_star(c_star, epsilon))


def _product_state(angles: WarmStartAngles) -> StateVector:
    n = angles.n
    _check_qubits(n)
    amplitudes = np.array([1.0 + 0.0j])
    half = angles.theta / 2.0
    for i in range(n):
        qubit = np.array([np.cos(half[i]), np.sin(half[i])], dtype=complex)
        amplitudes = np.kron(qubit, amplitudes)
    return StateVector(amplitudes, n)


def plus_state(n: int) -> StateVector:
    """Uniform superposition over all basis states."""
    _check_qubits(n)
    return StateVector(np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex), n)


def energy_table(ising: IsingModel) -> np.ndarray:
    """Ising energy of every basis state, indexed by the basis index."""
    n = ising.n
    _check_qubits(n)
    idx = np.arange(1 << n, dtype=np.int64)
    table = np.full(1 << n, ising.offset, dtype=float)
    for i, h in enumerate(ising.fields):
        if h != 0.0:
            table += h * (1.0 - 2.0 * ((idx >> i) & 1))
    for (i, j), value in ising.couplings.items():
        table += value * (1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1))
    return table


def apply_cost_evolution(s: StateVector, ising: IsingModel, gamma: float) -> StateVector:
    """Diagonal phase exp(-i gamma E(x)) per basis state; magnitudes unchanged."""
    if ising.n != s.n:
        raise ValueError("model size must match the state")
    phases = np.exp(-1j * gamma * energy_table(ising))
    return StateVector(s.amplitudes * phases, s.n)


def _ry(theta: float) -> np.ndarray:
    c, si = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -si], [si, c]], dtype=complex)


def _rz(lam: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * lam), 0.0], [0.0, np.exp(0.5j * lam)]], dtype=complex
    )


def ws_mixer_hamiltonian(c: float) -> np.ndarray:
    """Per-qubit warm-start mixer generator as a 2x2 Hermitian matrix.

    Built directly from the probability c: diagonal (2c - 1, 1 - 2c) and
    off-diagonal -2 sqrt(c (1 - c)); equal to -sin(theta) X - cos(theta) Z.
    """
    off = -2.0 * np.sqrt(c * (1.0 - c))
    return np.array([[2.0 * c - 1.0, off], [off, 1.0 - 2.0 * c]], dtype=complex)


def mixer_unitary(kind: str, theta: float, beta: float) -> np.ndarray:
    """Per-qubit mixer for one layer; theta is ignored by standard-x."""
    if kind == STANDARD_X:
        c, si = np.cos(beta), np.sin(beta)
        return np.array([[c, 1j * si], [1j * si, c]], dtype=complex)
    if kind == WARM_START:
        return _ry(theta) @ _rz(-2.0 * beta) @ _ry(-theta)
    if kind == WARM_START_ROUNDED:
        return _ry(-theta) @ _rz(-2.0 * beta) @ _ry(theta)
    raise ValueError(f"unknown mixer kind {kind!r}")


def _apply_single_qubit(amplitudes: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    shaped = amplitudes.reshape(1 << (n - qubit - 1), 2, 1 << qubit)
    return np.einsum("ab,hbl->hal", u, shaped).reshape(-1)


def apply_mixer(s: StateVector, spec: MixerSpec, beta: float) -> StateVector:
    """Apply the per-qubit mixer unitary of the given family to every qubit."""
    amplitudes = s.amplitudes
    if spec.kind == STANDARD_X:
        u = mixer_unitary(STANDARD_X, 0.0, beta)
        for qubit in range(s.n):
            amplitudes = _apply_single_qubit(amplitudes, s.n, qubit, u)
    else:
        if spec.angles.n != s.n:
            raise ValueError("angle count must match the state")
        for qubit in range(s.n):
            u = mixer_unitary(spec.kind, spec.angles.theta[qubit], beta)
            amplitudes = _apply_single_qubit(amplitudes, s.n, qubit, u)
    return StateVector(amplitudes, s.n)


def _mixer_probabilities(n: int, mixer_kind: str, c_star, epsilon: float):
    """Checked mixer family and the per-qubit one-probabilities it starts from.

    The standard family ignores ``c_star`` and starts every qubit at 1/2; the
    warm families require ``c_star`` of length n and clamp it into
    [epsilon, 1 - epsilon].
    """
    kind = mixer_kind.lower()
    if kind not in MIXER_KINDS:
        raise ValueError(f"unknown mixer kind {mixer_kind!r}")
    if kind == STANDARD_X:
        return kind, np.full(n, 0.5)
    if c_star is None:
        raise ValueError("warm mixer kinds require c_star")
    clamped = clamp_probabilities(c_star, epsilon)
    if clamped.size != n:
        raise ValueError("c_star length must match the model")
    return kind, clamped


class Circuit:
    """Alternating cost / mixer circuit of one mixer family on one model.

    The standard family starts from the uniform superposition; the warm
    families start from the product state prepared from the clamped
    ``c_star`` and reuse the same angles in the mixer. The initial state, the
    mixer and the energy table are built once, so ``state`` can be called for
    many parameter sets.
    """

    def __init__(self, ising: IsingModel, mixer_kind: str, c_star=None, epsilon: float = 0.25):
        kind, clamped = _mixer_probabilities(ising.n, mixer_kind, c_star, epsilon)
        if kind == STANDARD_X:
            self.initial = plus_state(ising.n)
            self.mixer = MixerSpec(kind=kind)
        else:
            angles = WarmStartAngles.from_probabilities(clamped, epsilon)
            self.initial = _product_state(angles)
            self.mixer = MixerSpec(kind=kind, angles=angles)
        self.table = energy_table(ising)

    def state(self, params: QaoaParams) -> StateVector:
        """Trial state after the p layers of ``params``."""
        state = self.initial
        for beta, gamma in zip(params.betas, params.gammas):
            phased = StateVector(state.amplitudes * np.exp(-1j * gamma * self.table), state.n)
            state = apply_mixer(phased, self.mixer, beta)
        return state

    def energy(self, state: StateVector) -> float:
        """Energy expectation of a state of this circuit."""
        return float(state.probabilities() @ self.table)


def qaoa_state(
    ising: IsingModel,
    mixer_kind: str,
    params: QaoaParams,
    c_star=None,
    epsilon: float = 0.25,
) -> StateVector:
    """Trial state after p alternating cost / mixer layers; see ``Circuit``."""
    return Circuit(ising, mixer_kind, c_star, epsilon).state(params)


def expectation(s: StateVector, ising: IsingModel) -> float:
    """Energy expectation sum_x |a_x|^2 E(x)."""
    if ising.n != s.n:
        raise ValueError("model size must match the state")
    return float(s.probabilities() @ energy_table(ising))


def sample(s: StateVector, shots: int, seed: int = 0) -> dict:
    """Multiset of measured bitstrings as a {bitstring: count} mapping.

    Draws are i.i.d. from the squared amplitudes; deterministic per seed.
    Bitstrings are qubit-0-first.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = s.probabilities()
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(probs.size, size=shots, p=probs)
    counts: dict = {}
    for index in draws:
        key = bitstring_of_index(int(index), s.n)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _mixer_stack(kind: str, theta: np.ndarray, beta: float) -> np.ndarray:
    """Per-node 2x2 mixer unitaries stacked into an (n, 2, 2) array."""
    n = theta.size
    out = np.empty((n, 2, 2), dtype=complex)
    for i in range(n):
        out[i] = mixer_unitary(kind, theta[i], beta)
    return out


def depth1_edge_correlators(
    g: WeightedGraph,
    c_star,
    epsilon: float,
    beta: float,
    gamma: float,
    pairs: np.ndarray,
    mixer_kind: str,
) -> np.ndarray:
    """ZZ correlators of the depth-one trial state for a batch of pairs.

    Works in the two-qubit reduced density matrix of each pair: the diagonal
    cost evolution factorizes into local phases on the pair, a dephasing
    contribution from every third qubit (a classical mixture weighted by that
    qubit's one-probability), and the pair's own coupling phase; the mixer
    then acts as a 4x4 unitary. Cost is O(n) per pair. ``pairs`` is an
    (m, 2) integer array; ``c_star`` may be None for the standard family.
    """
    n = g.n
    kind, clamped = _mixer_probabilities(n, mixer_kind, c_star, epsilon)
    theta = WarmStartAngles.from_probabilities(clamped, epsilon).theta

    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be an (m, 2) array")
    ii, jj = pairs[:, 0], pairs[:, 1]
    if np.any(ii == jj):
        raise ValueError("pair indices must differ")
    if np.any(pairs < 0) or np.any(pairs >= n):
        raise ValueError("pair index out of range")

    weights = g.weight_matrix()
    w_ij = weights[ii, jj]
    rows = weights.sum(axis=1)

    # Local phases from all couplings of i (resp. j) to third qubits,
    # aggregated because the diagonal gates commute.
    phi_i = gamma * (rows[ii] - w_ij)
    phi_j = gamma * (rows[jj] - w_ij)
    half = theta / 2.0
    a_i0 = np.cos(half[ii]).astype(complex)
    a_i1 = np.sin(half[ii]) * np.exp(1j * phi_i)
    a_j0 = np.cos(half[jj]).astype(complex)
    a_j1 = np.sin(half[jj]) * np.exp(1j * phi_j)
    psi = np.stack([a_i0 * a_j0, a_i0 * a_j1, a_i1 * a_j0, a_i1 * a_j1], axis=1)
    rho = psi[:, :, None] * psi.conj()[:, None, :]

    # Each third qubit k contributes a mixture of identity and the diagonal
    # two-qubit phase it imprints on the pair, weighted by its probabilities.
    ones = np.ones(pairs.shape[0], dtype=complex)
    for k in range(n):
        mask = (ii != k) & (jj != k)
        if not np.any(mask):
            continue
        w_ik = weights[ii[mask], k]
        w_jk = weights[jj[mask], k]
        if not (np.any(w_ik) or np.any(w_jk)):
            continue
        pk = clamped[k]
        u = np.stack(
            [
                np.ones(w_ik.size, dtype=complex),
                np.exp(-2j * gamma * w_jk),
                np.exp(-2j * gamma * w_ik),
                np.exp(-2j * gamma * (w_ik + w_jk)),
            ],
            axis=1,
        )
        factor = (1.0 - pk) + pk * (u[:, :, None] * u.conj()[:, None, :])
        rho[mask] = rho[mask] * factor

    # Phase from the pair's own coupling.
    u_ij = np.stack(
        [
            ones,
            np.exp(1j * gamma * w_ij),
            np.exp(1j * gamma * w_ij),
            ones,
        ],
        axis=1,
    )
    rho = rho * (u_ij[:, :, None] * u_ij.conj()[:, None, :])

    # Mixer as a 4x4 conjugation, then read off <Z Z>.
    node_mixers = _mixer_stack(kind, theta, beta)
    u4 = np.einsum("eab,ecd->eacbd", node_mixers[ii], node_mixers[jj]).reshape(-1, 4, 4)
    rho = u4 @ rho @ np.conj(np.transpose(u4, (0, 2, 1)))
    return np.real(rho[:, 0, 0] - rho[:, 1, 1] - rho[:, 2, 2] + rho[:, 3, 3])


def depth1_correlator(
    g: WeightedGraph,
    c_star,
    epsilon: float,
    beta: float,
    gamma: float,
    i: int,
    j: int,
    mixer_kind: str,
) -> float:
    """<Z_i Z_j> of the depth-one trial state, via the reduced-density path."""
    if i == j:
        raise ValueError("indices must differ")
    pair = np.array([[min(i, j), max(i, j)]])
    return float(
        depth1_edge_correlators(g, c_star, epsilon, beta, gamma, pair, mixer_kind)[0]
    )
