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
from dataclasses import dataclass, field

import numpy as np

from .problems import IsingModel, WeightedGraph, maxcut_to_ising

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
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"{MAX_QUBITS_ENV}={value!r} is not an integer") from None
    if cap < 1:
        raise ValueError(f"{MAX_QUBITS_ENV}={value!r} must be at least 1")
    return cap


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

    @classmethod
    def from_c_star(cls, c_star, epsilon: float) -> "WarmStartAngles":
        return cls.from_probabilities(clamp_probabilities(c_star, epsilon))

    @classmethod
    def from_probabilities(cls, clamped) -> "WarmStartAngles":
        """Angles of already clamped one-probabilities."""
        return cls(theta=2.0 * np.arcsin(np.sqrt(clamped)))

    @property
    def n(self) -> int:
        return self.theta.size

    def probabilities(self) -> np.ndarray:
        """Per-qubit probability of measuring one: sin^2(theta / 2)."""
        return np.sin(self.theta / 2.0) ** 2


@dataclass
class MixerSpec:
    """Mixer family plus the angles the warm families are built from.

    The warm families' per-qubit Y rotations do not depend on beta, so they
    are stacked once here as the (n, 2, 2) arrays that ``unitaries`` puts on
    either side of RZ(-2 beta).
    """

    kind: str
    angles: WarmStartAngles | None = None
    _rotations: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in MIXER_KINDS:
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        if kind != STANDARD_X and self.angles is None:
            raise ValueError(f"mixer kind {kind!r} requires angles")
        self.kind = kind
        if kind != STANDARD_X:
            ry = np.array([_ry(theta) for theta in self.angles.theta])
            ry_neg = np.array([_ry(-theta) for theta in self.angles.theta])
            self._rotations = (ry, ry_neg) if kind == WARM_START else (ry_neg, ry)

    def unitaries(self, beta: float, n: int) -> np.ndarray:
        """Per-qubit mixer unitaries of one layer, shape (n, 2, 2).

        Entry i equals ``mixer_unitary(kind, theta_i, beta)`` bit for bit:
        the stacked products multiply the same 2x2 factors in the same order.
        """
        if self.kind == STANDARD_X:
            return np.broadcast_to(mixer_unitary(STANDARD_X, 0.0, beta), (n, 2, 2))
        rot_in, rot_out = self._rotations
        return (rot_in @ _rz(-2.0 * beta)) @ rot_out


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
    if spec.kind != STANDARD_X and spec.angles.n != s.n:
        raise ValueError("angle count must match the state")
    amplitudes = s.amplitudes
    for qubit, u in enumerate(spec.unitaries(beta, s.n)):
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
            angles = WarmStartAngles.from_probabilities(clamped)
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


class Depth1Evaluator:
    """Depth-one expectations of one mixer family on one model, in Bloch form.

    Every family starts from the product state of ``Circuit``, whose qubit i
    has the Bloch vector (sin t_i, 0, cos t_i), t_i = 2 arcsin(sqrt(c_i)) for
    the clamped one-probability c_i (1/2 for the standard family). The mixer
    is ``exp(i beta a_i . sigma)`` about the axis a_i = (sin t_i, 0, cos t_i)
    for the warm-start family, (-sin t_i, 0, cos t_i) for the rounded one and
    (1, 0, 0) for the standard one.

    The cost layer depends only on gamma: it sets each pair's 3x3 Pauli
    correlation tensor T_e[a, b] = <sigma^a_i sigma^b_j> and each qubit's
    Bloch vector b_i. Every third qubit k enters a pair as a classical
    dephasing factor cos(2 gamma x) - i cos t_k sin(2 gamma x), x being its
    coupling to i, to j, or their sum or difference, and a field enters as a
    coupling to a spin fixed at +1, so a pair costs O(n). The mixer
    depends only on beta: it turns Z into n_i = U_i^dagger Z U_i. Then
    <Z_i Z_j> = n_i^T T_e n_j and <Z_i> = n_i . b_i, so a whole (beta, gamma)
    grid is one contraction.

    ``pairs`` is an (m, 2) integer array of the pairs whose correlators are
    wanted; it defaults to the model's couplings. The evaluation methods take
    ``beta`` and ``gamma`` as scalars or as an outer grid (one a column, the
    other a row) and return the broadcast shape, followed by the pair or
    qubit axis where there is one.
    """

    def __init__(
        self, ising: IsingModel, mixer_kind: str, c_star=None, epsilon: float = 0.25, pairs=None
    ):
        n = ising.n
        kind, clamped = _mixer_probabilities(n, mixer_kind, c_star, epsilon)
        if pairs is None:
            pairs = np.array(list(ising.couplings), dtype=int).reshape(-1, 2)
        pairs = np.asarray(pairs, dtype=int)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (m, 2) array")
        ii, jj = pairs[:, 0], pairs[:, 1]
        if np.any(ii == jj):
            raise ValueError("pair indices must differ")
        if np.any(pairs < 0) or np.any(pairs >= n):
            raise ValueError("pair index out of range")
        self.n, self.ii, self.jj = n, ii, jj
        self.offset = ising.offset
        self.fields = ising.fields

        upper = ising.coupling_matrix()
        couplings = upper + upper.T
        self.weights = couplings[ii, jj]
        # From the amplitudes (cos(t/2), sin(t/2)) that Circuit prepares, not
        # from c_i: at a prepared cut (beta = pi/2, gamma = 0) every correlator
        # is +-1 up to rounding and its last bit decides rqaoa.eliminate;
        # tests/recorded_outputs.json pins the choices this rounding makes.
        half = WarmStartAngles.from_probabilities(clamped).theta / 2.0
        cos_h, sin_h = np.cos(half), np.sin(half)
        self.cos_t = cos_h * cos_h - sin_h * sin_h
        self.sin_t = 2.0 * cos_h * sin_h
        if kind == STANDARD_X:
            self.axis_cos, self.axis_sin = np.zeros(n), np.ones(n)
        else:
            sign = -1.0 if kind == WARM_START_ROUNDED else 1.0
            self.axis_cos, self.axis_sin = self.cos_t, sign * self.sin_t

        # Rows of couplings to the third qubits (the pair's own qubits
        # zeroed) with the field as a last column; one row per product:
        # i alone, j alone, i and j flipped together, i and j flipped apart,
        # then every single qubit.
        m = ii.size
        rows = np.arange(m)
        from_i = np.hstack([couplings[ii], self.fields[ii, None]])
        from_j = np.hstack([couplings[jj], self.fields[jj, None]])
        from_i[rows, jj] = 0.0
        from_j[rows, ii] = 0.0
        single = np.hstack([couplings, self.fields[:, None]])
        self._angles = np.vstack([from_i, from_j, from_i + from_j, from_i - from_j, single])
        self._third_cos = np.append(self.cos_t, 1.0)

    def _mixer_axes(self, betas) -> np.ndarray:
        """(B, n, 3) Heisenberg-rotated Z, n_i(beta), for a 1-D array of betas."""
        cos2 = np.cos(2.0 * betas)[:, None]
        sin2 = np.sin(2.0 * betas)[:, None]
        c, s = self.axis_cos, self.axis_sin
        return np.stack(
            [c * s * (1.0 - cos2), -s * sin2, cos2 + c * c * (1.0 - cos2)], axis=-1
        )

    def _cost_layer(self, gammas):
        """Pair tensors (G, m, 3, 3) and Bloch vectors (G, n, 3) per gamma."""
        gammas = np.asarray(gammas, dtype=float)
        # one gamma at a time keeps the (rows, n + 1) factors small
        products = np.empty((gammas.size, self._angles.shape[0]), dtype=complex)
        for index, gamma in enumerate(gammas):
            phase = (2.0 * gamma) * self._angles
            products[index] = (np.cos(phase) - 1j * self._third_cos * np.sin(phase)).prod(axis=1)
        m = self.ii.size
        alone_i, alone_j, together, apart, single = (
            products[:, :m],
            products[:, m : 2 * m],
            products[:, 2 * m : 3 * m],
            products[:, 3 * m : 4 * m],
            products[:, 4 * m :],
        )

        ci, cj = self.cos_t[self.ii], self.cos_t[self.jj]
        si, sj = self.sin_t[self.ii], self.sin_t[self.jj]
        phase = 2.0 * gammas[:, None] * self.weights
        cos_w, sin_w = np.cos(phase), np.sin(phase)
        # X_i Z_j and Z_i X_j: coherence of one qubit weighted by the other's spin
        xz = si * alone_i * (cj * cos_w - 1j * sin_w)
        zx = sj * alone_j * (ci * cos_w - 1j * sin_w)
        # the two coherences of the pair: |00><11| and |01><10|
        both = 0.5 * si * sj * together
        swap = 0.5 * si * sj * apart

        tensors = np.empty((gammas.size, m, 3, 3))
        tensors[..., 0, 0] = both.real + swap.real
        tensors[..., 0, 1] = swap.imag - both.imag
        tensors[..., 1, 0] = -both.imag - swap.imag
        tensors[..., 1, 1] = swap.real - both.real
        tensors[..., 0, 2] = xz.real
        tensors[..., 1, 2] = -xz.imag
        tensors[..., 2, 0] = zx.real
        tensors[..., 2, 1] = -zx.imag
        tensors[..., 2, 2] = ci * cj
        bloch = np.stack(
            [
                self.sin_t * single.real,
                -self.sin_t * single.imag,
                np.broadcast_to(self.cos_t, single.shape),
            ],
            axis=-1,
        )
        return tensors, bloch

    def _layers(self, beta, gamma):
        shape = np.broadcast_shapes(np.shape(beta), np.shape(gamma))
        betas = np.ravel(np.asarray(beta, dtype=float))
        gammas = np.ravel(np.asarray(gamma, dtype=float))
        if betas.size * gammas.size != int(np.prod(shape)):
            raise ValueError("beta and gamma must be scalars or an outer grid")
        return shape, self._mixer_axes(betas), *self._cost_layer(gammas)

    def correlators(self, beta, gamma) -> np.ndarray:
        """<Z_i Z_j> of every pair."""
        shape, axes, tensors, _ = self._layers(beta, gamma)
        zz = np.einsum("bma,gmac,bmc->bgm", axes[:, self.ii], tensors, axes[:, self.jj])
        return zz.reshape(shape + (self.ii.size,))

    def magnetizations(self, beta, gamma) -> np.ndarray:
        """<Z_i> of every qubit."""
        shape, axes, _, bloch = self._layers(beta, gamma)
        return np.einsum("bna,gna->bgn", axes, bloch).reshape(shape + (self.n,))

    def energy(self, beta, gamma):
        """Energy expectation, from the correlators of the pairs, which must
        list every coupling of the model once (the default pairs do)."""
        shape, axes, tensors, bloch = self._layers(beta, gamma)
        count = axes.shape[0]
        outer = axes[:, self.ii, :, None] * axes[:, self.jj, None, :] * self.weights[:, None, None]
        local = axes * self.fields[:, None]
        energies = (
            self.offset
            + outer.reshape(count, -1) @ tensors.reshape(tensors.shape[0], -1).T
            + local.reshape(count, -1) @ bloch.reshape(bloch.shape[0], -1).T
        )
        return energies.reshape(shape) if shape else float(energies[0, 0])


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

    ``pairs`` is an (m, 2) integer array, possibly empty; ``c_star`` may be
    None for the standard family. See ``Depth1Evaluator``.
    """
    evaluator = Depth1Evaluator(maxcut_to_ising(g), mixer_kind, c_star, epsilon, pairs)
    return evaluator.correlators(beta, gamma)


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
    """<Z_i Z_j> of the depth-one trial state, via ``Depth1Evaluator``."""
    if i == j:
        raise ValueError("indices must differ")
    pair = np.array([[min(i, j), max(i, j)]])
    return float(
        depth1_edge_correlators(g, c_star, epsilon, beta, gamma, pair, mixer_kind)[0]
    )
