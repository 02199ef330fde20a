"""Classical outer loop: simplex search, grid seeding, and circuit tuning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import IsingModel
from .seeding import derive_seed
from .simulator import Circuit, QaoaParams, StateVector, index_of_bits


@dataclass
class OptimizerConfig:
    """Budget and tolerances of the derivative-free local search."""

    max_evals: int = 2000
    x_tolerance: float = 1e-6
    f_tolerance: float = 1e-9
    initial_simplex_scale: float = 0.1

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if min(self.x_tolerance, self.f_tolerance, self.initial_simplex_scale) <= 0:
            raise ValueError("tolerances and simplex scale must be positive")


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    evals: int
    reason: str


def minimize(objective, x0, cfg: OptimizerConfig | None = None) -> MinimizeResult:
    """Nelder-Mead simplex descent with standard coefficients.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5. Deterministic
    given ``x0`` and ``cfg``; the returned value never exceeds
    ``objective(x0)`` because the start point is a simplex vertex and the
    best vertex is non-increasing.
    """
    cfg = cfg or OptimizerConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    dim = x0.size

    evals = 0
    best_x, best_f = x0.copy(), np.inf

    def score(x):
        nonlocal evals, best_x, best_f
        evals += 1
        f = float(objective(x))
        if f < best_f:
            best_f, best_x = f, x.copy()
        return f

    simplex = [x0.copy()]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] += cfg.initial_simplex_scale
        simplex.append(vertex)
    values = []
    for vertex in simplex:
        if evals >= cfg.max_evals:
            return MinimizeResult(best_x, best_f, evals, "max_evals")
        values.append(score(vertex))
    simplex = np.array(simplex)
    values = np.array(values)

    reason = "max_evals"
    while evals < cfg.max_evals:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (
            np.max(np.abs(values[1:] - values[0])) <= cfg.f_tolerance
            and np.max(np.abs(simplex[1:] - simplex[0])) <= cfg.x_tolerance
        ):
            reason = "tolerance"
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = score(reflected)
        if f_reflected < values[0]:
            if evals < cfg.max_evals:
                expanded = centroid + 2.0 * (centroid - worst)
                f_expanded = score(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                    continue
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if evals >= cfg.max_evals:
            break
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_contracted = score(contracted)
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = centroid - 0.5 * (centroid - worst)
            f_contracted = score(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        # shrink toward the best vertex
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            if evals >= cfg.max_evals:
                break
            values[i] = score(simplex[i])
    return MinimizeResult(best_x, best_f, evals, reason)


@dataclass
class GridSpec:
    """Inclusive rectangular grid over (beta, gamma)."""

    beta_range: tuple
    gamma_range: tuple
    beta_points: int = 24
    gamma_points: int = 24

    def __post_init__(self):
        if self.beta_points < 2 or self.gamma_points < 2:
            raise ValueError("need at least two points per axis")

    def beta_axis(self) -> np.ndarray:
        return np.linspace(self.beta_range[0], self.beta_range[1], self.beta_points)

    def gamma_axis(self) -> np.ndarray:
        return np.linspace(self.gamma_range[0], self.gamma_range[1], self.gamma_points)


def default_depth1_grid() -> GridSpec:
    """24x24 grid covering beta in [0, pi) and gamma in [0, 2 pi).

    Spacing pi/24 along beta puts pi/2 exactly on the grid; the mixer is
    pi-periodic in beta up to phase and integer-weight cost layers are
    2 pi-periodic in gamma.
    """
    return GridSpec(
        beta_range=(0.0, np.pi * 23.0 / 24.0),
        gamma_range=(0.0, 2.0 * np.pi * 23.0 / 24.0),
        beta_points=24,
        gamma_points=24,
    )


def grid_search(objective, spec: GridSpec):
    """Exhaustive search over the grid; ties break toward smaller (beta, gamma)."""
    best = None
    best_value = np.inf
    for beta in spec.beta_axis():
        for gamma in spec.gamma_axis():
            value = float(objective(beta, gamma))
            if value < best_value:
                best_value = value
                best = (float(beta), float(gamma))
    return best


def grid_refine(
    objective, p: int, grid: GridSpec | None = None, cfg: OptimizerConfig | None = None
) -> MinimizeResult:
    """Grid-search (beta_1, gamma_1) with higher layers zeroed, then refine.

    ``objective`` takes the concatenated (betas, gammas) vector of length
    2p; the grid defaults to ``default_depth1_grid``. Returns the
    ``MinimizeResult`` of the local search started at the best grid point.
    """

    def padded(beta, gamma):
        x = np.zeros(2 * p)
        x[0], x[p] = beta, gamma
        return x

    point = grid_search(
        lambda beta, gamma: objective(padded(beta, gamma)), grid or default_depth1_grid()
    )
    return minimize(objective, padded(*point), cfg)


@dataclass
class QaoaResult:
    """Optimized circuit parameters, energy, state and bookkeeping."""

    params: QaoaParams
    energy: float
    state: StateVector
    evals: int
    p_target: float | None = None


def probability_of(state: StateVector, target) -> float:
    """Squared amplitude of a target bitstring (qubit-0-first)."""
    if len(target) != state.n:
        raise ValueError("target length must equal the qubit count")
    index = index_of_bits(target)
    return float(np.abs(state.amplitudes[index]) ** 2)


def cut_probability(state: StateVector, z) -> float:
    """Probability of a cut: max over the two spin strings describing it."""
    z = np.asarray(z, dtype=int)
    bits = ((1 - z) // 2).astype(int)
    flipped = 1 - bits
    return max(probability_of(state, bits), probability_of(state, flipped))


def run_qaoa(
    ising: IsingModel,
    mixer_kind: str,
    c_star=None,
    epsilon: float = 0.25,
    p: int = 1,
    seeding="grid",
    grid: GridSpec | None = None,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
    target=None,
) -> QaoaResult:
    """Minimize the trial-state energy over the 2p layer parameters.

    Seeding modes:

    * ``"grid"`` -- ``grid_refine`` over ``grid`` (default
      ``default_depth1_grid``) at full depth;
    * ``("random", k)`` -- best of k local searches from uniform random
      starts (beta in [0, pi), gamma in [0, 2 pi)), seeded deterministically;
    * ``("explicit", x0)`` -- single local search from the given
      concatenated (betas, gammas) vector.

    The reported energy is recomputed from the returned state.
    """
    circuit = Circuit(ising, mixer_kind, c_star, epsilon)
    evals = 0

    def objective(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return circuit.energy(circuit.state(QaoaParams(betas=x[:p], gammas=x[p:])))

    cfg = cfg or OptimizerConfig()
    if seeding == "grid":
        result = grid_refine(objective, p, grid, cfg)
    elif isinstance(seeding, tuple) and seeding[0] == "random":
        k = int(seeding[1])
        if k < 1:
            raise ValueError("need at least one start")
        rng = np.random.default_rng(derive_seed(seed, "qaoa-multistart"))
        result = None
        for start in range(k):
            betas0 = rng.uniform(0.0, np.pi, size=p)
            gammas0 = rng.uniform(0.0, 2.0 * np.pi, size=p)
            candidate = minimize(objective, np.concatenate([betas0, gammas0]), cfg)
            if result is None or candidate.fun < result.fun:
                result = candidate
    elif isinstance(seeding, tuple) and seeding[0] == "explicit":
        x0 = np.asarray(seeding[1], dtype=float)
        if x0.size != 2 * p:
            raise ValueError("explicit start must have length 2p")
        result = minimize(objective, x0, cfg)
    else:
        raise ValueError(f"unknown seeding spec {seeding!r}")

    params = QaoaParams(betas=result.x[:p], gammas=result.x[p:])
    state = circuit.state(params)
    p_target = None if target is None else probability_of(state, target)
    return QaoaResult(
        params=params, energy=circuit.energy(state), state=state, evals=evals, p_target=p_target
    )
