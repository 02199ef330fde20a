"""Classical outer loop: simplex search, grid seeding, and circuit tuning."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .problems import IsingModel
from .seeding import derive_seed
from .simulator import Circuit, Depth1Evaluator, QaoaParams, StateVector, index_of_bits


# Nelder-Mead stops once every vertex lies within X_TOLERANCE of the best
# one and every value within F_TOLERANCE of its value
X_TOLERANCE = 1e-6
F_TOLERANCE = 1e-9
# evaluation budget of one search, and the step from x0 to the other
# vertices of the first simplex
MAX_EVALS = 2000
INITIAL_SIMPLEX_SCALE = 0.1


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    evals: int
    reason: str


def minimize(objective, x0) -> MinimizeResult:
    """Nelder-Mead simplex descent with standard coefficients.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5. Deterministic
    given ``x0``; the returned value never exceeds ``objective(x0)`` because
    the start point is a simplex vertex and the best vertex is
    non-increasing. Stops with reason ``"max_evals"`` after ``MAX_EVALS``
    evaluations.
    """
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
        vertex[i] += INITIAL_SIMPLEX_SCALE
        simplex.append(vertex)
    values = []
    for vertex in simplex:
        if evals >= MAX_EVALS:
            return MinimizeResult(best_x, best_f, evals, "max_evals")
        values.append(score(vertex))
    simplex = np.array(simplex)
    values = np.array(values)

    reason = "max_evals"
    while evals < MAX_EVALS:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (
            np.max(np.abs(values[1:] - values[0])) <= F_TOLERANCE
            and np.max(np.abs(simplex[1:] - simplex[0])) <= X_TOLERANCE
        ):
            reason = "tolerance"
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = score(reflected)
        if f_reflected < values[0]:
            if evals < MAX_EVALS:
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
        if evals >= MAX_EVALS:
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
            if evals >= MAX_EVALS:
                break
            values[i] = score(simplex[i])
    return MinimizeResult(best_x, best_f, evals, reason)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of beta_points x gamma_points angles (default 24x24).

    Beta covers [0, pi) and gamma [0, 2 pi), each in equal steps with the
    upper end left out: the mixer is pi-periodic in beta up to phase and
    integer-weight cost layers are 2 pi-periodic in gamma. An even
    ``beta_points`` puts pi/2 exactly on the grid.
    """

    beta_points: int = 24
    gamma_points: int = 24

    def __post_init__(self):
        if self.beta_points < 2 or self.gamma_points < 2:
            raise ValueError("need at least two points per axis")

    def beta_axis(self) -> np.ndarray:
        b = self.beta_points
        return np.linspace(0.0, np.pi * (b - 1) / b, b)

    def gamma_axis(self) -> np.ndarray:
        g = self.gamma_points
        return np.linspace(0.0, 2.0 * np.pi * (g - 1) / g, g)


def grid_search(objective, spec: GridSpec):
    """Exhaustive search over the grid in one call of ``objective``.

    ``objective(beta, gamma)`` receives the beta axis as a column and the
    gamma axis as a row and returns the (beta, gamma) grid of values (a
    scalar broadcasts). The first minimum in (beta, gamma) order wins, so
    ties break toward smaller (beta, gamma), but only between exactly equal
    floats: points that tie mathematically, such as the standard mixer's
    symmetric (beta, gamma) images, are decided by rounding. NaN values are
    skipped.
    """
    betas, gammas = spec.beta_axis(), spec.gamma_axis()
    values = np.broadcast_to(
        np.asarray(objective(betas[:, None], gammas[None, :]), dtype=float),
        (betas.size, gammas.size),
    )
    b, g = np.unravel_index(np.nanargmin(values), values.shape)
    return float(betas[b]), float(gammas[g])


def grid_refine(depth1, objective, p: int, grid: GridSpec) -> MinimizeResult:
    """Grid-search (beta_1, gamma_1) with higher layers zeroed, then refine.

    ``depth1(beta, gamma)`` is the depth-one energy,
    ``Depth1Evaluator.energy``: ``grid_search`` calls it once on the whole
    grid, and at p = 1 the Nelder-Mead refinement calls it point by point,
    so ``objective`` is not used there (pass None). At p >= 2 the
    refinement runs on ``objective``, which takes the concatenated (betas,
    gammas) vector of length 2p; zeroed layers 2..p are the identity, so it
    equals ``depth1`` on the grid. Returns the ``MinimizeResult`` of the local
    search started at the best grid point, its ``evals`` counting the grid
    points too.
    """
    beta, gamma = grid_search(depth1, grid)
    if p == 1:
        objective = lambda x: depth1(x[0], x[1])
    x0 = np.zeros(2 * p)
    x0[0], x0[p] = beta, gamma
    result = minimize(objective, x0)
    return replace(result, evals=result.evals + grid.beta_points * grid.gamma_points)


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
    grid: GridSpec = GridSpec(),
    seed: int = 0,
    target=None,
) -> QaoaResult:
    """Minimize the trial-state energy over the 2p layer parameters.

    Seeding modes:

    * ``"grid"`` -- ``grid_refine`` over ``grid``: the grid is evaluated at
      depth one by ``Depth1Evaluator``; at p = 1 the refinement runs on the
      same evaluator, at p >= 2 all 2p parameters are refined on the
      statevector;
    * ``("random", k)`` -- best of k local searches from uniform random
      starts (beta in [0, pi), gamma in [0, 2 pi)), seeded deterministically;
    * ``("explicit", x0)`` -- single local search from the given
      concatenated (betas, gammas) vector.

    ``evals`` counts every energy evaluated: grid points, then local-search
    evaluations summed over the starts. The reported energy, ``p_target``
    and the state come from one statevector simulation at the returned
    parameters.
    """
    if p < 1:
        raise ValueError("depth p must be at least 1")
    circuit = Circuit(ising, mixer_kind, c_star, epsilon)

    def objective(x: np.ndarray) -> float:
        return circuit.energy(circuit.state(QaoaParams(betas=x[:p], gammas=x[p:])))

    if seeding == "grid":
        depth1 = Depth1Evaluator(ising, mixer_kind, c_star, epsilon)
        result = grid_refine(depth1.energy, objective, p, grid)
    elif isinstance(seeding, tuple) and seeding[0] == "random":
        k = int(seeding[1])
        if k < 1:
            raise ValueError("need at least one start")
        rng = np.random.default_rng(derive_seed(seed, "qaoa-multistart"))
        starts = [
            np.concatenate([rng.uniform(0.0, np.pi, size=p), rng.uniform(0.0, 2.0 * np.pi, size=p)])
            for _ in range(k)
        ]
        candidates = [minimize(objective, x0) for x0 in starts]
        # min keeps the first of equal values, the earliest start
        best = min(candidates, key=lambda candidate: candidate.fun)
        result = replace(best, evals=sum(candidate.evals for candidate in candidates))
    elif isinstance(seeding, tuple) and seeding[0] == "explicit":
        x0 = np.asarray(seeding[1], dtype=float)
        if x0.size != 2 * p:
            raise ValueError("explicit start must have length 2p")
        result = minimize(objective, x0)
    else:
        raise ValueError(f"unknown seeding spec {seeding!r}")

    params = QaoaParams(betas=result.x[:p], gammas=result.x[p:])
    state = circuit.state(params)
    p_target = None if target is None else probability_of(state, target)
    return QaoaResult(params, circuit.energy(state), state, result.evals, p_target)
