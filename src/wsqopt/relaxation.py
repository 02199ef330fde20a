"""Continuous relaxations and hyperplane rounding for QUBO / MAXCUT.

Two relaxations are provided: a box-constrained convex QP (binary variables
relaxed to [0, 1]) solved by accelerated projected gradient, and the MAXCUT
vector program (spins relaxed to unit vectors) solved in low-rank factored
form by coordinate ascent. Hyperplane rounding converts a vector solution
into cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .problems import PSD_TOL, CutAssignment, QuboProblem, WeightedGraph, cut_value
from .seeding import derive_seed

# projected gradient of the box QP stops once the KKT residual is at most
# QP_TOL, and raises IterationLimitError after QP_MAX_ITERS iterations
QP_TOL = 1e-8
QP_MAX_ITERS = 100_000


class NotConvexError(ValueError):
    """The quadratic form has a negative eigenvalue beyond tolerance."""


class IterationLimitError(RuntimeError):
    """The solver hit its iteration budget before reaching tolerance."""


@dataclass
class RelaxedSolution:
    """Optimum of the box relaxation: c_star in [0, 1]^n and its objective."""

    c_star: np.ndarray
    objective: float
    iterations: int = 0

    def __post_init__(self):
        self.c_star = np.asarray(self.c_star, dtype=float)
        if np.any(self.c_star < 0.0) or np.any(self.c_star > 1.0):
            raise ValueError("relaxed values must lie in [0, 1]")
        if not np.isfinite(self.objective):
            raise ValueError("objective must be finite")


@dataclass
class GramFactor:
    """Low-rank factor of the vector relaxation: unit rows v_i in R^k."""

    vectors: np.ndarray
    objective: float
    converged: bool = True

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError("vectors must be an (n, k) matrix with k >= 1")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.max(np.abs(norms - 1.0)) > PSD_TOL:
            raise ValueError("rows must have unit Euclidean norm")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]


def _kkt_residual(c: np.ndarray, grad: np.ndarray) -> float:
    """Max violation of the box-constrained first-order conditions.

    Interior coordinates need |grad| small, coordinates at 0 need grad >= 0,
    coordinates at 1 need grad <= 0.
    """
    lower = np.isclose(c, 0.0, rtol=0.0, atol=1e-14)
    upper = np.isclose(c, 1.0, rtol=0.0, atol=1e-14)
    interior = ~(lower | upper)
    res = np.zeros_like(c)
    res[interior] = np.abs(grad[interior])
    res[lower] = np.maximum(0.0, -grad[lower])
    res[upper] = np.maximum(0.0, grad[upper])
    return float(res.max()) if res.size else 0.0


def _active_set_polish(sigma, mu, c):
    """Exact solve on the free coordinates suggested by the current iterate.

    Coordinates within 1e-9 of a bound stay pinned; the interior block
    solves ``2 sigma_FF x = -(mu_F + 2 sigma_FB c_B)`` in the least-squares
    sense. Returns the polished point when it is box-feasible and passes the
    KKT check, else None.
    """
    boundary = 1e-9
    free = (c > boundary) & (c < 1.0 - boundary)
    polished = np.where(c <= boundary, 0.0, np.where(c >= 1.0 - boundary, 1.0, c))
    if free.any():
        pinned = ~free
        rhs = -(mu[free] + 2.0 * sigma[np.ix_(free, pinned)] @ polished[pinned])
        block = 2.0 * sigma[np.ix_(free, free)]
        solution, *_ = np.linalg.lstsq(block, rhs, rcond=None)
        if np.any(solution < -1e-12) or np.any(solution > 1.0 + 1e-12):
            return None
        polished[free] = np.clip(solution, 0.0, 1.0)
    grad = 2.0 * sigma @ polished + mu
    if _kkt_residual(polished, grad) <= QP_TOL:
        return polished
    return None


def solve_qp(q: QuboProblem) -> RelaxedSolution:
    """Minimize the QUBO objective over the box [0, 1]^n.

    Requires a positive semidefinite quadratic form (within 1e-9). Uses
    projected gradient with fixed step 1/L plus Nesterov momentum and
    objective-increase restarts; once the boundary set settles, an exact
    solve on the free coordinates finishes the job. Terminates when the KKT
    residual drops to ``QP_TOL``.
    """
    sigma, mu = q.sigma, q.mu
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() < -PSD_TOL:
        raise NotConvexError(
            f"quadratic form has eigenvalue {eigs.min():.3e} < -{PSD_TOL}"
        )
    lipschitz = max(2.0 * float(eigs.max()), 1e-12)
    step = 1.0 / lipschitz

    def grad(x):
        return 2.0 * sigma @ x + mu

    def finish(c, iteration):
        return RelaxedSolution(
            c_star=c, objective=q.objective(c), iterations=iteration
        )

    c = np.full(q.n, 0.5)
    y = c.copy()
    t = 1.0
    f_prev = q.objective(c)
    for iteration in range(1, QP_MAX_ITERS + 1):
        c_next = np.clip(y - step * grad(y), 0.0, 1.0)
        f_next = q.objective(c_next)
        if f_next > f_prev:
            # restart momentum from the last accepted point
            y = c.copy()
            t = 1.0
            c_next = np.clip(y - step * grad(y), 0.0, 1.0)
            f_next = q.objective(c_next)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = c_next + ((t - 1.0) / t_next) * (c_next - c)
        c, t, f_prev = c_next, t_next, f_next
        if _kkt_residual(c, grad(c)) <= QP_TOL:
            return finish(c, iteration)
        if iteration % 200 == 0:
            polished = _active_set_polish(sigma, mu, c)
            if polished is not None:
                return finish(polished, iteration)
    raise IterationLimitError(
        f"projected gradient did not reach tol={QP_TOL} in {QP_MAX_ITERS} iterations"
    )


# coordinate ascent of the vector program: seeded random starts, sweeps per
# start, and the first-order residual at which a start counts as converged
SDP_RESTARTS = 3
SDP_MAX_SWEEPS = 2000
SDP_TOL = 1e-8


def default_rank(n: int) -> int:
    """Factor rank ceil(sqrt(2n)): above it generic instances solve exactly."""
    return int(np.ceil(np.sqrt(2.0 * n)))


def _sdp_objective(weight_matrix: np.ndarray, vectors: np.ndarray) -> float:
    gram = vectors @ vectors.T
    return float(0.25 * np.sum(weight_matrix * (1.0 - gram)))


def solve_maxcut_sdp(g: WeightedGraph, seed: int = 0) -> GramFactor:
    """Maximize ``1/2 sum w_ij (1 - v_i . v_j)`` over unit vectors v_i.

    Low-rank coordinate ascent at rank ``default_rank(n)``: each row is
    replaced by the negative normalized weighted sum of its neighbours' rows,
    cycling until the first-order residual drops below ``SDP_TOL``.
    Restarted ``SDP_RESTARTS`` times from seeded random factors; the best
    iterate is returned, flagged ``converged=False`` if no restart reached
    stationarity within ``SDP_MAX_SWEEPS`` sweeps.
    """
    n = g.n
    k = default_rank(n)
    weights = g.weight_matrix()

    best_vectors = None
    best_objective = -np.inf
    best_converged = False
    for restart in range(SDP_RESTARTS):
        rng = np.random.default_rng(derive_seed(seed, "sdp-restart", restart))
        vectors = rng.standard_normal((n, k))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        converged = False
        for _ in range(SDP_MAX_SWEEPS):
            residual = 0.0
            for i in range(n):
                pull = weights[i] @ vectors
                norm = np.linalg.norm(pull)
                if norm <= SDP_TOL:
                    continue
                target = -pull / norm
                residual = max(residual, float(np.linalg.norm(vectors[i] - target)))
                vectors[i] = target
            if residual <= SDP_TOL:
                converged = True
                break
        objective = _sdp_objective(weights, vectors)
        if objective > best_objective:
            best_objective = objective
            best_vectors = vectors
            best_converged = converged
    return GramFactor(
        vectors=best_vectors, objective=best_objective, converged=best_converged
    )


def gw_round(f: GramFactor, rng: np.random.Generator) -> CutAssignment:
    """Hyperplane rounding: z_i = sign(r . v_i) for an isotropic r.

    The sign of zero is taken as +1.
    """
    r = rng.standard_normal(f.k)
    projections = f.vectors @ r
    return CutAssignment(np.where(projections >= 0.0, 1, -1))


def expected_cut_value(g: WeightedGraph, f: GramFactor) -> float:
    """Expected cut of hyperplane rounding: sum w_ij arccos(v_i . v_j) / pi."""
    if f.n != g.n:
        raise ValueError("factor size must match the graph")
    total = 0.0
    for i, j, w in g.edges:
        dot = float(np.clip(f.vectors[i] @ f.vectors[j], -1.0, 1.0))
        total += w * np.arccos(dot) / np.pi
    return float(total)


def gw_best_cuts(g: WeightedGraph, n_samples: int, keep: int, seed: int = 0) -> list[CutAssignment]:
    """Best unique cuts from repeated hyperplane rounding.

    Solves the vector relaxation, draws ``n_samples`` roundings of it,
    canonicalizes and deduplicates them, and returns at most ``keep`` cuts
    ordered by cut value descending, ties broken by lexicographic canonical
    form.
    """
    if not (n_samples >= keep >= 1):
        raise ValueError("need n_samples >= keep >= 1")
    factor = solve_maxcut_sdp(g, seed=derive_seed(seed, "sdp"))
    rng = np.random.default_rng(derive_seed(seed, "gw-round"))
    unique: dict = {}
    for _ in range(n_samples):
        cut = gw_round(factor, rng).canonical()
        unique.setdefault(cut.key(), cut)
    ranked = sorted(
        unique.values(),
        key=lambda cut: (-cut_value(g, cut.z), tuple(cut.bits())),
    )
    return ranked[:keep]


@lru_cache(maxsize=1)
def goemans_williamson_alpha() -> float:
    """Worst-case ratio of expected rounded cut to the vector optimum.

    Computed as (2/pi) * min over theta in (0, pi] of theta / (1 - cos theta);
    approximately 0.8785672.
    """
    result = minimize_scalar(
        lambda theta: (2.0 / np.pi) * theta / (1.0 - np.cos(theta)),
        bounds=(1e-6, np.pi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(result.fun)
