"""Recursive variable elimination driven by pair correlations.

Each round estimates the edge correlators <Z_i Z_j> of a depth-one trial
state (or, in the classical benchmark mode, of the best hyperplane-rounded
cuts), pins the most correlated pair ``z_elim = sign(M_ij) z_keep``, and
shrinks the graph until it is small enough to solve exactly. Back
substitution through the recorded pins yields a full assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .problems import (
    CutAssignment,
    WeightedGraph,
    brute_force,
    cut_value,
    maxcut_to_ising,
    reduce_maxcut,
)
from .relaxation import gw_best_cuts
from .seeding import derive_seed
from .simulator import (
    STANDARD_X,
    WARM_START_ROUNDED,
    Depth1Evaluator,
    StateVector,
    depth1_edge_correlators,
)
from .variational import GridSpec, grid_refine

# solve method name -> recursion mode
METHOD_MODES = {"rqaoa": "standard", "ws-rqaoa": "warm-start", "classical-gw": "classical-gw"}


class AmbiguousEliminationError(RuntimeError):
    """Every edge correlator is zero; no pair can be pinned."""


@dataclass
class EliminationRecord:
    """One pin z_eliminated = sign * z_kept; ids refer to the graph passed in."""

    eliminated: int
    kept: int
    sign: int


@dataclass
class RqaoaConfig:
    """Recursion controls: stop size, presolver samples, mixer regularization."""

    n_stop: int
    n_samples: int = 10
    keep: int = 5
    epsilon: float = 0.25
    seeding: tuple = ("grid",)
    mode: str = "warm-start"
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.n_stop < 1:
            raise ValueError("n_stop must be at least 1")
        if not (self.n_samples >= self.keep >= 1):
            raise ValueError("need n_samples >= keep >= 1")
        if not (0.0 <= self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in [0, 0.5]")
        if self.mode not in METHOD_MODES.values():
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class RqaoaResult:
    assignment: CutAssignment
    value: float
    records: list
    trace: list


def correlation_matrix_depth1(
    g: WeightedGraph,
    c_star,
    epsilon: float,
    beta: float,
    gamma: float,
    mixer_kind: str,
) -> np.ndarray:
    """Symmetric matrix of depth-one edge correlators, zero off the edges."""
    matrix = np.zeros((g.n, g.n))
    if g.m == 0:
        return matrix
    pairs = np.array([(i, j) for i, j, _ in g.edges], dtype=int)
    corr = depth1_edge_correlators(g, c_star, epsilon, beta, gamma, pairs, mixer_kind)
    for (i, j), value in zip(pairs, corr):
        matrix[i, j] = value
        matrix[j, i] = value
    return matrix


def correlation_matrix_from_state(state: StateVector, g: WeightedGraph) -> np.ndarray:
    """Edge correlators <Z_i Z_j> read from a full statevector."""
    if state.n != g.n:
        raise ValueError("state size must match the graph")
    probs = state.probabilities()
    idx = np.arange(probs.size, dtype=np.int64)
    matrix = np.zeros((g.n, g.n))
    for i, j, _ in g.edges:
        signs = 1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1)
        value = float(probs @ signs)
        matrix[i, j] = value
        matrix[j, i] = value
    return matrix


def correlation_matrix_from_cuts(cuts, g: WeightedGraph) -> np.ndarray:
    """Mean of z_i z_j over a list of cuts, restricted to the edges."""
    matrix = np.zeros((g.n, g.n))
    if not cuts:
        raise ValueError("need at least one cut")
    for i, j, _ in g.edges:
        value = float(np.mean([cut.z[i] * cut.z[j] for cut in cuts]))
        matrix[i, j] = value
        matrix[j, i] = value
    return matrix


def aggregate_correlations(matrices) -> np.ndarray:
    """Entrywise mean of per-run correlator matrices.

    Correlators are linear in the sampling distribution, so averaging the
    per-run matrices equals computing correlators under the averaged
    distribution. A single matrix passes through unchanged.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one correlation matrix")
    stack = np.stack([np.asarray(m, dtype=float) for m in matrices])
    return stack.mean(axis=0)


def eliminate(g: WeightedGraph, matrix: np.ndarray, allow_zero: bool = False):
    """Pin the pair with the largest |correlator| and shrink the graph.

    Ties break toward the lexicographically smallest edge (i, j); the larger
    node index is eliminated and the smaller kept. A zero maximum raises
    ``AmbiguousEliminationError`` unless ``allow_zero`` is set, in which case
    the sign defaults to +1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if g.m == 0:
        raise AmbiguousEliminationError("graph has no edges to eliminate over")
    best_edge = None
    best_abs = -1.0
    for i, j, _ in g.edges:
        value = abs(matrix[i, j])
        if value > best_abs:
            best_abs = value
            best_edge = (i, j)
    if best_abs == 0.0 and not allow_zero:
        raise AmbiguousEliminationError("all edge correlators are zero")
    i, j = best_edge
    correlator = matrix[i, j]
    sign = 1 if correlator >= 0.0 else -1
    reduced, offset = reduce_maxcut(g, elim=j, keep=i, sign=sign)
    record = EliminationRecord(eliminated=j, kept=i, sign=sign)
    return reduced, record, offset


def depth1_energy(
    g: WeightedGraph,
    c_star,
    epsilon: float,
    beta: float,
    gamma: float,
    mixer_kind: str,
) -> float:
    """Energy of the depth-one trial state from the edge correlators alone."""
    offset = -0.5 * g.total_weight()
    if g.m == 0:
        return offset
    pairs = np.array([(i, j) for i, j, _ in g.edges], dtype=int)
    weights = np.array([w for _, _, w in g.edges])
    corr = depth1_edge_correlators(g, c_star, epsilon, beta, gamma, pairs, mixer_kind)
    return float(offset + 0.5 * weights @ corr)


def _optimize_depth1(g, c_star, epsilon, mixer_kind, cfg: RqaoaConfig):
    """Grid-search then locally refine (beta_1, gamma_1) for one recursion level."""
    if cfg.seeding and cfg.seeding[0] == "fixed":
        beta, gamma = float(cfg.seeding[1]), float(cfg.seeding[2])
        return beta, gamma
    depth1 = Depth1Evaluator(maxcut_to_ising(g), mixer_kind, c_star, epsilon)
    # depth1_energy on the grid's evaluator: its offset is -sum(w) / 2 and its
    # pair weights are the couplings w / 2 of the graph's edges, in edge order
    result = grid_refine(
        depth1.energy,
        lambda x: float(depth1.offset + depth1.weights @ depth1.correlators(x[0], x[1])),
        1,
        cfg.grid,
    )
    return float(result.x[0]), float(result.x[1])


def run_rqaoa(g: WeightedGraph, cfg: RqaoaConfig, seed: int = 0) -> RqaoaResult:
    """Recursive elimination loop ending in an exact solve.

    Warm-start mode: at every level the hyperplane presolver keeps the best
    unique cuts, each seeds a depth-one run with the rounded mixer, and their
    correlator matrices are averaged. Standard mode runs a single depth-one
    circuit from the uniform superposition. Classical mode skips the quantum
    step and averages the cuts' own sign products. All randomness derives
    from ``seed``.
    """
    current = g
    node_map = list(range(g.n))
    records: list[EliminationRecord] = []
    trace: list[dict] = []
    total_offset = 0.0
    iteration = 0

    while current.n > cfg.n_stop and current.m > 0:
        gw_best_value = None
        if cfg.mode == "standard":
            beta, gamma = _optimize_depth1(current, None, 0.5, STANDARD_X, cfg)
            matrix = correlation_matrix_depth1(
                current, None, 0.5, beta, gamma, STANDARD_X
            )
        else:
            cuts = gw_best_cuts(
                current,
                cfg.n_samples,
                cfg.keep,
                seed=derive_seed(seed, "gw", iteration),
            )
            gw_best_value = cut_value(current, cuts[0].z)
            if cfg.mode == "classical-gw":
                matrix = correlation_matrix_from_cuts(cuts, current)
            else:
                matrices = []
                for cut in cuts:
                    c_star = cut.bits().astype(float)
                    beta, gamma = _optimize_depth1(
                        current, c_star, cfg.epsilon, WARM_START_ROUNDED, cfg
                    )
                    matrices.append(
                        correlation_matrix_depth1(
                            current, c_star, cfg.epsilon, beta, gamma, WARM_START_ROUNDED
                        )
                    )
                matrix = aggregate_correlations(matrices)

        reduced, record, offset = eliminate(current, matrix)
        keep_orig = node_map[record.kept]
        elim_orig = node_map[record.eliminated]
        records.append(
            EliminationRecord(eliminated=elim_orig, kept=keep_orig, sign=record.sign)
        )
        trace.append(
            {
                "iter": iteration,
                "n": current.n,
                "chosen_pair": [keep_orig, elim_orig],
                "sign": record.sign,
                "correlator": float(matrix[record.kept, record.eliminated]),
                "gw_best_value": gw_best_value,
            }
        )
        node_map.pop(record.eliminated)
        total_offset += offset
        current = reduced
        iteration += 1

    if current.m == 0:
        z_reduced = np.ones(current.n, dtype=int)
        reduced_value = 0.0
    else:
        z_reduced, ground = brute_force(maxcut_to_ising(current))
        reduced_value = -ground

    z_full = np.zeros(g.n, dtype=int)
    for index, original in enumerate(node_map):
        z_full[original] = z_reduced[index]
    for record in reversed(records):
        z_full[record.eliminated] = record.sign * z_full[record.kept]

    value = cut_value(g, z_full)
    reconstructed = reduced_value + total_offset
    if abs(value - reconstructed) > 1e-6 * max(1.0, abs(value)):
        raise AssertionError(
            f"bookkeeping mismatch: direct {value} vs reconstructed {reconstructed}"
        )
    assignment = CutAssignment(z_full).canonical()
    return RqaoaResult(
        assignment=assignment, value=value, records=records, trace=trace
    )


def run_classical_recursive_gw(g: WeightedGraph, cfg: RqaoaConfig, seed: int = 0):
    """Recursive benchmark that follows averaged hyperplane-rounding cuts."""
    result = run_rqaoa(g, replace(cfg, mode="classical-gw"), seed=seed)
    return result.assignment, result.value
