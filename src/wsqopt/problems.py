"""Problem representations (QUBO, Ising, MAXCUT) and exact reference solvers.

Conventions used throughout the package:

* binary variables ``x_i in {0, 1}`` and spins ``z_i in {-1, +1}`` are
  related by ``x_i = (1 - z_i) / 2`` (so ``x=0`` maps to ``z=+1``),
* a MAXCUT instance is encoded as an Ising model whose ground state is the
  maximum cut: ``energy(z) = -cut_value(z)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PSD_TOL = 1e-9
BRUTE_FORCE_MAX_VARS = 30


@dataclass
class QuboProblem:
    """Quadratic unconstrained binary optimization problem.

    Minimize ``x^T sigma x + mu^T x + offset`` over ``x in {0, 1}^n``.
    ``sigma`` is symmetrized on input; the objective is invariant under
    ``(sigma + sigma.T) / 2``.
    """

    sigma: np.ndarray
    mu: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"sigma must be square, got shape {sigma.shape}")
        if sigma.shape[0] < 1:
            raise ValueError("need at least one variable")
        if mu.shape != (sigma.shape[0],):
            raise ValueError(
                f"mu has shape {mu.shape}, expected ({sigma.shape[0]},)"
            )
        if not np.all(np.isfinite(sigma)) or not np.all(np.isfinite(mu)):
            raise ValueError("sigma and mu must be finite")
        self.sigma = 0.5 * (sigma + sigma.T)
        self.mu = mu
        self.offset = float(self.offset)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def objective(self, x) -> float:
        """Evaluate the objective for a binary (or relaxed) vector."""
        x = np.asarray(x, dtype=float)
        return float(x @ self.sigma @ x + self.mu @ x + self.offset)


@dataclass
class IsingModel:
    """Diagonal spin Hamiltonian ``sum J_ij z_i z_j + sum h_i z_i + offset``.

    Couplings are keyed by pairs ``(i, j)`` with ``i < j``.
    """

    n: int
    couplings: dict = field(default_factory=dict)
    fields: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one spin")
        if self.fields is None:
            self.fields = np.zeros(self.n)
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.shape != (self.n,):
            raise ValueError("fields length must equal n")
        clean = {}
        for (i, j), value in self.couplings.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"invalid coupling key ({i}, {j})")
            if value != 0.0:
                clean[(int(i), int(j))] = float(value)
        self.couplings = clean
        self.offset = float(self.offset)

    def energy(self, z) -> float:
        """Exact energy of a spin assignment ``z in {-1, +1}^n``."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ValueError("assignment length mismatch")
        total = self.offset + float(self.fields @ z)
        for (i, j), value in self.couplings.items():
            total += value * z[i] * z[j]
        return total

    def coupling_matrix(self) -> np.ndarray:
        """Upper-triangular matrix holding J_ij at [i, j]."""
        mat = np.zeros((self.n, self.n))
        for (i, j), value in self.couplings.items():
            mat[i, j] = value
        return mat


@dataclass
class WeightedGraph:
    """Edge-weighted undirected graph; edges stored as (i, j, w) with i < j."""

    n: int
    edges: list = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        clean = []
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not np.isfinite(w):
                raise ValueError("edge weight must be finite")
            seen.add((i, j))
            clean.append((i, j, w))
        clean.sort()
        self.edges = clean

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        mat = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            mat[i, j] = w
            mat[j, i] = w
        return mat


@dataclass
class CutAssignment:
    """A graph bipartition as a spin vector; z and -z denote the same cut."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=int)
        if z.ndim != 1 or z.size < 1:
            raise ValueError("assignment must be a non-empty vector")
        if not np.all(np.abs(z) == 1):
            raise ValueError("entries must be exactly +1 or -1")
        self.z = z

    @property
    def n(self) -> int:
        return self.z.size

    def canonical(self) -> "CutAssignment":
        """Representative with z[0] = +1."""
        if self.z[0] > 0:
            return CutAssignment(self.z.copy())
        return CutAssignment(-self.z)

    def key(self) -> bytes:
        """Hashable identity of the cut, complement-invariant."""
        return self.canonical().z.astype(np.int8).tobytes()

    def bits(self) -> np.ndarray:
        """Binary form x = (1 - z) / 2."""
        return ((1 - self.z) // 2).astype(int)

    @classmethod
    def from_bits(cls, bits) -> "CutAssignment":
        bits = np.asarray(bits, dtype=int)
        return cls(1 - 2 * bits)


@dataclass
class PortfolioInstance:
    """Budgeted asset-selection problem: min q x'Sx - mu'x s.t. 1'x = B."""

    sigma: np.ndarray
    mu: np.ndarray
    q: float
    budget: int
    penalty: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be square")
        if mu.shape != (sigma.shape[0],):
            raise ValueError("mu length mismatch")
        if np.max(np.abs(sigma - sigma.T)) > PSD_TOL:
            raise ValueError("sigma must be symmetric")
        if np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).min() < -PSD_TOL:
            raise ValueError("sigma must be positive semidefinite")
        if not (0 <= self.budget <= sigma.shape[0]):
            raise ValueError("budget must satisfy 0 <= B <= n")
        self.sigma = 0.5 * (sigma + sigma.T)
        self.mu = mu
        self.q = float(self.q)
        self.budget = int(self.budget)
        self.penalty = float(self.penalty)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def qubo_to_ising(q: QuboProblem) -> IsingModel:
    """Rewrite a QUBO over bits as a spin Hamiltonian via x = (1 - z) / 2.

    The returned model satisfies ``energy(z) == q.objective(x)`` exactly for
    every binary assignment.
    """
    sigma, mu, n = q.sigma, q.mu, q.n
    row = sigma.sum(axis=1)
    fields = -0.5 * row - 0.5 * mu
    offset = 0.25 * (sigma.sum() + np.trace(sigma)) + 0.5 * mu.sum() + q.offset
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            value = 0.5 * sigma[i, j]
            if value != 0.0:
                couplings[(i, j)] = value
    return IsingModel(n=n, couplings=couplings, fields=fields, offset=float(offset))


def maxcut_to_ising(g: WeightedGraph) -> IsingModel:
    """Spin Hamiltonian whose ground state is the maximum cut.

    ``energy(z) = -cut_value(g, z)``: couplings w/2 and offset -sum(w)/2.
    """
    couplings = {(i, j): 0.5 * w for i, j, w in g.edges}
    return IsingModel(
        n=g.n, couplings=couplings, offset=-0.5 * g.total_weight()
    )


def cut_value(g: WeightedGraph, z) -> float:
    """Total weight of edges crossing the bipartition encoded by z."""
    z = np.asarray(z)
    if z.shape != (g.n,):
        raise ValueError("assignment length mismatch")
    return float(sum(w for i, j, w in g.edges if z[i] != z[j]))


def portfolio_qubo(p: PortfolioInstance) -> QuboProblem:
    """Penalized QUBO for a budgeted portfolio.

    Objective: ``q x'Sx - mu'x + penalty * (1'x - B)^2``, expanded into a
    quadratic form plus the constant ``penalty * B^2`` kept as the offset.
    """
    n = p.n
    ones = np.ones((n, n))
    sigma = p.q * p.sigma + p.penalty * ones
    mu = -p.mu - 2.0 * p.penalty * p.budget * np.ones(n)
    offset = p.penalty * float(p.budget) ** 2
    return QuboProblem(sigma=sigma, mu=mu, offset=offset)


def reduce_maxcut(g: WeightedGraph, elim: int, keep: int, sign: int):
    """Remove a node by pinning its spin to ``sign`` times another node's.

    Substituting ``z_elim = sign * z_keep`` turns the instance into a MAXCUT
    problem on n-1 nodes: every edge (i, elim) with i != keep folds into
    (i, keep) with weight ``sign * w``, and each edge incident to ``elim``
    contributes ``(1 - sign) * w / 2`` to a constant offset. For every
    assignment z' of the reduced graph,
    ``cut_value(reduced, z') + offset == cut_value(g, z)`` where z extends z'
    with the pinned spin. Indices above ``elim`` shift down by one; parallel
    edges created by the fold are merged and exact zero-sum edges dropped.
    """
    if elim == keep:
        raise ValueError("elim and keep must differ")
    if not (0 <= elim < g.n and 0 <= keep < g.n):
        raise ValueError("node index out of range")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")

    merged: dict = {}
    offset = 0.0
    for i, j, w in g.edges:
        if elim in (i, j):
            other = j if i == elim else i
            offset += 0.5 * (1 - sign) * w
            if other == keep:
                continue
            key = (min(other, keep), max(other, keep))
            merged[key] = merged.get(key, 0.0) + sign * w
        else:
            merged[(i, j)] = merged.get((i, j), 0.0) + w

    def remap(v: int) -> int:
        return v - 1 if v > elim else v

    edges = []
    for (i, j), w in merged.items():
        if w == 0.0:
            continue
        a, b = remap(i), remap(j)
        edges.append((min(a, b), max(a, b), w))
    return WeightedGraph(n=g.n - 1, edges=edges), offset


def brute_force(ising: IsingModel):
    """Exhaustive minimization of an Ising model.

    Returns ``(z_star, e0)`` where ``e0`` is the exact minimum energy. Ties
    break toward the lexicographically smallest bitstring (x_0, ..., x_{n-1}).
    Guarded at ``BRUTE_FORCE_MAX_VARS`` variables; evaluation is vectorized
    in chunks.
    """
    n = ising.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_VARS} variables, got {n}")
    ju = ising.coupling_matrix()
    h = ising.fields
    size = 1 << n
    chunk = 1 << min(n, 16)
    best_energy = np.inf
    best_index = 0
    for start in range(0, size, chunk):
        idx = np.arange(start, min(start + chunk, size), dtype=np.int64)
        # bit k of the enumeration index is x_{n-1-k}: ascending index order
        # is lexicographic order on the bitstring.
        cols = [1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]
        z = np.stack(cols, axis=1)
        energies = ((z @ ju) * z).sum(axis=1) + z @ h + ising.offset
        local = int(np.argmin(energies))
        if energies[local] < best_energy:
            best_energy = float(energies[local])
            best_index = int(idx[local])
    bits = np.array([(best_index >> (n - 1 - i)) & 1 for i in range(n)], dtype=int)
    return 1 - 2 * bits, best_energy
