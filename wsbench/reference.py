"""Reference computations that check wsqopt's outputs.

Everything here is written from the conventions stated in the project README
(bit order, mixer generators, cost phase) and from the problem definitions,
and uses none of the package's code, so an error in the package cannot hide
in its own reference.

Bit order: bit ``i`` of a basis index is the value ``x_i`` of node (qubit,
asset) ``i``; spins are ``z_i = 1 - 2 x_i``. Bitstrings compared
lexicographically are read ``x_0`` first.
"""

from __future__ import annotations

import numpy as np

STANDARD_X = "standard-x"
WARM_START = "warm-start"
WARM_START_ROUNDED = "warm-start-rounded"


def index_bits(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: row ``x`` holds the bits of basis index ``x``."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.int8)


def cut_table(n: int, edges) -> np.ndarray:
    """Cut value of every basis index, indexed by the index."""
    idx = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n)
    for i, j, w in edges:
        table += w * (((idx >> i) ^ (idx >> j)) & 1)
    return table


def cut_of(edges, z) -> float:
    """Weight of the edges whose end points have different spins."""
    return float(sum(w for i, j, w in edges if z[i] != z[j]))


def portfolio_table(sigma, mu, q: float, budget: int, penalty: float) -> np.ndarray:
    """q x'Sx - mu'x + penalty (1'x - B)^2 for every basis index."""
    sigma = np.asarray(sigma, dtype=float)
    mu = np.asarray(mu, dtype=float)
    x = index_bits(mu.size).astype(float)
    risk = np.einsum("ki,ij,kj->k", x, sigma, x)
    return q * risk - x @ mu + penalty * (x.sum(axis=1) - budget) ** 2


def portfolio_objective(sigma, mu, q: float, budget: int, penalty: float, x) -> float:
    """The portfolio objective at one (possibly fractional) point x."""
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(q * x @ sigma @ x - np.asarray(mu) @ x + penalty * (x.sum() - budget) ** 2)


def portfolio_quadratic(sigma, mu, q: float, budget: int, penalty: float):
    """(H, g) with objective = 1/2 x'Hx + g'x + const, so the gradient is Hx + g."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    h = 2.0 * (q * np.asarray(sigma, dtype=float) + penalty * np.ones((n, n)))
    return h, -mu - 2.0 * penalty * budget


def box_minimiser(sigma, mu, q: float, budget: int, penalty: float) -> np.ndarray:
    """Minimiser of the portfolio objective over [0, 1]^n.

    The objective is 1/2 x'Hx + g'x + const with H = 2 (q sigma + lambda 11')
    and g = -mu - 2 lambda B 1 (``portfolio_quadratic``). Primal active-set
    method: minimise over the free coordinates, step to the first bound in
    the way and pin it, and release the pinned coordinate whose gradient
    points most into the box; strict convexity makes this finite. The
    result must meet the KKT conditions to round-off.
    """
    h, g = portfolio_quadratic(sigma, mu, q, budget, penalty)
    n = g.size
    x = np.full(n, 0.5)
    pinned = np.zeros(n, dtype=bool)
    for _ in range(50 * n):
        free = ~pinned
        target = x.copy()
        if free.any():
            rhs = -(g[free] + h[np.ix_(free, pinned)] @ x[pinned])
            target[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
        step = target - x
        if np.max(np.abs(step)) <= 1e-15:
            grad = h @ x + g
            # a pinned coordinate may leave its bound if the gradient points inward
            wrong = np.where(pinned, np.where(x <= 0.0, -grad, grad), 0.0)
            if wrong.max() <= 1e-13:
                break
            pinned[int(np.argmax(wrong))] = False
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step < 0.0, -x / step, np.where(step > 0.0, (1.0 - x) / step, np.inf))
        blocking = int(np.argmin(room))
        alpha = min(1.0, room[blocking])
        x = np.clip(x + alpha * step, 0.0, 1.0)
        if alpha < 1.0:
            x[blocking] = 0.0 if step[blocking] < 0.0 else 1.0
            pinned[blocking] = True
    residual = box_kkt_residual(x, h @ x + g)
    if residual > 1e-10:
        raise ArithmeticError(f"active-set method did not converge (KKT residual {residual:.2e})")
    return x


def box_kkt_residual(x, grad, bound_tol: float = 1e-9) -> float:
    """Largest violation of the first-order conditions on [0, 1]^n.

    At a lower bound the gradient must be >= 0, at an upper bound <= 0, and
    it must vanish in the interior.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    lower = x <= bound_tol
    upper = x >= 1.0 - bound_tol
    interior = ~(lower | upper)
    res = np.concatenate(
        [np.abs(grad[interior]), np.maximum(0.0, -grad[lower]), np.maximum(0.0, grad[upper])]
    )
    return float(res.max()) if res.size else 0.0


def lexicographic_argmin(table: np.ndarray, n: int, tol: float = 0.0) -> int:
    """Basis index of the minimum; ties go to the smallest string x_0..x_{n-1}."""
    ties = np.flatnonzero(table <= table.min() + tol)
    bits = index_bits(n)[ties]
    keys = bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    return int(ties[int(np.argmin(keys))])


def index_of(bits) -> int:
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def warm_angles(c_star, epsilon: float) -> np.ndarray:
    """theta_i = 2 arcsin(sqrt(c_i)), with c clamped into [eps, 1 - eps]."""
    c = np.clip(np.asarray(c_star, dtype=float), epsilon, 1.0 - epsilon)
    return 2.0 * np.arcsin(np.sqrt(c))


def qaoa_probabilities(energies, n: int, kind: str, theta, betas, gammas) -> np.ndarray:
    """Measurement probabilities of the p-layer trial state.

    The standard family starts in |+>^n and mixes with exp(i beta X). The
    warm families start in the product state (cos(t/2), sin(t/2)) per qubit
    and mix with exp(-i beta H), H = -sin(t) X - cos(t) Z for ``warm-start``
    and H = +sin(t) X - cos(t) Z for ``warm-start-rounded``. Each layer first
    multiplies amplitudes by exp(-i gamma E(x)).
    """
    energies = np.asarray(energies, dtype=float)
    if kind == STANDARD_X:
        amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
        axes = [(1.0, 0.0)] * n
    else:
        theta = np.asarray(theta, dtype=float)
        bits = index_bits(n).astype(bool)
        amp = np.where(bits, np.sin(theta / 2.0), np.cos(theta / 2.0)).prod(axis=1).astype(complex)
        sign = 1.0 if kind == WARM_START else -1.0
        axes = [(sign * np.sin(t), np.cos(t)) for t in theta]
    for beta, gamma in zip(betas, gammas):
        amp = amp * np.exp(-1j * gamma * energies)
        c, s = np.cos(beta), np.sin(beta)
        for qubit, (ax, az) in enumerate(axes):
            # exp(i beta (ax X + az Z)) = cos(beta) I + i sin(beta) (ax X + az Z)
            view = amp.reshape(-1, 2, 1 << qubit)
            a0, a1 = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = (c + 1j * s * az) * a0 + 1j * s * ax * a1
            view[:, 1, :] = 1j * s * ax * a0 + (c - 1j * s * az) * a1
    return np.abs(amp) ** 2


def expected_hyperplane_cut(edges, vectors) -> float:
    """sum_ij w_ij arccos(v_i . v_j) / pi."""
    v = np.asarray(vectors, dtype=float)
    return float(sum(w * np.arccos(np.clip(v[i] @ v[j], -1.0, 1.0)) / np.pi for i, j, w in edges))


def vector_program_value(edges, vectors) -> float:
    """1/2 sum_ij w_ij (1 - v_i . v_j), the relaxed cut of unit vectors."""
    v = np.asarray(vectors, dtype=float)
    return float(sum(0.5 * w * (1.0 - v[i] @ v[j]) for i, j, w in edges))


def normalised_ratio(energy: float, e_min: float, e_max: float) -> float:
    """(E_max - E) / (E_max - E_min): 1 at the optimum, 0 at the worst."""
    return (e_max - energy) / (e_max - e_min)
