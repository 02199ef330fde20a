"""Sticky diffusions over Gram vectors as a randomized rounding scheme.

Every coordinate i carries a process W_i started at 0 and driven by a
single shared Brownian motion projected onto the unit vector v_i:

    dW_i = phi(W_i) * v_i . dB(t)

The speed function phi vanishes at +-1, so each coordinate sticks at the
boundary; the absorbed signs form a rounding of the Gram vectors. With the
Gaussian-quantile speed the absorbed-sign correlation of a pair equals
(2/pi) arcsin(v_u . v_v), matching hyperplane rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .relaxation import GramFactor

# a coordinate freezes once it is within ABSORB_TOL of -1 or +1
ABSORB_TOL = 1e-4
# grid points of the speed tables that ``tabulated`` builds
TABLE_POINTS = 1 << 20


@dataclass
class DiffusionConfig:
    """Euler-Maruyama discretization and sampling controls."""

    dt: float = 1e-3
    max_steps: int = 50_000
    trajectories: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.max_steps < 1:
            raise ValueError("need at least one step")


def krivine_speed(s):
    """Gaussian-quantile speed sqrt(2/pi) exp(-Phi^{-1}((1-s)/2)^2 / 2).

    Evaluates to sqrt(2/pi) at 0 and to its limit 0 at the boundary.
    """
    scalar = np.ndim(s) == 0
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise ValueError("speed functions are defined on [-1, 1]")
    out = np.zeros_like(arr)
    interior = np.abs(arr) < 1.0
    quantile = ndtri((1.0 - arr[interior]) / 2.0)
    out[interior] = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * quantile**2)
    return float(out[0]) if scalar else out


def poly_speed(alpha: float = 1.0):
    """Polynomial speed family (1 - s^2)^alpha for alpha > 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def speed(s):
        scalar = np.ndim(s) == 0
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(arr < -1.0) or np.any(arr > 1.0):
            raise ValueError("speed functions are defined on [-1, 1]")
        out = (1.0 - arr**2) ** alpha
        return float(out[0]) if scalar else out

    return speed


def tabulated(speed):
    """Linear-interpolation table of a speed function on [-1, 1].

    Table error is around 1e-8 for the speeds above, far below the
    discretization bias of the Monte Carlo loop, while evaluation avoids the
    exact quantile formula. The grid is uniform, so lookups index directly
    instead of searching.
    """
    grid = np.linspace(-1.0, 1.0, TABLE_POINTS)
    values = np.asarray(speed(grid), dtype=float)
    inv_h = (TABLE_POINTS - 1) / 2.0

    def fast(s):
        t = (np.asarray(s, dtype=float) + 1.0) * inv_h
        idx = t.astype(np.int64)
        np.clip(idx, 0, TABLE_POINTS - 2, out=idx)
        frac = t - idx
        return values[idx] * (1.0 - frac) + values[idx + 1] * frac

    return fast


@dataclass
class SignSamples:
    """Absorbed signs per (trajectory, coordinate) plus truncation flags."""

    signs: np.ndarray
    truncated: np.ndarray

    @property
    def trajectories(self) -> int:
        return self.signs.shape[0]

    def truncated_fraction(self) -> float:
        """Fraction of cells still unabsorbed when the step budget ran out."""
        return float(self.truncated.mean())


def simulate_signs(f: GramFactor, speed, cfg: DiffusionConfig) -> SignSamples:
    """Monte Carlo sample of absorbed signs for every coordinate.

    Per trajectory and step one shared increment dB ~ Normal(0, dt I_k)
    drives all coordinates; a coordinate freezes once it is within
    ``ABSORB_TOL`` of a boundary and its sign is recorded. Coordinates still
    in the interior after ``max_steps`` contribute sign(W) (sign of zero is
    +1) and are flagged as truncated. Finished trajectories are dropped from
    the working set, so early absorption saves work without changing the
    statistics.
    """
    vectors = f.vectors
    n_coords = f.n
    rng = np.random.default_rng(cfg.seed)
    total = cfg.trajectories

    signs = np.zeros((total, n_coords), dtype=np.int8)
    truncated = np.zeros((total, n_coords), dtype=bool)

    ids = np.arange(total)
    positions = np.zeros((total, n_coords))
    frozen = np.zeros((total, n_coords), dtype=bool)
    scale = np.sqrt(cfg.dt)
    threshold = 1.0 - ABSORB_TOL

    for _ in range(cfg.max_steps):
        if ids.size == 0:
            break
        increments = rng.standard_normal((ids.size, f.k)) * scale
        projections = increments @ vectors.T
        # all elementwise work happens on the coordinates still in flight
        moving = ~frozen
        pos = positions[moving]
        pos += np.asarray(speed(pos)) * projections[moving]
        np.clip(pos, -1.0, 1.0, out=pos)
        positions[moving] = pos
        frozen[moving] = np.abs(pos) >= threshold

        done = frozen.all(axis=1)
        if np.any(done):
            finished = ids[done]
            signs[finished] = np.where(positions[done] >= 0.0, 1, -1)
            keep = ~done
            ids = ids[keep]
            positions = positions[keep]
            frozen = frozen[keep]

    if ids.size:
        signs[ids] = np.where(positions >= 0.0, 1, -1)
        truncated[ids] = ~frozen
    return SignSamples(signs=signs, truncated=truncated)


@dataclass
class PairCorrelation:
    """Empirical vs predicted sign correlation for one coordinate pair."""

    u: int
    v: int
    dot: float
    empirical: float
    predicted: float
    abs_error: float
    stderr: float
    truncated_frac: float


def correlation_report(samples: SignSamples, f: GramFactor, pairs) -> list:
    """Per-pair comparison of empirical sign correlations to the arcsin law.

    ``stderr`` is the sample standard error of the sign products and
    ``truncated_frac`` the fraction of trajectories in which either
    coordinate of the pair was truncated.
    """
    rows = []
    for u, v in pairs:
        if not (0 <= u < f.n and 0 <= v < f.n):
            raise ValueError("pair index out of range")
        products = samples.signs[:, u].astype(float) * samples.signs[:, v]
        empirical = float(products.mean())
        dot = float(np.clip(f.vectors[u] @ f.vectors[v], -1.0, 1.0))
        predicted = float(2.0 / np.pi * np.arcsin(dot))
        stderr = float(
            products.std(ddof=1) / np.sqrt(products.size) if products.size > 1 else 0.0
        )
        truncated = float(
            np.mean(samples.truncated[:, u] | samples.truncated[:, v])
        )
        rows.append(
            PairCorrelation(
                u=int(u),
                v=int(v),
                dot=dot,
                empirical=empirical,
                predicted=predicted,
                abs_error=abs(empirical - predicted),
                stderr=stderr,
                truncated_frac=truncated,
            )
        )
    return rows
